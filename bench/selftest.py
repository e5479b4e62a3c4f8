"""Tests of the benchmark itself, on small grids.

Run from the repository root with::

    python3 -m pytest -q bench/selftest.py

The file name keeps it out of the tier-1 collection (``test_*.py``).
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.load_program()
import tracing  # noqa: E402
import workloads  # noqa: E402

from varexp import sobolev  # noqa: E402


def _small(name, tmp_path, seed=3):
    return workloads.prepare(name, seed, tmp_path / "out", size=workloads.SMALL)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_outputs_bit_identical(name, tmp_path):
    # iterations 0 and 2 traced, 1 untraced; measure() fails any op whose
    # recorded values differ in a single bit from iteration 0
    res = run.measure(_small(name, tmp_path), 0.0, True, tmp_path / "out")
    assert res.failures == []
    assert res.attempted == 3 * len(_small(name, tmp_path))
    assert len(res.traced_walls) == 2 and len(res.walls) == 1


def test_traced_minimizer_array_bit_identical(tmp_path):
    ops = _small("critical-square", tmp_path)
    plain = ops[0].run()
    tracer = tracing.Tracer()
    undo, missing = tracing.install(tracer)
    try:
        tracer.enabled = True
        traced = ops[0].run()
    finally:
        undo()
    assert missing == []
    assert traced.value == plain.value
    assert traced.trace == plain.trace
    assert np.array_equal(traced.minimizer.values, plain.minimizer.values)
    assert not hasattr(sobolev.minimize_sobolev, "__wrapped__")   # undo restored it


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_self_times_within_spans(name, tmp_path):
    ops = _small(name, tmp_path)
    tracer = tracing.Tracer()
    undo, _ = tracing.install(tracer)
    try:
        tracer.enabled = True
        for op in ops:
            op.run()
    finally:
        undo()
    assert tracer.spans
    # children are disjoint sub-intervals of the parent; the slack covers
    # rounding of perf_counter differences
    for span in tracer.spans:
        assert span.end >= span.start
        assert span.self_s >= -1e-9
        assert span.self_s <= span.duration + 1e-12


def test_layer_metrics_per_workload(tmp_path):
    # a seed no other test uses: factorizations are cached per domain for
    # the life of the process, and this test counts them
    layers = {}
    for name in workloads.WORKLOADS:
        layers[name] = run.measure(_small(name, tmp_path, seed=101), 0.0, True,
                                   tmp_path / "out", min_iters=1).layers
    cs, sb, dg = layers["critical-square"], layers["shrinking-balls"], layers["diagnostics"]
    assert cs["sobolev.precond.factor_count"] == 1
    assert cs["sobolev.descent.iters"] == cs["sobolev.precond.solve_calls"] > 0
    assert cs["luxemburg.norm_grad.calls"] > 0 and cs["grid.adjoint.calls"] > 0
    assert cs["luxemburg.norm.iters_per_call"] > 1
    assert sb["sobolev.precond.factor_count"] == 3
    assert sb["experiments.theorem61.self_s"] > 0 and sb["exponents.field.calls"] > 0
    assert dg["sobolev.precond.solve_calls"] == 0 and dg["sobolev.minimize.self_s"] == 0
    for key in ("concentration.bubbles.self_s", "concentration.masses.self_s",
                "concentration.refined.self_s", "concentration.classify.self_s",
                "experiments.scaling.self_s", "experiments.dilation.self_s",
                "experiments.subcritical_ball.self_s", "luxemburg.measure.self_s",
                "expressions.compile.self_s", "cli.run.self_s"):
        assert dg[key] > 0, key


def test_injected_failures_are_counted(tmp_path, monkeypatch):
    ops = _small("critical-square", tmp_path)
    real = sobolev.minimize_sobolev
    calls = []

    def faulty(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("injected")
        est = real(*args, **kwargs)
        if len(calls) == 3:
            return dataclasses.replace(est, value=10.0)
        return est

    monkeypatch.setattr(sobolev, "minimize_sobolev", faulty)
    res = run.measure(ops, 0.0, False, tmp_path / "out")
    assert res.attempted == 3
    assert res.failed == 2
    assert "injected" in res.failures[0]
    assert "above 1.10 K^-1" in res.failures[1]


def test_injected_cli_failure_is_counted(tmp_path, monkeypatch):
    from varexp import cli
    ops = _small("diagnostics", tmp_path)
    real = cli.run

    def wrong_exit(config, quiet=False):
        code = real(config, quiet=quiet)
        return 1 if config["command"] == "talenti" else code

    monkeypatch.setattr(cli, "run", wrong_exit)
    res = run.measure(ops, 0.0, False, tmp_path / "out", min_iters=1)
    assert res.failures == ["talenti: exit code 1, expected 0"]
    assert res.failed / res.attempted == 1 / len(ops)
