"""The benchmark's three workloads: inputs from a seed, operations, output checks.

Each workload is built once per process by :func:`prepare` (this is the
set-up that ``setup_s`` times) and then run repeatedly: one iteration
executes the workload's list of operations in order.

The seed picks a translation of the whole configuration (domain, centers
and exponent fields move together).  The paper's quantities are
translation invariant and so is the discrete problem, so every seed does
nearly the same work (rounding can move a node across a ball's edge) and
must give the same answers up to rounding: the seed varies the inputs
without making the cost depend on it.  Rescaling the
domain or reseeding the descent starts would not do that: either
changes the length of the descent by up to a fifth from one seed to the
next.

Checks use the tolerances the tier-1 tests already pin for the same
quantities; the reference is named next to each check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from varexp import cli, concentration, experiments, grid, luxemburg, sobolev
from varexp.exponents import ExponentField

WORKLOADS = ("critical-square", "shrinking-balls", "diagnostics")

# Grid sizes.  The benchmark runs FULL; the benchmark's own tests run
# SMALL, which takes the same code paths in a fraction of the time.
FULL = {"square": 120, "ball": 256, "cells_per_diameter": 96, "diag": 256,
        "diag_ball": 256, "sweep": 384}
SMALL = {"square": 40, "ball": 96, "cells_per_diameter": 40, "diag": 128,
         "diag_ball": 64, "sweep": 48}


@dataclass
class Op:
    """One operation: a thunk to time and a check of its output.

    ``check`` returns the values to record; it raises ``CheckFailed`` when
    the output is outside its tolerance.
    """

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], dict]


class CheckFailed(Exception):
    pass


def expect(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


def offset(seed: int) -> tuple[float, float]:
    """Translation of the configuration for this seed."""
    a, b = np.random.default_rng(seed).uniform(-1.0, 1.0, 2)
    return float(a), float(b)


def k_inv() -> float:
    """K^-1, the sharp constant at p = 1.5 in the plane."""
    return sobolev.talenti_constant(2, 1.5)


# ---------------------------------------------------------------------------
# critical-square: the paper's central estimate S(1.5, 6, square)

def _critical_square(seed: int, size: dict) -> list[Op]:
    a, b = offset(seed)
    dom = grid.rectangle(a - 1.0, a + 1.0, b - 1.0, b + 1.0, size["square"])
    p = ExponentField.constant(1.5, dom)
    q = ExponentField.constant(6.0, dom)

    def minimize():
        return sobolev.minimize_sobolev(p, q, starts=3, max_iters=300, seed=0,
                                        concentration_guard=(3.0, 0.6))

    def check(est):
        # the chain of acceptance 08 ends at K^-1 + 10%: the guarded
        # estimate on the square must not exceed it
        expect(math.isfinite(est.value) and est.value > 0, f"value {est.value}")
        expect(est.value <= 1.10 * k_inv(),
               f"value {est.value} above 1.10 K^-1 = {1.10 * k_inv()}")
        return {"value": est.value, "trace_len": len(est.trace)}

    return [Op("minimize", minimize, check)]


# ---------------------------------------------------------------------------
# shrinking-balls: Theorem 6.1 on the strict-minimum instance

def _shrinking_balls(seed: int, size: dict) -> list[Op]:
    a, b = offset(seed)
    dom = grid.ball((a, b), 1.0, size["ball"])
    p = ExponentField.from_callable(
        lambda x, y: 1.5 + 0.5 * ((x - a) ** 2 + (y - b) ** 2), dom)
    q = ExponentField.from_callable(
        lambda x, y: 6.0 - 2.0 * ((x - a) ** 2 + (y - b) ** 2), dom)

    def thm61():
        return experiments.theorem61_experiment(
            (a, b), p, q, [0.4, 0.3, 0.2],
            cells_per_diameter=size["cells_per_diameter"], max_iters=200)

    def check(res):
        # test_experiments: verdict, extrapolation within 15% of K^-1
        extrap = res.details["extrapolated"]
        expect(res.verdict is True, "theorem 6.1 verdict is not True")
        expect(abs(extrap - k_inv()) <= 0.15 * k_inv(),
               f"extrapolated {extrap} not within 15% of K^-1")
        out = {"extrapolated": extrap}
        for i, row in enumerate(res.row_dicts()):
            out[f"s_estimate_{i}"] = row["s_estimate"]
        return out

    return [Op("thm61", thm61, check)]


# ---------------------------------------------------------------------------
# diagnostics: every CLI command that does no descent, plus cold norm solves

def _cli_op(name: str, config: dict, out_root: Path, code: int,
            verdict=..., metrics: dict | None = None,
            metric_checks: dict | None = None) -> Op:
    """A ``cli.run`` call checked like tests/test_cli.py checks it.

    ``verdict`` is left unchecked when it is ``...``; ``None`` is a verdict.
    """
    # parsed once, as part of set-up, like a config file read at start
    config = json.loads(json.dumps(config))

    def run():
        cfg = dict(config, out=str(out_root / name))
        got = cli.run(cfg, quiet=True)
        with open(out_root / name / "summary.json", encoding="utf-8") as fh:
            return got, json.load(fh)

    def check(out):
        got, summary = out
        expect(got == code, f"exit code {got}, expected {code}")
        if verdict is not ...:
            expect(summary["verdict"] is verdict,
                   f"verdict {summary['verdict']}, expected {verdict}")
        for key, want in (metrics or {}).items():
            expect(summary["metrics"][key] == want,
                   f"{key} = {summary['metrics'][key]!r}, expected {want!r}")
        for key, pred in (metric_checks or {}).items():
            expect(pred(summary["metrics"][key]),
                   f"{key} = {summary['metrics'][key]!r} outside tolerance")
        return {k: v for k, v in summary["metrics"].items()
                if isinstance(v, float)}

    return Op(name, run, check)


def _rel(want: float, rel: float):
    return lambda v: abs(v - want) <= rel * abs(want)


def _diagnostics(seed: int, size: dict, out_root: Path) -> list[Op]:
    a, b = offset(seed)
    n = size["diag"]
    nb = size["diag_ball"]
    c = [a, b]
    square = {"shape": "rectangle", "bounds": [[a - 1, a + 1], [b - 1, b + 1]],
              "resolution": n}
    unit_square = {"shape": "rectangle", "bounds": [[a, a + 1], [b, b + 1]],
                   "resolution": n}
    unit_ball = {"shape": "ball", "center": c, "radius": 1.0, "resolution": nb}
    h = 2.0 / n

    ops = [
        _cli_op("norm", {"command": "norm", "domain": unit_square,
                         "p": "2 + 0.5*r", "u": "3"},
                out_root, 0, metric_checks={"value": _rel(3.0, 1e-10)}),
        _cli_op("check-relations", {"command": "check-relations", "domain": square,
                                    "p": "2 + r", "u": "1 + r^2"},
                out_root, 0, verdict=True),
        _cli_op("talenti", {"command": "talenti", "params": {"N": 3, "r": 2}},
                out_root, 0,
                metric_checks={"value": lambda v: abs(v - 2.3405) <= 2e-4}),
        _cli_op("scaling", {"command": "scaling", "domain": square,
                            "p": "1.5", "q": "6",
                            "params": {"center": c, "scales": [0.5, 0.35, 0.25]}},
                out_root, 0),
        _cli_op("dilation", {"command": "dilation", "domain": unit_ball,
                             "p": "1.5", "q": "6",
                             "params": {"center": c, "eps_list": [0.5, 0.25],
                                        "resolution": nb}},
                out_root, 0, verdict=True),
        _cli_op("subcritical-ball",
                {"command": "subcritical-ball",
                 "domain": {"shape": "ball", "center": c, "radius": 50.0,
                            "resolution": 64},
                 "p": "1.5", "q": "3",
                 "params": {"center": c, "R_list": [2, 6, 12, 24],
                            "resolution": nb, "s_target": 2.5262}},
                out_root, 0, verdict=True,
                metric_checks={"smallest_passing_radius": lambda v: v is not None}),
        _cli_op("cc-check", {"command": "cc-check", "domain": square,
                             "p": "1.5", "q": "6",
                             "params": {"center": c, "scales": [0.4, 0.3],
                                        "delta_list": [0.5, 0.8]}},
                out_root, 0, verdict=True, metrics={"s_bar_source": "talenti"}),
        _cli_op("cc-check-fail", {"command": "cc-check", "domain": square,
                                  "p": "1.5", "q": "6",
                                  "params": {"center": c, "scales": [0.4],
                                             "delta_list": [0.5], "s_bar": 100.0}},
                out_root, 1, verdict=False),
        _cli_op("classify-bubbles",
                {"command": "classify", "domain": square, "p": "1.5", "q": "6",
                 "params": {"kind": "bubbles", "center": c,
                            "scales": [0.5, 0.25, 0.125, 4 * h]}},
                out_root, 0, metrics={"classification": "single_atom"}),
        _cli_op("classify-translating",
                {"command": "classify", "domain": square, "p": "1.5", "q": "6",
                 "params": {"kind": "translating", "scale": 0.35,
                            "centers": [[a + dx, b] for dx in (-0.4, -0.1, 0.2, 0.5)]}},
                out_root, 0, metrics={"classification": "inconclusive"}),
    ]

    # reverse Hoelder on point-mass norms (test_concentration centered cutoffs)
    dom = grid.rectangle(a - 1, a + 1, b - 1, b + 1, n)
    p = ExponentField.constant(1.5, dom)
    q = ExponentField.constant(6.0, dom)
    rho = dom.distance_from((a, b))
    cutoffs = [grid.GridFunction(dom, concentration.cutoff_profile(0.5)(rho / 0.9)),
               grid.GridFunction(dom, concentration.cutoff_profile(0.4)(rho / 0.6))]

    def reverse_holder():
        seq = concentration.make_bubbles(concentration.smooth_bump, (a, b),
                                         [0.35, 0.25, 0.15], p, q)
        return concentration.reverse_holder_check(list(seq.terms), cutoffs, p, q,
                                                  s=k_inv())

    def check_rh(rep):
        expect(rep.all_within, "reverse Hoelder rows outside their slack")
        return {f"lhs_{i}": lhs for i, lhs, _, _ in rep.rows} | \
            {f"rhs_{i}": rhs for i, _, rhs, _ in rep.rows}

    ops.append(Op("reverse-holder", reverse_holder, check_rh))

    # cold, unhinted Luxemburg solves over six decades of amplitude
    sdom = grid.rectangle(a - 1, a + 1, b - 1, b + 1, size["sweep"])
    sp = ExponentField.from_callable(
        lambda x, y: 2.0 + 0.5 * np.cos((x - a) + (y - b)), sdom)
    sx, sy = sdom.meshes
    base = np.exp(-((sx - a) ** 2 + 2.0 * (sy - b) ** 2)) * (1.2 + np.sin(3.0 * (sx - a)))
    jitter = 10.0 ** np.random.default_rng(seed + 1).uniform(0.0, 0.5)
    amps = [jitter * 10.0 ** (k / 2.0 - 3.0) for k in range(13)]
    fields = [amp * base for amp in amps]
    first = []   # norm / amplitude of the first solve, set by its check

    def sweep_op(k):
        def run():
            return luxemburg.luxemburg_norm(fields[k], sp)

        def check(res):
            # the unit-modular relation (slack 10 * tol, acceptance 02) and
            # homogeneity against the first solve (rel 1e-9, test_luxemburg)
            unit = luxemburg.modular(fields[k] / res.value, sp)
            expect(abs(unit - 1.0) <= 1e-9, f"rho(u/|u|) = {unit}")
            scaled = res.value / amps[k]
            if k == 0:
                first[:] = [scaled]
            elif first:
                expect(abs(scaled - first[0]) <= 1e-9 * first[0],
                       f"norm/amplitude {scaled} vs {first[0]}")
            return {"value": res.value, "iterations": float(res.iterations)}
        return Op(f"norm-sweep-{k:02d}", run, check)

    ops.extend(sweep_op(k) for k in range(13))
    return ops


def prepare(name: str, seed: int, out_root: Path, size: dict = FULL) -> list[Op]:
    """Build the named workload's inputs for ``seed``; returns its operations."""
    if name == "critical-square":
        return _critical_square(seed, size)
    if name == "shrinking-balls":
        return _shrinking_balls(seed, size)
    if name == "diagnostics":
        return _diagnostics(seed, size, out_root)
    raise ValueError(f"unknown workload {name!r}")
