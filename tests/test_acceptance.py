"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test prints a single ``ACCEPTANCE n <name>: PASS|FAIL`` line (visible
under ``pytest -s``) and then asserts, so the suite both reports and
gates.  Tolerances are written next to the computation they bound.
"""

import json

import numpy as np
import pytest

from varexp import cli
from varexp.concentration import (check_refined_inequality, cutoff_profile,
                                  make_bubbles, reverse_holder_check,
                                  smooth_bump, talenti_profile)
from varexp.experiments import (continuity_experiment, dilation_check,
                                scaling_limit_experiment,
                                subcritical_ball_experiment)
from varexp.exponents import ExponentField
from varexp.grid import GridFunction, ball, interval, rectangle
from varexp.luxemburg import (check_modular_norm_relations, holder_check,
                              luxemburg_norm, modular, norm_with_gradient)
from varexp.sobolev import (domain_monotonicity_check, localized_constant,
                            minimize_sobolev, rayleigh_quotient,
                            talenti_constant)

from conftest import quadrature_masses, random_smooth_values
from oracles import radial_sharp_constant


def _report(num, name, ok):
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def _random_domain(rng):
    kind = rng.integers(0, 3)
    if kind == 0:
        return interval(0.0, float(rng.uniform(0.5, 2.0)), int(rng.integers(32, 96)))
    if kind == 1:
        return rectangle(0, 1, 0, float(rng.uniform(0.5, 1.5)),
                         int(rng.integers(10, 18)))
    return ball((0.0, 0.0), float(rng.uniform(0.5, 1.2)), int(rng.integers(12, 20)))


def _random_exponent(rng, dom, lo=1.1, hi=7.0):
    a = rng.uniform(lo + 0.15, hi - 1.0)
    b = rng.uniform(0.0, min(1.0, a - lo - 0.05, hi - a))
    if dom.dim == 1:
        return ExponentField.from_callable(lambda x: a + b * np.cos(x), dom)
    return ExponentField.from_callable(lambda x, y: a + b * np.cos(x + y), dom)


def test_acceptance_01_norm_oracle_equivalence():
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(200):   # constant exponents against the closed-form norm
        dom = _random_domain(rng)
        pval = float(rng.uniform(1.1, 8.0))
        p = ExponentField.constant(pval, dom)
        vals = random_smooth_values(dom, rng) * rng.uniform(1e-2, 1e2)
        if not np.any(vals[dom.inside]):
            continue
        direct = float(np.sum(quadrature_masses(dom) * np.abs(vals) ** pval)) ** (1.0 / pval)
        lam = luxemburg_norm(vals, p).value
        ok &= abs(lam - direct) <= 1e-10 * direct
    for _ in range(200):   # variable exponents: unit modular at the root
        dom = _random_domain(rng)
        p = _random_exponent(rng, dom)
        vals = random_smooth_values(dom, rng) * rng.uniform(1e-2, 1e2)
        if not np.any(vals[dom.inside]):
            continue
        lam = luxemburg_norm(vals, p).value
        ok &= abs(modular(vals / lam, p) - 1.0) <= 1e-10
    _report(1, "Luxemburg norm oracle equivalence", ok)


def test_acceptance_02_modular_norm_relations():
    rng = np.random.default_rng(102)
    failures = 0
    for _ in range(1000):
        dom = _random_domain(rng)
        p = _random_exponent(rng, dom)
        vals = random_smooth_values(dom, rng) * 10.0 ** rng.uniform(-3, 3)
        if not np.any(vals[dom.inside]):
            continue
        rep = check_modular_norm_relations(vals, p)
        failures += 0 if rep.all_hold else 1
    _report(2, "modular-norm relation suite (1000 cases)", failures == 0)


def test_acceptance_03_holder_inequality():
    rng = np.random.default_rng(103)
    failures = 0
    for _ in range(500):
        dom = _random_domain(rng)
        p = _random_exponent(rng, dom, lo=2.2, hi=6.0)
        q = _random_exponent(rng, dom, lo=2.2, hi=6.0)
        f = random_smooth_values(dom, rng) * rng.uniform(0.05, 20)
        g = random_smooth_values(dom, rng) * rng.uniform(0.05, 20)
        failures += 0 if holder_check(f, g, p, q).satisfied else 1
    _report(3, "Holder inequality suite (500 cases)", failures == 0)


def test_acceptance_04_eigenvalue_oracle():
    est1 = minimize_sobolev(2.0, 2.0, interval(0, 1, 512), seed=0)
    est2 = minimize_sobolev(2.0, 2.0, interval(0, 2, 512), seed=0)
    ok = (abs(est1.value - np.pi) <= 0.02 * np.pi
          and abs(est2.value - np.pi / 2) <= 0.02 * np.pi / 2)
    _report(4, "first-eigenvalue oracle on intervals", ok)


def test_acceptance_05_norm_gradient_vs_central_differences():
    rng = np.random.default_rng(105)
    ok = True
    for trial in range(50):
        if trial % 2 == 0:
            dom = interval(0, 1, int(rng.integers(24, 56)))
            p = ExponentField.from_callable(
                lambda x: rng.uniform(1.3, 2.5) + 0.8 * x, dom)
        else:
            dom = rectangle(0, 1, 0, 1, int(rng.integers(6, 9)))
            p = ExponentField.from_callable(
                lambda x, y: rng.uniform(1.3, 2.5) + 0.5 * x + 0.3 * y, dom)
        w = rng.uniform(0.3, 2.0, dom.shape) * rng.choice([-1.0, 1.0], dom.shape)
        lam, grad = norm_with_gradient(w, p, None)
        eps = 1e-6 * max(1.0, lam)
        fd = np.zeros_like(w)
        it = np.nditer(w, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            wp = w.copy(); wp[idx] += eps
            wm = w.copy(); wm[idx] -= eps
            fd[idx] = (luxemburg_norm(wp, p).value
                       - luxemburg_norm(wm, p).value) / (2 * eps)
        ok &= np.linalg.norm(grad - fd) / np.linalg.norm(fd) <= 1e-5
    _report(5, "implicit norm gradient vs central differences", ok)


def test_acceptance_06_domain_monotonicity():
    opts = dict(seed=0, max_iters=200)
    pairs = [
        # the analytic pair carries its own value checks below
        (2.0, 2.0, interval(0, 1, 512), interval(0, 0.5, 256)),
        (2.5, 2.0, interval(0, 1, 256), interval(0.2, 0.8, 160)),
        (1.8, 2.2, interval(0, 2, 256), interval(0.5, 1.5, 128)),
        (lambda x: 2 + 0.5 * x, lambda x: 2 + 0.25 * x,
         interval(0, 1, 256), interval(0.1, 0.7, 160)),
        (lambda x: 2.2 + 0.3 * np.abs(x), 2.0,
         interval(-1, 1, 256), interval(-0.3, 0.6, 128)),
        (2.0, 2.0, rectangle(-1, 1, -1, 1, 48), ball((0.0, 0.0), 0.95, 48)),
        (2.3, 2.0, rectangle(0, 1, 0, 1, 40),
         rectangle(0.2, 0.8, 0.1, 0.9, 32)),
        (2.0, lambda x, y: 2 + 0.5 * (x * x + y * y),
         ball((0.0, 0.0), 1.0, 48), ball((0.0, 0.0), 0.6, 32)),
        (lambda x, y: 2 + 0.2 * x, 2.1, rectangle(0, 2, 0, 1, (48, 24)),
         rectangle(0.3, 1.7, 0.2, 0.8, (36, 18))),
        (2.0, 2.4, rectangle(-1, 1, -1, 1, 48), ball((0.2, -0.1), 0.5, 32)),
    ]
    ok = True
    for i, (p, q, outer, inner) in enumerate(pairs):
        rep = domain_monotonicity_check(p, q, outer, inner, **opts)
        ok &= rep.satisfied
        if i == 0:
            ok &= abs(rep.s_outer - np.pi) <= 0.02 * np.pi
            ok &= abs(rep.s_inner - 2 * np.pi) <= 0.02 * 2 * np.pi
    _report(6, "domain monotonicity on 10 nested pairs", ok)


def test_acceptance_07_dilation_identities():
    exact = dilation_check(smooth_bump, [0.5, 0.25, 0.125], 1.5, 6.0,
                           center=(0.0, 0.0), resolution=96)
    ok = exact.verdict
    for row in exact.row_dicts():
        ok &= abs(row["fun_ratio"] - 1.0) <= 1e-8
        ok &= abs(row["grad_ratio"] - 1.0) <= 1e-8
    qf = lambda x, y: 6.0 - (x**2 + y**2)   # noqa: E731
    var = dilation_check(smooth_bump, [0.5, 0.25, 0.125], 1.5, qf,
                         center=(0.0, 0.0), resolution=96)
    devs = [abs(r["fun_ratio"] - 1.0) for r in var.row_dicts()]
    ok &= var.verdict and devs[-1] <= 0.05
    ok &= all(b <= a + 1e-3 for a, b in zip(devs, devs[1:]))
    _report(7, "dilation identities (exact constant / trending variable)", ok)


@pytest.fixture(scope="module")
def critical_variable_instance():
    """q reaches the critical exponent of p = 1.5 exactly at the origin."""
    dom = ball((0.0, 0.0), 1.0, 384)
    pf = lambda x, y: 1.5 + 0.0 * x              # noqa: E731
    qf = lambda x, y: 6.0 - 4.0 * (x**2 + y**2)  # noqa: E731
    return dom, pf, qf


def test_acceptance_08_scaling_upper_bound_chain(critical_variable_instance):
    dom, pf, qf = critical_variable_instance
    res = scaling_limit_experiment(smooth_bump, (0.0, 0.0),
                                   [0.6, 0.45, 0.32, 0.22], pf, qf, dom,
                                   target_scale=0.95)
    gaps = [r["gap"] for r in res.row_dicts()]
    target = res.details["target"]
    ok = res.verdict and gaps[-1] <= 0.10 * target

    # the chain: S(domain) <= min over shrinking balls <= sharp constant + 10%
    small = ball((0.0, 0.0), 1.0, 160)
    p_small = ExponentField.from_callable(pf, small)
    q_small = ExponentField.from_callable(qf, small)
    s_omega = minimize_sobolev(p_small, q_small, seed=0, max_iters=300,
                               concentration_guard=(3.0, 0.6)).value
    loc = localized_constant((0.0, 0.0), p_small, q_small, [0.45, 0.35, 0.25],
                             cells_per_diameter=96, seed=0, max_iters=300)
    k_inv = talenti_constant(2, 1.5)
    ok &= s_omega <= min(loc.values) * 1.05
    ok &= min(loc.values) <= k_inv * 1.10
    _report(8, "rescaling upper bound and constant chain", ok)


def test_acceptance_09_talenti_dual_oracle():
    ok = abs(talenti_constant(3, 2.0) - 2.3405) <= 2e-4
    for n, r in [(3, 2.0), (4, 2.0), (3, 2.5)]:
        closed = talenti_constant(n, r)
        quadrature = radial_sharp_constant(n, r)
        ok &= abs(closed - quadrature) <= 1e-3 * closed
    _report(9, "sharp-constant dual oracle agreement", ok)


def test_acceptance_10_concentration_inequalities(critical_square,
                                                  critical_s_estimate):
    dom, p, q = critical_square
    scales = [0.45, 0.35, 0.25, 0.18]
    deltas = [0.5, 0.9]
    ok = True
    last_bump_seq = None
    for profile in (smooth_bump, talenti_profile(2, 1.5)):
        seq = make_bubbles(profile, (0.0, 0.0), scales, p, q)
        rep = check_refined_inequality(seq, p, q, delta_list=deltas)
        ok &= rep.all_within and len(rep.rows) == 8
        if profile is smooth_bump:
            last_bump_seq = seq

    rho = dom.distance_from((0.0, 0.0))
    cutoffs = [GridFunction(dom, np.ones(dom.shape)),
               GridFunction(dom, cutoff_profile(0.5)(rho / 0.9)),
               GridFunction(dom, cutoff_profile(0.4)(rho / 0.6))]
    rh = reverse_holder_check(list(last_bump_seq.terms), cutoffs, p, q,
                              s=critical_s_estimate.value)
    ok &= rh.all_within and len(rh.rows) == 3
    _report(10, "refined concentration and reverse-Holder inequalities", ok)


def test_acceptance_11_continuity_of_the_constant():
    dom = interval(0, 1, 512)
    sine = GridFunction.from_callable(dom, lambda x: np.sin(np.pi * x))
    extra = [GridFunction.from_callable(dom, f) for f in (
        lambda x: x * (1 - x),
        lambda x: np.sin(2 * np.pi * x),
        lambda x: x * (1 - x) ** 2,
        lambda x: np.sin(np.pi * x) ** 2,
    )]
    res = continuity_experiment(2.0, 2.0, [0.2, 0.1, 0.05], dom, seed=0,
                                test_functions=[sine] + extra)
    rows = res.row_dicts()
    pi_gaps = [abs(r["s_perturbed"] - np.pi) for r in rows]
    ok = res.verdict
    ok &= all(b <= a + 1e-9 for a, b in zip(pi_gaps, pi_gaps[1:]))
    ok &= pi_gaps[-1] <= 0.05 * np.pi

    p_shift = ExponentField.constant(2.05, dom)
    q_shift = ExponentField.constant(1.95, dom)
    q_sine = rayleigh_quotient(sine, p_shift, q_shift)
    ok &= abs(q_sine - np.pi) <= 0.05 * np.pi
    sine_gaps = [r["qgap_1"] for r in rows]
    ok &= all(b <= a + 1e-9 for a, b in zip(sine_gaps, sine_gaps[1:]))
    _report(11, "continuity of the constant in the exponents", ok)


def test_acceptance_12_subcritical_ball_end_to_end():
    s_target = talenti_constant(2, 1.5)
    profile = lambda rho: 0.6 * smooth_bump(rho)   # noqa: E731
    res = subcritical_ball_experiment(profile, [1.5, 3, 6, 12, 24, 48],
                                      1.5, 3.0, s_target=s_target,
                                      center=(0.0, 0.0), resolution=128)
    rows = res.row_dicts()
    ok = bool(res.verdict)
    ok &= res.details["smallest_passing_radius"] is not None
    passing = [r for r in rows if r["conditions_ok"] >= 0.5]
    ok &= bool(passing) and all(r["claim_ok"] >= 0.5 for r in passing)
    below = [r for r in rows if r["radius"] < res.details["smallest_passing_radius"]]
    ok &= all(
        r["cond_grad"] <= 1.0 or r["cond_fun"] <= 1.0
        or r["cond_quotient_bound"] >= r["s_target"]
        for r in below)
    _report(12, "subcritical-ball construction end to end", ok)


def test_acceptance_13_cli_determinism(tmp_path):
    configs = [
        {"command": "sobolev-min", "seed": 7,
         "domain": {"shape": "interval", "bounds": [0, 1], "resolution": 128},
         "p": "2 + 0.5*x", "q": "2"},
        {"command": "cc-check", "seed": 3,
         "domain": {"shape": "rectangle", "bounds": [[-1, 1], [-1, 1]],
                    "resolution": 128},
         "p": "1.5", "q": "6",
         "params": {"center": [0.0, 0.0], "scales": [0.4, 0.3],
                    "delta_list": [0.5]}},
    ]
    ok = True
    for i, cfg in enumerate(configs):
        blobs = []
        for rep in ("a", "b"):
            c = dict(cfg, out=str(tmp_path / f"{i}{rep}"))
            cfg_path = tmp_path / f"{i}{rep}.json"
            with open(cfg_path, "w") as fh:
                json.dump(c, fh)
            assert cli.main(["--config", str(cfg_path), "--quiet"]) == 0
            with open(tmp_path / f"{i}{rep}" / "summary.json") as fh:
                art = json.load(fh)["artifacts"][0]
            with open(art, "rb") as fh:
                blobs.append(fh.read())
        ok &= blobs[0] == blobs[1]
    _report(13, "CLI determinism (byte-identical CSV)", ok)
