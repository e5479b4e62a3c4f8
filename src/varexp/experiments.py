"""Scripted experiment drivers with CSV output and re-checkable verdicts.

Each driver measures a family of quantities over a parameter list
(rescaling scale, ball radius, exponent perturbation, dilation factor),
collects them into a flat table, and derives a pass/fail verdict from
the table alone.  The criterion for every experiment lives in
``CRITERIA`` keyed by the experiment name, and ``reapply_criterion``
recomputes the verdict from parsed CSV rows, so a written table always
reproduces its verdict.

Grids cannot take scale parameters to zero, so verdicts are trend-based:
a final gap bound plus monotonicity over the last three parameter
values, with the thresholds recorded in the table itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .concentration import make_bubbles, profile_from_spec
from .exponents import ExponentField, as_exponent_field, critical_exponent
from .grid import GridDomain, GridFunction, ball, gradient_magnitude
from .luxemburg import luxemburg_norm
from .sobolev import (bump, extrapolate_to_zero, localized_constant,
                      minimize_sobolev, rayleigh_quotient, talenti_constant)

__all__ = [
    "ExperimentResult",
    "CRITERIA",
    "reapply_criterion",
    "write_csv",
    "scaling_limit_experiment",
    "continuity_experiment",
    "dilation_check",
    "theorem61_experiment",
    "subcritical_ball_experiment",
]

TIE_TOL = 1e-3   # gaps closer than this (relative) count as ties in trend checks


@dataclass
class ExperimentResult:
    """Measured table plus the verdict its criterion derives from it."""

    name: str
    inputs: dict
    columns: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]
    verdict: bool | None
    details: dict = field(default_factory=dict)
    artifacts: list = field(default_factory=list)

    def row_dicts(self) -> list[dict]:
        return [dict(zip(self.columns, r)) for r in self.rows]


def write_csv(result: ExperimentResult, path) -> str:
    """Write the table with 17-significant-digit decimals; returns the path."""
    path = str(path)
    lines = [",".join(result.columns)]
    for row in result.rows:
        lines.append(",".join(f"{x:.17g}" for x in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    result.artifacts.append(path)
    return path


def _non_increasing(seq, scale: float) -> bool:
    tol = TIE_TOL * max(scale, 1e-300)
    return all(b <= a + tol for a, b in zip(seq, seq[1:]))


# ---------------------------------------------------------------------------
# criteria (pure functions of the table rows)

def _scaling_criterion(rows: list[dict]) -> bool:
    gaps = [r["gap"] for r in rows]
    target = rows[-1]["target"]
    rel_tol = rows[-1]["rel_tol"]
    tail = gaps[-3:]
    return gaps[-1] <= rel_tol * target and _non_increasing(tail, target)


def _continuity_criterion(rows: list[dict]) -> bool:
    s_base = rows[-1]["s_base"]
    rel_tol = rows[-1]["rel_tol"]
    gaps = [r["gap"] for r in rows]
    ok = gaps[-1] <= rel_tol * s_base and _non_increasing(gaps[-3:], s_base)
    qcols = sorted(c for c in rows[0] if c.startswith("qgap_"))
    for c in qcols:
        vals = [r[c] for r in rows]
        ok = ok and _non_increasing(vals[-3:], max(abs(v) for v in vals) or 1.0)
    return ok


def _dilation_criterion(rows: list[dict]) -> bool:
    rel_tol = rows[-1]["rel_tol"]
    ok = True
    for side, const_flag in (("fun_ratio", "q_const"), ("grad_ratio", "p_const")):
        ratios = [r[side] for r in rows]
        if rows[0][const_flag] >= 0.5:
            ok = ok and all(abs(r - 1.0) <= 1e-8 for r in ratios)
        else:
            devs = [abs(r - 1.0) for r in ratios]
            ok = ok and devs[-1] <= rel_tol and _non_increasing(devs[-3:], 1.0)
    return ok


def _theorem61_criterion(rows: list[dict]) -> bool:
    radii = [r["radius"] for r in rows]
    vals = [r["s_estimate"] for r in rows]
    target = rows[-1]["talenti_target"]
    rel_tol = rows[-1]["rel_tol"]
    return abs(extrapolate_to_zero(radii, vals) - target) <= rel_tol * target


def _subcritical_criterion(rows: list[dict]) -> bool:
    flags = [r["conditions_ok"] >= 0.5 for r in rows]
    claims = [r["claim_ok"] >= 0.5 for r in rows]
    some_pass = any(flags)
    chain = all(c for f, c in zip(flags, claims) if f)
    monotone = all(b or not a for a, b in zip(flags, flags[1:]))
    return some_pass and chain and monotone


CRITERIA: dict[str, Callable[[list[dict]], bool]] = {
    "scaling": _scaling_criterion,
    "continuity": _continuity_criterion,
    "dilation": _dilation_criterion,
    "thm61": _theorem61_criterion,
    "subcritical-ball": _subcritical_criterion,
}


def reapply_criterion(name: str, rows: list[dict]) -> bool:
    """Recompute an experiment verdict from (parsed) table rows."""
    return CRITERIA[name](rows)


# ---------------------------------------------------------------------------
# drivers

def scaling_limit_experiment(profile, x0, scales, p, q,
                             domain: GridDomain | None = None, *,
                             rel_tol: float = 0.10, tau_crit: float = 1e-6,
                             target_scale: float = 1.0) -> ExperimentResult:
    """Quotients of critically rescaled profiles against the frozen-exponent target.

    The target is the quotient of the profile itself under the constant
    exponents p(x0), q(x0); for a critical pair that quotient is
    scale-free, so the rescaled quotients should approach it as the
    scale shrinks.  Verdict: final gap within ``rel_tol`` of the target
    and gaps non-increasing over the last three scales.
    """
    if domain is None:
        domain = p.domain
    p = as_exponent_field(p, domain)
    q = as_exponent_field(q, domain)
    profile = profile_from_spec(profile)
    x0 = (float(x0),) if np.isscalar(x0) else tuple(float(c) for c in x0)
    n = domain.dim
    p0 = p.value_at(x0)
    if p0 >= n:
        raise ValueError("x0 is not in the criticality set: p(x0) >= N")
    q0 = q.value_at(x0)
    if abs(q0 - critical_exponent(p0, n)) > tau_crit:
        raise ValueError("x0 is not in the criticality set: q(x0) != p*(x0)")

    seq = make_bubbles(profile, x0, scales, p, q)
    p_const = ExponentField.constant(p0, domain)
    q_const = ExponentField.constant(q0, domain)
    rho = domain.distance_from(x0)
    phi = GridFunction(domain, profile(rho / target_scale), dirichlet=True)
    target = rayleigh_quotient(phi, p_const, q_const)

    rows = []
    for lam, term in zip(seq.scales, seq.terms):
        quot = rayleigh_quotient(term, p, q)
        rows.append((lam, quot, target, abs(quot - target), rel_tol))
    columns = ("scale", "quotient", "target", "gap", "rel_tol")
    row_dicts = [dict(zip(columns, r)) for r in rows]
    return ExperimentResult(
        name="scaling",
        inputs={"x0": x0, "scales": list(seq.scales), "rel_tol": rel_tol,
                "target_scale": target_scale},
        columns=columns, rows=tuple(rows),
        verdict=_scaling_criterion(row_dicts),
        details={"target": target},
    )


def _default_test_functions(domain: GridDomain):
    half = [0.5 * (b - a) for a, b in zip(domain._lo, domain._hi)]
    r0 = min(half)
    center = domain.center
    specs = [(0.0, 0.8), (-0.3, 0.5), (0.3, 0.55), (-0.15, 0.65), (0.2, 0.4)]
    out = []
    for shift, rad in specs:
        c = tuple(ci + shift * hw for ci, hw in zip(center, half))
        rho = domain.distance_from(c)
        out.append(GridFunction(domain, bump(rho / (rad * r0)), dirichlet=True))
    return out


def continuity_experiment(p, q, t_list, domain: GridDomain | None = None, *,
                          rel_tol: float = 0.05,
                          test_functions: Sequence[GridFunction] | None = None,
                          seed: int = 0, **opts) -> ExperimentResult:
    """Constants for the shifted pairs (p + t, q - t) against the base pair.

    Also tracks the quotient of fixed smooth test functions under the
    shifted exponents; those gaps must shrink monotonically on the tail
    as t decreases along the list.
    """
    if domain is None:
        domain = p.domain
    p = as_exponent_field(p, domain)
    q = as_exponent_field(q, domain)
    t_list = [float(t) for t in t_list]
    if any(b > a for a, b in zip(t_list, t_list[1:])):
        raise ValueError("t values must be non-increasing")
    if q.p_minus - max(t_list) < 1.0:
        raise ValueError("q - t drops below 1 for the largest t")
    if test_functions is None:
        test_functions = _default_test_functions(domain)

    s_base = minimize_sobolev(p, q, seed=seed, **opts).value
    base_q = [rayleigh_quotient(v, p, q) for v in test_functions]

    def shifted(f: ExponentField, dt: float) -> ExponentField:
        func = None
        if f.func is not None:
            inner = f.func
            func = (lambda iv, d: (lambda *xs: iv(*xs) + d))(inner, dt)
        return ExponentField(f.domain, f.values + dt, func=func)

    rows = []
    for t in t_list:
        p_n = shifted(p, +t)
        q_n = shifted(q, -t)
        s_n = minimize_sobolev(p_n, q_n, seed=seed, **opts).value
        qgaps = [abs(rayleigh_quotient(v, p_n, q_n) - b)
                 for v, b in zip(test_functions, base_q)]
        rows.append((t, s_n, s_base, abs(s_n - s_base), *qgaps, rel_tol))
    columns = ("t", "s_perturbed", "s_base", "gap",
               *(f"qgap_{j + 1}" for j in range(len(test_functions))), "rel_tol")
    row_dicts = [dict(zip(columns, r)) for r in rows]
    return ExperimentResult(
        name="continuity",
        inputs={"t_list": t_list, "rel_tol": rel_tol},
        columns=columns, rows=tuple(rows),
        verdict=_continuity_criterion(row_dicts),
        details={"s_base": s_base},
    )


def dilation_check(profile, eps_list, p, q, center=None, *, dim: int = 2,
                   resolution: int = 128, rel_tol: float = 0.05) -> ExperimentResult:
    """Change-of-variables identities between a ball and its unit rescaling.

    For each radius eps the profile is laid out on B_eps and compared
    with its unit-ball rescaling under the pulled-back exponents
    p(center + eps y), q(center + eps y).  Both balls carry the same
    cell count, so the two discretizations correspond node for node; for
    constant exponents the identity is then exact (reference powers
    N/q for the function side and N/p - 1 for the gradient side) up to
    the norm solver tolerance, and the check requires 1e-8.  For
    variable exponents the reference power is N/p*(center) and the
    ratios must trend to 1 within ``rel_tol``.
    """
    profile = profile_from_spec(profile)
    if center is None:
        center = (0.0,) * dim
    center = (float(center),) if np.isscalar(center) else tuple(float(c) for c in center)
    dim = len(center)
    eps_list = [float(e) for e in eps_list]
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps values must be strictly decreasing")

    probe = np.linspace(1.0, 2.0, 64)
    if np.any(np.abs(profile(probe)) > 0):
        raise ValueError("support violation: profile must vanish for rho >= 1")

    unit = ball(center if dim == 2 else center[0], 1.0, resolution)
    p_unit_ambient = as_exponent_field(p, unit)
    q_unit_ambient = as_exponent_field(q, unit)
    p_const = p_unit_ambient.is_constant
    q_const = q_unit_ambient.is_constant
    p0 = p_unit_ambient.value_at(center)
    q0 = q_unit_ambient.value_at(center)
    n = float(dim)
    if q_const:
        a_fun = n / q0
    else:
        if p0 >= n:
            raise ValueError("variable-exponent dilation needs p(center) < N")
        a_fun = n / critical_exponent(p0, dim)
    if p_const:
        a_grad = n / p0 - 1.0
    else:
        if p0 >= n:
            raise ValueError("variable-exponent dilation needs p(center) < N")
        a_grad = n / critical_exponent(p0, dim)

    rho_unit = unit.distance_from(center)
    phi_unit = GridFunction(unit, profile(rho_unit), dirichlet=True)
    mag_unit = gradient_magnitude(phi_unit)

    rows = []
    for eps in eps_list:
        dom = ball(center if dim == 2 else center[0], eps, resolution)
        p_eps = as_exponent_field(p, dom)
        q_eps = as_exponent_field(q, dom)
        rho = dom.distance_from(center)
        u = GridFunction(dom, profile(rho / eps), dirichlet=True)

        def pulled(f: ExponentField) -> ExponentField:
            if f.func is None:
                raise ValueError("dilation needs exponent callables")
            inner = f.func
            scaled = (lambda fi, e, c: (
                lambda *xs: fi(*[ci + e * x for x, ci in zip(xs, c)])
            ))(inner, eps, center)
            return ExponentField.from_callable(scaled, unit)

        q_pull = pulled(q_eps)
        p_pull = pulled(p_eps)
        fun_lhs = luxemburg_norm(u, q_eps).value
        fun_rhs = eps ** a_fun * luxemburg_norm(phi_unit, q_pull).value
        grad_lhs = luxemburg_norm(gradient_magnitude(u), p_eps).value
        grad_rhs = eps ** a_grad * luxemburg_norm(mag_unit, p_pull).value
        rows.append((eps, fun_lhs, fun_rhs, fun_lhs / fun_rhs,
                     grad_lhs, grad_rhs, grad_lhs / grad_rhs,
                     1.0 if p_const else 0.0, 1.0 if q_const else 0.0, rel_tol))

    columns = ("eps", "fun_lhs", "fun_rhs", "fun_ratio",
               "grad_lhs", "grad_rhs", "grad_ratio", "p_const", "q_const", "rel_tol")
    row_dicts = [dict(zip(columns, r)) for r in rows]
    return ExperimentResult(
        name="dilation",
        inputs={"center": center, "eps_list": eps_list, "resolution": resolution,
                "rel_tol": rel_tol},
        columns=columns, rows=tuple(rows),
        verdict=_dilation_criterion(row_dicts),
        details={"a_fun": a_fun, "a_grad": a_grad,
                 "p_const": p_const, "q_const": q_const},
    )


def _strict_local_min(values: np.ndarray, center_value: float, ring: np.ndarray,
                      allow_degenerate: bool) -> bool:
    if not np.any(ring):
        return False
    ring_min = float(values[ring].min())
    if allow_degenerate:
        return ring_min >= center_value - 1e-9 * max(1.0, abs(center_value))
    return ring_min > center_value + 1e-12 * max(1.0, abs(center_value))


def theorem61_experiment(x0, p: ExponentField, q: ExponentField, radii, *,
                         allow_degenerate: bool = False, rel_tol: float = 0.15,
                         cells_per_diameter: int = 96, tau_crit: float = 1e-6,
                         seed: int = 0, **opts) -> ExperimentResult:
    """Shrinking-ball limit of the constant against the sharp frozen-exponent value.

    Requires (numerically, on the ambient grid) that p and p*/q have a
    strict local minimum at x0; ``allow_degenerate`` accepts the flat
    case of constant exponent pairs.  The extrapolated shrinking-ball
    value must match the sharp constant at p(x0) within ``rel_tol``
    (generous: the per-ball estimates carry optimizer and grid bias).
    """
    dom = p.domain
    n = dom.dim
    x0 = (float(x0),) if np.isscalar(x0) else tuple(float(c) for c in x0)
    p0 = p.value_at(x0)
    if p0 >= n:
        raise ValueError("hypotheses violated: p(x0) >= N")
    q0 = q.value_at(x0)
    if abs(q0 - critical_exponent(p0, n)) > tau_crit:
        raise ValueError("hypotheses violated: x0 is not a criticality point")

    rho = dom.distance_from(x0)
    ring = dom.inside & (rho > 0) & (rho <= float(radii[0]))
    if not _strict_local_min(p.values, p0, ring, allow_degenerate):
        raise ValueError("hypotheses violated: p has no strict local minimum at x0")
    with np.errstate(divide="ignore", invalid="ignore"):
        pstar = np.where(p.values < n, n * p.values / (n - p.values), np.inf)
    ratio = pstar / q.values
    ratio0 = critical_exponent(p0, n) / q0
    if not _strict_local_min(ratio, ratio0, ring, allow_degenerate):
        raise ValueError("hypotheses violated: p*/q has no strict local minimum at x0")

    loc = localized_constant(x0 if n == 2 else x0[0], p, q, radii,
                             cells_per_diameter=cells_per_diameter,
                             seed=seed, **opts)
    target = talenti_constant(n, p0)
    rows = tuple((r, v, target, rel_tol) for r, v in zip(loc.radii, loc.values))
    columns = ("radius", "s_estimate", "talenti_target", "rel_tol")
    row_dicts = [dict(zip(columns, r)) for r in rows]
    return ExperimentResult(
        name="thm61",
        inputs={"x0": x0, "radii": list(loc.radii), "rel_tol": rel_tol,
                "cells_per_diameter": cells_per_diameter},
        columns=columns, rows=rows,
        verdict=_theorem61_criterion(row_dicts),
        details={"extrapolated": loc.extrapolated, "talenti": target,
                 "monotone": loc.monotone},
    )


def subcritical_ball_experiment(profile, r_list, p, q, s_target: float | None = None,
                                *, center=None, dim: int = 2, resolution: int = 192,
                                critical_point=None, seed: int = 0) -> ExperimentResult:
    """Large-subcritical-ball construction, verified end to end.

    For each radius R the three sufficient conditions are evaluated with
    the discrete samples of the unit profile (so the implication
    "conditions hold => quotient of the blown-up profile beats
    s_target" is the exact discrete chain, not an approximation):

      1. R^(N - sup p) * integral |grad u|^(sup p)  > 1
      2. R^N * integral |u|^(sup q)                 > 1
      3. (||grad u||_(inf p) / ||u||_(sup q)) * R^(N (1/(inf p)* - 1/sup q))
         < s_target

    with sup/inf over the ball of radius R.  The quotient of
    u(x / R) is then computed directly and compared against s_target.
    """
    profile = profile_from_spec(profile)
    if center is None:
        center = (0.0,) * dim
    center = (float(center),) if np.isscalar(center) else tuple(float(c) for c in center)
    dim = len(center)
    n = float(dim)
    r_list = sorted(float(r) for r in r_list)
    if r_list[0] < 1.0:
        raise ValueError("radii below 1 are outside the construction's range")

    unit = ball(center if dim == 2 else center[0], 1.0, resolution)
    rho1 = unit.distance_from(center)
    u1 = GridFunction(unit, profile(rho1), dirichlet=True)
    mag1 = gradient_magnitude(u1)
    if float(np.abs(u1.values).max()) > 1.0 + 1e-9:
        raise ValueError("profile bound violated: |u| must stay <= 1")
    if float(mag1.max()) > 1.0 + 1e-9:
        raise ValueError("profile bound violated: |grad u| must stay <= 1")

    if s_target is None:
        if critical_point is None:
            raise ValueError("s_target or critical_point is required")
        p_probe = as_exponent_field(p, unit)
        s_target = talenti_constant(dim, p_probe.value_at(critical_point))
        target_source = "talenti_at_critical_point"
    else:
        s_target = float(s_target)
        target_source = "supplied"

    w1 = unit.weights
    rows = []
    smallest_passing = None
    for r in r_list:
        dom = ball(center if dim == 2 else center[0], r, resolution)
        p_r = as_exponent_field(p, dom)
        q_r = as_exponent_field(q, dom)
        p_plus, p_minus = p_r.p_plus, p_r.p_minus
        q_plus = q_r.p_plus
        pstar_minus = critical_exponent(p_minus, dim) if p_minus < n else math.inf
        if q_plus >= pstar_minus:
            raise ValueError(f"ball of radius {r} is not subcritical")

        cond_grad = r ** (n - p_plus) * float(np.sum(w1 * mag1 ** p_plus))
        cond_fun = r ** n * float(np.sum(w1 * np.abs(u1.values) ** q_plus))
        norm_grad = float(np.sum(w1 * mag1 ** p_minus)) ** (1.0 / p_minus)
        norm_u = float(np.sum(w1 * np.abs(u1.values) ** q_plus)) ** (1.0 / q_plus)
        inv_pstar = 0.0 if math.isinf(pstar_minus) else 1.0 / pstar_minus
        cond_bound = (norm_grad / norm_u) * r ** (n * (inv_pstar - 1.0 / q_plus))

        conditions = cond_grad > 1.0 and cond_fun > 1.0 and cond_bound < s_target
        rho_r = dom.distance_from(center)
        u_r = GridFunction(dom, profile(rho_r / r), dirichlet=True)
        quot = rayleigh_quotient(u_r, p_r, q_r)
        claim = quot < s_target
        if conditions and smallest_passing is None:
            smallest_passing = r
        rows.append((r, cond_grad, cond_fun, cond_bound, s_target, quot,
                     1.0 if conditions else 0.0, 1.0 if claim else 0.0))

    columns = ("radius", "cond_grad", "cond_fun", "cond_quotient_bound",
               "s_target", "quotient", "conditions_ok", "claim_ok")
    row_dicts = [dict(zip(columns, r)) for r in rows]
    return ExperimentResult(
        name="subcritical-ball",
        inputs={"r_list": r_list, "resolution": resolution, "s_target": s_target},
        columns=columns, rows=tuple(rows),
        verdict=_subcritical_criterion(row_dicts),
        details={"smallest_passing_radius": smallest_passing,
                 "s_target_source": target_source},
    )
