"""Scripted experiment drivers with CSV output and re-checkable verdicts.

Each driver measures a family of quantities over a parameter list
(rescaling scale, ball radius, exponent perturbation, dilation factor),
collects them into a flat table, and derives a pass/fail verdict from
the table alone.  The criterion for every experiment lives in
``CRITERIA`` keyed by the experiment name, a pure function of the
(parsed CSV) rows.  Every driver derives its own verdict by that same
call on its rows, so a written table always reproduces its verdict.

Grids cannot take scale parameters to zero, so verdicts are trend-based:
a final gap bound plus monotonicity over the last three parameter
values; each row records its relative gap bound ``REL_TOL[name]`` as
``rel_tol``, so the criterion reads it from the table itself.

Radial profiles are callables of rho, sampled by ``GridFunction.radial``;
the default test functions of ``continuity_experiment`` come from the
bump family of the descent's start fields.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .concentration import make_bubbles
from .exponents import ExponentField, as_exponent_field, critical_exponent
from .grid import (GridDomain, GridFunction, as_point, as_radii, ball, gradient_magnitude,
                   pull_back)
from .luxemburg import luxemburg_norm, modular
from .sobolev import (bump_family, extrapolate_to_zero, localized_constant,
                      minimize_sobolev, rayleigh_quotient, talenti_constant)

__all__ = [
    "ExperimentResult",
    "CRITERIA",
    "REL_TOL",
    "write_csv",
    "scaling_limit_experiment",
    "continuity_experiment",
    "dilation_check",
    "theorem61_experiment",
    "subcritical_ball_experiment",
    "subcritical_radii",
]

TIE_TOL = 1e-3   # gaps closer than this (relative) count as ties in trend checks
TAU_CRIT = 1e-6  # |q(x0) - p*(x0)| up to this counts as critical


@dataclass
class ExperimentResult:
    """Measured table plus the verdict its criterion derives from it."""

    name: str
    columns: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]
    verdict: bool | None
    details: dict = field(default_factory=dict)

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
    return path


def _non_increasing(seq, scale: float) -> bool:
    tol = TIE_TOL * max(scale, 1e-300)
    return all(b <= a + tol for a, b in zip(seq, seq[1:]))


def _settles(gaps, scale: float, rel_tol: float) -> bool:
    """The last gap is within rel_tol * scale and the last three do not rise."""
    return gaps[-1] <= rel_tol * scale and _non_increasing(gaps[-3:], scale)


# ---------------------------------------------------------------------------
# criteria (pure functions of the table rows)

def _scaling_criterion(rows: list[dict]) -> bool:
    return _settles([r["gap"] for r in rows], rows[-1]["target"], rows[-1]["rel_tol"])


def _continuity_criterion(rows: list[dict]) -> bool:
    ok = _settles([r["gap"] for r in rows], rows[-1]["s_base"], rows[-1]["rel_tol"])
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
            ok = ok and _settles([abs(r - 1.0) for r in ratios], 1.0, rel_tol)
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


REL_TOL = {"scaling": 0.10, "continuity": 0.05, "dilation": 0.05, "thm61": 0.15}

CRITERIA: dict[str, Callable[[list[dict]], bool]] = {
    "scaling": _scaling_criterion,
    "continuity": _continuity_criterion,
    "dilation": _dilation_criterion,
    "thm61": _theorem61_criterion,
    "subcritical-ball": _subcritical_criterion,
}


def _judged(name: str, columns, rows, details: dict) -> ExperimentResult:
    """The table, ``REL_TOL[name]`` (if any) as ``rel_tol``, and its verdict."""
    if name in REL_TOL:
        columns, rows = (*columns, "rel_tol"), [(*row, REL_TOL[name]) for row in rows]
    result = ExperimentResult(name=name, columns=tuple(columns), rows=tuple(rows),
                              verdict=None, details=details)
    result.verdict = CRITERIA[name](result.row_dicts())
    return result


# ---------------------------------------------------------------------------
# drivers

def _critical_point(p: ExponentField, q: ExponentField, x0, n: int):
    """p(x0) and q(x0) at a point of the criticality set, else ValueError."""
    p0 = p.value_at(x0)
    if p0 >= n:
        raise ValueError("x0 is not in the criticality set: p(x0) >= N")
    q0 = q.value_at(x0)
    if abs(q0 - critical_exponent(p0, n)) > TAU_CRIT:
        raise ValueError("x0 is not in the criticality set: q(x0) != p*(x0)")
    return p0, q0


def scaling_limit_experiment(profile, x0, scales, p, q, domain: GridDomain, *,
                             target_scale: float = 1.0) -> ExperimentResult:
    """Quotients of critically rescaled profiles against the frozen-exponent target.

    The target is the quotient of the profile itself under the constant
    exponents p(x0), q(x0); for a critical pair that quotient is
    scale-free, so the rescaled quotients should approach it as the
    scale shrinks.  Verdict: final gap within ``REL_TOL["scaling"]`` of
    the target and gaps non-increasing over the last three scales.
    """
    if not 0 < target_scale < np.inf:  # a NaN fails too
        raise ValueError(f"'target_scale' must be positive and finite, got {target_scale!r}")
    p = as_exponent_field(p, domain)
    q = as_exponent_field(q, domain)
    x0 = as_point(x0, domain.dim)
    p0, q0 = _critical_point(p, q, x0, domain.dim)

    seq = make_bubbles(profile, x0, scales, p, q)
    p_const = ExponentField.constant(p0, domain)
    q_const = ExponentField.constant(q0, domain)
    phi = GridFunction.radial(domain, profile, x0, target_scale)
    target = rayleigh_quotient(phi, p_const, q_const)

    rows = []
    for lam, term in zip(seq.scales, seq.terms):
        quot = rayleigh_quotient(term, p, q)
        rows.append((lam, quot, target, abs(quot - target)))
    return _judged("scaling", ("scale", "quotient", "target", "gap"), rows,
                   {"target": target})


def continuity_experiment(p, q, t_list, domain: GridDomain, *,
                          test_functions: Sequence[GridFunction] | None = None,
                          **opts) -> ExperimentResult:
    """Constants for the shifted pairs (p + t, q - t) against the base pair.

    Also tracks the quotient of fixed smooth test functions under the
    shifted exponents; those gaps must shrink monotonically on the tail
    as t decreases along the list.  ``opts`` go to every
    ``minimize_sobolev`` call, ``seed`` among the other descent options.
    """
    p = as_exponent_field(p, domain)
    q = as_exponent_field(q, domain)
    t_list = [float(t) for t in t_list]
    if any(b > a for a, b in zip(t_list, t_list[1:])):
        raise ValueError("t values must be non-increasing")
    if q.p_minus - max(t_list) < 1.0:
        raise ValueError("q - t drops below 1 for the largest t")
    if test_functions is None:
        test_functions = bump_family(domain, [(0.0, 0.8), (-0.3, 0.5), (0.3, 0.55),
                                              (-0.15, 0.65), (0.2, 0.4)])

    s_base = minimize_sobolev(p, q, **opts).value
    base_q = [rayleigh_quotient(v, p, q) for v in test_functions]

    def shifted(f: ExponentField, dt: float) -> ExponentField:
        return ExponentField(f.domain, lambda *xs: f.func(*xs) + dt)

    rows = []
    for t in t_list:
        p_n = shifted(p, +t)
        q_n = shifted(q, -t)
        s_n = minimize_sobolev(p_n, q_n, **opts).value
        qgaps = [abs(rayleigh_quotient(v, p_n, q_n) - b)
                 for v, b in zip(test_functions, base_q)]
        rows.append((t, s_n, s_base, abs(s_n - s_base), *qgaps))
    columns = ("t", "s_perturbed", "s_base", "gap",
               *(f"qgap_{j + 1}" for j in range(len(test_functions))))
    return _judged("continuity", columns, rows, {"s_base": s_base})


def dilation_check(profile, eps_list, p, q, *, center,
                   resolution: int) -> ExperimentResult:
    """Change-of-variables identities between a ball and its unit rescaling.

    For each radius eps (``eps_list`` strictly decreasing) the profile is
    laid out on B_eps and compared with its unit-ball rescaling under the
    exponents pulled back by ``grid.pull_back``: the unit-ball node x takes
    p and q at center + eps (x - center).  Both balls carry the same cell
    count, so the two discretizations correspond node for node; for constant
    exponents the identity is then exact (reference powers N/q for the
    function side and N/p - 1 for the gradient side, N the center's
    dimension) up to the norm solver tolerance, and the check requires 1e-8.
    For variable exponents the reference power is N/p*(center) and the
    ratios must trend to 1 within ``REL_TOL["dilation"]``.
    """
    center = as_point(center)
    n = float(len(center))
    eps_list = as_radii(eps_list, "eps_list")

    probe = np.linspace(1.0, 2.0, 64)
    if np.any(np.abs(profile(probe)) > 0):
        raise ValueError("support violation: profile must vanish for rho >= 1")

    unit = ball(center, 1.0, resolution)
    p_unit_ambient = as_exponent_field(p, unit)
    q_unit_ambient = as_exponent_field(q, unit)
    p_const = p_unit_ambient.is_constant
    q_const = q_unit_ambient.is_constant
    p0 = p_unit_ambient.value_at(center)
    q0 = q_unit_ambient.value_at(center)
    if not (p_const and q_const) and p0 >= n:
        raise ValueError("variable-exponent dilation needs p(center) < N")
    a_fun = n / q0 if q_const else n / critical_exponent(p0, n)
    a_grad = n / p0 - 1.0 if p_const else n / critical_exponent(p0, n)

    phi_unit = GridFunction.radial(unit, profile, center)
    mag_unit = gradient_magnitude(phi_unit)

    rows = []
    for eps in eps_list:
        dom = ball(center, eps, resolution)
        p_eps = as_exponent_field(p, dom)
        q_eps = as_exponent_field(q, dom)
        u = GridFunction.radial(dom, profile, center, eps)
        q_pull = ExponentField.from_callable(pull_back(q_eps.func, center, eps), unit)
        p_pull = ExponentField.from_callable(pull_back(p_eps.func, center, eps), unit)
        fun_lhs = luxemburg_norm(u, q_eps).value
        fun_rhs = eps ** a_fun * luxemburg_norm(phi_unit, q_pull).value
        grad_lhs = luxemburg_norm(gradient_magnitude(u), p_eps).value
        grad_rhs = eps ** a_grad * luxemburg_norm(mag_unit, p_pull).value
        rows.append((eps, fun_lhs, fun_rhs, fun_lhs / fun_rhs,
                     grad_lhs, grad_rhs, grad_lhs / grad_rhs,
                     1.0 if p_const else 0.0, 1.0 if q_const else 0.0))

    columns = ("eps", "fun_lhs", "fun_rhs", "fun_ratio",
               "grad_lhs", "grad_rhs", "grad_ratio", "p_const", "q_const")
    return _judged("dilation", columns, rows, {"a_fun": a_fun, "a_grad": a_grad})


def _strict_local_min(values: np.ndarray, center_value: float, ring: np.ndarray,
                      allow_degenerate: bool) -> bool:
    if not np.any(ring):
        return False
    ring_min = float(values[ring].min())
    if allow_degenerate:
        return ring_min >= center_value - 1e-9 * max(1.0, abs(center_value))
    return ring_min > center_value + 1e-12 * max(1.0, abs(center_value))


def theorem61_experiment(x0, p: ExponentField, q: ExponentField, radii, *,
                         allow_degenerate: bool = False, **opts) -> ExperimentResult:
    """Shrinking-ball limit of the constant against the sharp frozen-exponent value.

    Requires (numerically, on the ambient grid) that p and p*/q have a
    strict local minimum at x0; ``allow_degenerate`` accepts the flat
    case of constant exponent pairs.  The extrapolated shrinking-ball
    value must match the sharp constant at p(x0) within ``REL_TOL["thm61"]``
    (generous: the per-ball estimates carry optimizer and grid bias).
    ``opts`` go to ``localized_constant``: ``cells_per_diameter`` is 96 by
    default, and ``seed`` arrives with the other descent options.
    """
    dom = p.domain
    n = dom.dim
    x0 = as_point(x0, n)
    radii = as_radii(radii, "radii")
    p0, q0 = _critical_point(p, q, x0, n)

    rho = dom.distance_from(x0)
    ring = dom.inside & (rho > 0) & (rho <= radii[0])
    if not _strict_local_min(p.values, p0, ring, allow_degenerate):
        raise ValueError("hypotheses violated: p has no strict local minimum at x0")
    ratio = critical_exponent(p.values, n) / q.values
    ratio0 = critical_exponent(p0, n) / q0
    if not _strict_local_min(ratio, ratio0, ring, allow_degenerate):
        raise ValueError("hypotheses violated: p*/q has no strict local minimum at x0")

    loc = localized_constant(x0, p, q, radii, **opts)
    target = talenti_constant(n, p0)
    return _judged("thm61", ("radius", "s_estimate", "talenti_target"),
                   ((r, v, target) for r, v in zip(loc.radii, loc.values)),
                   {"extrapolated": loc.extrapolated, "talenti": target})


def subcritical_radii(r_list) -> list[float]:
    """The radii of :func:`subcritical_ball_experiment`, increasing: given in
    any order, each once, and none below 1, the construction's range."""
    # read largest first, then run smallest first
    r_list = as_radii(sorted(map(float, r_list), reverse=True), "r_list")[::-1]
    if r_list[0] < 1.0:
        raise ValueError("radii below 1 are outside the construction's range")
    return r_list


def subcritical_ball_experiment(profile, r_list, p, q, s_target: float, *,
                                center, resolution: int) -> ExperimentResult:
    """Large-subcritical-ball construction, verified end to end.

    For each radius R the three sufficient conditions are evaluated with
    the discrete samples of the unit profile (so the implication
    "conditions hold => quotient of the blown-up profile beats
    s_target" is the exact discrete chain, not an approximation):

      1. R^(N - sup p) * integral |grad u|^(sup p)  > 1
      2. R^N * integral |u|^(sup q)                 > 1
      3. (||grad u||_(inf p) / ||u||_(sup q)) * R^(N (1/(inf p)* - 1/sup q))
         < s_target

    with sup/inf over the ball of radius R, N the center's dimension.  The
    quotient of u(x / R) is then computed directly and compared against s_target.
    """
    center = as_point(center)
    n = float(len(center))
    r_list = subcritical_radii(r_list)

    unit = ball(center, 1.0, resolution)
    u1 = GridFunction.radial(unit, profile, center)
    mag1 = gradient_magnitude(u1)
    if float(np.abs(u1.values).max()) > 1.0 + 1e-9:
        raise ValueError("profile bound violated: |u| must stay <= 1")
    if float(mag1.max()) > 1.0 + 1e-9:
        raise ValueError("profile bound violated: |grad u| must stay <= 1")

    s_target = float(s_target)

    @functools.cache
    def unit_modular(grad: bool, exponent: float) -> float:
        """The modular of mag1 (``grad``) or u1 under a constant exponent, once per value."""
        return modular(mag1 if grad else u1, ExponentField.constant(exponent, unit))

    rows = []
    smallest_passing = None
    for r in r_list:
        dom = ball(center, r, resolution)
        p_r = as_exponent_field(p, dom)
        q_r = as_exponent_field(q, dom)
        p_plus, p_minus = p_r.p_plus, p_r.p_minus
        q_plus = q_r.p_plus
        pstar_minus = critical_exponent(p_minus, n)
        if q_plus >= pstar_minus:
            raise ValueError(f"ball of radius {r} is not subcritical")

        # modulars of the unit profile under the constant exponents of this ball
        cond_grad = r ** (n - p_plus) * unit_modular(True, p_plus)
        mod_u = unit_modular(False, q_plus)
        cond_fun = r ** n * mod_u
        norm_grad = unit_modular(True, p_minus) ** (1.0 / p_minus)
        norm_u = mod_u ** (1.0 / q_plus)
        cond_bound = (norm_grad / norm_u) * r ** (n * (1.0 / pstar_minus - 1.0 / q_plus))

        conditions = cond_grad > 1.0 and cond_fun > 1.0 and cond_bound < s_target
        u_r = GridFunction.radial(dom, profile, center, r)
        quot = rayleigh_quotient(u_r, p_r, q_r)
        claim = quot < s_target
        if conditions and smallest_passing is None:
            smallest_passing = r
        rows.append((r, cond_grad, cond_fun, cond_bound, s_target, quot,
                     1.0 if conditions else 0.0, 1.0 if claim else 0.0))

    columns = ("radius", "cond_grad", "cond_fun", "cond_quotient_bound",
               "s_target", "quotient", "conditions_ok", "claim_ok")
    return _judged("subcritical-ball", columns, rows,
                   {"smallest_passing_radius": smallest_passing})
