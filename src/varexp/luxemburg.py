"""Modulars, Luxemburg norms, and the classical inequality checks.

The modular of a field u against an exponent field p is
rho(u) = integral of |u(x)|^p(x).  The Luxemburg norm is the unique
lambda > 0 with rho(u/lambda) = 1 (zero for u = 0).  One solver core
serves every norm entry point: Newton's method on t = log lambda for
f(t) = log rho(u/e^t), which is convex and decreasing in t, so the
iteration converges monotonically from any start without a bracket or
a safeguard, and its log form cannot overflow even when sup p is large
and the modular is stiff in lambda.

Norms against an arbitrary nonnegative node-mass vector (in place of the
quadrature weights) are supported for measure-space diagnostics,
including purely atomic masses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exponents import ExponentField
from .grid import GridDomain, GridFunction, gradient_magnitude

__all__ = [
    "LuxemburgNorm",
    "RelationsReport",
    "HolderReport",
    "modular",
    "luxemburg_norm",
    "luxemburg_norm_measure",
    "norm_with_gradient",
    "check_modular_norm_relations",
    "holder_check",
    "poincare_ratio",
]

DEFAULT_TOL_MODULAR = 1e-10
MAX_NEWTON_ITERS = 200


@dataclass(frozen=True)
class LuxemburgNorm:
    """Result of one Luxemburg solve.

    ``value`` is the norm.  ``bracket`` is the interval between ``value``
    and ``value * exp(f/p_min)``, where f = log rho(u/value) and p_min is
    the least exponent on the support; it contains the exact root of the
    modular equation because |d log rho / d log lambda| >= p_min there.
    ``iterations`` is the number of modular evaluations the solve made
    (0 only for u = 0).
    """

    value: float
    bracket: tuple[float, float]
    iterations: int

    def __float__(self):
        return self.value


def _as_values(u, domain: GridDomain) -> np.ndarray:
    if isinstance(u, GridFunction):
        if u.domain != domain:
            raise ValueError("function and exponent field live on different domains")
        return u.values
    vals = np.asarray(u, dtype=float)
    if vals.shape != domain.shape:
        raise ValueError("sample array does not match the grid shape")
    return vals


def modular(u, p: ExponentField, weights: np.ndarray | None = None) -> float:
    """rho(u) = sum of mass * |u|^p over nodes carrying mass."""
    vals = _as_values(u, p.domain)
    w = p.domain.weights if weights is None else np.asarray(weights, dtype=float)
    if w.shape != p.domain.shape:
        raise ValueError("mass array does not match the grid shape")
    if np.any(w < 0):
        raise ValueError("negative mass in modular")
    sel = w > 0
    a = np.abs(vals[sel])
    if not np.all(np.isfinite(a)):
        raise ValueError("NaN/inf sample inside the domain")
    return float(np.dot(w[sel], a ** p.values[sel]))


def _newton_norm(a: np.ndarray, pw: np.ndarray, w: np.ndarray,
                 tol: float, max_iters: int, initial: float | None):
    """Solve sum w * (a/lam)^pw = 1 for lam; a > 0 and w > 0 at every node.

    Newton's method on t = log lam for
    f(t) = log rho(u/e^t) = logsumexp(log w + pw * (log a - t)).
    f is convex and decreasing with f'(t) = -pbar, the rho-weighted mean
    of pw, so the step t += f/pbar needs no safeguard: it overshoots the
    root at most once and then rises monotonically to it.  The log form
    cannot overflow.

    The exponents e = log w + pw * log(a/lam) are formed once from the
    start and then shifted by -pw * step, and lam is multiplied by
    e^step, instead of recomputing both from a float t: near |t| = 700
    such a t resolves lam only to about 1e-13, while a/lam and the steps
    keep their full relative precision.

    Returns the result, the rho terms of the final evaluation up to one
    common positive factor, and the pw-weighted sum of those terms.
    """
    p_min = float(pw.min())
    lam = initial if initial is not None and initial > 0 else float(a.max())
    e = a / lam
    np.log(e, out=e)
    e *= pw
    r = np.log(w)
    e += r          # r is scratch from here on
    for evals in range(1, max_iters + 1):
        shift = float(e.max())
        np.subtract(e, shift, out=r)
        np.exp(r, out=r)
        total = float(r.sum())
        p_total = float(np.dot(pw, r))
        f = shift + math.log(total)
        if abs(math.expm1(f)) <= tol and abs(f) <= 1e-13 * p_min:
            # |f'| >= p_min, so the root lies within |f|/p_min of log lam
            other = lam * math.exp(f / p_min)
            res = LuxemburgNorm(lam, (min(lam, other), max(lam, other)), evals)
            return res, r, p_total
        step = f * total / p_total
        lam *= math.exp(step)
        np.multiply(pw, step, out=r)
        e -= r
    raise RuntimeError(
        f"Luxemburg Newton solve did not converge: log-modular residual {f:.3e} "
        f"after {max_iters} evaluations")


def luxemburg_norm(u, p: ExponentField, tol_modular: float = DEFAULT_TOL_MODULAR,
                   max_iters: int = MAX_NEWTON_ITERS,
                   initial: float | None = None) -> LuxemburgNorm:
    """Luxemburg norm of ``u`` in the variable-exponent space of ``p``.

    ``initial`` seeds the Newton start (useful when re-evaluating nearby
    fields, e.g. inside line searches).
    """
    return luxemburg_norm_measure(u, p, p.domain.weights, tol_modular=tol_modular,
                                  max_iters=max_iters, initial=initial)


def luxemburg_norm_measure(u, p: ExponentField, masses: np.ndarray,
                           tol_modular: float = DEFAULT_TOL_MODULAR,
                           max_iters: int = MAX_NEWTON_ITERS,
                           initial: float | None = None) -> LuxemburgNorm:
    """Luxemburg norm against an arbitrary nonnegative node-mass vector."""
    vals = _as_values(u, p.domain)
    w = np.asarray(masses, dtype=float)
    if w.shape != p.domain.shape:
        raise ValueError("mass array does not match the grid shape")
    if np.any(w < 0):
        raise ValueError("negative mass")
    sel = w > 0
    if not np.all(np.isfinite(vals[sel])):
        raise ValueError("NaN/inf sample on nodes carrying mass")
    sel &= vals != 0
    if not sel.any():
        return LuxemburgNorm(0.0, (0.0, 0.0), 0)
    res, _, _ = _newton_norm(np.abs(vals[sel]), p.values[sel], w[sel],
                             tol_modular, max_iters, initial)
    return res


def norm_with_gradient(u, p: ExponentField, smoothing: float = 0.0,
                       tol_modular: float = 1e-12, initial: float | None = None):
    """Luxemburg norm and its gradient with respect to the node samples.

    Implicit differentiation of the modular equation rho(u/lam) = 1 gives

        dlam/du_i = lam p_i T_i / (sum_j p_j T_j) * u_i / s_i^2,
        T_i = weight_i (s_i/lam)^p_i,

    with s = sqrt(u^2 + smoothing^2).  The terms T and their p-weighted
    sum come from the solver's final modular evaluation.  ``smoothing``
    regularizes the magnitude at 0 (the returned value uses the smoothed
    samples consistently, so the pair is the exact value and gradient of
    the smoothed functional).  ``initial`` seeds the Newton start, as in
    :func:`luxemburg_norm`; started at the norm itself, the solve makes
    the single modular evaluation that the gradient terms need.

    Returns ``(value, grad)`` with ``grad`` shaped like the grid.
    """
    vals = _as_values(u, p.domain)
    dom = p.domain
    sel = dom.weights > 0
    if not np.all(np.isfinite(vals[sel])):
        raise ValueError("NaN/inf sample on nodes carrying mass")
    if smoothing == 0:
        sel &= vals != 0
    if not sel.any():
        raise ValueError("gradient of the norm is undefined at u = 0")
    v = vals[sel]
    s2 = v * v + smoothing * smoothing
    pw = p.values[sel]
    res, terms, p_total = _newton_norm(np.sqrt(s2), pw, dom.weights[sel],
                                       tol_modular, MAX_NEWTON_ITERS, initial)
    lam = res.value
    terms *= pw
    terms *= lam / p_total
    terms *= v
    terms /= s2
    grad = np.zeros(dom.shape)
    grad[sel] = terms
    return lam, grad


@dataclass(frozen=True)
class RelationsReport:
    """Outcome of the modular--norm relation suite for one field."""

    norm: float
    mod: float
    p_minus: float
    p_plus: float
    unit_modular: bool       # rho(u/||u||) = 1
    trichotomy: bool         # ||u|| <1 (=1; >1)  <=>  rho(u) <1 (=1; >1)
    bound_above_one: bool    # ||u|| > 1 => ||u||^p- <= rho <= ||u||^p+
    bound_below_one: bool    # ||u|| < 1 => ||u||^p+ <= rho <= ||u||^p-
    scaling_to_zero: bool    # norms and modulars of u/2^k both decrease
    scaling_to_inf: bool     # norms and modulars of 2^k u both increase

    @property
    def all_hold(self) -> bool:
        return (self.unit_modular and self.trichotomy and self.bound_above_one
                and self.bound_below_one and self.scaling_to_zero and self.scaling_to_inf)


def check_modular_norm_relations(u, p: ExponentField,
                                 tol: float = DEFAULT_TOL_MODULAR) -> RelationsReport:
    """Verify the norm/modular relations for one nonzero field."""
    vals = _as_values(u, p.domain)
    if not np.any(vals):
        raise ValueError("relations are stated for u != 0")
    nrm = luxemburg_norm(vals, p, tol_modular=tol).value
    mod = modular(vals, p)
    slack = 10 * tol

    unit_modular = abs(modular(vals / nrm, p) - 1.0) <= slack

    if nrm > 1 + slack:
        trichotomy = mod > 1 - slack
    elif nrm < 1 - slack:
        trichotomy = mod < 1 + slack
    else:
        trichotomy = abs(mod - 1.0) <= max(slack, 10 * slack * max(1.0, mod))

    bound_above = True
    if nrm > 1 + slack:
        bound_above = (nrm ** p.p_minus <= mod * (1 + slack)
                       and mod <= nrm ** p.p_plus * (1 + slack))
    bound_below = True
    if nrm < 1 - slack:
        bound_below = (nrm ** p.p_plus <= mod * (1 + slack)
                       and mod <= nrm ** p.p_minus * (1 + slack))

    shrink_norms = [luxemburg_norm(vals / 2.0**k, p, tol_modular=tol).value
                    for k in (1, 2, 3)]
    shrink_mods = [modular(vals / 2.0**k, p) for k in (1, 2, 3)]
    to_zero = (all(a > b for a, b in zip([nrm] + shrink_norms, shrink_norms))
               and all(a > b for a, b in zip([mod] + shrink_mods, shrink_mods)))

    grow_norms = [luxemburg_norm(vals * 2.0**k, p, tol_modular=tol).value
                  for k in (1, 2, 3)]
    grow_mods = [modular(vals * 2.0**k, p) for k in (1, 2, 3)]
    to_inf = (all(a < b for a, b in zip([nrm] + grow_norms, grow_norms))
              and all(a < b for a, b in zip([mod] + grow_mods, grow_mods)))

    return RelationsReport(
        norm=nrm, mod=mod, p_minus=p.p_minus, p_plus=p.p_plus,
        unit_modular=unit_modular, trichotomy=trichotomy,
        bound_above_one=bound_above, bound_below_one=bound_below,
        scaling_to_zero=to_zero, scaling_to_inf=to_inf,
    )


@dataclass(frozen=True)
class HolderReport:
    lhs: float
    rhs: float
    constant: float
    s_minus: float
    s_plus: float
    satisfied: bool


def holder_check(f, g, p: ExponentField, q: ExponentField,
                 tol: float = 1e-9) -> HolderReport:
    """Check ||fg||_s <= ((s/p)+ + (s/q)+) ||f||_p ||g||_q with 1/s = 1/p + 1/q."""
    if p.domain != q.domain:
        raise ValueError("p and q live on different domains")
    dom = p.domain
    fv = _as_values(f, dom)
    gv = _as_values(g, dom)
    s_vals = 1.0 / (1.0 / p.values + 1.0 / q.values)
    inside = dom.inside
    s_min = float(s_vals[inside].min())
    if s_min <= 1.0:
        raise ValueError(f"derived exponent s must exceed 1 everywhere, got inf s = {s_min}")
    s = ExponentField(dom, s_vals)
    ratio_p = s_vals[inside] / p.values[inside]
    ratio_q = s_vals[inside] / q.values[inside]
    const = float(ratio_p.max() + ratio_q.max())
    lhs = luxemburg_norm(fv * gv, s).value
    rhs = const * luxemburg_norm(fv, p).value * luxemburg_norm(gv, q).value
    return HolderReport(
        lhs=lhs, rhs=rhs, constant=const,
        s_minus=s_min, s_plus=float(s_vals[inside].max()),
        satisfied=lhs <= rhs + tol * max(1.0, rhs),
    )


def poincare_ratio(u: GridFunction, p: ExponentField) -> float:
    """||u||_p / ||grad u||_p, an empirical lower bound on the Poincare constant."""
    if u.is_zero():
        raise ValueError("Poincare ratio is undefined for u = 0")
    num = luxemburg_norm(u, p).value
    mag = gradient_magnitude(u)
    den = luxemburg_norm(mag, p).value
    if den == 0.0:
        raise RuntimeError("zero gradient with nonzero samples: corrupted state")
    return num / den
