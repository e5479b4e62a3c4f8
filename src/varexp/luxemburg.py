"""Modulars, Luxemburg norms, and the classical inequality checks.

The modular of a field u against an exponent field p is
rho(u) = integral of |u(x)|^p(x).  The Luxemburg norm is the unique
lambda > 0 with rho(u/lambda) = 1 (zero for u = 0).  Both are defined on
any measure space, so one solver core sees only weighted points: |u| > 0
there, the exponents there and the log of their masses.  It runs Newton's
method on t = log lambda for f(t) = log rho(u/e^t), which is convex and
decreasing in t, so the iteration converges monotonically from any start
without a bracket or a safeguard, and its log form cannot overflow even
when sup p is large and the modular is stiff in lambda.  Every solve
stops at ``TOL_MODULAR`` and returns u * dlambda/du at each point.

The three norm entry points gather the core's points from the nonzero
samples on nodes carrying mass: :func:`luxemburg_norm` under the
quadrature weights, with one float log-mass (log of the cell volume);
:func:`luxemburg_norm_measure` under a caller's nonnegative finite node
masses, including purely atomic ones, with the log-masses gathered; and
:func:`norm_with_gradient` as :func:`luxemburg_norm`, scattering
u * dlambda/du back to the grid, the one entry with a warm start
(``initial``).  Each gathers |u| into one buffer, which the core owns.
A NaN/inf sample on a node carrying mass is rejected by a max over |u|
where it is formed: the core's buffer, or ``modular_density``'s output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exponents import ExponentField
from .grid import GridFunction, gradient_magnitude

__all__ = [
    "LuxemburgNorm",
    "RelationsReport",
    "HolderReport",
    "modular",
    "modular_density",
    "luxemburg_norm",
    "luxemburg_norm_measure",
    "norm_with_gradient",
    "check_modular_norm_relations",
    "holder_check",
    "poincare_ratio",
]

#: A solve stops once |rho(u/lam) - 1| <= TOL_MODULAR and |log rho| <= 1e-13 p_min.
TOL_MODULAR = 1e-12
MAX_NEWTON_ITERS = 200
RELATIONS_SLACK = 1e-9
#: The six modular--norm relations, named as the boolean fields of
#: ``RelationsReport``; ``all_hold`` and the ``check-relations`` command read them.
RELATIONS = ("unit_modular", "trichotomy", "bound_above_one", "bound_below_one",
             "scaling_to_zero", "scaling_to_inf")


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


def _checked(u, p: ExponentField) -> np.ndarray:
    """The samples of ``u`` on ``p``'s grid.

    Rejects a grid function on another domain than ``p``'s and a sample
    array off the grid shape.  It copies nothing and does not look at the
    samples' values: the NaN/inf test is made on |u| over the nodes
    carrying mass, where each caller forms it (:func:`_require_finite`).
    """
    if isinstance(u, GridFunction):
        if u.domain != p.domain:
            raise ValueError("function and exponent field live on different domains")
        return u.values
    vals = np.asarray(u, dtype=float)
    if vals.shape != p.domain.shape:
        raise ValueError("sample array does not match the grid shape")
    return vals


def _require_finite(top: float) -> None:
    """Reject ``top``, the max of |u| over the nodes with mass (a NaN propagates)."""
    if not math.isfinite(top):
        raise ValueError("NaN/inf sample on nodes carrying mass")


def modular_density(u, p: ExponentField) -> np.ndarray:
    """The node terms weight * |u|^p of the modular under the quadrature
    weights, 0 on nodes outside the domain; a term past the float range raises."""
    vals, sel = _checked(u, p), p.domain.inside
    out = np.zeros(p.domain.shape)
    np.abs(vals, out=out, where=sel)
    _require_finite(float(out.max()))
    with np.errstate(over="ignore"):
        np.power(out, p.values, out=out, where=sel)
        np.multiply(out, p.domain.weights, out=out, where=sel)
    if not math.isfinite(float(out.max())):
        raise ValueError("modular term w |u|^p overflows the float range")
    return out


def modular(u, p: ExponentField) -> float:
    """rho(u) under the quadrature weights, the sum of :func:`modular_density`."""
    return float(modular_density(u, p).sum())


def _newton_norm(a: np.ndarray, pw: np.ndarray, log_w, initial: float | None):
    """Solve sum w * (a/lam)^pw = 1 for lam over a set of weighted points,
    where a = |u| > 0 at the points, pw the exponents there and ``log_w``
    the log of their masses: one float for a common mass (the quadrature
    path), an array otherwise.  An empty set has the zero norm.

    The solver owns ``a``: the caller gathers it for this solve, and the
    first exponents are formed in place in it.  Its max is the default
    start and is where a NaN/inf sample is rejected.

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

    Returns the result and, in the solver's scratch buffer, u * dlam/du
    at each point.  Implicit differentiation of rho(u/lam) = 1 gives
    u_i dlam/du_i = lam p_i T_i / (sum_j p_j T_j), T_i = w_i (|u_i|/lam)^p_i,
    where the terms T of the final evaluation serve up to a common factor.
    """
    if not a.size:
        return LuxemburgNorm(0.0, (0.0, 0.0), 0), a
    top = float(a.max())
    _require_finite(top)
    p_min = float(pw.min())
    lam = initial if initial is not None and initial > 0 else top
    e = a
    e /= lam
    np.log(e, out=e)
    e *= pw
    e += log_w
    r = np.empty_like(e)
    for evals in range(1, MAX_NEWTON_ITERS + 1):
        shift = float(e.max())
        np.subtract(e, shift, out=r)
        np.exp(r, out=r)
        total = float(r.sum())
        p_total = float(np.dot(pw, r))
        f = shift + math.log(total)
        if abs(math.expm1(f)) <= TOL_MODULAR and abs(f) <= 1e-13 * p_min:
            # |f'| >= p_min, so the root lies within |f|/p_min of log lam
            other = lam * math.exp(f / p_min)
            r *= pw
            r *= lam / p_total
            return LuxemburgNorm(lam, (min(lam, other), max(lam, other)), evals), r
        step = f * total / p_total
        lam *= math.exp(step)
        np.multiply(pw, step, out=r)
        e -= r
    raise RuntimeError(
        f"Luxemburg Newton solve did not converge: log-modular residual {f:.3e} "
        f"after {MAX_NEWTON_ITERS} evaluations")


def luxemburg_norm(u, p: ExponentField) -> LuxemburgNorm:
    """Luxemburg norm of ``u`` in the variable-exponent space of ``p``, with
    np.log of the cell volume, the log-mass :func:`luxemburg_norm_measure` forms."""
    vals = _checked(u, p)
    sel = p.domain.inside & (vals != 0)
    a = vals[sel]
    log_w = float(np.log(p.domain.cell))
    return _newton_norm(np.abs(a, out=a), p.values[sel], log_w, None)[0]


def luxemburg_norm_measure(u, p: ExponentField, masses: np.ndarray) -> LuxemburgNorm:
    """Luxemburg norm against an arbitrary nonnegative node-mass vector.

    Rejects a mass array off the grid shape, and a negative, NaN or
    infinite mass on any node, whether or not ``u`` vanishes there.
    """
    vals = _checked(u, p)
    w = np.asarray(masses, dtype=float)
    if w.shape != p.domain.shape:
        raise ValueError("mass array does not match the grid shape")
    if not (w.min() >= 0 and w.max() < math.inf):  # a NaN fails both
        raise ValueError("negative or non-finite mass")
    sel = (w > 0) & (vals != 0)
    a = vals[sel]
    log_w = w[sel]
    np.log(log_w, out=log_w)
    return _newton_norm(np.abs(a, out=a), p.values[sel], log_w, None)[0]


def norm_with_gradient(u, p: ExponentField, initial: float | None = None):
    """Luxemburg norm and its gradient with respect to the node samples.

    The gather and the solve are :func:`luxemburg_norm`'s.  The solver
    returns u_i dlam/du_i in its scratch buffer; scattered to the grid
    and divided by u_i there, it is the gradient, which is 0 where
    u_i = 0.  Dividing by u_i, rather than multiplying by u_i / u_i^2,
    keeps the gradient finite for samples whose square underflows.
    ``initial`` seeds the Newton start; started at the norm itself, the
    solve makes the single modular evaluation that the gradient needs.

    Returns ``(value, grad)`` with ``grad`` shaped like the grid.
    """
    vals = _checked(u, p)
    sel = p.domain.inside & (vals != 0)
    a = vals[sel]
    log_w = float(np.log(p.domain.cell))
    res, terms = _newton_norm(np.abs(a, out=a), p.values[sel], log_w, initial)
    if not res.iterations:
        raise ValueError("gradient of the norm is undefined at u = 0")
    grad = np.zeros(p.domain.shape)
    grad[sel] = terms
    np.divide(grad, vals, out=grad, where=sel)
    return res.value, grad


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
        return all(getattr(self, key) for key in RELATIONS)


def check_modular_norm_relations(u, p: ExponentField) -> RelationsReport:
    """Verify the norm/modular relations for one nonzero field, each up
    to ``RELATIONS_SLACK``."""
    vals = _checked(u, p)
    nrm = luxemburg_norm(vals, p).value
    if nrm == 0:
        raise ValueError("relations are stated for u != 0 on the nodes carrying mass")
    mod = modular(vals, p)
    slack = RELATIONS_SLACK

    unit_modular = abs(modular(vals / nrm, p) - 1.0) <= slack

    if nrm > 1 + slack:
        trichotomy = mod > 1 - slack
    elif nrm < 1 - slack:
        trichotomy = mod < 1 + slack
    else:
        trichotomy = abs(mod - 1.0) <= max(slack, 10 * slack * max(1.0, mod))

    # rho lies between ||u||^p- and ||u||^p+, whichever is the smaller
    low, high = sorted((nrm ** p.p_minus, nrm ** p.p_plus))
    between = low <= mod * (1 + slack) and mod <= high * (1 + slack)
    bound_above = between or not nrm > 1 + slack
    bound_below = between or not nrm < 1 - slack

    # whether norm and modular of u * 2^k rise strictly along ks (exact scalings)
    def rises(ks) -> bool:
        norms = [luxemburg_norm(vals * 2.0**k, p).value if k else nrm for k in ks]
        mods = [modular(vals * 2.0**k, p) if k else mod for k in ks]
        return all(a < b for seq in (norms, mods) for a, b in zip(seq, seq[1:]))

    to_zero, to_inf = rises((-3, -2, -1, 0)), rises((0, 1, 2, 3))

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


def holder_check(f, g, p: ExponentField, q: ExponentField) -> HolderReport:
    """Check ||fg||_s <= ((s/p)+ + (s/q)+) ||f||_p ||g||_q with 1/s = 1/p + 1/q."""
    if p.domain != q.domain:
        raise ValueError("p and q live on different domains")
    dom = p.domain
    fv = _checked(f, p)
    gv = _checked(g, q)
    s_vals = 1.0 / (1.0 / p.values + 1.0 / q.values)
    inside = dom.inside
    s_min = float(s_vals[inside].min())
    if s_min <= 1.0:
        raise ValueError(f"derived exponent s must exceed 1 everywhere, got inf s = {s_min}")
    s = ExponentField(dom, s_vals, lambda *xs: 1 / (1 / p.func(*xs) + 1 / q.func(*xs)))
    ratio_p = s_vals[inside] / p.values[inside]
    ratio_q = s_vals[inside] / q.values[inside]
    const = float(ratio_p.max() + ratio_q.max())
    lhs = luxemburg_norm(fv * gv, s).value
    rhs = const * luxemburg_norm(fv, p).value * luxemburg_norm(gv, q).value
    return HolderReport(
        lhs=lhs, rhs=rhs, constant=const,
        s_minus=s_min, s_plus=float(s_vals[inside].max()),
        satisfied=lhs <= rhs + 1e-9 * max(1.0, rhs),
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
