"""Modulars, Luxemburg norms, and the classical inequality checks.

The modular of a field u against an exponent field p is
rho(u) = integral of |u(x)|^p(x).  The Luxemburg norm is the unique
lambda > 0 with rho(u/lambda) = 1 (zero for u = 0).  Both are defined on
any measure space, so one solver core sees only weighted points: |u| > 0
there, the exponents there and the log of their masses.  It steps on
t = log lambda for f(t) = log rho(u/e^t), convex and decreasing in t,
whose log form cannot overflow even when sup p is large and the modular
is stiff in lambda: to the root of f's second-order model for a variable
exponent (Newton's step where that model has no real root), and by
Newton's step for a constant one, where f is affine.  Every solve stops
at ``TOL_MODULAR``, certified from the last step without evaluating where
it lands, with a two-sided bracket (of zero width for a constant
exponent, after one evaluation).  Only a caller that reads it has the
core form u * dlambda/du at each point from the last evaluation's terms:
:func:`norm_with_gradient` does, and the value-only solves return at the
certified exit.  The modular density takes powers of nonzero bases only.

The three norm entry points gather the core's points from the nonzero
samples on nodes carrying mass: :func:`luxemburg_norm` under the cell
volume, the quadrature weight, with its log as one float log-mass;
:func:`luxemburg_norm_measure` under a caller's nonnegative finite node
masses, including purely atomic ones, with the log-masses gathered; and
:func:`norm_with_gradient` as :func:`luxemburg_norm`, scattering
dlambda/du back to the grid, the one entry with a warm start
(``initial``).  Each gathers |u| into one buffer, which the core owns;
the relation suite solves exact binade shifts of one quadrature gather.
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

    ``value`` is the norm.  ``bracket`` is two-sided,
    (value * exp(-B/p_min), value * exp(B/p_min)), where B >= |log rho(u/value)|
    is the solver's certified residual bound and p_min the least exponent
    on the support.  After a Newton step, which a constant exponent always
    takes (with B = 0) and a variable one only where its second-order
    model has no real root, log rho(u/value) lies in [0, B] and the bracket
    is (value, value * exp(B/p_min)).  As |d log rho / d log lambda| >= p_min,
    it holds the root of the modular equation up to the rounding of the
    last evaluation, which it does not widen for.  ``iterations`` is the
    number of modular evaluations the solve made: 0 only for u = 0, and 1
    for a constant exponent.
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
    """The node terms cell * |u|^p of the modular, weighed by the cell volume
    on the domain and 0 off it; a term past the float range raises.
    |u| is taken on the domain only (a NaN off it is dropped), and the
    power only on its nonzero bases: a zero keeps the 0 that 0^p is, bit
    for bit, and skips the slow path that ``pow(0, p)`` takes in libm."""
    vals = _checked(u, p)
    out = np.zeros(p.domain.shape)
    np.abs(vals, out=out, where=p.domain.inside)
    _require_finite(float(out.max()))
    with np.errstate(over="ignore"):
        np.power(out, p.values, out=out, where=out > 0)
        out *= p.domain.cell
    if not math.isfinite(float(out.max())):
        raise ValueError("modular term w |u|^p overflows the float range")
    return out


def modular(u, p: ExponentField) -> float:
    """rho(u) weighed by the cell volume, the sum of :func:`modular_density`."""
    return float(modular_density(u, p).sum())


def _newton_norm(a: np.ndarray, pw: np.ndarray | float, log_w, initial: float | None,
                 gradient: bool = False):
    """Solve sum w * (a/lam)^pw = 1 for lam over a set of weighted points,
    where a = |u| > 0 at the points, pw the exponents there and ``log_w``
    the log of their masses.  Each of ``pw`` and ``log_w`` is one float
    when it is common to every point (a constant exponent; the quadrature
    path's mass), an array otherwise.  An empty set has the zero norm.

    The solver owns ``a``: the caller gathers it for this solve, and the
    first exponents are formed in place in it.  Its max is the default
    start and is where a NaN/inf sample is rejected.  A ratio a/lam that
    underflows to 0 has the exponent -inf and weighs 0.

    The steps are taken on t = log lam for
    f(t) = log rho(u/e^t) = logsumexp(log w + pw * (log a - t)),
    the cumulant-generating function of pw under the rho-weighted
    measure: f' = -pbar (the mean), f'' = var (the variance) and
    f''' = -mu3 (the third central moment).  f is convex and decreasing,
    and its log form cannot overflow.  A variable exponent steps to the
    root nearest 0 of the model f - pbar s + var s^2 / 2, that is
    s = 2 f / (pbar + disc^(1/2)) with disc = pbar^2 - 2 var f.  Taylor's
    remainder leaves f(t + s) = -mu3(xi) s^3 / 6 at some xi.  Every
    deviation of pw from a mean of pw is at most Dp = p+ - p- in size, so
    |mu3| <= Dp var <= Dp^3 / 4 (Popoviciu), and f(t + s) lies in [-B, B]
    with B = Dp^3 |s|^3 / 24, up to rounding.  Where disc < 0 the model has
    no real root: the solve takes the Newton step s = f/pbar, after which
    f(t + s) lies in [0, B] with B = Dp^2 s^2 / 8 (f'' <= Dp^2 / 4).  A
    constant exponent takes the Newton step with B = 0.  The moments read
    the evaluation's terms T multiplied by pw in place, one pass each for
    sum pw T and sum pw^2 T with no buffer of pw^2; the gradient reuses pw T.

    The exit is certified: once B meets the rule (B <= 1e-13 p_min,
    expm1(B) <= ``TOL_MODULAR``), lam e^s is returned unevaluated.  As
    |f'| >= p_min, the root lies in lam e^(s +- B/p_min) after the model's
    step, and in [lam e^s, lam e^(s + B/p_min)] after a Newton step.

    The exponents e = log w + pw * log(a/lam) are formed once from the
    start and then shifted by -pw * step, and lam is multiplied by
    e^step, instead of recomputing both from a float t: near |t| = 700
    such a t resolves lam only to about 1e-13, while a/lam and the steps
    keep their full relative precision.

    Returns the result and, only with ``gradient``, u * dlam/du at each
    point in the solver's scratch buffer (else None): a value-only solve
    stops at the certified exit, and the gradient callers
    (:func:`norm_with_gradient`, a point-set gradient) pay the passes
    that form it.  Implicit differentiation of rho(u/lam) = 1 gives
    u_i dlam/du_i = lam p_i T_i / (sum_j p_j T_j), T_i = w_i (|u_i|/lam)^p_i,
    where the terms p_i T_i of the last evaluation, rescaled by e^(-p_i s)
    to the returned lam, serve up to a common factor; for a constant
    exponent p_i and the rescaling are common too.
    """
    if not a.size:
        return LuxemburgNorm(0.0, (0.0, 0.0), 0), a if gradient else None
    top = float(a.max())
    _require_finite(top)
    flat = isinstance(pw, float)
    p_min = pw if flat else float(pw.min())
    spread = 0.0 if flat else float(pw.max()) - p_min
    lam = initial if initial is not None and initial > 0 else top
    e = a
    e /= lam
    with np.errstate(divide="ignore"):  # log 0 = -inf: the term weighs 0
        np.log(e, out=e)
    e *= pw
    e += log_w
    r = np.empty_like(e)
    for evals in range(1, MAX_NEWTON_ITERS + 1):
        f, total = _log_sum_exp(e, r)
        low = 0.0  # f at the new lam lies in [low, bound]
        if flat:
            step = f * total / (pw * total)  # f / pw as the weighted mean rounds it
            bound = 0.0
        else:
            r *= pw  # the terms p T, weights of the mean and the gradient
            mean = float(np.einsum("i->", r)) / total
            var = float(np.einsum("i,i->", pw, r)) / total - mean * mean
            disc = mean * mean - 2 * var * f
            if disc >= 0:
                step = 2 * f / (mean + math.sqrt(disc))
                bound = (spread * abs(step)) ** 3 / 24
                low = -bound
            else:
                step = f / mean
                bound = (spread * step) ** 2 / 8
        lam *= math.exp(step)
        if bound <= 1e-13 * p_min and math.expm1(bound) <= TOL_MODULAR:
            res = LuxemburgNorm(lam, (lam * math.exp(low / p_min),
                                      lam * math.exp(bound / p_min)), evals)
            if not gradient:
                return res, None
            if flat:
                r *= lam / total
            else:
                # e^(-(pw - p_min) s): the common factor e^(-p_min s) cancels,
                # and (pw - p_min) |s| <= Dp |s|, (24 B)^(1/3) or (8 B)^(1/2)
                # by the step taken, cannot overflow
                np.subtract(pw, p_min, out=e)
                e *= -step
                r *= np.exp(e, out=e)
                r *= lam / float(r.sum())
            return res, r
        np.multiply(pw, step, out=r)
        e -= r
    raise RuntimeError(
        f"Luxemburg Newton solve did not converge: log-modular residual {f:.3e} "
        f"after {MAX_NEWTON_ITERS} evaluations")


def _log_sum_exp(e: np.ndarray, out: np.ndarray):
    """log sum exp(e) and sum exp(e - max e), with the latter's terms left in ``out``."""
    shift = float(e.max())
    np.subtract(e, shift, out=out)
    np.exp(out, out=out)
    total = float(out.sum())
    return shift + math.log(total), total


def _exponents(p: ExponentField, sel: np.ndarray):
    """p at the selected nodes: one float for a constant field, else the gather."""
    return p.p_minus if p.is_constant else p.values[sel]


def _gather(u, p: ExponentField):
    """Mask, samples (a copy), exponents and log-mass of the quadrature point set."""
    vals = _checked(u, p)
    sel = p.domain.inside & (vals != 0)
    return sel, vals[sel], _exponents(p, sel), float(np.log(p.domain.cell))


def luxemburg_norm(u, p: ExponentField) -> LuxemburgNorm:
    """Luxemburg norm of ``u`` in the variable-exponent space of ``p``."""
    _, a, pw, log_w = _gather(u, p)
    return _newton_norm(np.abs(a, out=a), pw, log_w, None)[0]


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
    return _newton_norm(np.abs(a, out=a), _exponents(p, sel), log_w, None)[0]


def norm_with_gradient(u, p: ExponentField, initial: float | None):
    """Luxemburg norm and its gradient with respect to the node samples.

    The gather and the solve are :func:`luxemburg_norm`'s, except that
    the core gets |u| in a buffer of its own, the signed gather is kept,
    and this entry alone asks the core for u_i dlam/du_i, which it forms
    in its scratch buffer after the certified exit (the value-only
    entries skip that step).  Divided by the gathered u_i and scattered
    to the grid, it is the gradient, 0 where u_i = 0.  Dividing by u_i,
    not multiplying by u_i / u_i^2, keeps it finite for samples whose
    square underflows.
    ``initial`` seeds the Newton start.  The gradient needs the one
    modular evaluation that a constant exponent makes from any start, and
    a variable one started at the norm itself.

    Returns ``(value, grad)`` with ``grad`` shaped like the grid.
    """
    sel, a, pw, log_w = _gather(u, p)
    res, terms = _newton_norm(np.abs(a), pw, log_w, initial, gradient=True)
    if not res.iterations:
        raise ValueError("gradient of the norm is undefined at u = 0")
    terms /= a
    grad = np.zeros(p.domain.shape)
    grad[sel] = terms
    return res.value, grad


@dataclass(frozen=True)
class RelationsReport:
    """Outcome of the modular--norm relation suite for one field."""

    norm: float
    mod: float               # exp(judged log rho(u)); inf or 0 past the float range
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
    """Verify the norm/modular relations for one nonzero field.

    u is read once, by the norms' gather.  Every relation reads
    log rho(s u), the core's log-sum-exp of the node terms log(w |u|^p)
    there shifted by p log s, so a modular past the float range or
    underflowing to 0 is judged like any other: s is 1/||u|| for
    ``unit_modular``, 1 for ``trichotomy`` and the bounds, and 2^k
    (k = -3..3) for the scalings, whose norms the core solves on the exact
    binade shifts 2^(k-m) |u|, 2^m bounding max |u|.  A power of two
    commutes with rounding, so ``norm``, 2^m times the k = 0 norm, is
    :func:`luxemburg_norm`'s bit for bit in the normal range.  Each
    relation keeps its slack ``RELATIONS_SLACK`` (10 times it for the
    trichotomy at ||u|| ~ 1), carried into logs with log1p.  ``norm`` and
    ``mod`` (exp of the judged log rho(u)) are inf past the float range.
    """
    _, a, pw, log_w = _gather(u, p)
    if not a.size:
        raise ValueError("relations are stated for u != 0 on the nodes carrying mass")
    np.abs(a, out=a)
    m = math.frexp(float(a.max()))[1]  # max |u| lies in [2^(m-1), 2^m)
    norms = [_newton_norm(np.ldexp(a, k - m), pw, log_w, None)[0].value for k in range(-3, 4)]
    log_nrm = math.log(norms[3]) + m * math.log(2.0)
    terms = np.log(a) * pw + log_w
    slack = RELATIONS_SLACK

    def log_modular(log_s: float) -> float:
        x = terms + log_s * pw
        return _log_sum_exp(x, x)[0]

    up, down = math.log1p(slack), math.log1p(-slack)
    unit_modular = down <= log_modular(-log_nrm) <= up
    log_mods = [log_modular(k * math.log(2.0)) for k in range(-3, 4)]  # s = 2^k
    log_mod = log_mods[3]
    with np.errstate(over="ignore"):  # inf past the float range
        nrm = float(np.ldexp(norms[3], m))
        mod = float(np.exp(log_mod))

    if nrm > 1 + slack:
        trichotomy = log_mod > down
    elif nrm < 1 - slack:
        trichotomy = log_mod < up
    else:
        trichotomy = abs(log_mod) <= -math.log1p(-10 * slack)

    # rho lies between ||u||^p- and ||u||^p+, whichever is the smaller
    low, high = sorted((p.p_minus * log_nrm, p.p_plus * log_nrm))
    between = low <= log_mod + up and log_mod <= high + up

    def rises(lo: int, hi: int) -> bool:  # both strictly, from k = lo - 3 to hi - 3
        return all(seq[i] < seq[i + 1] for seq in (norms, log_mods) for i in range(lo, hi))

    return RelationsReport(
        norm=nrm, mod=mod,
        unit_modular=unit_modular, trichotomy=trichotomy,
        bound_above_one=between or not nrm > 1 + slack,
        bound_below_one=between or not nrm < 1 - slack,
        scaling_to_zero=rises(0, 3), scaling_to_inf=rises(3, 6),
    )


@dataclass(frozen=True)
class HolderReport:
    lhs: float
    rhs: float
    constant: float
    satisfied: bool


def holder_check(f, g, p: ExponentField, q: ExponentField) -> HolderReport:
    """Check ||fg||_s <= ((s/p)+ + (s/q)+) ||f||_p ||g||_q with 1/s = 1/p + 1/q;
    the derived exponent field s rejects inf s <= 1, as every field does."""
    if p.domain != q.domain:
        raise ValueError("p and q live on different domains")
    dom = p.domain
    fv = _checked(f, p)
    gv = _checked(g, q)
    s = ExponentField(dom, lambda *xs: 1 / (1 / p.func(*xs) + 1 / q.func(*xs)))
    const = float(sum((s.values / r.values)[dom.inside].max() for r in (p, q)))
    lhs = luxemburg_norm(fv * gv, s).value
    rhs = const * luxemburg_norm(fv, p).value * luxemburg_norm(gv, q).value
    return HolderReport(
        lhs=lhs, rhs=rhs, constant=const,
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
