"""Rayleigh quotients and embedding-constant estimation.

The embedding constant S(p, q, Omega) is the infimum of the quotient
Q(v) = ||grad v||_p / ||v||_q over zero-trace candidates.  It is
estimated by projected descent on the constraint manifold ||v||_q = 1:
the gradient of each Luxemburg norm comes from implicit differentiation
of its modular equation, steps are backtracked so the quotient never
increases, the iterate is renormalized after every step, and several
fixed, seeded starts are run with the best result kept.

Descent directions are preconditioned by the weighted discrete
Laplacian (an H^1-metric gradient) by default; plain Euclidean descent
stalls on fine grids because the stiffness of the gradient term scales
like 1/h^2.  On intervals and rectangles that Laplacian is the scaled
Dirichlet second-difference operator, which the orthogonal sine basis
diagonalizes, so it is solved exactly by two dense products per axis;
masked balls use a sparse LU under a minimum-degree ordering.  Both step
rules only ever accept improvements, so the recorded trace is
non-increasing either way.

Each descent iteration reuses the two norms of the point accepted by the
previous line search as Newton starts, so its norm-gradient solves make
a single modular evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.optimize import minimize_scalar

from .exponents import ExponentField, as_exponent_field
from .grid import (GridDomain, GridFunction, ball, gradient_adjoint,
                   gradient_magnitude, gradient_of_values, squared_length)
from .luxemburg import luxemburg_norm, norm_with_gradient

__all__ = [
    "SobolevEstimate",
    "LocalizedConstant",
    "MonotonicityReport",
    "TalentiInfimum",
    "rayleigh_quotient",
    "minimize_sobolev",
    "talenti_constant",
    "inf_talenti_over_range",
    "localized_constant",
    "domain_monotonicity_check",
    "bump",
    "extrapolate_to_zero",
]


def bump(rho):
    """cos^2 bump on rho < 1: value 1 at the center, C^1 at the support edge."""
    rho = np.asarray(rho, dtype=float)
    out = np.zeros_like(rho)
    m = rho < 1.0
    out[m] = np.cos(0.5 * np.pi * rho[m]) ** 2
    return out


def extrapolate_to_zero(radii, values) -> float:
    """Value at radius 0 of the line through the last (up to three) points.

    Three or more points: intercept of the least-squares line through the
    last three; two: the secant; one: the value itself.
    """
    radii = np.asarray(radii, dtype=float)
    values = np.asarray(values, dtype=float)
    if radii.size >= 3:
        _, intercept = np.polyfit(radii[-3:], values[-3:], 1)
        return float(intercept)
    if radii.size == 2:
        slope = (values[1] - values[0]) / (radii[1] - radii[0])
        return float(values[1] - slope * radii[1])
    return float(values[0])


def rayleigh_quotient(v: GridFunction, p: ExponentField, q: ExponentField) -> float:
    """||grad v||_p / ||v||_q for a nonzero grid function."""
    if v.is_zero():
        raise ValueError("Rayleigh quotient is undefined at v = 0")
    if not (v.domain == p.domain == q.domain):
        raise ValueError("function and exponent fields live on different domains")
    num = luxemburg_norm(gradient_magnitude(v), p).value
    den = luxemburg_norm(v, q).value
    return num / den


def _stiffness_matrix(domain: GridDomain):
    """Weighted stiffness matrix sum_k D_k^T W D_k on the free (interior) dofs.

    Returns the CSC matrix and the flat mask of free nodes.
    """
    n = int(np.prod(domain.shape))
    w = domain.weights.ravel()
    blocks = []
    for k in range(domain.dim):
        h = domain.h[k]
        keep = np.ones(domain.shape, dtype=bool)
        last = [slice(None)] * domain.dim
        last[k] = -1
        keep[tuple(last)] = False
        keep = keep.ravel()
        stride = int(np.prod(domain.shape[k + 1:]))
        rows = np.arange(n)
        data = [(-1.0 / h) * np.ones(n)]
        cols = [rows]
        rows_off = rows[keep]
        data.append((1.0 / h) * np.ones(rows_off.size))
        cols.append(rows_off + stride)
        d = sp.coo_matrix(
            (np.concatenate(data), (np.concatenate([rows, rows_off]), np.concatenate(cols))),
            shape=(n, n),
        ).tocsr()
        blocks.append(d)
    a = sum(d.T @ sp.diags(w) @ d for d in blocks)
    free = domain.interior.ravel()
    return a[free][:, free].tocsc(), free


def _sine_basis(m: int, h: float):
    """Orthonormal DST-I matrix of size m and the eigenvalues of
    tridiag(-1, 2, -1) / h^2 in that basis."""
    j = np.arange(1, m + 1)
    v = math.sqrt(2.0 / (m + 1)) * np.sin(np.pi * np.outer(j, j) / (m + 1))
    lam = (2.0 * np.sin(0.5 * np.pi * j / (m + 1)) / h) ** 2
    return v, lam


@lru_cache(maxsize=64)
def _stiffness_solve(domain: GridDomain):
    """Solver for the weighted stiffness matrix on the free (interior) dofs.

    Returns ``(solve, free)``: ``solve`` maps a right-hand side over the
    free nodes (in flat order) to the solution, ``free`` is the flat mask
    of free nodes.

    On an interval or rectangle every weight is the cell volume and the
    free nodes form the full inner box, so the matrix is
    cell * (T_0 (+) T_1) with T_k the Dirichlet second difference over
    the m_k = n_k - 2 inner nodes of axis k.  The symmetric orthogonal
    sine basis V_k diagonalizes T_k, which gives the exact solve
    x = V_0 ((V_0 B V_1) / Lambda) V_1 by dense products.  A masked ball
    has no such structure; its matrix is symmetric positive definite, so
    it is factorized by SuperLU under a minimum-degree ordering of
    A^T + A without pivoting.
    """
    if domain.kind == "ball":
        a_ff, free = _stiffness_matrix(domain)
        lu = spla.splu(a_ff, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
        return lu.solve, free

    free = domain.interior.ravel()
    cell = float(np.prod(domain.h))
    bases = [_sine_basis(n - 2, h) for n, h in zip(domain.shape, domain.h)]
    if domain.dim == 1:
        # an interval is a box of one column with no second-axis term
        bases.append((np.ones((1, 1)), np.zeros(1)))
    (v0, lam0), (v1, lam1) = bases
    diag = cell * (lam0[:, None] + lam1[None, :])

    def solve(b):
        return (v0 @ ((v0 @ b.reshape(diag.shape) @ v1) / diag) @ v1).ravel()
    return solve, free


@dataclass(frozen=True)
class SobolevEstimate:
    """Best quotient found by the multi-start descent.

    ``concentrated`` reports that the best start was stopped by the
    concentration guard (its iterate collapsed to within a few cells),
    in which case the value is the quotient of the last resolved
    iterate rather than of the raw discrete infimum.
    """

    value: float
    minimizer: GridFunction
    starts: int
    best_start: int
    trace: tuple[float, ...]
    start_values: tuple[float, ...]
    concentrated: bool = False

    def __float__(self):
        return self.value


def _start_fields(domain: GridDomain, n_starts: int, rng: np.random.Generator):
    """Fixed start family: centered bump, off-center bump, smoothed noise."""
    half = [0.5 * (b - a) for a, b in zip(domain._lo, domain._hi)]
    r0 = min(half)
    center = domain.center
    out = []
    rho = domain.distance_from(center)
    out.append(bump(rho / (0.85 * r0)))
    off = tuple(c + 0.35 * hw for c, hw in zip(center, half))
    rho_off = domain.distance_from(off)
    out.append(bump(rho_off / (0.5 * r0)))
    while len(out) < n_starts:
        noise = rng.standard_normal(domain.shape)
        for _ in range(4):
            noise = _neighbor_average(noise)
        out.append(noise * bump(rho / r0))
    return out[:n_starts]


def _neighbor_average(a: np.ndarray) -> np.ndarray:
    out = a.copy()
    cnt = np.ones_like(a)
    for k in range(a.ndim):
        lead = [slice(None)] * a.ndim
        lag = [slice(None)] * a.ndim
        lead[k] = slice(1, None)
        lag[k] = slice(None, -1)
        out[tuple(lead)] += a[tuple(lag)]
        out[tuple(lag)] += a[tuple(lead)]
        cnt[tuple(lead)] += 1
        cnt[tuple(lag)] += 1
    return out / cnt


def minimize_sobolev(p, q, domain: GridDomain | None = None, *,
                     starts: int = 3, max_iters: int = 250,
                     step_rule: str = "preconditioned",
                     tol_opt: float = 1e-7, patience: int = 10,
                     seed: int = 0, smoothing: float = 1e-8,
                     concentration_guard: tuple[float, float] | None = None,
                     ) -> SobolevEstimate:
    """Estimate S(p, q, Omega) by constrained multi-start descent.

    Parameters
    ----------
    p, q : ExponentField, callable, or float
        Exponent data; callables/floats are sampled on ``domain``.
    domain : GridDomain, optional
        Required when p or q are not already fields.
    step_rule : {"preconditioned", "plain"}
        Descent metric; both use a backtracking line search and accept
        only quotient decreases.
    concentration_guard : (cells, fraction), optional
        Stop a start once the fraction of its q-modular mass within
        ``cells`` grid cells of the densest node reaches ``fraction``.
        On critical configurations the discrete problem admits sub-grid
        spikes whose quotient sits an O(1) factor below the continuum
        constant (the forward-difference stencil is non-conforming), so
        estimates meant to track the continuum limit should not descend
        past the resolvable-profile plateau.  Off by default.
    """
    if domain is None:
        if not isinstance(p, ExponentField):
            raise ValueError("domain is required when p is not an ExponentField")
        domain = p.domain
    p = as_exponent_field(p, domain)
    q = as_exponent_field(q, domain)
    if step_rule not in ("preconditioned", "plain"):
        raise ValueError(f"unknown step rule {step_rule!r}")
    if starts < 1:
        raise ValueError(f"starts must be at least 1, got {starts}")

    rng = np.random.default_rng(seed)
    best = None
    start_values = []
    for idx, raw in enumerate(_start_fields(domain, starts, rng)):
        v0 = GridFunction(domain, raw, dirichlet=True)
        if v0.is_zero():
            start_values.append(math.inf)
            continue
        value, vals, trace, conc = _descend(v0.values, p, q, domain, step_rule,
                                            max_iters, tol_opt, patience, smoothing,
                                            concentration_guard)
        start_values.append(value)
        if best is None or value < best[0]:
            best = (value, vals, trace, idx, conc)

    if best is None or not math.isfinite(best[0]):
        raise RuntimeError("all descent starts failed")
    value, vals, trace, idx, conc = best
    return SobolevEstimate(
        value=value,
        minimizer=GridFunction(domain, vals),
        starts=starts,
        best_start=idx,
        trace=tuple(trace),
        start_values=tuple(start_values),
        concentrated=conc,
    )


def _mass_near_peak(vals, q, cells):
    """Fraction of the q-modular mass within ``cells`` cells of the densest node."""
    dom = q.domain
    dens = dom.weights * np.abs(vals) ** q.values
    total = float(dens.sum())
    if total <= 0:
        return 0.0
    idx = np.unravel_index(int(np.argmax(dens)), vals.shape)
    center = tuple(ax[i] for ax, i in zip(dom.axes, idx))
    near = dom.distance_from(center) <= cells * max(dom.h)
    return float(dens[near].sum()) / total


def _descend(vals, p, q, domain, step_rule, max_iters, tol_opt, patience, smoothing,
             guard=None):
    free = domain.interior
    nq = luxemburg_norm(vals, q).value
    vals = vals / nq

    def quotient(w, f_hint=None, g_hint=None):
        den = luxemburg_norm(w, q, initial=g_hint)
        if den.value == 0.0:
            return math.inf, 0.0, 0.0
        mag = np.sqrt(squared_length(gradient_of_values(w, domain)))
        num = luxemburg_norm(mag, p, initial=f_hint)
        return num.value / den.value, num.value, den.value

    q_cur, lam_f_hint, lam_g_hint = quotient(vals)
    trace = [q_cur]
    solve = None
    if step_rule == "preconditioned":
        solve, free_flat = _stiffness_solve(domain)
    t_prev = None
    stall_count = 0
    concentrated = False

    for _ in range(max_iters):
        g = gradient_of_values(vals, domain)
        mag = np.sqrt(squared_length(g) + smoothing * smoothing)
        lam_f, d_mag = norm_with_gradient(mag, p, initial=lam_f_hint)
        z = d_mag[..., None] * g / mag[..., None]
        grad_f = gradient_adjoint(z, domain)
        lam_g, grad_g = norm_with_gradient(vals, q, initial=lam_g_hint)
        grad_q = grad_f / lam_g - (lam_f / lam_g**2) * grad_g
        grad_q = np.where(free, grad_q, 0.0)

        if step_rule == "preconditioned":
            rhs = grad_q.ravel()[free_flat]
            d_free = solve(rhs)
            direction = np.zeros(vals.size)
            direction[free_flat] = -d_free
            direction = direction.reshape(domain.shape)
        else:
            direction = -grad_q

        m = float(np.sum(grad_q * direction))
        if not m < 0:
            direction = -grad_q
            m = float(np.sum(grad_q * direction))
            if not m < 0:
                break

        vnorm = float(np.linalg.norm(vals))
        dnorm = float(np.linalg.norm(direction))
        if dnorm == 0.0:
            break
        t0 = 0.5 * vnorm / dnorm if t_prev is None else min(2.0 * t_prev, 4.0 * vnorm / dnorm)

        accepted = False
        t = t0
        for _ in range(40):
            w = vals + t * direction
            q_new, f_h, g_h = quotient(w, lam_f_hint, lam_g_hint)
            if q_new <= q_cur + 1e-4 * t * m:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break

        new_vals = w / g_h
        if guard is not None and _mass_near_peak(new_vals, q, guard[0]) >= guard[1]:
            concentrated = True
            break
        vals = new_vals
        lam_f_hint, lam_g_hint = f_h / g_h, 1.0
        improvement = q_cur - q_new
        q_cur = q_new
        trace.append(q_cur)
        t_prev = t
        if improvement <= tol_opt * max(1.0, abs(q_cur)):
            stall_count += 1
            if stall_count >= patience:
                break
        else:
            stall_count = 0

    return q_cur, vals, trace, concentrated


def talenti_constant(n: int, r: float) -> float:
    """Sharp constant of the constant-exponent Sobolev inequality on R^N.

    Returns the infimum of ||grad v||_r / ||v||_{r*} over smooth
    compactly supported v, via the closed form of the extremal value.
    """
    if not 1.0 < r < n:
        raise ValueError(f"need 1 < r < N, got r={r}, N={n}")
    g = math.gamma
    k = (
        math.pi ** -0.5
        * n ** (-1.0 / r)
        * ((r - 1.0) / (n - r)) ** (1.0 - 1.0 / r)
        * (g(1 + n / 2) * g(n) / (g(n / r) * g(1 + n - n / r))) ** (1.0 / n)
    )
    return 1.0 / k


class TalentiInfimum(NamedTuple):
    value: float
    argmin: float


def inf_talenti_over_range(n: int, r_lo: float, r_hi: float,
                           samples: int = 513) -> TalentiInfimum:
    """Minimum of the sharp constant over r in [r_lo, r_hi]."""
    if not (1.0 < r_lo <= r_hi < n):
        raise ValueError(f"need 1 < r_lo <= r_hi < N, got [{r_lo}, {r_hi}], N={n}")
    if r_lo == r_hi:
        return TalentiInfimum(talenti_constant(n, r_lo), r_lo)
    grid = np.linspace(r_lo, r_hi, samples)
    vals = np.array([talenti_constant(n, r) for r in grid])
    i = int(np.argmin(vals))
    if i in (0, samples - 1):
        return TalentiInfimum(float(vals[i]), float(grid[i]))
    res = minimize_scalar(
        lambda r: talenti_constant(n, r),
        bounds=(grid[i - 1], grid[i + 1]),
        method="bounded",
        options={"xatol": 1e-12},
    )
    if res.fun <= vals[i]:
        return TalentiInfimum(float(res.fun), float(res.x))
    return TalentiInfimum(float(vals[i]), float(grid[i]))


@dataclass(frozen=True)
class LocalizedConstant:
    """Embedding constants on shrinking balls around a point."""

    center: tuple[float, ...]
    radii: tuple[float, ...]
    values: tuple[float, ...]
    extrapolated: float
    monotone: bool
    estimates: tuple[SobolevEstimate, ...]


def localized_constant(x0, p: ExponentField, q: ExponentField, radii, *,
                       cells_per_diameter: int = 128,
                       monotone_slack: float = 0.02,
                       concentration_guard: tuple[float, float] | None = (3.0, 0.6),
                       seed: int = 0, **opts) -> LocalizedConstant:
    """Estimate S on balls B_eps(x0) for a decreasing list of radii.

    Every ball gets its own grid at a fixed cell count per diameter, so
    shrinking the radius does not lose effective resolution.  The radius
    -> constant map is nondecreasing as the radius shrinks (domain
    monotonicity); ``monotone`` records whether the estimates respect
    that within ``monotone_slack`` relative.  The extrapolated value is
    the intercept of a linear fit in eps over the three smallest radii.

    The shrinking-ball limit is a continuum quantity, so the per-ball
    minimizations run with the concentration guard on by default: on
    critical configurations the raw discrete infimum is a sub-grid spike
    value, not an estimate of the limit.
    """
    radii = [float(r) for r in radii]
    if len(radii) == 0:
        raise ValueError("radii list is empty")
    if any(b >= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly decreasing")
    if cells_per_diameter < 8:
        raise ValueError("sub-grid too coarse: need >= 8 cells per diameter")
    ambient = p.domain
    if 2.0 * radii[-1] < 8.0 * max(ambient.h):
        raise ValueError("smallest ball is under-resolved on the ambient grid")
    x0 = (float(x0),) if np.isscalar(x0) else tuple(float(c) for c in x0)

    values = []
    estimates = []
    for k, eps in enumerate(radii):
        sub = ball(x0 if ambient.dim == 2 else x0[0], eps, cells_per_diameter)
        if not ambient.contains(sub):
            raise ValueError(f"ball of radius {eps} at {x0} exits the domain")
        est = minimize_sobolev(p.restrict(sub), q.restrict(sub), seed=seed + k,
                               concentration_guard=concentration_guard, **opts)
        values.append(est.value)
        estimates.append(est)

    extrapolated = extrapolate_to_zero(radii, values)
    monotone = all(
        later >= earlier * (1.0 - monotone_slack)
        for earlier, later in zip(values, values[1:])
    )
    return LocalizedConstant(
        center=x0, radii=tuple(radii), values=tuple(values),
        extrapolated=extrapolated, monotone=monotone, estimates=tuple(estimates),
    )


@dataclass(frozen=True)
class MonotonicityReport:
    s_outer: float
    s_inner: float
    satisfied: bool
    rel_tol: float


def domain_monotonicity_check(p, q, outer: GridDomain, inner: GridDomain, *,
                              rel_tol: float = 0.02, seed: int = 0,
                              **opts) -> MonotonicityReport:
    """Check S(outer) <= S(inner) within a combined tolerance.

    ``inner`` must be geometrically contained in ``outer``; the two
    constants are estimated independently on their own grids.
    """
    if not outer.contains(inner):
        raise ValueError("inner domain is not contained in the outer domain")
    p_out = as_exponent_field(p, outer)
    q_out = as_exponent_field(q, outer)
    s_outer = minimize_sobolev(p_out, q_out, seed=seed, **opts).value
    s_inner = minimize_sobolev(p_out.restrict(inner), q_out.restrict(inner),
                               seed=seed, **opts).value
    return MonotonicityReport(
        s_outer=s_outer,
        s_inner=s_inner,
        satisfied=s_outer <= s_inner * (1.0 + rel_tol) + 1e-12,
        rel_tol=rel_tol,
    )
