"""Rayleigh quotients and embedding-constant estimation.

The embedding constant S(p, q, Omega) is the infimum of the quotient
Q(v) = ||grad v||_p / ||v||_q over zero-trace candidates.  It is
estimated by projected descent on the constraint manifold ||v||_q = 1:
the gradient of each Luxemburg norm comes from implicit differentiation
of its modular equation, steps are backtracked so the quotient never
increases, the iterate is renormalized after every step, and several
fixed, seeded starts are run with the best result kept.

Descent directions come from L-BFGS over the free nodes with the
initial inverse Hessian H_0 = gamma A^-1, where A is the weighted discrete
Laplacian: an H^1-metric (Sobolev) gradient, because Euclidean descent
stalls on fine grids, where the stiffness of the gradient term scales
like 1/h^2.  gamma = s.y / (y.A^-1 y) comes from the newest curvature
pair; pairs join renormalized iterates, and one without positive
curvature is dropped.  When the L-BFGS direction does not descend the
memory is cleared and -A^-1 grad Q is taken, which descends wherever
grad Q is nonzero since A is symmetric positive definite.  Each
iteration makes one solve with A, for A^-1 grad Q: every pair keeps
A^-1 y as the difference of the A^-1 grad Q of its two ends, and A^-1
is linear, so gamma, the H_0 product and the fallback are combinations
of stored vectors.  The pairs are rows of S, Y and A^-1 Y beside the Gram
matrices S Y^T and Y (A^-1 Y)^T, so the two-loop recursion (Nocedal &
Wright, *Numerical Optimization*, Alg. 7.4) runs on one coefficient per
pair and the direction costs four matrix-vector products (the compact
form of Byrd, Nocedal & Schnabel, Math. Prog. 63, 1994, in the
vector-free layout of Chen, Wang & Zhou, NeurIPS 2014).  A is solved
exactly on every domain by one construction: the scaled Dirichlet
second-difference operator of the bounding box's inner nodes, which the
orthogonal sine basis diagonalizes (two dense products per axis), and on
a masked ball a capacitance correction on the ring of box nodes just
outside the ball, which makes the box solve exact on the ball's free
nodes.  The line search tries the unit step once the memory holds a pair
and only accepts improvements, so the recorded trace is non-increasing.

Every point the descent visits has its two norms solved once, with their
gradients: the start cold, each line-search trial from the current point's
norms.  The norms are 1-homogeneous, so the solves at a point w also
serve the iterate w / ||w||_q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .exponents import ExponentField, as_exponent_field
from .grid import (CELLS_PER_BALL, GridDomain, GridFunction, as_point, as_radii, ball,
                   densest_ball, gradient_adjoint, gradient_magnitude,
                   gradient_of_values, shift, squared_length)
from .luxemburg import luxemburg_norm, modular_density, norm_with_gradient

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
    "bump_family",
    "cos2_taper",
    "extrapolate_to_zero",
]

#: Relative slack of the domain-monotonicity checks: S(outer) <= S(inner)
#: and the shrinking-ball constants nondecreasing as the radius shrinks.
MONOTONE_SLACK = 0.02
#: Curvature pairs kept by the L-BFGS descent of each start.
LBFGS_MEMORY = 8
#: A later start replaces the best one only when lower by more than this
#: relative margin, so rounding-level differences never pick the start.
START_TIE = 1e-12
#: A start stalls after PATIENCE steps in a row that each lower Q by <= STALL_TOL relative.
STALL_TOL = 1e-7
PATIENCE = 10
#: The (cells, fraction) concentration guard of every ``localized_constant`` descent.
CONCENTRATION_GUARD = (3.0, 0.6)


def cos2_taper(rho, plateau: float):
    """1 up to ``plateau``, then cos^2 down to 0 at rho = 1 (C^1 there), 0 beyond."""
    rho = np.asarray(rho, dtype=float)
    out = np.zeros_like(rho)
    m = rho < 1.0
    out[m] = np.cos(0.5 * np.pi * np.maximum(rho[m] - plateau, 0.0)
                    / (1.0 - plateau)) ** 2
    return out


def bump(rho):
    """cos^2 bump on rho < 1: value 1 at the center, C^1 at the support edge."""
    return cos2_taper(rho, 0.0)


def extrapolate_to_zero(radii, values) -> float:
    """Value at radius 0 of the least-squares line through the last three
    (or fewer) points, which for two points is their secant; one point is
    its own value."""
    radii = np.asarray(radii, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.size == 1:
        return float(values[0])
    return float(np.polyfit(radii[-3:], values[-3:], 1)[1])


def rayleigh_quotient(v: GridFunction, p: ExponentField, q: ExponentField) -> float:
    """||grad v||_p / ||v||_q for a nonzero grid function."""
    if v.is_zero():
        raise ValueError("Rayleigh quotient is undefined at v = 0")
    if not (v.domain == p.domain == q.domain):
        raise ValueError("function and exponent fields live on different domains")
    return luxemburg_norm(gradient_magnitude(v), p).value / luxemburg_norm(v, q).value


def _quotient_and_gradient(w, p, q, f_hint, g_hint):
    """(Q(w), ||grad w||_p, ||w||_q) for samples ``w`` vanishing off the
    domain, solved from the hints (None: cold), and grad Q(w / ||w||_q),
    which 0-homogeneity makes grad ||grad w||_p - Q grad ||w||_q (None at w = 0)."""
    if not w.any():
        return math.inf, 0.0, 0.0, None
    g = gradient_of_values(w, q.domain)
    mag = np.sqrt(squared_length(g))
    num, d_mag = norm_with_gradient(mag, p, initial=f_hint)
    den, d_den = norm_with_gradient(w, q, initial=g_hint)
    # every p exceeds 1, so |grad w|^p is C^1 with gradient 0 where grad w = 0:
    # d_mag is 0 there, and any positive floor under mag keeps it 0
    d_mag /= np.maximum(mag, np.finfo(float).smallest_subnormal, out=mag)
    g *= d_mag
    grad = gradient_adjoint(g, q.domain)
    grad -= d_den * (num / den)
    return num / den, num, den, grad


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

    Every in-domain weight is the cell volume, so the matrix A_FF over
    the free nodes F is a principal submatrix of the Dirichlet Laplacian
    A_I = cell * (T_0 (+) T_1) of the inner box I, with T_k the second
    difference over the m_k = n_k - 2 inner nodes of axis k.  The
    symmetric orthogonal sine basis V_k diagonalizes T_k, which solves
    A_I exactly by dense products: x = V_0 ((V_0 B V_1) / Lambda) V_1.

    On intervals, rectangles and 1D balls F is all of I and that is the
    solve.  On a 2D masked ball the ring R (nodes of I outside F with an
    axis neighbour in F) is not empty, and the box solve is made exact on
    F by the capacitance matrix G = (A_I^-1)_RR (Buzbee, Dorr, George &
    Golub, 1971), which is SPD and formed once per domain.  With b
    extended by zero, y = A_I^-1 b and mu = -G^-1 y_R, the vector
    x = A_I^-1 (b + P_R mu) vanishes on R.  The rest of I outside F has
    no source and no neighbour in F, so x vanishes there too, and
    A_FF x_F = b exactly, at the cost of two box solves and one product
    with G^-1 per solve.  G is summed from blocks of sine modes, never
    from the whole |R| x |I| basis, which would cost tens of megabytes on
    the balls of a shrinking-ball run.
    """
    free = domain.interior.ravel()
    bases = [_sine_basis(n - 2, h) for n, h in zip(domain.shape, domain.h)]
    if domain.dim == 1:
        # an interval is a box of one column with no second-axis term
        bases.append((np.ones((1, 1)), np.zeros(1)))
    (v0, lam0), (v1, lam1) = bases
    diag = domain.cell * (lam0[:, None] + lam1[None, :])

    def box_solve(b):
        return (v0 @ ((v0 @ b.reshape(diag.shape) @ v1) / diag) @ v1).ravel()

    inner = domain.interior[(slice(1, -1),) * domain.dim].reshape(diag.shape)
    ring = np.zeros_like(inner)
    for k in range(2):
        ring |= shift(inner, k, -1) | shift(inner, k, 1)
    ring &= ~inner
    if not ring.any():
        return box_solve, free

    ri, rj = np.nonzero(ring)
    u0, u1 = v0[ri], v1[rj]
    root = np.sqrt(diag)
    g = np.zeros((ri.size, ri.size))
    # G = W W^T with W[r, (k, l)] = V_0[i_r, k] V_1[j_r, l] / sqrt(Lambda_kl),
    # summed over blocks of k so that each block of W holds ~2^18 entries
    step = max(1, 2**18 // (ri.size * diag.shape[1]))
    for k in range(0, diag.shape[0], step):
        w = (u0[:, k:k + step, None] * u1[:, None, :]
             / root[k:k + step]).reshape(ri.size, -1)
        g += w @ w.T
    g_inv = np.linalg.inv(g)
    inner, ring = inner.ravel(), ring.ravel()

    def solve(b):
        rhs = np.zeros(inner.size)
        rhs[inner] = b
        rhs[ring] = -g_inv @ box_solve(rhs)[ring]
        return box_solve(rhs)[inner]
    return solve, free


@dataclass(frozen=True)
class SobolevEstimate:
    """Best quotient found by the multi-start descent.

    ``iterations`` and ``stop_reasons`` hold one entry per start: the
    descent iterations it ran (one gradient and one direction each) and
    why it stopped, one of ``"max_iters"``, ``"stall"`` (``PATIENCE``
    iterations in a row that each lowered Q by at most ``STALL_TOL``
    relative), ``"line_search"`` (no step length decreased Q),
    ``"no_descent"`` (not even -A^-1 grad Q descends, or the start is
    zero on the free nodes) or ``"guard"`` (the concentration guard saw
    the iterate collapse to within a few cells; the value is then the
    quotient of the last resolved iterate, not the raw discrete infimum).
    ``value`` is ``rayleigh_quotient(minimizer, p, q)``; ``trace`` holds warm-started values.
    """

    value: float
    minimizer: GridFunction
    best_start: int
    trace: tuple[float, ...]
    start_values: tuple[float, ...]
    iterations: tuple[int, ...]
    stop_reasons: tuple[str, ...]


def bump_family(domain: GridDomain, specs) -> list[GridFunction]:
    """Zero-trace ``bump``s, one per (shift, radius) pair: centered ``shift``
    half-widths of the bounding box off the domain center along every
    axis, of radius ``radius`` least half-widths."""
    half = [0.5 * (b - a) for a, b in zip(domain.lo, domain.hi)]
    return [GridFunction.radial(domain, bump,
                                tuple(c + shift * hw for c, hw in zip(domain.center, half)),
                                radius * min(half))
            for shift, radius in specs]


def _start_fields(domain: GridDomain, n_starts: int, rng: np.random.Generator):
    """Fixed start family: centered bump, off-center bump, smoothed noise
    under the widest centered bump."""
    *out, envelope = bump_family(domain, [(0.0, 0.85), (0.35, 0.5), (0.0, 1.0)])
    while len(out) < n_starts:
        noise = rng.standard_normal(domain.shape)
        for _ in range(4):
            noise = _neighbor_average(noise)
        out.append(GridFunction(domain, noise * envelope.values, dirichlet=True))
    return out[:n_starts]


def _neighbor_average(a: np.ndarray) -> np.ndarray:
    out = a.copy()
    cnt = np.ones_like(a)
    for k in range(a.ndim):
        for step in (-1, 1):
            out += shift(a, k, step)
            cnt += shift(np.ones_like(a), k, step)
    return out / cnt


def minimize_sobolev(p, q, domain: GridDomain | None = None, *,
                     starts: int = 3, max_iters: int = 250, seed: int = 0,
                     concentration_guard: tuple[float, float] | None = None,
                     ) -> SobolevEstimate:
    """Estimate S(p, q, Omega) by constrained multi-start descent.

    Every step takes the two-loop L-BFGS direction with the initial
    inverse Hessian gamma A^-1, and -A^-1 grad Q with a cleared memory
    where that one does not descend, then a line search that accepts only
    decreases of Q.  A start stops when neither direction descends.  The
    best start is the earliest whose value no later one undercuts by more
    than ``START_TIE`` relative.

    Parameters
    ----------
    p, q : ExponentField, callable, or float
        Exponent data; callables/floats are sampled on ``domain``.
    domain : GridDomain, optional
        Required when p or q are not already fields.
    concentration_guard : (cells, fraction), optional
        Stop a start once the fraction of its q-modular mass within
        ``cells`` grid cells of the densest node reaches ``fraction``.
        On critical configurations the discrete problem admits sub-grid
        spikes whose quotient sits an O(1) factor below the continuum
        constant (the forward-difference stencil is non-conforming), so
        estimates meant to track the continuum limit should not descend
        past the resolvable-profile plateau.  Off by default; ``cells``
        must be positive and ``fraction`` in (0, 1].
    """
    if domain is None:
        if not isinstance(p, ExponentField):
            raise ValueError("domain is required when p is not an ExponentField")
        domain = p.domain
    p = as_exponent_field(p, domain)
    q = as_exponent_field(q, domain)
    for key, value, least in [("starts", starts, 1), ("max_iters", max_iters, 0)]:
        if not least <= value < math.inf:
            raise ValueError(f"{key!r} must be finite and at least {least}, got {value}")
    if concentration_guard is not None:
        cells, fraction = concentration_guard
        if not (cells > 0 and 0 < fraction <= 1):
            raise ValueError("'concentration_guard' needs cells > 0 and a fraction "
                             f"in (0, 1], got {concentration_guard!r}")

    rng = np.random.default_rng(seed)
    best = None
    start_values, iterations, stop_reasons = [], [], []
    for idx, v0 in enumerate(_start_fields(domain, starts, rng)):
        value, vals, trace, iters, reason = _descend(
            v0.values, p, q, domain, max_iters, concentration_guard)
        start_values.append(value)
        iterations.append(iters)
        stop_reasons.append(reason)
        if best is None or value < best[0] * (1.0 - START_TIE):
            best = (value, GridFunction(domain, vals), trace, idx)

    if best is None or not math.isfinite(best[0]):
        raise RuntimeError("all descent starts failed")
    _, minimizer, trace, idx = best
    return SobolevEstimate(
        value=rayleigh_quotient(minimizer, p, q),
        minimizer=minimizer,
        best_start=idx,
        trace=tuple(trace),
        start_values=tuple(start_values),
        iterations=tuple(iterations),
        stop_reasons=tuple(stop_reasons),
    )


def _mass_near_peak(vals, q, cells):
    """Fraction of the q-modular mass within ``cells`` cells of the densest node."""
    dens = modular_density(vals, q)
    total = float(dens.sum())
    if total <= 0:
        return 0.0
    return densest_ball(dens, q.domain, cells)[2] / total


class _Pairs:
    """The newest ``LBFGS_MEMORY`` curvature pairs (s, y, A^-1 y) as rows of
    ``s``, ``y`` and ``hy``, with the Gram matrices ``sy[i, j] = s_i.y_j``
    and ``yhy[i, j] = y_i.A^-1 y_j``.  The rows are a ring: slots [0, live)
    are in use, the oldest at ``head``, so the products run on contiguous
    row slices and only the coefficient loops follow the age order."""

    def __init__(self, n):
        self.s, self.y, self.hy = (np.empty((LBFGS_MEMORY, n)) for _ in range(3))
        self.sy, self.yhy = np.empty((2, LBFGS_MEMORY, LBFGS_MEMORY))
        self.live = self.head = 0

    def clear(self):
        self.live = self.head = 0

    def push(self, s, y, h_y):
        """Keep (s, y, A^-1 y) in place of the oldest pair if s.y > 0."""
        if not float(s @ y) > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
            return
        if self.live < LBFGS_MEMORY:
            k, self.live = self.live, self.live + 1
        else:
            k, self.head = self.head, (self.head + 1) % LBFGS_MEMORY
        self.s[k], self.y[k], self.hy[k] = s, y, h_y
        n = self.live
        self.sy[k, :n], self.sy[:n, k] = self.y[:n] @ s, self.s[:n] @ y
        self.yhy[k, :n] = self.yhy[:n, k] = self.y[:n] @ h_y   # A^-1 is symmetric

    def direction(self, grad, h_grad):
        """-H grad, H_0 = gamma A^-1 with the newest pair's gamma, by the
        two-loop recursion on coefficients; ``h_grad`` is A^-1 grad.  The
        first loop leaves A^-1 (grad - Y^T alpha) = h_grad - (A^-1 Y)^T alpha,
        the second adds S^T c."""
        n = self.live
        order = [(self.head + i) % LBFGS_MEMORY for i in range(n)]
        sy, yhy = self.sy[:n, :n], self.yhy[:n, :n]
        rho = 1.0 / np.diagonal(sy)
        gamma = sy[order[-1], order[-1]] / yhy[order[-1], order[-1]]
        s_grad = self.s[:n] @ grad
        alpha, c = np.zeros(n), np.zeros(n)
        for i in reversed(order):
            alpha[i] = rho[i] * (s_grad[i] - sy[i] @ alpha)
        y_h = gamma * (self.y[:n] @ h_grad - yhy @ alpha)
        for i in order:
            c[i] = alpha[i] - rho[i] * (y_h[i] + c @ sy[:, i])
        return gamma * (alpha @ self.hy[:n] - h_grad) - c @ self.s[:n]


def _descend(vals, p, q, domain, max_iters, guard):
    """One start's L-BFGS descent along the gradient of Q, the owner of
    every stop reason (a zero start is ``"no_descent"``); returns
    (Q, iterate, trace, iterations, stop reason)."""
    # both norms are homogeneous, so one cold solve of each serves the scaled start
    q_cur, num, nq, grad = _quotient_and_gradient(vals, p, q, None, None)
    if grad is None:
        return math.inf, vals, [math.inf], 0, "no_descent"
    vals, lam_f_hint = vals / nq, num / nq
    trace = [q_cur]
    solve, free = _stiffness_solve(domain)
    grad = grad.ravel()[free]
    pairs = _Pairs(grad.size)
    x_prev = g_prev = h_prev = t_prev = None
    stall_count = 0
    reason = "max_iters"
    iters = 0

    for iters in range(1, max_iters + 1):
        h_grad = solve(grad)
        # both points of a pair lie on ||v||_q = 1, so no pair needs rescaling
        x = vals.ravel()[free]
        if x_prev is not None:
            pairs.push(x - x_prev, grad - g_prev, h_grad - h_prev)
        x_prev, g_prev, h_prev = x, grad, h_grad

        d = pairs.direction(grad, h_grad) if pairs.live else -h_grad
        m = float(grad @ d)
        if not m < 0 and pairs.live:
            pairs.clear()
            d = -h_grad
            m = float(grad @ d)
        if not m < 0:
            reason = "no_descent"
            break
        direction = np.zeros(domain.shape)
        direction[domain.interior] = d

        if pairs.live:
            t = 1.0
        else:
            ratio = float(np.linalg.norm(vals)) / float(np.linalg.norm(d))
            t = 0.5 * ratio if t_prev is None else min(2.0 * t_prev, 4.0 * ratio)

        for _ in range(40):
            w = vals + t * direction
            q_new, f_h, g_h, grad_w = _quotient_and_gradient(w, p, q, lam_f_hint, 1.0)
            if q_new <= q_cur + 1e-4 * t * m:
                break
            t *= 0.5
        else:
            reason = "line_search"
            break

        new_vals = w / g_h
        if guard is not None and _mass_near_peak(new_vals, q, guard[0]) >= guard[1]:
            reason = "guard"
            break
        vals, grad = new_vals, grad_w.ravel()[free]
        lam_f_hint = f_h / g_h
        improvement = q_cur - q_new
        q_cur = q_new
        trace.append(q_cur)
        t_prev = t
        if improvement <= STALL_TOL * max(1.0, abs(q_cur)):
            stall_count += 1
            if stall_count >= PATIENCE:
                reason = "stall"
                break
        else:
            stall_count = 0

    return q_cur, vals, trace, iters, reason


def talenti_constant(n: int, r: float) -> float:
    """Sharp constant of the constant-exponent Sobolev inequality on R^N.

    Returns the infimum of ||grad v||_r / ||v||_{r*} over smooth
    compactly supported v, via the closed form of the extremal value.
    The gamma ratio is taken through ``lgamma``: Gamma(N) alone
    overflows a float from N = 172 on.
    """
    if not 1.0 < r < n:
        raise ValueError(f"need 1 < r < N, got r={r}, N={n}")
    lg = math.lgamma
    k = (
        math.pi ** -0.5
        * n ** (-1.0 / r)
        * ((r - 1.0) / (n - r)) ** (1.0 - 1.0 / r)
        * math.exp((lg(1 + n / 2) + lg(n) - lg(n / r) - lg(1 + n - n / r)) / n)
    )
    return 1.0 / k


class TalentiInfimum(NamedTuple):
    value: float
    argmin: float


def inf_talenti_over_range(n: int, r_lo: float, r_hi: float) -> TalentiInfimum:
    """Minimum of the sharp constant over r in [r_lo, r_hi].

    As a function of r the sharp constant rises and then falls on
    (1, N): its slope changes sign at most once, from + to -.  So no
    interior point is ever a minimum, and the least value sits at one
    end of the range (at ``r_lo`` on a tie).
    """
    if not (1.0 < r_lo <= r_hi < n):
        raise ValueError(f"need 1 < r_lo <= r_hi < N, got [{r_lo}, {r_hi}], N={n}")
    lo, hi = talenti_constant(n, r_lo), talenti_constant(n, r_hi)
    return TalentiInfimum(lo, float(r_lo)) if lo <= hi else TalentiInfimum(hi, float(r_hi))


@dataclass(frozen=True)
class LocalizedConstant:
    """Embedding constants on shrinking balls around a point."""

    center: tuple[float, ...]
    radii: tuple[float, ...]
    values: tuple[float, ...]
    extrapolated: float
    monotone: bool


def localized_constant(x0, p: ExponentField, q: ExponentField, radii, *,
                       cells_per_diameter: int = 96, seed: int = 0,
                       **opts) -> LocalizedConstant:
    """Estimate S on balls B_eps(x0) for a strictly decreasing list of radii.

    Every ball gets its own grid at ``cells_per_diameter`` cells across
    (96 by default), so shrinking the radius does not lose resolution.  The
    radius -> constant map is nondecreasing as the radius shrinks (domain
    monotonicity); ``monotone`` records whether the estimates respect
    that within ``MONOTONE_SLACK`` relative.  The extrapolated value is
    the intercept of a linear fit in eps over the three smallest radii.

    The shrinking-ball limit is a continuum quantity, so every per-ball
    minimization runs with the concentration guard ``CONCENTRATION_GUARD``:
    on critical configurations the raw discrete infimum is a sub-grid
    spike value, not an estimate of the limit.
    """
    radii = as_radii(radii, "radii")
    if cells_per_diameter < CELLS_PER_BALL:
        raise ValueError(f"'cells_per_diameter' must be at least {CELLS_PER_BALL}, "
                         f"got {cells_per_diameter!r}: the sub-grid is too coarse")
    ambient = p.domain
    if not ambient.resolves(radii[-1]):
        raise ValueError("smallest ball is under-resolved on the ambient grid")
    x0 = as_point(x0, ambient.dim)

    values = []
    for k, eps in enumerate(radii):
        sub = ball(x0, eps, cells_per_diameter)
        if not ambient.contains(sub):
            raise ValueError(f"ball of radius {eps} at {x0} exits the domain")
        values.append(minimize_sobolev(p.restrict(sub), q.restrict(sub), seed=seed + k,
                                       concentration_guard=CONCENTRATION_GUARD,
                                       **opts).value)

    extrapolated = extrapolate_to_zero(radii, values)
    monotone = all(
        later >= earlier * (1.0 - MONOTONE_SLACK)
        for earlier, later in zip(values, values[1:])
    )
    return LocalizedConstant(
        center=x0, radii=tuple(radii), values=tuple(values),
        extrapolated=extrapolated, monotone=monotone,
    )


@dataclass(frozen=True)
class MonotonicityReport:
    s_outer: float
    s_inner: float
    satisfied: bool


def domain_monotonicity_check(p, q, outer: GridDomain, inner: GridDomain,
                              **opts) -> MonotonicityReport:
    """Check S(outer) <= S(inner) within ``MONOTONE_SLACK`` relative.

    ``inner`` must be geometrically contained in ``outer``; the two
    constants are estimated independently on their own grids.
    """
    if not outer.contains(inner):
        raise ValueError("inner domain is not contained in the outer domain")
    s_outer = minimize_sobolev(p, q, outer, **opts).value
    s_inner = minimize_sobolev(p, q, inner, **opts).value
    return MonotonicityReport(
        s_outer=s_outer,
        s_inner=s_inner,
        satisfied=s_outer <= s_inner * (1.0 + MONOTONE_SLACK) + 1e-12,
    )
