"""Independent oracles for the test suite.

Everything here recomputes expected values through a different route
than the library: plain quadrature formulas, scipy root finding and
integration, sparse matrix assembly, Monte Carlo sampling, brute-force
pair scans.  Tests freeze or compare against these, never against the
code paths they check.
"""

import math

import numpy as np
import scipy.sparse as sp
from scipy.integrate import quad
from scipy.optimize import brentq

from conftest import quadrature_masses


def monte_carlo_disk_area(radius: float, n: int = 200_000, seed: int = 1234) -> float:
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-radius, radius, size=(n, 2))
    frac = np.mean(np.sum(pts * pts, axis=1) < radius * radius)
    return 4.0 * radius * radius * float(frac)


def scalar_norm_root(u_of_x, p_of_x, n: int = 10_000, lo: float = 1e-6,
                     hi: float = 1e6) -> float:
    """Root of the 1D modular equation on (0,1) by brentq on midpoint sums."""
    x = (np.arange(n) + 0.5) / n
    w = 1.0 / n
    uu = np.abs(u_of_x(x))
    pp = p_of_x(x)

    def f(lam):
        return float(np.sum(w * (uu / lam) ** pp)) - 1.0

    return brentq(f, lo, hi, xtol=1e-14, rtol=8.9e-16)


def radial_sharp_constant(n: int, r: float) -> float:
    """Sharp constant-exponent quotient of the extremal radial profile.

    Evaluates ||grad U||_r / ||U||_{r*} on R^n for
    U(rho) = (1 + rho^(r/(r-1)))^(-(n-r)/r) by adaptive quadrature.
    """
    rstar = n * r / (n - r)
    a = r / (r - 1.0)
    pw = (n - r) / r

    def u(rho):
        return (1.0 + rho ** a) ** (-pw)

    def du(rho):
        return -pw * (1.0 + rho ** a) ** (-pw - 1.0) * a * rho ** (a - 1.0)

    num, _ = quad(lambda rho: abs(du(rho)) ** r * rho ** (n - 1), 0, np.inf, limit=200)
    den, _ = quad(lambda rho: u(rho) ** rstar * rho ** (n - 1), 0, np.inf, limit=200)
    omega = 2 * math.pi ** (n / 2) / math.gamma(n / 2)
    return (omega * num) ** (1.0 / r) / (omega * den) ** (1.0 / rstar)


def dense_scan_min(f, lo: float, hi: float, n: int = 10_001):
    grid = np.linspace(lo, hi, n)
    vals = np.array([f(g) for g in grid])
    i = int(np.argmin(vals))
    return float(vals[i]), float(grid[i])


def stiffness_matrix(domain):
    """Weighted stiffness matrix sum_k D_k^T W D_k on the free (interior) dofs.

    Sparse assembly from the forward differences D_k and the quadrature
    weights W, the reference for the library's sine-basis solve.  Returns
    the CSC matrix and the flat mask of free nodes.
    """
    n = int(np.prod(domain.shape))
    w = quadrature_masses(domain).ravel()
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


def full_grid_probe(density, domain, cells: float):
    """The probe ball of ``cells * max(h)`` around the densest node, measured
    on every node of the grid: the peak point, the ball's mask and its mass."""
    idx = np.unravel_index(int(np.argmax(density)), density.shape)
    point = tuple(float(ax[i]) for ax, i in zip(domain.axes, idx))
    mask = domain.distance_from(point) <= cells * max(domain.h)
    return point, mask, float(density[mask].sum())


def cos2_bump(rho):
    """cos^2(pi rho / 2) on rho < 1 and 0 beyond, written out in full."""
    rho = np.asarray(rho, dtype=float)
    out = np.zeros_like(rho)
    m = rho < 1.0
    out[m] = np.cos(0.5 * np.pi * rho[m]) ** 2
    return out


def _half_widths(domain):
    """Half-widths of the bounding box, from the domain's defining parameters:
    a ball's center and radius, a box's corners."""
    if domain.ball is None:
        return [0.5 * (b - a) for a, b in zip(domain.lo, domain.hi)]
    center, radius = domain.ball
    return [0.5 * ((c + radius) - (c - radius)) for c in center]


def start_bumps(domain):
    """Raw samples of the descent's first two starts and of its noise envelope.

    With r0 the least half-width: a bump of radius 0.85 r0 at the center,
    one of radius 0.5 r0 centered 0.35 half-widths off it along every
    axis, and the envelope of radius r0 at the center.
    """
    half = _half_widths(domain)
    r0 = min(half)
    center = domain.center
    off = tuple(c + 0.35 * hw for c, hw in zip(center, half))
    rho = domain.distance_from(center)
    return [cos2_bump(rho / (0.85 * r0)),
            cos2_bump(domain.distance_from(off) / (0.5 * r0)),
            cos2_bump(rho / r0)]


def continuity_bumps(domain):
    """Raw samples of the five default test functions of the continuity driver."""
    half = _half_widths(domain)
    r0 = min(half)
    out = []
    for shift, rad in [(0.0, 0.8), (-0.3, 0.5), (0.3, 0.55), (-0.15, 0.65), (0.2, 0.4)]:
        c = tuple(ci + shift * hw for ci, hw in zip(domain.center, half))
        out.append(cos2_bump(domain.distance_from(c) / (rad * r0)))
    return out
