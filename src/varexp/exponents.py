"""Exponent fields p(x), q(x): bounds, conjugates, criticality, moduli.

An :class:`ExponentField` pairs a defining callable with its node samples
on a grid.  Validity means 1 < inf p <= sup p < inf over in-domain nodes
(the reflexive range for the associated spaces).  The criticality set
collects nodes where the target exponent reaches the critical exponent
N p / (N - p); an infinity sentinel stands in for p >= N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import GridDomain, as_point

__all__ = [
    "CRITICAL_INF",
    "ExponentField",
    "CriticalitySet",
    "ModulusReport",
    "critical_exponent",
    "conjugate_exponent",
    "critical_exponent_field",
    "criticality_set",
    "modulus_condition_check",
    "exponent_order_ok",
]

#: Sentinel for the critical exponent when p(x) >= N.
CRITICAL_INF = math.inf


def critical_exponent(p: float, n: int) -> float:
    """N p / (N - p) for p < N, else the infinity sentinel."""
    if p <= 1:
        raise ValueError(f"exponent must exceed 1, got {p}")
    if p >= n:
        return CRITICAL_INF
    return n * p / (n - p)


def conjugate_exponent(p: float) -> float:
    """p / (p - 1); an involution on (1, inf)."""
    if p <= 1:
        raise ValueError(f"exponent must exceed 1, got {p}")
    return p / (p - 1)


class ExponentField:
    """An exponent function sampled on a grid domain.

    Attributes
    ----------
    domain : GridDomain
    values : np.ndarray
        Node samples.  Masked-out nodes are filled with the in-domain
        minimum so that downstream power evaluations stay finite.
    func : callable or None
        Defining function (per-axis signature); needed for evaluation at
        off-grid points and for resampling onto subdomains.
    p_minus, p_plus : float
        inf / sup of the samples over in-domain nodes.
    """

    def __init__(self, domain: GridDomain, values: np.ndarray,
                 func: Callable | None = None):
        values = np.asarray(values, dtype=float)
        if values.shape != domain.shape:
            raise ValueError("exponent samples do not match the grid shape")
        inside = domain.inside
        body = values[inside]
        if not np.all(np.isfinite(body)):
            raise ValueError("exponent field is not finite on the domain")
        p_minus = float(body.min())
        p_plus = float(body.max())
        if p_minus <= 1.0:
            raise ValueError(
                f"exponent field must satisfy inf p > 1, got inf p = {p_minus}")
        vals = np.where(inside, values, p_minus)
        vals.setflags(write=False)
        self.domain = domain
        self.values = vals
        self.func = func
        self.p_minus = p_minus
        self.p_plus = p_plus

    @classmethod
    def constant(cls, c: float, domain: GridDomain) -> "ExponentField":
        c = float(c)
        return cls(domain, np.full(domain.shape, c), func=lambda *xs: np.full_like(np.asarray(xs[0], dtype=float), c))

    @classmethod
    def from_callable(cls, f: Callable, domain: GridDomain) -> "ExponentField":
        vals = np.broadcast_to(np.asarray(f(*domain.meshes), dtype=float), domain.shape)
        return cls(domain, vals.copy(), func=f)

    def value_at(self, point) -> float:
        """Evaluate at an arbitrary point (needs the defining callable)."""
        pt = as_point(point)
        if self.func is not None:
            args = [np.asarray([c]) for c in pt]
            return float(np.asarray(self.func(*args)).ravel()[0])
        idx = tuple(
            int(np.argmin(np.abs(ax - c))) for ax, c in zip(self.domain.axes, pt)
        )
        return float(self.values[idx])

    def restrict(self, domain: GridDomain) -> "ExponentField":
        """Resample onto another grid (needs the defining callable)."""
        if self.func is None:
            raise ValueError("cannot restrict an exponent field without its callable")
        return ExponentField.from_callable(self.func, domain)

    @property
    def is_constant(self) -> bool:
        return self.p_plus - self.p_minus <= 1e-14 * max(1.0, self.p_plus)

    def __repr__(self):
        return f"ExponentField([{self.p_minus}, {self.p_plus}] on {self.domain!r})"


def as_exponent_field(p, domain: GridDomain) -> ExponentField:
    """Coerce a float, callable, or field onto ``domain``."""
    if isinstance(p, ExponentField):
        if p.domain == domain:
            return p
        return p.restrict(domain)
    if np.isscalar(p):
        return ExponentField.constant(float(p), domain)
    return ExponentField.from_callable(p, domain)


def critical_exponent_field(p: ExponentField, n: int | None = None) -> ExponentField:
    """Nodewise critical exponent of ``p``; requires sup p < N."""
    n = p.domain.dim if n is None else n
    if p.p_plus >= n:
        raise ValueError("critical exponent field needs sup p < N")
    func = None
    if p.func is not None:
        pf = p.func
        func = lambda *xs: n * pf(*xs) / (n - pf(*xs))  # noqa: E731
    return ExponentField(p.domain, n * p.values / (n - p.values), func=func)


@dataclass(frozen=True)
class CriticalitySet:
    """Nodes where q reaches the critical exponent of p (and p < N)."""

    indices: np.ndarray      # (k, dim) integer node indices
    points: np.ndarray       # (k, dim) node coordinates
    p_minus: float           # inf of p over the set (nan when empty)
    p_plus: float            # sup of p over the set (nan when empty)

    @property
    def is_empty(self) -> bool:
        return self.indices.shape[0] == 0

    def __len__(self):
        return self.indices.shape[0]


def criticality_set(p: ExponentField, q: ExponentField, n: int | None = None,
                    tau_crit: float = 1e-9) -> CriticalitySet:
    """Scan the grid for nodes with p(x) < N and |q(x) - p*(x)| <= tau."""
    if p.domain != q.domain:
        raise ValueError("p and q live on different domains")
    dom = p.domain
    n = dom.dim if n is None else n
    sub = p.values < n
    with np.errstate(divide="ignore", invalid="ignore"):
        pstar = np.where(sub, n * p.values / (n - p.values), np.inf)
    crit = dom.inside & sub & (np.abs(q.values - pstar) <= tau_crit)
    idx = np.argwhere(crit)
    if idx.shape[0] == 0:
        return CriticalitySet(idx, np.empty((0, dom.dim)), math.nan, math.nan)
    pts = np.stack(
        [dom.axes[k][idx[:, k]] for k in range(dom.dim)], axis=1
    )
    pvals = p.values[crit]
    return CriticalitySet(idx, pts, float(pvals.min()), float(pvals.max()))


def exponent_order_ok(p: ExponentField, q: ExponentField) -> bool:
    """Whether sup p <= inf q over the domain (a compatibility predicate)."""
    return p.p_plus <= q.p_minus + 1e-12


@dataclass(frozen=True)
class ModulusReport:
    """Continuity-modulus estimates at a list of scales.

    ``plausible`` is a heuristic verdict: the products rho(t) * log(1/t)
    must drop by at least ``min_drop`` (relative) between each of the
    three smallest scales.  A plain non-increase test cannot separate a
    log-type modulus from a Lipschitz one on a finite grid, because the
    sampled modulus saturates at the grid spacing; the raw values are
    reported so the caller can judge.
    """

    scales: tuple[float, ...]
    rho: tuple[float, ...]
    rho_log: tuple[float, ...]
    plausible: bool
    min_drop: float


def modulus_condition_check(p: ExponentField, scales, min_drop: float = 0.2) -> ModulusReport:
    """Estimate rho(t) = max |p(x)-p(y)| over node pairs with |x-y| in [t/2, t].

    The pair maximum is exact: on a uniform grid the pair distance
    depends only on the index offset, so each offset in the band is
    scanned with one vectorized comparison.
    """
    dom = p.domain
    scales = sorted(float(t) for t in scales)
    hmax = max(dom.h)
    for t in scales:
        if t < hmax:
            raise ValueError(f"scale {t} is below the grid spacing {hmax}")
        if t > dom.diameter:
            raise ValueError(f"scale {t} exceeds the domain diameter")
    rho = [_band_modulus(p, t / 2, t) for t in scales]
    rho_log = [r * math.log(1.0 / t) for r, t in zip(rho, scales)]
    tail = rho_log[: 3] if len(rho_log) >= 3 else rho_log
    if all(v <= 1e-12 for v in tail):
        plausible = True
    else:
        plausible = all(
            nxt <= cur * (1.0 - min_drop)
            for cur, nxt in zip(tail[1:], tail[:-1])
        )
    return ModulusReport(
        scales=tuple(scales),
        rho=tuple(rho),
        rho_log=tuple(rho_log),
        plausible=plausible,
        min_drop=min_drop,
    )


def _band_modulus(p: ExponentField, lo: float, hi: float) -> float:
    dom = p.domain
    vals = p.values
    inside = dom.inside
    best = 0.0
    eps = 1e-12
    if dom.dim == 1:
        h = dom.h[0]
        kmax = int(math.floor((hi + eps) / h))
        for k in range(1, kmax + 1):
            d = k * h
            if d < lo - eps or d > hi + eps:
                continue
            a, b = vals[k:], vals[:-k]
            ok = inside[k:] & inside[:-k]
            if np.any(ok):
                best = max(best, float(np.abs(a - b)[ok].max()))
        return best
    hx, hy = dom.h
    imax = int(math.floor((hi + eps) / hx))
    jmax = int(math.floor((hi + eps) / hy))
    nx, ny = dom.shape
    for di in range(0, imax + 1):
        for dj in range(-jmax, jmax + 1):
            if di == 0 and dj <= 0:
                continue
            d = math.hypot(di * hx, dj * hy)
            if d < lo - eps or d > hi + eps:
                continue
            sx = slice(di, None), slice(None, nx - di)
            if dj >= 0:
                sy = slice(dj, None), slice(None, ny - dj)
            else:
                sy = slice(None, ny + dj), slice(-dj, None)
            a = vals[sx[0], sy[0]]
            b = vals[sx[1], sy[1]]
            ok = inside[sx[0], sy[0]] & inside[sx[1], sy[1]]
            if np.any(ok):
                best = max(best, float(np.abs(a - b)[ok].max()))
    return best
