"""Exponent fields p(x), q(x): bounds, critical exponents, order.

An :class:`ExponentField` is its defining callable, sampled on a grid by
its constructor.  Validity means 1 < inf p <= sup p < inf over in-domain nodes
(the reflexive range for the associated spaces).  The critical exponent
is N p / (N - p); an infinity sentinel stands in for p >= N.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .grid import GridDomain, as_point

__all__ = [
    "CRITICAL_INF",
    "ExponentField",
    "critical_exponent",
    "exponent_order_ok",
]

#: Sentinel for the critical exponent when p(x) >= N.
CRITICAL_INF = math.inf


def critical_exponent(p, n: int):
    """N p / (N - p) for p < N, else the infinity sentinel; elementwise on an array."""
    a = np.asarray(p, dtype=float)
    if np.any(a <= 1):
        raise ValueError(f"exponent must exceed 1, got {a.min()}")
    out = np.divide(n * a, n - a, out=np.full(a.shape, CRITICAL_INF), where=~(a >= n))
    return float(out) if out.ndim == 0 else out


class ExponentField:
    """An exponent function sampled on a grid domain.

    Attributes
    ----------
    domain : GridDomain
    values : np.ndarray
        Node samples of ``func``.  Masked-out nodes are filled with the
        in-domain minimum so that downstream power evaluations stay finite.
    func : callable
        Defining function (per-axis signature), the samples' one source; it
        also evaluates off-grid points and resamples onto subdomains.
    p_minus, p_plus : float
        inf / sup of the samples over in-domain nodes.
    """

    def __init__(self, domain: GridDomain, func: Callable):
        samples = np.asarray(func(*domain.meshes), dtype=float)
        try:
            values = np.broadcast_to(samples, domain.shape)
        except ValueError:
            raise ValueError("exponent samples do not match the grid shape") from None
        body = values[domain.inside]
        if not np.all(np.isfinite(body)):
            raise ValueError("exponent field is not finite on the domain")
        self.p_minus = float(body.min())
        self.p_plus = float(body.max())
        if self.p_minus <= 1.0:
            raise ValueError(
                f"exponent field must satisfy inf p > 1, got inf p = {self.p_minus}")
        self.domain = domain
        self.func = func
        self.values = np.where(domain.inside, values, self.p_minus)
        self.values.setflags(write=False)

    @classmethod
    def constant(cls, c: float, domain: GridDomain) -> "ExponentField":
        c = float(c)
        return cls(domain, lambda *xs: np.full_like(np.asarray(xs[0], dtype=float), c))

    @classmethod
    def from_callable(cls, f: Callable, domain: GridDomain) -> "ExponentField":
        return cls(domain, f)

    def value_at(self, point) -> float:
        """Evaluate the defining callable at an arbitrary point."""
        args = [np.asarray([c]) for c in as_point(point)]
        return float(np.asarray(self.func(*args)).ravel()[0])

    def restrict(self, domain: GridDomain) -> "ExponentField":
        """Resample the defining callable onto another grid of the same dimension."""
        if domain.dim != self.domain.dim:
            raise ValueError(f"cannot restrict a {self.domain.dim}D field "
                             f"to a {domain.dim}D domain")
        return ExponentField.from_callable(self.func, domain)

    @property
    def is_constant(self) -> bool:
        return self.p_minus == self.p_plus

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


def exponent_order_ok(p: ExponentField, q: ExponentField) -> bool:
    """Whether sup p <= inf q over the domain (a compatibility predicate)."""
    return p.p_plus <= q.p_minus + 1e-12
