"""Discretized bounded domains, grid functions, gradients, and quadrature.

Domains are uniform cell grids in 1D or 2D.  Nodes sit at cell centers
(midpoint rule), each carrying a quadrature weight equal to its cell
volume.  Balls are realized as a mask over the enclosing box: a node
belongs to the ball iff its cell center does, which makes the measure of
a masked ball accurate to O(h).

Functions on a domain extend by zero outside it.  The discrete gradient
is the forward difference per axis under that zero extension, so every
stencil is well defined without ghost cells.  A function whose values
vanish on the outermost in-domain layer (the ``interior`` mask) has its
entire discrete gradient supported on in-domain nodes, which is how
zero-trace candidates are represented; :meth:`GridFunction.dirichlet`
applies that projection.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = [
    "GridDomain",
    "GridFunction",
    "make_domain",
    "interval",
    "rectangle",
    "ball",
    "gradient",
    "gradient_magnitude",
    "gradient_adjoint",
    "squared_length",
    "integrate",
]

MIN_RESOLUTION = 4


class GridDomain:
    """A discretized bounded open set with midpoint quadrature.

    Attributes
    ----------
    dim : int
        Spatial dimension, 1 or 2.
    kind : str
        One of ``"interval"``, ``"rectangle"``, ``"ball"``.
    resolution : tuple[int, ...]
        Cells per axis.
    h : tuple[float, ...]
        Cell spacing per axis.
    axes : tuple[np.ndarray, ...]
        Cell-center coordinates per axis.
    inside : np.ndarray of bool
        Mask of nodes belonging to the domain.
    interior : np.ndarray of bool
        In-domain nodes all of whose axis neighbors are also in-domain
        (and that do not touch the array edge).
    weights : np.ndarray
        Quadrature weights; cell volume on in-domain nodes, 0 elsewhere.
    """

    def __init__(self, kind: str, params: tuple, resolution: tuple[int, ...]):
        if kind not in ("interval", "rectangle", "ball"):
            raise ValueError(f"unknown domain kind {kind!r}")
        for res in resolution:
            if res < MIN_RESOLUTION:
                raise ValueError(f"resolution {res} < {MIN_RESOLUTION} per axis")
        self.kind = kind
        self.params = params
        self.resolution = tuple(int(r) for r in resolution)

        lo, hi = self._bounding_box(kind, params)
        self.dim = len(lo)
        if self.dim not in (1, 2):
            raise ValueError("only dimensions 1 and 2 are supported")
        for a, b in zip(lo, hi):
            if not b > a:
                raise ValueError(f"non-positive extent [{a}, {b}]")
        if len(self.resolution) == 1 and self.dim == 2:
            self.resolution = self.resolution * 2
        if len(self.resolution) != self.dim:
            raise ValueError("resolution must have one entry per axis")

        self.h = tuple(
            (b - a) / r for a, b, r in zip(lo, hi, self.resolution)
        )
        self.axes = tuple(
            a + (np.arange(r) + 0.5) * h
            for a, h, r in zip(lo, self.h, self.resolution)
        )
        self.shape = self.resolution
        self.meshes = tuple(np.meshgrid(*self.axes, indexing="ij")) if self.dim == 2 \
            else (self.axes[0],)

        if kind == "ball":
            center, radius = params
            rho2 = sum((m - c) ** 2 for m, c in zip(self.meshes, center))
            self.inside = rho2 < radius**2
        else:
            self.inside = np.ones(self.shape, dtype=bool)

        cell = float(np.prod(self.h))
        self.weights = np.where(self.inside, cell, 0.0)

        interior = self.inside.copy()
        for k in range(self.dim):
            shifted_lo = np.zeros_like(self.inside)
            shifted_hi = np.zeros_like(self.inside)
            sl = [slice(None)] * self.dim
            sl_lo, sl_hi = list(sl), list(sl)
            sl_lo[k] = slice(1, None)
            sl_hi[k] = slice(None, -1)
            shifted_lo[tuple(sl_lo)] = self.inside[tuple(sl_hi)]
            shifted_hi[tuple(sl_hi)] = self.inside[tuple(sl_lo)]
            interior &= shifted_lo & shifted_hi
        self.interior = interior

        self._lo, self._hi = lo, hi
        for arr in (self.weights, self.inside, self.interior, *self.axes, *self.meshes):
            arr.setflags(write=False)

    @staticmethod
    def _bounding_box(kind, params):
        if kind == "interval":
            a, b = params
            return (a,), (b,)
        if kind == "rectangle":
            (a1, b1), (a2, b2) = params
            return (a1, a2), (b1, b2)
        center, radius = params
        if radius <= 0:
            raise ValueError("ball radius must be positive")
        return (
            tuple(c - radius for c in center),
            tuple(c + radius for c in center),
        )

    @property
    def measure(self) -> float:
        """Total quadrature mass, the discrete |Omega|."""
        return float(self.weights.sum())

    @property
    def diameter(self) -> float:
        return float(np.hypot(*(b - a for a, b in zip(self._lo, self._hi)))) \
            if self.dim == 2 else float(self._hi[0] - self._lo[0])

    def distance_from(self, point) -> np.ndarray:
        """Euclidean distance of every node from ``point``."""
        point = np.atleast_1d(np.asarray(point, dtype=float))
        d2 = sum((m - c) ** 2 for m, c in zip(self.meshes, point))
        return np.sqrt(d2)

    @property
    def center(self) -> tuple[float, ...]:
        return tuple((a + b) / 2 for a, b in zip(self._lo, self._hi))

    def contains(self, other: "GridDomain", tol: float = 1e-12) -> bool:
        """Geometric containment of ``other``'s shape in this one's."""
        if self.dim != other.dim:
            return False
        if self.kind == "ball":
            c, r = self.params
            if other.kind == "ball":
                oc, orr = other.params
                dist = float(np.hypot(*(a - b for a, b in zip(oc, c)))) \
                    if self.dim == 2 else abs(oc[0] - c[0])
                return dist + orr <= r + tol
            # corners of other's box inside the ball
            corners = _box_corners(other._lo, other._hi)
            return all(
                float(np.sqrt(sum((x - y) ** 2 for x, y in zip(p, c)))) <= r + tol
                for p in corners
            )
        # self is a box
        return all(
            a_o - tol <= a_i and b_i <= b_o + tol
            for a_o, b_o, a_i, b_i in zip(self._lo, self._hi, other._lo, other._hi)
        )

    def _key(self):
        return (self.kind, self.params, self.resolution)

    def __eq__(self, other):
        return isinstance(other, GridDomain) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"GridDomain({self.kind}, {self.params}, resolution={self.resolution})"


def _box_corners(lo, hi):
    if len(lo) == 1:
        return [(lo[0],), (hi[0],)]
    return [(x, y) for x in (lo[0], hi[0]) for y in (lo[1], hi[1])]


def interval(a: float, b: float, resolution: int) -> GridDomain:
    return GridDomain("interval", (float(a), float(b)), (resolution,))


def rectangle(a1: float, b1: float, a2: float, b2: float,
              resolution: int | tuple[int, int]) -> GridDomain:
    res = (resolution, resolution) if np.isscalar(resolution) else tuple(resolution)
    return GridDomain("rectangle", ((float(a1), float(b1)), (float(a2), float(b2))), res)


def ball(center: float | Sequence[float], radius: float, resolution: int) -> GridDomain:
    c = (float(center),) if np.isscalar(center) else tuple(float(x) for x in center)
    dim = len(c)
    return GridDomain("ball", (c, float(radius)), (resolution,) * dim)


def make_domain(spec: dict) -> GridDomain:
    """Build a domain from a declarative spec.

    Accepted forms::

        {"shape": "interval", "bounds": [a, b], "resolution": n}
        {"shape": "rectangle", "bounds": [[a1, b1], [a2, b2]], "resolution": n}
        {"shape": "ball", "center": [cx, cy], "radius": r, "resolution": n}
    """
    shape = spec.get("shape")
    res = spec.get("resolution")
    if res is None:
        raise ValueError("domain spec missing 'resolution'")
    if shape == "interval":
        a, b = spec["bounds"]
        return interval(a, b, int(res))
    if shape == "rectangle":
        (a1, b1), (a2, b2) = spec["bounds"]
        return rectangle(a1, b1, a2, b2, int(res))
    if shape == "ball":
        return ball(spec["center"], spec["radius"], int(res))
    raise ValueError(f"unknown domain shape {shape!r}")


class GridFunction:
    """A scalar field sampled at the nodes of a :class:`GridDomain`.

    Values at masked-out nodes are forced to zero (the zero extension).
    Zero-trace candidates additionally vanish on the boundary layer; use
    ``dirichlet=True`` or :meth:`dirichlet` to apply that projection.
    """

    def __init__(self, domain: GridDomain, values: np.ndarray, dirichlet: bool = False):
        values = np.asarray(values, dtype=float)
        if values.shape != domain.shape:
            raise ValueError(f"values shape {values.shape} != grid shape {domain.shape}")
        keep = domain.interior if dirichlet else domain.inside
        vals = np.where(keep, values, 0.0)
        vals.setflags(write=False)
        self.domain = domain
        self.values = vals

    @classmethod
    def from_callable(cls, domain: GridDomain, f: Callable, dirichlet: bool = False):
        """Sample ``f(x)`` (1D) or ``f(x, y)`` (2D) at the nodes."""
        vals = np.broadcast_to(np.asarray(f(*domain.meshes), dtype=float), domain.shape)
        return cls(domain, vals.copy(), dirichlet=dirichlet)

    @classmethod
    def zeros(cls, domain: GridDomain):
        return cls(domain, np.zeros(domain.shape))

    def dirichlet(self) -> "GridFunction":
        """Project onto zero-trace candidates (zero the boundary layer)."""
        return GridFunction(self.domain, self.values, dirichlet=True)

    def with_values(self, values: np.ndarray, dirichlet: bool = False) -> "GridFunction":
        return GridFunction(self.domain, values, dirichlet=dirichlet)

    def is_zero(self) -> bool:
        return not np.any(self.values)

    def __repr__(self):
        return f"GridFunction(on {self.domain!r})"


def gradient(u: GridFunction) -> np.ndarray:
    """Forward-difference gradient, shape ``(*grid, dim)``.

    Beyond the last node of each axis the zero extension supplies the
    neighbor value, so the stencil is total.
    """
    return gradient_of_values(u.values, u.domain)


def gradient_of_values(values: np.ndarray, domain: GridDomain) -> np.ndarray:
    dim = domain.dim
    g = np.zeros(values.shape + (dim,))
    for k in range(dim):
        h = domain.h[k]
        lead = [slice(None)] * dim
        lag = [slice(None)] * dim
        lead[k] = slice(1, None)
        lag[k] = slice(None, -1)
        g[tuple(lag) + (k,)] = (values[tuple(lead)] - values[tuple(lag)]) / h
        last = [slice(None)] * dim
        last[k] = -1
        g[tuple(last) + (k,)] = -values[tuple(last)] / h
    return g


def squared_length(g: np.ndarray) -> np.ndarray:
    """Squared Euclidean length of the vectors on the trailing axis of ``g``.

    A sum over the components, which gives the same bits as a reduction
    over that short axis at a fraction of its cost.
    """
    out = g[..., 0] * g[..., 0]
    for k in range(1, g.shape[-1]):
        out += g[..., k] * g[..., k]
    return out


def gradient_magnitude(u: GridFunction) -> np.ndarray:
    """Euclidean length of the discrete gradient at every node."""
    return np.sqrt(squared_length(gradient(u)))


def gradient_adjoint(z: np.ndarray, domain: GridDomain) -> np.ndarray:
    """Adjoint of the forward-difference operator.

    ``z`` has shape ``(*grid, dim)``; satisfies ``<Dv, z> = <v, D^T z>``
    in the plain (unweighted) inner product over all nodes.
    """
    dim = domain.dim
    out = np.zeros(z.shape[:-1])
    for k in range(dim):
        h = domain.h[k]
        zk = z[..., k]
        lead = [slice(None)] * dim
        lag = [slice(None)] * dim
        lead[k] = slice(1, None)
        lag[k] = slice(None, -1)
        upd = np.zeros_like(out)
        upd[tuple(lead)] = zk[tuple(lag)]
        out += (upd - zk) / h
    return out


def integrate(values: np.ndarray, domain: GridDomain) -> float:
    """Midpoint-rule integral over the domain: sum of value * weight."""
    values = np.asarray(values, dtype=float)
    if values.shape != domain.shape:
        raise ValueError("integrand shape does not match the grid")
    sel = domain.weights > 0
    chunk = values[sel]
    if not np.all(np.isfinite(chunk)):
        raise ValueError("integrand has NaN/inf at in-domain nodes")
    return float(np.dot(chunk, domain.weights[sel]))
