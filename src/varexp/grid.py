"""Discretized bounded domains, grid functions, gradients, and quadrature.

A domain is a box in 1D or 2D with an optional ball mask, cut into a
uniform cell grid.  Nodes sit at cell centers (midpoint rule), and the
cell volume is the quadrature weight of every in-domain node.  A ball is
the mask over its bounding box: a node belongs to the ball iff its cell
center does, which makes the measure of a masked ball accurate to O(h).

Functions on a domain extend by zero outside it, and ``shift`` is the
one place that writes that extension.  The discrete gradient,
``gradient_of_values``, is the forward difference per axis under it, so
every stencil is well defined without ghost cells.  A vector field such
as the gradient is stored component-major, shape ``(dim, *grid)``: each
component is one contiguous grid array, so a stencil or a scaling by a
scalar field is one pass over contiguous memory.  A function whose
values vanish on the outermost in-domain layer (the ``interior`` mask)
has its entire discrete gradient supported on in-domain nodes, which is
how zero-trace candidates are represented;
``GridFunction(..., dirichlet=True)`` applies that projection.

Balls B_eps(c) have one set of rules: ``as_radii`` reads a radius list,
and given the grid the balls go on it checks the list's resolution there:
``GridDomain.resolves`` wants ``CELLS_PER_BALL`` cells across a ball,
``densest_ball`` sizes a probe ball in cells and weighs it on the box of
nodes around its center, and ``pull_back`` maps B_eps(c) onto the unit
ball around c.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "GridDomain",
    "GridFunction",
    "interval",
    "rectangle",
    "ball",
    "as_point",
    "as_radii",
    "pull_back",
    "densest_ball",
    "gradient_of_values",
    "gradient_magnitude",
    "gradient_adjoint",
    "shift",
    "squared_length",
]

MIN_RESOLUTION = 4
CELLS_PER_BALL = 8
#: The least radius whose ball ``GridDomain`` refuses in 2D, where 2 (2 r)^2 overflows.
RADIUS_LIMIT = math.nextafter(math.sqrt(np.finfo(float).max / 8), math.inf)


class GridDomain:
    """A discretized bounded open set with midpoint quadrature: the box
    ``[lo, hi]``, masked to ``ball = (center, radius)`` when one is given.

    Attributes
    ----------
    dim : int
        Spatial dimension, 1 or 2.
    lo, hi : tuple[float, ...]
        Corners of the box the grid covers.
    ball : tuple[tuple[float, ...], float] or None
        Center and radius of the ball mask; None for a box.
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
    cell : float
        Cell volume, the product of the spacings: the quadrature weight
        of every in-domain node.
    """

    def __init__(self, lo: tuple[float, ...], hi: tuple[float, ...],
                 resolution: tuple[int, ...],
                 ball: tuple[tuple[float, ...], float] | None = None):
        for res in resolution:
            if not float(res).is_integer():
                raise ValueError(f"resolution {res!r} is not a whole number of cells")
            if res < MIN_RESOLUTION:
                raise ValueError(f"resolution {res} < {MIN_RESOLUTION} per axis")
        self.lo, self.hi, self.ball = lo, hi, ball
        self.resolution = tuple(int(r) for r in resolution)
        self.dim = len(lo)
        if self.dim not in (1, 2):
            raise ValueError("only dimensions 1 and 2 are supported")
        for a, b in zip(lo, hi):
            if not (b > a and self.dim * (b - a) * (b - a) < math.inf):
                raise ValueError(f"extent [{a}, {b}] must be positive with finite squares")
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

        if ball is None:
            self.inside = np.ones(self.shape, dtype=bool)
        else:
            center, radius = ball
            rho2 = sum((m - c) ** 2 for m, c in zip(self.meshes, center))
            self.inside = rho2 < radius**2

        self.cell = float(np.prod(self.h))
        if not self.cell > 0:
            raise ValueError("cell volume underflows to 0")

        interior = self.inside.copy()
        for k in range(self.dim):
            interior &= shift(self.inside, k, -1) & shift(self.inside, k, 1)
        self.interior = interior

        for arr in (self.inside, self.interior, *self.axes, *self.meshes):
            arr.setflags(write=False)

    def distance_from(self, point) -> np.ndarray:
        """Euclidean distance of every node from ``point``."""
        return _distance(self.meshes, as_point(point))

    def resolves(self, radius: float) -> bool:
        """Whether a ball of ``radius`` spans ``CELLS_PER_BALL`` cells of this grid."""
        return not 2.0 * radius < CELLS_PER_BALL * max(self.h)

    @property
    def center(self) -> tuple[float, ...]:
        """The ball's own center for a ball, else the box midpoint."""
        if self.ball is not None:
            return self.ball[0]
        return tuple((a + b) / 2 for a, b in zip(self.lo, self.hi))

    def contains(self, other: "GridDomain") -> bool:
        """Geometric containment of ``other``'s shape in this one's, up to 1e-12."""
        tol = 1e-12
        if self.dim != other.dim:
            return False
        if self.ball is None:
            return all(a - tol <= oa and ob <= b + tol
                       for a, b, oa, ob in zip(self.lo, self.hi, other.lo, other.hi))
        c, r = self.ball
        if other.ball is not None:
            oc, orr = other.ball
            return math.dist(oc, c) + orr <= r + tol
        return all(math.dist(corner, c) <= r + tol
                   for corner in itertools.product(*zip(other.lo, other.hi)))

    def _key(self):
        return (self.lo, self.hi, self.ball, self.resolution)

    def __eq__(self, other):
        return isinstance(other, GridDomain) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"GridDomain({self.lo}, {self.hi}, {self.resolution}, ball={self.ball})"


def interval(a: float, b: float, resolution: int) -> GridDomain:
    return GridDomain((float(a),), (float(b),), (resolution,))


def rectangle(a1: float, b1: float, a2: float, b2: float,
              resolution: int | tuple[int, int]) -> GridDomain:
    res = (resolution, resolution) if np.isscalar(resolution) else tuple(resolution)
    return GridDomain((float(a1), float(a2)), (float(b1), float(b2)), res)


def ball(center: float | Sequence[float], radius: float, resolution: int) -> GridDomain:
    c, r = as_point(center), float(radius)
    return GridDomain(tuple(x - r for x in c), tuple(x + r for x in c),
                      (resolution,) * len(c), ball=(c, r))


def as_point(x, dim: int | None = None) -> tuple[float, ...]:
    """``x`` as a tuple of float coordinates; a number is a 1D point.

    Raises ValueError when a coordinate is not a number or, with ``dim``
    given, when the point does not have ``dim`` coordinates.
    """
    try:
        point = (float(x),) if np.ndim(x) == 0 else tuple(float(c) for c in x)
    except (TypeError, ValueError) as e:
        raise ValueError(f"not a point: {x!r}") from e
    if dim is not None and len(point) != dim:
        raise ValueError(f"point {x!r} needs {dim} coordinates, one per axis")
    return point


def as_radii(values, name: str, domain: GridDomain | None = None) -> list[float]:
    """Strictly decreasing radii in (0, ``RADIUS_LIMIT``), the smallest one that
    ``domain`` ``resolves`` if given, else a ValueError naming ``name``."""
    radii = [float(r) for r in values]
    if not radii or not all(0 < b < a for a, b in zip([RADIUS_LIMIT, *radii], radii)):
        raise ValueError(f"{name!r} must be strictly decreasing radii in (0, "
                         f"{RADIUS_LIMIT}), the range of a ball's grid: {values!r}")
    if domain is not None and not domain.resolves(radii[-1]):
        raise ValueError(f"{name!r}: the smallest ball is under-resolved on the grid: its "
                         f"radius {radii[-1]} is under {CELLS_PER_BALL // 2 * max(domain.h)}, "
                         f"the radius of {CELLS_PER_BALL} cells across")
    return radii


def pull_back(f: Callable, center: tuple[float, ...], radius: float) -> Callable:
    """``f`` on B_radius(center) read on the unit ball: x -> center + radius (x - center)."""
    return lambda *xs: f(*(c + radius * (x - c) for x, c in zip(xs, center)))


def _distance(meshes, point: tuple[float, ...]) -> np.ndarray:
    """Euclidean distance from ``point`` of the nodes with coordinates ``meshes``."""
    return np.sqrt(sum((m - c) ** 2 for m, c in zip(meshes, point)))


def densest_ball(density: np.ndarray, domain: GridDomain, cells: float):
    """The probe ball of radius ``cells * max(h)`` around the peak of the node
    masses ``density``: the peak node, the ball's nodes and its mass.

    The nodes are an index tuple in C order: ``density[nodes]`` holds the
    masses the full-grid rule ``distance_from(point) <= radius`` selects,
    in the same order, so their sum has the same bits.  Distances are
    measured only on the box of nodes within ``radius`` of the peak along
    each axis, widened by one node so that rounding cannot leave a ball
    node outside it.
    """
    idx = np.unravel_index(int(np.argmax(density)), density.shape)
    point = tuple(float(ax[i]) for ax, i in zip(domain.axes, idx))
    radius = cells * max(domain.h)
    reach = [int(radius / h) + 1 for h in domain.h]
    box = tuple(slice(max(i - r, 0), i + r + 1) for i, r in zip(idx, reach))
    inner = np.nonzero(_distance([m[box] for m in domain.meshes], point) <= radius)
    nodes = tuple(k + b.start for k, b in zip(inner, box))
    return point, nodes, float(density[nodes].sum())


class GridFunction:
    """A scalar field sampled at the nodes of a :class:`GridDomain`.

    Values at masked-out nodes are forced to zero (the zero extension).
    Zero-trace candidates additionally vanish on the boundary layer; use
    ``dirichlet=True`` to apply that projection.
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
    def from_callable(cls, domain: GridDomain, f: Callable):
        """Sample ``f(x)`` (1D) or ``f(x, y)`` (2D) at the nodes."""
        vals = np.broadcast_to(np.asarray(f(*domain.meshes), dtype=float), domain.shape)
        return cls(domain, vals)

    @classmethod
    def radial(cls, domain: GridDomain, profile: Callable, center, scale: float = 1.0):
        """Zero-trace sample of the radial ``profile(|x - center| / scale)``."""
        return cls(domain, profile(domain.distance_from(center) / scale), dirichlet=True)

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.domain, values)

    def is_zero(self) -> bool:
        return not np.any(self.values)

    def __repr__(self):
        return f"GridFunction(on {self.domain!r})"


def gradient_of_values(values: np.ndarray, domain: GridDomain) -> np.ndarray:
    """Forward-difference gradient of node samples, component-major: shape
    ``(dim, *grid)``, with ``g[k]`` the contiguous difference along axis k.

    Beyond the last node of each axis the zero extension supplies the
    neighbor value, so the stencil is total.
    """
    g = np.empty((domain.dim,) + values.shape)
    for k in range(domain.dim):
        np.subtract(shift(values, k, 1), values, out=g[k])
        g[k] /= domain.h[k]
    return g


def squared_length(g: np.ndarray) -> np.ndarray:
    """Squared Euclidean length of the component-major vector field ``g``,
    a sum over its leading axis taken one component at a time."""
    out = g[0] * g[0]
    for k in range(1, len(g)):
        out += g[k] * g[k]
    return out


def gradient_magnitude(u: GridFunction) -> np.ndarray:
    """Euclidean length of the discrete gradient at every node."""
    return np.sqrt(squared_length(gradient_of_values(u.values, u.domain)))


def gradient_adjoint(z: np.ndarray, domain: GridDomain) -> np.ndarray:
    """Adjoint of the forward-difference operator.

    ``z`` is component-major like ``gradient_of_values``, shape
    ``(dim, *grid)``; satisfies ``<Dv, z> = <v, D^T z>`` in the plain
    (unweighted) inner product over all nodes.
    """
    out = np.zeros(z.shape[1:])
    for k in range(domain.dim):
        term = shift(z[k], k, -1)
        term -= z[k]
        term /= domain.h[k]
        out += term
    return out


def shift(a: np.ndarray, axis: int, step: int) -> np.ndarray:
    """The zero-extended neighbour along ``axis``: ``a[i + step]`` at index
    ``i`` where that index is on the array, 0 (False) beyond its edge.

    ``step`` is 1 (the next node) or -1 (the previous one); ``a`` is not
    modified.  The result is a new array: the copied neighbours fill all of
    it but one edge layer, and only that layer is written with zeros.
    """
    if step not in (1, -1):
        raise ValueError(f"step must be 1 or -1, got {step!r}")
    out = np.empty_like(a)
    dst = [slice(None)] * a.ndim
    src = [slice(None)] * a.ndim
    edge = [slice(None)] * a.ndim
    dst[axis], src[axis], edge[axis] = (slice(None, -1), slice(1, None), slice(-1, None)) \
        if step == 1 else (slice(1, None), slice(None, -1), slice(None, 1))
    out[tuple(dst)] = a[tuple(src)]
    out[tuple(edge)] = 0
    return out

