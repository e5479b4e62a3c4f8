"""Synthetic concentrating sequences and limit-measure diagnostics.

A bubble is a radial profile rescaled around a center point x0,
profile(|x - x0| / scale), divided by its q-norm.  The critical factor
scale^(-N/p*(x0)) of the continuous sequence is not applied: the q-norm
is 1-homogeneous, so the normalization cancels it.  On a grid the weak-*
limit measures are inaccessible, so the smallest-scale element stands
proxy for them; the checks here therefore assert inequalities with a
documented slack and monotone trends over the scale list rather than
true limits.

Profiles are callables of rho that vanish for rho >= 1, sampled by
``GridFunction.radial``.

Masses of the density |u|^q(x) dx (and |grad u|^p(x) dx) over small
balls, all summed from one pair of node masses w |u|^q and
w |grad u|^p, feed three diagnostics: the atom-scale inequality
s_bar * nu^(1/q(x0)) <= mu^(1/p(x0)), the measure-norm reverse-Holder
inequality S * ||phi||_(q,nu) <= ||phi||_(p,mu), and the alternative
classifier (strong convergence versus a single atom).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .exponents import ExponentField
from .grid import GridFunction, as_point, as_radii, ball, densest_ball, gradient_magnitude
from .luxemburg import luxemburg_norm, luxemburg_norm_measure, modular_density
from .sobolev import bump, cos2_taper, talenti_constant

__all__ = [
    "BubbleSequence",
    "Atom",
    "AtomReport",
    "MassPair",
    "RefinedRow",
    "RefinedInequalityReport",
    "ReverseHolderReport",
    "DichotomyVerdict",
    "smooth_bump",
    "mollifier",
    "talenti_profile",
    "cutoff_profile",
    "make_bubbles",
    "measure_masses",
    "detect_atoms",
    "check_refined_inequality",
    "reverse_holder_check",
    "classify_dichotomy",
]

NORMALIZATION_TOL = 1e-6
ATOM_MASS_FRACTION = 0.25
MAX_ATOMS = 4
#: Relative slack of the refined and the reverse-Holder inequality checks.
INEQUALITY_SLACK = 0.05
#: Thresholds of the dichotomy classifier (see ``classify_dichotomy``).
CONV_TOL = 1e-3
ATOM_THRESHOLD = 0.9
DELTA_CELLS = (4.0, 8.0)


# ---------------------------------------------------------------------------
# radial profiles (functions of rho = |x - x0| / scale, zero for rho >= 1)

def smooth_bump(rho):
    """``sobolev.bump`` under its name as a concentration profile."""
    return bump(rho)


def mollifier(rho):
    """The classic C-infinity bump exp(1 - 1/(1 - rho^2))."""
    rho = np.asarray(rho, dtype=float)
    out = np.zeros_like(rho)
    m = rho < 1.0
    out[m] = np.exp(1.0 - 1.0 / (1.0 - rho[m] ** 2))
    return out


def talenti_profile(n: int = 2, r: float = 1.5, core: float = 0.25,
                    inner: float = 0.6) -> Callable:
    """Truncated extremal-shaped profile for the constant-exponent quotient.

    (1 + (rho/core)^(r/(r-1)))^(-(n-r)/r) times ``cutoff_profile(inner)``,
    so the result is compactly supported.  The extremal factor is taken
    on the support only: for r near 1 its power overflows far out.
    """
    if not 1.0 < r < n:
        raise ValueError("need 1 < r < n")
    expo = r / (r - 1.0)
    power = (n - r) / r
    taper = cutoff_profile(inner)

    def profile(rho):
        rho = np.asarray(rho, dtype=float)
        out = taper(rho)
        m = rho < 1.0
        out[m] *= (1.0 + (rho[m] / core) ** expo) ** (-power)
        return out

    return profile


def cutoff_profile(plateau: float = 0.5) -> Callable:
    """Radial cutoff: 1 up to ``plateau``, cos^2 taper to 0 at 1."""

    def profile(rho):
        return cos2_taper(rho, plateau)

    return profile


# ---------------------------------------------------------------------------
# bubble sequences

@dataclass(frozen=True)
class BubbleSequence:
    """Rescaled-profile sequence, each term normalized in the q-norm."""

    center: tuple[float, ...]
    scales: tuple[float, ...]
    terms: tuple[GridFunction, ...]


def make_bubbles(profile, x0, scales, p: ExponentField, q: ExponentField) -> BubbleSequence:
    """Construct and normalize the rescaled-profile sequence.

    Terms are sampled by evaluating the radial ``profile`` (a callable of
    rho) at rescaled node coordinates (no grid interpolation), so halving
    the scale exactly halves the support radius.
    """
    if p.domain != q.domain:
        raise ValueError("p and q live on different domains")
    dom = p.domain
    x0 = as_point(x0, dom.dim)
    scales = as_radii(scales, "scales")
    if not dom.resolves(scales[-1]):
        raise ValueError("smallest scale is under-resolved on the grid")
    idx = tuple(int(np.argmin(np.abs(ax - c))) for ax, c in zip(dom.axes, x0))
    if not dom.interior[idx]:
        raise ValueError("bubble center must be an interior point of the domain")
    if p.value_at(x0) >= dom.dim:
        raise ValueError("bubbles need p(x0) < N, the critical range")

    rho = dom.distance_from(x0)
    terms = []
    for lam in scales:
        # GridFunction.radial's sample, from the one distance field
        f = GridFunction(dom, profile(rho / lam), dirichlet=True)
        nq = luxemburg_norm(f, q).value
        if nq == 0.0:
            raise ValueError(f"rescaled profile vanishes on the grid at scale {lam}")
        terms.append(f.with_values(f.values / nq))
    return BubbleSequence(center=x0, scales=tuple(scales), terms=tuple(terms))


# ---------------------------------------------------------------------------
# ball masses and atoms

def _node_masses(u: GridFunction, p: ExponentField, q: ExponentField):
    """Node masses w |u|^q and w |grad u|^p of the two proxy measures nu, mu."""
    return modular_density(u, q), modular_density(gradient_magnitude(u), p)


class MassPair(NamedTuple):
    nu: float
    mu: float


def measure_masses(u: GridFunction, p: ExponentField, q: ExponentField,
                   x0, deltas: Sequence[float]) -> tuple[MassPair, ...]:
    """Masses of |u|^q dx and |grad u|^p dx over each ball B_delta(x0),
    one pair per radius in ``deltas``, all from one set of node masses;
    each ball spans ``CELLS_PER_BALL`` cells (``GridDomain.resolves``)."""
    dom = u.domain
    if len(deltas) == 0:
        raise ValueError("deltas must not be empty")
    if not dom.resolves(min(deltas)):
        raise ValueError("smallest ball is under-resolved on the grid")
    x0 = as_point(x0, dom.dim)
    dist = dom.distance_from(x0)
    m_nu, m_mu = _node_masses(u, p, q)
    masses = []
    for delta in deltas:
        if not dom.contains(ball(x0, delta, 4)):
            warnings.warn(f"ball of radius {delta} at {x0} exits the domain; clipped",
                          stacklevel=2)
        sel = dist <= delta
        masses.append(MassPair(float(np.sum(m_nu[sel])), float(np.sum(m_mu[sel]))))
    return tuple(masses)


@dataclass(frozen=True)
class Atom:
    point: tuple[float, ...]
    nu: float
    mu: float


@dataclass(frozen=True)
class AtomReport:
    """Atoms weighed on probe balls of ``DELTA_CELLS[0]`` cells, and the diffuse rest."""

    atoms: tuple[Atom, ...]
    ac_mass: float
    total_nu: float


def detect_atoms(u: GridFunction, p: ExponentField, q: ExponentField) -> AtomReport:
    """Greedy ball-mass scan for atoms of the density |u|^q dx.

    Repeatedly takes the densest remaining node, records the mass of the
    ball of ``DELTA_CELLS[0]`` cells around it if it reaches
    ``ATOM_MASS_FRACTION`` of the total, and masks that ball out, for at
    most ``MAX_ATOMS`` atoms.
    """
    dens, mu_dens = _node_masses(u, p, q)
    total = float(dens.sum())
    live = dens.copy()
    atoms = []
    for _ in range(MAX_ATOMS):
        if total <= 0 or live.max() <= 0:
            break
        point, nodes, nu = densest_ball(live, u.domain, DELTA_CELLS[0])
        if nu < ATOM_MASS_FRACTION * total:
            break
        atoms.append(Atom(point=point, nu=nu, mu=float(mu_dens[nodes].sum())))
        live[nodes] = 0.0
    ac_mass = total - sum(a.nu for a in atoms)
    return AtomReport(atoms=tuple(atoms), ac_mass=ac_mass, total_nu=total)


# ---------------------------------------------------------------------------
# inequality checks

@dataclass(frozen=True)
class RefinedRow:
    scale: float
    delta: float
    nu: float
    mu: float
    residual: float
    bound: float
    norm_ok: bool
    ok: bool


@dataclass(frozen=True)
class RefinedInequalityReport:
    """Residual table for s_bar nu^(1/q(x0)) <= (1 + INEQUALITY_SLACK) mu^(1/p(x0))."""

    rows: tuple[RefinedRow, ...]
    s_bar: float
    s_bar_source: str

    @property
    def all_within(self) -> bool:
        return all(r.ok for r in self.rows)

    @property
    def normalization_violation(self) -> bool:
        return any(not r.norm_ok for r in self.rows)


def check_refined_inequality(seq: BubbleSequence, p: ExponentField,
                             q: ExponentField, s_bar: float | None = None, *,
                             delta_list: Sequence[float]) -> RefinedInequalityReport:
    """Evaluate the atom-scale inequality on every (scale, delta) cell.

    ``s_bar`` defaults to the sharp constant-exponent constant at p(x0)
    (appropriate when the localized limit equals it); a caller holding a
    localized estimate passes it explicitly.  Terms failing the
    unit-norm check are flagged rather than scored, so a broken
    normalization is reported as such and not as an inequality failure.
    """
    if len(delta_list) == 0:
        raise ValueError("delta_list must not be empty")
    x0 = seq.center
    if s_bar is None:
        s_bar_val = talenti_constant(p.domain.dim, p.value_at(x0))
        source = "talenti"
    else:
        s_bar_val = float(s_bar)
        source = "supplied"
    qx0 = q.value_at(x0)
    px0 = p.value_at(x0)
    rows = []
    for lam, term in zip(seq.scales, seq.terms):
        norm_ok = abs(luxemburg_norm(term, q).value - 1.0) <= NORMALIZATION_TOL
        for delta, (nu, mu) in zip(delta_list, measure_masses(term, p, q, x0, delta_list)):
            bound = INEQUALITY_SLACK * mu ** (1.0 / px0)
            residual = s_bar_val * nu ** (1.0 / qx0) - mu ** (1.0 / px0)
            rows.append(RefinedRow(
                scale=lam, delta=float(delta), nu=nu, mu=mu,
                residual=residual, bound=bound,
                norm_ok=norm_ok, ok=bool(norm_ok and residual <= bound),
            ))
    return RefinedInequalityReport(rows=tuple(rows), s_bar=s_bar_val,
                                   s_bar_source=source)


@dataclass(frozen=True)
class ReverseHolderReport:
    rows: tuple[tuple[int, float, float, bool], ...]  # (cutoff index, lhs, rhs, ok)
    s: float

    @property
    def all_within(self) -> bool:
        return all(r[3] for r in self.rows)


def reverse_holder_check(u_tail: Sequence[GridFunction], cutoffs: Sequence[GridFunction],
                         p: ExponentField, q: ExponentField,
                         s: float) -> ReverseHolderReport:
    """Check S * ||phi||_(q,nu) <= ||phi||_(p,mu) on the proxy measures.

    The last element of ``u_tail`` stands in for the limit, with node
    masses |u|^q(x) w and |grad u|^p(x) w.
    """
    m_nu, m_mu = _node_masses(u_tail[-1], p, q)
    rows = []
    for i, phi in enumerate(cutoffs):
        lhs = s * luxemburg_norm_measure(phi, q, m_nu).value
        rhs = luxemburg_norm_measure(phi, p, m_mu).value
        ok = lhs <= rhs * (1.0 + INEQUALITY_SLACK) + 1e-12
        rows.append((i, lhs, rhs, ok))
    return ReverseHolderReport(rows=tuple(rows), s=s)


# ---------------------------------------------------------------------------
# dichotomy classifier

@dataclass(frozen=True)
class DichotomyVerdict:
    """Alternative for a normalized sequence: converge or concentrate."""

    kind: str                    # strongly_convergent | single_atom | inconclusive
    center: tuple[float, ...] | None
    diffs: tuple[float, ...]
    atom_masses: tuple[tuple[float, ...], ...]   # per delta, masses along the sequence


def classify_dichotomy(terms: Sequence[GridFunction], q: ExponentField) -> DichotomyVerdict:
    """Classify a normalized sequence as convergent, one atom, or neither.

    Strong convergence: successive q-norm differences decrease and end
    below ``CONV_TOL``.  Single atom: the ball mass around the densest
    node reaches ``ATOM_THRESHOLD`` at both ``DELTA_CELLS`` probe radii
    (in cells) and grows along the sequence.  The thresholds are fixed
    heuristics; the raw diagnostics ride along in the verdict.
    """
    if len(terms) < 2:
        raise ValueError("need at least two sequence elements")
    dom = terms[0].domain
    for t in terms:
        if t.domain != dom:
            raise ValueError("sequence elements live on different domains")
        if abs(luxemburg_norm(t, q).value - 1.0) > NORMALIZATION_TOL:
            raise ValueError("sequence elements must have unit q-norm")

    diffs = tuple(
        luxemburg_norm(b.values - a.values, q).value
        for a, b in zip(terms, terms[1:])
    )
    non_increasing = all(d2 <= d1 * (1.0 + 1e-9) for d1, d2 in zip(diffs, diffs[1:]))
    if non_increasing and diffs[-1] < CONV_TOL:
        return DichotomyVerdict("strongly_convergent", None, diffs, ())

    rows = [[] for _ in DELTA_CELLS]
    for t in terms:
        dens = modular_density(t, q)
        for row, d_cells in zip(rows, DELTA_CELLS):
            center, _, mass = densest_ball(dens, dom, d_cells)
            row.append(mass)
    masses = tuple(tuple(row) for row in rows)
    atom_like = all(
        row[-1] >= ATOM_THRESHOLD
        and all(b >= a * (1.0 - 1e-6) for a, b in zip(row, row[1:]))
        for row in masses
    )
    if atom_like:
        return DichotomyVerdict("single_atom", center, diffs, masses)
    return DichotomyVerdict("inconclusive", None, diffs, masses)
