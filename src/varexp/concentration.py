"""Synthetic concentrating sequences and limit-measure diagnostics.

A bubble sequence rescales a radial profile around a center point,
u_n = scale_n^(-N/p*(x0)) * profile(|x - x0| / scale_n), renormalized to
unit norm in the target space.  On a grid the weak-* limit measures are
inaccessible, so the smallest-scale element stands proxy for them; the
checks here therefore assert inequalities with a documented slack and
monotone trends over the scale list rather than true limits.

Masses of the density |u|^q(x) dx (and |grad u|^p(x) dx) over small
balls feed three diagnostics: the atom-scale inequality
s_bar * nu^(1/q(x0)) <= mu^(1/p(x0)), the measure-norm reverse-Holder
inequality S * ||phi||_(q,nu) <= ||phi||_(p,mu), and the alternative
classifier (strong convergence versus a single atom).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .exponents import ExponentField, critical_exponent
from .grid import GridFunction, gradient_magnitude
from .luxemburg import luxemburg_norm, luxemburg_norm_measure
from .sobolev import bump, talenti_constant

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
    "profile_from_spec",
    "make_bubbles",
    "measure_masses",
    "detect_atoms",
    "check_refined_inequality",
    "reverse_holder_check",
    "classify_dichotomy",
]

NORMALIZATION_TOL = 1e-6


# ---------------------------------------------------------------------------
# radial profiles (functions of rho = |x - x0| / scale, zero for rho >= 1)

def smooth_bump(rho):
    """cos^2 bump: value 1 at the center, C^1 at the support edge.

    The formula lives in ``sobolev.bump`` (the descent starts use it too);
    this is its name as a concentration profile.
    """
    return bump(rho)


def mollifier(rho):
    """The classic C-infinity bump exp(1 - 1/(1 - rho^2))."""
    rho = np.asarray(rho, dtype=float)
    out = np.zeros_like(rho)
    m = rho < 1.0
    out[m] = np.exp(1.0 - 1.0 / (1.0 - rho[m] ** 2))
    return out


def talenti_profile(n: int, r: float, core: float = 0.25,
                    inner: float = 0.6) -> Callable:
    """Truncated extremal-shaped profile for the constant-exponent quotient.

    (1 + (rho/core)^(r/(r-1)))^(-(n-r)/r), tapered to zero between
    ``inner`` and 1 so the result is compactly supported.
    """
    if not 1.0 < r < n:
        raise ValueError("need 1 < r < n")
    expo = r / (r - 1.0)
    power = (n - r) / r

    def profile(rho):
        rho = np.asarray(rho, dtype=float)
        out = np.zeros_like(rho)
        m = rho < 1.0
        u = (1.0 + (rho[m] / core) ** expo) ** (-power)
        taper = np.ones_like(u)
        t = rho[m] > inner
        taper[t] = np.cos(0.5 * np.pi * (rho[m][t] - inner) / (1.0 - inner)) ** 2
        out[m] = u * taper
        return out

    return profile


def cutoff_profile(plateau: float = 0.5) -> Callable:
    """Radial cutoff: 1 up to ``plateau``, cos^2 taper to 0 at 1."""

    def profile(rho):
        rho = np.asarray(rho, dtype=float)
        out = np.zeros_like(rho)
        m = rho < 1.0
        vals = np.ones(int(m.sum()))
        t = rho[m] > plateau
        vals[t] = np.cos(0.5 * np.pi * (rho[m][t] - plateau) / (1.0 - plateau)) ** 2
        out[m] = vals
        return out

    return profile


def profile_from_spec(spec) -> Callable:
    """Build a radial profile from a config dict like {"name": "bump"}."""
    if callable(spec):
        return spec
    name = spec["name"] if isinstance(spec, dict) else str(spec)
    if name == "bump":
        return smooth_bump
    if name == "mollifier":
        return mollifier
    if name == "talenti":
        return talenti_profile(
            int(spec.get("n", 2)), float(spec.get("r", 1.5)),
            core=float(spec.get("core", 0.25)), inner=float(spec.get("inner", 0.6)),
        )
    if name == "cutoff":
        plateau = float(spec.get("plateau", 0.5)) if isinstance(spec, dict) else 0.5
        return cutoff_profile(plateau)
    raise ValueError(f"unknown profile {name!r}")


# ---------------------------------------------------------------------------
# bubble sequences

@dataclass(frozen=True)
class BubbleSequence:
    """Rescaled-profile sequence, each term normalized in the q-norm."""

    center: tuple[float, ...]
    scales: tuple[float, ...]
    profile: Callable
    terms: tuple[GridFunction, ...]
    prenorm: tuple[float, ...]   # q-norms of the raw rescaled terms

    def __len__(self):
        return len(self.terms)


def make_bubbles(profile, x0, scales, p: ExponentField, q: ExponentField) -> BubbleSequence:
    """Construct and normalize the rescaled-profile sequence.

    Terms are sampled by evaluating the analytic profile at rescaled
    node coordinates (no grid interpolation), so halving the scale
    exactly halves the support radius.
    """
    if p.domain != q.domain:
        raise ValueError("p and q live on different domains")
    dom = p.domain
    profile = profile_from_spec(profile)
    x0 = (float(x0),) if np.isscalar(x0) else tuple(float(c) for c in x0)
    scales = [float(s) for s in scales]
    if any(b >= a for a, b in zip(scales, scales[1:])):
        raise ValueError("scales must be strictly decreasing")
    if 2.0 * scales[-1] < 8.0 * max(dom.h):
        raise ValueError("smallest scale is under-resolved (needs 8 cells across)")
    idx = tuple(int(np.argmin(np.abs(ax - c))) for ax, c in zip(dom.axes, x0))
    if not dom.interior[idx]:
        raise ValueError("bubble center must be an interior point of the domain")

    n = dom.dim
    p0 = p.value_at(x0)
    if p0 >= n:
        raise ValueError("bubble normalization needs p(x0) < N")
    pstar0 = critical_exponent(p0, n)
    rho = dom.distance_from(x0)

    terms = []
    prenorm = []
    for lam in scales:
        raw = lam ** (-n / pstar0) * profile(rho / lam)
        f = GridFunction(dom, raw, dirichlet=True)
        nq = luxemburg_norm(f, q).value
        if nq == 0.0:
            raise ValueError(f"rescaled profile vanishes on the grid at scale {lam}")
        prenorm.append(nq)
        terms.append(f.with_values(f.values / nq))
    return BubbleSequence(
        center=x0, scales=tuple(scales), profile=profile,
        terms=tuple(terms), prenorm=tuple(prenorm),
    )


# ---------------------------------------------------------------------------
# ball masses and atoms

class MassPair(NamedTuple):
    nu: float
    mu: float


def measure_masses(u: GridFunction, p: ExponentField, q: ExponentField,
                   x0, delta: float) -> MassPair:
    """Masses of |u|^q dx and |grad u|^p dx over the ball B_delta(x0)."""
    dom = u.domain
    if delta < 2.0 * max(dom.h):
        raise ValueError("ball radius must span at least 2 cells")
    x0 = (float(x0),) if np.isscalar(x0) else tuple(float(c) for c in x0)
    from .grid import ball as _ball
    probe = _ball(x0 if dom.dim == 2 else x0[0], delta, 4)
    if not dom.contains(probe):
        warnings.warn(f"ball of radius {delta} at {x0} exits the domain; clipped",
                      stacklevel=2)
    sel = dom.distance_from(x0) <= delta
    w = dom.weights
    nu = float(np.sum((w * np.abs(u.values) ** q.values)[sel]))
    mag = gradient_magnitude(u)
    mu = float(np.sum((w * mag ** p.values)[sel]))
    return MassPair(nu, mu)


@dataclass(frozen=True)
class Atom:
    point: tuple[float, ...]
    nu: float
    mu: float
    residual: float | None


@dataclass(frozen=True)
class AtomReport:
    """Detected concentration atoms and the leftover diffuse mass."""

    atoms: tuple[Atom, ...]
    ac_mass: float
    total_nu: float
    delta: float


def detect_atoms(u: GridFunction, p: ExponentField, q: ExponentField, *,
                 delta: float | None = None, mass_threshold: float = 0.25,
                 max_atoms: int = 4, s_bar=None) -> AtomReport:
    """Greedy ball-mass scan for atoms of the density |u|^q dx.

    Repeatedly takes the densest remaining node, records the ball mass
    around it if it exceeds ``mass_threshold`` of the total, and masks
    that ball out.  ``s_bar`` (float or callable of the atom location)
    switches on the residual s_bar * nu^(1/q(x)) - mu^(1/p(x)).
    """
    dom = u.domain
    if delta is None:
        delta = 4.0 * max(dom.h)
    dens = dom.weights * np.abs(u.values) ** q.values
    total = float(dens.sum())
    mag = gradient_magnitude(u)
    mu_dens = dom.weights * mag ** p.values
    live = dens.copy()
    atoms = []
    for _ in range(max_atoms):
        if total <= 0 or live.max() <= 0:
            break
        idx = np.unravel_index(int(np.argmax(live)), live.shape)
        point = tuple(float(ax[i]) for ax, i in zip(dom.axes, idx))
        sel = dom.distance_from(point) <= delta
        nu = float(live[sel].sum())
        if nu < mass_threshold * total:
            break
        mu = float(mu_dens[sel].sum())
        residual = None
        if s_bar is not None:
            sb = s_bar(point) if callable(s_bar) else float(s_bar)
            residual = sb * nu ** (1.0 / q.value_at(point)) \
                - mu ** (1.0 / p.value_at(point))
        atoms.append(Atom(point=point, nu=nu, mu=mu, residual=residual))
        live = np.where(sel, 0.0, live)
    ac_mass = total - sum(a.nu for a in atoms)
    return AtomReport(atoms=tuple(atoms), ac_mass=ac_mass, total_nu=total, delta=delta)


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
    """Residual table for s_bar * nu^(1/q(x0)) <= mu^(1/p(x0)) + slack."""

    rows: tuple[RefinedRow, ...]
    s_bar: float
    s_bar_source: str
    slack: float

    @property
    def all_within(self) -> bool:
        return all(r.ok for r in self.rows)

    @property
    def normalization_violation(self) -> bool:
        return any(not r.norm_ok for r in self.rows)


def check_refined_inequality(seq: BubbleSequence, p: ExponentField,
                             q: ExponentField, s_bar: float | None = None,
                             delta_list: Sequence[float] = (),
                             slack: float = 0.05) -> RefinedInequalityReport:
    """Evaluate the atom-scale inequality on every (scale, delta) cell.

    ``s_bar`` defaults to the sharp constant-exponent constant at p(x0)
    (appropriate when the localized limit equals it); a caller holding a
    localized estimate passes it explicitly.  Terms failing the
    unit-norm check are flagged rather than scored, so a broken
    normalization is reported as such and not as an inequality failure.
    """
    if not delta_list:
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
        for delta in delta_list:
            nu, mu = measure_masses(term, p, q, x0, delta)
            bound = slack * mu ** (1.0 / px0)
            residual = s_bar_val * nu ** (1.0 / qx0) - mu ** (1.0 / px0)
            rows.append(RefinedRow(
                scale=lam, delta=float(delta), nu=nu, mu=mu,
                residual=residual, bound=bound,
                norm_ok=norm_ok, ok=bool(norm_ok and residual <= bound),
            ))
    return RefinedInequalityReport(rows=tuple(rows), s_bar=s_bar_val,
                                   s_bar_source=source, slack=slack)


@dataclass(frozen=True)
class ReverseHolderReport:
    rows: tuple[tuple[int, float, float, bool], ...]  # (cutoff index, lhs, rhs, ok)
    s: float
    slack: float

    @property
    def all_within(self) -> bool:
        return all(r[3] for r in self.rows)


def reverse_holder_check(u_tail, cutoffs: Sequence,
                         p: ExponentField, q: ExponentField, s: float,
                         slack: float = 0.05) -> ReverseHolderReport:
    """Check S * ||phi||_(q,nu) <= ||phi||_(p,mu) on the proxy measures.

    The last element of ``u_tail`` stands in for the limit, with node
    masses |u|^q(x) w and |grad u|^p(x) w.
    """
    u = u_tail[-1] if isinstance(u_tail, (list, tuple)) else u_tail
    dom = u.domain
    w = dom.weights
    m_nu = w * np.abs(u.values) ** q.values
    m_mu = w * gradient_magnitude(u) ** p.values
    rows = []
    for i, phi in enumerate(cutoffs):
        pv = phi.values if isinstance(phi, GridFunction) else np.asarray(phi, float)
        lhs = s * luxemburg_norm_measure(pv, q, m_nu).value
        rhs = luxemburg_norm_measure(pv, p, m_mu).value
        ok = lhs <= rhs * (1.0 + slack) + 1e-12
        rows.append((i, lhs, rhs, ok))
    return ReverseHolderReport(rows=tuple(rows), s=s, slack=slack)


# ---------------------------------------------------------------------------
# dichotomy classifier

@dataclass(frozen=True)
class DichotomyVerdict:
    """Alternative for a normalized sequence: converge or concentrate."""

    kind: str                    # strongly_convergent | single_atom | inconclusive
    center: tuple[float, ...] | None
    diffs: tuple[float, ...]
    atom_masses: tuple[tuple[float, ...], ...]   # per delta, masses along the sequence


def classify_dichotomy(terms: Sequence[GridFunction], p: ExponentField,
                       q: ExponentField, *, atom_threshold: float = 0.9,
                       delta_cells: tuple[float, float] = (4.0, 8.0),
                       conv_tol: float = 1e-3) -> DichotomyVerdict:
    """Classify a normalized sequence as convergent, one atom, or neither.

    Strong convergence: successive q-norm differences decrease and end
    below ``conv_tol``.  Single atom: the ball mass around the densest
    node reaches ``atom_threshold`` at both probe radii (in cells) and
    grows along the sequence.  The thresholds are heuristics; the raw
    diagnostics ride along in the verdict.
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
    if non_increasing and diffs[-1] < conv_tol:
        return DichotomyVerdict("strongly_convergent", None, diffs, ())

    masses = []
    centers = []
    for d_cells in delta_cells:
        delta = d_cells * max(dom.h)
        row = []
        for t in terms:
            dens = dom.weights * np.abs(t.values) ** q.values
            idx = np.unravel_index(int(np.argmax(dens)), dens.shape)
            c = tuple(float(ax[i]) for ax, i in zip(dom.axes, idx))
            sel = dom.distance_from(c) <= delta
            row.append(float(dens[sel].sum()))
        masses.append(tuple(row))
        centers.append(c)
    atom_like = all(
        row[-1] >= atom_threshold
        and all(b >= a * (1.0 - 1e-6) for a, b in zip(row, row[1:]))
        for row in masses
    )
    if atom_like:
        return DichotomyVerdict("single_atom", centers[0], diffs, tuple(masses))
    return DichotomyVerdict("inconclusive", None, diffs, tuple(masses))
