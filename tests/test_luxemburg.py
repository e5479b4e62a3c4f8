import math
import tracemalloc

import numpy as np
import pytest

import varexp.luxemburg as luxemburg_module
from varexp.exponents import ExponentField
from varexp.grid import GridFunction, ball, interval, rectangle
from varexp.luxemburg import (check_modular_norm_relations, holder_check,
                              luxemburg_norm, luxemburg_norm_measure, modular,
                              modular_density, norm_with_gradient, poincare_ratio)
from varexp.sobolev import bump

from conftest import random_smooth_values
from oracles import scalar_norm_root

# frozen: root of the 1D modular equation for u = 1 + x, p = 2 + x on (0,1),
# computed by brentq on a 1e4-point midpoint sum (see oracles.scalar_norm_root)
GOLDEN_VARIABLE_NORM = 1.5720306668528599


def _central_differences(fn, w, eps):
    fd = np.zeros_like(w)
    for idx in np.ndindex(w.shape):
        wp = w.copy(); wp[idx] += eps
        wm = w.copy(); wm[idx] -= eps
        fd[idx] = (fn(wp) - fn(wm)) / (2 * eps)
    return fd


class TestModular:
    def test_zero_field(self):
        dom = interval(0, 1, 32)
        p = ExponentField.constant(2.0, dom)
        assert modular(GridFunction(dom, np.zeros(dom.shape)), p) == 0.0

    def test_unit_field_gives_measure(self):
        dom = interval(0, 1, 64)
        for pf in (2.0, 3.7):
            p = ExponentField.constant(pf, dom)
            u = GridFunction(dom, np.ones(64))
            assert modular(u, p) == pytest.approx(1.0, abs=1e-14)

    def test_quadratic_closed_form(self):
        dom = interval(0, 1, 512)
        p = ExponentField.constant(2.0, dom)
        u = GridFunction(dom, dom.axes[0].copy())
        assert modular(u, p) == pytest.approx(1 / 3, abs=1e-5)

    def test_density_vanishes_without_mass(self):
        # a NaN off the ball carries no mass, so it is no error and adds 0
        dom = ball((0.0, 0.0), 1.0, 16)
        p = ExponentField.from_callable(lambda x, y: 2 + x * x, dom)
        vals = np.where(dom.inside, 1.0 + dom.meshes[0], np.nan)
        dens = modular_density(vals, p)
        assert np.all(dens[~dom.inside] == 0.0)
        assert np.array_equal(dens[dom.inside],
                              dom.weights[dom.inside] * np.abs(vals[dom.inside])
                              ** p.values[dom.inside])
        assert modular(vals, p) == float(dens.sum())

    def test_rejects_nan(self):
        dom = interval(0, 1, 16)
        p = ExponentField.constant(2.0, dom)
        vals = np.ones(16)
        vals[5] = np.inf
        with pytest.raises(ValueError):
            modular(vals, p)

    def test_rejects_overflowing_terms(self):
        # w |u|^q passes the float range on the bump's core: an error that
        # names the overflow, not an infinite modular or a numpy warning
        dom = rectangle(-1, 1, -1, 1, 64)
        q = ExponentField.constant(6.0, dom)
        u = GridFunction.radial(dom, bump, (0.0, 0.0), 0.5).values
        with pytest.raises(ValueError, match="overflows"):
            modular(1e80 * u, q)
        assert math.isfinite(modular(1e40 * u, q))

    def test_domain_mismatch(self):
        p = ExponentField.constant(2.0, interval(0, 1, 16))
        dom = interval(0, 1, 32)
        u = GridFunction(dom, np.zeros(dom.shape))
        with pytest.raises(ValueError):
            modular(u, p)


class TestLuxemburgNorm:
    def test_zero_is_zero(self):
        dom = interval(0, 1, 32)
        p = ExponentField.constant(2.0, dom)
        assert luxemburg_norm(GridFunction(dom, np.zeros(dom.shape)), p).value == 0.0

    def test_constant_on_unit_measure(self):
        dom = interval(0, 1, 512)
        p = ExponentField.constant(2.0, dom)
        u = GridFunction(dom, np.full(512, 3.0))
        res = luxemburg_norm(u, p)
        assert res.value == pytest.approx(3.0, rel=1e-10)
        assert res.iterations > 0
        assert res.bracket[0] <= res.value <= res.bracket[1]

    def test_golden_variable_exponent_value(self):
        dom = interval(0, 1, 10_000)
        p = ExponentField.from_callable(lambda x: 2.0 + x, dom)
        u = GridFunction.from_callable(dom, lambda x: 1.0 + x)
        res = luxemburg_norm(u, p)
        assert res.value == pytest.approx(GOLDEN_VARIABLE_NORM, rel=1e-11)

    def test_unit_modular_at_returned_value(self):
        rng = np.random.default_rng(7)
        dom = interval(0, 1, 128)
        p = ExponentField.from_callable(lambda x: 1.5 + 2 * x, dom)
        for _ in range(20):
            vals = random_smooth_values(dom, rng) * rng.uniform(0.01, 100)
            lam = luxemburg_norm(vals, p).value
            assert abs(modular(vals / lam, p) - 1.0) <= 1e-10

    def test_constant_exponent_consistency(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            res = int(rng.integers(32, 200))
            dom = interval(0, 1, res)
            pval = rng.uniform(1.1, 8.0)
            p = ExponentField.constant(pval, dom)
            vals = random_smooth_values(dom, rng) * rng.uniform(0.05, 20)
            direct = float(np.sum(dom.weights * np.abs(vals) ** pval)) ** (1 / pval)
            lam = luxemburg_norm(vals, p).value
            assert lam == pytest.approx(direct, rel=1e-10)

    def test_homogeneity(self):
        rng = np.random.default_rng(9)
        dom = rectangle(0, 1, 0, 1, 24)
        p = ExponentField.from_callable(lambda x, y: 2 + x + 0.5 * y, dom)
        vals = random_smooth_values(dom, rng)
        base = luxemburg_norm(vals, p).value
        for c in (-3.7, 0.11, 25.0):
            assert luxemburg_norm(c * vals, p).value == pytest.approx(
                abs(c) * base, rel=1e-9)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(10)
        dom = interval(0, 1, 96)
        p = ExponentField.from_callable(lambda x: 1.7 + x, dom)
        for _ in range(30):
            u = random_smooth_values(dom, rng)
            v = random_smooth_values(dom, rng)
            nu = luxemburg_norm(u, p).value
            nv = luxemburg_norm(v, p).value
            nuv = luxemburg_norm(u + v, p).value
            assert nuv <= nu + nv + 1e-9

    def test_modular_map_monotone_in_lambda(self):
        rng = np.random.default_rng(12)
        dom = interval(0, 1, 64)
        p = ExponentField.from_callable(lambda x: 2 + 0.5 * x, dom)
        vals = np.abs(random_smooth_values(dom, rng)) + 0.1
        lams = np.sort(rng.uniform(0.2, 5.0, 8))
        mods = [modular(vals / lam, p) for lam in lams]
        assert all(a > b for a, b in zip(mods, mods[1:]))

    def test_rejects_nan(self):
        dom = interval(0, 1, 16)
        p = ExponentField.constant(2.0, dom)
        vals = np.ones(16)
        vals[0] = np.nan
        with pytest.raises(ValueError):
            luxemburg_norm(vals, p)


class TestMeasureNorm:
    def test_quadrature_masses_match_plain_norm(self):
        rng = np.random.default_rng(13)
        dom = interval(0, 1, 128)
        p = ExponentField.from_callable(lambda x: 2 + x, dom)
        vals = random_smooth_values(dom, rng)
        a = luxemburg_norm(vals, p).value
        b = luxemburg_norm_measure(vals, p, dom.weights).value
        assert a == pytest.approx(b, rel=1e-12)

    def test_single_atom_constant_exponent(self):
        dom = interval(0, 1, 64)
        p = ExponentField.constant(2.0, dom)
        masses = np.zeros(64)
        masses[30] = 1.0
        vals = np.zeros(64)
        vals[30] = 0.7
        assert luxemburg_norm_measure(vals, p, masses).value == pytest.approx(0.7)

    def test_atom_mass_scaling(self):
        dom = interval(0, 1, 64)
        q = ExponentField.constant(6.0, dom)
        nu = 0.37
        masses = np.zeros(64)
        masses[10] = nu
        vals = np.zeros(64)
        vals[10] = 2.0
        expect = nu ** (1 / 6) * 2.0
        assert luxemburg_norm_measure(vals, q, masses).value == pytest.approx(expect)

    def test_solver_contract_over_amplitudes(self, monkeypatch):
        # unit modular, homogeneity and a tight certified bracket from 1e-300
        # to 1e300, for a strongly varying, a large constant and an atomic
        # exponent/mass pair; the evaluation counts are deterministic.  The
        # one warm start, a gradient solve started at the norm, takes at most 3
        evals = []
        newton = luxemburg_module._newton_norm

        def counting_newton(*args):
            out = newton(*args)
            evals.append(out[0].iterations)
            return out

        monkeypatch.setattr(luxemburg_module, "_newton_norm", counting_newton)
        dom = rectangle(-1, 1, -1, 1, 48)
        x, y = dom.meshes
        base = np.exp(-(x ** 2 + 2 * y ** 2)) * (1.2 + np.sin(3 * x))
        atoms = np.zeros(dom.shape)
        atoms[10, 20], atoms[30, 31] = 0.3, 1e-9
        varying = ExponentField.from_callable(lambda x, y: 1.2 + 6 * (x ** 2 + y ** 2), dom)
        cases = [(varying, dom.weights), (ExponentField.constant(40.0, dom), dom.weights),
                 (varying, atoms)]
        tol = 1e-12
        for p, masses in cases:
            unit_norm = luxemburg_norm_measure(base, p, masses).value
            for k in range(-300, 301, 50):
                amp = 10.0 ** k
                res = luxemburg_norm_measure(amp * base, p, masses)
                scaled = amp * base / res.value
                assert abs(np.sum(masses * np.abs(scaled) ** p.values) - 1.0) <= tol
                assert res.value / amp == pytest.approx(unit_norm, rel=1e-12)
                lo, hi = res.bracket
                assert lo <= res.value <= hi
                assert hi - lo <= 1e-12 * res.value
                assert 1 <= res.iterations <= 8
                if masses is dom.weights:
                    warm, _ = norm_with_gradient(amp * base, p, initial=res.value)
                    assert warm == pytest.approx(res.value, rel=1e-12)
                    assert 1 <= evals[-1] <= 3

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf], ids=["negative", "nan", "inf"])
    def test_rejects_negative_mass(self, bad):
        # anywhere in the array, also on a node where u = 0
        dom = interval(0, 1, 16)
        p = ExponentField.constant(2.0, dom)
        masses = np.full(16, 1.0 / 16)
        masses[5] = bad
        u = np.ones(16)
        for vals in (u, np.where(np.arange(16) == 5, 0.0, u)):
            with pytest.raises(ValueError, match="negative or non-finite mass"):
                luxemburg_norm_measure(vals, p, masses)


class TestNormGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(14)
        domains = [interval(0, 1, 40), rectangle(0, 1, 0, 2, (8, 9))]
        for trial in range(10):
            dom = domains[trial % 2]
            p = ExponentField.from_callable(
                lambda *xs: 1.6 + 0.8 * xs[0] + (0.3 * xs[1] if len(xs) > 1 else 0.0),
                dom)
            w = rng.uniform(0.3, 2.0, dom.shape) * rng.choice([-1.0, 1.0], dom.shape)
            lam, grad = norm_with_gradient(w, p)
            fd = _central_differences(
                lambda v: luxemburg_norm(v, p).value,
                w, 1e-6 * max(1.0, lam))
            rel = np.linalg.norm(grad - fd) / np.linalg.norm(fd)
            assert rel <= 1e-5

    def test_exact_zeros_and_tiny_samples(self):
        # a sample whose square underflows keeps a finite gradient entry;
        # the gradient vanishes where the samples do
        rng = np.random.default_rng(18)
        dom = rectangle(0, 1, 0, 2, (8, 9))
        p = ExponentField.from_callable(lambda x, y: 1.6 + 0.8 * x + 0.3 * y, dom)
        w = rng.uniform(0.3, 2.0, dom.shape) * rng.choice([-1.0, 1.0], dom.shape)
        w[rng.random(dom.shape) < 0.3] = 0.0
        w[3, 4] = 1e-170
        zeros = w == 0.0
        assert np.any(zeros)
        lam, grad = norm_with_gradient(w, p)
        assert lam == luxemburg_norm(w, p).value
        assert np.all(np.isfinite(grad))
        assert np.all(grad[zeros] == 0.0)
        fd = _central_differences(
            lambda v: luxemburg_norm(v, p).value, w, 1e-6 * lam)
        live = ~zeros
        rel = np.linalg.norm(grad[live] - fd[live]) / np.linalg.norm(fd[live])
        assert rel <= 1e-5

    def test_all_tiny_samples(self):
        # every square underflows; Euler's identity <grad, u> = ||u|| holds
        dom = interval(0, 1, 16)
        p = ExponentField.constant(2.0, dom)
        u = np.full(16, 1e-170)
        lam, grad = norm_with_gradient(u, p)
        assert lam == pytest.approx(luxemburg_norm(u, p).value, rel=1e-12)
        assert np.all(np.isfinite(grad))
        assert np.dot(grad, u) == pytest.approx(lam, rel=1e-12)

    def test_rejects_zero_field(self):
        dom = interval(0, 1, 16)
        p = ExponentField.constant(2.0, dom)
        with pytest.raises(ValueError):
            norm_with_gradient(np.zeros(16), p)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_nonfinite_sample(self, bad):
        dom = interval(0, 1, 16)
        p = ExponentField.constant(2.0, dom)
        u = np.ones(16)
        u[5] = bad
        with pytest.raises(ValueError, match="NaN/inf"):
            norm_with_gradient(u, p)


def _as_floats(out):
    """One entry point's output as a flat float array, for bitwise comparison."""
    if isinstance(out, tuple):                   # norm_with_gradient
        return np.append(out[1], out[0])
    if hasattr(out, "bracket"):                  # LuxemburgNorm
        return np.array([out.value, *out.bracket, out.iterations])
    return np.ravel(np.asarray(out, dtype=float))


ENTRY_POINTS = {
    "modular": lambda u, p: modular(u, p),
    "modular_density": lambda u, p: modular_density(u, p),
    "luxemburg_norm": lambda u, p: luxemburg_norm(u, p),
    "luxemburg_norm_measure": lambda u, p: luxemburg_norm_measure(u, p, p.domain.weights),
    "norm_with_gradient": lambda u, p: norm_with_gradient(u, p),
}


class TestSolverCore:
    @pytest.mark.parametrize("dom", [interval(0, 1, 40), rectangle(0, 1, 0, 2, (12, 9)),
                                     ball((0.1, -0.2), 0.8, 24)],
                             ids=["interval", "rectangle", "ball"])
    def test_quadrature_path_matches_measure_path_bitwise(self, dom):
        # luxemburg_norm adds the one log of the cell volume, the measure
        # path np.log of each weight: same value, bracket and iterations;
        # the gradient path gathers as luxemburg_norm does
        rng = np.random.default_rng(21)
        p = ExponentField.from_callable(lambda *xs: 1.7 + 0.6 * xs[0] ** 2 + 0.3 * xs[-1], dom)
        vals = random_smooth_values(dom, rng)
        vals[rng.random(dom.shape) < 0.2] = 0.0
        assert np.any(vals[dom.inside] == 0.0)
        nan_off = np.where(dom.inside, vals, np.nan)
        for u in (vals, nan_off):
            for amp in (1e-3, 1.0, 1e3):
                plain = luxemburg_norm(amp * u, p)
                assert plain == luxemburg_norm_measure(amp * u, p, dom.weights)
                assert plain.iterations >= 1
                assert norm_with_gradient(amp * u, p)[0] == plain.value

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_nonfinite_sample(self, entry, bad):
        # rejected on a node carrying mass; on a massless node it is
        # accepted and changes no bit of the output
        fn = ENTRY_POINTS[entry]
        dom = ball((0.0, 0.0), 1.0, 16)
        p = ExponentField.from_callable(lambda x, y: 2 + x * x, dom)
        clean = np.where(dom.inside, 1.0 + dom.meshes[0], 0.0)
        assert dom.inside[8, 8] and not dom.inside[0, 0]
        on, off = clean.copy(), clean.copy()
        on[8, 8] = bad
        off[0, 0] = bad
        with pytest.raises(ValueError, match="NaN/inf"):
            fn(on, p)
        assert np.array_equal(_as_floats(fn(off, p)), _as_floats(fn(clean, p)))

    @pytest.mark.parametrize("fn, budget", [(luxemburg_norm, 3.5),
                                            (norm_with_gradient, 5.5),
                                            (modular, 1.1)],
                             ids=["luxemburg_norm", "norm_with_gradient", "modular"])
    def test_allocation_budget(self, fn, budget):
        # peak bytes one call allocates, in float grid arrays, on a 256^2
        # variable-exponent field without zeros: the solve gathers |u| and
        # the exponents once and keeps one scratch buffer
        dom = rectangle(-1, 1, -1, 1, 256)
        x, y = dom.meshes
        p = ExponentField.from_callable(lambda x, y: 2 + 0.5 * np.cos(x + y), dom)
        u = np.exp(-(x ** 2 + y ** 2)) * (1.5 + np.sin(3 * x))
        fn(u, p)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn(u, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - base) / u.nbytes <= budget


class TestPointSetEntry:
    """The solver core over points that are not grid nodes: the midpoints
    between neighbouring nodes of a 1D grid, each with mass h."""

    @staticmethod
    def _midpoints(n=41, seed=22):
        rng = np.random.default_rng(seed)
        dom = interval(0, 1, n)
        vals = random_smooth_values(dom, rng)
        mid = 0.5 * (vals[:-1] + vals[1:])
        x = 0.5 * (dom.axes[0][:-1] + dom.axes[0][1:])
        return mid, x, dom.h[0]

    def test_constant_exponent_closed_form(self):
        mid, _, h = self._midpoints()
        for p in (1.5, 2.0, 6.0):
            res, _ = luxemburg_module._newton_norm(np.abs(mid), np.full(mid.size, p),
                                                   math.log(h), None)
            want = np.sum(h * np.abs(mid) ** p) ** (1 / p)
            assert res.value == pytest.approx(want, rel=1e-12)
            assert res.bracket[0] <= res.value <= res.bracket[1]

    def test_empty_set_is_the_zero_norm(self):
        res, _ = luxemburg_module._newton_norm(np.empty(0), np.empty(0), 0.0, None)
        assert res.value == 0.0 and res.bracket == (0.0, 0.0)
        assert res.iterations == 0

    def test_gradient_matches_central_differences(self):
        mid, x, h = self._midpoints()
        pw = 1.6 + 0.8 * x

        def norm(v):
            return luxemburg_module._newton_norm(np.abs(v), pw, math.log(h), None)[0].value

        res, scaled = luxemburg_module._newton_norm(np.abs(mid), pw, math.log(h), None)
        grad = scaled / mid
        fd = _central_differences(norm, mid, 1e-6 * max(1.0, res.value))
        assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) <= 1e-5

    def test_scalar_log_mass_matches_equal_array_bitwise(self):
        mid, x, h = self._midpoints()
        pw = 1.6 + 0.8 * x
        log_h = float(np.log(h))
        for initial in (None, 0.7):
            one = luxemburg_module._newton_norm(np.abs(mid), pw, log_h, initial)
            many = luxemburg_module._newton_norm(np.abs(mid), pw, np.full(mid.size, log_h),
                                                 initial)
            assert one[0] == many[0]
            assert np.array_equal(one[1], many[1])

    @pytest.mark.parametrize("entry", ["luxemburg_norm", "luxemburg_norm_measure",
                                       "norm_with_gradient"])
    def test_each_norm_is_one_entry_call(self, monkeypatch, entry):
        dom = rectangle(0, 1, 0, 2, (12, 9))
        p = ExponentField.from_callable(lambda x, y: 1.7 + 0.6 * x * y, dom)
        u = random_smooth_values(dom, np.random.default_rng(23))
        newton = luxemburg_module._newton_norm
        calls = []

        def counting_newton(*args):
            calls.append(args[0].size)
            return newton(*args)

        monkeypatch.setattr(luxemburg_module, "_newton_norm", counting_newton)
        ENTRY_POINTS[entry](u, p)
        assert calls == [np.count_nonzero(dom.inside & (u != 0))]


class TestRelations:
    def test_constant_exponent_equality_case(self):
        dom = interval(0, 1, 256)
        p = ExponentField.constant(2.0, dom)
        u = GridFunction(dom, np.full(256, 3.0))
        rep = check_modular_norm_relations(u, p)
        assert rep.norm == pytest.approx(3.0, rel=1e-10)
        assert rep.mod == pytest.approx(9.0, rel=1e-12)
        assert rep.all_hold

    def test_unit_norm_field(self):
        dom = interval(0, 1, 128)
        p = ExponentField.from_callable(lambda x: 2 + x, dom)
        raw = GridFunction.from_callable(dom, lambda x: 1 + np.sin(3 * x))
        lam = luxemburg_norm(raw, p).value
        unit = raw.with_values(raw.values / lam)
        assert abs(modular(unit, p) - 1.0) <= 1e-9
        rep = check_modular_norm_relations(unit, p)
        assert rep.all_hold

    @pytest.mark.parametrize("outside", [0.0, 1.0], ids=["all_zero", "off_mask_only"])
    def test_rejects_zero_on_nodes_with_mass(self, outside):
        # u != 0 is decided where the norm sees u: samples off the ball
        # carry no mass and do not make u nonzero
        dom = ball((0.0, 0.0), 1.0, 16)
        p = ExponentField.from_callable(lambda x, y: 2 + x * x, dom)
        vals = np.where(dom.inside, 0.0, outside)
        with pytest.raises(ValueError, match="u != 0"):
            check_modular_norm_relations(vals, p)

    def test_randomized_suite(self):
        rng = np.random.default_rng(15)
        dom = interval(0, 1, 64)
        p = ExponentField.from_callable(lambda x: 2 + x, dom)
        for _ in range(100):
            vals = random_smooth_values(dom, rng) * rng.uniform(1e-2, 1e2)
            if not np.any(vals):
                continue
            rep = check_modular_norm_relations(vals, p)
            assert rep.all_hold


class TestHolder:
    def test_constants_reach_equality(self):
        dom = interval(0, 1, 256)
        p = ExponentField.constant(4.0, dom)
        q = ExponentField.constant(4.0, dom)
        ones = GridFunction(dom, np.ones(256))
        rep = holder_check(ones, ones, p, q)
        assert rep.constant == pytest.approx(1.0)
        assert rep.lhs == pytest.approx(1.0, rel=1e-10)
        assert rep.rhs == pytest.approx(1.0, rel=1e-10)
        assert rep.satisfied

    def test_polynomials(self):
        dom = interval(0, 1, 256)
        p = ExponentField.constant(4.0, dom)
        q = ExponentField.constant(4.0, dom)
        x = dom.axes[0]
        rep = holder_check(GridFunction(dom, x.copy()),
                           GridFunction(dom, 1 - x), p, q)
        assert rep.satisfied

    def test_randomized_variable_exponents(self):
        rng = np.random.default_rng(16)
        dom = interval(0, 1, 96)
        p = ExponentField.from_callable(lambda x: 3 + x, dom)
        q = ExponentField.from_callable(lambda x: 3 - x, dom)
        for _ in range(100):
            f = random_smooth_values(dom, rng) * rng.uniform(0.1, 5)
            g = random_smooth_values(dom, rng) * rng.uniform(0.1, 5)
            assert holder_check(f, g, p, q).satisfied

    def test_rejects_s_at_most_one(self):
        dom = interval(0, 1, 32)
        p = ExponentField.constant(1.5, dom)
        q = ExponentField.constant(2.0, dom)   # 1/s = 2/3 + 1/2 => s < 1
        with pytest.raises(ValueError):
            holder_check(np.ones(32), np.ones(32), p, q)


class TestPoincare:
    def test_sine_eigenfunction(self):
        dom = interval(0, 1, 512)
        p = ExponentField.constant(2.0, dom)
        u = GridFunction.from_callable(dom, lambda x: np.sin(np.pi * x))
        assert poincare_ratio(u, p) == pytest.approx(1 / np.pi, rel=0.01)

    def test_parabola_closed_form(self):
        dom = interval(0, 1, 512)
        p = ExponentField.constant(2.0, dom)
        u = GridFunction.from_callable(dom, lambda x: x * (1 - x))
        assert poincare_ratio(u, p) == pytest.approx(10 ** -0.5, rel=0.01)

    def test_random_bumps_below_suite_bound(self):
        # empirical maximum over this seeded suite, frozen with margin
        rng = np.random.default_rng(17)
        dom = interval(0, 1, 256)
        p = ExponentField.from_callable(lambda x: 2 + x, dom)
        x = dom.axes[0]
        worst = 0.0
        for _ in range(20):
            c = rng.uniform(0.25, 0.75)
            r = rng.uniform(0.1, 0.25)
            vals = np.cos(np.clip(np.abs(x - c) / r, 0, 1) * np.pi / 2) ** 2
            ratio = poincare_ratio(GridFunction(dom, vals), p)
            assert ratio > 0
            worst = max(worst, ratio)
        assert worst <= 0.5

    def test_rejects_zero(self):
        dom = interval(0, 1, 32)
        p = ExponentField.constant(2.0, dom)
        with pytest.raises(ValueError):
            poincare_ratio(GridFunction(dom, np.zeros(dom.shape)), p)
