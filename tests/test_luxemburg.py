import math
import os
import tracemalloc

import numpy as np
import pytest

import varexp.luxemburg as luxemburg_module
from varexp.concentration import smooth_bump
from varexp.exponents import ExponentField
from varexp.grid import GridFunction, ball, interval, rectangle
from varexp.luxemburg import (check_modular_norm_relations, holder_check,
                              luxemburg_norm, luxemburg_norm_measure, modular,
                              modular_density, norm_with_gradient, poincare_ratio)

from conftest import count_evaluations, quadrature_masses, random_smooth_values
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


def _under_glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _under_glibc(), reason="the allocator policy applies under glibc only")
def test_cold_solves_reuse_freed_grid_memory():
    # importing varexp pins glibc's malloc thresholds, so the full-grid
    # temporaries of a cold solve come back from the heap: unpinned, 10
    # solves at 256^2 fault in thousands of fresh pages (at 128^2 the
    # arrays sit under glibc's initial 128 KiB threshold and none do)
    import resource
    dom = rectangle(-1, 1, -1, 1, 256)
    p = ExponentField.from_callable(lambda x, y: 1.8 + x * x + 0.5 * y, dom)
    u = random_smooth_values(dom, np.random.default_rng(5))
    luxemburg_norm(u, p)
    before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
    for _ in range(10):
        luxemburg_norm(u, p)
    assert resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before < 64


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
                              dom.cell * np.abs(vals[dom.inside])
                              ** p.values[dom.inside])
        assert modular(vals, p) == float(dens.sum())

    @pytest.mark.parametrize("where", ["bubble", "ball"])
    def test_density_matches_the_all_node_power_bitwise(self, where):
        # the power is taken on nonzero bases only; a zero keeps its 0, which
        # is 0^p bit for bit: a bubble at 256^2 is zero on most nodes, and a
        # ball has zeros inside and NaN off the domain
        if where == "bubble":
            dom = rectangle(-1, 1, -1, 1, 256)
            vals = GridFunction.radial(dom, smooth_bump, (0.1, -0.2), 0.15).values
        else:
            dom = ball((0.0, 0.0), 1.0, 64)
            x, y = dom.meshes
            vals = np.where(dom.inside, np.sin(3 * x) * (y > 0), np.nan)
        inside = dom.inside
        assert np.mean(vals[inside] == 0.0) > 0.4
        for p in (ExponentField.constant(6.0, dom),
                  ExponentField.from_callable(lambda x, y: 1.5 + x * x + 0.3 * y, dom)):
            every = np.zeros(dom.shape)
            np.abs(vals, out=every, where=inside)
            np.power(every, p.values, out=every)
            every *= dom.cell
            assert np.array_equal(modular_density(vals, p), every)

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
        u = GridFunction.radial(dom, smooth_bump, (0.0, 0.0), 0.5).values
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
            direct = float(np.sum(quadrature_masses(dom) * np.abs(vals) ** pval)) ** (1 / pval)
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
        b = luxemburg_norm_measure(vals, p, quadrature_masses(dom)).value
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
        evals = count_evaluations(monkeypatch)
        dom = rectangle(-1, 1, -1, 1, 48)
        x, y = dom.meshes
        base = np.exp(-(x ** 2 + 2 * y ** 2)) * (1.2 + np.sin(3 * x))
        atoms = np.zeros(dom.shape)
        atoms[10, 20], atoms[30, 31] = 0.3, 1e-9
        varying = ExponentField.from_callable(lambda x, y: 1.2 + 6 * (x ** 2 + y ** 2), dom)
        cells = quadrature_masses(dom)
        cases = [(varying, cells), (ExponentField.constant(40.0, dom), cells), (varying, atoms)]
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
                if masses is cells:
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
            lam, grad = norm_with_gradient(w, p, None)
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
        lam, grad = norm_with_gradient(w, p, None)
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
        lam, grad = norm_with_gradient(u, p, None)
        assert lam == pytest.approx(luxemburg_norm(u, p).value, rel=1e-12)
        assert np.all(np.isfinite(grad))
        assert np.dot(grad, u) == pytest.approx(lam, rel=1e-12)

    def test_rejects_zero_field(self):
        dom = interval(0, 1, 16)
        p = ExponentField.constant(2.0, dom)
        with pytest.raises(ValueError):
            norm_with_gradient(np.zeros(16), p, None)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_nonfinite_sample(self, bad):
        dom = interval(0, 1, 16)
        p = ExponentField.constant(2.0, dom)
        u = np.ones(16)
        u[5] = bad
        with pytest.raises(ValueError, match="NaN/inf"):
            norm_with_gradient(u, p, None)


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
    "luxemburg_norm_measure": lambda u, p: luxemburg_norm_measure(
        u, p, quadrature_masses(p.domain)),
    "norm_with_gradient": lambda u, p: norm_with_gradient(u, p, None),
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
                assert plain == luxemburg_norm_measure(amp * u, p, quadrature_masses(dom))
                assert plain.iterations >= 1
                assert norm_with_gradient(amp * u, p, None)[0] == plain.value

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

    @pytest.mark.parametrize("entry", ["luxemburg_norm", "luxemburg_norm_measure",
                                       "norm_with_gradient"])
    @pytest.mark.parametrize("p_func, want", [(lambda x: 2 + 0 * x, 7.071067811865474e+299),
                                              (lambda x: 2 + x, 7.351841967917299e+299)],
                             ids=["constant", "variable"])
    def test_ratio_underflowing_at_the_start(self, entry, p_func, want):
        # u = 1e300 | 1e-300: from the start lam = max |u| the ratio 1e-600
        # underflows to 0, whose log -inf weighs 0, with no warning (an error
        # under the test settings); the gradient is 0 on those nodes
        dom = interval(0, 1, 16)
        p = ExponentField.from_callable(p_func, dom)
        u = np.where(dom.axes[0] < 0.5, 1e300, 1e-300)
        out = ENTRY_POINTS[entry](u, p)
        if entry == "norm_with_gradient":
            value, grad = out
            assert np.all(grad[u == 1e-300] == 0.0) and np.all(grad[u == 1e300] > 0.0)
        else:
            value = out.value
        assert value == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("fn, budget", [(luxemburg_norm, 3.5),
                                            (ENTRY_POINTS["norm_with_gradient"], 5.5),
                                            (modular, 1.15)],
                             ids=["luxemburg_norm", "norm_with_gradient", "modular"])
    def test_allocation_budget(self, fn, budget):
        # peak bytes one call allocates, in float grid arrays, on a 256^2
        # variable-exponent field without zeros: the solve gathers |u| and
        # the exponents once and keeps one scratch buffer; the modular's
        # nonzero mask is a bool array, 1/8 of a float one
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

    @pytest.mark.parametrize("varying", [False, True], ids=["constant", "variable"])
    def test_masks_drop_what_carries_no_mass(self, monkeypatch, varying):
        # NaN and +-inf off the ball, zeros inside: the modular terms are
        # w |u|^p inside, bit for bit, and 0 elsewhere; the gradient is the
        # solver's terms divided by u on the solved nodes and 0 elsewhere
        dom = ball((0.0, 0.0), 1.0, 16)
        p = (ExponentField.from_callable(lambda x, y: 2 + x * x, dom) if varying
             else ExponentField.constant(2.5, dom))
        x, y = dom.meshes
        vals = np.where(dom.inside, 1.0 + x - np.sin(3 * y), np.nan)
        vals[dom.inside & (np.abs(x) < 0.2)] = 0.0
        outside = np.flatnonzero(~dom.inside)
        vals.flat[outside[::3]] = np.inf
        vals.flat[outside[1::3]] = -np.inf
        inside, sel = dom.inside, dom.inside & (vals != 0)
        assert np.any(inside & (vals == 0)) and np.any(np.isnan(vals))
        dens = modular_density(vals, p)
        assert np.array_equal(dens[inside],
                              dom.cell * np.abs(vals[inside]) ** p.values[inside])
        assert np.all(dens[~inside] == 0.0)

        newton, solved = luxemburg_module._newton_norm, []

        def recording(*args, **kwargs):
            out = newton(*args, **kwargs)
            solved.append(out[1].copy())
            return out

        monkeypatch.setattr(luxemburg_module, "_newton_norm", recording)
        _, grad = norm_with_gradient(vals, p, None)
        assert np.array_equal(grad[sel], solved[0] / vals[sel])
        assert np.all(grad[~sel] == 0.0)


class TestCertifiedExit:
    """The solve returns the Newton step's landing point once its residual
    is bounded by the stopping rule, so a constant exponent takes one
    evaluation from any start."""

    @pytest.mark.parametrize("dom", [interval(0, 1, 40), rectangle(0, 1, 0, 2, (12, 9)),
                                     ball((0.1, -0.2), 0.8, 24)],
                             ids=["interval", "rectangle", "ball"])
    def test_constant_exponent_takes_one_evaluation(self, monkeypatch, dom):
        evals = count_evaluations(monkeypatch)
        u = random_smooth_values(dom, np.random.default_rng(31))
        atoms = np.zeros(dom.shape)
        atoms.flat[np.flatnonzero(dom.inside)[::7]] = 0.3
        solves = 0
        for pf in (1.5, 6.0, 40.0):
            p = ExponentField.constant(pf, dom)
            for amp in (1e-200, 1.0, 1e200):
                cold = luxemburg_norm(amp * u, p)
                assert cold.bracket == (cold.value, cold.value)
                assert luxemburg_norm_measure(amp * u, p, atoms).iterations == 1
                for start in (None, cold.value, 0.5 * cold.value, 1e10 * cold.value):
                    warm, _ = norm_with_gradient(amp * u, p, start)
                    assert warm == pytest.approx(cold.value, rel=1e-13)
                solves += 6
        assert evals == [1] * solves

    def test_variable_exit_brackets_the_continued_root(self, monkeypatch):
        # started 8e-6 and 1e-5 (in log) off the root, the model's first step
        # exits with a two-sided bracket of a hundred ulps or more on each
        # side; one more evaluation from the returned value lands inside it,
        # to rounding
        evals = count_evaluations(monkeypatch)
        eps = np.finfo(float).eps
        dom = rectangle(-1, 1, -1, 1, 48)
        x, y = dom.meshes
        u = np.exp(-(x ** 2 + 2 * y ** 2)) * (1.2 + np.sin(3 * x))
        p = ExponentField.from_callable(lambda x, y: 1.2 + 6 * (x ** 2 + y ** 2), dom)
        a, pw, log_w = u[dom.inside], p.values[dom.inside], math.log(dom.cell)
        root = luxemburg_norm(u, p).value
        assert evals[-1] > 1
        widths = []
        for start in [root * math.exp(d) for d in (-1e-5, -8e-6, 8e-6, 1e-5)] + [None]:
            res, _ = luxemburg_module._newton_norm(a.copy(), pw, log_w, start)
            lo, hi = res.bracket
            assert lo <= res.value <= hi
            assert res.value / lo == pytest.approx(hi / res.value, rel=4 * eps)
            widths.append(min(res.value - lo, hi - res.value) / res.value)
            more, _ = luxemburg_module._newton_norm(a.copy(), pw, log_w, res.value)
            assert lo * (1 - 4 * eps) <= more.value <= hi * (1 + 4 * eps)
            unit = float(np.sum(quadrature_masses(dom) * np.abs(u / res.value) ** p.values))
            assert abs(unit - 1.0) <= luxemburg_module.TOL_MODULAR
        assert min(widths[:4]) > 100 * eps
        assert evals[1::2] == [1, 1, 1, 1, evals[0]] and evals[2::2] == [1] * 5

    def test_cold_variable_solves_take_two_evaluations(self, monkeypatch):
        # 13 amplitudes over six decades of 2 + 0.5 cos(x + y): each cold
        # solve takes a first step and exits after the second; every bracket
        # is two-sided and holds the continued root
        evals = count_evaluations(monkeypatch)
        eps = np.finfo(float).eps
        dom = rectangle(-1, 1, -1, 1, 48)
        x, y = dom.meshes
        p = ExponentField.from_callable(lambda x, y: 2 + 0.5 * np.cos(x + y), dom)
        base = np.exp(-(x ** 2 + 2 * y ** 2)) * (1.2 + np.sin(3 * x))
        a, pw, log_w = base[dom.inside], p.values[dom.inside], math.log(dom.cell)
        for k in range(13):
            amp = 10.0 ** (k / 2 - 3)
            res = luxemburg_norm(amp * base, p)
            lo, hi = res.bracket
            assert lo <= res.value <= hi
            assert res.value / lo == pytest.approx(hi / res.value, rel=4 * eps)
            more, _ = luxemburg_module._newton_norm(amp * a, pw, log_w, res.value)
            assert lo * (1 - 4 * eps) <= more.value <= hi * (1 + 4 * eps)
        assert evals[::2] == [2] * 13

    def test_newton_step_where_the_model_has_no_root(self):
        # p = 1.5 | 40 started below the root: the rho-weights are split
        # between the two exponents, the model's discriminant is negative,
        # and the solve steps by Newton until the model takes over
        dom = interval(0, 1, 64)
        x, = dom.meshes
        u = np.where(x < 0.5, 1.0, 0.3)
        p = ExponentField.from_callable(lambda x: np.where(x < 0.5, 1.5, 40.0), dom)
        a, pw, log_w = u[dom.inside], p.values[dom.inside], math.log(dom.cell)
        start = 0.3
        e = np.log(a / start) * pw + log_w
        weights = np.exp(e - e.max())
        weights /= weights.sum()
        mean = weights @ pw
        assert mean ** 2 - 2 * (weights @ (pw - mean) ** 2) * np.logaddexp.reduce(e) < 0
        cold = luxemburg_norm(u, p)
        res, _ = luxemburg_module._newton_norm(a.copy(), pw, log_w, start)
        assert res.value == pytest.approx(cold.value, rel=1e-14)
        assert res.bracket[0] <= res.value <= res.bracket[1]


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

        res, scaled = luxemburg_module._newton_norm(np.abs(mid), pw, math.log(h), None,
                                                    gradient=True)
        grad = scaled / mid
        fd = _central_differences(norm, mid, 1e-6 * max(1.0, res.value))
        assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) <= 1e-5
        # a value-only solve returns the same result and forms no gradient
        assert luxemburg_module._newton_norm(np.abs(mid), pw, math.log(h), None) == (res, None)

    def test_scalar_log_mass_matches_equal_array_bitwise(self):
        mid, x, h = self._midpoints()
        pw = 1.6 + 0.8 * x
        log_h = float(np.log(h))
        for initial in (None, 0.7):
            one = luxemburg_module._newton_norm(np.abs(mid), pw, log_h, initial,
                                                gradient=True)
            many = luxemburg_module._newton_norm(np.abs(mid), pw, np.full(mid.size, log_h),
                                                 initial, gradient=True)
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

        def counting_newton(*args, **kwargs):
            calls.append(args[0].size)
            return newton(*args, **kwargs)

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
        # a norm within the slack of 1 whose modular is past it: rho - 1 is
        # about 2.5 * 5e-10, inside the trichotomy's 10x slack
        near = check_modular_norm_relations(unit.values * (1 + 5e-10), p)
        assert abs(near.norm - 1) <= luxemburg_module.RELATIONS_SLACK < near.mod - 1
        assert near.all_hold

    @pytest.mark.parametrize("outside", [0.0, 1.0], ids=["all_zero", "off_mask_only"])
    def test_rejects_zero_on_nodes_with_mass(self, outside):
        # u != 0 is decided where the norm sees u: samples off the ball
        # carry no mass and do not make u nonzero
        dom = ball((0.0, 0.0), 1.0, 16)
        p = ExponentField.from_callable(lambda x, y: 2 + x * x, dom)
        vals = np.where(dom.inside, 0.0, outside)
        with pytest.raises(ValueError, match="u != 0"):
            check_modular_norm_relations(vals, p)

    def test_norm_power_past_the_float_range(self):
        # ||u||^p+ is about 1e780: the bounds are judged in log form
        dom = interval(0, 1, 16)
        p = ExponentField.from_callable(lambda x: 2 + 6 * x, dom)
        u = GridFunction.from_callable(dom, lambda x: np.where(x < 0.2, 1e100, 0.0))
        assert check_modular_norm_relations(u, p).all_hold

    def test_modular_underflowing_to_zero(self):
        # every node term w |u|^p underflows, so the float modular is 0; every
        # relation, the scalings included, reads log rho from the node terms
        dom = interval(0, 1, 16)
        p = ExponentField.from_callable(lambda x: 2 + 6 * x, dom)
        u = GridFunction.from_callable(dom, lambda x: np.where(x < 0.2, 1e-200, 0.0))
        rep = check_modular_norm_relations(u, p)
        assert rep.mod == 0.0 and rep.norm > 0
        assert rep.all_hold

    @pytest.mark.parametrize("u, mod", [(4e102, 6.4e307), (1e103, math.inf),
                                        (4e307, math.inf), (1e-323, 0.0)],
                             ids=["scaled_modular_overflows", "modular_overflows",
                                  "scaled_field_overflows", "scaled_field_underflows"])
    def test_scaled_modular_past_the_float_range(self, u, mod):
        # rho(u) = 6.4e307 fits and rho(8u) does not, or rho(u) = 1e309 does
        # not either: the relations are judged in logs, and mod is exp(log rho);
        # 8u = 3.2e308 and u/8 (below the least subnormal) leave the float
        # range too, and their norms are solved on binade shifts of u
        dom = interval(0, 1, 16)
        p = ExponentField.constant(3.0, dom)
        rep = check_modular_norm_relations(np.full(16, u), p)
        assert rep.mod == pytest.approx(mod, rel=1e-12)
        assert rep.all_hold

    @pytest.mark.parametrize("dom", [interval(0, 1, 40), ball((0.0, 0.0), 1.0, 24)],
                             ids=["interval", "ball"])
    def test_reads_u_once(self, monkeypatch, dom):
        # one gather; the seven scalings are solved on copies of the gathered set
        p = ExponentField.from_callable(lambda *xs: 2 + 0.5 * xs[0] ** 2, dom)
        u = random_smooth_values(dom, np.random.default_rng(31))
        gathers, solves = [], []
        gather, newton = luxemburg_module._gather, luxemburg_module._newton_norm
        monkeypatch.setattr(luxemburg_module, "_gather",
                            lambda *args: gathers.append(1) or gather(*args))
        monkeypatch.setattr(luxemburg_module, "_newton_norm", lambda *args, **kw:
                            solves.append(args[0].size) or newton(*args, **kw))
        rep = check_modular_norm_relations(u, p)
        assert rep.all_hold
        assert len(gathers) == 1
        assert solves == [np.count_nonzero(dom.inside & (u != 0))] * 7
        assert rep.norm == luxemburg_norm(u, p).value

    def test_never_forms_the_float_modular(self, monkeypatch):
        # the reported modular is exp of the judged log-modular
        dom = interval(0, 1, 64)
        p = ExponentField.from_callable(lambda x: 2 + x, dom)
        calls = []
        real = luxemburg_module.modular
        monkeypatch.setattr(luxemburg_module, "modular",
                            lambda *args: calls.append(1) or real(*args))
        assert check_modular_norm_relations(np.full(64, 3.0), p).all_hold
        assert not calls

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
            assert rep.mod == pytest.approx(modular(vals, p), rel=1e-12)


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


# each input check of the module: the call that trips it and its message
INPUT_CHECKS = {
    "sample_shape": (lambda p: luxemburg_norm(np.ones(8), p), "sample array does not match"),
    "mass_shape": (lambda p: luxemburg_norm_measure(np.ones(16), p, np.ones(8)),
                   "mass array does not match"),
    "holder_domains": (lambda p: holder_check(
        np.ones(16), np.ones(32), p, ExponentField.constant(3.0, interval(0, 1, 32))),
        "p and q live on different domains"),
}


@pytest.mark.parametrize("check", sorted(INPUT_CHECKS))
def test_input_checks(check):
    call, message = INPUT_CHECKS[check]
    with pytest.raises(ValueError, match=message):
        call(ExponentField.constant(3.0, interval(0, 1, 16)))
