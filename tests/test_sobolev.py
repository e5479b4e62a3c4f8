import numpy as np
import pytest
import scipy.sparse.linalg as spla

import varexp.luxemburg as luxemburg_module
import varexp.sobolev as sobolev_module
from varexp.exponents import ExponentField
from varexp.grid import GridFunction, ball, interval, rectangle
from varexp.luxemburg import luxemburg_norm
from varexp.sobolev import (_stiffness_matrix, _stiffness_solve,
                            domain_monotonicity_check, inf_talenti_over_range,
                            localized_constant, minimize_sobolev,
                            rayleigh_quotient, talenti_constant)

from conftest import random_smooth_values
from oracles import dense_scan_min, radial_sharp_constant


def _fields(dom, pf, qf):
    return (ExponentField.constant(pf, dom) if np.isscalar(pf)
            else ExponentField.from_callable(pf, dom),
            ExponentField.constant(qf, dom) if np.isscalar(qf)
            else ExponentField.from_callable(qf, dom))


class TestRayleighQuotient:
    def test_sine_gives_pi(self):
        dom = interval(0, 1, 512)
        p, q = _fields(dom, 2.0, 2.0)
        v = GridFunction.from_callable(dom, lambda x: np.sin(np.pi * x))
        assert rayleigh_quotient(v, p, q) == pytest.approx(np.pi, rel=0.01)

    def test_scale_invariance(self):
        rng = np.random.default_rng(21)
        dom = interval(0, 1, 128)
        p, q = _fields(dom, lambda x: 2 + x, lambda x: 2.5 - x)
        v = GridFunction(dom, random_smooth_values(dom, rng), dirichlet=True)
        base = rayleigh_quotient(v, p, q)
        for c in (-2.0, 0.3, 10.0):
            w = v.with_values(c * v.values)
            assert rayleigh_quotient(w, p, q) == pytest.approx(base, rel=1e-9)

    def test_parabola_closed_form(self):
        dom = interval(0, 1, 512)
        p, q = _fields(dom, 2.0, 2.0)
        v = GridFunction.from_callable(dom, lambda x: x * (1 - x))
        assert rayleigh_quotient(v, p, q) == pytest.approx(np.sqrt(10), rel=0.01)

    def test_rejects_zero(self):
        dom = interval(0, 1, 32)
        p, q = _fields(dom, 2.0, 2.0)
        with pytest.raises(ValueError):
            rayleigh_quotient(GridFunction.zeros(dom), p, q)


class TestMinimize:
    def test_dirichlet_eigenvalue_unit_interval(self):
        dom = interval(0, 1, 512)
        est = minimize_sobolev(2.0, 2.0, dom, seed=0)
        assert est.value == pytest.approx(np.pi, rel=0.02)
        assert all(b <= a + 1e-12 for a, b in zip(est.trace, est.trace[1:]))
        p, q = _fields(dom, 2.0, 2.0)
        assert luxemburg_norm(est.minimizer, q).value == pytest.approx(1.0, abs=1e-6)
        assert rayleigh_quotient(est.minimizer, p, q) == pytest.approx(
            est.value, rel=1e-6)

    def test_eigenvalue_scaling_with_length(self):
        dom = interval(0, 2, 512)
        est = minimize_sobolev(2.0, 2.0, dom, seed=0)
        assert est.value == pytest.approx(np.pi / 2, rel=0.02)

    def test_estimate_below_random_quotients(self):
        rng = np.random.default_rng(22)
        dom = interval(0, 1, 256)
        p, q = _fields(dom, lambda x: 2 + 0.5 * x, lambda x: 2.2 - 0.4 * x)
        est = minimize_sobolev(p, q, seed=0)
        for _ in range(50):
            v = GridFunction(dom, random_smooth_values(dom, rng), dirichlet=True)
            if v.is_zero():
                continue
            assert est.value <= rayleigh_quotient(v, p, q) + 1e-7

    def test_step_rules_agree(self):
        dom = interval(0, 1, 128)
        a = minimize_sobolev(2.0, 2.0, dom, seed=0, step_rule="preconditioned")
        b = minimize_sobolev(2.0, 2.0, dom, seed=0, step_rule="plain",
                             max_iters=2000, patience=50)
        assert a.value == pytest.approx(np.pi, rel=0.02)
        assert b.value == pytest.approx(np.pi, rel=0.05)

    def test_rejects_unknown_step_rule(self):
        with pytest.raises(ValueError):
            minimize_sobolev(2.0, 2.0, interval(0, 1, 32), step_rule="newton")

    def test_rejects_q_below_one(self):
        with pytest.raises(ValueError):
            minimize_sobolev(2.0, 0.9, interval(0, 1, 32))

    def test_rejects_zero_starts(self):
        with pytest.raises(ValueError, match="starts"):
            minimize_sobolev(2.0, 2.0, interval(0, 1, 32), starts=0)

    def test_gradient_solves_start_at_the_accepted_norms(self, monkeypatch):
        # after the first iteration each descent step knows both norms of
        # its point, so each norm-gradient solve is a single evaluation
        evals = []
        inside = [False]
        newton = luxemburg_module._newton_norm
        with_gradient = sobolev_module.norm_with_gradient

        def counting_newton(*args):
            out = newton(*args)
            if inside[0]:
                evals.append(out[0].iterations)
            return out

        def flagged(*args, **kwargs):
            inside[0] = True
            try:
                return with_gradient(*args, **kwargs)
            finally:
                inside[0] = False

        monkeypatch.setattr(luxemburg_module, "_newton_norm", counting_newton)
        monkeypatch.setattr(sobolev_module, "norm_with_gradient", flagged)
        est = minimize_sobolev(1.5, 6.0, rectangle(-1, 1, -1, 1, 40), starts=1,
                               max_iters=15)
        assert len(est.trace) == 16
        assert len(evals) == 30
        assert evals[2:] == [1] * 28


class TestStiffnessSolve:
    @pytest.mark.parametrize("dom", [
        rectangle(-1, 1, -0.5, 0.5, (37, 23)),
        interval(0, 2, 50),
        ball((0.1, -0.2), 0.8, 40),
    ], ids=["rectangle", "interval", "ball"])
    def test_inverts_the_assembled_matrix(self, dom):
        a, free = _stiffness_matrix(dom)
        solve, free_solve = _stiffness_solve(dom)
        assert np.array_equal(free, free_solve)
        b = np.random.default_rng(31).standard_normal(a.shape[0])
        x = solve(b)
        assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)
        if dom.kind != "ball":
            ref = spla.splu(a).solve(b)
            assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


class TestTalenti:
    def test_classic_three_two(self):
        assert talenti_constant(3, 2.0) == pytest.approx(2.3405, abs=2e-4)

    @pytest.mark.parametrize("n,r", [(3, 2.0), (4, 2.0), (3, 2.5), (2, 1.5)])
    def test_dual_oracle_agreement(self, n, r):
        closed = talenti_constant(n, r)
        quadrature = radial_sharp_constant(n, r)
        assert closed == pytest.approx(quadrature, rel=1e-3)

    def test_continuity_in_r(self):
        # finite positive values; steps shrink proportionally with the
        # r-increment (the closed form moves ~11% per 0.1 near r = 2, N = 3)
        vals = [talenti_constant(3, r) for r in (2.0, 2.1, 2.2)]
        assert all(v > 0 for v in vals)
        steps = [abs(b - a) / a for a, b in zip(vals, vals[1:])]
        assert max(steps) <= 0.12
        fine = [talenti_constant(3, r) for r in (2.0, 2.05, 2.1)]
        fine_steps = [abs(b - a) / a for a, b in zip(fine, fine[1:])]
        assert max(fine_steps) <= 0.6 * max(steps)

    def test_domain_of_definition(self):
        with pytest.raises(ValueError):
            talenti_constant(3, 1.0)
        with pytest.raises(ValueError):
            talenti_constant(3, 3.0)


class TestInfTalenti:
    def test_singleton_range(self):
        v, arg = inf_talenti_over_range(3, 2.0, 2.0)
        assert v == talenti_constant(3, 2.0)
        assert arg == 2.0

    def test_matches_dense_scan(self):
        v, arg = inf_talenti_over_range(3, 2.0, 2.5)
        sv, sarg = dense_scan_min(lambda r: talenti_constant(3, r), 2.0, 2.5)
        assert v == pytest.approx(sv, rel=1e-6)
        assert arg == pytest.approx(sarg, abs=1e-3)

    def test_widening_decreases(self):
        narrow, _ = inf_talenti_over_range(3, 2.1, 2.3)
        wide, _ = inf_talenti_over_range(3, 2.0, 2.5)
        assert wide <= narrow + 1e-12

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            inf_talenti_over_range(3, 2.5, 2.0)


class TestLocalizedConstant:
    def test_subcritical_interval_scaling(self):
        dom = interval(-1, 1, 512)
        p, q = _fields(dom, 2.0, 2.0)
        loc = localized_constant(0.0, p, q, [0.4, 0.3, 0.2],
                                 cells_per_diameter=128)
        for eps, v in zip(loc.radii, loc.values):
            assert v == pytest.approx(np.pi / (2 * eps), rel=0.02)
        assert loc.monotone

    def test_critical_pair_is_scale_free(self):
        dom = ball((0.0, 0.0), 1.0, 96)
        p, q = _fields(dom, 1.5, 6.0)
        loc = localized_constant((0.0, 0.0), p, q, [0.45, 0.35, 0.25],
                                 cells_per_diameter=96, max_iters=250)
        spread = (max(loc.values) - min(loc.values)) / min(loc.values)
        assert spread <= 0.10
        assert loc.extrapolated == pytest.approx(talenti_constant(2, 1.5), rel=0.10)

    def test_single_radius_degenerate(self):
        dom = interval(-1, 1, 256)
        p, q = _fields(dom, 2.0, 2.0)
        loc = localized_constant(0.0, p, q, [0.3], cells_per_diameter=64)
        assert loc.extrapolated == loc.values[0]

    def test_rejects_increasing_radii(self):
        dom = interval(-1, 1, 256)
        p, q = _fields(dom, 2.0, 2.0)
        with pytest.raises(ValueError):
            localized_constant(0.0, p, q, [0.2, 0.3], cells_per_diameter=64)

    def test_rejects_escaping_ball(self):
        dom = interval(-1, 1, 256)
        p, q = _fields(dom, 2.0, 2.0)
        with pytest.raises(ValueError):
            localized_constant(0.9, p, q, [0.5, 0.3], cells_per_diameter=64)

    def test_rejects_coarse_subgrid(self):
        dom = interval(-1, 1, 256)
        p, q = _fields(dom, 2.0, 2.0)
        with pytest.raises(ValueError):
            localized_constant(0.0, p, q, [0.3], cells_per_diameter=4)


class TestDomainMonotonicity:
    def test_identical_domains_tie(self):
        dom = interval(0, 1, 256)
        rep = domain_monotonicity_check(2.0, 2.0, dom, dom, seed=0)
        assert rep.s_outer == rep.s_inner
        assert rep.satisfied

    def test_halved_interval(self):
        outer = interval(0, 1, 512)
        inner = interval(0, 0.5, 256)
        rep = domain_monotonicity_check(2.0, 2.0, outer, inner, seed=0)
        assert rep.s_outer == pytest.approx(np.pi, rel=0.02)
        assert rep.s_inner == pytest.approx(2 * np.pi, rel=0.02)
        assert rep.satisfied

    def test_square_versus_inscribed_disk(self):
        outer = rectangle(-1, 1, -1, 1, 48)
        inner = ball((0.0, 0.0), 0.98, 48)
        rep = domain_monotonicity_check(2.0, 2.0, outer, inner, seed=0)
        assert rep.satisfied

    def test_rejects_non_nested(self):
        with pytest.raises(ValueError):
            domain_monotonicity_check(2.0, 2.0, interval(0, 1, 64),
                                      interval(0.5, 1.5, 64))
