import os
import subprocess
import sys
from collections import deque
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import varexp.sobolev as sobolev_module
from varexp.exponents import ExponentField
from varexp.grid import GridFunction, ball, gradient_magnitude, interval, rectangle
from varexp.luxemburg import luxemburg_norm
from varexp.sobolev import (_stiffness_solve, domain_monotonicity_check,
                            inf_talenti_over_range, localized_constant,
                            minimize_sobolev, rayleigh_quotient,
                            talenti_constant)

from conftest import random_smooth_values
from oracles import (dense_scan_min, radial_sharp_constant, start_bumps,
                     stiffness_matrix)


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
            rayleigh_quotient(GridFunction(dom, np.zeros(dom.shape)), p, q)

    def test_rejects_fields_on_another_domain(self):
        # same shape, other domain: the samples alone cannot tell
        dom, other = interval(0, 1, 32), interval(0, 2, 32)
        v = GridFunction.from_callable(dom, lambda x: x * (1 - x))
        p, q = _fields(dom, 2.0, 2.0)
        p_other, q_other = _fields(other, 2.0, 2.0)
        for fields in ((p_other, q), (p, q_other)):
            with pytest.raises(ValueError, match="different domains"):
                rayleigh_quotient(v, *fields)


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

    @pytest.mark.parametrize("dom, pf, qf", [
        (interval(0, 1, 64), 2.0, lambda x: 2.2 - 0.4 * x),
        (rectangle(-1, 1, -0.5, 0.5, (24, 16)), 1.5, 6.0),
        (ball((0.1, -0.2), 0.8, 24), lambda x, y: 1.6 + 0.2 * x, 4.0),
    ], ids=["interval", "rectangle", "ball"])
    def test_estimate_is_the_quotient_of_its_minimizer(self, dom, pf, qf):
        # the value is the minimizer's quotient solved cold; the descent's
        # warm-started values differ from it by the solver tolerance only
        p, q = _fields(dom, pf, qf)
        est = minimize_sobolev(p, q, max_iters=30)
        assert rayleigh_quotient(est.minimizer, p, q) == est.value
        assert est.trace[-1] == pytest.approx(est.value, rel=1e-12)

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

    def test_rejects_q_below_one(self):
        with pytest.raises(ValueError):
            minimize_sobolev(2.0, 0.9, interval(0, 1, 32))

    def test_rejects_zero_starts(self):
        with pytest.raises(ValueError, match="starts"):
            minimize_sobolev(2.0, 2.0, interval(0, 1, 32), starts=0)

    @pytest.mark.parametrize("guard", [(3.0, -1.0), (0.0, 0.6), (3.0, 1.5)])
    def test_rejects_meaningless_guard(self, guard):
        with pytest.raises(ValueError, match="concentration_guard"):
            minimize_sobolev(2.0, 2.0, interval(0, 1, 32), concentration_guard=guard)

    @pytest.mark.parametrize("key, value", [("max_iters", -3), ("patience", 0),
                                            ("tol_opt", -1.0), ("tol_opt", np.inf),
                                            ("tol_opt", np.nan)])
    def test_rejects_meaningless_stopping_option(self, key, value):
        # the stall rule is the constants STALL_TOL and PATIENCE: no
        # keyword sets it, whatever the value
        error = ValueError if key == "max_iters" else TypeError
        with pytest.raises(error, match=f"'{key}'"):
            minimize_sobolev(2.0, 2.0, interval(0, 1, 32), **{key: value})

    def test_one_preconditioner_solve_per_iteration(self, monkeypatch):
        # every pair keeps A^-1 y, so gamma and the two-loop need no solve
        calls = []

        def counted(domain):
            solve, free = _stiffness_solve(domain)

            def counting_solve(b):
                calls.append(1)
                return solve(b)
            return counting_solve, free

        monkeypatch.setattr(sobolev_module, "_stiffness_solve", counted)
        est = minimize_sobolev(1.5, 6.0, rectangle(-1, 1, -1, 1, 24), starts=2,
                               max_iters=30)
        assert sum(est.iterations) > 10
        assert len(calls) == sum(est.iterations)

    @pytest.mark.parametrize("dom", [rectangle(-1, 1, -1, 1, 20), ball((0.0, 0.0), 1.0, 24)],
                             ids=["square", "ball"])
    def test_descent_steps_along_the_gradient_it_evaluates(self, dom, monkeypatch):
        # the k-th preconditioner right-hand side is grad Q over the free
        # nodes at the k-th normalized iterate: the start, then the accepted
        # trial w / ||w||_q, whose gradient is the trial's scaled by ||w||_q.
        # The start bump leaves a ring where grad w = 0; the symmetric steps
        # cancel the |eps|^p terms there, so central differences of the
        # quotient stay accurate
        rhs = []

        def spied(domain):
            solve, free = _stiffness_solve(domain)

            def recording_solve(b):
                rhs.append(b.copy())
                return solve(b)
            return recording_solve, free

        p, q = _fields(dom, lambda x, y: 1.6 + 0.2 * (x**2 + y**2),
                       lambda x, y: 3.0 + 0.5 * x)
        accepted = minimize_sobolev(p, q, starts=1, max_iters=1).minimizer.values
        monkeypatch.setattr(sobolev_module, "_stiffness_solve", spied)
        minimize_sobolev(p, q, starts=1, max_iters=2)
        assert len(rhs) == 2
        start = sobolev_module._start_fields(dom, 1, np.random.default_rng(0))[0].values
        free = np.flatnonzero(dom.interior)
        eps = 1e-6
        for b, w in zip(rhs, (start / luxemburg_norm(start, q).value, accepted)):
            central = np.empty(free.size)
            for k, node in enumerate(free):
                step = np.zeros(dom.shape)
                step.flat[node] = eps
                up, down = GridFunction(dom, w + step), GridFunction(dom, w - step)
                central[k] = (rayleigh_quotient(up, p, q)
                              - rayleigh_quotient(down, p, q)) / (2 * eps)
            np.testing.assert_allclose(b, central, rtol=0,
                                       atol=1e-6 * np.abs(central).max())

    @pytest.mark.parametrize("dom", [interval(0, 1, 64), rectangle(-1, 1, -1, 1, 20),
                                     ball((0.1, -0.2), 0.8, 24)],
                             ids=["interval", "square", "ball"])
    def test_gradient_evaluation_has_the_quotient_bits(self, dom):
        # the descent's evaluator, started cold, makes the two solves of
        # rayleigh_quotient, so Q and both norms agree bit for bit; warm
        # starts move them by rounding only
        p = ExponentField.from_callable(lambda *xs: 1.6 + 0.2 * xs[0] ** 2, dom)
        q = ExponentField.from_callable(lambda *xs: 3.0 + 0.5 * xs[-1], dom)
        v = sobolev_module._start_fields(dom, 3, np.random.default_rng(4))[2]
        want = (rayleigh_quotient(v, p, q), luxemburg_norm(gradient_magnitude(v), p).value,
                luxemburg_norm(v, q).value)
        for hints in ((None, None), (3.0, 0.5), (0.2, 2.0)):
            got = sobolev_module._quotient_and_gradient(v.values, p, q, *hints)
            if hints == (None, None):
                assert got[:3] == want
            assert got[:3] == pytest.approx(want, rel=1e-12)
            assert got[3].shape == dom.shape

    def test_start_norms_come_from_one_quotient(self, monkeypatch):
        # the start is scaled by the q-norm of the solves that give its
        # quotient and gradient, so a descent of no iterations makes one
        # cold solve per norm; the two value-only solves are the estimate's
        # rayleigh_quotient of its minimizer
        calls = []
        norm, with_gradient = sobolev_module.luxemburg_norm, sobolev_module.norm_with_gradient

        def counting_norm(*args, **kwargs):
            calls.append("norm")
            return norm(*args, **kwargs)

        def counting_gradient(u, field, initial=None):
            calls.append(initial)
            return with_gradient(u, field, initial=initial)

        monkeypatch.setattr(sobolev_module, "luxemburg_norm", counting_norm)
        monkeypatch.setattr(sobolev_module, "norm_with_gradient", counting_gradient)
        minimize_sobolev(1.5, 6.0, rectangle(-1, 1, -1, 1, 40), starts=1,
                         max_iters=0)
        assert calls == [None, None, "norm", "norm"]

    def test_no_point_has_its_norms_solved_twice(self, monkeypatch):
        # each point's two norms are solved once, with their gradients: the
        # start's cold, and every line-search trial's started at the current
        # point's norms; the next iteration reuses an accepted trial's
        # gradient, and only the estimate's value is solved without one
        dom = rectangle(-1, 1, -1, 1, 40)
        p, q = _fields(dom, 1.5, 6.0)
        calls, points, hints = [], [], []
        norm = sobolev_module.luxemburg_norm
        with_gradient = sobolev_module.norm_with_gradient

        def counting_norm(*args, **kwargs):
            calls.append("norm")
            return norm(*args, **kwargs)

        def recording(u, field, initial=None):
            calls.append("q" if field is q else "p")
            hints.append(initial)
            lam, grad = with_gradient(u, field, initial=initial)
            if field is q:
                points.append(u / lam)
            return lam, grad

        monkeypatch.setattr(sobolev_module, "luxemburg_norm", counting_norm)
        monkeypatch.setattr(sobolev_module, "norm_with_gradient", recording)
        est = minimize_sobolev(p, q, starts=1, max_iters=15)
        assert len(est.trace) == 16
        trials = len(points) - 1
        assert trials >= len(est.trace) - 1
        assert calls == ["p", "q"] * (trials + 1) + ["norm", "norm"]
        assert hints[:2] == [None, None]
        assert None not in hints[2::2] and hints[3::2] == [1.0] * trials
        for i, a in enumerate(points):
            for b in points[:i]:
                assert np.abs(a - b).max() > 1e-9 * np.abs(a).max()

    def test_critical_square_converges_by_stall(self):
        # unguarded 40^2 critical square: the L-BFGS descent stalls well
        # inside the cap (steepest descent ran 228 iterations) at a value
        # no worse than steepest descent's 2.147806
        est = minimize_sobolev(1.5, 6.0, rectangle(-1, 1, -1, 1, 40), starts=1,
                               max_iters=300)
        assert est.stop_reasons == ("stall",)
        assert est.iterations[0] <= 100
        assert len(est.trace) == est.iterations[0] + 1
        assert est.value <= 2.147806
        assert all(b <= a for a, b in zip(est.trace, est.trace[1:]))

    def test_stop_reason_max_iters(self):
        est = minimize_sobolev(1.5, 6.0, rectangle(-1, 1, -1, 1, 24), starts=2,
                               max_iters=4)
        assert est.iterations == (4, 4)
        assert est.stop_reasons == ("max_iters", "max_iters")
        assert len(est.trace) == 5

    def test_stop_reason_zero_start(self):
        # on the coarse tall box the off-center bump misses every free node:
        # that start stops at once, scores inf and is never the best one
        est = minimize_sobolev(2.0, 2.0, rectangle(0, 1, 0, 5, (6, 6)), starts=3,
                               max_iters=20)
        assert est.stop_reasons == ("stall", "no_descent", "max_iters")
        assert est.iterations == (18, 0, 20)
        assert est.start_values[1] == np.inf
        assert est.best_start == 0

    def test_all_zero_starts_fail(self):
        # the cells are far taller than every start bump is wide
        with pytest.raises(RuntimeError, match="all descent starts failed"):
            minimize_sobolev(2.0, 2.0, rectangle(0, 1, 0, 100, 4))

    def test_stop_reason_stall_after_patience(self, monkeypatch):
        # a tolerance no step can beat: every start stops after exactly
        # ``PATIENCE`` accepted steps
        monkeypatch.setattr(sobolev_module, "STALL_TOL", 1e6)
        monkeypatch.setattr(sobolev_module, "PATIENCE", 3)
        est = minimize_sobolev(2.0, 2.0, interval(0, 1, 64), starts=3, max_iters=50)
        assert est.iterations == (3, 3, 3)
        assert est.stop_reasons == ("stall",) * 3
        assert len(est.trace) == 4

    def test_ascent_direction_clears_the_memory(self, monkeypatch):
        # an L-BFGS direction that ascends is dropped with the memory, so
        # every step is the fallback -A^-1 grad Q of a descent that never
        # keeps a pair: the same bits, step for step
        dom = rectangle(-1, 1, -1, 1, 24)
        cleared = []
        clear = sobolev_module._Pairs.clear

        def counting_clear(pairs):
            cleared.append(pairs.live)
            clear(pairs)

        monkeypatch.setattr(sobolev_module._Pairs, "direction", lambda pairs, g, h_g: h_g)
        monkeypatch.setattr(sobolev_module._Pairs, "clear", counting_clear)
        est = minimize_sobolev(1.5, 6.0, dom, starts=1, max_iters=12)
        monkeypatch.setattr(sobolev_module._Pairs, "push", lambda pairs, s, y, h_y: None)
        fallback = minimize_sobolev(1.5, 6.0, dom, starts=1, max_iters=12)
        assert est.stop_reasons == fallback.stop_reasons == ("max_iters",)
        assert cleared and all(live >= 1 for live in cleared)
        assert est.trace == fallback.trace
        assert all(b <= a for a, b in zip(est.trace, est.trace[1:]))
        assert est.trace[-1] < est.trace[0]

    def test_stop_reason_no_descent(self, monkeypatch):
        # a preconditioner that flips the gradient: -A^-1 grad Q ascends, so
        # the start stops before its first step
        monkeypatch.setattr(sobolev_module, "_stiffness_solve",
                            lambda domain: (np.negative, _stiffness_solve(domain)[1]))
        dom = rectangle(-1, 1, -1, 1, 24)
        est = minimize_sobolev(1.5, 6.0, dom, starts=1, max_iters=12)
        assert est.stop_reasons == ("no_descent",)
        start = sobolev_module._start_fields(dom, 1, np.random.default_rng(0))[0]
        assert est.trace == (rayleigh_quotient(start, *_fields(dom, 1.5, 6.0)),)

    def test_stop_reason_line_search(self, monkeypatch):
        # trials whose Q never drops: 40 halvings, then the start stops at
        # its own value
        evaluate = sobolev_module._quotient_and_gradient
        trials = []

        def never_lower(w, p, q, f_hint, g_hint):
            out = evaluate(w, p, q, f_hint, g_hint)
            if f_hint is None:
                return out
            trials.append(out[0])
            return (out[0] + 1.0, *out[1:])

        monkeypatch.setattr(sobolev_module, "_quotient_and_gradient", never_lower)
        dom = rectangle(-1, 1, -1, 1, 24)
        est = minimize_sobolev(1.5, 6.0, dom, starts=1, max_iters=12)
        assert est.stop_reasons == ("line_search",)
        assert len(trials) == 40
        assert len(est.trace) == 1
        assert est.value == pytest.approx(est.start_values[0], rel=1e-12)

    def test_stop_reason_guard(self):
        # guarded 40^2 critical square: every start collapses toward a
        # sub-grid spike within a few iterations, and the guard stops it
        est = minimize_sobolev(1.5, 6.0, rectangle(-1, 1, -1, 1, 40), starts=3,
                               max_iters=300, seed=0, concentration_guard=(3.0, 0.6))
        assert est.stop_reasons == ("guard",) * 3
        assert est.iterations == (5, 1, 1)
        assert est.value == pytest.approx(2.72372, abs=1e-5)


@pytest.mark.parametrize("dom", [interval(0, 1, 64), rectangle(-1, 1, -0.5, 0.5, (40, 24)),
                                 ball((0.2, -0.1), 0.7, 36)],
                         ids=["interval", "rectangle", "ball"])
def test_start_fields_match_the_written_formulas(dom):
    # every descent starts from these bits: two bumps, then smoothed noise
    # under the envelope bump
    centered, off, envelope = start_bumps(dom)
    starts = sobolev_module._start_fields(dom, 3, np.random.default_rng(5))
    noise = random_smooth_values(dom, np.random.default_rng(5), passes=4)
    for got, want in zip(starts, (centered, off, noise * envelope)):
        assert np.array_equal(got.values, GridFunction(dom, want, dirichlet=True).values)


def _two_loop(grad, h_grad, pairs, gamma):
    """-H grad by the two-loop recursion (Nocedal & Wright, Alg. 7.4) with
    H_0 = gamma A^-1: the oracle of the Gram-form direction.  ``h_grad`` is
    A^-1 grad and ``pairs`` holds (s, y, A^-1 y, 1 / s.y), oldest first."""
    r, h = grad.copy(), h_grad.copy()
    alphas = []
    for s, y, h_y, rho in reversed(pairs):
        alphas.append(rho * (s @ r))
        r -= alphas[-1] * y
        h -= alphas[-1] * h_y
    r = gamma * h
    for (s, y, _, rho), alpha in zip(pairs, reversed(alphas)):
        r += (alpha - rho * (y @ r)) * s
    return -r


def test_gram_form_direction_is_the_two_loop():
    # 12 pairs evict the oldest slots past LBFGS_MEMORY; a pair without
    # positive curvature is dropped and leaves the oldest in place; after
    # clear() the slots fill again from the first
    rng = np.random.default_rng(8)
    n = 40
    a, b = (m @ m.T + n * np.eye(n) for m in rng.standard_normal((2, n, n)))
    a_inv = np.linalg.inv(a)
    pairs = sobolev_module._Pairs(n)
    ref = deque(maxlen=sobolev_module.LBFGS_MEMORY)
    for _ in range(2):
        for k in range(12):
            s = rng.standard_normal(n)
            y = b @ s if k != 9 else -s
            h_y = a_inv @ y
            pairs.push(s, y, h_y)
            if k != 9:
                ref.append((s, y, h_y, 1.0 / (s @ y)))
                gamma = (s @ y) / (y @ h_y)
            assert pairs.live == len(ref) == min(k + (k < 9), sobolev_module.LBFGS_MEMORY)
            grad = rng.standard_normal(n)
            got = pairs.direction(grad, a_inv @ grad)
            want = _two_loop(grad, a_inv @ grad, ref, gamma)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        pairs.clear()
        ref.clear()
        assert pairs.live == 0


class TestStiffnessSolve:
    @pytest.mark.parametrize("dom", [
        rectangle(-1, 1, -0.5, 0.5, (37, 23)),
        interval(0, 2, 50),
        ball((0.1, -0.2), 0.8, 40),
        ball((0.1, -0.2), 0.8, 96),
        ball((0.0, 0.0), 1.0, 97),
        ball((0.0, 0.0), 1.0, 8),
        ball((0.3,), 0.5, 50),
    ], ids=["rectangle", "interval", "ball", "ball-96-off-center", "ball-97-odd",
            "ball-8", "ball-1d"])
    def test_inverts_the_assembled_matrix(self, dom):
        a, free = stiffness_matrix(dom)
        solve, free_solve = _stiffness_solve(dom)
        assert np.array_equal(free, free_solve)
        b = np.random.default_rng(31).standard_normal(a.shape[0])
        x = solve(b)
        assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)
        ref = spla.splu(a).solve(b)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_equal_domain_built_apart_hits_the_cache(self):
        first = _stiffness_solve(ball((0.15, -0.05), 0.55, 20))
        hits = _stiffness_solve.cache_info().hits
        assert _stiffness_solve(ball((0.15, -0.05), 0.55, 20)) is first
        assert _stiffness_solve.cache_info().hits == hits + 1


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

    def test_large_dimension_is_finite(self):
        # Gamma(N) overflows a float from N = 172 on
        value = talenti_constant(200, 2.0)
        assert np.isfinite(value) and value > 0

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

    @pytest.mark.parametrize("n,r_lo,r_hi", [
        (3, 1.01, 1.05), (2, 1.02, 1.9), (3, 2.0, 2.5), (5, 1.01, 4.9),
        (200, 1.5, 150.0),
    ], ids=["rise", "straddle", "fall", "wide", "large-N"])
    def test_matches_dense_scan(self, n, r_lo, r_hi):
        v, arg = inf_talenti_over_range(n, r_lo, r_hi)
        sv, sarg = dense_scan_min(lambda r: talenti_constant(n, r), r_lo, r_hi)
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


SCIPY_PROBE = """
import sys
import varexp, varexp.cli
from varexp.grid import ball, rectangle
from varexp.sobolev import inf_talenti_over_range, minimize_sobolev

minimize_sobolev(2.0, 2.0, ball((0.0, 0.0), 1.0, 16), starts=1, max_iters=3)
minimize_sobolev(2.0, 2.0, rectangle(0, 1, 0, 2, (12, 20)), starts=1, max_iters=3)
inf_talenti_over_range(3, 1.5, 2.5)
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
"""


def test_no_scipy_at_run_time():
    # a fresh interpreter: this one has scipy loaded by the oracles already
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
