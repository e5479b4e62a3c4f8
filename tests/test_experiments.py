import csv

import numpy as np
import pytest

import varexp.experiments as experiments
from varexp.concentration import make_bubbles, smooth_bump
from varexp.experiments import (CRITERIA, REL_TOL, continuity_experiment,
                                dilation_check, scaling_limit_experiment,
                                subcritical_ball_experiment,
                                theorem61_experiment, write_csv)
from varexp.exponents import ExponentField, critical_exponent
from varexp.grid import GridFunction, ball, interval, rectangle
from varexp.sobolev import localized_constant, talenti_constant

from oracles import continuity_bumps


def _reload_rows(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return [{k: float(v) for k, v in row.items()} for row in reader]


def _roundtrip_verdict(result, tmp_path):
    path = write_csv(result, tmp_path / f"{result.name}.csv")
    rows = _reload_rows(path)
    assert CRITERIA[result.name](rows) == result.verdict
    # every row carries its experiment's gap bound, the subcritical ball none
    assert [r.get("rel_tol") for r in rows] == [REL_TOL.get(result.name)] * len(rows)


class TestScalingLimit:
    def test_constant_critical_gaps_vanish(self, tmp_path):
        dom = rectangle(-1, 1, -1, 1, 256)
        res = scaling_limit_experiment(smooth_bump, (0.0, 0.0),
                                       [0.7, 0.5, 0.35, 0.25], 1.5, 6.0, dom)
        assert res.verdict
        target = res.details["target"]
        for row in res.row_dicts():
            assert row["gap"] <= 0.02 * target
        _roundtrip_verdict(res, tmp_path)

    def test_variable_exponent_trend(self, tmp_path):
        dom = ball((0.0, 0.0), 1.0, 384)
        pf = lambda x, y: 1.5 + 0.0 * x           # noqa: E731
        qf = lambda x, y: 6.0 - 4.0 * (x**2 + y**2)  # noqa: E731
        res = scaling_limit_experiment(smooth_bump, (0.0, 0.0),
                                       [0.6, 0.45, 0.32, 0.22], pf, qf, dom,
                                       target_scale=0.95)
        assert res.verdict
        gaps = [r["gap"] for r in res.row_dicts()]
        assert gaps[-1] <= gaps[-2] <= gaps[-3]
        _roundtrip_verdict(res, tmp_path)

    def test_single_scale_degenerate(self):
        dom = rectangle(-1, 1, -1, 1, 128)
        res = scaling_limit_experiment(smooth_bump, (0.0, 0.0), [0.5],
                                       1.5, 6.0, dom)
        assert res.verdict is not None

    def test_rejects_noncritical_center(self):
        dom = rectangle(-1, 1, -1, 1, 128)
        with pytest.raises(ValueError, match="criticality"):
            scaling_limit_experiment(smooth_bump, (0.0, 0.0), [0.5],
                                     1.5, 5.5, dom)


class TestContinuity:
    def test_zero_shift_gives_zero_gaps(self, tmp_path):
        dom = interval(0, 1, 128)
        res = continuity_experiment(2.0, 2.0, [0.0, 0.0, 0.0], dom, seed=0)
        assert res.verdict
        assert all(r["gap"] == 0.0 for r in res.row_dicts())
        _roundtrip_verdict(res, tmp_path)

    def test_shifted_pairs_approach_base(self, tmp_path):
        dom = interval(0, 1, 256)
        res = continuity_experiment(2.0, 2.0, [0.2, 0.1, 0.05], dom, seed=0)
        assert res.verdict
        rows = res.row_dicts()
        gaps = [r["gap"] for r in rows]
        assert gaps[0] >= gaps[1] >= gaps[2]
        assert gaps[2] <= 0.05 * rows[-1]["s_base"]
        _roundtrip_verdict(res, tmp_path)

    def test_default_test_functions_are_the_written_bumps(self):
        dom = rectangle(-1, 1, -0.5, 0.5, (32, 20))
        opts = dict(seed=0, starts=1, max_iters=3)
        default = continuity_experiment(2.0, 2.5, [0.2, 0.1], dom, **opts)
        bumps = [GridFunction(dom, b, dirichlet=True) for b in continuity_bumps(dom)]
        given = continuity_experiment(2.0, 2.5, [0.2, 0.1], dom, test_functions=bumps,
                                      **opts)
        assert default.columns == given.columns
        assert default.rows == given.rows

    def test_rejects_q_collapse(self):
        dom = interval(0, 1, 64)
        with pytest.raises(ValueError, match="below 1"):
            continuity_experiment(2.0, 1.15, [0.2, 0.1], dom)


@pytest.mark.parametrize("call", [
    lambda: scaling_limit_experiment(smooth_bump, (0, 0), [0.5, 0.4], 1.5, 6.0),
    lambda: continuity_experiment(2.0, 2.0, [0.2, 0.1]),
], ids=["scaling", "continuity"])
def test_driver_needs_a_domain(call):
    # numeric exponents carry no grid, so the domain is a required argument
    with pytest.raises(TypeError, match="domain"):
        call()


class TestDilation:
    def test_constant_exponents_exact(self, tmp_path):
        res = dilation_check(smooth_bump, [0.5, 0.25, 0.125], 1.5, 6.0,
                             center=(0.0, 0.0), resolution=96)
        assert res.verdict
        for row in res.row_dicts():
            assert abs(row["fun_ratio"] - 1.0) <= 1e-8
            assert abs(row["grad_ratio"] - 1.0) <= 1e-8
        _roundtrip_verdict(res, tmp_path)

    def test_variable_q_ratios_trend_to_one(self, tmp_path):
        qf = lambda x, y: 6.0 - (x**2 + y**2)  # noqa: E731
        res = dilation_check(smooth_bump, [0.5, 0.25, 0.125], 1.5, qf,
                             center=(0.0, 0.0), resolution=96)
        assert res.verdict
        devs = [abs(r["fun_ratio"] - 1.0) for r in res.row_dicts()]
        assert devs[-1] <= 0.05
        _roundtrip_verdict(res, tmp_path)

    def test_rejects_noncompact_profile(self):
        with pytest.raises(ValueError, match="support violation"):
            dilation_check(lambda rho: np.ones_like(rho), [0.5, 0.25],
                           1.5, 6.0, center=(0.0, 0.0), resolution=48)

    def test_rejects_increasing_eps(self):
        with pytest.raises(ValueError):
            dilation_check(smooth_bump, [0.25, 0.5], 1.5, 6.0,
                           center=(0.0, 0.0), resolution=48)

    def test_dimension_is_the_centers(self):
        # N comes from the center, so 1D fields run in 1D (N/q = 1/3 at q = 3)
        # and a 2D center with 1D fields is an error, not a 2D problem
        line = interval(-1, 1, 64)
        p, q = ExponentField.constant(1.5, line), ExponentField.constant(3.0, line)
        res = dilation_check(smooth_bump, [0.5, 0.25, 0.125], p, q,
                             center=0.0, resolution=64)
        assert res.verdict
        assert res.details["a_fun"] == pytest.approx(1 / 3, rel=1e-15)
        with pytest.raises(ValueError, match="1D field to a 2D domain"):
            dilation_check(smooth_bump, [0.5, 0.25, 0.125], p, q,
                           center=(0.0, 0.0), resolution=64)


@pytest.mark.parametrize("missing", ["center", "resolution"])
@pytest.mark.parametrize("driver", [
    lambda **kw: dilation_check(smooth_bump, [0.5], 1.5, 6.0, **kw),
    lambda **kw: subcritical_ball_experiment(smooth_bump, [2.0], 1.5, 3.0, 2.5, **kw),
], ids=["dilation_check", "subcritical_ball_experiment"])
def test_ball_drivers_need_center_and_resolution(driver, missing):
    # the ball's dimension and cells are the caller's choice, never a default
    given = {"center": (0.0, 0.0), "resolution": 32}
    del given[missing]
    with pytest.raises(TypeError, match=missing):
        driver(**given)


class TestTheorem61:
    def test_strict_minimum_instance_passes(self, tmp_path):
        dom = ball((0.0, 0.0), 1.0, 256)
        p = ExponentField.from_callable(lambda x, y: 1.5 + 0.5 * (x**2 + y**2), dom)
        q = ExponentField.from_callable(lambda x, y: 6.0 - 2.0 * (x**2 + y**2), dom)
        res = theorem61_experiment((0.0, 0.0), p, q, [0.4, 0.3, 0.2],
                                   cells_per_diameter=96, max_iters=200)
        assert res.verdict
        assert res.details["extrapolated"] == pytest.approx(
            talenti_constant(2, 1.5), rel=0.15)
        _roundtrip_verdict(res, tmp_path)

    def test_degenerate_constant_case_needs_flag(self):
        dom = ball((0.0, 0.0), 1.0, 128)
        p = ExponentField.constant(1.5, dom)
        q = ExponentField.constant(6.0, dom)
        with pytest.raises(ValueError, match="local minimum"):
            theorem61_experiment((0.0, 0.0), p, q, [0.35, 0.25],
                                 cells_per_diameter=64)
        res = theorem61_experiment((0.0, 0.0), p, q, [0.35, 0.25],
                                   cells_per_diameter=64, max_iters=150,
                                   allow_degenerate=True)
        assert res.details["extrapolated"] == pytest.approx(
            talenti_constant(2, 1.5), rel=0.15)

    def test_refuses_local_maximum(self):
        dom = ball((0.0, 0.0), 1.0, 128)
        p = ExponentField.from_callable(lambda x, y: 1.8 - 0.5 * (x**2 + y**2), dom)
        q = ExponentField.from_callable(lambda x, y: 18.0 - 2.0 * (x**2 + y**2), dom)
        with pytest.raises(ValueError, match="local minimum"):
            theorem61_experiment((0.0, 0.0), p, q, [0.35, 0.25],
                                 cells_per_diameter=64)


class TestSubcriticalBall:
    PROFILE = staticmethod(lambda rho: 0.6 * smooth_bump(rho))

    def test_end_to_end_chain(self, tmp_path):
        s_target = talenti_constant(2, 1.5)
        res = subcritical_ball_experiment(self.PROFILE, [1.5, 3, 6, 12, 24, 48],
                                          1.5, 3.0, s_target=s_target,
                                          center=(0.0, 0.0), resolution=128)
        assert res.verdict
        rows = res.row_dicts()
        flagged = [r for r in rows if r["conditions_ok"] >= 0.5]
        assert flagged and all(r["claim_ok"] >= 0.5 for r in flagged)
        first_fail = [r for r in rows if r["conditions_ok"] < 0.5]
        assert first_fail and any(
            r["cond_grad"] <= 1 or r["cond_fun"] <= 1
            or r["cond_quotient_bound"] >= r["s_target"] for r in first_fail)
        assert res.details["smallest_passing_radius"] == 6.0
        _roundtrip_verdict(res, tmp_path)

    def test_doubling_keeps_conditions(self):
        s_target = talenti_constant(2, 1.5)
        res = subcritical_ball_experiment(self.PROFILE, [6, 12, 24, 48],
                                          1.5, 3.0, s_target=s_target,
                                          center=(0.0, 0.0), resolution=96)
        assert all(r["conditions_ok"] >= 0.5 for r in res.row_dicts())

    def test_unit_modulars_once_per_exponent(self, monkeypatch):
        # a constant pair takes two unit-profile modulars, whatever the radii
        calls = []
        real = experiments.modular
        monkeypatch.setattr(experiments, "modular",
                            lambda *args: calls.append(1) or real(*args))
        subcritical_ball_experiment(self.PROFILE, [6, 12, 24, 48], 1.5, 3.0,
                                    s_target=2.5, center=(0.0, 0.0), resolution=32)
        assert len(calls) == 2

    def test_rejects_supercritical_ball(self):
        with pytest.raises(ValueError, match="not subcritical"):
            subcritical_ball_experiment(self.PROFILE, [2.0], 1.5, 6.5,
                                        s_target=2.5, center=(0.0, 0.0), resolution=64)

    def test_rejects_profile_bound_violation(self):
        big = lambda rho: 1.2 * smooth_bump(rho)  # noqa: E731
        with pytest.raises(ValueError, match="profile bound"):
            subcritical_ball_experiment(big, [2.0], 1.5, 3.0, s_target=2.5,
                                        center=(0.0, 0.0), resolution=64)

    def test_rejects_radius_below_one(self):
        with pytest.raises(ValueError):
            subcritical_ball_experiment(self.PROFILE, [0.5, 2.0], 1.5, 3.0,
                                        s_target=2.5, center=(0.0, 0.0), resolution=64)

    @pytest.mark.parametrize("r_list", [[], [6, 2, 6]], ids=["empty", "repeated"])
    def test_radius_list_is_non_empty_without_repeats(self, r_list):
        # the radii run smallest first in any given order, but never twice
        with pytest.raises(ValueError, match="r_list"):
            subcritical_ball_experiment(self.PROFILE, r_list, 1.5, 3.0,
                                        s_target=2.5, center=(0.0, 0.0), resolution=64)

    def test_needs_target_or_critical_point(self):
        # s_target has no second source: it is a required argument
        with pytest.raises(TypeError, match="s_target"):
            subcritical_ball_experiment(self.PROFILE, [2.0], 1.5, 3.0,
                                        center=(0.0, 0.0), resolution=64)


def _critical_fields(dom):
    return ExponentField.constant(1.5, dom), ExponentField.constant(6.0, dom)


# each driver that takes a list of ball radii, and the name it gives that list
RADIUS_DRIVERS = {
    "localized_constant": ("radii", lambda radii: localized_constant(
        0.0, *_critical_fields(interval(-1, 1, 256)), radii, cells_per_diameter=16)),
    "make_bubbles": ("scales", lambda radii: make_bubbles(
        smooth_bump, (0.0, 0.0), radii, *_critical_fields(rectangle(-1, 1, -1, 1, 64)))),
    "scaling_limit_experiment": ("scales", lambda radii: scaling_limit_experiment(
        smooth_bump, (0.0, 0.0), radii, 1.5, 6.0, rectangle(-1, 1, -1, 1, 64))),
    "dilation_check": ("eps_list", lambda radii: dilation_check(
        smooth_bump, radii, 1.5, 6.0, center=(0.0, 0.0), resolution=32)),
    "theorem61_experiment": ("radii", lambda radii: theorem61_experiment(
        (0.0, 0.0), *_critical_fields(ball((0.0, 0.0), 1.0, 32)), radii,
        allow_degenerate=True, cells_per_diameter=16, max_iters=2)),
}


@pytest.mark.parametrize("radii", [[], [0.2, 0.3]], ids=["empty", "increasing"])
@pytest.mark.parametrize("driver", sorted(RADIUS_DRIVERS))
def test_radius_list_is_non_empty_and_strictly_decreasing(driver, radii):
    # one reader, grid.as_radii, rejects the list and names it
    name, call = RADIUS_DRIVERS[driver]
    with pytest.raises(ValueError, match=name):
        call(radii)


def _strict_min_pair(dom):
    # p has a strict minimum at 0, but q = p* makes p*/q flat
    p = ExponentField.from_callable(lambda x, y: 1.5 + x * x + y * y, dom)
    return p, ExponentField.from_callable(lambda x, y: critical_exponent(p.func(x, y), 2), dom)


# each input check of the module: the call that trips it and its message
INPUT_CHECKS = {
    "thm61_off_criticality": (lambda: theorem61_experiment(
        (0.0, 0.0), ExponentField.constant(2.5, ball((0.0, 0.0), 0.5, 32)),
        ExponentField.constant(6.0, ball((0.0, 0.0), 0.5, 32)), [0.3, 0.2]),
        r"p\(x0\) >= N"),
    "continuity_increasing_t": (lambda: continuity_experiment(
        1.5, 6.0, [0.1, 0.2], rectangle(-1, 1, -1, 1, 16)), "non-increasing"),
    "dilation_past_n": (lambda: dilation_check(
        smooth_bump, [0.5, 0.25], lambda x, y: 2.5 + 0.1 * x, 6.0,
        center=(0.0, 0.0), resolution=16), r"p\(center\) < N"),
    "thm61_flat_ratio": (lambda: theorem61_experiment(
        (0.0, 0.0), *_strict_min_pair(ball((0.0, 0.0), 0.5, 32)), [0.3, 0.2]),
        r"p\*/q has no strict local minimum"),
    "scaling_target_scale": (lambda: scaling_limit_experiment(
        smooth_bump, (0.0, 0.0), [0.5, 0.4], 1.5, 6.0, rectangle(-1, 1, -1, 1, 16),
        target_scale=0.0), "'target_scale' must be positive"),
    "subcritical_steep_profile": (lambda: subcritical_ball_experiment(
        lambda rho: np.clip(3.0 * (1.0 - rho), 0.0, 1.0), [2, 6], 1.5, 3.0, 1.0,
        center=(0.0, 0.0), resolution=32), r"\|grad u\| must stay <= 1"),
}


@pytest.mark.parametrize("check", sorted(INPUT_CHECKS))
def test_input_checks(check):
    call, message = INPUT_CHECKS[check]
    with pytest.raises(ValueError, match=message):
        call()
