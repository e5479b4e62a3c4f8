import math

import numpy as np
import pytest

from varexp.exponents import (CRITICAL_INF, ExponentField, as_exponent_field,
                              critical_exponent, exponent_order_ok)
from varexp.grid import ball, interval, rectangle
from varexp.sobolev import minimize_sobolev


class TestCriticalExponent:
    def test_classic_value(self):
        assert critical_exponent(2.0, 3) == pytest.approx(6.0)

    def test_infinite_branch(self):
        assert critical_exponent(3.0, 3) == CRITICAL_INF
        assert math.isinf(critical_exponent(2.0, 2))

    def test_two_dimensional_value(self):
        assert critical_exponent(1.5, 2) == pytest.approx(6.0)

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            critical_exponent(1.0, 3)

    def test_array_is_the_scalar_formula_elementwise(self):
        p = np.array([1.2, 1.5, 1.99, 2.0, 3.5])
        assert critical_exponent(p, 2).tolist() == \
            [2 * v / (2 - v) if v < 2 else CRITICAL_INF for v in p.tolist()]
        assert type(critical_exponent(1.5, 2)) is float
        with pytest.raises(ValueError):
            critical_exponent(np.array([1.5, 1.0]), 2)

    def test_exceeds_p_when_finite(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.choice([2, 3, 4]))
            p = rng.uniform(1.01, n - 0.01)
            assert critical_exponent(p, n) > p


class TestExponentField:
    def test_samples_match_expression_exactly(self):
        dom = interval(0, 1, 64)
        f = lambda x: 2.0 + 0.5 * x  # noqa: E731
        field = ExponentField.from_callable(f, dom)
        assert np.array_equal(field.values, f(dom.axes[0]))
        assert field.p_minus == pytest.approx(2.0 + 0.5 * dom.axes[0][0])
        assert field.p_plus == pytest.approx(2.0 + 0.5 * dom.axes[0][-1])

    def test_rejects_exponent_at_or_below_one(self):
        dom = interval(0, 1, 64)
        with pytest.raises(ValueError):
            ExponentField.from_callable(lambda x: 0.5 + x, dom)
        with pytest.raises(ValueError):
            ExponentField.constant(1.0, dom)

    def test_rejects_random_violators(self):
        rng = np.random.default_rng(5)
        dom = interval(0, 1, 32)
        for _ in range(50):
            a = rng.uniform(-2.0, 2.0)
            b = rng.uniform(-2.0, 2.0)
            vals = a + b * dom.axes[0]
            if vals.min() <= 1.0:
                with pytest.raises(ValueError):
                    ExponentField.from_callable(lambda x: a + b * x, dom)
            else:
                field = ExponentField.from_callable(lambda x: a + b * x, dom)
                assert field.p_minus > 1.0

    def test_restrict_resamples(self):
        dom = interval(0, 1, 64)
        field = ExponentField.from_callable(lambda x: 2 + x, dom)
        sub = interval(0.25, 0.5, 32)
        rfield = field.restrict(sub)
        assert rfield.p_minus >= 2.25 - 1e-9
        assert rfield.p_plus <= 2.5

    def test_restrict_keeps_the_dimension(self):
        # restrict owns the check, so coercion and the descent inherit it
        p1d = ExponentField.from_callable(lambda x: 1.5 + 0.2 * x, interval(0, 1, 32))
        square = rectangle(0, 1, 0, 1, 32)
        for call in (lambda: p1d.restrict(square), lambda: as_exponent_field(p1d, square),
                     lambda: minimize_sobolev(p1d, 3.0, square, starts=1, max_iters=3)):
            with pytest.raises(ValueError, match="1D field to a 2D domain"):
                call()

    def test_value_at_needs_the_callable(self):
        dom = interval(0, 1, 16)
        assert ExponentField.from_callable(lambda x: 2 + x, dom).value_at(0.3) == 2.3

    def test_constancy_is_exact(self):
        # the rule of the Newton core: a field is constant when p- == p+
        dom = interval(0, 1, 16)
        assert ExponentField.constant(2.0, dom).is_constant
        assert not ExponentField.from_callable(lambda x: 2.0 + 1e-15 * x, dom).is_constant

    def test_masked_nodes_filled_neutrally(self):
        dom = ball((0.0, 0.0), 1.0, 32)
        field = ExponentField.from_callable(lambda x, y: 2 + x * x + y * y, dom)
        assert np.all(np.isfinite(field.values))


class TestExponentOrder:
    def test_order_predicate(self):
        dom = interval(0, 1, 16)
        p = ExponentField.constant(2.0, dom)
        q = ExponentField.constant(6.0, dom)
        assert exponent_order_ok(p, q)
        assert not exponent_order_ok(q, p)


# each input check of the module: the call that trips it and its message
INPUT_CHECKS = {
    "shape": (lambda: ExponentField(interval(0, 1, 16), lambda x: np.full(8, 2.0)),
              "do not match the grid shape"),
    "not_finite": (lambda: ExponentField(
        interval(0, 1, 16), lambda x: np.where(np.arange(16) == 8, np.nan, 2.0)),
        "not finite on the domain"),
}


@pytest.mark.parametrize("check", sorted(INPUT_CHECKS))
def test_input_checks(check):
    call, message = INPUT_CHECKS[check]
    with pytest.raises(ValueError, match=message):
        call()
