import numpy as np
import pytest

from varexp.expressions import (MAX_DEPTH, Binary, Call, Const, ExpressionError,
                                Unary, Var, compile_on_domain, evaluate,
                                parse_exponent, pretty, variables)
from varexp.grid import interval, rectangle


def test_constant():
    node = parse_exponent("2")
    assert node == Const(2.0)
    assert evaluate(node, {}) == 2.0


def test_affine_in_x():
    node = parse_exponent("2 + 0.5*x")
    assert evaluate(node, {"x": np.array([1.0])})[0] == pytest.approx(2.5)


def test_max_with_radius():
    node = parse_exponent("max(1.2, 3 - r)")
    vals = evaluate(node, {"r": np.array([0.0, 1.8, 2.5])})
    assert vals[0] == pytest.approx(3.0)
    assert vals[1] == pytest.approx(1.2)
    assert vals[2] == pytest.approx(1.2)


def test_precedence_and_unary():
    node = parse_exponent("2 + 3 * 4")
    assert evaluate(node, {}) == 14.0
    node = parse_exponent("-2 + 3")
    assert evaluate(node, {}) == 1.0
    node = parse_exponent("2 - 3 - 1")
    assert evaluate(node, {}) == -2.0
    node = parse_exponent("12 / 3 / 2")
    assert evaluate(node, {}) == 2.0


def test_power_constant_exponent_only():
    node = parse_exponent("x^2")
    assert evaluate(node, {"x": np.array([3.0])})[0] == 9.0
    node = parse_exponent("x^-1")
    assert evaluate(node, {"x": np.array([4.0])})[0] == 0.25
    with pytest.raises(ExpressionError):
        parse_exponent("x ^ y")


@pytest.mark.parametrize("source, same_as", [
    ("x^-(2)", "x^-2"),
    ("x^-(-2)", "x^2"),
    ("x^--(2)", "x^2"),
])
def test_sign_before_parenthesized_exponent(source, same_as):
    assert parse_exponent(source) == parse_exponent(same_as)


def test_negated_parenthesized_exponent_on_domain():
    dom = interval(1, 3, 16)
    fn = compile_on_domain("x^-(2)", dom, dom.center)
    assert np.array_equal(fn(*dom.meshes), dom.axes[0] ** -2.0)


def test_error_positions():
    with pytest.raises(ExpressionError) as e:
        parse_exponent("2 + ")
    assert e.value.pos == 4
    with pytest.raises(ExpressionError) as e:
        parse_exponent("2 + foo")
    assert e.value.pos == 4
    with pytest.raises(ExpressionError) as e:
        parse_exponent("2 ~ 3")
    assert e.value.pos == 2
    with pytest.raises(ExpressionError) as e:
        parse_exponent("1e")
    assert e.value.pos == 0
    with pytest.raises(ExpressionError) as e:
        parse_exponent("2 + 1e")
    assert e.value.pos == 4


# nested past MAX_DEPTH: without the limit the parser, or a walk over the
# tree it builds, exhausts Python's recursion limit
DEEP = {"parentheses": "(" * 200 + "1" + ")" * 200, "signs": "-" * 1000 + "1",
        "sum": "+".join(["1"] * 1000), "product": "x" + "*1" * 1999}


@pytest.mark.parametrize("source", DEEP.values(), ids=DEEP.keys())
def test_too_deep_is_an_error_with_an_offset(source):
    with pytest.raises(ExpressionError, match="deeper") as e:
        parse_exponent(source)
    assert 0 <= e.value.pos <= len(source)


def test_depth_limit_itself_compiles_and_prints():
    dom = interval(0, 1, 8)
    x = dom.axes[0]
    sign = (-1) ** (MAX_DEPTH - 1)
    for source, want in [("-(" * (MAX_DEPTH - 1) + "x" + ")" * (MAX_DEPTH - 1), sign * x),
                         ("-" * (MAX_DEPTH - 1) + "x", sign * x),
                         ("+".join(["x"] * MAX_DEPTH), MAX_DEPTH * x)]:
        assert np.allclose(compile_on_domain(source, dom, dom.center)(x), want)
        node = parse_exponent(source)
        assert parse_exponent(pretty(node)) == node


def test_unknown_identifier():
    with pytest.raises(ExpressionError, match="unknown identifier"):
        parse_exponent("sin(x)")


def test_arity_check():
    with pytest.raises(ExpressionError):
        parse_exponent("min(1)")
    with pytest.raises(ExpressionError):
        parse_exponent("abs(1, 2)")


def _random_ast(rng, depth=0):
    kinds = ["const", "var"]
    if depth < 4:
        kinds += ["add", "sub", "mul", "div", "neg", "pow", "min", "max", "abs"]
    kind = rng.choice(kinds)
    if kind == "const":
        return Const(float(np.round(rng.uniform(-5, 5), 3)))
    if kind == "var":
        return Var(str(rng.choice(["x", "y", "r"])))
    if kind == "neg":
        inner = _random_ast(rng, depth + 1)
        # canonical form: negated literals are negative constants
        if isinstance(inner, Const):
            return Const(-inner.value)
        return Unary("-", inner)
    if kind == "pow":
        return Binary("^", _random_ast(rng, depth + 1),
                      Const(float(rng.integers(-3, 4))))
    if kind in ("min", "max"):
        return Call(kind, (_random_ast(rng, depth + 1), _random_ast(rng, depth + 1)))
    if kind == "abs":
        return Call("abs", (_random_ast(rng, depth + 1),))
    op = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[kind]
    return Binary(op, _random_ast(rng, depth + 1), _random_ast(rng, depth + 1))


def test_roundtrip_random_asts():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        ast = _random_ast(rng)
        text = pretty(ast)
        again = parse_exponent(text)
        assert again == ast, text
        assert pretty(again) == text


def test_compile_on_domain_radius_default_center():
    dom = rectangle(-1, 1, -1, 1, 16)
    fn = compile_on_domain("1.5 + r", dom, dom.center)
    vals = fn(*dom.meshes)
    assert vals[8, 8] == pytest.approx(1.5 + dom.distance_from((0, 0))[8, 8])


def test_compile_on_domain_center_needs_one_coordinate_per_axis():
    square = rectangle(-1, 1, -1, 1, 16)
    with pytest.raises(ValueError, match="coordinates"):
        compile_on_domain("r", square, center=[0.5])
    fn = compile_on_domain("r", interval(0, 1, 16), center=0.25)
    assert fn(np.array([1.0]))[0] == pytest.approx(0.75)


def test_calls_evaluate_and_report_their_variables():
    # r appears only inside the call, and still gets its values
    square = rectangle(-1, 1, -1, 1, 16)
    x = np.array([-2.0, 0.25, 3.0])
    assert np.array_equal(evaluate(parse_exponent("min(x, 1) + abs(x)"), {"x": x}),
                          [0.0, 0.5, 4.0])
    node = parse_exponent("max(1.5, 2 - r)")
    assert variables(node) == {"r"}
    fn = compile_on_domain("max(1.5, 2 - r)", square, (0.5, 0.0))
    assert np.array_equal(fn(np.array([0.5, 0.0, -1.0]), np.zeros(3)), [2.0, 1.5, 1.5])


def test_compile_rejects_y_in_1d():
    dom = interval(0, 1, 16)
    with pytest.raises(ExpressionError, match="1D"):
        compile_on_domain("2 + y", dom, dom.center)


def test_division_guard_on_domain():
    dom = interval(0, 1, 16)
    fn = compile_on_domain("1 / (x - 0.53125)", dom, dom.center)
    with pytest.raises(ExpressionError, match="near-zero"):
        fn(*dom.meshes)


_ALPHABET = [*"0123456789.eE+-*/^(),xyr", "min", "max", "abs", " ",
             *"~$_z#\t", "é", "²", "٣", "½"]


def test_random_strings_parse_or_fail_at_an_offset():
    # any string either parses or raises ExpressionError at an offset
    # inside it (or at its end); never another exception
    rng = np.random.default_rng(13)
    for _ in range(3000):
        text = "".join(rng.choice(_ALPHABET, size=rng.integers(0, 16)))
        try:
            parse_exponent(text)
        except ExpressionError as e:
            assert e.pos is not None and 0 <= e.pos <= len(text), text


def test_evaluate_rejects_an_unbound_variable():
    # compile_on_domain binds what it uses; a bare environment may not
    with pytest.raises(ExpressionError, match="'r' is undefined"):
        evaluate(parse_exponent("x + r"), {"x": np.zeros(3)})
