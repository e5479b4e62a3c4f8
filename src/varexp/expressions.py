"""Tiny arithmetic expression language for exponent and sample fields.

Grammar (recursive descent, standard precedence):

    expr   :=  term (('+' | '-') term)*
    term   :=  unary (('*' | '/') unary)*
    unary  :=  '-' unary | power
    power  :=  atom ('^' signed-number)?        # constant exponents only
    atom   :=  number | 'x' | 'y' | 'r'
             | ('min' | 'max') '(' expr ',' expr ')'
             | 'abs' '(' expr ')'
             | '(' expr ')'

``r`` is the Euclidean distance to a configurable center point.  The
language is deliberately small: constants, coordinates, arithmetic,
min/max/abs, and powers with constant exponent cover every field these
tools configure, while keeping the parser a single file.

Parse errors carry the byte offset of the offending token.  Division is
guarded at field-build time: sampling an expression onto a grid checks
every divisor against a near-zero floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import as_point

__all__ = [
    "ExpressionError",
    "Node",
    "Const",
    "Var",
    "Unary",
    "Binary",
    "Call",
    "parse_exponent",
    "pretty",
    "evaluate",
    "variables",
    "compile_on_domain",
]

DIVISOR_FLOOR = 1e-12
_FUNCTIONS = {"min": 2, "max": 2, "abs": 1}
_VARIABLES = ("x", "y", "r")


class ExpressionError(ValueError):
    """Parse or evaluation failure, with a byte offset when known."""

    def __init__(self, message: str, pos: int | None = None):
        self.pos = pos
        if pos is not None:
            message = f"{message} (at offset {pos})"
        super().__init__(message)


class Node:
    pass


@dataclass(frozen=True)
class Const(Node):
    value: float


@dataclass(frozen=True)
class Var(Node):
    name: str


@dataclass(frozen=True)
class Unary(Node):
    op: str          # '-'
    operand: Node


@dataclass(frozen=True)
class Binary(Node):
    op: str          # '+', '-', '*', '/', '^'
    left: Node
    right: Node


@dataclass(frozen=True)
class Call(Node):
    name: str        # 'min', 'max', 'abs'
    args: tuple[Node, ...]


# ---------------------------------------------------------------------------
# tokenizer

@dataclass(frozen=True)
class _Token:
    kind: str        # 'num', 'name', 'op', 'end'
    text: str
    pos: int


def _tokenize(source: str) -> list[_Token]:
    out = []
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            while j < n and (source[j].isdigit() or source[j] == "."
                             or source[j] in "eE"
                             or (source[j] in "+-" and j > i and source[j - 1] in "eE")):
                j += 1
            try:
                float(source[i:j])
            except ValueError:
                raise ExpressionError(f"malformed number {source[i:j]!r}", i) from None
            out.append(_Token("num", source[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            out.append(_Token("name", source[i:j], i))
            i = j
            continue
        if c in "+-*/^(),":
            out.append(_Token("op", c, i))
            i += 1
            continue
        raise ExpressionError(f"unexpected character {c!r}", i)
    out.append(_Token("end", "", n))
    return out


# ---------------------------------------------------------------------------
# parser

class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def eat(self, kind: str, text: str | None = None) -> _Token:
        tok = self.cur
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise ExpressionError(f"expected {want!r}, found {tok.text or 'end of input'!r}",
                                  tok.pos)
        self.i += 1
        return tok

    def parse(self) -> Node:
        node = self.expr()
        if self.cur.kind != "end":
            raise ExpressionError(f"trailing input {self.cur.text!r}", self.cur.pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.cur.kind == "op" and self.cur.text in "+-":
            op = self.eat("op").text
            node = Binary(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.cur.kind == "op" and self.cur.text in "*/":
            op = self.eat("op").text
            node = Binary(op, node, self.unary())
        return node

    def unary(self) -> Node:
        if self.cur.kind == "op" and self.cur.text == "-":
            self.eat("op")
            inner = self.unary()
            # fold literal negation so "-2" round-trips as a constant
            if isinstance(inner, Const):
                return Const(-inner.value)
            return Unary("-", inner)
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        if self.cur.kind == "op" and self.cur.text == "^":
            self.eat("op")
            node = self.signed_number()
            return Binary("^", base, node)
        return base

    def signed_number(self) -> Const:
        neg = False
        while self.cur.kind == "op" and self.cur.text in "+-":
            neg ^= self.cur.text == "-"
            self.eat("op")
        if self.cur.kind == "op" and self.cur.text == "(":
            self.eat("op")
            node = self.signed_number()
            self.eat("op", ")")
            return node
        tok = self.eat("num")
        val = float(tok.text)
        return Const(-val if neg else val)

    def atom(self) -> Node:
        tok = self.cur
        if tok.kind == "num":
            self.eat("num")
            return Const(float(tok.text))
        if tok.kind == "name":
            self.eat("name")
            name = tok.text
            if name in _FUNCTIONS:
                arity = _FUNCTIONS[name]
                self.eat("op", "(")
                args = [self.expr()]
                while self.cur.kind == "op" and self.cur.text == ",":
                    self.eat("op")
                    args.append(self.expr())
                self.eat("op", ")")
                if len(args) != arity:
                    raise ExpressionError(
                        f"{name} takes {arity} argument(s), got {len(args)}", tok.pos)
                return Call(name, tuple(args))
            if name in _VARIABLES:
                return Var(name)
            raise ExpressionError(f"unknown identifier {name!r}", tok.pos)
        if tok.kind == "op" and tok.text == "(":
            self.eat("op")
            node = self.expr()
            self.eat("op", ")")
            return node
        raise ExpressionError(f"unexpected token {tok.text or 'end of input'!r}", tok.pos)


def parse_exponent(source: str) -> Node:
    """Parse an expression string into its tree."""
    if not source or not source.strip():
        raise ExpressionError("empty expression", 0)
    return _Parser(source).parse()


# ---------------------------------------------------------------------------
# printer (precedence-aware, round-trips through parse_exponent)

_LEVEL = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _fmt_num(v: float) -> str:
    return repr(float(v))


def pretty(node: Node) -> str:
    text, _ = _pretty(node)
    return text


def _pretty(node: Node) -> tuple[str, int]:
    if isinstance(node, Const):
        if node.value < 0:
            return f"-{_fmt_num(-node.value)}", _LEVEL["neg"]
        return _fmt_num(node.value), _LEVEL["atom"]
    if isinstance(node, Var):
        return node.name, _LEVEL["atom"]
    if isinstance(node, Unary):
        inner, lvl = _pretty(node.operand)
        if lvl < _LEVEL["neg"]:
            inner = f"({inner})"
        return f"-{inner}", _LEVEL["neg"]
    if isinstance(node, Call):
        args = ", ".join(_pretty(a)[0] for a in node.args)
        return f"{node.name}({args})", _LEVEL["atom"]
    if isinstance(node, Binary):
        if node.op == "^":
            base, lvl = _pretty(node.left)
            if lvl < _LEVEL["atom"]:
                base = f"({base})"
            expo = node.right.value
            etxt = _fmt_num(abs(expo))
            if expo < 0:
                etxt = f"(-{etxt})"
            return f"{base}^{etxt}", _LEVEL["^"]
        my = _LEVEL[node.op]
        left, llvl = _pretty(node.left)
        right, rlvl = _pretty(node.right)
        if llvl < my:
            left = f"({left})"
        # the grammar is left-associative, so a same-level right child
        # must keep its parentheses to round-trip
        if rlvl <= my:
            right = f"({right})"
        return f"{left} {node.op} {right}", my
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# evaluation

def variables(node: Node) -> set[str]:
    """Names of the coordinate variables the expression uses."""
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Unary):
        return variables(node.operand)
    if isinstance(node, Binary):
        return variables(node.left) | variables(node.right)
    if isinstance(node, Call):
        out: set[str] = set()
        for a in node.args:
            out |= variables(a)
        return out
    return set()


def evaluate(node: Node, env: dict):
    """Evaluate against an environment mapping variable names to arrays.

    A divisor below ``DIVISOR_FLOOR`` in magnitude raises ExpressionError.
    """
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        if node.name not in env:
            raise ExpressionError(f"variable {node.name!r} is undefined here")
        return env[node.name]
    if isinstance(node, Unary):
        return -evaluate(node.operand, env)
    if isinstance(node, Call):
        vals = [evaluate(a, env) for a in node.args]
        if node.name == "abs":
            return np.abs(vals[0])
        if node.name == "min":
            return np.minimum(vals[0], vals[1])
        return np.maximum(vals[0], vals[1])
    if isinstance(node, Binary):
        a = evaluate(node.left, env)
        if node.op == "^":
            return np.power(a, node.right.value)
        b = evaluate(node.right, env)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if np.any(np.abs(b) < DIVISOR_FLOOR):
            raise ExpressionError("division by a near-zero value on the domain")
        return a / b
    raise TypeError(f"not an expression node: {node!r}")


def compile_on_domain(node_or_source, domain, center=None):
    """Return a per-axis callable evaluating the expression on coordinate arrays.

    ``center`` anchors the ``r`` variable (defaults to the domain
    center).  The callable broadcasts over whatever coordinate arrays it
    is given, so it can be resampled onto subdomains.
    """
    node = parse_exponent(node_or_source) if isinstance(node_or_source, str) \
        else node_or_source
    used = variables(node)
    center = domain.center if center is None else as_point(center, domain.dim)
    if "y" in used and domain.dim < 2:
        raise ExpressionError("variable 'y' is undefined on a 1D domain")

    def fn(*coords):
        coords = [np.asarray(c, dtype=float) for c in coords]
        env = {"x": coords[0]}
        if len(coords) > 1:
            env["y"] = coords[1]
        if "r" in used:
            env["r"] = np.sqrt(sum((c - c0) ** 2 for c, c0 in zip(coords, center)))
        return evaluate(node, env)

    return fn
