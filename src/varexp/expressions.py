"""Tiny arithmetic expression language for exponent and sample fields.

Grammar (recursive descent, standard precedence):

    expr   :=  term (('+' | '-') term)*
    term   :=  unary (('*' | '/') unary)*
    unary  :=  '-' unary | atom ('^' signed-number)?    # constant exponents only
    atom   :=  number | 'x' | 'y' | 'r'
             | ('min' | 'max') '(' expr ',' expr ')'
             | 'abs' '(' expr ')'
             | '(' expr ')'

``r`` is the Euclidean distance to a configurable center point.  The
language is deliberately small: constants, coordinates, arithmetic,
min/max/abs, and powers with constant exponent cover every field these
tools configure, while keeping the parser a single file.

Parse errors carry the byte offset of the offending token.  Nesting or a
tree height past ``MAX_DEPTH`` is one, which bounds every recursion over
the tree.  Division is guarded at field-build time: sampling an
expression onto a grid checks every divisor against a near-zero floor.
"""

from __future__ import annotations

import re
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
MAX_DEPTH = 100
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
# scanner

@dataclass(frozen=True)
class _Token:
    kind: str        # 'num', 'name', 'op', 'end'
    text: str
    pos: int


# one token per match; whitespace between matches is skipped.  A number
# runs over digits, dots and exponent marks (a sign only right after
# one); a malformed one, or one that a digit outside \d such as '²'
# follows, fails as a whole.  A name starts with a letter or '_'.
_TOKEN = re.compile(r"(?P<num>(?:\d|\.\d)(?:[\d.]|[eE][+-]?)*)|(?P<name>[^\W\d]\w*)"
                    r"|(?P<op>[-+*/^(),])|(?P<bad>\S)")


def _bounded(depth: int, pos: int) -> int:
    """``depth``, unless it passes ``MAX_DEPTH`` at offset ``pos``."""
    if depth > MAX_DEPTH:
        raise ExpressionError(f"expression nested deeper than {MAX_DEPTH} levels", pos)
    return depth


def _tokenize(source: str) -> list[_Token]:
    out, depth, signs = [], 0, 0
    for m in _TOKEN.finditer(source):
        tok = _Token(m.lastgroup, m.group(), m.start())
        if tok.kind == "bad" or tok.kind == "name" and not (
                tok.text[0].isalpha() or tok.text[0] == "_"):
            raise ExpressionError(f"unexpected character {tok.text[0]!r}", tok.pos)
        if tok.kind == "num":
            try:
                float(tok.text)
                if source[m.end():m.end() + 1].isdigit():
                    raise ValueError
            except ValueError:
                raise ExpressionError(f"malformed number {tok.text!r}", tok.pos) from None
        # the parser recurses once per open parenthesis and per sign in a row
        depth += (tok.text == "(") - (tok.text == ")")
        signs = signs + 1 if tok.text == "-" else 0
        _bounded(max(depth, signs), tok.pos)
        out.append(tok)
    out.append(_Token("end", "", len(source)))
    return out


# ---------------------------------------------------------------------------
# parser

# binary operators by rising precedence, all left-associative; unary
# minus and '^' bind tighter than every level
_LEVELS = ("+-", "*/")


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.i = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def accept(self, ops: str) -> str:
        """The current operator, consumed, if it is one of ``ops``; else ''."""
        tok = self.cur
        if tok.kind != "op" or tok.text not in ops:
            return ""
        self.i += 1
        return tok.text

    def eat(self, kind: str, text: str | None = None) -> _Token:
        tok = self.cur
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise ExpressionError(f"expected {want!r}, found {tok.text or 'end of input'!r}",
                                  tok.pos)
        self.i += 1
        return tok

    def parse(self) -> Node:
        node, _ = self.binary()
        if self.cur.kind != "end":
            raise ExpressionError(f"trailing input {self.cur.text!r}", self.cur.pos)
        return node

    # binary, unary and atom return the subtree and its height
    def binary(self, level: int = 0) -> tuple[Node, int]:
        if level == len(_LEVELS):
            return self.unary()
        node, height = self.binary(level + 1)
        while op := self.accept(_LEVELS[level]):
            pos = self.tokens[self.i - 1].pos
            right, top = self.binary(level + 1)
            node, height = Binary(op, node, right), _bounded(1 + max(height, top), pos)
        return node, height

    def unary(self) -> tuple[Node, int]:
        tok = self.cur
        if self.accept("-"):
            inner, height = self.unary()
            # fold literal negation so "-2" round-trips as a constant
            return (Const(-inner.value), 1) if isinstance(inner, Const) \
                else (Unary("-", inner), _bounded(height + 1, tok.pos))
        base, height = self.atom()
        if self.accept("^"):
            return Binary("^", base, self.signed_number()), _bounded(height + 1, tok.pos)
        return base, height

    def signed_number(self) -> Const:
        neg = False
        while op := self.accept("+-"):
            neg ^= op == "-"
        if self.accept("("):
            node = self.signed_number()
            self.eat("op", ")")
            return Const(-node.value) if neg else node
        val = float(self.eat("num").text)
        return Const(-val if neg else val)

    def atom(self) -> tuple[Node, int]:
        tok = self.cur
        if tok.kind == "num":
            return Const(float(self.eat("num").text)), 1
        if tok.kind == "name":
            name = self.eat("name").text
            if name in _FUNCTIONS:
                self.eat("op", "(")
                args = [self.binary()]
                while self.accept(","):
                    args.append(self.binary())
                self.eat("op", ")")
                if len(args) != _FUNCTIONS[name]:
                    raise ExpressionError(f"{name} takes {_FUNCTIONS[name]} argument(s), "
                                          f"got {len(args)}", tok.pos)
                height = _bounded(1 + max(h for _, h in args), tok.pos)
                return Call(name, tuple(node for node, _ in args)), height
            if name in _VARIABLES:
                return Var(name), 1
            raise ExpressionError(f"unknown identifier {name!r}", tok.pos)
        if self.accept("("):
            node = self.binary()
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


def pretty(node: Node) -> str:
    text, _ = _pretty(node)
    return text


def _pretty(node: Node) -> tuple[str, int]:
    if isinstance(node, Const):
        if node.value < 0:
            return f"-{float(-node.value)!r}", _LEVEL["neg"]
        return repr(float(node.value)), _LEVEL["atom"]
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
            etxt = repr(float(abs(expo)))
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
        return set().union(*map(variables, node.args))
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


def compile_on_domain(source: str, domain, center):
    """Return a per-axis callable evaluating ``source`` on coordinate arrays.

    ``center``, a point of the domain's dimension, anchors the ``r``
    variable.  The callable broadcasts over whatever coordinate arrays it
    is given, so it can be resampled onto subdomains.
    """
    node = parse_exponent(source)
    used = variables(node)
    center = as_point(center, domain.dim)
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
