"""Parsing and evaluation of scalar math expressions in the variables t, s, x.

Kernels and forcing terms can be given as text (e.g. in config files) using
a small closed language:

    binary operators:  +  -  *  /  ^        (^ is right-associative)
    unary minus:       -u
    functions:         sin cos tan exp ln sqrt abs   (one argument each)
    constants:         pi  e                (resolved at parse time)
    variables:         t  s  x

Precedence, tightest first: ``^``, unary minus, ``* /``, ``+ -``.  There is
no implicit multiplication ("5t" is an error; write "5*t").

Evaluation is IEEE double precision and total: a domain violation (log of a
non-positive value, square root of a negative value, division by zero,
fractional power of a negative base, overflow) raises :class:`EvalDomainError`
instead of returning NaN or infinity.  Scalars and numpy arrays are accepted
for t, s, x and broadcast together.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

__all__ = [
    "Token",
    "Expr",
    "Const",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "ExprError",
    "TokenizeError",
    "ParseError",
    "EvalDomainError",
    "tokenize",
    "parse",
    "parse_expression",
    "evaluate",
    "to_string",
    "variables_used",
]

FUNCTIONS = ("sin", "cos", "tan", "exp", "ln", "sqrt", "abs")
VARIABLES = ("t", "s", "x")
CONSTANTS = {"pi": math.pi, "e": math.e}

_UFUNC = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "ln": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
}


class ExprError(ValueError):
    """Base class for all expression-language errors."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (offset {position})"
        super().__init__(message)


class TokenizeError(ExprError):
    pass


class ParseError(ExprError):
    pass


class EvalDomainError(ExprError):
    """A subexpression produced a value outside the real domain."""


# ---------------------------------------------------------------------------
# tokens

@dataclass(frozen=True)
class Token:
    kind: str  # number | identifier | operator | lparen | rparen | comma
    lexeme: str
    position: int


_OPERATORS = "+-*/^"


def tokenize(source: str) -> list[Token]:
    """Split ``source`` into tokens, skipping whitespace.

    Raises :class:`TokenizeError` on an unknown character or a malformed
    number literal, reporting the character offset.
    """
    tokens: list[Token] = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            start = i
            while i < n and source[i].isdigit():
                i += 1
            if i < n and source[i] == ".":
                dot = i
                i += 1
                if i >= n or not source[i].isdigit():
                    raise TokenizeError("malformed number literal", dot)
                while i < n and source[i].isdigit():
                    i += 1
            if i < n and source[i] in "eE":
                # consume an exponent only if it is well-formed; otherwise the
                # letter is left for the next token ("2e" lexes as 2, e)
                j = i + 1
                if j < n and source[j] in "+-":
                    j += 1
                if j < n and source[j].isdigit():
                    i = j
                    while i < n and source[i].isdigit():
                        i += 1
            lexeme = source[start:i]
            if not math.isfinite(float(lexeme)):
                raise TokenizeError("number literal out of range", start)
            tokens.append(Token("number", lexeme, start))
            continue
        if c.isalpha() or c == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            tokens.append(Token("identifier", source[start:i], start))
            continue
        if c in _OPERATORS:
            tokens.append(Token("operator", c, i))
            i += 1
            continue
        if c == "(":
            tokens.append(Token("lparen", c, i))
            i += 1
            continue
        if c == ")":
            tokens.append(Token("rparen", c, i))
            i += 1
            continue
        if c == ",":
            tokens.append(Token("comma", c, i))
            i += 1
            continue
        raise TokenizeError(f"unknown character {c!r}", i)
    return tokens


# ---------------------------------------------------------------------------
# syntax tree

class Expr:
    """Base class of parsed expression nodes.  Nodes are immutable."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str

    def __post_init__(self):
        if self.name not in VARIABLES:
            raise ParseError(f"unknown variable {self.name!r}")


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # + - * / ^
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    arg: Expr

    def __post_init__(self):
        if self.fn not in FUNCTIONS:
            raise ParseError(f"unknown function {self.fn!r}")


# ---------------------------------------------------------------------------
# parser (recursive descent)

class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression")
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok is None or tok.kind != kind:
            where = tok.position if tok else None
            got = repr(tok.lexeme) if tok else "end of expression"
            raise ParseError(f"expected {what}, got {got}", where)
        return self.next()

    def expression(self) -> Expr:
        node = self.term()
        while (tok := self.peek()) and tok.kind == "operator" and tok.lexeme in "+-":
            self.next()
            node = BinOp(tok.lexeme, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.unary()
        while (tok := self.peek()) and tok.kind == "operator" and tok.lexeme in "*/":
            self.next()
            node = BinOp(tok.lexeme, node, self.unary())
        return node

    def unary(self) -> Expr:
        tok = self.peek()
        if tok and tok.kind == "operator" and tok.lexeme == "-":
            self.next()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        tok = self.peek()
        if tok and tok.kind == "operator" and tok.lexeme == "^":
            self.next()
            # right-associative; a unary exponent ("t^-2") is accepted
            return BinOp("^", base, self.unary())
        return base

    def atom(self) -> Expr:
        tok = self.next()
        if tok.kind == "number":
            return Const(float(tok.lexeme))
        if tok.kind == "lparen":
            node = self.expression()
            self.expect("rparen", "')'")
            return node
        if tok.kind == "identifier":
            name = tok.lexeme
            if name in FUNCTIONS:
                self.expect("lparen", "'(' after function name")
                arg = self.expression()
                if (nxt := self.peek()) and nxt.kind == "comma":
                    raise ParseError(
                        f"function {name!r} takes exactly one argument", nxt.position
                    )
                self.expect("rparen", "')'")
                return Call(name, arg)
            if name in CONSTANTS:
                return Const(CONSTANTS[name])
            if name in VARIABLES:
                return Var(name)
            raise ParseError(f"unknown identifier {name!r}", tok.position)
        raise ParseError(f"unexpected token {tok.lexeme!r}", tok.position)


def parse(tokens: list[Token]) -> Expr:
    """Parse a token stream into an :class:`Expr` tree."""
    parser = _Parser(tokens)
    node = parser.expression()
    if (tok := parser.peek()) is not None:
        raise ParseError(f"unexpected token {tok.lexeme!r}", tok.position)
    return node


def parse_expression(source: str) -> Expr:
    """Tokenize and parse in one step."""
    return parse(tokenize(source))


# ---------------------------------------------------------------------------
# evaluation

def _describe(node: Expr) -> str:
    text = to_string(node)
    if len(text) > 60:
        text = text[:57] + "..."
    return text


def _bad_inputs(mask, shape) -> str:
    # points are counted over the full broadcast input, whatever the rank of
    # the failing subexpression; a constant one has no input points
    mask = np.asarray(mask)
    if mask.ndim == 0:
        return "scalar input"
    mask = np.broadcast_to(mask, shape)
    first = tuple(int(i) for i in np.argwhere(mask)[0])
    return f"{int(np.count_nonzero(mask))} offending input point(s), first at index {first}"


def evaluate(expr: Expr, t, s, x):
    """Evaluate ``expr`` at the point(s) (t, s, x).

    Arguments may be floats or numpy arrays (broadcast together).  Returns a
    float for scalar inputs, an ndarray otherwise.  Never returns NaN or
    infinity: domain violations raise :class:`EvalDomainError` naming the
    offending subexpression.
    """
    env = {
        "t": np.asarray(t, dtype=float),
        "s": np.asarray(s, dtype=float),
        "x": np.asarray(x, dtype=float),
    }
    # the result, and the point set an error counts, take the full input shape
    shape = np.broadcast_shapes(env["t"].shape, env["s"].shape, env["x"].shape)

    def fail(node, why, mask=None):
        detail = f": {_bad_inputs(mask, shape)}" if mask is not None else ""
        raise EvalDomainError(f"{why} in {_describe(node)!r}{detail}")

    def check(node, value):
        if not np.all(np.isfinite(value)):
            fail(node, "non-finite result (overflow)", ~np.isfinite(value))
        return value

    def ev(node):
        if type(node) is Const:
            return node.value
        if type(node) is Var:
            return env[node.name]
        if type(node) is Neg:
            return np.negative(ev(node.operand))
        if type(node) is Call:
            arg = ev(node.arg)
            if node.fn == "ln" and np.any(mask := np.asarray(arg) <= 0.0):
                fail(node, "ln of a non-positive value", mask)
            if node.fn == "sqrt" and np.any(mask := np.asarray(arg) < 0.0):
                fail(node, "sqrt of a negative value", mask)
            return check(node, _UFUNC[node.fn](arg))
        # binary operator
        left, right = ev(node.left), ev(node.right)
        op = node.op
        if op == "+":
            return check(node, np.add(left, right))
        if op == "-":
            return check(node, np.subtract(left, right))
        if op == "*":
            return check(node, np.multiply(left, right))
        if op == "/":
            if np.any(mask := np.asarray(right) == 0.0):
                fail(node, "division by zero", mask)
            return check(node, np.divide(left, right))
        # power
        lb, rb = np.asarray(left), np.asarray(right)
        frac = rb != np.floor(rb)
        if np.any(mask := (lb < 0.0) & frac):
            fail(node, "fractional power of a negative base", mask)
        if np.any(mask := (lb == 0.0) & (rb < 0.0)):
            fail(node, "zero raised to a negative power", mask)
        return check(node, np.power(left, right))

    with np.errstate(all="ignore"):
        result = ev(expr)
    result = np.asarray(result, dtype=float)
    if shape == ():
        return float(result)
    return np.broadcast_to(result, shape).copy() if result.shape != shape else result


def variables_used(expr: Expr) -> set[str]:
    """Names of the variables appearing in ``expr``."""
    if type(expr) is Var:
        return {expr.name}
    if type(expr) is Neg:
        return variables_used(expr.operand)
    if type(expr) is Call:
        return variables_used(expr.arg)
    if type(expr) is BinOp:
        return variables_used(expr.left) | variables_used(expr.right)
    return set()


def to_string(expr: Expr) -> str:
    """Render a tree back to source text.

    Output is fully parenthesized, so re-parsing yields a structurally
    identical tree (and therefore bit-identical evaluation).
    """
    if type(expr) is Const:
        return repr(expr.value)
    if type(expr) is Var:
        return expr.name
    if type(expr) is Neg:
        return f"(-{to_string(expr.operand)})"
    if type(expr) is Call:
        return f"{expr.fn}({to_string(expr.arg)})"
    if type(expr) is BinOp:
        return f"({to_string(expr.left)} {expr.op} {to_string(expr.right)})"
    raise TypeError(f"not an Expr node: {expr!r}")
