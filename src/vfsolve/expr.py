"""Parsing and evaluation of scalar math expressions in the variables t, s, x.

Kernels and forcing terms can be given as text (e.g. in config files) using
a small closed language:

    binary operators:  +  -  *  /  ^        (^ is right-associative)
    unary minus:       -u
    functions:         sin cos tan exp ln sqrt abs   (one argument each)
    constants:         pi  e                (resolved at parse time)
    variables:         t  s  x

Precedence, tightest first: ``^``, unary minus, ``* /``, ``+ -``.  There is
no implicit multiplication ("5t" is an error; write "5*t").  Numbers and
names are ASCII.  A parse nests at most :data:`MAX_DEPTH` levels and builds
a tree at most :data:`MAX_DEPTH` levels deep, so that every recursive walk
of a tree stays inside Python's recursion limit.

Evaluation is IEEE double precision and total: a domain violation (log of a
non-positive value, square root of a negative value, division by zero,
fractional power of a negative base, overflow) raises :class:`EvalDomainError`
instead of returning NaN or infinity.  Scalars and numpy arrays are accepted
for t, s, x and broadcast together.

:func:`evaluate` interprets a tree and checks every subexpression.
:func:`compile_expression` turns a tree, once, into a function that makes the
same numpy calls with numpy's floating-point errors raised, checks only its
result, and re-runs :func:`evaluate` only to name an error.
:func:`split_terms` finds a form sum_r c_r(t, s) * e_r(s, x) that evaluates
bit-identically, which lets :mod:`vfsolve.discrete` evaluate the state-free
factors c_r once per grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import math
import string

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
    "compile_expression",
    "split_terms",
    "to_string",
    "variables_used",
]

FUNCTIONS = ("sin", "cos", "tan", "exp", "ln", "sqrt", "abs")
# the deepest a parse may nest (parentheses, calls, unary minuses, exponents)
# and the deepest tree it may build: the parser takes about six Python frames
# a level (about 610 at the limit), the tree walks one or two, inside the
# default recursion limit of 1000
MAX_DEPTH = 100
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

_BINARY_UFUNC = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
    "^": np.power,
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
# ASCII only: str.isdigit and str.isalpha accept other scripts' digits and letters
_DIGITS = frozenset(string.digits)
_NAME_START = frozenset(string.ascii_letters + "_")
_NAME_CHARS = _NAME_START | _DIGITS


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
        if c in _DIGITS:
            start = i
            while i < n and source[i] in _DIGITS:
                i += 1
            if i < n and source[i] == ".":
                dot = i
                i += 1
                if i >= n or source[i] not in _DIGITS:
                    raise TokenizeError("malformed number literal", dot)
                while i < n and source[i] in _DIGITS:
                    i += 1
            if i < n and source[i] in "eE":
                # consume an exponent only if it is well-formed; otherwise the
                # letter is left for the next token ("2e" lexes as 2, e)
                j = i + 1
                if j < n and source[j] in "+-":
                    j += 1
                if j < n and source[j] in _DIGITS:
                    i = j
                    while i < n and source[i] in _DIGITS:
                        i += 1
            lexeme = source[start:i]
            if not math.isfinite(float(lexeme)):
                raise TokenizeError("number literal out of range", start)
            tokens.append(Token("number", lexeme, start))
            continue
        if c in _NAME_START:
            start = i
            while i < n and source[i] in _NAME_CHARS:
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
        self.nesting = 0
        self.depths: dict[int, int] = {}  # tree depth by id() of each node built

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

    def too_deep(self, tok: Token) -> ParseError:
        return ParseError(f"expression nested deeper than {MAX_DEPTH} levels", tok.position)

    def nested(self, tok: Token, parse) -> Expr:
        """``parse()`` one nesting level below ``tok``."""
        if self.nesting == MAX_DEPTH:
            raise self.too_deep(tok)
        self.nesting += 1
        node = parse()
        self.nesting -= 1
        return node

    def build(self, tok: Token, cls, *fields) -> Expr:
        """The node ``cls(*fields)``, made at ``tok``, if the tree stays
        within MAX_DEPTH levels."""
        depth = 1 + max(self.depths.get(id(f), 1) for f in fields if isinstance(f, Expr))
        if depth > MAX_DEPTH:
            raise self.too_deep(tok)
        node = cls(*fields)
        self.depths[id(node)] = depth
        return node

    def expression(self) -> Expr:
        node = self.term()
        while (tok := self.peek()) and tok.kind == "operator" and tok.lexeme in "+-":
            self.next()
            node = self.build(tok, BinOp, tok.lexeme, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.unary()
        while (tok := self.peek()) and tok.kind == "operator" and tok.lexeme in "*/":
            self.next()
            node = self.build(tok, BinOp, tok.lexeme, node, self.unary())
        return node

    def unary(self) -> Expr:
        tok = self.peek()
        if tok and tok.kind == "operator" and tok.lexeme == "-":
            self.next()
            return self.build(tok, Neg, self.nested(tok, self.unary))
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        tok = self.peek()
        if tok and tok.kind == "operator" and tok.lexeme == "^":
            self.next()
            # right-associative; a unary exponent ("t^-2") is accepted
            return self.build(tok, BinOp, "^", base, self.nested(tok, self.unary))
        return base

    def atom(self) -> Expr:
        tok = self.next()
        if tok.kind == "number":
            return Const(float(tok.lexeme))
        if tok.kind == "lparen":
            node = self.nested(tok, self.expression)
            self.expect("rparen", "')'")
            return node
        if tok.kind == "identifier":
            name = tok.lexeme
            if name in FUNCTIONS:
                self.expect("lparen", "'(' after function name")
                arg = self.nested(tok, self.expression)
                if (nxt := self.peek()) and nxt.kind == "comma":
                    raise ParseError(
                        f"function {name!r} takes exactly one argument", nxt.position
                    )
                self.expect("rparen", "')'")
                return self.build(tok, Call, name, arg)
            if name in CONSTANTS:
                return Const(CONSTANTS[name])
            if name in VARIABLES:
                return Var(name)
            raise ParseError(f"unknown identifier {name!r}", tok.position)
        raise ParseError(f"unexpected token {tok.lexeme!r}", tok.position)


def parse(tokens: list[Token]) -> Expr:
    """Parse a token stream into an :class:`Expr` tree.

    Raises :class:`ParseError`, with an offset, on bad syntax and where the
    parse nests, or the tree gets, deeper than :data:`MAX_DEPTH` levels.
    """
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
    infinity: a non-finite value of a variable the expression uses, and
    domain violations, raise :class:`EvalDomainError` naming the variable or
    the offending subexpression.
    """
    env = {
        "t": np.asarray(t, dtype=float),
        "s": np.asarray(s, dtype=float),
        "x": np.asarray(x, dtype=float),
    }
    # the result, and the point set an error counts, take the full input shape
    shape = np.broadcast_shapes(env["t"].shape, env["s"].shape, env["x"].shape)
    for name in sorted(variables_used(expr), key=VARIABLES.index):
        if not np.isfinite(env[name]).all():
            mask = np.broadcast_to(~np.isfinite(env[name]), shape)
            raise EvalDomainError(
                f"non-finite input {name} in {_describe(expr)!r}: {_bad_inputs(mask, shape)}"
            )

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
        if node.op == "/" and np.any(mask := np.asarray(right) == 0.0):
            fail(node, "division by zero", mask)
        if node.op == "^":
            lb, rb = np.asarray(left), np.asarray(right)
            frac = rb != np.floor(rb)
            if np.any(mask := (lb < 0.0) & frac):
                fail(node, "fractional power of a negative base", mask)
            if np.any(mask := (lb == 0.0) & (rb < 0.0)):
                fail(node, "zero raised to a negative power", mask)
        return check(node, _BINARY_UFUNC[node.op](left, right))

    with np.errstate(all="ignore"):
        result = ev(expr)
    result = np.asarray(result, dtype=float)
    if shape == ():
        return float(result)
    return np.broadcast_to(result, shape).copy() if result.shape != shape else result


_VARIABLE = {
    "t": lambda t, s, x: t,
    "s": lambda t, s, x: s,
    "x": lambda t, s, x: x,
}


def _compile_node(node: Expr):
    """``node`` as a function of (t, s, x) making :func:`evaluate`'s ufunc calls."""
    if type(node) is Const:
        value = node.value
        return lambda t, s, x: value
    if type(node) is Var:
        return _VARIABLE[node.name]
    if type(node) is Neg:
        operand = _compile_node(node.operand)
        return lambda t, s, x: np.negative(operand(t, s, x))
    if type(node) is Call:
        ufunc, arg = _UFUNC[node.fn], _compile_node(node.arg)
        return lambda t, s, x: ufunc(arg(t, s, x))
    ufunc = _BINARY_UFUNC[node.op]
    left, right = _compile_node(node.left), _compile_node(node.right)
    return lambda t, s, x: ufunc(left(t, s, x), right(t, s, x))


def compile_expression(expr: Expr):
    """Compile ``expr`` once into a function ``f(t, s, x)`` with the contract
    of :func:`evaluate`.

    ``f`` makes the same numpy calls in the same order as :func:`evaluate`, so
    its results are bit-identical, but it checks only for floating-point
    errors (numpy raising) and for a non-finite final result.  When either
    check fails it re-runs :func:`evaluate`, which raises the
    :class:`EvalDomainError` naming the offending subexpression.
    """
    body = _compile_node(expr)

    def compiled(t, s, x):
        ta = np.asarray(t, dtype=float)
        sa = np.asarray(s, dtype=float)
        xa = np.asarray(x, dtype=float)
        shape = np.broadcast(ta, sa, xa).shape
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                result = np.asarray(body(ta, sa, xa), dtype=float)
        except FloatingPointError:
            return evaluate(expr, t, s, x)
        if not np.isfinite(result).all():
            return evaluate(expr, t, s, x)
        if shape == ():
            return float(result)
        return result if result.shape == shape else np.broadcast_to(result, shape).copy()

    return compiled


# stands for the factor a term does not have; multiplying by it is exact
_ONE = Const(1.0)


def split_terms(expr: Expr) -> tuple[tuple[Expr, Expr], ...] | None:
    """Factor ``expr`` as sum_r c_r(t, s) * e_r(s, x), or None if this cannot.

    Returns the pairs (c_r, e_r): c_r does not use x, e_r does not use t.
    Multiplying each pair and adding the products from left to right makes
    the floating-point operations of ``expr`` in its own order (multiplying
    by a stand-in 1.0 and negating are exact), so the sum is bit-identical
    to ``expr``.  A subtree without x (a constant included) is the term
    (node, 1) and one without t is (1, node); a product of a factor without
    x and one without t is one term; ``u + v`` and ``u - v`` append the one
    term of v to the terms of u; unary minus negates each c_r.  Anything
    else that mixes t and x is None: a function or power of both
    (``cos(t*x)``, ``t^x``), a quotient, a product of a mixed factor
    (``t*x*x``) or a sum in parentheses on the right of + or -.
    """
    used = variables_used(expr)
    if "x" not in used:
        return ((expr, _ONE),)
    if "t" not in used:
        return ((_ONE, expr),)
    if type(expr) is Neg:
        terms = split_terms(expr.operand)
        return None if terms is None else tuple((Neg(c), e) for c, e in terms)
    if type(expr) is not BinOp:
        return None
    if expr.op == "*":
        left, right = variables_used(expr.left), variables_used(expr.right)
        if "x" not in left and "t" not in right:
            return ((expr.left, expr.right),)
        if "t" not in left and "x" not in right:  # u*v and v*u round alike
            return ((expr.right, expr.left),)
        return None
    if expr.op in "+-":
        left, right = split_terms(expr.left), split_terms(expr.right)
        if left is None or right is None or len(right) != 1:
            return None
        ((c, e),) = right
        return left + ((c if expr.op == "+" else Neg(c), e),)
    return None


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
