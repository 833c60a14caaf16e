"""Parser and evaluator tests.

The corpus below is checked against hand-written evaluators built directly on
the math module, so any systematic mistake in the parser or the numpy
evaluation path shows up as a disagreement.
"""

import math

import numpy as np
import pytest

from vfsolve.expr import (
    MAX_DEPTH,
    BinOp,
    Call,
    Const,
    EvalDomainError,
    Neg,
    ParseError,
    TokenizeError,
    Var,
    compile_expression,
    evaluate,
    parse_expression,
    split_terms,
    to_string,
    tokenize,
    variables_used,
)

# (source, independent evaluator) — every entry is finite for t, s, x in [0.1, 2]
CORPUS = [
    ("t + s*x", lambda t, s, x: t + s * x),
    ("t - s - x", lambda t, s, x: t - s - x),
    ("t*s/x", lambda t, s, x: t * s / x),
    ("t^2 + s^2", lambda t, s, x: t**2 + s**2),
    ("2^t^2", lambda t, s, x: 2.0 ** (t**2)),
    ("-t^2", lambda t, s, x: -(t**2)),
    ("-t*s + x", lambda t, s, x: (-t) * s + x),
    ("sin(t)*cos(s) + tan(x/4)", lambda t, s, x: math.sin(t) * math.cos(s) + math.tan(x / 4)),
    ("exp(-t) + ln(t)", lambda t, s, x: math.exp(-t) + math.log(t)),
    ("sqrt(t*s) + abs(-x)", lambda t, s, x: math.sqrt(t * s) + abs(-x)),
    ("pi*t + e", lambda t, s, x: math.pi * t + math.e),
    ("1/(1+t^2)", lambda t, s, x: 1.0 / (1.0 + t**2)),
    ("(t+s)*(t-s)", lambda t, s, x: (t + s) * (t - s)),
    ("t/s/x", lambda t, s, x: t / s / x),
    ("5*t*s*cos(x)", lambda t, s, x: 5.0 * t * s * math.cos(x)),
    ("11/2*t^2*s^2*x", lambda t, s, x: 11.0 / 2.0 * t**2 * s**2 * x),
    (
        "11/8*t^2 - 4*t + 5*t*cos(t) + 5*t^2*sin(t)",
        lambda t, s, x: 11.0 / 8.0 * t**2 - 4.0 * t + 5.0 * t * math.cos(t) + 5.0 * t**2 * math.sin(t),
    ),
    ("ln(exp(t)) + exp(ln(s))", lambda t, s, x: math.log(math.exp(t)) + math.exp(math.log(s))),
    ("t^0.5 * x^3", lambda t, s, x: t**0.5 * x**3),
    ("abs(t-s)^2 + sqrt(abs(s-x))", lambda t, s, x: abs(t - s) ** 2 + math.sqrt(abs(s - x))),
]


def test_corpus_against_independent_evaluator():
    rng = np.random.default_rng(20240817)
    assert len(CORPUS) == 20
    for source, reference in CORPUS:
        tree = parse_expression(source)
        pts = rng.uniform(0.1, 2.0, size=(100, 3))
        for t, s, x in pts:
            got = evaluate(tree, t, s, x)
            want = reference(t, s, x)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300), source


def test_corpus_vectorized_matches_scalar():
    rng = np.random.default_rng(7)
    t = rng.uniform(0.1, 2.0, size=50)
    s = rng.uniform(0.1, 2.0, size=50)
    x = rng.uniform(0.1, 2.0, size=50)
    for source, _ in CORPUS:
        tree = parse_expression(source)
        vec = evaluate(tree, t, s, x)
        assert vec.shape == (50,)
        for i in range(50):
            assert vec[i] == evaluate(tree, t[i], s[i], x[i]), source


# ---------------------------------------------------------------------------
# grammar and precedence

def test_power_is_right_associative():
    assert evaluate(parse_expression("2^3^2"), 0, 0, 0) == 512.0


def test_unary_minus_binds_looser_than_power():
    assert evaluate(parse_expression("-t^2"), 1.0, 0, 0) == -1.0


def test_unary_minus_binds_tighter_than_multiplication():
    tree = parse_expression("-t*s")
    assert tree == BinOp("*", Neg(Var("t")), Var("s"))


def test_subtraction_left_associative():
    assert evaluate(parse_expression("2-3-4"), 0, 0, 0) == -5.0


def test_division_left_associative():
    assert evaluate(parse_expression("2/4/5"), 0, 0, 0) == 0.1


def test_unary_exponent_allowed():
    assert evaluate(parse_expression("t^-2"), 2.0, 0, 0) == 0.25


def test_constants_resolved_at_parse_time():
    assert parse_expression("pi") == Const(math.pi)
    assert parse_expression("e") == Const(math.e)


def test_scientific_notation():
    assert evaluate(parse_expression("2e3 + 1.5e-2"), 0, 0, 0) == 2000.015
    assert evaluate(parse_expression("1E2"), 0, 0, 0) == 100.0


def test_number_then_e_identifier_is_not_an_exponent():
    # "2e" is the number 2 followed by the constant e; without an operator in
    # between that is a parse error, not a malformed number
    with pytest.raises(ParseError):
        parse_expression("2e")


def test_no_implicit_multiplication():
    with pytest.raises(ParseError, match="unexpected token"):
        parse_expression("5t")


def test_function_arity_is_one():
    with pytest.raises(ParseError, match="exactly one argument"):
        parse_expression("sin(t,s)")


def test_unknown_identifier():
    with pytest.raises(ParseError, match="unknown identifier 'y'"):
        parse_expression("y + 1")


def test_unbalanced_parenthesis():
    with pytest.raises(ParseError):
        parse_expression("(t + s")
    with pytest.raises(ParseError):
        parse_expression("t + s)")


def test_empty_source():
    with pytest.raises(ParseError):
        parse_expression("")


def test_malformed_number_reports_offset():
    with pytest.raises(TokenizeError) as err:
        tokenize("3..2")
    assert err.value.position == 1


def test_unknown_character_reports_offset():
    with pytest.raises(TokenizeError) as err:
        tokenize("t$")
    assert err.value.position == 1


@pytest.mark.parametrize(
    "source, message",
    [
        ("5.e3", "malformed number literal (offset 1)"),
        ("5.5.", "unknown character '.' (offset 3)"),
    ],
)
def test_dot_after_a_number(source, message):
    with pytest.raises(TokenizeError) as err:
        tokenize(source)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "source, tokens",
    [
        ("1.5e+3", [("number", "1.5e+3", 0)]),
        ("2e+", [("number", "2", 0), ("identifier", "e", 1), ("operator", "+", 2)]),
        # skipped as str.isspace skips them: no-break space, file separator
        ("t\u00a0+\x1cs", [("identifier", "t", 0), ("operator", "+", 2), ("identifier", "s", 4)]),
    ],
)
def test_tokenize_edge_cases(source, tokens):
    assert [(t.kind, t.lexeme, t.position) for t in tokenize(source)] == tokens


def test_number_literal_out_of_range():
    with pytest.raises(TokenizeError) as err:
        parse_expression("1e999")
    assert str(err.value) == "number literal out of range (offset 0)"


@pytest.mark.parametrize(
    "source, char, offset", [("5²", "²", 1), ("٣*t", "٣", 0), ("2*ｔ", "ｔ", 2)]
)
def test_only_ascii_digits_and_letters(source, char, offset):
    # str.isdigit and str.isalpha would take these for digits and letters
    with pytest.raises(TokenizeError) as err:
        parse_expression(source)
    assert str(err.value) == f"unknown character {char!r} (offset {offset})"


@pytest.mark.parametrize("source", [")", "+", ")t", "+t"])
def test_leading_token_that_starts_no_atom(source):
    with pytest.raises(ParseError) as err:
        parse_expression(source)
    assert str(err.value) == f"unexpected token {source[0]!r} (offset 0)"


def test_nodes_check_their_names():
    # the parser builds only known names; a hand-built node is checked too
    with pytest.raises(ParseError) as err:
        Var("y")
    assert str(err.value) == "unknown variable 'y'"
    with pytest.raises(ParseError) as err:
        Call("foo", Const(1.0))
    assert str(err.value) == "unknown function 'foo'"


def test_to_string_refuses_a_non_node():
    node = object()
    with pytest.raises(TypeError) as err:
        to_string(node)
    assert str(err.value) == f"not an Expr node: {node!r}"


# (source, offset where MAX_DEPTH is passed): nesting, tree depth, nesting
TOO_DEEP = {
    "200 parentheses": ("(" * 200 + "t" + ")" * 200, 100),
    "1,000-term sum": (" + ".join(["t*s*x"] * 1000), 782),
    "1,200 unary minuses": ("-" * 1200 + "t", 100),
}


@pytest.mark.parametrize("source, offset", TOO_DEEP.values(), ids=TOO_DEEP.keys())
def test_too_deep_expression_is_a_parse_error(source, offset):
    with pytest.raises(ParseError) as err:
        parse_expression(source)
    assert str(err.value) == (
        f"expression nested deeper than {MAX_DEPTH} levels (offset {offset})"
    )


def test_depth_limit_is_exact():
    assert parse_expression("(" * MAX_DEPTH + "t" + ")" * MAX_DEPTH) == Var("t")
    with pytest.raises(ParseError, match="nested deeper"):
        parse_expression("(" * (MAX_DEPTH + 1) + "t" + ")" * (MAX_DEPTH + 1))
    # a tree of MAX_DEPTH levels: MAX_DEPTH - 1 minuses over a leaf
    assert parse_expression("-" * (MAX_DEPTH - 1) + "t") is not None
    with pytest.raises(ParseError, match="nested deeper"):
        parse_expression("-" * MAX_DEPTH + "t")


def test_50_term_sum_parses_and_evaluates_bit_identically():
    tree = parse_expression(" + ".join(["t*s*x"] * 50))
    t, s, x = np.random.default_rng(50).uniform(0.1, 2.0, size=(3, 20))
    want = t * s * x
    for _ in range(49):
        want = want + t * s * x
    assert np.array_equal(evaluate(tree, t, s, x), want)
    assert np.array_equal(compile_expression(tree)(t, s, x), want)


def test_whitespace_ignored():
    assert parse_expression(" t +\ts\n* x ") == parse_expression("t+s*x")


# ---------------------------------------------------------------------------
# domain errors

def test_ln_of_nonpositive():
    tree = parse_expression("ln(t)")
    with pytest.raises(EvalDomainError, match="ln of a non-positive"):
        evaluate(tree, 0.0, 0.0, 0.0)
    with pytest.raises(EvalDomainError):
        evaluate(tree, -1.0, 0.0, 0.0)


def test_sqrt_of_negative():
    with pytest.raises(EvalDomainError, match="sqrt of a negative"):
        evaluate(parse_expression("sqrt(t)"), -1e-12, 0.0, 0.0)


def test_division_by_zero():
    with pytest.raises(EvalDomainError, match="division by zero"):
        evaluate(parse_expression("1/t"), 0.0, 0.0, 0.0)


def test_fractional_power_of_negative_base():
    with pytest.raises(EvalDomainError, match="fractional power"):
        evaluate(parse_expression("t^0.5"), -2.0, 0.0, 0.0)


def test_integer_power_of_negative_base_is_fine():
    assert evaluate(parse_expression("t^2"), -3.0, 0.0, 0.0) == 9.0
    assert evaluate(parse_expression("t^3"), -2.0, 0.0, 0.0) == -8.0
    assert compile_expression(parse_expression("t^2 + t^3"))(-3.0, 0.0, 0.0) == -18.0


def test_zero_to_negative_power():
    with pytest.raises(EvalDomainError, match="zero raised to a negative"):
        evaluate(parse_expression("t^-1"), 0.0, 0.0, 0.0)


def test_overflow_is_an_error():
    with pytest.raises(EvalDomainError, match="non-finite"):
        evaluate(parse_expression("exp(t)"), 1000.0, 0.0, 0.0)


def test_domain_error_in_array_input():
    tree = parse_expression("ln(t)")
    with pytest.raises(EvalDomainError):
        evaluate(tree, np.array([1.0, 2.0, -3.0]), 0.0, 0.0)


def test_domain_error_names_subexpression():
    with pytest.raises(EvalDomainError, match=r"ln\(t - 2\.0\)"):
        evaluate(parse_expression("ln(t-2)"), 1.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# compiled kernels: bit-identical results, identical errors

def _assert_same(got, want):
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_compiled_corpus_is_bit_identical_for_scalars():
    rng = np.random.default_rng(31)
    for source, _ in CORPUS:
        tree = parse_expression(source)
        compiled = compile_expression(tree)
        for t, s, x in rng.uniform(0.1, 2.0, size=(20, 3)):
            got = compiled(t, s, x)
            assert type(got) is float, source
            _assert_same(got, evaluate(tree, t, s, x))


def test_compiled_corpus_is_bit_identical_for_vectors():
    rng = np.random.default_rng(32)
    t, s, x = rng.uniform(0.1, 2.0, size=(3, 50))
    for source, _ in CORPUS:
        tree = parse_expression(source)
        _assert_same(compile_expression(tree)(t, s, x), evaluate(tree, t, s, x))


def test_compiled_corpus_is_bit_identical_for_kernel_tables():
    # the argument shapes discrete passes to k2, and to k1
    rng = np.random.default_rng(33)
    dim = 12
    nodes = np.sort(rng.uniform(0.1, 2.0, dim))
    xi = rng.uniform(0.1, 2.0, dim)
    s_table = np.where(np.tri(dim) != 0.0, nodes[None, :], nodes[0])
    x_table = np.where(np.tri(dim) != 0.0, xi[None, :], xi[0])
    shapes = [
        (nodes[:, None], nodes[None, :], xi[None, :]),
        (nodes[:, None], s_table, x_table),
    ]
    for source, _ in CORPUS:
        tree = parse_expression(source)
        compiled = compile_expression(tree)
        for t, s, x in shapes:
            got = compiled(t, s, x)
            assert got.shape == (dim, dim), source
            _assert_same(got, evaluate(tree, t, s, x))


def test_compiled_constant_is_broadcast_to_the_table():
    tree = parse_expression("2*pi - 1")
    t, s, x = np.ones((5, 1)), np.ones((1, 5)), np.zeros((1, 5))
    got = compile_expression(tree)(t, s, x)
    assert got.shape == (5, 5) and got.flags.writeable
    _assert_same(got, evaluate(tree, t, s, x))
    _assert_same(compile_expression(tree)(0.0, 0.0, 0.0), evaluate(tree, 0.0, 0.0, 0.0))


# every domain error of this module, as (source, t): compiled and checked
# evaluation must raise the same text
DOMAIN_ERRORS = [
    ("ln(t)", 0.0),
    ("ln(t)", -1.0),
    ("sqrt(t)", -1e-12),
    ("1/t", 0.0),
    ("t/t", 0.0),
    ("t^0.5", -2.0),
    ("t^-1", 0.0),
    ("exp(t)", 1000.0),
    ("ln(t)", np.array([1.0, 2.0, -3.0])),
    ("ln(t-2)", 1.0),
    ("t^t", np.array([[1.0, -0.5], [0.0, 2.0]])),
    ("exp(1000*t) * 0", 1.0),
    ("1/exp(1000*t)", np.linspace(0.0, 1.0, 7)),
    ("exp(-exp(1000*t))", 1.0),
    ("2*t", np.inf),  # no floating-point error: only the result check sees it
    ("t", np.inf),  # non-finite inputs: the variable is named, not an overflow
    ("-t", np.inf),
    ("abs(t)", np.nan),
    ("t*1", np.inf),
]


@pytest.mark.parametrize("source, t", DOMAIN_ERRORS)
def test_compiled_domain_error_text_matches_evaluate(source, t):
    tree = parse_expression(source)
    with pytest.raises(EvalDomainError) as checked:
        evaluate(tree, t, 0.5, 0.5)
    with pytest.raises(EvalDomainError) as compiled:
        compile_expression(tree)(t, 0.5, 0.5)
    assert str(compiled.value) == str(checked.value)


def test_nonfinite_input_names_the_variable():
    with pytest.raises(EvalDomainError) as info:
        evaluate(parse_expression("-t"), np.array([0.0, np.inf, -np.inf]), 0.0, 0.0)
    assert str(info.value) == (
        "non-finite input t in '-t': 2 offending input point(s), first at index (1,)"
    )
    with pytest.raises(EvalDomainError) as info:
        evaluate(parse_expression("t*1"), np.inf, 0.0, 0.0)
    assert str(info.value) == "non-finite input t in 't * 1.0': scalar input"
    # a scalar input counts every point of the broadcast shape
    with pytest.raises(EvalDomainError) as info:
        evaluate(parse_expression("s*x"), 0.0, np.nan, np.ones(3))
    assert str(info.value) == (
        "non-finite input s in 's * x': 3 offending input point(s), first at index (0,)"
    )
    # a variable the expression does not use may be anything
    assert evaluate(parse_expression("x"), np.inf, np.nan, 0.5) == 0.5


def test_compiled_intermediate_overflow_with_finite_result_raises():
    # exp overflows to inf, and 1/inf is a finite 0: only the floating-point
    # error tells the compiled kernel to re-run the checked evaluator
    tree = parse_expression("1/exp(1000*x)")
    want = (
        "non-finite result (overflow) in 'exp(1000.0 * x)': "
        "1 offending input point(s), first at index (1,)"
    )
    x = np.array([0.0, 1.0])
    with pytest.raises(EvalDomainError) as info:
        compile_expression(tree)(0.0, 0.0, x)
    assert str(info.value) == want


def test_compiled_error_path_calls_evaluate_through_the_module(monkeypatch):
    # a wrapper installed on the module after compiling (as a tracer does) is
    # what names the error; finite calls never reach it
    from vfsolve import expr

    calls = []

    def traced(*args):
        calls.append(args)
        return evaluate(*args)

    compiled = compile_expression(parse_expression("ln(t)"))
    monkeypatch.setattr(expr, "evaluate", traced)
    assert compiled(1.0, 0.0, 0.0) == 0.0
    assert calls == []
    with pytest.raises(EvalDomainError, match="ln of a non-positive"):
        compiled(0.0, 0.0, 0.0)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# printing / round-trip

def _random_expr(rng, depth):
    if depth <= 0 or rng.random() < 0.25:
        kind = rng.integers(0, 3)
        if kind == 0:
            return Const(float(abs(rng.standard_normal()) * 10.0 ** int(rng.integers(-3, 4))))
        if kind == 1:
            return Const(float(rng.integers(0, 100)))
        return Var(["t", "s", "x"][rng.integers(0, 3)])
    roll = rng.random()
    if roll < 0.55:
        op = "+-*/^"[rng.integers(0, 5)]
        return BinOp(op, _random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if roll < 0.75:
        return Neg(_random_expr(rng, depth - 1))
    fn = ["sin", "cos", "tan", "exp", "ln", "sqrt", "abs"][rng.integers(0, 7)]
    return Call(fn, _random_expr(rng, depth - 1))


def test_round_trip_1000_random_expressions():
    rng = np.random.default_rng(424242)
    for _ in range(1000):
        tree = _random_expr(rng, int(rng.integers(1, 7)))
        text = to_string(tree)
        again = parse_expression(text)
        assert again == tree, text
        assert to_string(again) == text


def _negated_powers(levels):
    # (-(-(...)^2)^2)^2: each level a Neg that is the left operand of ^
    text = "t"
    for _ in range(levels):
        text = f"(-{text})^2"
    return text


# chains at and past 50 levels, where a fully parenthesized print nested
# deeper than MAX_DEPTH, up to the deepest the parser accepts
DEEP_CHAINS = {
    "50 minuses": "-" * 50 + "t",
    "51 minuses": "-" * 51 + "t",
    "deepest minus chain": "-" * (MAX_DEPTH - 1) + "t",
    "50 powers": "t^" * 50 + "t",
    "51 powers": "t^" * 51 + "t",
    "deepest power chain": "t^" * (MAX_DEPTH - 1) + "t",
    "deepest left-nested powers": "(" * 98 + "t" + "^t)" * 98 + "^t",
    "deepest negated powers": _negated_powers(49),
}


@pytest.mark.parametrize("source", DEEP_CHAINS.values(), ids=DEEP_CHAINS.keys())
def test_deep_chains_round_trip(source):
    tree = parse_expression(source)
    text = to_string(tree)
    assert parse_expression(text) == tree, text
    assert text.replace(" ", "") == source.replace("^2", "^2.0")


def test_deep_chains_are_the_deepest_the_parser_accepts():
    for source in ("-" * MAX_DEPTH + "t", "t^" * MAX_DEPTH + "t",
                   "(" * 99 + "t" + "^t)" * 99 + "^t", _negated_powers(50)):
        with pytest.raises(ParseError, match="nested deeper"):
            parse_expression(source)


def test_negative_constant_base_keeps_its_value():
    # Const(-2.0) is no parse result; printed bare, -2.0 ^ t would read -(2.0^t)
    tree = BinOp("^", Const(-2.0), Var("t"))
    assert to_string(tree) == "(-2.0) ^ t"
    assert evaluate(parse_expression(to_string(tree)), 2.0, 0.0, 0.0) == evaluate(tree, 2.0, 0.0, 0.0) == 4.0


def test_round_trip_preserves_evaluation_bits():
    rng = np.random.default_rng(99)
    pts = rng.uniform(0.5, 1.5, size=(20, 3))
    done = 0
    for _ in range(400):
        tree = _random_expr(rng, int(rng.integers(1, 6)))
        again = parse_expression(to_string(tree))
        for t, s, x in pts:
            try:
                a = evaluate(tree, t, s, x)
            except EvalDomainError:
                break
            b = evaluate(again, t, s, x)
            assert a == b  # bit-identical
            done += 1
    assert done > 1000  # most random trees evaluate fine on a positive box


def test_variables_used():
    assert variables_used(parse_expression("5*t*s*cos(x)")) == {"t", "s", "x"}
    assert variables_used(parse_expression("sin(t)+1")) == {"t"}
    assert variables_used(parse_expression("pi")) == set()


# ---------------------------------------------------------------------------
# separable forms: sum_r c_r(t, s) * e_r(s, x), bit-identical to the tree

# (source, [(c_r, e_r) as source text]); "1" is the stand-in factor
SPLITS = [
    ("5*t*s*cos(x)", [("5*t*s", "cos(x)")]),
    ("(11/2)*t^2*s^2*x", [("(11/2)*t^2*s^2", "x")]),
    ("t*s + x", [("t*s", "1"), ("1", "x")]),
    ("-(t/2)*sin(x)", [("-(t/2)", "sin(x)")]),
    ("x*t", [("t", "x")]),
    ("t - s*x", [("t", "1"), ("-1", "s*x")]),
    ("-(t*x + s)", [("-t", "x"), ("-s", "1")]),
    ("2*pi - 1", [("2*pi - 1", "1")]),
    ("0", [("0", "1")]),
    ("x", [("1", "x")]),
    ("t*s", [("t*s", "1")]),
    ("t^0.5 * x^3", [("t^0.5", "x^3")]),
    ("sin(t)*cos(s) + tan(x/4)", [("sin(t)*cos(s)", "1"), ("1", "tan(x/4)")]),
]

# mixed in a way whose operations no sum of products can repeat exactly
UNSPLIT = [
    "cos(t*x)",
    "t^x",
    "(t+s)*(t+x)",
    "s*x/t",  # a quotient, not a product
    "t*x*x",  # ((t*x)*x): the factor t*x mixes t and x
    "t + (s*x + t*x)",  # a sum in parentheses on the right
    "t*s/x",
    "abs(t-x)",
]


def _src(tree):
    return to_string(tree)


@pytest.mark.parametrize("source, terms", SPLITS, ids=[s for s, _ in SPLITS])
def test_split_terms_table(source, terms):
    got = split_terms(parse_expression(source))
    want = [(_src(parse_expression(c)), _src(parse_expression(e))) for c, e in terms]
    assert [(_src(c), _src(e)) for c, e in got] == want
    for c, e in got:
        assert "x" not in variables_used(c) and "t" not in variables_used(e)


@pytest.mark.parametrize("source", UNSPLIT)
def test_split_terms_leaves_mixed_trees_alone(source):
    assert split_terms(parse_expression(source)) is None


def test_split_terms_sum_is_bit_identical():
    # every corpus and table entry that splits: c_r * e_r summed from the left
    # makes the tree's own floating-point operations
    rng = np.random.default_rng(34)
    t, s, x = rng.uniform(0.1, 2.0, size=(3, 200))
    sources = [src for src, _ in CORPUS] + [src for src, _ in SPLITS]
    split = 0
    for source in sources:
        tree = parse_expression(source)
        terms = split_terms(tree)
        if terms is None:
            continue
        split += 1
        total = None
        for c, e in terms:
            part = evaluate(c, t, s, x) * evaluate(e, t, s, x)
            total = part if total is None else total + part
        assert np.array_equal(total, evaluate(tree, t, s, x)), source
    assert split == 31  # all but t*s/x and t/s/x of the corpus
