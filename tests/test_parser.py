"""Grammar round-trip: parse(render(e)) == e on random trees and on the
expression shapes the catalog actually uses."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from walkerkit.expr import (
    ALL_DEPS, ONE, PLANE_DEPS, EvalGuard, ExprError, ParseError, add, atan,
    coord, eval_expr, exp_, free_atoms, funcsym, ln, mul, num, param, parse,
    parse_fraction, pow_, render, sample_point,
)
from walkerkit.expr.parser import MAX_DEPTH, MAX_POWER_BITS, _parse

LEAVES = [
    lambda: coord("x"),
    lambda: coord("t"),
    lambda: param("c1"),
    lambda: param("c2"),
    lambda: param("alpha"),
    lambda: param("eps"),
    lambda: funcsym("a", (), (1, 2)),
    lambda: funcsym("b", (1,), (1, 2)),
    lambda: funcsym("c", (1, 2), (1, 2)),
    lambda: funcsym("f", (2,), (2,)),
    lambda: num(3),
    lambda: num(Fraction(1, 2)),
    lambda: num(-2),
]


def random_tree(rng, depth):
    if depth == 0:
        return rng.choice(LEAVES)()
    op = rng.randrange(8)
    if op <= 1:
        return add(random_tree(rng, depth - 1), random_tree(rng, depth - 1))
    if op <= 3:
        return mul(random_tree(rng, depth - 1), random_tree(rng, depth - 1))
    if op == 4:
        e = rng.choice([2, 3, -1, -2, Fraction(1, 2), Fraction(1, 3),
                        Fraction(-1, 2), Fraction(2, 3)])
        base = random_tree(rng, depth - 1)
        try:
            return pow_(base, e)
        except Exception:
            return base
    if op == 5:
        return ln(random_tree(rng, depth - 1))
    if op == 6:
        return atan(random_tree(rng, depth - 1))
    return exp_(random_tree(rng, depth - 1))


def test_round_trip_random_trees():
    rng = random.Random(20260817)
    for _ in range(1000):
        e = random_tree(rng, rng.randrange(1, 5))
        s = render(e)
        assert parse(s) == e, s


KERNELS = {"ln": ln, "exp": exp_, "atan": atan}
RENDER_EXPONENTS = (2, 3, -1, Fraction(1, 2), Fraction(3, 2), Fraction(-1, 2),
                    Fraction(1, 3), Fraction(2, 3), Fraction(-2, 3))


def _render_extend(children):
    return st.one_of(
        st.lists(children, min_size=2, max_size=3).map(lambda ts: ("+", ts)),
        st.lists(children, min_size=2, max_size=3).map(lambda fs: ("*", fs)),
        st.tuples(st.just("^"), children, st.sampled_from(RENDER_EXPONENTS)),
        st.tuples(st.just("-"), children),
        st.tuples(st.sampled_from(tuple(KERNELS)), children),
    )


# trees with negated sums, nested powers and kernels, over atoms and
# small rationals
RENDER_TREES = st.recursive(
    st.one_of(st.sampled_from(("x", "t", "c1", "eps", "a", "b_1")),
              st.fractions(min_value=-3, max_value=3, max_denominator=3)),
    _render_extend, max_leaves=8)


def _grow(tree):
    if isinstance(tree, str):
        return parse(tree)
    if not isinstance(tree, tuple):
        return num(tree)
    op, arg = tree[0], tree[1]
    if op == "+":
        return add(*map(_grow, arg))
    if op == "*":
        return mul(*map(_grow, arg))
    if op == "^":
        return pow_(_grow(arg), tree[2])
    if op == "-":
        return mul(-1, _grow(arg))
    return KERNELS[op](_grow(arg))


@settings(max_examples=300, deadline=None)
@given(RENDER_TREES)
@example(("+", ["x", ("-", ("+", ["x", -1]))]))
@example(("^", ("^", ("+", ["x", -1]), 2), Fraction(3, 2)))
def test_render_round_trips(tree):
    try:
        e = _grow(tree)
    except ExprError:  # 0^-1, an even root of a negative rational
        assume(False)
    text = render(e)
    back = parse(text)
    point = sample_point(free_atoms(e), random.Random(text))
    try:
        want = eval_expr(e, point)
        got = eval_expr(back, point)
    except EvalGuard:
        pass
    else:
        if math.isfinite(want):
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9), text
    assert back == e, text


@pytest.mark.parametrize("text", [
    "4*(t + c1)/(c2*x + c3)^2",
    "4*c2^2*(t + c1)^3/(c2*x + c3)^4",
    "(c1*c3^2*t + c5)/(c1*t + c2)",
    "c3 + c1*c4/(c1*t + c2)",
    "sqrt(3)*atan(2*t/sqrt(3) - 1/sqrt(3))",
    "ln((t + (c1/c2)^(1/3))^2)",
    "a_1*c_2 + a_2*b_2 - a_2*c_1 - c_2^2",
    "exp(2*t)*f",
    "-x^2",
    "1 - x^2",
    "eps*b_12 + epsp*a_22",
])
def test_round_trip_catalog_shapes(text):
    e = parse(text)
    assert parse(render(e)) == e


def test_derivative_index_sorted_on_input():
    assert parse("a_21") == parse("a_12")


def test_unary_minus_binds_below_power():
    assert parse("-x^2") == mul(-1, pow_(coord("x"), 2))


def test_power_right_associative():
    assert parse("x^2^3") == pow_(coord("x"), 8)


def test_fraction_exponent():
    e = parse("x^(2/3)")
    assert e == pow_(coord("x"), Fraction(2, 3))


def test_division_folds():
    assert parse("x/2") == mul(Fraction(1, 2), coord("x"))
    assert parse("6/4") == num(Fraction(3, 2))


def test_exp_of_zero_folds():
    assert parse("exp(x - x)") == ONE
    assert parse("exp(0*t)") == ONE


def test_unknown_symbol_reports_offset():
    with pytest.raises(ParseError) as err:
        parse("x + qq*t")
    assert err.value.offset == 4


def test_decimal_rejected():
    with pytest.raises(ParseError):
        parse("0.5*x")


@pytest.mark.parametrize("text", ["\u00b2", "x^\u00b2", "a_\u00b2",
                                  "\u0663"])
def test_non_ascii_digits_rejected(text):
    # superscript two and Arabic-Indic three pass str.isdigit()
    with pytest.raises(ParseError):
        parse(text)


def test_nonconstant_exponent_rejected():
    with pytest.raises(ParseError):
        parse("x^t")


def test_derivative_on_param_rejected():
    with pytest.raises(ParseError):
        parse("c1_2")


def test_bad_dependency_rejected():
    with pytest.raises(ParseError):
        parse("f_1")


def test_division_by_zero_rejected():
    with pytest.raises(ParseError):
        parse("x/(t - t)")


@pytest.mark.parametrize("text", [
    "(" * 3000 + "x" + ")" * 3000,
    "-" * 3000 + "x",
    "ln(" * 400 + "x" + ")" * 400,
    "2^" * 3000 + "1",
])
def test_deep_nesting_rejected_with_offset(text):
    with pytest.raises(ParseError, match="nesting deeper") as err:
        parse(text)
    assert 0 < err.value.offset < len(text)


def test_nesting_up_to_the_bound_parses():
    depth = MAX_DEPTH - 1
    assert parse("(" * depth + "x" + ")" * depth) == coord("x")
    assert parse("-" * depth + "x") == mul(-1, coord("x"))
    nested = parse("ln(" * depth + "x" + ")" * depth)
    assert render(nested).count("ln(") == depth


@pytest.mark.parametrize("text, offset", [
    ("2^2^2^2^2^2", 3),
    ("2^(10^6)", 1),
    (f"x + (1/2)^{MAX_POWER_BITS + 1}", 9),
])
def test_literal_power_bound_rejected_with_offset(text, offset):
    with pytest.raises(ParseError, match="literal power") as err:
        parse(text)
    assert err.value.offset == offset
    assert text[offset] == "^"


def test_literal_power_up_to_the_bound_parses():
    assert parse(f"2^{MAX_POWER_BITS}") == num(2 ** MAX_POWER_BITS)
    assert parse("2^2^2^2") == num(65536)
    assert parse("(-1)^(10^9)") == num(1)


@pytest.mark.parametrize("text, offset, says", [
    ("1" * 5000, 0, "integer literal"),
    ("x + " + "0" * 10 + "1" * 5000, 4, "integer literal"),
    (str(2 ** (MAX_POWER_BITS + 1)), 0, "integer literal"),
    ("x^(3^2000)", 1, "exponent above"),
    (f"t*(x + 1)^(-{MAX_POWER_BITS + 1})", 9, "exponent above"),
    ("4^(1/(10^400))", 1, "root of degree"),
    ("x^(1/(3^2000))", 1, "root of degree"),
])
def test_integer_and_exponent_bounds_rejected_with_offset(text, offset,
                                                           says):
    with pytest.raises(ParseError, match=says) as err:
        parse(text)
    assert err.value.offset == offset


def test_integer_and_exponent_bounds_inclusive():
    assert parse(str(2 ** MAX_POWER_BITS)) == num(2 ** MAX_POWER_BITS)
    assert parse("0" * 5000 + "7") == num(7)
    assert parse(f"x^{MAX_POWER_BITS}") == pow_(coord("x"), MAX_POWER_BITS)
    assert parse(f"x^(-1/{MAX_POWER_BITS})") == pow_(
        coord("x"), Fraction(-1, MAX_POWER_BITS))


def test_extra_params_and_custom_functions():
    e = parse("X1*lam + a_3",
              functions={"a": (1, 2, 3, 4)},
              extra_params={"X1", "lam"})
    atoms = free_atoms(e)
    assert param("X1") in atoms
    assert funcsym("a", (3,), (1, 2, 3, 4)) in atoms


# --- the parse cache ----------------------------------------------------------

def test_failed_parse_is_not_cached():
    for _ in range(2):
        with pytest.raises(ParseError, match="unknown symbol"):
            parse("x + lam")
    # the extra names are part of the key: admitted once, still unknown
    # without them
    assert parse("x + lam", extra_params={"lam"}) == add(coord("x"),
                                                         param("lam"))
    with pytest.raises(ParseError, match="unknown symbol"):
        parse("x + lam")


def test_list_valued_dependencies_parse():
    as_lists = parse("a_12*f_2", functions={"a": [1, 2], "f": [2]})
    assert as_lists == parse("a_12*f_2",
                             functions={"a": (1, 2), "f": (2,)})
    assert funcsym("a", (1, 2), (1, 2)) in free_atoms(as_lists)


def test_symbol_table_is_part_of_the_key():
    plane = parse("a_1", functions={"a": PLANE_DEPS})
    full = parse("a_1", functions={"a": ALL_DEPS})
    assert plane != full
    assert (plane.deps, full.deps) == (PLANE_DEPS, ALL_DEPS)
    with pytest.raises(ParseError, match="does not depend"):
        parse("a_3", functions={"a": PLANE_DEPS})
    assert parse("a_3", functions={"a": ALL_DEPS}) == funcsym("a", (3,))


def test_repeated_text_is_parsed_once():
    text = "(c1 + c2*t^3)*(x - c3)^2/t^3 + ln(x + t)"
    first = parse(text)
    before = _parse.cache_info().misses
    assert parse(text) is first
    assert _parse.cache_info().misses == before


def test_parse_fraction():
    assert parse_fraction("3/4") == Fraction(3, 4)
    assert parse_fraction("-2") == -2


# The characters of the grammar's tokens and names (ln, exp, atan, sqrt,
# alpha, beta, eps, c1..c9), plus a few it rejects.
GRAMMAR_ALPHABET = "0123456789_+-*/^()., abcfghxtyzelnpsqrtαβ²"


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet=GRAMMAR_ALPHABET, max_size=40))
def test_parse_fails_only_with_expression_errors(text):
    # any other exception escaping parse is a bug
    try:
        parse(text)
    except ExprError:
        pass
