"""Compiled evaluation against the tree walk.

``compile_expr(e)`` must return what ``eval_scaled(e, point)`` returns,
bit for bit (``-0.0`` and NaN included), and raise what it raises: the
same class with the same message, at guard points (a float power that
overflows among them), for a missing atom and for a constant beyond
float range. Trees mix the normalizing builders with raw nodes, so
repeated subtrees, literal bases and shapes the builders never produce
are covered too.
"""

import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from walkerkit.expr import (
    EvalError, ExprError, PLANE_DEPS, Pow, Sum, add, atan, compile_expr,
    coord, eval_expr, eval_scaled, exp_, funcsym, ln, mul, num, param,
    parse, pow_,
)

ATOMS = {
    "x": coord("x"), "t": coord("t"), "c1": param("c1"),
    "eps": param("eps"), "epz": param("epz"),
    "a_1": funcsym("a", (1,), PLANE_DEPS),
}
EXPONENTS = [Fraction(n, d) for n, d in
             ((-2, 1), (-1, 1), (2, 1), (3, 1), (1, 2), (-1, 2), (1, 3),
              (-2, 3), (3, 2), (5, 3), (-3, 4))]
# float ** overflows on these for a base of modulus about 2 to 3 and up:
# integer, even-root and odd-root (negative base) paths
HUGE_EXPONENTS = [Fraction(n, d) for n, d in
                  ((700, 1), (-700, 1), (1401, 2), (2101, 3))]


def _built(fn, *args):
    """``fn(*args)``, or the first argument where the builder refuses."""
    try:
        return fn(*args)
    except ExprError:
        return args[0]


def _extend(children):
    return st.one_of(
        st.lists(children, min_size=2, max_size=4).map(
            lambda ts: _built(add, *ts)),
        st.lists(children, min_size=2, max_size=3).map(
            lambda fs: _built(mul, *fs)),
        st.tuples(children, st.sampled_from(EXPONENTS)).map(
            lambda be: _built(pow_, *be)),
        # raw nodes: a repeated term, a power of any base, a literal base
        st.tuples(children, children).map(lambda ab: Sum((ab[0], ab[1],
                                                          ab[0]))),
        st.tuples(children, st.sampled_from(EXPONENTS)).map(
            lambda be: Pow(*be)),
        st.tuples(children, st.sampled_from(HUGE_EXPONENTS)).map(
            lambda be: Pow(*be)),
        children.map(lambda e: _built(ln, e)),
        children.map(lambda e: _built(exp_, e)),
        children.map(lambda e: _built(atan, e)),
    )


LEAVES = st.one_of(
    st.sampled_from(sorted(ATOMS.values(), key=lambda a: a.key())),
    st.fractions(min_value=-5, max_value=5, max_denominator=4).map(num),
)
TREES = st.recursive(LEAVES, _extend, max_leaves=12)

VALUES = st.one_of(
    st.floats(min_value=-3.0, max_value=3.0),
    st.sampled_from([0.0, -0.0, 1e-7, -1e-7, 1e-6, -1.0, 1.0, 2.0,
                     float("inf"), float("nan")]),
)
POINTS = st.fixed_dictionaries({
    "x": VALUES, "t": VALUES, "c1": VALUES, "a_1": VALUES,
    "eps": st.sampled_from([-1.0, 1.0]),
    "epz": st.sampled_from([-1.0, 0.0, 1.0]),
})


def outcome(evaluate, point):
    """Packed (value, scale) bytes, or the exception's class and text."""
    try:
        value, scale = evaluate(point)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)
    return struct.pack("dd", value, scale)


@settings(max_examples=300, deadline=None)
@given(TREES, st.lists(POINTS, min_size=1, max_size=4))
def test_compiled_matches_tree_walk(e, points):
    try:
        compiled = compile_expr(e)
    except EvalError:
        return  # a constant beyond float range; tested below
    for point in points:
        assert outcome(compiled, point) == outcome(
            lambda p: eval_scaled(e, p), point)


X, T = coord("x"), coord("t")


@pytest.mark.parametrize("e, point", [
    # the builtin sum starts from 0, so negative zeros add to +0.0, at
    # the root and inside (atan keeps the sign of a zero)
    (add(X, mul(-1, T)), {"x": -0.0, "t": 0.0}),
    (atan(add(X, mul(-1, T))), {"x": -0.0, "t": 0.0}),
    # a NaN first term leaves max(map(abs, terms)) at NaN, so scale 1.0
    (Sum((X, mul(2, T))), {"x": float("nan"), "t": 3.0}),
    # an odd root of zero takes the positive branch: +0.0, not -0.0
    (pow_(X, Fraction(1, 3)), {"x": 0.0}),
    (pow_(X, Fraction(2, 3)), {"x": -0.0}),
    (Pow(mul(-1, X), Fraction(1, 3)), {"x": 0.0}),
])
def test_signed_zero_and_nan_points(e, point):
    assert outcome(compile_expr(e), point) == outcome(
        lambda p: eval_scaled(e, p), point)


@pytest.mark.parametrize("text, point, error", [
    ("1/(x - 1)", {"x": 1.0}, "denominator too small"),
    ("(x - 1)^(1/2)", {"x": 0.5}, "even root of a negative value"),
    ("ln(x - 1)", {"x": 0.5}, "log argument not positive"),
    ("exp(400*x)", {"x": 1.0}, "exponential overflow"),
    # float ** raises OverflowError; both evaluators turn it into a guard
    ("x^4000", {"x": 2.0}, "power overflow"),
    ("x^(4001/2)", {"x": 2.0}, "power overflow"),
    ("(x - 3)^(4001/3)", {"x": 1.0}, "power overflow"),
    ("t + (x + 1)^(-4000)", {"x": -0.5, "t": 1.0}, "power overflow"),
])
def test_guards_raise_alike(text, point, error):
    e = parse(text)
    assert outcome(compile_expr(e), point) == outcome(
        lambda p: eval_scaled(e, p), point)
    assert outcome(compile_expr(e), point)[1] == error


def test_odd_root_of_a_negative_value():
    e = parse("(x - 2)^(2/3) + (x - 2)^(1/3)")
    point = {"x": 1.0}
    assert compile_expr(e)(point) == eval_scaled(e, point)
    assert compile_expr(e)(point)[0] == pytest.approx(0.0)


def test_missing_atom_is_eval_error():
    e = parse("x + t^2")
    with pytest.raises(EvalError, match="no value for 't'"):
        compile_expr(e)({"x": 1.0})
    assert outcome(compile_expr(e), {"x": 1.0}) == outcome(
        lambda p: eval_scaled(e, p), {"x": 1.0})


@pytest.mark.parametrize("name", [
    "it's", 'say "x"', "back\\slash", "new\nline",
    "p['x']) or __import__('os').system('true') or (p['y'"])
def test_atom_names_are_data(name):
    weird = param(name)
    e = add(mul(3, weird), coord("x"))
    assert compile_expr(e)({name: 2.0, "x": 1.0}) == (7.0, 6.0)
    with pytest.raises(EvalError) as err:
        compile_expr(weird)({})
    assert str(err.value) == f"no value for {name!r}"


def test_constant_beyond_float_range_is_eval_error():
    e = mul(num(2 ** 4000), coord("x"))
    with pytest.raises(EvalError) as walk:
        eval_expr(e, {"x": 1.0})
    with pytest.raises(EvalError) as scaled:
        eval_scaled(e, {"x": 1.0})
    with pytest.raises(EvalError) as compiled:
        compile_expr(e)  # checked when it compiles
    assert "beyond float range" in str(walk.value)
    assert str(walk.value) == str(scaled.value) == str(compiled.value)
