"""Guarded float evaluation.

``eval_scaled(e, point)`` gives (value, scale) and raises ``EvalGuard``
at guard points (a float power that overflows among them) and
``EvalError`` for a missing atom or a constant beyond float range. The
bits of its results are pinned where a sign of zero or a NaN could go
either way. ``reference_numeric`` walks every expression as a tree; the
kernel evaluates each distinct node once and must give the same bits and
raise the same guard.
"""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import reference_numeric as ref
from walkerkit.expr import (
    NONZERO, ZERO_NUMERIC, EvalError, EvalGuard, ExprError, Pow, Sum, add,
    atan, coord, eval_expr, eval_scaled, exp_, free_atoms, ln, mul, num,
    param, parse, pow_,
)
from walkerkit.expr import numeric

X, T = coord("x"), coord("t")


def _same(a: float, b: float) -> bool:
    """Equal floats with equal signs, or both NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@pytest.mark.parametrize("e, point, expected", [
    # the builtin sum starts from 0, so negative zeros add to +0.0, at
    # the root and inside (atan keeps the sign of a zero)
    (add(X, mul(-1, T)), {"x": -0.0, "t": 0.0}, (0.0, 1.0)),
    (atan(add(X, mul(-1, T))), {"x": -0.0, "t": 0.0}, (0.0, 1.0)),
    # a NaN first term leaves max(map(abs, terms)) at NaN, so scale 1.0
    (Sum((X, mul(2, T))), {"x": float("nan"), "t": 3.0},
     (float("nan"), 1.0)),
    # an odd root of zero takes the positive branch: +0.0, not -0.0
    (pow_(X, Fraction(1, 3)), {"x": 0.0}, (0.0, 1.0)),
    (pow_(X, Fraction(2, 3)), {"x": -0.0}, (0.0, 1.0)),
    (Pow(mul(-1, X), Fraction(1, 3)), {"x": 0.0}, (0.0, 1.0)),
], ids=[f"e{i}-point{i}" for i in range(6)])
def test_signed_zero_and_nan_points(e, point, expected):
    value, scale = eval_scaled(e, point)
    assert _same(value, expected[0]) and _same(scale, expected[1])


@pytest.mark.parametrize("text, point, error", [
    ("1/(x - 1)", {"x": 1.0}, "denominator too small"),
    ("(x - 1)^(1/2)", {"x": 0.5}, "even root of a negative value"),
    ("ln(x - 1)", {"x": 0.5}, "log argument not positive"),
    ("exp(400*x)", {"x": 1.0}, "exponential overflow"),
    # float ** raises OverflowError; the evaluator turns it into a guard
    ("x^4000", {"x": 2.0}, "power overflow"),
    ("x^(4001/2)", {"x": 2.0}, "power overflow"),
    ("(x - 3)^(4001/3)", {"x": 1.0}, "power overflow"),
    ("t + (x + 1)^(-4000)", {"x": -0.5, "t": 1.0}, "power overflow"),
])
def test_guards_raise_alike(text, point, error):
    e = parse(text)
    for evaluate in (eval_expr, eval_scaled):
        with pytest.raises(EvalGuard) as exc:
            evaluate(e, point)
        assert str(exc.value) == error


def test_odd_root_of_a_negative_value():
    e = parse("(x - 2)^(2/3) + (x - 2)^(1/3)")
    assert eval_scaled(e, {"x": 1.0}) == (0.0, 1.0)


def test_missing_atom_is_eval_error():
    e = parse("x + t^2")
    for evaluate in (eval_expr, eval_scaled):
        with pytest.raises(EvalError, match="no value for 't'"):
            evaluate(e, {"x": 1.0})


@pytest.mark.parametrize("name", [
    "it's", 'say "x"', "back\\slash", "new\nline",
    "p['x']) or __import__('os').system('true') or (p['y'"])
def test_atom_names_are_data(name):
    weird = param(name)
    e = add(mul(3, weird), coord("x"))
    assert eval_scaled(e, {name: 2.0, "x": 1.0}) == (7.0, 6.0)
    with pytest.raises(EvalError) as err:
        eval_scaled(weird, {})
    assert str(err.value) == f"no value for {name!r}"


def test_constant_beyond_float_range_is_eval_error():
    e = mul(num(2 ** 4000), coord("x"))
    with pytest.raises(EvalError) as walk:
        eval_expr(e, {"x": 1.0})
    with pytest.raises(EvalError) as scaled:
        eval_scaled(e, {"x": 1.0})
    assert "beyond float range" in str(walk.value)
    assert str(walk.value) == str(scaled.value)


# leaves: atoms, small rationals, and "S", which stands for one shared
# subtree drawn with the tree, so the expression reuses that node object
LEAVES = ("x", "t", "a_1", "c1", "eps")
EXPONENTS = st.sampled_from(
    (-3, -2, -1, 2, 3, 7, Fraction(1, 2), Fraction(-1, 3), Fraction(5, 3)))


def _extend(children):
    return st.one_of(
        st.lists(children, min_size=2, max_size=3).map(lambda ts: ("+", ts)),
        st.lists(children, min_size=2, max_size=3).map(lambda fs: ("*", fs)),
        st.tuples(st.just("^"), children, EXPONENTS),
        st.tuples(st.sampled_from(("ln", "exp", "atan")), children),
    )


TREES = st.recursive(
    st.one_of(st.sampled_from(LEAVES + ("S", "S", "S")),
              st.fractions(min_value=-5, max_value=5, max_denominator=4)),
    _extend, max_leaves=12)
SHARED = st.recursive(
    st.one_of(st.sampled_from(LEAVES),
              st.fractions(min_value=-3, max_value=3, max_denominator=3)),
    _extend, max_leaves=6)
# values near the guards too: zero denominators, negative roots and logs
VALUES = st.sampled_from((0.0, -0.0, 1e-7, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0,
                          3.0, 400.0))
UNARY = {"ln": ln, "exp": exp_, "atan": atan}


def _build(tree, shared):
    if tree == "S":
        return shared
    if isinstance(tree, str):
        return parse(tree)
    if isinstance(tree, Fraction):
        return num(tree)
    if tree[0] in UNARY:
        return UNARY[tree[0]](_build(tree[1], shared))
    if tree[0] == "^":
        return pow_(_build(tree[1], shared), tree[2])
    parts = [_build(c, shared) for c in tree[1]]
    return add(*parts) if tree[0] == "+" else mul(*parts)


def _outcome(evaluate, e, point):
    try:
        return evaluate(e, point)
    except (EvalGuard, EvalError) as exc:
        return type(exc), str(exc)


def _same_outcome(got, want):
    if isinstance(want, tuple) and isinstance(want[0], type):
        return got == want
    if isinstance(want, float):
        return _same(got, want)
    return len(got) == len(want) and all(map(_same, got, want))


@settings(max_examples=400, deadline=None)
@given(TREES, SHARED, st.fixed_dictionaries(
    {name: VALUES for name in LEAVES}))
def test_evaluation_matches_the_tree_walk(tree, shared, point):
    try:
        s = _build(shared, None)
        e = _build(tree, s)
    except ExprError:  # 0^-1, an even root of a negative rational
        return
    assert free_atoms(e) == ref.free_atoms(e)
    assert free_atoms(e, s) == ref.free_atoms(e) | ref.free_atoms(s)
    for evaluate, reference in ((eval_expr, ref.eval_expr),
                                (eval_scaled, ref.eval_scaled)):
        got = _outcome(evaluate, e, point)
        want = _outcome(reference, e, point)
        assert _same_outcome(got, want), (got, want)


def _shared_chain(depth):
    """x, then atan(u) + exp(atan(u)) of the previous node u, ``depth``
    times: a tree of 2^depth paths over 3*depth + 1 distinct nodes."""
    u = coord("x")
    for _ in range(depth):
        v = atan(u)
        u = add(v, exp_(v))
    return u


def test_each_distinct_node_is_evaluated_once(monkeypatch):
    calls = []
    real = numeric._eval

    def counting(e, point, memo):
        calls.append(e)
        return real(e, point, memo)

    monkeypatch.setattr(numeric, "_eval", counting)
    e = _shared_chain(30)
    assert math.isfinite(eval_expr(e, {"x": 2.0}))
    # every edge of the DAG once: two per sum, one per atan and exp
    assert len(calls) == 4 * 30 + 1
    assert len({id(n) for n in calls}) == 3 * 30 + 1
    # the terms of a sum share one memo: the chain under both terms is
    # evaluated for one of them, so x is read once
    reads = []
    real_name = numeric.atom_name

    def reading(a):
        reads.append(a)
        return real_name(a)

    monkeypatch.setattr(numeric, "atom_name", reading)
    chain = _shared_chain(2)
    eval_scaled(add(exp_(chain), atan(chain)), {"x": 2.0})
    assert reads == [coord("x")]


def test_free_atoms_visits_each_distinct_node_once():
    e = mul(_shared_chain(40), param("c1"))
    start = time.perf_counter()
    assert free_atoms(e) == {coord("x"), param("c1")}
    # a tree walk takes 2^40 steps
    assert time.perf_counter() - start < 1.0


def test_monomial_sum_probe_shares_the_probe_path():
    # a jet evaluator goes through the samples, seed, resampling and
    # error text of the expression path; its residual is scaled by its
    # largest monomial, 3*x*t here
    x, t = parse("x"), parse("t")
    table = ((Fraction(3), ((0, 1), (1, 1))), (Fraction(-1), ((1, 2),)))
    jets = numeric.MonomialSum([x, t], table)
    assert jets.atoms == {x, t}
    value, scale = jets.scaled({"x": 2.0, "t": 0.5})
    assert (value, scale) == (2.75, 3.0)
    res = numeric.probe_zero(jets, samples=8, seed=3)
    want = numeric.probe_zero(parse("3*x*t - t^2"), samples=8, seed=3)
    assert res.verdict == want.verdict == NONZERO
    assert res.witness == want.witness
    cancel = numeric.MonomialSum(
        [x], ((Fraction(1), ((0, 1),)), (Fraction(-1), ((0, 1),))))
    assert numeric.probe_zero(cancel, samples=8).verdict == ZERO_NUMERIC
    guarded = numeric.MonomialSum([parse("sqrt(x - 5)")],
                                  ((Fraction(1), ((0, 1),)),))
    with pytest.raises(EvalError, match="admissible sample point"):
        numeric.probe_zero(guarded, samples=2)
