"""Guarded float evaluation.

``eval_scaled(e, point)`` gives (value, scale) and raises ``EvalGuard``
at guard points (a float power that overflows among them) and
``EvalError`` for a missing atom or a constant beyond float range. The
bits of its results are pinned where a sign of zero or a NaN could go
either way.
"""

import math
from fractions import Fraction

import pytest

from walkerkit.expr import (
    EvalError, EvalGuard, Pow, Sum, add, atan, coord, eval_expr,
    eval_scaled, mul, num, param, parse, pow_,
)

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
