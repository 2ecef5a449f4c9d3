"""Normal-form construction invariants for the expression kernel."""

from fractions import Fraction

import pytest

from walkerkit.expr import (
    ExprError, Func, Num, Pow, Prod, Sum, add, coord, div, funcsym, mul,
    neg, num, param, parse, pow_, render, sqrt, sub, substitute,
)

x = coord("x")
t = coord("t")
c1 = param("c1")
a = funcsym("a", (), (1, 2))
b = funcsym("b", (), (1, 2))


def test_like_terms_merge():
    e = add(mul(2, x), mul(3, x))
    assert e == mul(5, x)


def test_zero_coefficient_drops():
    assert add(x, neg(x)) == num(0)
    assert mul(0, x) == num(0)


def test_sum_flattens_and_sorts():
    e1 = add(x, add(t, c1))
    e2 = add(add(c1, x), t)
    assert e1 == e2
    assert isinstance(e1, Sum)
    assert len(e1.terms) == 3


def test_product_merges_powers():
    e = mul(x, x, x)
    assert e == pow_(x, 3)
    assert mul(pow_(x, 2), pow_(x, -2)) == num(1)
    assert mul(sqrt(x), sqrt(x)) == x


def test_pow_collapses():
    assert pow_(pow_(x, 2), 3) == pow_(x, 6)
    assert pow_(x, 1) == x
    assert pow_(add(x, t), 0) == num(1)


def test_pow_of_product_distributes():
    e = pow_(mul(x, t), 2)
    assert e == mul(pow_(x, 2), pow_(t, 2))


def test_numeric_folding():
    assert mul(num(2), num(3)) == num(6)
    assert pow_(num(4), Fraction(1, 2)) == num(2)
    assert pow_(num(8), Fraction(-1, 3)) == num(Fraction(1, 2))
    assert pow_(num(Fraction(9, 4)), Fraction(1, 2)) == num(Fraction(3, 2))
    assert isinstance(pow_(num(2), Fraction(1, 2)), Pow)


def test_exact_roots_of_large_integers():
    # beyond float range, and beyond float precision
    assert pow_(num(10**400), Fraction(1, 2)) == num(10**200)
    assert pow_(pow_(num(10**40 + 1), 3), Fraction(1, 3)) == num(10**40 + 1)


def test_sum_content_extraction():
    e = pow_(add(mul(2, x), mul(4, t)), 2)
    assert e == mul(4, pow_(add(x, mul(2, t)), 2))


def test_zero_pow_zero_raises():
    with pytest.raises(ExprError):
        pow_(num(0), 0)


def test_division_by_exact_zero_raises():
    with pytest.raises(ExprError):
        div(x, 0)
    with pytest.raises(ExprError):
        div(x, sub(t, t))


def test_even_root_of_negative_rational_raises():
    with pytest.raises(ExprError):
        sqrt(num(-4))


def test_derivative_index_canonical_order():
    with pytest.raises(ExprError):
        Func("a", (2, 1), (1, 2))
    assert funcsym("a", (2, 1), (1, 2)) == funcsym("a", (1, 2), (1, 2))


def test_dependency_restriction():
    with pytest.raises(ExprError):
        funcsym("f", (1,), (2,))


def test_substitute_carries_derivatives():
    f = funcsym("f", (), (2,))
    expr = funcsym("b", (1, 2), (1, 2))
    out = substitute(expr, {"b": mul(a, f)})
    expect = add(mul(funcsym("a", (1, 2), (1, 2)), f),
                 mul(funcsym("a", (1,), (1, 2)), funcsym("f", (2,), (2,))))
    assert out == expect


def test_substitute_param():
    e = add(mul(c1, x), t)
    assert substitute(e, {"c1": num(3)}) == add(mul(3, x), t)


def test_render_canonical_signs():
    e = sub(mul(2, x), mul(3, t))
    s = render(e)
    assert " - " in s or s.startswith("-")
    assert parse(s) == e


def test_structural_equality_is_hashable():
    s = {add(x, t), add(t, x), mul(2, x)}
    assert len(s) == 2


def test_prod_never_nested():
    e = mul(mul(2, x), mul(3, t))
    assert isinstance(e, Prod)
    assert all(not isinstance(f, Prod) for f in e.factors)
    assert e.coeff == 6
