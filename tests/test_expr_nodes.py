"""Normal-form construction invariants for the expression kernel."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import reference_nodes as reference
from walkerkit.expr import (
    Expr, ExprError, Func, Num, Pow, Prod, Sum, add, coord, diff, div,
    funcsym, mul, neg, num, param, parse, partial, pow_, render, sqrt, sub,
    substitute,
)
from walkerkit.expr import nodes

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


def test_substitute_jet_atom_is_a_leaf():
    a_11 = funcsym("a", (1, 1), (1, 2))
    a_1 = funcsym("a", (1,), (1, 2))
    full = funcsym("a", (1, 1), (1, 2, 3, 4))
    e = add(mul(b, a_11), a_1, full)
    # only that atom, on its own dependencies, is replaced
    assert substitute(e, {a_11: x}) == add(mul(b, x), a_1, full)
    # a base binding closes under derivatives; the atom binding does not
    assert substitute(e, {a_11: x, "b": t}) == add(mul(t, x), a_1, full)


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


# --- the constructors against a reference that rebuilds every subterm ------

def _extend(children):
    exps = st.sampled_from([Fraction(n, d) for n, d in (
        (-3, 1), (-2, 1), (-1, 1), (-1, 2), (1, 2), (3, 2), (2, 1), (3, 1),
        (0, 1), (1, 3))])
    coeffs = st.sampled_from([Fraction(2), Fraction(-3), Fraction(1, 2),
                              Fraction(-2, 3)])
    return st.one_of(
        st.lists(children, min_size=1, max_size=3).map(lambda ts: ("+", ts)),
        st.lists(children, min_size=1, max_size=3).map(lambda fs: ("*", fs)),
        st.tuples(children, exps).map(lambda be: ("^", *be)),
        # a sum with content: k*u + k, as in (2x + 2)^-1
        st.tuples(children, coeffs).map(lambda uk: ("k", *uk)),
    )


# leaves: coordinates, a sign parameter, a jet, zero and other rationals
TREES = st.recursive(
    st.sampled_from(["x", "t", "eps", "a_1", 0, 1, -1, 2, Fraction(1, 2),
                     Fraction(-3, 4)]),
    _extend, max_leaves=10)


def _build(tree, ops):
    """The tree built with ``ops`` = (add, mul, pow_), or the type of the
    error it raised."""
    plus, times, power = ops

    def go(n):
        if isinstance(n, str):
            return parse(n)
        if not isinstance(n, tuple):
            return num(n)
        if n[0] == "^":
            return power(go(n[1]), n[2])
        if n[0] == "k":
            return plus(times(n[2], go(n[1])), n[2])
        parts = [go(c) for c in n[1]]
        return plus(*parts) if n[0] == "+" else times(*parts)

    try:
        return go(tree)
    except ExprError as exc:
        return type(exc)


def _pows(e):
    if isinstance(e, Pow):
        yield e
        yield from _pows(e.base)
    elif isinstance(e, Sum):
        for s in e.terms:
            yield from _pows(s)
    elif isinstance(e, Prod):
        for f in e.factors:
            yield from _pows(f)


def _rebuilt(e):
    """``e`` rebuilt bottom-up by the reference constructors. A tree in
    normal form is a fixed point."""
    if isinstance(e, Sum):
        return reference.add(*map(_rebuilt, e.terms))
    if isinstance(e, Prod):
        return reference.mul(e.coeff, *map(_rebuilt, e.factors))
    if isinstance(e, Pow):
        return reference.pow_(_rebuilt(e.base), e.exp)
    return e


@settings(max_examples=400, deadline=None)
@given(TREES)
def test_constructors_match_reference(tree):
    got = _build(tree, (add, mul, pow_))
    want = _build(tree, (reference.add, reference.mul, reference.pow_))
    if not isinstance(want, Expr):
        assert got is want
        return
    assert got.key() == want.key()
    # derivatives are built in normal form too
    for d in (diff(got, "x"), partial(got, parse("a_1"))):
        assert _rebuilt(d).key() == d.key()
    # what reusing a Pow node rests on: re-raising it, or lowering its
    # exponent by one as the derivative does, builds nothing new
    for p in _pows(got):
        assert reference.pow_(p.base, p.exp).key() == p.key()
        n = p.exp - 1
        lowered = p.base if n == 1 else Pow(p.base, n)
        assert reference.pow_(p.base, n).key() == lowered.key()


def test_mul_keeps_a_normal_power(monkeypatch):
    p = pow_(add(x, t, 1), -2)
    calls = []
    real = nodes.sum_content

    def counting(s):
        calls.append(s)
        return real(s)

    monkeypatch.setattr(nodes, "sum_content", counting)
    e = mul(p, x)
    assert calls == []
    assert e.factors[0] is p or e.factors[1] is p
    assert e.key() == reference.mul(p, x).key()
