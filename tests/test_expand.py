"""The expansion behind the symbolic zero test, against its reference.

``reference_expand`` is the plain loop version: it expands every
occurrence of a subtree again and folds the constant roots of every
product of two terms. The kernel's ``expand`` remembers subtrees within
one expansion, scales instead of multiplying by a constant, and takes a
whole power of a root out only where two factors share it; it must give
the same canonical polynomial, before and after denominator clearing.
"""

from collections import Counter
from fractions import Fraction

from hypothesis import assume, example, given, settings, strategies as st

import reference_expand as ref
from walkerkit.expr import (
    ExprError, Pow, Prod, Sum, add, clear_denominators, mul, num, parse,
    pow_,
)
from walkerkit.expr.expand import _Ring, expand_poly

# leaves: atoms, the sign symbol eps, two constant roots, small rationals,
# and "S", which stands for one shared subtree drawn with the tree
LEAVES = ("x", "t", "a_1", "eps", "c1", "sqrt(3)", "(3/7)^(1/3)")
EXPONENTS = st.sampled_from(
    (-3, -2, -1, 2, 3, 4, Fraction(1, 2), Fraction(-1, 3)))


def _extend(children):
    return st.one_of(
        st.lists(children, min_size=2, max_size=3).map(lambda ts: ("+", ts)),
        st.lists(children, min_size=2, max_size=3).map(lambda fs: ("*", fs)),
        st.tuples(st.just("^"), children, EXPONENTS),
    )


TREES = st.recursive(
    st.one_of(st.sampled_from(LEAVES + ("S", "S")),
              st.fractions(min_value=-5, max_value=5, max_denominator=4)
              .filter(bool)),
    _extend, max_leaves=10)
SHARED = st.recursive(
    st.one_of(st.sampled_from(LEAVES),
              st.fractions(min_value=-3, max_value=3, max_denominator=3)
              .filter(bool)),
    _extend, max_leaves=5)


def _build(tree, shared):
    """The expression of ``tree``; every "S" leaf is the one node
    ``shared``, so the tree holds it as a repeated subtree."""
    if tree == "S":
        return shared
    if isinstance(tree, str):
        return parse(tree)
    if isinstance(tree, Fraction):
        return num(tree)
    if tree[0] == "^":
        return pow_(_build(tree[1], shared), tree[2])
    parts = [_build(c, shared) for c in tree[1]]
    return add(*parts) if tree[0] == "+" else mul(*parts)


def _kept_even_power(e):
    """Whether ``e`` holds (u^m)^r, u a sum and m with an even numerator:
    the kernel signs u there, the reference predates that."""
    if isinstance(e, Pow):
        return ((isinstance(e.base, Pow) and isinstance(e.base.base, Sum)
                 and not e.base.exp.numerator % 2)
                or _kept_even_power(e.base))
    if isinstance(e, (Sum, Prod)):
        return any(map(_kept_even_power,
                       e.terms if isinstance(e, Sum) else e.factors))
    return False


def _same_as_reference(e):
    assert expand_poly(e).monomials() == ref.expand_poly(e).monomials()
    got, cleared = clear_denominators(expand_poly(e))
    want, want_cleared = ref.clear_denominators(ref.expand_poly(e))
    assert (got.monomials(), cleared) == (want.monomials(), want_cleared)


@settings(max_examples=300, deadline=None)
@given(TREES, SHARED)
@example(("*", ["S", "sqrt(3)", ("+", ["S", "x"])]), "sqrt(3)")
@example(("*", [("^", ("+", ["(3/7)^(1/3)", "x"]), 2), "(3/7)^(1/3)"]),
         ("+", ["t", "(3/7)^(1/3)"]))
@example(("+", [("^", ("+", ["S", "t"]), -2), ("*", ["S", "eps"])]),
         ("*", ["eps", "x"]))
@example(("+", [("*", ["S", "x"]), ("*", ["S", "t"])]), ("+", ["x", "a_1"]))
def test_expansion_matches_the_reference(tree, shared):
    try:
        s = _build(shared, None)
        e = _build(tree, s)
        # the same nodes again, in a ring whose exponent unit is 5 times
        # larger
        f = mul(e, pow_(parse("x + t"), Fraction(1, 5)), s)
    except ExprError:  # 0^-1, an even root of a negative rational
        return
    assume(not _kept_even_power(f))
    _same_as_reference(e)
    _same_as_reference(f)


# --- work counts --------------------------------------------------------------

def test_repeated_subtree_is_expanded_once(monkeypatch):
    shared = parse("(x + t)^3 + a_1*b")
    children = set(shared.terms)
    e = add(*[mul(f, shared) for f in (parse("y"), parse("z"), parse("c1"),
                                       parse("c2"), parse("c3"))])
    calls = Counter()
    expand = _Ring.expand

    def counting(self, node):
        calls[node] += 1
        return expand(self, node)

    monkeypatch.setattr(_Ring, "expand", counting)
    got = expand_poly(e).monomials()
    assert calls[shared] == 5
    assert all(calls[c] == 1 for c in children)
    assert got == ref.expand_poly(e).monomials()


def test_constant_factor_computes_no_monomial_product(monkeypatch):
    e = parse("(x + sqrt(3)*t)^2*(3/7)^(1/3) + eps*a_1")
    ring = _Ring(e)
    poly = ring.expand(e)
    assert ring.roots
    products = []
    mono_mul = _Ring.mono_mul

    def counting(self, ka, kb):
        products.append((ka, kb))
        return mono_mul(self, ka, kb)

    monkeypatch.setattr(_Ring, "mono_mul", counting)
    terms, den = poly
    scaled = {k: 5 * c for k, c in terms.items()}
    assert ring.mul(({(): 5}, 7), poly) == (scaled, 7 * den)
    assert ring.mul(poly, ({(): 5}, 7)) == (scaled, 7 * den)
    assert ring.mul(({(): 1}, 1), poly) == poly
    assert products == []
