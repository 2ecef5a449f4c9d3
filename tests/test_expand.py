"""The expansion behind the symbolic zero test, against its reference.

``reference_expand`` is the plain loop version: it keeps monomials as
tuples of (atom, exponent) pairs, expands every occurrence of a subtree
again and folds the constant roots of every product of two terms. The
kernel's ``expand`` packs a monomial into one int, remembers subtrees
within one expansion, scales instead of multiplying by a constant, takes
a whole power of a root out only where two factors share it, and widens
its exponent fields when they could overflow; it must give the same
canonical polynomial, before and after denominator clearing.
"""

import time
from collections import Counter
from fractions import Fraction

from hypothesis import assume, example, given, settings, strategies as st

import reference_expand as ref
from walkerkit.expr import (
    ExprError, Pow, Prod, Sum, add, clear_denominators, div, expand_monomials,
    is_zero_symbolic, mul, num, parse, pow_, sub,
)
from walkerkit.expr.expand import (
    WIDTH, Poly, _Ring, _survey, cancels, expand_poly, expand_tables,
)

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
@example(("+", [("^", "x", 4096), "S"]), ("^", "x", 4096))
@example(("*", [("^", "x", Fraction(1, 4093)), ("^", "x", Fraction(1, 4091)),
                ("^", ("+", ["x", "t"]), -3)]), "x")
# merged powers multiply: x^(2^48) in units of 1/(4093*4091) outgrows
# the first field width
@example(("*", [("^", ("^", ("^", ("^", "x", 4096), 4096), 4096), 4096),
                ("^", "x", Fraction(1, 4093)), ("^", "t", Fraction(1, 4091))]),
         "t")
@example(("*", [("^", "eps", 3), ("^", ("+", ["eps", "S"]), 2),
                ("^", "eps", Fraction(-1, 2)), ("^", "epsp", -1)]),
         ("+", ["x", "eps"]))
# x - t and t - x: the sum atom takes the sign of its least term
@example(("+", [("^", ("+", ["x", ("*", ["t", Fraction(-1)])]), -3),
                ("^", ("+", ["t", ("*", ["x", Fraction(-1)])]), 9)]), "x")
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


def test_tables_expand_each_value_once(monkeypatch):
    # three tables over two values in one ring: each value is expanded
    # once, and each polynomial is the expansion of its table's sum
    u, v = parse("(x + t)^3 + a_1*b"), parse("x*(t + 1)^(-1) + 2")
    tables = (
        ((Fraction(1), ((0, 2),)), (Fraction(-2), ((0, 1), (1, 1)))),
        ((Fraction(1, 3), ((1, 1),)),),
        ((Fraction(1), ((0, 1), (1, 2))), (Fraction(-1), ((1, 2), (0, 1)))),
    )
    calls = Counter()
    expand = _Ring.expand

    def counting(self, node):
        calls[node] += 1
        return expand(self, node)

    monkeypatch.setattr(_Ring, "expand", counting)
    polys = expand_tables([u, v], tables)
    assert calls[u] == calls[v] == 1
    monkeypatch.undo()
    assert len({id(p.ring) for p in polys}) == 1
    sums = [sub(mul(u, u), mul(2, u, v)), mul(Fraction(1, 3), v), num(0)]
    for p, e in zip(polys, sums):
        assert p.monomials() == expand_monomials(e)
    assert [cancels(p) for p in polys] == [False, False, True]


def test_tables_merge_a_root_of_a_sum_as_mul_does():
    # (t + 1)^(1/2) squared is t + 1 in the normal form; the ring keeps
    # the root as an opaque atom, so that monomial is built with mul
    r = parse("(t + 1)^(1/2)")
    table = ((Fraction(1), ((0, 2),)), (Fraction(-1), ((1, 1),)))
    p, = expand_tables([r, parse("t + 1")], (table,))
    assert cancels(p)


def _counting_fixes(monkeypatch):
    calls = []
    fix = _Ring.fix

    def counting(self, k, xa, xb):
        calls.append((xa, xb))
        return fix(self, k, xa, xb)

    monkeypatch.setattr(_Ring, "fix", counting)
    return calls


def test_constant_factor_computes_no_monomial_product(monkeypatch):
    e = parse("(x + sqrt(3)*t)^2*(3/7)^(1/3) + eps*a_1")
    ring = _Ring(*_survey(e))
    poly = ring.expand(e)
    const, one = ring.expand(num(Fraction(5, 7))), ring.expand(num(1))
    assert ring.roots and ring.signs
    fixes = _counting_fixes(monkeypatch)
    terms, den, bound = poly
    scaled = ({k: 5 * c for k, c in terms.items()}, 7 * den, bound)
    assert ring.mul(const, poly) == scaled
    assert ring.mul(poly, const) == scaled
    assert ring.mul(one, poly) == poly
    assert fixes == []


def test_fix_up_only_where_both_sides_carry_the_atom(monkeypatch):
    e = parse("sqrt(3)*x + eps*t + y + sqrt(3)*eps")
    ring = _Ring(*_survey(e))
    root_x, eps_t, y, both = (ring.expand(parse(f)) for f in (
        "sqrt(3)*x", "eps*t", "y", "sqrt(3)*eps"))
    fixes = _counting_fixes(monkeypatch)

    def product(a, b):
        return Poly(ring, *ring.mul(a, b)).to_expr()

    assert product(root_x, y) == parse("sqrt(3)*x*y")
    assert product(y, both) == parse("sqrt(3)*eps*y")
    assert product(eps_t, y) == parse("eps*t*y")
    assert fixes == []
    assert product(root_x, both) == parse("3*x*eps")
    assert product(eps_t, both) == parse("sqrt(3)*t")
    assert product(root_x, eps_t) == parse("sqrt(3)*x*eps*t")


# --- field width --------------------------------------------------------------

def _chain(levels):
    """u_{k+1} = u_k*(u_k + 2) from u_0 = x - 1, which is x^(2^k) - 1; each
    level holds the previous one twice."""
    u = parse("x - 1")
    for _ in range(levels):
        u = mul(u, add(u, 2))
    return u


def test_exponents_past_the_field_width_widen_the_ring():
    # against the closed form: the reference expands both copies of each
    # level again, 2^70 paths
    p = expand_poly(_chain(70))
    x = parse("x")
    assert p.ring.width > WIDTH
    assert p.monomials() == {(): -1, ((x, Fraction(2 ** 70)),): 1}
    assert is_zero_symbolic(sub(_chain(70), pow_(x, 2 ** 70) - 1))


def test_monomials_of_a_deeply_shared_atom_take_linear_time():
    # the atom (u_26 + 2) holds u_25 twice, u_24 four times, ...; keyed by
    # its nested key tuple, each lookup hashed all 2^26 paths
    e = pow_(add(_chain(26), 2), -1)
    start = time.perf_counter()
    monos = expand_monomials(e)
    assert time.perf_counter() - start < 1.0
    assert monos == {((e.base, Fraction(-1)),): 1}


def test_clearing_past_the_field_width_widens_the_ring():
    # y*x^n/(x^n + t) fits the first width; clearing multiplies it by
    # x^n + t, which does not
    xn, t, y = pow_(parse("x"), 2 ** 62), parse("t"), parse("y")
    s = add(xn, t)
    e = add(div(mul(y, xn), s), div(mul(y, t), s), mul(-1, y))
    p = expand_poly(e)
    assert p.ring.width == WIDTH and p.terms
    got, cleared = clear_denominators(p)
    assert cleared and not got.terms and got.ring.width > WIDTH
    # the input polynomial still reads in its own ring
    assert p.monomials() == expand_poly(e).monomials()


def test_zero_tree_is_zero_without_a_ring(monkeypatch):
    # ZERO needs no expansion, as every cell of the adjoint flow check
    # is; a tree that only cancels once expanded still builds a ring
    from walkerkit.expr import expand

    built = []
    real = expand.expand_poly

    def counting(e):
        built.append(e)
        return real(e)

    monkeypatch.setattr(expand, "expand_poly", counting)
    x = parse("x")
    assert is_zero_symbolic(sub(x, x)) and is_zero_symbolic(num(0))
    assert built == []
    assert is_zero_symbolic(parse("(x + 1)^2 - x^2 - 2*x - 1"))
    assert not is_zero_symbolic(parse("x"))
    assert len(built) == 2
