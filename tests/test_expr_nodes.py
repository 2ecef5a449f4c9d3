"""Normal-form construction invariants for the expression kernel."""

import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_nodes as reference
from walkerkit.expr import (
    ExpF, Expr, ExprError, Func, Num, Pow, Prod, Sum, add, coord, diff, div,
    eval_expr, funcsym, mul, neg, num, param, parse, partial, pow_, render,
    sqrt, sub, substitute,
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


@pytest.mark.parametrize("arg", [0, -2, Fraction(-1, 3)])
def test_ln_of_a_non_positive_constant_raises(arg):
    # no real logarithm: the node is never built, so no metric holding
    # it reaches a verdict
    with pytest.raises(ExprError, match="non-positive constant"):
        nodes.ln(num(arg))
    with pytest.raises(ExprError, match="non-positive constant"):
        parse(f"x*ln({arg})")
    assert nodes.ln(num(1)) == num(0)
    assert nodes.ln(num(Fraction(1, 2))) != num(0)


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


def test_small_integer_constants_are_shared():
    for k in (-nodes.SMALL_INT, -1, 0, 1, 3, nodes.SMALL_INT):
        assert Num(k) is Num(k) is num(k)
        assert Num(k).value == k and type(Num(k).value) is Fraction
    assert Num(0) is nodes.ZERO and Num(1) is nodes.ONE
    big = nodes.SMALL_INT + 1
    assert Num(big) == Num(big) and Num(big) is not Num(big)


@pytest.mark.parametrize("k", [3, -7, 0, 10 ** 20])
def test_integer_fraction_constant_is_the_integer_constant(k):
    assert Num(Fraction(k)) == Num(k)
    assert hash(Num(Fraction(k))) == hash(Num(k))
    assert Num(Fraction(k)).key() == Num(k).key()


@pytest.mark.parametrize("value", [1.0, 0.0, "3", None, 2 + 0j])
def test_non_rational_constant_raises(value):
    with pytest.raises(ExprError):
        Num(value)


def test_structural_equality_is_hashable():
    s = {add(x, t), add(t, x), mul(2, x)}
    assert len(s) == 2


def test_shared_subtrees_build_in_linear_time():
    # u_{k+1} = u_k*(u_k + 2) holds u_k twice, so its tree has 2^k paths;
    # a node's hash and its like-term buckets read only its children
    start = time.perf_counter()
    u = parse("x - 1")
    for _ in range(40):
        u = mul(u, add(u, 2))
        assert time.perf_counter() - start < 1.0
    assert len(u.factors) == 41 and hash(u) == hash(u)


def test_exp_of_a_multiple_of_ln_folds_to_a_power():
    assert parse("exp(-ln(b5))") == parse("b5^(-1)")
    assert parse("exp(ln(x)/2)") == sqrt(x)
    assert parse("exp(2*ln(2))") == num(4)
    assert parse("eps*b5*exp(-ln(b5)) - eps") == num(0)
    # not positive by convention, or not a multiple of one ln
    for text in ("exp(ln(x - 1))", "exp(3*ln(eps))", "exp(ln(x) + t)"):
        assert isinstance(parse(text), ExpF)


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
# eps is a sign, not positive: the root keeps it under one Pow with -1
@example(tree=("^", ("*", ["eps", "x", -3]), Fraction(1, 2)))
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


# --- nested powers merge only where that keeps the value ---------------------

@pytest.mark.parametrize("text", [
    "((x - 1)^2)^(1/2)",
    "((x - 1)^2)^(3/2)",
    "((x - 1)^2)^(-1/2)",
    "((x - 1)^4)^(1/4)",
    "((x - 1)^2)^(1/4)",
    "((x - 1)^2)^2",
    "((x - 1)^(1/3))^3",
    "((x*t - 2)^2)^(1/2)*(x*t - 2)",
    "(x^2)^(1/2)",
    "(c1^2)^(3/2)",
    "((x - 1)*ln(x))^(1/2)",
    "(x*(x - 1)*ln(x)/t)^(-1/2)",
    "(-x*(x - 1)*(1 - x))^(1/2)",
])
def test_nested_power_keeps_its_value(text):
    # SymPy keeps the absolute value: sqrt((x - 1)^2) is Abs(x - 1), and
    # (x^2)^(1/2) is x for a positive x, the kernel's convention for atoms
    sp = pytest.importorskip("sympy")
    symbols = {n: sp.Symbol(n, positive=True) for n in ("x", "t", "c1")}
    want = sp.sympify(text.replace("^", "**"), locals=symbols)
    e = parse(text)
    for xv in (0.3, 0.8, 1.7, 2.4):
        point = {"x": xv, "t": 1.3, "c1": 0.9}
        got = eval_expr(e, point)
        value = complex(want.subs({symbols[n]: v for n, v in point.items()}))
        assert abs(value.imag) < 1e-12
        assert got == pytest.approx(value.real, rel=1e-12), (text, xv)


def test_nested_power_merges_only_where_sound():
    assert parse("((x - 1)^2)^(1/2)") != parse("x - 1")
    assert isinstance(parse("((x - 1)^2)^(1/2)").base, Pow)
    # an integer outer exponent, an odd inner numerator or a positive
    # atom merges
    assert parse("((x - 1)^2)^3") == parse("(x - 1)^6")
    assert parse("((x - 1)^3)^(1/3)") == parse("x - 1")
    assert parse("((x - 1)^(1/2))^(2/3)") == parse("(x - 1)^(1/3)")
    assert parse("(x^2)^(1/2)") == x
    assert parse("(c1^4)^(1/4)") == c1
    assert parse("(2^(2/3))^(3/2)") == num(2)
    # sign symbols and negative rationals are not positive
    for text in ("(eps^2)^(1/2)", "(epz^2)^(1/2)", "((-2)^(2/3))^(1/2)"):
        assert isinstance(parse(text).base, Pow), text
    assert eval_expr(parse("((-2)^(2/3))^(1/2)"), {}) == pytest.approx(
        2 ** (1 / 3))
    # an even root of a product spreads over its positive factors only:
    # (x - 1)*ln(x) > 0 on 0 < x < 1, where neither factor has a root
    u = parse("((x - 1)*ln(x))^(1/2)")
    assert isinstance(u, Pow) and isinstance(u.base, Prod)
    assert parse("(4*x*(x - 1)*ln(x))^(1/2)") == mul(2, sqrt(x), u)
    assert parse("(x*(x - 1))^(1/2)") == mul(sqrt(x), sqrt(parse("x - 1")))
    assert parse("(-x*(x - 1))^(1/2)") == mul(
        sqrt(x), Pow(Prod(Fraction(-1), (parse("x - 1"),)), Fraction(1, 2)))
    # odd roots and integer powers spread over every factor
    assert parse("((x - 1)*ln(x))^(1/3)") == parse(
        "(x - 1)^(1/3)*ln(x)^(1/3)")
    assert parse("((x - 1)*ln(x))^(-2)") == parse("(x - 1)^(-2)*ln(x)^(-2)")
    # two nested roots that merge to an integer power, in one product,
    # join the other powers of their base
    root, u = parse("((x - 1)^2)^(1/2)"), parse("x - 1")
    assert mul(root, root, u) == mul(root, u, root) == pow_(u, 3)


# --- the constructor caches --------------------------------------------------

BUILDERS = (add, mul, pow_)


@pytest.mark.parametrize("build, args", [
    (mul, ([1], x)), (mul, (x, {})), (mul, (1.0, x)),
    (add, (x, [1])), (add, (x, {})), (add, (x, 1.0)),
    (pow_, (x, [1])), (pow_, ({}, 2)), (pow_, (x, 2.0)),
])
def test_bad_builder_arguments_are_expression_errors(build, args):
    with pytest.raises(ExprError):
        build(*args)


@pytest.mark.parametrize("build, good, bad", [
    (mul, (1, x), (1.0, x)),
    (add, (x, 2), (x, 2.0)),
    (pow_, (x, 2), (x, 2.0)),
    (pow_, (t, Fraction(1, 2)), (t, 0.5)),
])
def test_cached_call_does_not_admit_an_equal_float(build, good, bad):
    # the cache keys are typed: 2 and 2.0 are equal with equal hashes
    build(*good)
    with pytest.raises(ExprError):
        build(*bad)


def _built(run):
    """Constructor-cache misses of add, mul and pow_ during ``run()``."""
    before = [f.cache_info().misses for f in BUILDERS]
    run()
    return [f.cache_info().misses - b for f, b in zip(BUILDERS, before)]


def test_repeated_determinant_builds_no_node():
    from walkerkit.liealg import det

    m = [[parse(s) for s in row] for row in (
        ("x", "t + 1", "a_1"), ("c1", "x*t", "2"), ("t^2", "1/x", "b"))]
    first = det(m)
    assert _built(lambda: det(m)) == [0, 0, 0]
    assert det(m) is first
    assert all(f.cache_info().maxsize == nodes.BUILD_CACHE
               for f in BUILDERS)
