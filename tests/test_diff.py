"""Derivative oracle: central finite differences on closed-form inputs.

The symbolic derivative of every closed form is evaluated at random
points and compared against a second-order difference quotient of the
original expression. Structural chain-rule facts for dependent-function
symbols are frozen by hand.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from walkerkit.expr import (
    PLANE_DEPS, EvalGuard, ExprError, add, atan, coord, diff, eval_expr,
    exp_, free_atoms, funcsym, ln, mul, num, parse, partial, pow_,
    sample_point, substitute, substitute_all,
)
from walkerkit.expr import nodes

from test_geometry import _to_sympy
from test_zero import _fold, _oracle_extend

CLOSED_FORMS = [
    "4*(t + c1)/(c2*x + c3)^2",
    "4*c2^2*(t + c1)^3/(c2*x + c3)^4",
    "4*c2*(t + c1)^2/(c2*x + c3)^3",
    "(c1*c3^2*t + c5)/(c1*t + c2)",
    "ln((t + c1)^2) + atan(2*t/sqrt(3) - 1/sqrt(3))",
    "exp(2*t)*(x + t)^3",
    "sqrt(x^2 + t^2)",
    "x^(1/3)*t^(-2/3)",
    "(x - c3)^2/t^3",
    "atan(x*t)*ln(x + t)",
]

H = 1e-5
REL_TOL = 1e-6


def central_difference(e, point, var, h=H):
    up = dict(point)
    dn = dict(point)
    up[var] += h
    dn[var] -= h
    return (eval_expr(e, up) - eval_expr(e, dn)) / (2 * h)


@pytest.mark.parametrize("text", CLOSED_FORMS)
@pytest.mark.parametrize("var", ["x", "t"])
def test_diff_matches_finite_differences(text, var):
    e = parse(text)
    de = diff(e, var)
    atoms = free_atoms(e) | free_atoms(de)
    if coord(var) not in atoms:
        assert de == parse("0")
        return
    rng = random.Random(hash((text, var)) & 0xFFFF)
    checked = 0
    attempts = 0
    while checked < 10 and attempts < 200:
        attempts += 1
        point = sample_point(atoms, rng)
        try:
            sym = eval_expr(de, point)
            fd = central_difference(e, point, var)
        except EvalGuard:
            continue
        scale = max(1.0, abs(sym), abs(fd))
        assert abs(sym - fd) / scale < REL_TOL, (text, var, point)
        checked += 1
    assert checked == 10


def test_diff_constant_is_zero():
    assert diff(parse("c1*alpha"), "x") == parse("0")


def test_diff_other_coordinate_is_zero():
    assert diff(parse("x^2"), "t") == parse("0")


def test_function_symbol_chains_index():
    a = funcsym("a", (), (1, 2))
    assert diff(a, "x") == funcsym("a", (1,), (1, 2))
    assert diff(diff(a, "t"), "x") == funcsym("a", (1, 2), (1, 2))
    # mixed partials commute because indices are kept sorted
    assert diff(diff(a, "x"), "t") == diff(diff(a, "t"), "x")


def test_partial_does_not_chain_function_symbols():
    a = funcsym("a", (), (1, 2))
    a_1 = funcsym("a", (1,), (1, 2))
    # a jet coordinate is independent of its base symbol under partial
    assert partial(a_1, a) == parse("0")
    assert diff(a, "x") == a_1


def test_function_symbol_outside_dependency_is_zero():
    f = funcsym("f", (), (2,))
    assert diff(f, "x") == parse("0")
    a4 = funcsym("a", (), (1, 2, 3, 4))
    assert diff(a4, "y") == funcsym("a", (3,), (1, 2, 3, 4))


def test_product_rule_on_function_symbols():
    e = parse("a*b_2")
    de = diff(e, "x")
    assert de == parse("a_1*b_2 + a*b_12")


def test_quotient_shape():
    e = parse("b/a")
    de = diff(e, "t")
    assert de == parse("b_2/a - b*a_2/a^2")


def test_third_order_indices():
    e = parse("a_12")
    assert diff(e, "t") == funcsym("a", (1, 2, 2), (1, 2))


SUBSTITUTED = ("b_12 + b_1", "b_1*b_2 - c1*b", "b_122 - b_12",
               "ln(b_2) + c1^2")
A_F = mul(funcsym("a", (), PLANE_DEPS), funcsym("f", (), (2,)))


def test_substitute_all_equals_substitute():
    exprs = tuple(parse(t) for t in SUBSTITUTED)
    bindings = {"b": A_F, "c1": num(3)}
    assert substitute_all(exprs, bindings) == tuple(
        substitute(e, bindings) for e in exprs)
    assert substitute_all((), bindings) == ()


def test_substitute_all_differentiates_each_derivative_once(monkeypatch):
    exprs = tuple(parse(t) for t in SUBSTITUTED)
    bindings = {"b": A_F}
    calls = []
    real = nodes.diff

    def counting(e, v):
        calls.append((e, v))
        return real(e, v)

    monkeypatch.setattr(nodes, "diff", counting)
    substitute_all(exprs, bindings)
    # b_1, b_12, b_122 and b_2 are each one step from a memoized prefix;
    # substituting one expression at a time takes 10 steps
    assert len(calls) == 4
    assert len(set(calls)) == 4


# --- the derivative cache shared by diff and partial --------------------------

def _derived(run):
    """Node derivatives computed (derivative-cache misses) by ``run()``."""
    before = nodes._derive.cache_info().misses
    run()
    return nodes._derive.cache_info().misses - before


def test_repeated_derivative_computes_no_node():
    e = parse("exp(2*t)*(x + t)^3 + a_1*b/c - atan(x*t)*ln(x + t)")
    a_1 = funcsym("a", (1,), PLANE_DEPS)
    first = diff(e, "x"), partial(e, a_1)
    assert _derived(lambda: diff(e, "x")) == 0
    assert _derived(lambda: partial(e, a_1)) == 0
    assert (diff(e, "x"), partial(e, a_1)) == first
    # the direction is part of the key: a coordinate name chains a
    # function symbol, an atom does not
    assert diff(parse("a"), "x") == funcsym("a", (1,), PLANE_DEPS)
    assert partial(parse("a"), coord("x")) == num(0)


def test_too_deep_to_differentiate_is_an_expression_error():
    e = coord("x")
    for _ in range(1000):
        e = ln(add(e, coord("t")))
    with pytest.raises(ExprError, match="too deeply"):
        diff(e, "x")
    with pytest.raises(ExprError, match="too deeply"):
        partial(e, coord("t"))


def test_twin_metric_reuses_the_base_derivatives():
    from walkerkit.geometry import einstein_verdicts

    # table1.row3 at c1, c2, c3 = 2, 3, 5; the twin adds 7*x^3 to a and
    # keeps b and c
    a = "4*(t + 2)/(3*x + 5)^2"
    b = parse("36*(t + 2)^3/(3*x + 5)^4")
    c = parse("12*(t + 2)^2/(3*x + 5)^3")
    nodes._derive.cache_clear()
    base = _derived(lambda: einstein_verdicts(parse(a), b, c))
    twin = _derived(lambda: einstein_verdicts(parse(f"{a} + 7*x^3"), b, c))
    assert 0 < twin < base


def test_second_structure_constants_computes_no_node():
    from walkerkit import liealg

    first = liealg.structure_constants()
    assert _derived(liealg.structure_constants) == 0
    assert liealg.structure_constants() == first


def test_second_invariant_rank_computes_no_node():
    from walkerkit import catalog
    from walkerkit.pis import invariant_rank

    inv = catalog.builtin_map()["table1.row3"].invariant_set()
    first = invariant_rank(inv)
    assert _derived(lambda: invariant_rank(inv)) == 0
    assert invariant_rank(inv) == first


# --- SymPy as an independent oracle for diff and substitute -------------------

KERNEL_ATOMS = ("x", "t", "y", "c1", "a", "a_1", "a_12", "b_2")
KERNEL_EXPONENTS = (Fraction(1, 2), Fraction(-1), Fraction(-2, 3),
                    Fraction(3, 2))
KERNELS = {"ln": ln, "exp": exp_, "atan": atan}


def _kernel_extend(children):
    return st.one_of(
        _oracle_extend(children),
        st.tuples(st.sampled_from(tuple(KERNELS)), children),
        st.tuples(st.just("^"), children, st.sampled_from(KERNEL_EXPONENTS)),
    )


# the polynomial trees of test_zero, with ln, exp, atan, rational powers
# and function symbols
KERNEL_TREES = st.recursive(
    st.one_of(st.sampled_from(KERNEL_ATOMS),
              st.fractions(min_value=-5, max_value=5, max_denominator=4)),
    _kernel_extend, max_leaves=6)


def _build(tree):
    """The tree as an expression, or None where a constructor rejects it
    (0^-1, an even root of a negative rational)."""
    try:
        return _fold(tree, lambda v: parse(v) if isinstance(v, str)
                     else num(v), add, mul, pow_,
                     lambda name, arg: KERNELS[name](arg))
    except ExprError:
        return None


def _sympy_space(sp):
    """Symbols by name, and concrete functions for a and b, so that a
    derivative symbol such as a_12 has a value."""
    symbols = {n: sp.Symbol(n) for n in ("x", "t", "y", "z", "c1")}
    x, t = symbols["x"], symbols["t"]
    functions = {"a": 2 + x * t / 3 + x ** 2 / 5,
                 "b": 3 - t / 7 + x * t ** 2 / 4}
    return symbols, functions


def _in_real_domain(sp, side, point) -> bool:
    """False where ``side`` takes an even root of a negative value or the
    logarithm of a non-positive one, where the kernel's real powers and
    logarithms have no value."""
    for n in sp.preorder_traversal(side):
        if n.is_Pow and n.exp.is_Rational and n.exp.q % 2 == 0:
            v = sp.N(n.base.subs(point), 40)
            if not (v.is_real and v >= 0):
                return False
        elif isinstance(n, sp.log):
            v = sp.N(n.args[0].subs(point), 40)
            if not (v.is_real and v > 0):
                return False
    return True


def _assert_same_value(sp, got, want, real=False):
    """Both sides agree to 25 digits at one point, with principal branches
    (a negative base makes a complex value); a point where either side is
    undefined says nothing. With ``real``, neither does a point outside
    the real domain of ``want`` (``_in_real_domain``), while a ``got``
    without a real value where ``want`` has one fails. The values stay
    40-digit SymPy numbers, whose exponent range holds exp(4096)."""
    point = {sp.Symbol(n): v for n, v in (
        ("x", sp.Rational(7, 10)), ("t", sp.Rational(13, 10)),
        ("y", sp.Rational(2, 5)), ("z", sp.Rational(3, 7)),
        ("c1", sp.Rational(9, 10)))}
    values = []
    for side in (got, want):
        v = sp.N(side.subs(point), 40)
        assume(v.is_number and not v.has(sp.zoo, sp.oo, sp.nan))
        values.append(v)
    if real:
        assume(_in_real_domain(sp, want, point))
        assert _in_real_domain(sp, got, point), (got, want)
    scale = max(1, *map(abs, values))
    assert abs(values[0] - values[1]) <= sp.Float("1e-25") * scale, \
        (got, want)


@settings(max_examples=100, deadline=None)
@given(KERNEL_TREES, st.sampled_from(("x", "t", "y")))
def test_diff_matches_sympy(tree, var):
    sp = pytest.importorskip("sympy")
    e = _build(tree)
    assume(e is not None)
    try:
        d = diff(e, var)
    except ExprError:  # the derivative of ln(0) divides by exact zero
        assume(False)
    # the second derivative is read from the cache
    assert diff(e, var) is d
    symbols, functions = _sympy_space(sp)
    want = sp.diff(_to_sympy(sp, e, symbols, functions), symbols[var])
    _assert_same_value(sp, _to_sympy(sp, d, symbols, functions), want)


def _real_odd_roots(sp, s):
    """``s`` with every odd root taken real, as the kernel takes it: a
    power p/q with q odd becomes real_root(base, q)^p. SymPy's own power
    is the principal branch, complex at a negative base."""
    return s.replace(
        lambda n: n.is_Pow and n.exp.is_Rational and n.exp.q % 2 == 1
        and n.exp.q > 1,
        lambda n: sp.real_root(n.base, n.exp.q) ** n.exp.p)


@settings(max_examples=100, deadline=None)
@given(KERNEL_TREES, KERNEL_TREES,
       st.fractions(min_value=Fraction(1, 4), max_value=5,
                    max_denominator=4))
# a = -1 makes (x*a)^(-2/3) the real x^(-2/3)
@example(tree=("^", ("^", ("*", ["x", "a"]), Fraction(-2, 3)), 1),
         binding=Fraction(-1), value=Fraction(1, 4))
# (x - 1)*ln(x) > 0 at x = 0.7 with both factors negative, so its square
# root must not split into sqrt(x - 1)*sqrt(ln(x))
@example(tree=("^", "a", Fraction(1, 2)),
         binding=("*", [("+", ["x", Fraction(-1)]), ("ln", "x")]),
         value=Fraction(1, 4))
def test_substitute_matches_sympy(tree, binding, value):
    # a binding can make a base negative, where the kernel takes the real
    # odd root, so both sides are compared over the reals
    sp = pytest.importorskip("sympy")
    e, bound = _build(tree), _build(binding)
    assume(e is not None and bound is not None)
    try:
        got = substitute(e, {"a": bound, "c1": num(value)})
    except ExprError:  # a quotient whose denominator became exact zero
        assume(False)
    symbols, functions = _sympy_space(sp)
    want = _to_sympy(
        sp, e, dict(symbols, c1=sp.Rational(value.numerator,
                                            value.denominator)),
        dict(functions, a=_to_sympy(sp, bound, symbols, functions)))
    _assert_same_value(
        sp, _real_odd_roots(sp, _to_sympy(sp, got, symbols, functions)),
        _real_odd_roots(sp, want), real=True)
