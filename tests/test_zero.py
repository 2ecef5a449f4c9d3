"""Three-valued zero test: exact cancellations, numeric-only identities,
and nonzero witnesses. The rational shapes mirror what the solution
catalog feeds through the verifier."""

import math
import time
from datetime import timedelta
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

from walkerkit.expr import (
    NONZERO, ZERO_NUMERIC, ZERO_SYMBOLIC, EvalError, Pow, Prod, Sum, add,
    clear_denominators, expand_monomials, is_zero, is_zero_symbolic, mul,
    num, parse, pow_, render, sub,
)
from walkerkit.expr.expand import CLEAR_ROUNDS, POW_EXPAND_LIMIT, expand_poly


def verdict(text, **kw):
    return is_zero(parse(text), **kw).verdict


def test_plain_cancellation():
    assert verdict("(x + t)*(x - t) - x^2 + t^2") == ZERO_SYMBOLIC


def test_binomial_power():
    assert verdict("(x + t)^3 - x^3 - 3*x^2*t - 3*x*t^2 - t^3") == ZERO_SYMBOLIC


def test_sign_normalized_sum_base():
    assert verdict("(x - t)^2 - (t - x)^2") == ZERO_SYMBOLIC
    assert verdict("1/(x - t) + 1/(t - x)") == ZERO_SYMBOLIC


def test_denominator_clearing_single():
    assert verdict("(c1*t + c2)/(c1*t + c2) - 1") == ZERO_SYMBOLIC


def test_denominator_clearing_mixed_powers():
    text = ("x/(x + t)^2 - 1/(x + t) + t/(x + t)^2")
    assert verdict(text) == ZERO_SYMBOLIC


def test_denominator_clearing_two_kernels():
    text = ("1/((x + 1)*(t + 1)) - 1/(x + 1) + t/((x + 1)*(t + 1))")
    assert verdict(text) == ZERO_SYMBOLIC


def test_quotient_rule_residual():
    # d/dt of (c1*c3^2*t + c5)/(c1*t + c2), minus itself written out
    text = ("c1*c3^2/(c1*t + c2) - c1*(c1*c3^2*t + c5)/(c1*t + c2)^2"
            " - (c1*c3^2*c2 - c1*c5)/(c1*t + c2)^2")
    assert verdict(text) == ZERO_SYMBOLIC


def test_sign_symbol_squares_to_one():
    assert verdict("eps^2 - 1") == ZERO_SYMBOLIC
    assert verdict("eps^3 - eps") == ZERO_SYMBOLIC
    assert verdict("eps^2*epsp^2 - 1") == ZERO_SYMBOLIC
    assert verdict("1/eps - eps") == ZERO_SYMBOLIC


def test_ternary_symbol_does_not_square_to_one():
    # epz can be 0, so epz^2 - 1 is not zero and epz^2 - epz^2 is
    assert verdict("epz^2 - epz^2") == ZERO_SYMBOLIC
    assert verdict("epz^2 - 1") == NONZERO


def test_numeric_only_log_identity():
    assert verdict("ln(x^2) - 2*ln(x)") == ZERO_NUMERIC


def test_numeric_only_log_of_square_sum():
    assert verdict("ln((t + c1)^2) - 2*ln(t + c1)") == ZERO_NUMERIC


def test_root_split_over_product_is_constructive():
    # fractional powers distribute over products at construction
    assert verdict("(c1/c2)^(1/3) - c1^(1/3)*c2^(-1/3)") == ZERO_SYMBOLIC


def test_numeric_only_root_of_square():
    assert verdict("sqrt(x^2 + 2*x*t + t^2) - x - t") == ZERO_NUMERIC


def test_root_of_a_square_is_an_absolute_value():
    # ((x - 1)^2)^(1/2) is |x - 1|, not x - 1: samples below x = 1 tell
    # them apart; two roots of equal squares add up to 2|x - 1|
    assert verdict("((x - 1)^2)^(1/2) - (x - 1)") == NONZERO
    assert verdict("((x - 1)^2)^(1/2) + ((1 - x)^2)^(1/2)") == NONZERO


@pytest.mark.parametrize("text", [
    "((x - 1)^2)^(1/2) - ((1 - x)^2)^(1/2)",
    "((x - t)^2)^(1/3) - ((t - x)^2)^(1/3)",
    "((x - 1)^(2/3))^(1/2) - ((1 - x)^(2/3))^(1/2)",
    "((t - x)^4)^(1/2)*x - x*((x - t)^4)^(1/2)",
])
def test_even_power_under_a_root_cancels_exactly(text):
    # u^2 = (-u)^2: the sum base of an even power kept under a root is
    # sign-normalized, so both roots expand to one atom
    assert verdict(text) == ZERO_SYMBOLIC


def test_ln_one_and_atan_zero_fold_at_construction():
    assert verdict("ln(1)") == ZERO_SYMBOLIC
    assert verdict("x*atan(0)") == ZERO_SYMBOLIC
    assert verdict("ln(x - x + 1) + atan(t - t)") == ZERO_SYMBOLIC


def test_nonzero_with_witness():
    res = is_zero(parse("x^2 - t"))
    assert res.verdict == NONZERO
    assert res.witness is not None
    assert res.max_residual > 1e-3


def test_nonzero_small_coefficient():
    res = is_zero(parse("x/1000000"))
    assert res.verdict == NONZERO


def test_function_symbols_are_opaque_atoms():
    assert verdict("a*b - b*a") == ZERO_SYMBOLIC
    assert verdict("a_12 - a_21") == ZERO_SYMBOLIC
    res = is_zero(parse("a_1 - a_2"))
    assert res.verdict == NONZERO


def test_transcendental_kernels_opaque():
    assert verdict("exp(x + t) - exp(x + t)") == ZERO_SYMBOLIC
    # no exp law applied symbolically, must fall through to numeric
    assert verdict("exp(x + t) - exp(x)*exp(t)") == ZERO_NUMERIC


def test_deep_rational_identity():
    # 1/(1 + 1/(x + 1)) == (x + 1)/(x + 2), needs nested clearing
    assert verdict("1/(1 + 1/(x + 1)) - (x + 1)/(x + 2)") == ZERO_SYMBOLIC


def test_expand_monomials_counts():
    monos = expand_monomials(parse("(x + t)^2"))
    assert len(monos) == 3
    monos = expand_monomials(parse("(x + t)^2 - x^2 - 2*x*t - t^2"))
    assert monos == {}


def test_clear_denominators_flag():
    poly, cleared = clear_denominators(expand_poly(parse("1/(x + t)")))
    assert cleared
    assert poly.monomials() == {(): 1}
    assert is_zero_symbolic(parse("x/(x + t) + t/(x + t) - 1"))


def test_expanded_form_is_canonical():
    assert (expand_monomials(parse("x*(1 + x)"))
            == expand_monomials(parse("x + x^2")))
    assert (expand_monomials(parse("-1/4*(a_11 + b_22) + 1/4*a_11"))
            == expand_monomials(parse("-1/4*b_22")))
    # exponents are read back from units of 1/6 and of 1 alike
    assert (expand_monomials(parse("x^(1/2)*(x^(1/2) + t^(1/3))"
                                   " - x^(1/2)*t^(1/3)"))
            == expand_monomials(parse("x")))


def test_collected_tree():
    # to_expr writes the expansion back as a sum of monomials
    e = parse("(x^(1/2) + t^(1/3))^2*(1 + eps)/3 - eps^3/2")
    collected = expand_poly(e).to_expr()
    assert expand_monomials(collected) == expand_monomials(e)
    assert render(expand_poly(parse("x*(1 + x)")).to_expr()) == "x + x^2"


def _binomial(n):
    """The expansion of (x + t)^n."""
    return " + ".join(f"{comb(n, k)}*x^{n - k}*t^{k}" for k in range(n + 1))


def _continued_fraction_difference(depth):
    """1 + 1/(1 + 1/(... (x + 1))) minus its closed form
    (F(d+1)*x + F(d+2))/(F(d)*x + F(d+1)); clearing takes ``depth``
    rounds."""
    text = "x + 1"
    for _ in range(depth):
        text = f"1 + 1/({text})"
    f = [0, 1]
    while len(f) < depth + 3:
        f.append(f[-1] + f[-2])
    return (f"{text} - ({f[depth + 1]}*x + {f[depth + 2]})"
            f"/({f[depth]}*x + {f[depth + 1]})")


@pytest.mark.parametrize("text, want", [
    # sign symbols: integer exponents reduce mod 2, negative ones too
    ("eps^3 - eps", ZERO_SYMBOLIC),
    ("eps^(-1) - eps", ZERO_SYMBOLIC),
    ("(eps^(1/2) + x)^2 - eps - 2*eps^(1/2)*x - x^2", ZERO_SYMBOLIC),
    # exponents in units of 1/D merge to whole powers
    ("x^(1/2)*x^(1/2) - x", ZERO_SYMBOLIC),
    ("(x^(1/2) + t)^2 - x - 2*x^(1/2)*t - t^2", ZERO_SYMBOLIC),
    ("(x + t)^(1/2)*(x + t)^(1/2) - x - t", ZERO_SYMBOLIC),
    # an irrational power of a sum is one opaque atom, never re-expanded
    ("((x + t)^(1/2) + 1)^2 - x - t - 2*(x + t)^(1/2) - 1", ZERO_NUMERIC),
    # a constant root keeps its exponent in [0, 1): whole powers fold
    ("(x + sqrt(3))*(x - sqrt(3)) - x^2 + 3", ZERO_SYMBOLIC),
    ("(x + 2^(1/3))*(x^2 - x*2^(1/3) + 2^(2/3)) - x^3 - 2", ZERO_SYMBOLIC),
    ("(1 + sqrt(3))^2 - 4 - 2*sqrt(3)", ZERO_SYMBOLIC),
    ("1/sqrt(3) - sqrt(3)/3", ZERO_SYMBOLIC),
    ("((3/7)^(1/3))^3 - 3/7", ZERO_SYMBOLIC),
    ("(-2)^(1/3)*(-2)^(2/3) + 2", ZERO_SYMBOLIC),
    ("(x + (3/7)^(1/3))^3 - x^3 - 3*x^2*(3/7)^(1/3) - 3*x*(3/7)^(2/3)"
     " - 3/7", ZERO_SYMBOLIC),
    ("(x + (-2)^(1/3))^3 - x^3 - 3*x^2*(-2)^(1/3) - 3*x*(-2)^(2/3) + 2",
     ZERO_SYMBOLIC),
    # a negative root to a negative power: (-2)^(-1/3) = -1/2*(-2)^(2/3)
    ("(x + (-2)^(-1/3))^3 - x^3 + 3/2*x^2*(-2)^(2/3) + 3/2*x*(-2)^(1/3)"
     " + 1/2", ZERO_SYMBOLIC),
    ("(x + sqrt(3))^2 - x^2 - 3", NONZERO),
    # u and -u share one sum atom
    ("1/(x + t) + 1/(-x - t)", ZERO_SYMBOLIC),
    ("(x + t)^(-3) + (-x - t)^(-3)", ZERO_SYMBOLIC),
    ("(x + t)^(-2) - (-x - t)^(-2)", ZERO_SYMBOLIC),
    # both x - t and t - x start with a positive term: the sign follows
    # the least term by factors, which they agree on
    ("(x - t)^9 + (t - x)^9", ZERO_SYMBOLIC),
    ("(x - t)^10 - (t - x)^10", ZERO_SYMBOLIC),
    # sums are multiplied out up to POW_EXPAND_LIMIT; past it, one atom,
    # until clearing its denominator multiplies it out
    (f"(x + t)^{POW_EXPAND_LIMIT} - ({_binomial(POW_EXPAND_LIMIT)})",
     ZERO_SYMBOLIC),
    (f"(x + t)^{POW_EXPAND_LIMIT + 1}"
     f" - ({_binomial(POW_EXPAND_LIMIT + 1)})", ZERO_NUMERIC),
    (f"(x + t)^{POW_EXPAND_LIMIT + 1}"
     f" - ({_binomial(POW_EXPAND_LIMIT + 2)})/(x + t)", ZERO_SYMBOLIC),
    # clearing multiplies a sum out to twice the cap, and no further
    (f"(x + t)^{2 * POW_EXPAND_LIMIT - 1}"
     f" - ({_binomial(2 * POW_EXPAND_LIMIT)})/(x + t)", ZERO_SYMBOLIC),
    (f"(x + t)^{2 * POW_EXPAND_LIMIT}"
     f" - ({_binomial(2 * POW_EXPAND_LIMIT + 1)})/(x + t)", ZERO_NUMERIC),
    # CLEAR_ROUNDS nested fractions clear; one more survives the cap
    (_continued_fraction_difference(CLEAR_ROUNDS), ZERO_SYMBOLIC),
    (_continued_fraction_difference(CLEAR_ROUNDS + 1), ZERO_NUMERIC),
])
def test_zero_test_edge_cases(text, want):
    assert verdict(text) == want


@pytest.mark.parametrize("text", ["x/10^10 + t/10^10", "x^2*y/10^12",
                                  "a_1^2/10^15 - c1/x/10^15"])
def test_a_proven_nonzero_is_never_read_as_zero(text):
    # the expansion is a nonzero polynomial over independent atoms, so the
    # verdict is nonzero at any tolerance; the probe finds the witness
    for tol in (1e-9, 1.0):
        res = is_zero(parse(text, functions={"a": (1, 2)}), tol=tol)
        assert res.verdict == NONZERO
        assert res.witness and 0 < res.max_residual < 1e-8


def test_a_constant_expansion_is_an_exact_nonzero():
    # the expansion is the constant 1, so no point is probed, as for a
    # curvature component that expands to a constant
    res = is_zero(parse("(x+1)^2 - x^2 - 2*x"))
    assert res.describe() == "nonzero (residual 1.000e+00 at {})"


@pytest.mark.parametrize("text", [
    f"(x + t)^{POW_EXPAND_LIMIT + 1} - ({_binomial(POW_EXPAND_LIMIT + 1)})",
    "x/10^10 + sqrt(3)/10^20", "eps*x/10^10 + x/10^10", "exp(x)/10^12"])
def test_outside_the_proven_class_the_probe_decides(text):
    # a sum atom, a constant root, a sign symbol or a kernel is left
    assert verdict(text) == ZERO_NUMERIC


def test_clearing_gives_up_past_twice_the_cap():
    # clearing 1/u would multiply u^200 out to u^201: it gives up, and
    # the numeric probe decides at once
    e = parse("(x + t + y)^200 + 1/(x + t + y)")
    start = time.perf_counter()
    assert not clear_denominators(expand_poly(e))[1]
    assert is_zero(e).verdict == NONZERO
    assert time.perf_counter() - start < 2.0


def test_probe_determinism():
    r1 = is_zero(parse("ln(x^2) - 2*ln(x)"), seed=7)
    r2 = is_zero(parse("ln(x^2) - 2*ln(x)"), seed=7)
    assert r1.max_residual == r2.max_residual
    assert r1.samples == r2.samples


def test_nan_residual_never_passes():
    # each product overflows to inf at every sample, so each residual is
    # inf - inf = NaN, and NaN > tol is False: no sample may decide
    p = "(x + 2)^300*(y + 2)^300*(t + 2)^300*(z + 2)^300"
    with pytest.raises(EvalError, match="admissible sample"):
        is_zero(parse(f"{p}*y - {p}*t"))


def test_overflowing_samples_are_drawn_again():
    # the products overflow at about half the samples; the others decide
    q = "(x + 2)^200*(t + 2)^200*(y + 2)^200"
    res = is_zero(parse(f"{q}*y - {q}*t"))
    assert res.verdict == NONZERO and math.isfinite(res.max_residual)
    res = is_zero(parse(f"{q}*exp(x + t) - {q}*exp(x)*exp(t)"))
    assert res.verdict == ZERO_NUMERIC and res.samples == 64
    assert res.max_residual < 1e-9


# --- SymPy as an independent oracle for the expansion ------------------------

# per example: generous for SymPy, yet a stall fails the test
ORACLE_DEADLINE = timedelta(seconds=30)
ORACLE_ATOMS = ("x", "t", "a_1", "eps", "c1")
# constant roots: text -> (sympy symbol name, value, degree); the oracle
# reduces each symbol's powers by symbol^degree = value
ORACLE_ROOTS = {
    "sqrt(3)": ("ROOTA", Fraction(3), 2),
    "2^(1/3)": ("ROOTB", Fraction(2), 3),
    "(3/7)^(1/3)": ("ROOTC", Fraction(3, 7), 3),
}


def _oracle_extend(children):
    return st.one_of(
        st.lists(children, min_size=2, max_size=3).map(lambda ts: ("+", ts)),
        st.lists(children, min_size=2, max_size=3).map(lambda fs: ("*", fs)),
        st.tuples(children, st.integers(1, 4)).map(lambda bn: ("^", *bn)),
    )


# polynomial trees: nested tuples over atom names and small rationals
ORACLE_TREES = st.recursive(
    st.one_of(st.sampled_from(ORACLE_ATOMS + tuple(ORACLE_ROOTS)),
              st.fractions(min_value=-5, max_value=5, max_denominator=4)),
    _oracle_extend, max_leaves=8)


def _fold(tree, leaf, plus, times, power, call=None):
    """Build a tree with the given constructors; ``call(name, arg)``
    builds the kernels ("ln", arg) etc. that other strategies add."""
    if not isinstance(tree, tuple):
        return leaf(tree)
    if tree[0] == "^":
        return power(_fold(tree[1], leaf, plus, times, power, call),
                     tree[2])
    if tree[0] not in ("+", "*"):
        return call(tree[0], _fold(tree[1], leaf, plus, times, power, call))
    parts = [_fold(c, leaf, plus, times, power, call) for c in tree[1]]
    return plus(*parts) if tree[0] == "+" else times(*parts)


def _expandable(e):
    """No sum is raised past POW_EXPAND_LIMIT (that stays an atom)."""
    if isinstance(e, Pow):
        return ((not isinstance(e.base, Sum) or e.exp <= POW_EXPAND_LIMIT)
                and _expandable(e.base))
    if isinstance(e, Sum):
        return all(map(_expandable, e.terms))
    if isinstance(e, Prod):
        return all(map(_expandable, e.factors))
    return True


@settings(max_examples=150, deadline=ORACLE_DEADLINE)
@given(ORACLE_TREES)
def test_expansion_matches_sympy(tree):
    sp = pytest.importorskip("sympy")
    e = _fold(tree, lambda v: parse(v) if isinstance(v, str) else num(v),
              add, mul, pow_)
    assume(_expandable(e))
    roots = list(ORACLE_ROOTS.values())
    names = {**{n: n for n in ORACLE_ATOMS},
             **{t: name for t, (name, _, _) in ORACLE_ROOTS.items()}}
    gens = [sp.Symbol(n) for n in ORACLE_ATOMS + tuple(r[0] for r in roots)]
    s = _fold(tree, lambda v: sp.Symbol(names[v]) if isinstance(v, str)
              else sp.Rational(v.numerator, v.denominator),
              sp.Add, sp.Mul, sp.Pow)
    atoms = [parse(n) for n in ORACLE_ATOMS]
    want = {}
    for exps, c in sp.Poly(s, *gens).as_dict().items():
        exps = list(exps)
        exps[ORACLE_ATOMS.index("eps")] %= 2
        c = Fraction(int(c.p), int(c.q))
        mono = [(a, n) for a, n in zip(atoms, exps) if n]
        for (_, value, degree), n in zip(roots, exps[len(atoms):]):
            whole, n = divmod(n, degree)
            c *= value ** whole
            if n:
                mono.append((num(value), Fraction(n, degree)))
        mono = tuple(sorted(mono))
        want[mono] = want.get(mono, 0) + c
    assert expand_monomials(e) == {m: c for m, c in want.items() if c}
    # the collected tree expands to the same polynomial
    assert expand_monomials(expand_poly(e).to_expr()) == expand_monomials(e)
    text = str(sp.expand(s)).replace("**", "^")
    for t, (name, _, _) in ORACLE_ROOTS.items():
        text = text.replace(name, f"({t})")
    expanded = parse(text)
    assert is_zero_symbolic(sub(e, expanded))
