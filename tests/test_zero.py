"""Three-valued zero test: exact cancellations, numeric-only identities,
and nonzero witnesses. The rational shapes mirror what the solution
catalog feeds through the verifier."""

import math

import pytest

from walkerkit.expr import (
    NONZERO, ZERO_NUMERIC, ZERO_SYMBOLIC, EvalError, clear_denominators,
    expand_monomials, is_zero, is_zero_symbolic, parse,
)


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
    assert monos == []


def test_clear_denominators_flag():
    monos = expand_monomials(parse("1/(x + t)"))
    monos, cleared = clear_denominators(monos)
    assert cleared
    assert is_zero_symbolic(parse("x/(x + t) + t/(x + t) - 1"))


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
