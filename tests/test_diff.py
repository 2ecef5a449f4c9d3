"""Derivative oracle: central finite differences on closed-form inputs.

The symbolic derivative of every closed form is evaluated at random
points and compared against a second-order difference quotient of the
original expression. Structural chain-rule facts for dependent-function
symbols are frozen by hand.
"""

import random

import pytest

from walkerkit.expr import (
    PLANE_DEPS, EvalGuard, add, coord, diff, eval_expr, free_atoms, funcsym,
    mul, num, parse, partial, sample_point, substitute, substitute_all,
)
from walkerkit.expr import nodes

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
