"""Algebra layer: brackets, structure constants, adjoints, closure.

The bracket table below was computed by hand from the coefficient rule
[v,w]^k = v(w^k) - w(v^k) applied to the seven basis fields, and is
frozen here as the oracle the derived structure constants must match.
"""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import reference_generator
import reference_liealg
import reference_linalg as reference
from walkerkit import catalog
from walkerkit.expr import (
    ExprError, ONE, ZERO, ZERO_NUMERIC, ZERO_SYMBOLIC, ZeroResult, add,
    coord, eval_expr, free_atoms, is_zero, is_zero_symbolic, mul, neg, num,
    param, parse, partial, substitute,
)
from walkerkit import liealg as la


# hand oracle: {(j, k): {i: coefficient}} for j < k, 1-based, omitted = zero
HAND_TABLE = {
    (1, 3): {1: 1},
    (1, 4): {2: 1},
    (2, 5): {1: 1},
    (2, 6): {2: 1},
    (3, 4): {4: 1},
    (3, 5): {5: -1},
    (4, 5): {3: 1, 6: -1, 7: 2},
    (4, 6): {4: 1},
    (5, 6): {5: -1},
}


def hand_entry(j: int, k: int) -> dict:
    if j == k:
        return {}
    if j < k:
        return HAND_TABLE.get((j, k), {})
    return {i: -v for i, v in HAND_TABLE.get((k, j), {}).items()}


def test_basis_shape():
    fields = la.basis()
    assert len(fields) == 7
    for f in fields:
        assert len(f.coeffs) == 5


def test_all_49_bracket_pairs_match_hand_table():
    for j in range(1, 8):
        for k in range(1, 8):
            got = la.decompose(la.bracket(la.BASIS[j - 1], la.BASIS[k - 1]))
            want = hand_entry(j, k)
            for i in range(1, 8):
                assert got[i - 1] == Fraction(want.get(i, 0)), (j, k, i)


def test_bracket_spot_values():
    z = la.decompose(la.bracket(la.BASIS[0], la.BASIS[6]))
    assert all(v == 0 for v in z)
    e2 = la.decompose(la.bracket(la.BASIS[0], la.BASIS[3]))
    assert e2 == [0, 1, 0, 0, 0, 0, 0]
    x4 = la.decompose(la.bracket(la.BASIS[2], la.BASIS[3]))
    assert x4 == [0, 0, 0, 1, 0, 0, 0]


def test_basis_is_flattened_once(monkeypatch):
    calls = []
    real = la._field

    def counting(v):
        calls.append(v)
        return real(v)

    monkeypatch.setattr(la, "_field", counting)
    la._basis_fields.cache_clear()
    table = la.structure_constants()
    # the seven basis fields once; the 49 brackets are taken on their
    # jet polynomials, so no bracket is flattened from a tree
    assert calls == list(la.BASIS)
    assert table.nonzero == la.sc().nonzero


def test_structure_constants_equal_the_tree_built_table():
    assert la.sc().nonzero == reference_liealg.structure_constants().nonzero
    b = la.BASIS
    for j in range(la.DIM):
        for k in range(la.DIM):
            assert la.bracket(b[j], b[k]) == \
                reference_liealg.bracket(b[j], b[k]), (j, k)


def test_a_bracket_with_x_dx_leaves_the_span():
    # [X5, x*d/dx] = t*d/dx and x*d/dx share monomials with the basis
    # but are no combination of it; [x*d/dx, x^2*d/dx] = x^2*d/dx holds
    # no basis monomial, so only its residual shows that it leaves
    x = la.BASE_ATOMS[0]
    x_dx = la.VectorField((x,) + (ZERO,) * 4)
    x2_dx = la.VectorField((mul(x, x),) + (ZERO,) * 4)
    assert la.bracket(la.BASIS[4], x_dx) == \
        la.VectorField((coord("t"),) + (ZERO,) * 4)
    assert la.bracket(x_dx, x2_dx) == x2_dx
    for field in (la.bracket(la.BASIS[4], x_dx), x_dx,
                  la.bracket(x_dx, x2_dx)):
        with pytest.raises(la.NotClosed):
            la.decompose(field)
        with pytest.raises(la.NotClosed):
            reference_liealg.decompose_all([field])
    assert la.decompose(la.bracket(la.BASIS[0], x_dx)) == \
        [1, 0, 0, 0, 0, 0, 0]


@pytest.mark.parametrize("text", ["exp(x)", "ln(a)", "alpha*x", "x^(1/2)",
                                  "1/t", "y", "a_1"])
def test_a_field_that_is_not_polynomial_fails_cleanly(text):
    f = {name: (1, 2) for name in "abc"}
    field = la.VectorField((parse(text, functions=f),) + (ZERO,) * 4)
    with pytest.raises(ExprError):
        la.bracket(la.BASIS[0], field)
    with pytest.raises(ExprError):
        la.bracket(field, la.BASIS[2])
    with pytest.raises(ExprError):
        la.decompose(field)


def test_structure_constants_build_no_tree(monkeypatch):
    # the brackets are taken on jet polynomials: no partial, and no
    # expand_monomials or expand_poly
    from walkerkit.expr import expand, nodes

    def forbidden(*args, **kw):
        raise AssertionError("called")

    for module, name in ((nodes, "partial"), (la, "partial"),
                         (expand, "expand_monomials"),
                         (expand, "expand_poly")):
        monkeypatch.setattr(module, name, forbidden)
    la._basis_fields.cache_clear()
    table = la.structure_constants()
    monkeypatch.undo()
    assert table.nonzero == la.sc().nonzero


def test_structure_constants_antisymmetry():
    assert la.sc().antisymmetric()


def test_structure_constants_jacobi():
    assert la.sc().jacobi_holds()


def test_structure_constant_single_entry():
    # [X1, X4] = X2 and nothing else, 0-based in the sparse table
    assert la.sc().nonzero[(0, 3)] == {1: 1}


def _with_entries(changes):
    """The algebra's table with the given (j, k) rows replaced."""
    return la.StructureConstants({**la.sc().nonzero, **changes})


def test_doubled_bracket_breaks_jacobi_not_antisymmetry():
    # [X3, X4] = X4 doubled in both orders
    table = _with_entries({(2, 3): {3: 2}, (3, 2): {3: -2}})
    assert table.antisymmetric()
    assert not table.jacobi_holds()


def test_one_sided_change_breaks_antisymmetry():
    assert not _with_entries({(2, 3): {3: 2}}).antisymmetric()


def test_bracket_coeffs_agrees_with_field_bracket():
    rng = random.Random(7)
    for _ in range(5):
        u = tuple(num(Fraction(rng.randint(-3, 3))) for _ in range(7))
        v = tuple(num(Fraction(rng.randint(-3, 3))) for _ in range(7))
        via_sc = la.sc().bracket_coeffs(u, v)
        via_fields = la.decompose(
            la.bracket(la.coeffs_to_field(u), la.coeffs_to_field(v)))
        for a, b in zip(via_sc, via_fields):
            assert is_zero_symbolic(add(a, neg(num(b))))


def test_parse_generator_basic():
    assert la.parse_generator("X1") == tuple(
        num(1) if i == 0 else ZERO for i in range(7))
    got = la.parse_generator("X3 + 2*X6 - X7")
    assert got[2] == num(1) and got[5] == num(2) and got[6] == num(-1)
    got = la.parse_generator("eps*X2 + X5")
    assert got[1] == param("eps") and got[4] == num(1)


def test_parse_generator_rejects_nonlinear():
    with pytest.raises(ExprError):
        la.parse_generator("X1*X2")
    with pytest.raises(ExprError):
        la.parse_generator("X1 + 3")


def test_parse_generator_rejects_a_coordinate_coefficient():
    # closure would take x as a constant, but the field bracket
    # [X1, x*X2] is X2, which the span of X1 and x*X2 does not hold
    x_x2 = la.BASIS[1].scale(la.BASE_ATOMS[0])
    assert la.bracket(la.BASIS[0], x_x2) == la.BASIS[1]
    for text in ("x*X2", "X1 + t*X3", "X4 - (y + 1)*X5", "z^2*X7"):
        with pytest.raises(ExprError, match="coordinate"):
            la.parse_generator(text)


def test_parse_generator_keeps_vectors_but_not_errors():
    assert la.parse_generator("X3 + eps*X4") is la.parse_generator(
        "X3 + eps*X4")
    for _ in range(2):
        with pytest.raises(ExprError):
            la.parse_generator("X1*X2 + X7")


def test_render_generator_round_trip():
    for text in ("X1", "X3 + 2*X6 - X7", "alpha*X5 + X4"):
        coeffs = la.parse_generator(text)
        again = la.parse_generator(la.render_generator(coeffs))
        assert again == coeffs


# sha256 over "<text>\t<render_generator(parse_generator(text))>" lines,
# one per distinct catalog generator text in sorted order, computed with
# the reference parse, which derives every generator and expands every span
CATALOG_GENERATORS_SHA256 = (
    "931167ef699cb43af5a443b5a70407f961f5a9e308b1571cc431cbaaa0ba9c76")

BAD_GENERATOR_MESSAGES = {
    "X1*X2": "'X1*X2' is not linear in the generators",
    "X1^2": "'X1^2' is not linear in the generators",
    "x*X1": "'x*X1' has a coordinate in the coefficient of X1; "
            "coefficients are constants",
    "t*X3 + X4": "'t*X3 + X4' has a coordinate in the coefficient of X3; "
                 "coefficients are constants",
    "X1 + 3": "'X1 + 3' has terms outside the generator span",
    "X1 + t": "'X1 + t' has terms outside the generator span",
    "alpha": "'alpha' has terms outside the generator span",
    "exp(X1)": "'exp(X1)' is not linear in the generators",
    "X2/X3": "'X2/X3' is not linear in the generators",
    "sqrt(X4)": "'sqrt(X4)' is not linear in the generators",
    "X3 + X7^2": "'X3 + X7^2' is not linear in the generators",
    # ln of an exact constant at or below zero fails where it is parsed
    "X1 + ln(0)": "logarithm of the non-positive constant 0 at offset 5: "
                  "...'X1 + ln(0)'...",
    "ln(0)": "logarithm of the non-positive constant 0 at offset 0: "
             "...'ln(0)'...",
}


def test_catalog_generators_parse_as_before():
    texts = sorted({g for e in catalog.builtin() for g in e.generators})
    assert len(texts) == 47
    for text in texts:
        assert la.parse_generator(text) == \
            reference_generator.parse_generator(text), text
    lines = "\n".join(f"{t}\t{la.render_generator(la.parse_generator(t))}"
                      for t in texts)
    assert hashlib.sha256(lines.encode()).hexdigest() == \
        CATALOG_GENERATORS_SHA256


@pytest.mark.parametrize("text", sorted(BAD_GENERATOR_MESSAGES))
def test_bad_generator_messages_are_pinned(text):
    with pytest.raises(ExprError) as err:
        la.parse_generator(text)
    assert str(err.value) == BAD_GENERATOR_MESSAGES[text]


def test_parse_generator_derives_only_the_named_generators(monkeypatch):
    calls = {"partial": 0, "zero test": 0}
    real_partial, real_zero = la.partial, la.is_zero_symbolic

    def counting_partial(e, atom):
        calls["partial"] += 1
        return real_partial(e, atom)

    def counting_zero(e):
        calls["zero test"] += 1
        return real_zero(e)

    monkeypatch.setattr(la, "partial", counting_partial)
    monkeypatch.setattr(la, "is_zero_symbolic", counting_zero)
    la.parse_generator.cache_clear()
    la.parse_generator("X3 + alpha*X7")
    # the rebuilt combination equals the text, so nothing is expanded
    assert calls == {"partial": 2, "zero test": 0}
    la.parse_generator.cache_clear()
    # "X1 + X1" parses to 2*X1, which the rebuild matches; "X1 - X1"
    # parses to 0 and names no generator
    assert la.parse_generator("X1 + X1")[0] == num(2)
    assert la.parse_generator("X1 - X1") == (ZERO,) * 7
    assert calls == {"partial": 3, "zero test": 0}


_COEFFS = st.sampled_from([
    "2", "-3/4", "0", "1", "alpha", "beta", "c1", "eps", "epsp", "epz",
    "(alpha + 1)", "(eps - beta)", "alpha^2", "(beta + 2)^(1/3)",
    "sqrt(c2)", "2^(1/2)", "exp(alpha)", "alpha*beta", "1/c1",
    "(alpha + beta)^2", "ln(2)", "atan(c1)",
])
_GEN = st.integers(1, 7).map(lambda i: f"X{i}")


@st.composite
def _good_terms(draw):
    cf, g = draw(_COEFFS), draw(_GEN)
    form = draw(st.sampled_from(["{c}*{g}", "{g}*{c}", "{g}",
                                 "({c})*{g}", "{g}/{c}"]))
    return form.format(c=cf, g=g)


@st.composite
def _bad_terms(draw):
    g, h, cf = draw(_GEN), draw(_GEN), draw(_COEFFS)
    return draw(st.sampled_from([
        f"{g}*{h}", f"{g}^2", f"x*{g}", f"t*{g}", f"(x + {cf})*{g}",
        cf, "3", "ln(0)", f"exp({g})", f"{cf}*{g}^2", f"ln({g})",
        f"{g}^{cf}",
    ]))


@st.composite
def _generator_texts(draw):
    terms = draw(st.lists(st.one_of(_good_terms(), _good_terms(),
                                    _bad_terms()), min_size=1, max_size=5))
    signs = draw(st.lists(st.sampled_from([" + ", " - "]),
                          min_size=len(terms), max_size=len(terms)))
    text = terms[0]
    for sign, term in zip(signs[1:], terms[1:]):
        text += sign + term
    return text


def _names_a_generator(text):
    e = parse(text, functions={}, extra_params=set(la.GENERATOR_NAMES))
    return not free_atoms(e).isdisjoint(map(param, la.GENERATOR_NAMES))


def _outcome(fn, text):
    try:
        return fn(text)
    except ExprError as err:
        return f"ExprError: {err}"


@settings(max_examples=300, deadline=None)
@given(_generator_texts())
def test_parse_generator_matches_the_reference(text):
    got = _outcome(la.parse_generator, text)
    want = _outcome(reference_generator.parse_generator, text)
    if got != want and not _names_a_generator(text):
        # a text that names no generator is checked by the span test
        # alone; the reference took derivatives first, which can raise
        assert got == f"ExprError: {text!r} has terms outside the " \
            "generator span", (text, want)
        return
    assert got == want, text


def test_adjoint_identity_at_zero():
    identity = [[ONE if a == b else ZERO for b in range(7)]
                for a in range(7)]
    for i in range(1, 8):
        assert la.adjoint_matrix(i, 0) == identity, i


def test_adjoint_matrix_rejects_a_float_parameter():
    with pytest.raises(ExprError):
        la.adjoint_matrix(3, 0.5)


def test_adjoint_shear_example():
    s = param("s")
    mat = la.adjoint_matrix(1, s)
    y = la.apply_matrix(mat, la.parse_generator("X3"))
    assert y[0] == s
    assert y[2] == num(1)
    assert all(y[k] == ZERO for k in (1, 3, 4, 5, 6))


def test_adjoint_kill_shear_value():
    # the normalization value that removes the X5 direction, exactly
    coeffs = la.parse_generator("X3 + b5*X5 + b6*X6 + b7*X7")
    s = parse("b5/(-1 + b6)", functions={})
    moved = la.apply_matrix(la.adjoint_matrix(5, s), coeffs)
    res = is_zero(moved[4])
    assert res.verdict == ZERO_SYMBOLIC


def test_adjoint_group_law_symbolic_nilpotent():
    s, sp = param("s"), param("sp")
    for i in (1, 2, 4, 5):
        left = la.adjoint_matrix(i, s)
        right = la.adjoint_matrix(i, sp)
        prod = [[add(*[mul(left[a][m], right[m][b]) for m in range(7)])
                 for b in range(7)] for a in range(7)]
        both = la.adjoint_matrix(i, add(s, sp))
        for a in range(7):
            for b in range(7):
                assert is_zero_symbolic(add(prod[a][b], neg(both[a][b])))


def test_adjoint_derivative_law_is_plus_ad():
    s = param("s")
    for i in range(1, 8):
        mat = la.adjoint_matrix(i, s)
        ad = la.sc().ad_matrix(i)
        for a in range(7):
            for b in range(7):
                d = substitute(partial(mat[a][b], s), {"s": num(0)})
                diffr = add(d, neg(num(la.ADJOINT_SIGN * ad[a][b])))
                assert is_zero(diffr), (i, a, b)


def test_adjoint_flow_certifies_every_generator(monkeypatch):
    from test_jets import _count_calls
    from walkerkit.expr import numeric
    evaluated = _count_calls(monkeypatch, numeric.eval_expr)
    assert all(la.adjoint_flow_holds(i) for i in range(1, 8))
    assert evaluated == []


def test_adjoint_flow_fails_with_the_other_sign(monkeypatch):
    monkeypatch.setattr(la, "ADJOINT_SIGN", -1)
    held = [la.adjoint_flow_holds(i) for i in range(1, 8)]
    # only the central X7 has ad = 0, where the sign cannot show
    assert held == [False] * 6 + [True]


def test_closure_single_generator():
    rep = la.subalgebra_closed([la.parse_generator("X4")])
    assert rep.closed


@pytest.mark.parametrize("text", ["0*X1", "X1 - X1"])
def test_closure_fails_a_zero_generator(text):
    # a zero generator spans no direction, so no one-dimensional algebra
    rep = la.subalgebra_closed([la.parse_generator(text)])
    assert not rep.closed
    assert [c.reason for c in rep.cases] == ["generator is zero, no pivot"]


def test_closure_splits_epz_in_a_single_generator():
    rep = la.subalgebra_closed([la.parse_generator("epz*X1")])
    assert [c.assignment for c in rep.cases] == [
        {"epz": -1}, {"epz": 0}, {"epz": 1}]
    assert [c.closed for c in rep.cases] == [True, False, True]
    assert rep.cases[1].reason == "generator is zero, no pivot"
    assert not rep.closed
    rep = la.subalgebra_closed([la.parse_generator("X1 + epz*X2")])
    assert len(rep.cases) == 3 and rep.closed


def test_vector_field_is_an_immutable_five_vector():
    v = la.BASIS[3]
    with pytest.raises(AttributeError):
        v.coeffs = (ZERO,) * 5
    with pytest.raises(ExprError):
        la.VectorField((ZERO,) * 4)
    copy = la.VectorField(tuple(v.coeffs))
    assert copy == v and hash(copy) == hash(v)


def test_closure_two_generator_with_sign_squares():
    g1 = la.parse_generator("X3 + eps*X4")
    g2 = la.parse_generator("eps*X5 + X6 - 2*X7")
    rep = la.subalgebra_closed([g1, g2])
    assert rep.closed
    case = rep.cases[0]
    lam = eval_expr(parse(case.lam, functions={}), {"eps": 1.0})
    mu = eval_expr(parse(case.mu, functions={}), {"eps": 1.0})
    assert abs(lam - 1.0) < 1e-12
    assert abs(mu + 1.0) < 1e-12


def test_closure_with_free_parameters():
    g1 = la.parse_generator("X1")
    g2 = la.parse_generator("X3 + alpha*X6 + beta*X7")
    rep = la.subalgebra_closed([g1, g2])
    assert rep.closed
    lam = eval_expr(parse(rep.cases[0].lam, functions={}),
                    {"alpha": 0.3, "beta": 1.7})
    assert abs(lam - 1.0) < 1e-12


def test_closure_ternary_split():
    g1 = la.parse_generator("X1")
    g2 = la.parse_generator("X3 + epz*X5 + X6 + alpha*X7")
    rep = la.subalgebra_closed([g1, g2])
    assert len(rep.cases) == 3
    assert {tuple(c.assignment.items()) for c in rep.cases} == {
        (("epz", -1),), (("epz", 0),), (("epz", 1),)}
    assert rep.closed


def test_closure_substitutes_only_to_split_epz(monkeypatch):
    calls = []
    real = la.substitute

    def counting(e, values):
        calls.append(values)
        return real(e, values)

    monkeypatch.setattr(la, "substitute", counting)
    rep = la.subalgebra_closed([la.parse_generator("X1"),
                                la.parse_generator("X7")])
    assert rep.closed and len(rep.cases) == 1
    assert calls == []
    rep = la.subalgebra_closed([la.parse_generator("X1"),
                                la.parse_generator("X3 + epz*X5 + X6")])
    assert rep.closed and len(rep.cases) == 3
    # each of the three values, into the seven coefficients of each
    # generator
    assert len(calls) == 3 * 2 * la.DIM


def test_not_closed_pair():
    rep = la.subalgebra_closed([la.parse_generator("X1"),
                                la.parse_generator("X4")])
    assert not rep.closed
    assert rep.cases[0].reason == "bracket leaves the span"


@pytest.mark.parametrize("texts", [("X1", "X1"), ("X1", "2*X1"),
                                   ("X3 + alpha*X6", "2*X3 + 2*alpha*X6"),
                                   ("X1", "0")])
def test_dependent_pair_is_not_closed(texts):
    # the bracket of dependent generators vanishes, but their span is not
    # two-dimensional
    rep = la.subalgebra_closed([la.parse_generator(t) for t in texts])
    assert not rep.closed
    assert [c.reason for c in rep.cases] == [
        "generators not independent, no pivot pair"]


def test_numeric_only_residual_fails_the_case(monkeypatch):
    real = la.is_zero

    def numeric_only(e, **kwargs):
        res = real(e, **kwargs)
        if res.verdict == ZERO_SYMBOLIC:
            return ZeroResult(ZERO_NUMERIC, res.max_residual,
                              res.witness, res.samples)
        return res

    monkeypatch.setattr(la, "is_zero", numeric_only)
    rep = la.subalgebra_closed([la.parse_generator("X1"),
                                la.parse_generator("X3")])
    assert not rep.closed
    assert rep.cases[0].reason == "numeric only"


def test_closure_tests_one_minor_and_the_live_columns(monkeypatch):
    tested = []
    real = la.is_zero

    def counting(e, **kwargs):
        tested.append(e)
        return real(e, **kwargs)

    monkeypatch.setattr(la, "is_zero", counting)
    rep = la.subalgebra_closed([la.parse_generator("X1"),
                                la.parse_generator("X7")])
    # a vanishing bracket gets the zero witness from Cramer's rule
    assert rep.closed
    assert (rep.cases[0].lam, rep.cases[0].mu) == ("0", "0")
    # the minor on columns X1, X7, then one residual for each of them;
    # the five columns where both generators and the bracket are ZERO
    # get none
    assert tested == [ONE, ZERO, ZERO]


def test_closure_invariant_under_basis_change():
    rng = random.Random(3)
    g1 = la.parse_generator("X5")
    g2 = la.parse_generator("X1 + alpha*X6 + beta*X7")
    assert la.subalgebra_closed([g1, g2]).closed
    for _ in range(4):
        while True:
            m = [[Fraction(rng.randint(-2, 2)) for _ in range(2)]
                 for _ in range(2)]
            if m[0][0] * m[1][1] - m[0][1] * m[1][0] != 0:
                break
        h1 = tuple(add(mul(num(m[0][0]), a), mul(num(m[0][1]), b))
                   for a, b in zip(g1, g2))
        h2 = tuple(add(mul(num(m[1][0]), a), mul(num(m[1][1]), b))
                   for a, b in zip(g1, g2))
        assert la.subalgebra_closed([h1, h2]).closed


def test_rref_inconsistent_system_has_no_solution():
    assert la.solve_many([[1, 1], [2, 2]], [[1], [3]]) == [None]


def test_rref_free_columns_come_back_zero():
    # x0 + x2 = 2 and x1 = 3; column 2 is free, the third row redundant
    rows = [[0, 2, 0], [1, 0, 1], [2, 0, 2]]
    assert la.solve_many(rows, [[6], [2], [4]]) == [[2, 3, 0]]


def test_solve_many_marks_each_inconsistent_column():
    # rank 1: the first right-hand side leaves the column space
    assert la.solve_many([[1, 1], [2, 2]], [[1, 2], [3, 4]]) == \
        [None, [2, 0]]


_ENTRY = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def _matrix(draw, nrow, ncol):
    return [[draw(_ENTRY) for _ in range(ncol)] for _ in range(nrow)]


@st.composite
def linear_systems(draw):
    """A = L R of at most the drawn rank, and right-hand sides that are
    either A x (consistent) or drawn freely (often inconsistent when A is
    rank-deficient)."""
    nrow, ncol = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    rank = draw(st.integers(0, min(nrow, ncol)))
    left, right = _matrix(draw, nrow, rank), _matrix(draw, rank, ncol)
    rows = [[sum((lv * right[t][j] for t, lv in enumerate(lr)), Fraction(0))
             for j in range(ncol)] for lr in left]
    cols = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            x = [draw(_ENTRY) for _ in range(ncol)]
            cols.append([sum(a * v for a, v in zip(r, x)) for r in rows])
        else:
            cols.append([draw(_ENTRY) for _ in range(nrow)])
    return rows, cols


@settings(max_examples=300, deadline=None)
@given(linear_systems())
def test_solve_many_matches_column_by_column_reference(system):
    rows, cols = system
    rhs_rows = [list(r) for r in zip(*cols)]
    assert la.solve_many(rows, rhs_rows) == \
        [reference.solve_exact(rows, col) for col in cols]


# Entries of the determinant oracle: mostly zero, so zero rows and
# columns are common, and otherwise small expressions of every kind.
_DET_TEXTS = ("0",) * 6 + ("1", "-2", "1/3", "x", "t", "a", "x*t - 1",
                           "exp(t)", "b + c")


@st.composite
def sparse_matrices(draw):
    n = draw(st.integers(1, 5))
    return [[parse(draw(st.sampled_from(_DET_TEXTS))) for _ in range(n)]
            for _ in range(n)]


@settings(max_examples=150, deadline=None)
@given(sparse_matrices())
def test_det_matches_full_laplace_expansion(m):
    assert la.det(m) == reference.laplace_det(m)


def test_det_matches_laplace_on_zero_rows_and_columns():
    def matrix(*rows):
        return [[parse(e) for e in row.split(",")] for row in rows]

    cases = {
        "zero first row": matrix("0,0,0", "x,1,a", "t,2,b"),
        "zero middle row": matrix("x,1,a", "0,0,0", "t,2,b"),
        "zero column": matrix("x,0,a,1", "t,0,b,2", "c,0,1,x", "1,0,t,a"),
        "all zero": matrix("0,0,0,0", "0,0,0,0", "0,0,0,0", "0,0,0,0"),
    }
    for name, m in cases.items():
        assert la.det(m) == reference.laplace_det(m) == ZERO, name
    # zeros in the first row, a nonzero determinant
    m = matrix("0,x,0", "1,t,a", "b,0,2")
    assert la.det(m) == reference.laplace_det(m)
    assert is_zero_symbolic(add(la.det(m), neg(parse("x*a*b - 2*x"))))


def test_decompose_all_raises_when_one_field_leaves_the_span():
    b = la.BASIS
    valid = [la.bracket(b[0], b[2]), la.bracket(b[3], b[4])]
    x_dx = la.VectorField((la.BASE_ATOMS[0],) + (ZERO,) * 4)
    assert reference_liealg.decompose_all(valid) == \
        [la.decompose(v) for v in valid]
    fields = [la._field(v)[0] for v in (valid[0], x_dx, valid[1])]
    with pytest.raises(la.NotClosed):
        la._coordinates(fields)
    with pytest.raises(la.NotClosed):
        reference_liealg.decompose_all([valid[0], x_dx, valid[1]])


def test_structure_constants_eliminate_once(monkeypatch):
    calls = []
    real = la.rref

    def counting(m, ncol):
        calls.append(ncol)
        return real(m, ncol)

    monkeypatch.setattr(la, "rref", counting)
    table = la.structure_constants()
    assert calls == [la.DIM]
    assert table.nonzero == la.sc().nonzero


def test_replays_all_cases():
    cases = la.proof_case_replays()
    assert [c.case_id for c in cases] == list("abcdefghijk")
    for c in cases:
        assert c.ok, (c.case_id, c.notes, c.closed)


def test_replay_shear_kill_is_exact():
    cases = {c.case_id: c for c in la.proof_case_replays()}
    f = cases["f"]
    assert f.steps[0].verdict == ZERO_SYMBOLIC
    assert cases["d"].steps[0].verdict == ZERO_SYMBOLIC
    assert cases["i"].steps[0].verdict == ZERO_SYMBOLIC
    assert cases["k"].steps[1].verdict == ZERO_SYMBOLIC


def test_replay_open_case_not_closed():
    cases = {c.case_id: c for c in la.proof_case_replays()}
    assert cases["e"].closed is False
    # case e keeps b4..b7, so [X1, Y] = b4*X2 leaves span(X1, Y)
    y = la.parse_generator("b4*X4 + b5*X5 + b6*X6 + b7*X7")
    w = la.sc().bracket_coeffs(la.unit(0), y)
    assert la.render_generator(w) == "X2*b4"


def test_replay_sign_normalizations_numeric():
    cases = {c.case_id: c for c in la.proof_case_replays()}
    for cid in ("g", "j"):
        last = cases[cid].steps[-1]
        assert last.verdict == ZERO_SYMBOLIC


def test_replay_step_passes_only_on_exact_cancellation():
    for verdict, ok in ((ZERO_SYMBOLIC, True), (ZERO_NUMERIC, False)):
        step = la.ReplayStep(6, "sign normalization", 5, verdict)
        assert la.ReplayCase("x", [step], True, closed=True).ok is ok


def _zero_test_calls(monkeypatch, run):
    """Calls of ``expand_poly`` and ``probe_zero`` during ``run()``."""
    from walkerkit.expr import expand, numeric

    calls = []
    for module, name in ((expand, "expand_poly"), (numeric, "probe_zero")):
        real = getattr(module, name)

        def counting(*args, real=real, name=name, **kw):
            calls.append(name)
            return real(*args, **kw)

        monkeypatch.setattr(module, name, counting)
    out = run()
    monkeypatch.undo()
    return out, calls


@pytest.mark.parametrize("text", ["alpha", "2*alpha*beta^(-1)",
                                  "-alpha^2/3", "c1^(1/2)*beta"])
def test_parameter_monomial_minor_needs_no_zero_test(monkeypatch, text):
    # a rational times powers of non-sign, non-ternary parameters is
    # nonzero off their zero set; expanding and probing it cost about
    # 40 us for each alpha*X1 + beta*X7 closure
    minor = parse(text)
    got, calls = _zero_test_calls(
        monkeypatch, lambda: la.exact_rank([[minor, ZERO]]))
    assert got == (1, (0,), (0,)) and calls == []
    g = la.parse_generator("alpha*X1 + beta*X7")
    got, calls = _zero_test_calls(monkeypatch, lambda: la.exact_rank([g]))
    assert got == (1, (0,), (0,)) and calls == []


@pytest.mark.parametrize("text", ["eps*alpha", "epz", "alpha + beta",
                                  "alpha*x"])
def test_other_minors_take_the_zero_test(monkeypatch, text):
    # a sign or ternary symbol, a sum or a coordinate is not a parameter
    # monomial, so the zero test decides it as before
    minor = parse(text)
    _, calls = _zero_test_calls(
        monkeypatch, lambda: la.exact_rank([[minor]]))
    assert calls
