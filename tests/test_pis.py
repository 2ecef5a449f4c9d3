"""Invariant sets, ansatz reduction, characteristics and defect.

The six reduced equations and the four solution families below were
derived by hand with pencil and paper before the implementation existed;
the reduction test requires exact symbolic agreement with them.
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import reference_linalg as reference
from walkerkit import catalog
from walkerkit.expr import (
    NONZERO, ZERO_SYMBOLIC, add, exp_, is_zero, is_zero_symbolic, mul,
    num, parse, partial, render, sub, substitute,
)
from walkerkit.jets import system2
from walkerkit.liealg import BASE_ATOMS, det, exact_rank
from walkerkit.pis import (
    PISAnsatz, SolutionTriple, ansatz_substitute, characteristic_matrix,
    defect, invariant_check, invariant_rank, reducibility_scan,
)

E1 = (1, 0, 0, 0, 0, 0, 0)
E2 = (0, 1, 0, 0, 0, 0, 0)
E4 = (0, 0, 0, 1, 0, 0, 0)
E7 = (0, 0, 0, 0, 0, 0, 1)

RATIO_INVARIANTS = tuple(parse(s) for s in ("t", "b/a", "c/a"))

# Hand-derived reduction of the six second-order equations under
# b = a*f(t), c = a*g(t), a left free. Frozen before implementation.
REDUCED_ORACLE = (
    "a_11 - a_22*f - 2*a_2*f_2 - a*f_22",
    "a_12*f + a_1*f_2 + a_11*g",
    "a_12 + a_22*g + 2*a_2*g_2 + a*g_22",
    "a_2^2*f + a_2*a*f_2 - (a_2*g + a*g_2)^2 + a*a_12*g + a*a_22*f",
    "a_1*a_2*f - a_1*a_2*g^2 - 2*a*a_1*g*g_2 - a*a_12*g^2 - a*a_22*f*g"
    " - 2*a*a_2*f*g_2 - a^2*f*g_22",
    "a_1^2*f - 2*a*a_1*f*g_2 - a_1^2*g^2 + a*a_11*f + 3*a*a_1*g*f_2"
    " + a*a_12*f*g",
)

# Compatibility conditions forced on the free coefficient, plus the
# genericity inequations. Same hand derivation.
CONSISTENCY = (
    "a^2*f_22 + a*a_2*f_2 + a^2*g_2^2 - a_2^2*f + a_2^2*g^2"
    " + 2*a*a_2*g*g_2",
    "a_1",
    "a*a_22*f + a_2^2*f - 2*a*a_2*g*g_2 + a*a_2*f_2 - a^2*g_2^2"
    " - a_2^2*g^2",
    "a^2*f*g_22 - a*a_2*f_2*g + a^2*g*g_2^2 - a_2^2*f*g + a_2^2*g^3"
    " + 2*a*a_2*g_2*g^2 + 2*a*a_2*f*g_2",
)

INEQUATIONS = ("f", "g", "a", "f - g^2")

REDUCED_FAMILIES = [
    {"f": "c3*t + c4", "g": "c2", "a": "c1"},
    {"f": "(c1*c3^2*t + c5)/(c1*t + c2)",
     "g": "c3 + c1*c4/(c1*t + c2)",
     "a": "c1*t + c2"},
    {"f": "c5*(t + c2)/(ln(t + c2) - c3*c1)",
     "g": "c4/(ln(t + c2) - c3*c1)",
     "a": "-ln(t + c2)/c1 + c3"},
    {"f": "c6^2*(t + c2)/((c1*ln(t + c2) + c3*t + c4)*c3)",
     "g": "(c5 + c6*t)/(c1*ln(t + c2) + c3*t + c4)",
     "a": "c1*ln(t + c2) + c3*t + c4"},
]

FULL_TRIPLES = [
    SolutionTriple(parse("c1"), parse("c1*(c3*t + c4)"), parse("c1*c2"),
                   ("c1", "c2", "c3", "c4")),
    SolutionTriple(parse("c1*t + c2"), parse("c1*c3^2*t + c5"),
                   parse("c3*(c1*t + c2) + c1*c4"),
                   ("c1", "c2", "c3", "c4", "c5")),
    SolutionTriple(parse("-ln(t + c2)/c1 + c3"), parse("c5*(t + c2)"),
                   parse("c4"), ("c1", "c2", "c3", "c4", "c5")),
    SolutionTriple(parse("c1*ln(t + c2) + c3*t + c4"),
                   parse("c6^2*(t + c2)/c3"), parse("c5 + c6*t"),
                   ("c1", "c2", "c3", "c4", "c5", "c6")),
]


def parse_bindings(d):
    return {k: parse(v) for k, v in d.items()}


def test_invariants_annihilated_and_independent():
    rep = invariant_check([E1, E7], RATIO_INVARIANTS)
    assert rep.passed
    assert rep.jacobian_rank == 3
    assert all(v == ZERO_SYMBOLIC for _, _, v in rep.annihilation)


def test_non_invariant_detected():
    bad = tuple(parse(s) for s in ("t", "b/a", "c"))
    rep = invariant_check([E1, E7], bad)
    assert not rep.passed
    verdicts = {(g, m): v for g, m, v in rep.annihilation}
    assert verdicts[(1, 2)] == NONZERO


def test_invariant_rank_and_defect():
    rank, delta = invariant_rank(RATIO_INVARIANTS)
    assert rank == 2
    assert delta == 1


def test_ansatz_reduction_matches_hand_derivation():
    ansatz = PISAnsatz({"b": parse("a*f"), "c": parse("a*g")},
                       arbitrary=("a",))
    reduced = ansatz_substitute(ansatz, system2())
    assert len(reduced) == 6
    for got, want in zip(reduced, REDUCED_ORACLE):
        assert is_zero_symbolic(sub(got, parse(want))), render(got)


def _verdicts(exprs, bindings):
    return [is_zero(substitute(e, bindings), samples=100, tol=1e-9,
                    seed=42).verdict for e in exprs]


def test_all_reduced_families_verify():
    residuals = tuple(parse(s) for s in REDUCED_ORACLE + CONSISTENCY)
    ineq = tuple(parse(s) for s in INEQUATIONS)
    for n, d in enumerate(REDUCED_FAMILIES):
        bindings = parse_bindings(d)
        got = _verdicts(residuals, bindings)
        assert NONZERO not in got, n
        # polynomial and rational families must cancel exactly
        if n < 2:
            assert got == [ZERO_SYMBOLIC] * len(residuals), n
        assert _verdicts(ineq, bindings) == [NONZERO] * len(ineq), n


def test_full_triples_solve_second_order_system():
    sys2 = system2()
    for triple in FULL_TRIPLES:
        for res in sys2.residuals:
            val = is_zero(substitute(res, triple.bindings()),
                          samples=100, tol=1e-9, seed=42)
            assert bool(val), (triple.params, render(res))


def test_characteristic_rows_hand_values():
    triple = FULL_TRIPLES[1]
    rows = characteristic_matrix([E1, E7], triple)
    for e in rows[0]:
        assert is_zero_symbolic(e)
    for got, want in zip(rows[1], (triple.a, triple.b, triple.c)):
        assert is_zero_symbolic(sub(got, want))


def test_defect_is_one_for_each_family():
    for triple in FULL_TRIPLES:
        assert defect([E1, E7], triple) == 1


def test_defect_two_for_generic_pair():
    triple = SolutionTriple(parse("x*t"), parse("x^2"), parse("t^2"))
    assert defect([E1, E4], triple) == 2


def test_reducibility_first_direction_flagged():
    for triple in FULL_TRIPLES:
        rep = reducibility_scan([E1, E7], triple)
        assert rep.directions == [{"alpha": "1", "beta": "0"}]


def test_reducibility_generic_pair_empty():
    for gens, texts in (
            ([E1, E4], ("x*t", "x^2", "t^2")),
            # X1 and X2 give -t and -x in every column: rank 1, but the
            # ratio x/t of the characteristics is no constant
            ([E1, E2], ("x*t", "x*t", "x*t"))):
        triple = SolutionTriple(*map(parse, texts))
        rep = reducibility_scan(gens, triple)
        assert rep.directions == [] and rep.notes == []


def test_reducibility_reports_share_no_list():
    triple = SolutionTriple(parse("c1"), parse("c2"), parse("c3"))
    first, second = (reducibility_scan([E1, E2], triple) for _ in range(2))
    first.notes.append("changed")
    first.directions.clear()
    assert second.notes == ["solution invariant under the full span"]
    assert second.directions == [{"alpha": "any", "beta": "any"}]


def test_reducibility_full_pencil():
    triple = SolutionTriple(parse("c1"), parse("c2"), parse("c3"))
    rep = reducibility_scan([E1, E2], triple)
    assert rep.directions == [{"alpha": "any", "beta": "any"}]


def test_reducibility_mixed_direction():
    for gens, texts, direction, note in (
            ([E1, E2], ("(x - t)^2", "x - t", "x - t + 1"), ("1", "1"),
             "proportional characteristics with a constant ratio"),
            # X1 annihilates a solution free of x, X2 does not
            ([E2, E1], ("t", "t^2", "t + 1"), ("0", "1"),
             "second generator annihilates the solution")):
        triple = SolutionTriple(*map(parse, texts))
        rep = reducibility_scan(gens, triple)
        assert rep.directions == [dict(zip(("alpha", "beta"), direction))]
        assert rep.notes == [note]


def test_defect_rejects_one_generator_misuse():
    with pytest.raises(Exception):
        reducibility_scan([E1], FULL_TRIPLES[0])


def _catalog_rank_matrices():
    """Every invariant Jacobian and characteristic matrix in the catalog."""
    for entry in catalog.builtin():
        if entry.invariants:
            members = entry.invariant_set()
            for atoms in (BASE_ATOMS, BASE_ATOMS[2:]):
                yield [[partial(m, u) for u in atoms] for m in members]
        gens = list(entry.coeff_vectors())
        for triple in entry.triples():
            yield characteristic_matrix(gens, triple)


def test_every_minor_above_the_catalog_ranks_cancels_exactly():
    # rank r needs one r x r minor that tests nonzero and every larger
    # minor zero; here each larger minor cancels by exact expansion, so
    # the defect and the invariant ranks are certificates, not probes
    matrices = above = 0
    for rows in _catalog_rank_matrices():
        r = exact_rank(rows)[0]
        nrow, ncol = len(rows), len(rows[0])
        for k in range(r + 1, min(nrow, ncol) + 1):
            for ri in combinations(range(nrow), k):
                for ci in combinations(range(ncol), k):
                    minor = det([[rows[i][j] for j in ci] for i in ri])
                    assert is_zero_symbolic(minor), (r, ri, ci)
                    above += 1
        matrices += 1
    # 9 Jacobians each of 3x5 (rank 3) and 3x3 (rank 2), 9 two-row
    # characteristic matrices (rank 1) and 3 one-row ones (rank 0)
    assert (matrices, above) == (30, 45)


def test_exact_rank_of_a_symbolic_dependent_row():
    u = [parse(s) for s in ("x", "t^2", "a", "1", "exp(t)")]
    w = [parse(s) for s in ("1", "x*t", "b", "c", "0")]
    dep = [add(mul(exp_(parse("x")), p), mul(parse("t"), q))
           for p, q in zip(u, w)]
    assert exact_rank([u, w, dep])[0] == 2
    assert all(is_zero_symbolic(det([[r[j] for j in ci]
                                      for r in (u, w, dep)]))
               for ci in combinations(range(5), 3))
    # one perturbed entry makes the third row independent; the minors on
    # columns 0, 1, 2 and 0, 1, 3 still cancel, so the witness is the
    # third one tried
    bumped = dep[:4] + [add(dep[4], num(1))]
    assert exact_rank([u, w, bumped]) == (3, (0, 1, 2), (0, 1, 4))


@st.composite
def int_matrices(draw):
    nrow = draw(st.integers(1, 3))
    ncol = draw(st.integers(1, 5))
    # rows drawn from a smaller span are often dependent
    span = draw(st.integers(1, nrow))
    basis = [[draw(st.integers(-3, 3)) for _ in range(ncol)]
             for _ in range(span)]
    return [[sum(draw(st.integers(-2, 2)) * b[j] for b in basis)
             for j in range(ncol)] for _ in range(nrow)]


@settings(max_examples=200, deadline=None)
@given(int_matrices())
def test_exact_rank_matches_fraction_elimination(m):
    rows = [[num(v) for v in row] for row in m]
    want = len(reference.rref([list(map(Fraction, r)) for r in m],
                              len(m[0])))
    assert exact_rank(rows)[0] == want
