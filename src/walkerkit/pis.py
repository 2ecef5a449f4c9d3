"""Partially invariant machinery: invariant sets, ansatz substitution,
characteristics, defect, reducibility.

Everything goes through the exact kernel and its three-valued zero
test. A rank is the size of the largest minor that tests nonzero
(``liealg.exact_rank``); every larger minor is then zero.
"""

from __future__ import annotations

from collections import namedtuple

from .expr import (
    ExprError, NONZERO, ZERO, add, diff, div, is_zero, mul, neg, partial,
    render, substitute, substitute_all,
)
from .liealg import BASE_ATOMS, coeffs_to_field, exact_rank
from .jets import PDESystem


class PISAnsatz(namedtuple("PISAnsatz", "bindings arbitrary",
                           defaults=((),))):
    """Dependent-coordinate bindings in terms of reduced functions; the
    names in ``arbitrary`` stay unconstrained."""

    __slots__ = ()


class SolutionTriple(namedtuple("SolutionTriple", "a b c params",
                                defaults=((),))):
    __slots__ = ()

    def bindings(self) -> dict:
        return {"a": self.a, "b": self.b, "c": self.c}


# --- invariants --------------------------------------------------------------

class InvariantReport(namedtuple(
        "InvariantReport", "annihilation jacobian_rank independent")):
    """annihilation: (generator index, member index, verdict) triples."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.independent and all(
            v != NONZERO for _, _, v in self.annihilation)


def invariant_check(gens: list, members: tuple,
                    seed: int = 0) -> InvariantReport:
    """Annihilation of every member by every generator, plus functional
    independence via the full Jacobian over (x, t, a, b, c)."""
    annihilation = []
    for gi, cv in enumerate(gens):
        fld = coeffs_to_field(cv)
        for mi, m in enumerate(members):
            res = is_zero(fld.apply(m), seed=seed)
            annihilation.append((gi, mi, res.verdict))
    jac = [[partial(m, u) for u in BASE_ATOMS] for m in members]
    rank = exact_rank(jac, seed)[0]
    independent = rank == len(members)
    return InvariantReport(annihilation, rank, independent)


def invariant_rank(members: tuple, seed: int = 0) -> tuple:
    """(rank of d(members)/d(a,b,c), defect 3 - rank)."""
    fiber = BASE_ATOMS[2:]
    jac = [[partial(m, u) for u in fiber] for m in members]
    rank = exact_rank(jac, seed)[0]
    return rank, len(fiber) - rank


# --- ansatz and reduced systems ----------------------------------------------

def ansatz_substitute(ansatz: PISAnsatz, sys: PDESystem) -> tuple:
    return substitute_all(sys.residuals, ansatz.bindings)


# --- characteristics, defect, reducibility ----------------------------------

def characteristic_matrix(gens: list, triple: SolutionTriple) -> list:
    """One row per generator: Q^alpha = phi^alpha - xi^x u^alpha_x
    - xi^t u^alpha_t with the solution substituted everywhere."""
    sol = triple.bindings()
    rows = []
    for cv in gens:
        fld = coeffs_to_field(cv)
        xi_x = substitute(fld.coeffs[0], sol)
        xi_t = substitute(fld.coeffs[1], sol)
        row = []
        for pos, name in enumerate(("a", "b", "c")):
            phi = substitute(fld.coeffs[2 + pos], sol)
            u = sol[name]
            row.append(add(phi, neg(mul(xi_x, diff(u, "x"))),
                           neg(mul(xi_t, diff(u, "t")))))
        rows.append(tuple(row))
    return rows


def defect(gens: list, triple: SolutionTriple, seed: int = 0) -> int:
    """Rank of the characteristic matrix on the solution, by minors."""
    return exact_rank(characteristic_matrix(gens, triple), seed)[0]


class ReducibilityReport(namedtuple("ReducibilityReport",
                                    "directions notes")):
    """directions: list of {"alpha": str, "beta": str}; notes: list of
    str."""

    __slots__ = ()


def reducibility_scan(gens: list, triple: SolutionTriple,
                      seed: int = 0) -> ReducibilityReport:
    """Directions alpha*g1 + beta*g2 whose characteristics all vanish on
    the solution. Empty set means no 1-parameter subgroup of the pair
    leaves the solution invariant; the full pencil is the one direction
    alpha = beta = "any"."""
    if len(gens) != 2:
        raise ExprError("reducibility scan expects a two-generator span")
    r1, r2 = characteristic_matrix(gens, triple)
    rank, pivot_row, pivot_col = exact_rank([r1, r2], seed)
    if rank == 0:
        return ReducibilityReport([{"alpha": "any", "beta": "any"}],
                                  ["solution invariant under the full span"])
    directions = []
    notes = []
    if pivot_row == (1,):
        # rank 1 with its witness in the second row: the first is zero
        directions.append({"alpha": "1", "beta": "0"})
        notes.append("first generator annihilates the solution")
    elif rank == 1:
        # the rows are proportional, r2 = -rho*r1; read rho at the pivot
        (col,) = pivot_col
        rho = neg(div(r2[col], r1[col]))
        if rho == ZERO:
            directions.append({"alpha": "0", "beta": "1"})
            notes.append("second generator annihilates the solution")
        elif (bool(is_zero(diff(rho, "x"), seed=seed))
              and bool(is_zero(diff(rho, "t"), seed=seed))):
            directions.append({"alpha": render(rho), "beta": "1"})
            notes.append("proportional characteristics with a "
                         "constant ratio")
    return ReducibilityReport(directions, notes)
