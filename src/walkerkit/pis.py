"""Partially invariant machinery: invariant sets, ansatz substitution,
reduced-system verification, characteristics, defect, reducibility.

Ranks are numeric at random points (20 samples, float elimination with a
relative pivot cutoff of 1e-8); everything else goes through the exact
kernel and its three-valued zero test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .expr import (
    Expr, ExprError, EvalGuard, NONZERO, add, compile_expr, coord, diff,
    div, free_atoms, is_zero, mul, neg, render, sample_point,
    substitute, substitute_all,
)
from .liealg import coeffs_to_field, rref
from .jets import PDESystem

RANK_SAMPLES = 20
RANK_CUTOFF = 1e-8
Q = 3  # number of dependent coordinates

_TOTAL_ATOMS = ("x", "t", "a", "b", "c")


@dataclass(frozen=True)
class InvariantSet:
    """Functions on the (x, t, a, b, c) total space."""

    members: tuple

    @property
    def xi_type(self) -> tuple:
        return tuple(m for m in self.members if self._independent_only(m))

    @property
    def mixed(self) -> tuple:
        return tuple(m for m in self.members
                     if not self._independent_only(m))

    @staticmethod
    def _independent_only(m: Expr) -> bool:
        from .expr import Coord
        return all(isinstance(a, Coord) for a in free_atoms(m))


@dataclass(frozen=True)
class PISAnsatz:
    """Dependent-coordinate bindings in terms of reduced functions; the
    names in ``arbitrary`` stay unconstrained."""

    bindings: dict
    arbitrary: tuple = ()


@dataclass(frozen=True)
class SolutionTriple:
    a: Expr
    b: Expr
    c: Expr
    params: tuple = ()

    def bindings(self) -> dict:
        return {"a": self.a, "b": self.b, "c": self.c}


# --- invariants --------------------------------------------------------------

@dataclass
class InvariantReport:
    annihilation: list  # (generator index, member index, verdict)
    jacobian_rank: int
    independent: bool

    @property
    def passed(self) -> bool:
        return self.independent and all(
            v != NONZERO for _, _, v in self.annihilation)


def _numeric_rank(rows, samples: int, cutoff: float, seed: int,
                  allow_variation: bool = False) -> int:
    """Rank of a matrix of Exprs at random points; must be stable.

    At each point the rank is the pivot count of float Gauss-Jordan
    elimination, with entries up to cutoff * (largest |entry|) as zero.
    """
    atoms = set()
    for row in rows:
        for e in row:
            atoms |= free_atoms(e)
    ncol = len(rows[0]) if rows else 0
    compiled = [[compile_expr(e) for e in row] for row in rows]
    rng = random.Random(seed)
    ranks = []
    tries = 0
    while len(ranks) < samples and tries < samples * 30:
        tries += 1
        point = sample_point(atoms, rng)
        try:
            m = [[f(point)[0] for f in row] for row in compiled]
        except EvalGuard:
            continue
        top = max((abs(v) for row in m for v in row), default=0.0)
        ranks.append(len(rref(m, ncol, cutoff * top)))
    if len(ranks) < samples:
        raise ExprError("rank sampling exhausted the retry budget")
    if allow_variation:
        return max(ranks)
    if len(set(ranks)) != 1:
        raise ExprError(f"rank unstable across samples: {sorted(set(ranks))}")
    return ranks[0]


def invariant_check(gens: list, inv: InvariantSet,
                    seed: int = 0) -> InvariantReport:
    """Annihilation of every member by every generator, plus functional
    independence via the full Jacobian over (x, t, a, b, c)."""
    annihilation = []
    for gi, cv in enumerate(gens):
        fld = coeffs_to_field(cv)
        for mi, m in enumerate(inv.members):
            res = is_zero(fld.apply(m), seed=seed)
            annihilation.append((gi, mi, res.verdict))
    jac = [[_formal(m, n) for n in _TOTAL_ATOMS] for m in inv.members]
    rank = _numeric_rank(jac, RANK_SAMPLES, RANK_CUTOFF, seed)
    independent = rank == len(inv.members)
    return InvariantReport(annihilation, rank, independent)


def _formal(m: Expr, name: str) -> Expr:
    from .expr import funcsym, partial, PLANE_DEPS
    if name in ("x", "t"):
        return partial(m, coord(name))
    return partial(m, funcsym(name, (), PLANE_DEPS))


def invariant_rank(inv: InvariantSet, samples: int = RANK_SAMPLES,
                   cutoff: float = RANK_CUTOFF, seed: int = 0) -> tuple:
    """(rank of d(members)/d(a,b,c), defect q - rank)."""
    jac = [[_formal(m, n) for n in ("a", "b", "c")] for m in inv.members]
    rank = _numeric_rank(jac, samples, cutoff, seed)
    return rank, Q - rank


# --- ansatz and reduced systems ----------------------------------------------

def ansatz_substitute(ansatz: PISAnsatz, sys: PDESystem) -> tuple:
    return substitute_all(sys.residuals, ansatz.bindings)


@dataclass
class FamilyVerdict:
    index: int
    residuals: list       # verdict strings, reduced system then extras
    inequations: list     # verdict strings, expected nonzero
    passed: bool


def verify_reduced_solutions(reduced: tuple, consistency: tuple,
                             inequations: tuple, families: list,
                             samples: int = 100, tol: float = 1e-9,
                             seed: int = 42) -> list:
    """Substitute each candidate family into the reduced equations and
    the consistency conditions; inequations must stay nonzero."""
    out = []
    for idx, bindings in enumerate(families, start=1):
        passed = True
        res_verdicts = []
        for r in tuple(reduced) + tuple(consistency):
            res = is_zero(substitute(r, bindings), samples=samples,
                          tol=tol, seed=seed)
            res_verdicts.append(res.verdict)
            if res.verdict == NONZERO:
                passed = False
        ineq_verdicts = []
        for q in inequations:
            res = is_zero(substitute(q, bindings), samples=samples,
                          tol=tol, seed=seed)
            ineq_verdicts.append(res.verdict)
            if res.verdict != NONZERO:
                passed = False
        out.append(FamilyVerdict(idx, res_verdicts, ineq_verdicts, passed))
    return out


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


def defect(gens: list, triple: SolutionTriple,
           samples: int = RANK_SAMPLES, cutoff: float = RANK_CUTOFF,
           seed: int = 0) -> int:
    """Numeric rank of the characteristic matrix on the solution."""
    rows = characteristic_matrix(gens, triple)
    d = _numeric_rank(rows, samples, cutoff, seed)
    r = len(gens)
    if not 0 <= d <= min(r, Q):
        raise ExprError(f"defect {d} violates the bound 0..min({r},{Q})")
    return d


@dataclass
class ReducibilityReport:
    directions: list      # {"alpha": str, "beta": str}
    full_pencil: bool
    non_reducible: bool
    notes: list = field(default_factory=list)


def reducibility_scan(gens: list, triple: SolutionTriple,
                      seed: int = 0) -> ReducibilityReport:
    """Directions alpha*g1 + beta*g2 whose characteristics all vanish on
    the solution. Empty set means no 1-parameter subgroup of the pair
    leaves the solution invariant."""
    if len(gens) != 2:
        raise ExprError("reducibility scan expects a two-generator span")
    r1, r2 = characteristic_matrix(gens, triple)
    z1 = [bool(is_zero(e, seed=seed)) for e in r1]
    z2 = [bool(is_zero(e, seed=seed)) for e in r2]
    directions = []
    notes = []
    if all(z1) and all(z2):
        return ReducibilityReport([{"alpha": "any", "beta": "any"}],
                                  True, False,
                                  ["solution invariant under the full span"])
    if all(z1):
        directions.append({"alpha": "1", "beta": "0"})
        notes.append("first generator annihilates the solution")
    elif all(z2):
        directions.append({"alpha": "0", "beta": "1"})
        notes.append("second generator annihilates the solution")
    else:
        pivot = next((i for i in range(Q) if not z1[i]), None)
        if pivot is not None:
            rho = neg(div(r2[pivot], r1[pivot]))
            consistent = all(
                bool(is_zero(add(mul(rho, r1[i]), r2[i]), seed=seed))
                for i in range(Q))
            constant = (bool(is_zero(diff(rho, "x"), seed=seed))
                        and bool(is_zero(diff(rho, "t"), seed=seed)))
            if consistent and constant:
                directions.append({"alpha": render(rho), "beta": "1"})
                notes.append("proportional characteristics with a "
                             "constant ratio")
    return ReducibilityReport(directions, False, not directions, notes)
