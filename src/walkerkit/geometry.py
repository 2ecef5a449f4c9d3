"""Metric layer: the two-block null-plane metric, its curvature, and the
exact identity tying the trace-adjusted Ricci components to the
second-order residual system.

Coordinate order is (x, t, y, z), indices 1..4. The metric matrix is

    [[0, 0, 1, 0],
     [0, 0, 0, 1],
     [1, 0, a, c],
     [0, 1, c, b]]

with unit determinant and a polynomial inverse, so on the abstract a, b,
c every curvature component is a polynomial in their jets: a jet
polynomial of ``jets``, where D_i of a jet only extends its index.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache

from .expr import (
    ALL_DEPS, COORD_INDEX, Coord, Expr, Func, INDEX_COORD, Num, ZERO, ONE,
    free_atoms, parse, render,
)
from .expr import numeric
from .expr.expand import expand_tables
from .expr.nodes import jet_memo
from .jets import jet_poly, padd, pmul, total_diff
from .liealg import det
from . import jets

N = 4
COORDS = tuple(INDEX_COORD[i] for i in (1, 2, 3, 4))

EINSTEIN_LABELS = tuple(
    COORDS[i] + COORDS[j] for i in range(N) for j in range(i, N))


class Metric4(namedtuple("Metric4", "rows")):
    """rows: 4x4 nested tuples of Expr."""

    __slots__ = ()


class CurvatureBundle(namedtuple("CurvatureBundle", "gamma ricci tau")):
    """gamma[k][i][j], ricci[i][j] and the scalar curvature tau."""

    __slots__ = ()


def build_metric(a, b, c) -> Metric4:
    z, o = ZERO, ONE
    return Metric4(((z, z, o, z), (z, z, z, o), (o, z, a, c), (z, o, c, b)))


def _metric_polys() -> tuple:
    """(g, g^-1) on the abstract a, b, c, as rows of jet polynomials."""
    z, o = {}, {0: 1}
    a, b, c, na, nb, nc = ({jets.UNIT[jets.VAR[f, ()]]: sign}
                           for sign in (1, -1) for f in jets.FIBER)
    return (((z, z, o, z), (z, z, z, o), (o, z, a, c), (z, o, c, b)),
            ((na, nc, o, z), (nc, nb, z, o), (o, z, z, z), (z, o, z, z)))


@cache
def ricci() -> CurvatureBundle:
    """Christoffel symbols, Ricci tensor and scalar curvature of the
    metric on the abstract a, b, c, as jet polynomials, built once per
    process.

    gamma^k_ij = (1/2) g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)
    R_ij = d_k gamma^k_ij - gamma^k_jl gamma^l_ik

    The general R_ij also has - d_j gamma^k_ik + gamma^k_kl gamma^l_ij,
    but sum_k gamma^k_ik = d_i ln sqrt|det g| = 0 for this unit-determinant
    metric, so neither is built. The Levi-Civita Ricci tensor is
    symmetric, so R_ij is built for i <= j only and ricci[j][i] is the
    same dict as ricci[i][j]. A constant metric entry or a zero
    Christoffel symbol is never differentiated, and no product with a
    zero factor is formed.
    """
    g, inv = _metric_polys()
    half = Fraction(1, 2)
    # dg[l][i][j] = d_l g_ij (an entry with no jet is constant), and
    # first[l][i][j] = g_lk gamma^k_ij
    dg = [[[total_diff(e, l + 1) if any(e) else {} for e in row]
           for row in g] for l in range(N)]
    first = [[[padd((dg[i][j][l], half), (dg[j][i][l], half),
                    (dg[l][i][j], -half))
               for j in range(N)] for i in range(N)] for l in range(N)]
    gamma = [[[{}] * N for _ in range(N)] for _ in range(N)]
    for k in range(N):
        for i in range(N):
            for j in range(i, N):
                gamma[k][i][j] = gamma[k][j][i] = padd(*[
                    (pmul(inv[k][l], first[l][i][j]), 1)
                    for l in range(N) if inv[k][l] and first[l][i][j]])

    ric = [[{}] * N for _ in range(N)]
    for i in range(N):
        for j in range(i, N):
            terms = [(total_diff(gamma[k][i][j], k + 1), 1)
                     for k in range(N) if gamma[k][i][j]]
            terms += [(pmul(gamma[k][j][l], gamma[l][i][k]), -1)
                      for k in range(N) for l in range(N)
                      if gamma[k][j][l] and gamma[l][i][k]]
            ric[i][j] = ric[j][i] = padd(*terms)

    tau = padd(*[(pmul(inv[i][j], ric[i][j]), 1)
                 for i in range(N) for j in range(N)
                 if inv[i][j] and ric[i][j]])
    freeze = tuple(tuple(tuple(row) for row in plane) for plane in gamma)
    return CurvatureBundle(freeze, tuple(tuple(r) for r in ric), tau)


def einstein_residual(bundle: CurvatureBundle) -> tuple:
    """E_ij = R_ij - (tau/4) g_ij of the metric on the abstract a, b, c,
    from its ``ricci`` bundle: the ten upper-triangle components as jet
    polynomials, ordered as EINSTEIN_LABELS."""
    g, _ = _metric_polys()
    return tuple(padd((bundle.ricci[i][j], 1), (
        pmul(bundle.tau, g[i][j]) if g[i][j] else {}, Fraction(-1, 4)))
        for i in range(N) for j in range(i, N))


class CurvatureTables(namedtuple("CurvatureTables", "ricci einstein")):
    """The Ricci and Einstein components of the metric on the abstract a,
    b, c, ten each, ordered as EINSTEIN_LABELS, as ``jets.terms``."""

    __slots__ = ()


@cache
def curvature_tables() -> CurvatureTables:
    """The terms of ``ricci`` and ``einstein_residual``, unpacked once per
    process."""
    bundle = ricci()
    return CurvatureTables(
        tuple(jets.terms(bundle.ricci[i][j])
              for i in range(N) for j in range(i, N)),
        tuple(map(jets.terms, einstein_residual(bundle))))


def curvature_verdicts(tables, a, b, c, samples: int = 64,
                       tol: float = 1e-9, seed: int = 0) -> list:
    """Zero verdicts for the jet polynomials ``tables``, each given by its
    ``jets.terms`` (the components of ``curvature_tables``, or the
    residuals of a ``PDESystem``), on the metric with coefficients a, b,
    c.

    Each jet is one derivative of a, b or c, taken once (``jet_memo``),
    and a coordinate is its atom; a monomial holding a ZERO jet is
    dropped. A jet whose index names a coordinate that its coefficient
    cannot depend on is ZERO without a ``diff`` call: the coefficient
    depends only on its coordinates and on the ``deps`` of its function
    symbols, read in one ``free_atoms`` walk, and differentiation never
    adds a coordinate (an (x, t) metric has a_3 = b_24 = 0). Exact
    cancellation is decided for every polynomial in one ring, where each
    jet is expanded once (``expand_tables``), and ``numeric.poly_verdict``
    turns each decision into a verdict. A polynomial left to the probe
    is evaluated on the values of its jets (``MonomialSum``), so its
    residual is scaled by its largest monomial, whatever form a
    substituted tree would take. No polynomial is built as an expression
    tree (``expand_tables`` builds the product of one monomial only where
    its jets meet on a root of a sum)."""
    coeffs = {"a": a, "b": b, "c": c}
    deps = {name: _dependencies(e) for name, e in coeffs.items()}
    jet = jet_memo(coeffs)
    atoms = jets.jet_atoms(ALL_DEPS)
    values = {}
    for n in {n for table in tables for _, factors in table
              for n, _ in factors}:
        v = jets.JET_VARS[n]
        values[n] = (atoms[n] if type(v) is str
                     else jet(*v) if deps[v[0]].issuperset(v[1]) else ZERO)
    zero = {n for n, v in values.items() if type(v) is Num and not v.value}
    if zero:
        tables = [[m for m in table if not any(n in zero for n, _ in m[1])]
                  for table in tables]
    return [numeric.poly_verdict(poly, numeric.MonomialSum(values, table),
                                 samples, tol, seed)
            for table, poly in zip(tables, expand_tables(values, tables))]


def _dependencies(e: Expr) -> set:
    """Indices of the coordinates that ``e`` may depend on."""
    out = set()
    for atom in free_atoms(e):
        if type(atom) is Coord:
            out.add(COORD_INDEX[atom.name])
        elif type(atom) is Func:
            out.update(atom.deps)
    return out


def einstein_verdicts(a, b, c, samples: int = 64, tol: float = 1e-9,
                      seed: int = 0) -> list:
    """Zero verdicts for the ten Einstein components of the metric built
    on the given coefficient expressions."""
    return curvature_verdicts(curvature_tables().einstein, a, b, c,
                              samples=samples, tol=tol, seed=seed)


# --- correspondence ---------------------------------------------------------

class EquivalenceReport(namedtuple(
        "EquivalenceReport", "rows block determinant correspondence")):
    """rows: zero verdict of E - M r per EINSTEIN_LABELS row. block:
    labels of the rows of M that decide ``generic``. determinant: det of
    M on those rows. correspondence: residual_k -> labels of the rows
    it enters."""

    __slots__ = ()

    @property
    def on_shell(self) -> bool:
        return all(self.rows)

    @property
    def generic(self) -> bool:
        return isinstance(self.determinant, Num) and self.determinant != ZERO

    @property
    def passed(self) -> bool:
        return (self.on_shell and self.generic
                and all(self.correspondence.values()))


def equivalence_probe(samples: int = 100,
                      seed: int = 42) -> EquivalenceReport:
    """Both directions of the Einstein/PDE correspondence on the
    abstract metric, from the identity E = M r with M in
    ``jets.EINSTEIN_M``: E vanishes wherever the residuals r do when
    every row of E - M r is the empty jet polynomial, and r vanishes
    wherever E does when M's block on the rows xy, xz, ty, yy, yz, zz
    (triangular with a constant diagonal) has a nonzero constant
    determinant. A row that does not cancel is nonzero, and the probe
    (``samples`` draws from ``seed``) finds its witness; no row is left
    to a tolerance."""
    residuals = jets.system_a7().polys
    funcs = {f: ALL_DEPS for f in jets.FIBER}
    m = {label: [parse(row.get(k, "0"), functions=funcs)
                 for k in range(1, len(residuals) + 1)]
         for label, row in jets.EINSTEIN_M.items()}
    zero_row = [ZERO] * len(residuals)
    rows = tuple(
        jets.verdict(padd((e, 1), *[
            (pmul(jet_poly(mk), r), -1)
            for mk, r in zip(m.get(label, zero_row), residuals)
            if mk != ZERO]),
            ALL_DEPS, samples, seed)
        for label, e in zip(EINSTEIN_LABELS, einstein_residual(ricci())))
    block = ("xy", "xz", "ty", "yy", "yz", "zz")
    determinant = det([m[label] for label in block])
    correspondence = {
        f"residual_{k + 1}": [label for label in EINSTEIN_LABELS
                              if m.get(label, zero_row)[k] != ZERO]
        for k in range(len(residuals))}
    return EquivalenceReport(rows, block, determinant, correspondence)


# --- emission ---------------------------------------------------------------

def metric_latex(a, b, c) -> str:
    """Line-element text for the metric with the given coefficients."""
    parts = ["2\\,dx\\,dy + 2\\,dt\\,dz"]
    if a != ZERO:
        parts.append(f"\\left({render(a)}\\right) dy^2")
    if b != ZERO:
        parts.append(f"\\left({render(b)}\\right) dz^2")
    if c != ZERO:
        parts.append(f"2\\left({render(c)}\\right) dy\\,dz")
    return "ds^2 = " + " + ".join(parts)


def metric_matrix_strings(a, b, c) -> list:
    return [[render(e) for e in row] for row in build_metric(a, b, c).rows]
