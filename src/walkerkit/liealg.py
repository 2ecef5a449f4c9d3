"""The seven-dimensional symmetry algebra.

Vector fields live on the five-dimensional total space with coordinates
(x, t, a, b, c); the dependent symbols act as fiber coordinates, so
brackets take formal partials, on the coefficients as jet polynomials.
Coefficient vectors express algebra elements in the fixed basis X1..X7.
Structure constants come from an exact decomposition of every basis
bracket, and adjoint matrices are exact: finite series for nilpotent
generators, exponential entries for the diagonal ones.
adjoint_flow_holds certifies each one as exp(s*ad_i) by exact
cancellation, which gives the group law.

Sign convention: adjoint_matrix uses Ad(exp(s*Xi)) = e^{+s ad_i}. The
alternative sign fails the normalization replays and the flow
certificate, so the plus form is frozen here and surfaced as
ADJOINT_SIGN.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cache
from itertools import combinations

from .expr import (
    Coord, Expr, ExprError, NONZERO, Num, PLANE_DEPS, Param, Pow, Prod,
    SIGN_PARAMS, TERNARY_PARAMS, ZERO, ONE, ZERO_NUMERIC, ZERO_SYMBOLIC, add,
    coord, div, exp_, free_atoms, funcsym, is_zero, is_zero_symbolic, mul,
    neg, num, param, parse, partial, pow_, render, sub, substitute,
)
from .jets import VAR, WIDTH, derivative, jet_poly, padd, pmul, to_expr, unpack

ADJOINT_SIGN = +1

DIM = 7

BASE_ATOMS = (coord("x"), coord("t"),
              *(funcsym(f, (), PLANE_DEPS) for f in "abc"))

GENERATOR_NAMES = tuple(f"X{i}" for i in range(1, 8))


class NotClosed(ExprError):
    """A bracket left the span it was expected to lie in."""


class VectorField(namedtuple("VectorField", "coeffs")):
    """First-order operator sum(coeffs[i] * d/d(atom_i)) on (x,t,a,b,c)."""

    __slots__ = ()

    def __new__(cls, coeffs: tuple):
        if len(coeffs) != 5:
            raise ExprError("vector field needs 5 coefficients")
        return tuple.__new__(cls, (coeffs,))

    def apply(self, e: Expr) -> Expr:
        """Directional derivative of a function of (x,t,a,b,c)."""
        return add(*[mul(cf, partial(e, atom))
                     for cf, atom in zip(self.coeffs, BASE_ATOMS)])

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField(tuple(add(p, q)
                                 for p, q in zip(self.coeffs, other.coeffs)))

    def scale(self, k) -> "VectorField":
        return VectorField(tuple(mul(k, p) for p in self.coeffs))


def basis() -> tuple:
    """The seven generators, coefficient order (x, t, a, b, c)."""
    z = ZERO
    x, t, a, b, c = BASE_ATOMS
    return (
        VectorField((ONE, z, z, z, z)),
        VectorField((z, ONE, z, z, z)),
        VectorField((x, z, z, mul(-2, b), neg(c))),
        VectorField((z, x, z, mul(2, c), a)),
        VectorField((t, z, mul(2, c), z, b)),
        VectorField((z, t, z, mul(2, b), c)),
        VectorField((z, z, a, b, c)),
    )


BASIS = basis()


# the jet variables x, t, a, b, c of BASE_ATOMS
_BASE_VARS = tuple(VAR[v] for v in ("x", "t", *((f, ()) for f in "abc")))


def _field(v: VectorField) -> tuple:
    """(coefficients, partials) of ``v`` as jet polynomials, with
    partials[k][j] = d coefficient k / d (x, t, a, b, c)[j]; ExprError
    unless each coefficient is a polynomial in x, t, a, b and c."""
    coeffs = tuple(map(jet_poly, v.coeffs))
    for cf, p in zip(v.coeffs, coeffs):
        if any(n not in _BASE_VARS or e < 0
               for k in p for n, e in unpack(k, WIDTH)):
            raise ExprError(f"{render(cf)} is not a polynomial in x, t, a, "
                            "b, c")
    return coeffs, tuple(tuple(derivative(p, n) for n in _BASE_VARS)
                         for p in coeffs)


def _bracket(v: tuple, w: tuple) -> tuple:
    """[v, w]^k = v(w^k) - w(v^k), of two ``_field`` pairs."""
    (p, dp), (q, dq) = v, w
    return tuple(padd(*[(pmul(p[j], dq[k][j]), 1) for j in range(5)
                        if p[j] and dq[k][j]],
                      *[(pmul(q[j], dp[k][j]), -1) for j in range(5)
                        if q[j] and dp[k][j]])
                 for k in range(5))


def bracket(v: VectorField, w: VectorField) -> VectorField:
    """[v, w]; ExprError unless both are polynomial in x, t, a, b, c."""
    return VectorField(tuple(to_expr(p, PLANE_DEPS)
                             for p in _bracket(_field(v), _field(w))))


# --- Gauss-Jordan elimination and ranks by minors --------------------------

def rref(m: list, ncol: int) -> list:
    """Reduce ``m`` of Fractions in place to its unique reduced row echelon
    form over its first ``ncol`` columns; returns the pivot columns, pivot
    k in row k. Each pivot is the entry of largest magnitude in its column.
    A zero entry of the pivot row is never multiplied."""
    nrow = len(m)
    pivots = []
    for col in range(ncol):
        r = len(pivots)
        if r == nrow:
            break
        piv = max(range(r, nrow), key=lambda i: abs(m[i][col]))
        if m[piv][col] == 0:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][col]
        m[r] = [v * inv if v else v for v in m[r]]
        for i in range(nrow):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b if b else a for a, b in zip(m[i], m[r])]
        pivots.append(col)
    return pivots


def solve_many(rows: list, rhs_rows: list) -> list:
    """Solve A X = B over Fractions with one elimination of [A | B]; B is
    given by rows, one column per right-hand side. Returns one solution
    per column, None for a column that is inconsistent; each requires a
    unique solution on the pivoted columns (free columns get 0)."""
    m = [list(map(Fraction, r)) + list(map(Fraction, b))
         for r, b in zip(rows, rhs_rows)]
    ncol = len(rows[0])
    pivots = rref(m, ncol)
    rest = m[len(pivots):]
    out = []
    for j in range(ncol, len(m[0])):
        if any(row[j] != 0 for row in rest):
            out.append(None)
            continue
        x = [Fraction(0)] * ncol
        for r, col in enumerate(pivots):
            x[col] = m[r][j]
        out.append(x)
    return out


def det(m: list) -> Expr:
    """Determinant of a square matrix of Exprs, by expansion along the
    first row down to 2x2 blocks. Only the row's nonzero entries are
    expanded: a ZERO entry's term is ZERO, which ``add`` drops anyway,
    so its cofactor is never built. A lower-triangular block costs one
    call per size down to the 2x2 base, and a ZERO first row gives ZERO
    at once."""
    if len(m) == 1:
        return m[0][0]
    if len(m) == 2:
        (p, q), (r, s) = m
        return add(mul(p, s), mul(-1, q, r))
    return add(*(mul(-1 if j % 2 else 1, e,
                     det([r[:j] + r[j + 1:] for r in m[1:]]))
                 for j, e in enumerate(m[0]) if e != ZERO))


def _generic_monomial(e: Expr) -> bool:
    """Whether ``e`` is a rational times powers of parameters that are
    neither sign nor ternary symbols, such as alpha or 2*alpha*beta^-1:
    nonzero wherever none of those parameters is zero."""
    return all(type(b) is Param and b.name not in SIGN_PARAMS
               and b.name not in TERNARY_PARAMS
               for b in (f.base if type(f) is Pow else f
                         for f in (e.factors if type(e) is Prod else (e,))))


def exact_rank(rows, seed: int = 0) -> tuple:
    """(rank, rows, cols) of a matrix of Exprs. The rank is the size of
    the largest minor whose zero test is ``nonzero``; every larger minor
    has tested zero or holds a row or column of ZERO entries, which no
    minor is tried on. A minor that is a parameter monomial
    (``_generic_monomial``) is nonzero without a zero test. rows and
    cols index the first such minor tried, larger minors first and each
    size in lexicographic order. A matrix whose entries all test zero
    gives (0, (), ())."""
    supports = [[j for j, e in enumerate(r) if e != ZERO] for r in rows]
    live = [i for i, s in enumerate(supports) if s]
    cols = sorted(set().union(*supports))
    for k in range(min(len(live), len(cols)), 0, -1):
        for ri in combinations(live, k):
            for ci in combinations(cols, k):
                minor = det([[rows[i][j] for j in ci] for i in ri])
                if (_generic_monomial(minor)
                        or is_zero(minor, seed=seed).verdict == NONZERO):
                    return k, ri, ci
    return 0, (), ()


# --- structure constants ----------------------------------------------------

@cache
def _basis_fields() -> tuple:
    return tuple(map(_field, BASIS))


def _coordinates(fields: list) -> list:
    """Exact coordinates in the basis of fields given by jet-polynomial
    coefficients, from one elimination over the basis monomials; NotClosed
    unless every residual field - sum of coordinate * basis field is {}."""
    basis = [p for p, _ in _basis_fields()]
    keys = sorted({(k, m) for b in basis for k, p in enumerate(b) for m in p})
    sols = solve_many([[b[k].get(m, 0) for b in basis] for k, m in keys],
                      [[f[k].get(m, 0) for f in fields] for k, m in keys])
    for f, x in zip(fields, sols):
        if x is None or any(padd((p, 1), *[(b[k], -c) for b, c in
                                           zip(basis, x) if c])
                            for k, p in enumerate(f)):
            raise NotClosed("field does not decompose in the basis")
    return sols


def decompose(v: VectorField) -> list:
    """Coordinates of v in the basis, exact. Raises NotClosed, and
    ExprError unless v is polynomial in x, t, a, b, c."""
    return _coordinates([_field(v)[0]])[0]


class StructureConstants(namedtuple("StructureConstants", "nonzero")):
    """The nonzero structure constants, indices 0-based: nonzero[(j, k)]
    = {i: C} says [X_{j+1}, X_{k+1}] has the nonzero integer coefficient
    C on X_{i+1}. Pairs that commute have no key."""

    __slots__ = ()

    def bracket_coeffs(self, u: tuple, v: tuple) -> tuple:
        """Bracket of two coefficient vectors of Exprs. Only the basis
        pairs in the supports of u and v are visited."""
        out = [ZERO] * DIM
        support_v = [k for k in range(DIM) if v[k] != ZERO]
        for j in range(DIM):
            if u[j] == ZERO:
                continue
            for k in support_v:
                for i, cf in self.nonzero.get((j, k), {}).items():
                    out[i] = add(out[i], mul(num(cf), u[j], v[k]))
        return tuple(out)

    def ad_matrix(self, i: int) -> list:
        """Matrix of ad_{X_i} acting on coefficient vectors (integers)."""
        return [[self.nonzero.get((i - 1, k), {}).get(n, 0)
                 for k in range(DIM)] for n in range(DIM)]

    def antisymmetric(self) -> bool:
        return all(self.nonzero.get((k, j)) == {i: -cf for i, cf in r.items()}
                   for (j, k), r in self.nonzero.items())

    def jacobi_holds(self) -> bool:
        """[[X_i,X_j],X_k] + cyclic = 0 over the 35 triples i < j < k; with
        an antisymmetric table these cover every triple."""
        br = self.bracket_coeffs
        return all(add(*cyclic) == ZERO
                   for x, y, z in combinations(map(unit, range(DIM)), 3)
                   for cyclic in zip(br(br(x, y), z), br(br(y, z), x),
                                     br(br(z, x), y)))


def structure_constants() -> StructureConstants:
    """Decompose all 49 basis brackets, each computed on its own from the
    basis as jet polynomials, in one elimination."""
    pairs = [(j, k) for j in range(DIM) for k in range(DIM)]
    fields = _basis_fields()
    coords = _coordinates([_bracket(fields[j], fields[k]) for j, k in pairs])
    nonzero = {}
    for (j, k), cs in zip(pairs, coords):
        if any(v.denominator != 1 for v in cs):
            raise ExprError(f"[X{j + 1},X{k + 1}] is not integral")
        row = {i: int(v) for i, v in enumerate(cs) if v}
        if row:
            nonzero[(j, k)] = row
    return StructureConstants(nonzero)


@cache
def sc() -> StructureConstants:
    return structure_constants()


# --- coefficient vectors ----------------------------------------------------

_GENERATORS = tuple(param(name) for name in GENERATOR_NAMES)


@cache
def parse_generator(text: str) -> tuple:
    """Parse "eps*X2 + X5" style text into a 7-tuple of Expr coefficients.

    The coefficient of Xi is the partial derivative of the text by Xi. It
    is taken only for the generators the text names; every other
    coefficient is ZERO. Three rules reject a text, each with ExprError:
    a coefficient that holds a generator (the text is not linear); one
    that holds a coordinate, as in x*X2, because closure would treat it
    as a constant and pass a span that is not closed; and a text that
    is not the sum of its coefficients times their generators. That sum
    is compared structurally first, and expanded only when it differs.

    The tuple of immutable Expr is kept per text, so the checks that
    re-read a catalog entry's generators parse each text once; a text
    that raises ExprError is not kept and raises again on every call."""
    e = parse(text, functions={}, extra_params=set(GENERATOR_NAMES))
    named = free_atoms(e)
    coeffs = []
    for name, gen in zip(GENERATOR_NAMES, _GENERATORS):
        if gen not in named:
            coeffs.append(ZERO)
            continue
        cf = partial(e, gen)
        atoms = free_atoms(cf)
        if not atoms.isdisjoint(_GENERATORS):
            raise ExprError(f"{text!r} is not linear in the generators")
        if any(isinstance(a, Coord) for a in atoms):
            raise ExprError(f"{text!r} has a coordinate in the coefficient "
                            f"of {name}; coefficients are constants")
        coeffs.append(cf)
    rebuilt = _combination(coeffs)
    if rebuilt != e and not is_zero_symbolic(sub(e, rebuilt)):
        raise ExprError(f"{text!r} has terms outside the generator span")
    return tuple(coeffs)


def _combination(coeffs) -> Expr:
    """The sum of coeffs[i] * X(i+1)."""
    return add(*map(mul, coeffs, _GENERATORS))


def unit(i: int) -> tuple:
    """Coefficient vector of the basis generator with 0-based index i."""
    return tuple(ONE if k == i else ZERO for k in range(DIM))


def render_generator(coeffs: tuple) -> str:
    e = _combination(coeffs)
    return render(e) if e != ZERO else "0"


def coeffs_to_field(coeffs: tuple) -> VectorField:
    out = VectorField((ZERO,) * 5)
    for cf, b in zip(coeffs, BASIS):
        out = out + b.scale(cf)
    return out


# --- subalgebra closure -----------------------------------------------------

_EPZ = param("epz")


class ClosureCase(namedtuple("ClosureCase", "assignment closed lam mu reason",
                             defaults=(None, None, ""))):
    __slots__ = ()


class ClosureReport(namedtuple("ClosureReport", "cases")):
    __slots__ = ()

    @property
    def closed(self) -> bool:
        return all(c.closed for c in self.cases)


def subalgebra_closed(gens: list, seed: int = 0) -> ClosureReport:
    """Closure of span(gens) under the bracket, symbolic in parameters.

    eps and epsp stay symbolic (their squares rewrite to 1); the ternary
    symbol epz, found in one walk over the generators, is split over its
    three values, for a single generator as for a pair. The span is
    closed when every case is. A pair's case: see ``_closure_case``. A
    single generator's case spans a one-dimensional subalgebra when it
    is not zero: a nonzero number coefficient shows that without a zero
    test, and otherwise ``exact_rank`` must find rank 1.
    """
    if len(gens) not in (1, 2):
        raise ExprError("closure check expects 1 or 2 generators")
    case = _single_case if len(gens) == 1 else _closure_case
    if _EPZ not in free_atoms(*(e for g in gens for e in g)):
        return ClosureReport([case(*gens, {}, seed)])
    cases = []
    for val in (-1, 0, 1):
        point = {"epz": num(val)}
        hs = [tuple(substitute(e, point) for e in g) for g in gens]
        cases.append(case(*hs, {"epz": val}, seed))
    return ClosureReport(cases)


def _single_case(g, assignment, seed) -> ClosureCase:
    """One case of a single generator: closed unless g is zero."""
    if (not any(isinstance(c, Num) and c != ZERO for c in g)
            and exact_rank([g], seed)[0] == 0):
        return ClosureCase(assignment, False,
                           reason="generator is zero, no pivot")
    return ClosureCase(assignment, True, "0", "0")


def _closure_case(g1, g2, assignment, seed) -> ClosureCase:
    """One case of a pair: g1 and g2 must be independent (a nonzero 2x2
    minor from ``exact_rank``), and their bracket w must equal
    lam*g1 + mu*g2, with lam and mu from Cramer's rule on that minor's
    columns. The case is closed only when every residual w - lam*g1 -
    mu*g2 cancels exactly; a column where w, g1 and g2 are all ZERO has
    none. A residual that is only ``zero_numeric`` fails the case."""
    rank, _, pivot = exact_rank([g1, g2], seed)
    if rank < 2:
        return ClosureCase(assignment, False,
                           reason="generators not independent, no pivot pair")
    w = sc().bracket_coeffs(g1, g2)
    p1, p2, pw = ([r[j] for j in pivot] for r in (g1, g2, w))
    d = det([p1, p2])
    lam, mu = div(det([pw, p2]), d), div(det([p1, pw]), d)
    verdicts = {is_zero(add(w[k], neg(mul(lam, g1[k])), neg(mul(mu, g2[k]))),
                        seed=seed).verdict
                for k in range(DIM)
                if w[k] != ZERO or g1[k] != ZERO or g2[k] != ZERO}
    reason = ("bracket leaves the span" if NONZERO in verdicts else
              "numeric only" if ZERO_NUMERIC in verdicts else "")
    return ClosureCase(assignment, not reason, render(lam), render(mu),
                       reason)


# --- adjoint matrices -------------------------------------------------------

def _mat_mul(a: list, b: list) -> list:
    """Product of 7x7 matrices of ints or Fractions."""
    return [[sum(a[i][k] * b[k][j] for k in range(DIM)) for j in range(DIM)]
            for i in range(DIM)]


def _is_zero_mat(m: list) -> bool:
    return all(v == 0 for row in m for v in row)


def _is_diagonal(m: list) -> bool:
    return all(m[i][j] == 0 for i in range(DIM) for j in range(DIM) if i != j)


def _identity() -> list:
    return [[ONE if a == b else ZERO for b in range(DIM)] for a in range(DIM)]


def adjoint_matrix(i: int, s) -> list:
    """Exact 7x7 matrix of Ad(exp(s*X_i)) in the basis; s is an Expr or
    an exact rational.

    Diagonal ad gives exponential entries; nilpotent ad gives the finite
    series. Every basis generator here is one or the other.
    """
    if not 1 <= i <= DIM:
        raise ExprError(f"generator index out of range: {i}")
    s = s if isinstance(s, Expr) else num(s)
    m = sc().ad_matrix(i)
    out = _identity()
    if _is_diagonal(m):
        for k in range(DIM):
            out[k][k] = exp_(mul(num(ADJOINT_SIGN * m[k][k]), s))
        return out
    power = [[int(a == b) for b in range(DIM)] for a in range(DIM)]
    for n in range(1, DIM + 1):
        power = _mat_mul(power, m)
        if _is_zero_mat(power):
            break
        coeff = Fraction(ADJOINT_SIGN ** n, math.factorial(n))
        sn = pow_(s, n)
        for a in range(DIM):
            for b in range(DIM):
                if power[a][b]:
                    out[a][b] = add(out[a][b],
                                    mul(num(coeff * power[a][b]), sn))
    else:
        raise ExprError(f"ad_X{i} neither diagonal nor nilpotent")
    return out


def adjoint_flow_holds(i: int) -> bool:
    """M(s) = adjoint_matrix(i, s) is exp(s*ad_i), exactly: every entry of
    dM/ds - ad_i*M cancels by exact expansion, and M(0) is the identity
    tree. Both together fix M(s) = exp(s*ad_i), so M(s)*M(s') = M(s + s')
    holds for all s and s' (the group law)."""
    s = param("s")
    m = adjoint_matrix(i, s)
    ad = sc().ad_matrix(i)
    flows = all(
        is_zero_symbolic(sub(partial(m[a][b], s),
                             add(*[mul(ad[a][k], m[k][b])
                                   for k in range(DIM) if ad[a][k]])))
        for a in range(DIM) for b in range(DIM))
    at_zero = [[substitute(e, {"s": ZERO}) for e in row] for row in m]
    return flows and at_zero == _identity()


def apply_matrix(mat: list, coeffs: tuple) -> tuple:
    return tuple(add(*[mul(mat[k][j], coeffs[j]) for j in range(DIM)])
                 for k in range(DIM))


# --- proof-case replays -----------------------------------------------------

class ReplayStep(namedtuple("ReplayStep", "gen s_text killed verdict",
                            defaults=(None,))):
    """killed: the basis index the step is meant to annihilate, or None;
    verdict: the zero test of that component after the step."""

    __slots__ = ()


class ReplayCase(namedtuple("ReplayCase",
                            "case_id steps expect_closed closed notes",
                            defaults=(None, ""))):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        steps_ok = all(s.verdict in (None, ZERO_SYMBOLIC)
                       for s in self.steps)
        return steps_ok and self.closed == self.expect_closed


_BPARAMS = tuple(f"b{i}" for i in range(1, 8))


def _general_y() -> tuple:
    # b1 already removed against the fixed generator X1
    return tuple([ZERO] + [param(n) for n in _BPARAMS[1:]])


# Case data: (id, substitutions, sign_split, steps, expect_closed, notes).
# sign_split rewrites b5 -> eps*b5 in the group element only, so the
# logarithmic normalization values keep a positive magnitude argument.
_REPLAY_TABLE = [
    ("a", {"b2": "0", "b3": "0", "b4": "0", "b5": "0", "b6": "0"}, False,
     [], True, "reduces to the span of X1 and X7"),
    ("b", {"b2": "0", "b3": "0", "b4": "0", "b5": "0"}, False,
     [], True, "reduces to X6 + alpha*X7 type"),
    ("c", {"b2": "0", "b3": "0", "b4": "0", "b6": "0"}, False,
     [], True, "reduces to X5 + alpha*X7 type"),
    ("d", {"b2": "0", "b3": "0", "b4": "0", "b5": "1"}, False,
     [(5, "1/b6", 5)], True, "X5 coefficient killed, X6 scaling survives"),
    ("e", {"b2": "0", "b3": "0"}, False,
     [], False, "bracket produces a X2 direction outside the span"),
    ("f", {"b2": "0", "b4": "0", "b3": "1"}, False,
     [(5, "b5/(-1 + b6)", 5)], True, "X5 killed with the stated shear value"),
    ("g", {"b2": "0", "b4": "0", "b3": "1", "b6": "1"}, True,
     [(6, "-ln(b5)", None)], True,
     "X5 coefficient normalized to a sign by the X6 scaling"),
    ("h", {"b3": "0", "b4": "0", "b6": "0", "b2": "1"}, False,
     [], True, "bracket vanishes"),
    ("i", {"b4": "0", "b6": "0", "b2": "1"}, False,
     [(5, "-b5/b3", 5)], True, "X5 killed; the X1 byproduct is absorbed"),
    ("j", {"b4": "0", "b2": "1", "b3": "1", "b6": "1"}, True,
     [(2, "-1/b6", 2), (6, "-ln(b5)", None)], True,
     "X2 killed, then X5 normalized to a sign"),
    ("k", {"b4": "0", "b2": "1", "b6": "1"}, False,
     [(2, "-1/b6", 2), (5, "-b5/(b3 - 1)", 5)], True,
     "X2 and X5 killed; closure gives a multiple of X1"),
]


def proof_case_replays(seed: int = 0) -> list:
    """Replay the normalization steps of the two-dimensional
    classification against the fixed generator X1."""
    x1 = unit(0)
    out = []
    for (case_id, subs_text, sign_split, steps_text,
         expect_closed, notes) in _REPLAY_TABLE:
        subs = {name: parse(text, functions={})
                for name, text in subs_text.items()}
        y = tuple(substitute(e, subs) for e in _general_y())
        if sign_split:
            flip = {"b5": mul(param("eps"), param("b5"))}
            y = tuple(substitute(e, flip) for e in y)
        steps = []
        for gen, s_text, killed in steps_text:
            s = substitute(parse(s_text, functions={}), subs)
            mat = adjoint_matrix(gen, s)
            y = apply_matrix(mat, y)
            verdict = (None if killed is None
                       else is_zero(y[killed - 1], seed=seed).verdict)
            steps.append(ReplayStep(gen, s_text, killed, verdict))
        # absorb any X1 component into the span of the fixed generator
        y = tuple([ZERO] + list(y[1:]))
        if sign_split:
            resid = add(y[4], neg(param("eps")))
            steps.append(ReplayStep(6, "sign normalization", 5,
                                    is_zero(resid, seed=seed).verdict))
            y = tuple(param("eps") if k == 4 else y[k] for k in range(DIM))
        report = subalgebra_closed([x1, y], seed=seed)
        out.append(ReplayCase(case_id, steps, expect_closed,
                              closed=report.closed, notes=notes))
    return out
