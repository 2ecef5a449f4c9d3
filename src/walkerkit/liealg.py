"""The seven-dimensional symmetry algebra.

Vector fields live on the five-dimensional total space with coordinates
(x, t, a, b, c); the dependent symbols act as fiber coordinates, so
brackets use formal partials. Coefficient vectors express algebra
elements in the fixed basis X1..X7. Structure constants come from an
exact decomposition of every basis bracket, and adjoint matrices are
exact: finite series for nilpotent generators, exponential entries for
the diagonal ones.

Sign convention: adjoint_matrix uses Ad(exp(s*Xi)) = e^{+s ad_i}. The
alternative sign fails the normalization replays, so the plus form is
frozen here and surfaced as ADJOINT_SIGN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import combinations, takewhile

from .expr import (
    Expr, ExprError, NONZERO, Num, Param, ZERO, ONE, ZERO_NUMERIC,
    ZERO_SYMBOLIC, add, compile_expr, coord, div, exp_, free_atoms, funcsym,
    is_zero, mul, neg, num, param, parse, partial, pow_, render, substitute,
)

ADJOINT_SIGN = +1

DIM = 7

_X = coord("x")
_T = coord("t")
_A = funcsym("a", (), (1, 2))
_B = funcsym("b", (), (1, 2))
_C = funcsym("c", (), (1, 2))

BASE_ATOMS = (_X, _T, _A, _B, _C)

GENERATOR_NAMES = tuple(f"X{i}" for i in range(1, 8))


class NotClosed(ExprError):
    """A bracket left the span it was expected to lie in."""


@dataclass(frozen=True)
class VectorField:
    """First-order operator sum(coeffs[i] * d/d(atom_i)) on (x,t,a,b,c)."""

    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != 5:
            raise ExprError("vector field needs 5 coefficients")

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


def bracket(v: VectorField, w: VectorField) -> VectorField:
    return VectorField(tuple(
        add(v.apply(w.coeffs[k]), neg(w.apply(v.coeffs[k])))
        for k in range(5)))


# --- Gauss-Jordan elimination ----------------------------------------------

def rref(m: list, ncol: int, eps=0) -> list:
    """Reduce ``m`` in place to reduced row echelon form over its first
    ``ncol`` columns; returns the pivot columns, pivot k in row k.

    Each pivot is the entry of largest magnitude in its column, and an
    entry with |v| <= eps counts as zero. Over Fractions (eps = 0) the
    result is the unique exact RREF; over floats a relative ``eps`` turns
    the pivot count into a numeric rank.
    """
    nrow = len(m)
    pivots = []
    for col in range(ncol):
        r = len(pivots)
        if r == nrow:
            break
        piv = max(range(r, nrow), key=lambda i: abs(m[i][col]))
        if abs(m[piv][col]) <= eps:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][col]
        m[r] = [v * inv for v in m[r]]
        for i in range(nrow):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
    return pivots


def solve_exact(rows: list, rhs: list):
    """Solve A x = b over Fractions. Returns x or None if inconsistent;
    requires unique solution on the pivoted columns (free columns get 0)."""
    m = [list(map(Fraction, r)) + [Fraction(v)] for r, v in zip(rows, rhs)]
    ncol = len(m[0]) - 1
    pivots = rref(m, ncol)
    if any(row[ncol] != 0 for row in m[len(pivots):]):
        return None
    x = [Fraction(0)] * ncol
    for r, col in enumerate(pivots):
        x[col] = m[r][ncol]
    return x


def nullspace_exact(rows: list) -> list:
    """Basis of the nullspace of A over Fractions."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return []
    ncol = len(m[0])
    pivots = rref(m, ncol)
    out = []
    for fc in range(ncol):
        if fc in pivots:
            continue
        v = [Fraction(0)] * ncol
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        out.append(v)
    return out


# --- structure constants ----------------------------------------------------

def _component_monomials(v: VectorField) -> dict:
    """Flatten a field into {(component, atom-key tuple): Fraction}."""
    from .expr import expand_monomials

    out = {}
    for k, cf in enumerate(v.coeffs):
        for mono in expand_monomials(cf):
            out[(k, mono.merge_key())] = out.get(
                (k, mono.merge_key()), Fraction(0)) + mono.coeff
    return {key: v for key, v in out.items() if v != 0}


def decompose(v: VectorField) -> list:
    """Coordinates of v in the basis, exact. Raises NotClosed."""
    cols = [_component_monomials(b) for b in BASIS]
    target = _component_monomials(v)
    keys = sorted(set(target) | set().union(*[set(c) for c in cols]))
    rows = [[c.get(key, Fraction(0)) for c in cols] for key in keys]
    rhs = [target.get(key, Fraction(0)) for key in keys]
    sol = solve_exact(rows, rhs)
    if sol is None:
        raise NotClosed("field does not decompose in the basis")
    return sol


@dataclass(frozen=True)
class StructureConstants:
    """The nonzero structure constants, indices 0-based: nonzero[(j, k)]
    = {i: C} says [X_{j+1}, X_{k+1}] has the nonzero integer coefficient
    C on X_{i+1}. Pairs that commute have no key."""

    nonzero: dict

    def bracket_coeffs(self, u: tuple, v: tuple) -> tuple:
        """Bracket of two coefficient vectors (entries Expr or Fraction)."""
        out = [ZERO] * DIM
        for (j, k), row in self.nonzero.items():
            if _is_zero_entry(u[j]) or _is_zero_entry(v[k]):
                continue
            for i, cf in row.items():
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


def _is_zero_entry(e) -> bool:
    return isinstance(e, Num) and e.value == 0


def structure_constants() -> StructureConstants:
    nonzero = {}
    for j in range(DIM):
        for k in range(DIM):
            coords = decompose(bracket(BASIS[j], BASIS[k]))
            if any(v.denominator != 1 for v in coords):
                raise ExprError(f"[X{j + 1},X{k + 1}] is not integral")
            row = {i: int(v) for i, v in enumerate(coords) if v}
            if row:
                nonzero[(j, k)] = row
    return StructureConstants(nonzero)


@cache
def sc() -> StructureConstants:
    return structure_constants()


# --- coefficient vectors ----------------------------------------------------

def parse_generator(text: str) -> tuple:
    """Parse "eps*X2 + X5" style text into a 7-tuple of Expr coefficients."""
    e = parse(text, functions={}, extra_params=set(GENERATOR_NAMES))
    coeffs = []
    for name in GENERATOR_NAMES:
        cf = partial(e, param(name))
        if any(isinstance(a, Param) and a.name in GENERATOR_NAMES
               for a in free_atoms(cf)):
            raise ExprError(f"{text!r} is not linear in the generators")
        coeffs.append(cf)
    rebuilt = add(*[mul(cf, param(name))
                    for cf, name in zip(coeffs, GENERATOR_NAMES)])
    from .expr import is_zero_symbolic
    if not is_zero_symbolic(add(e, neg(rebuilt))):
        raise ExprError(f"{text!r} has terms outside the generator span")
    return tuple(coeffs)


def unit(i: int) -> tuple:
    """Coefficient vector of the basis generator with 0-based index i."""
    return tuple(ONE if k == i else ZERO for k in range(DIM))


def render_generator(coeffs: tuple) -> str:
    e = add(*[mul(cf, param(name))
              for cf, name in zip(coeffs, GENERATOR_NAMES)])
    return render(e) if e != ZERO else "0"


def coeffs_to_field(coeffs: tuple) -> VectorField:
    out = VectorField((ZERO,) * 5)
    for cf, b in zip(coeffs, BASIS):
        out = out + b.scale(cf)
    return out


# --- subalgebra closure -----------------------------------------------------

@dataclass
class ClosureCase:
    assignment: dict
    closed: bool
    lam: str | None = None
    mu: str | None = None
    verdicts: list = field(default_factory=list)
    reason: str = ""

    @property
    def symbolic(self) -> bool:
        return self.closed and all(v == ZERO_SYMBOLIC for v in self.verdicts)


@dataclass
class ClosureReport:
    generators: list
    cases: list

    @property
    def closed(self) -> bool:
        return all(c.closed for c in self.cases)

    @property
    def symbolic(self) -> bool:
        return all(c.symbolic for c in self.cases)


_TERNARY_VALUES = (-1, 0, 1)


def _ternary_params(exprs) -> list:
    names = set()
    for e in exprs:
        for a in free_atoms(e):
            if isinstance(a, Param) and a.name == "epz":
                names.add(a.name)
    return sorted(names)


def subalgebra_closed(gens: list, seed: int = 0) -> ClosureReport:
    """Closure of span(gens) under the bracket, symbolic in parameters.

    eps and epsp stay symbolic (their squares rewrite to 1); the ternary
    symbol is split over its three values. Each case carries a (lam, mu)
    witness with per-component residual verdicts.
    """
    if len(gens) == 1:
        return ClosureReport([list(g) for g in gens],
                             [ClosureCase({}, True, "0", "0",
                                          [ZERO_SYMBOLIC] * DIM,
                                          "self-bracket vanishes")])
    if len(gens) != 2:
        raise ExprError("closure check expects 1 or 2 generators")
    g1, g2 = gens
    splits = _ternary_params(list(g1) + list(g2))
    cases = []
    if not splits:
        cases.append(_closure_case(g1, g2, {}, seed))
    else:
        name = splits[0]
        for val in _TERNARY_VALUES:
            sub = {name: num(val)}
            h1 = tuple(substitute(e, sub) for e in g1)
            h2 = tuple(substitute(e, sub) for e in g2)
            cases.append(_closure_case(h1, h2, {name: val}, seed))
    return ClosureReport([list(g1), list(g2)], cases)


def _closure_case(g1, g2, assignment, seed) -> ClosureCase:
    w = sc().bracket_coeffs(g1, g2)
    zeros = list(takewhile(bool, (is_zero(e, seed=seed) for e in w)))
    if len(zeros) == DIM:
        verdicts = [z.verdict for z in zeros]
        return ClosureCase(assignment, True, "0", "0", verdicts,
                           "bracket vanishes")
    pivot = None
    for i in range(DIM):
        for j in range(i + 1, DIM):
            det = add(mul(g1[i], g2[j]), neg(mul(g1[j], g2[i])))
            if is_zero(det, seed=seed).verdict == NONZERO:
                pivot = (i, j, det)
                break
        if pivot:
            break
    if pivot is None:
        return ClosureCase(assignment, False,
                           reason="generators not independent, no pivot pair")
    i, j, det = pivot
    lam = div(add(mul(w[i], g2[j]), neg(mul(w[j], g2[i]))), det)
    mu = div(add(mul(g1[i], w[j]), neg(mul(g1[j], w[i]))), det)
    verdicts = []
    for k in range(DIM):
        resid = add(w[k], neg(mul(lam, g1[k])), neg(mul(mu, g2[k])))
        verdicts.append(is_zero(resid, seed=seed).verdict)
    closed = all(v != NONZERO for v in verdicts)
    reason = "" if closed else "bracket leaves the span"
    return ClosureCase(assignment, closed, render(lam), render(mu),
                       verdicts, reason)


# --- adjoint matrices -------------------------------------------------------

def _mat_mul_frac(a: list, b: list) -> list:
    return [[sum(a[i][k] * b[k][j] for k in range(DIM)) for j in range(DIM)]
            for i in range(DIM)]


def _is_zero_mat(m: list) -> bool:
    return all(v == 0 for row in m for v in row)


def _is_diagonal(m: list) -> bool:
    return all(m[i][j] == 0 for i in range(DIM) for j in range(DIM) if i != j)


def adjoint_matrix(i: int, s) -> list:
    """Exact 7x7 matrix of Ad(exp(s*X_i)) in the basis; s is Expr-like.

    Diagonal ad gives exponential entries; nilpotent ad gives the finite
    series. Every basis generator here is one or the other.
    """
    if not 1 <= i <= DIM:
        raise ExprError(f"generator index out of range: {i}")
    if isinstance(s, float):
        point = {"s": s}
        return [[f(point)[0] for f in row] for row in _compiled_flow(i)]
    s = s if isinstance(s, Expr) else num(s)
    m = sc().ad_matrix(i)
    if _is_diagonal(m):
        out = [[ZERO] * DIM for _ in range(DIM)]
        for k in range(DIM):
            d = m[k][k]
            out[k][k] = ONE if d == 0 else exp_(mul(num(ADJOINT_SIGN * d), s))
        return out
    out = [[ONE if a == b else ZERO for b in range(DIM)] for a in range(DIM)]
    power = [[Fraction(int(a == b)) for b in range(DIM)] for a in range(DIM)]
    for n in range(1, DIM + 1):
        power = _mat_mul_frac(power, m)
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


@cache
def _flow(i: int) -> tuple:
    """Ad(exp(s*X_i)) with a symbolic s, built once per generator."""
    return tuple(map(tuple, adjoint_matrix(i, param("s"))))


@cache
def _compiled_flow(i: int) -> tuple:
    return tuple(tuple(compile_expr(e) for e in row) for row in _flow(i))


def apply_matrix(mat: list, coeffs: tuple) -> tuple:
    out = []
    for k in range(DIM):
        out.append(add(*[mul(mat[k][j], coeffs[j]) for j in range(DIM)]))
    return tuple(out)


# --- normalizer equations ---------------------------------------------------

def _char_poly(m: list) -> list:
    """Characteristic polynomial coefficients via Faddeev-LeVerrier.

    Returns [a_0, ..., a_n] with det(mu*I - M) = sum a_k mu^k, exact.
    """
    n = DIM
    ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    coeffs = [Fraction(1)]
    mk = [row[:] for row in ident]
    for k in range(1, n + 1):
        prod = _mat_mul_frac(m, mk)
        ck = -Fraction(sum(prod[i][i] for i in range(n)), k)
        coeffs.append(ck)
        mk = [[prod[i][j] + (ck if i == j else 0) for j in range(n)]
              for i in range(n)]
    # coeffs are for lambda^n + c1 lambda^(n-1) + ...; reverse to a_0..a_n
    return list(reversed(coeffs))


def _rational_roots(poly: list) -> list:
    """All rational roots of the polynomial with Fraction coefficients."""
    while len(poly) > 1 and poly[-1] == 0:
        poly = poly[:-1]
    roots = set()
    # strip mu = 0 roots
    while poly and poly[0] == 0:
        roots.add(Fraction(0))
        poly = poly[1:]
    if len(poly) <= 1:
        return sorted(roots)
    lcm = 1
    for q in poly:
        lcm = lcm * q.denominator // math.gcd(lcm, q.denominator)
    ints = [int(q * lcm) for q in poly]
    a0, an = abs(ints[0]), abs(ints[-1])

    def divisors(n):
        out = set()
        d = 1
        while d * d <= n:
            if n % d == 0:
                out.add(d)
                out.add(n // d)
            d += 1
        return out

    for p in divisors(a0):
        for q in divisors(an):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if sum(cf * cand ** k for k, cf in enumerate(poly)) == 0:
                    roots.add(cand)
    return sorted(roots)


@dataclass
class NormalizerStratum:
    mu: Fraction
    solutions: list  # (Y: 7 Fractions, lam: Fraction) basis


@dataclass
class NormalizerSpace:
    """Solutions (Y, lam, mu) of [x, Y] = lam*x + mu*Y for rational x."""

    x: tuple
    matrix: list
    eigen_mus: list
    strata: list

    def solve_for_mu(self, mu: Fraction) -> list:
        rows = []
        for k in range(DIM):
            row = [self.matrix[k][j] - (mu if j == k else 0)
                   for j in range(DIM)]
            row.append(-self.x[k])
            rows.append(row)
        return [(tuple(v[:DIM]), v[DIM]) for v in nullspace_exact(rows)]

    def admits(self, y: tuple):
        """(lam, mu) witness for a given rational Y, or None."""
        wy = [sum(self.matrix[k][j] * y[j] for j in range(DIM))
              for k in range(DIM)]
        rows = [[self.x[k], y[k]] for k in range(DIM)]
        sol = solve_exact(rows, wy)
        if sol is None:
            return None
        return sol[0], sol[1]


def normalizer_solve(x: tuple) -> NormalizerSpace:
    xs = []
    for e in x:
        e = e if isinstance(e, Expr) else num(e)
        if not isinstance(e, Num):
            raise ExprError("normalizer_solve needs rational coefficients")
        xs.append(e.value)
    if all(v == 0 for v in xs):
        raise ExprError("normalizer_solve needs a nonzero element")
    ads = [sc().ad_matrix(i) for i in range(1, DIM + 1)]
    m = [[sum(x * ad[k][j] for x, ad in zip(xs, ads)) for j in range(DIM)]
         for k in range(DIM)]
    mus = _rational_roots(_char_poly(m))
    space = NormalizerSpace(tuple(xs), m, mus, [])
    for mu in mus:
        space.strata.append(NormalizerStratum(mu, space.solve_for_mu(mu)))
    return space


# --- proof-case replays -----------------------------------------------------

@dataclass
class ReplayStep:
    gen: int
    s_text: str
    killed: int | None  # basis index the step is meant to annihilate
    verdict: str | None = None


@dataclass
class ReplayCase:
    case_id: str
    assumptions: dict
    steps: list
    expect_closed: bool
    closed: bool | None = None
    bracket_witness: str = ""
    notes: str = ""

    @property
    def ok(self) -> bool:
        steps_ok = all(s.verdict in (None, ZERO_SYMBOLIC, ZERO_NUMERIC)
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
            step = ReplayStep(gen, s_text, killed)
            if killed is not None:
                step.verdict = is_zero(y[killed - 1], seed=seed).verdict
            steps.append(step)
        # absorb any X1 component into the span of the fixed generator
        y = tuple([ZERO] + list(y[1:]))
        if sign_split:
            resid = add(y[4], neg(param("eps")))
            steps.append(ReplayStep(6, "sign normalization", 5,
                                    is_zero(resid, seed=seed).verdict))
            y = tuple(param("eps") if k == 4 else y[k] for k in range(DIM))
        report = subalgebra_closed([x1, y], seed=seed)
        case = ReplayCase(case_id, dict(subs_text), steps, expect_closed,
                          closed=report.closed, notes=notes)
        w = sc().bracket_coeffs(x1, y)
        case.bracket_witness = render_generator(w)
        out.append(case)
    return out
