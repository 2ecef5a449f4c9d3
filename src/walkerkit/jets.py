"""Second-order jet layer over the plane, with the fiber (a, b, c).

A jet polynomial is a dict from monomial to nonzero rational coefficient
(an int where whole) over ``JET_VARS``: x, t, y, z and the jets of a, b
and c up to second order. A monomial is one int packed as
``expand._Ring`` packs its monomials, a signed ``WIDTH``-bit field per
variable, so a product of monomials is a sum of ints and an inverse a
negation. D_i of a jet only extends its index.

Symmetries are verified exactly on the solved jet (the infinitesimal
invariance criterion, Olver, Applications of Lie Groups to Differential
Equations, 1986, Thm 2.31): each residual is solved for its designated
jet, whose pivot is 1, -2, a, b or c, so the on-shell map is Laurent;
prolongation is the recursion phi^{J,i} = D_i phi^J - sum_k (D_i xi^k)
u_{J,k}; and a cell, the prolonged action on one residual with the map
substituted, is zero exactly when it is empty.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations_with_replacement
from types import MappingProxyType

from .expr import (
    ALL_DEPS, INDEX_COORD, Coord, Expr, ExprError, Func, PLANE_DEPS,
    ZERO_SYMBOLIC, ZeroResult, add, atom_name, coord, eval_expr, funcsym,
    mul, parse, pow_, render,
)
from .expr.expand import _Overflow, _Ring, unpack
from .expr.numeric import MonomialSum, witness

FIBER = ("a", "b", "c")


def _jets(deps: tuple) -> list:
    """(fiber, index) of every jet up to second order along ``deps``."""
    return [(f, j) for f in FIBER for n in range(3)
            for j in combinations_with_replacement(deps, n)]


# A variable is a coordinate name or a (fiber, index) jet; those over x
# and t come first, so the plane system's monomials are the smaller ints.
_PLANE = ["x", "t", *_jets(PLANE_DEPS)]
JET_VARS = tuple(_PLANE + [v for v in ["y", "z", *_jets(ALL_DEPS)]
                           if v not in _PLANE])
VAR = {v: n for n, v in enumerate(JET_VARS)}
WIDTH = 16
UNIT = tuple(1 << (WIDTH * n) for n in range(len(JET_VARS)))
# ``jet_poly`` bounds every exponent by MAX_POWER; the on-shell map
# (exponents within 2) and a few derivatives cannot carry a field.
MAX_POWER = 256


def padd(*terms) -> dict:
    """Sum of factor * p over the (p, factor) pairs, zero terms dropped."""
    out: dict = {}
    get = out.get
    for p, factor in terms:
        for m, v in p.items():
            out[m] = get(m, 0) + (v if factor == 1 else factor * v)
    return {m: v for m, v in out.items() if v}


def pmul(p: dict, q: dict) -> dict:
    out: dict = {}
    get = out.get
    for m, v in p.items():
        for n, w in q.items():
            out[m + n] = get(m + n, 0) + v * w
    return {m: v for m, v in out.items() if v}


# _EXTEND[i][n]: what D_i adds to a monomial holding variable n: a jet
# below second order gains the index i, x_i goes, another coordinate has
# no D_i (None); a second-order jet is not there.
_EXTEND = {i: {n: (UNIT[VAR[v[0], tuple(sorted(v[1] + (i,)))]] - UNIT[n]
                   if type(v) is tuple else
                   -UNIT[n] if v == INDEX_COORD[i] else None)
               for n, v in enumerate(JET_VARS)
               if type(v) is str or len(v[1]) < 2}
           for i in (1, 2, 3, 4)}


def total_diff(p: dict, i: int) -> dict:
    """D_i p along the coordinate of index i (1..4), by the product rule."""
    out: dict = {}
    get = out.get
    for k, c in p.items():
        for n, e in unpack(k, WIDTH):
            d = _EXTEND[i].get(n, 0)
            if d == 0:
                raise ExprError(f"D_{i} of {JET_VARS[n]} is third order")
            if d is not None:
                out[k + d] = get(k + d, 0) + c * e
    return {m: v for m, v in out.items() if v}


def derivative(p: dict, n: int) -> dict:
    """d p / d (variable n)."""
    return {k - UNIT[n]: c * e for k, c in p.items()
            for var, e in unpack(k, WIDTH) if var == n}


def jet_poly(e: Expr) -> dict:
    """``e`` expanded in a ring of its own (``expand._Ring``, whose
    monomials pack as these do) and read as a jet polynomial. ExprError
    unless every atom is a jet variable and the ring's exponent bound is
    within MAX_POWER: no kernel, root, parameter, or sum that stays an
    atom (to a negative power, or past expand.POW_EXPAND_LIMIT)."""
    ring = _Ring(1, set(), WIDTH)
    try:
        terms, den, bound = ring.expand(e)
    except _Overflow:
        bound = MAX_POWER + 1
    index = [VAR.get(a.name if type(a) is Coord else (a.name, a.idx))
             if type(a) in (Coord, Func) else None for a in ring.atoms]
    if None in index or bound > MAX_POWER:
        raise ExprError(f"{render(e)} is not a polynomial in x, t and the "
                        f"jets of a, b, c with exponents within {MAX_POWER}")
    return {sum(d * UNIT[index[i]] for i, d in unpack(k, WIDTH)):
            _whole(Fraction(c, den)) for k, c in terms.items()}


def _whole(q: Fraction):
    return q.numerator if q.denominator == 1 else q


@cache
def jet_atoms(deps: tuple) -> tuple:
    """The atom of each variable over ``deps``; None off ``deps``."""
    return tuple(coord(v) if type(v) is str
                 else funcsym(*v, deps) if set(v[1]) <= set(deps) else None
                 for v in JET_VARS)


def to_expr(p: dict, deps: tuple = ALL_DEPS) -> Expr:
    """A jet polynomial as a normal-form tree over the atoms of ``deps``."""
    atoms = jet_atoms(deps)
    return add(*[mul(c, *[pow_(atoms[n], e) for n, e in unpack(k, WIDTH)])
                 for k, c in p.items()])


def probe_sum(p: dict, deps: tuple) -> MonomialSum:
    return MonomialSum(jet_atoms(deps), [(c, unpack(k, WIDTH))
                                      for k, c in p.items()])


def verdict(p: dict, deps: tuple, samples: int, seed: int) -> ZeroResult:
    """``zero_symbolic`` when ``p`` is empty; otherwise ``p`` is nonzero in
    independent variables, and the probe only finds the witness."""
    if not p:
        return ZeroResult(ZERO_SYMBOLIC)
    return witness(probe_sum(p, deps), samples=samples, seed=seed)


def substitute(p: dict, values: dict, memo: dict | None = None) -> dict:
    """``p`` with each variable in ``values`` (variable -> polynomial)
    replaced, to a positive power; ``memo`` keeps the image of each
    product of replaced variables."""
    memo = {} if memo is None else memo
    out: dict = {}
    get = out.get
    for k, c in p.items():
        sub = sum(e * UNIT[n] for n, e in unpack(k, WIDTH) if n in values)
        image = memo.get(sub) if sub else {0: 1}
        if image is None:
            image = {0: 1}
            for n, e in unpack(sub, WIDTH):
                if e < 0:
                    raise ExprError(f"{JET_VARS[n]} to a negative power")
                for _ in range(e):
                    image = pmul(image, values[n])
            memo[sub] = image
        for m, w in image.items():
            out[k - sub + m] = get(k - sub + m, 0) + c * w
    return {m: v for m, v in out.items() if v}


class PDESystem(namedtuple("PDESystem", "name residuals deps designated")):
    """Residual expressions plus the designated-solve recipe:
    ``designated`` is ((atom name, residual index), ...) in solve order.
    No ``__slots__``: the cached properties live in the ``__dict__``."""

    @cached_property
    def polys(self) -> tuple:
        return tuple(map(jet_poly, self.residuals))

    @cached_property
    def on_shell(self) -> MappingProxyType:
        """Designated variable -> its Laurent polynomial on the solution
        set: each residual solved in ``designated`` order for its jet (it
        is linear in it, with a monomial pivot) and substituted back into
        the earlier solutions. Every residual must then cancel."""
        solved: dict = {}
        for name, k in self.designated:
            base, _, idx = name.partition("_")
            n = VAR[base, tuple(map(int, idx))]
            r = substitute(self.polys[k], solved)
            coeff = derivative(r, n)
            if not coeff or derivative(coeff, n):
                raise ExprError(f"residual {k + 1} is not linear in {name}")
            if len(coeff) != 1:
                raise ExprError(f"the pivot of residual {k + 1} in {name} "
                                "is not a monomial")
            (m, c), = coeff.items()
            value = {q - m: _whole(-Fraction(v) / c) for q, v in r.items()
                     if all(var != n for var, _ in unpack(q, WIDTH))}
            solved = {w: substitute(p, {n: value}) for w, p in solved.items()}
            solved[n] = value
        for k, r in enumerate(self.polys):
            if substitute(r, solved):
                raise ExprError(f"residual {k + 1} does not vanish on the "
                                "solved jet")
        return MappingProxyType(solved)

    def solved(self, p: dict) -> dict:
        """``p`` with the on-shell map substituted."""
        return substitute(p, self.on_shell,
                          self.__dict__.setdefault("_images", {}))

    @cached_property
    def partials(self) -> tuple:
        """Per residual, ((variable, d residual/d variable), ...) over the
        variables of _SLOTS that it holds, which every prolonged action
        shares."""
        held = [{n for k in r for n, _ in unpack(k, WIDTH)}
                for r in self.polys]
        return tuple(tuple((v, derivative(r, VAR[v])) for v in _SLOTS
                           if VAR[v] in h) for r, h in zip(self.polys, held))

    @cached_property
    def jet_coords(self) -> tuple:
        """Every coordinate of the full 2-jet space over these deps,
        sorted."""
        return tuple(sorted([INDEX_COORD[i] for i in self.deps] + [
            atom_name(funcsym(*v, self.deps)) for v in _jets(self.deps)]))

    @cached_property
    def free_coords(self) -> tuple:
        """The jet coordinates an on-shell draw samples: all but the
        designated ones."""
        solved = {n for n, _ in self.designated}
        return tuple(n for n in self.jet_coords if n not in solved)


_SYS2_TEXT = (
    "a_11 - b_22",
    "b_12 + c_11",
    "a_12 + c_22",
    "a_1*c_2 + a_2*b_2 - a_2*c_1 - c_2^2 + 2*c*a_12 + b*a_22 - a*c_12",
    "a_2*b_1 - c_1*c_2 + c*a_11 - a*c_11 - c*c_12 - b*c_22",
    "a_1*b_1 - b_1*c_2 + b_2*c_1 - c_1^2 + a*b_11 + 2*c*b_12 - b*c_12",
)

# E = M r: each Einstein component of the metric on (a, b, c), by its
# geometry.EINSTEIN_LABELS label, as a combination of the residuals
# r1..r6 of system_a7(), {residual number: coefficient text}. The
# components not listed (xx, xt, tt) vanish identically.
EINSTEIN_M = {
    "xy": {1: "1/4"},
    "xz": {2: "1/2"},
    "ty": {3: "1/2"},
    "tz": {1: "-1/4"},
    "yy": {1: "a/4", 4: "1/2"},
    "yz": {1: "c/4", 5: "-1/2"},
    "zz": {1: "-b/4", 6: "1/2"},
}

_SYS4_EXTRA = {
    3: " - 2*a_24 + 2*c_23",
    4: " - a_14 - b_23 + c_13 + c_24",
    5: " - 2*b_13 + 2*c_14",
}


@cache
def system2() -> PDESystem:
    funcs = {f: PLANE_DEPS for f in FIBER}
    residuals = tuple(parse(s, functions=funcs) for s in _SYS2_TEXT)
    designated = (("a_11", 0), ("c_11", 1), ("c_22", 2),
                  ("c_12", 4), ("a_22", 3), ("b_11", 5))
    return PDESystem("plane", residuals, PLANE_DEPS, designated)


@cache
def system_a7() -> PDESystem:
    funcs = {f: ALL_DEPS for f in FIBER}
    residuals = tuple(
        parse(s + _SYS4_EXTRA.get(i, ""), functions=funcs)
        for i, s in enumerate(_SYS2_TEXT))
    designated = (("a_11", 0), ("c_11", 1), ("c_22", 2),
                  ("a_24", 3), ("a_14", 4), ("b_13", 5))
    return PDESystem("full", residuals, ALL_DEPS, designated)


class JetPoint(namedtuple("JetPoint", "values")):
    """values: atom name -> float."""

    __slots__ = ()

    def residuals(self, sys: PDESystem) -> list:
        return [eval_expr(r, self.values) for r in sys.residuals]


def on_shell_sample(seed: int, sys: PDESystem | None = None,
                    rng: random.Random | None = None) -> JetPoint:
    """One random jet satisfying every residual of the system: free
    coordinates uniform on [0.5, 2.0], the designated ones from the
    on-shell map, whose denominators a, b, c meet no evaluation guard."""
    sys = sys or system2()
    rng = rng or random.Random(seed)
    values = {n: rng.uniform(0.5, 2.0) for n in sys.free_coords}
    values.update({atom_name(jet_atoms(sys.deps)[n]):
                   probe_sum(p, sys.deps).scaled(values)[0]
                   for n, p in sys.on_shell.items()})
    return JetPoint(values)


def on_shell_points(n: int, seed: int,
                    sys: PDESystem | None = None) -> tuple:
    """``n`` on-shell jets drawn in turn from ``random.Random(seed)``;
    each (n, seed, system) set is drawn once and kept."""
    return _drawn(n, seed, sys or system2())


@cache
def _drawn(n: int, seed: int, sys: PDESystem) -> tuple:
    rng = random.Random(seed)
    return tuple(on_shell_sample(0, sys, rng) for _ in range(n))


# --- prolongation -----------------------------------------------------------

# The plane jets in the order each is prolonged (a multi-index after the
# one it extends), and with x and t the variables of a prolongation.
_JET_SLOTS = tuple(_jets(PLANE_DEPS))
_SLOTS = ("x", "t") + _JET_SLOTS


def _step(phi_j: dict, i: int, dxi: tuple, fname: str, j: tuple) -> dict:
    """phi^{J,i} from phi^J, with dxi = (D_i xi^x, D_i xi^t)."""
    terms = [(total_diff(phi_j, i), 1)]
    for k in (1, 2):
        u = UNIT[VAR[fname, tuple(sorted(j + (k,)))]]
        terms.append(({m + u: c for m, c in dxi[k - 1].items()}, -1))
    return padd(*terms)


def prolong2(v) -> dict:
    """pr^(2) of a ``liealg.VectorField`` v: variable in _SLOTS -> its
    coefficient (xi^x, xi^t, then phi^J), as jet polynomials; ExprError
    for a coefficient that ``jet_poly`` refuses or that holds a jet of
    a, b or c, whose derivatives would pass second order."""
    phi = {"x": jet_poly(v.coeffs[0]), "t": jet_poly(v.coeffs[1])}
    dxi = {i: (total_diff(phi["x"], i), total_diff(phi["t"], i))
           for i in (1, 2)}
    for fname, j in _JET_SLOTS:
        if j:  # phi^{J,i} from phi^J, where J + (i,) = j
            phi[fname, j] = _step(phi[fname, j[:-1]], j[-1], dxi[j[-1]],
                                  fname, j[:-1])
        else:
            phi[fname, j] = jet_poly(v.coeffs[2 + FIBER.index(fname)])
    return phi


def prolonged_action(pro: dict, partials: tuple) -> dict:
    """pr v of a residual from its ``partials``: xi^x dR/dx + xi^t dR/dt
    + sum over J of phi^J dR/du_J."""
    return padd(*[(pmul(pro[v], d), 1) for v, d in partials])


# --- on-shell symmetry verification ----------------------------------------

class SymmetryCell(namedtuple(
        "SymmetryCell", "generator equation max_residual passed witness exact",
        defaults=(None, False))):
    __slots__ = ()


class SymmetryReport(namedtuple("SymmetryReport",
                                "generator cells samples tol")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cells)

    @property
    def max_residual(self) -> float:
        return max(c.max_residual for c in self.cells)


def symmetry_check(v, sys: PDESystem | None = None,
                   samples: int = 100, tol: float = 1e-8,
                   seed: int = 42, label: str = "") -> SymmetryReport:
    """Decide pr v(R_k) = 0, for a ``liealg.VectorField`` v, on the
    solution set for every residual R_k: each cell is empty for a
    symmetry; another is nonzero, and the probe (``samples`` draws from
    ``seed``) finds its residual and witness. ``tol`` is reported only."""
    sys = sys or system2()
    pro = prolong2(v)
    cells = []
    for k, partials in enumerate(sys.partials):
        res = verdict(sys.solved(prolonged_action(pro, partials)), sys.deps,
                      samples, seed)
        cells.append(SymmetryCell(label, k, res.max_residual, bool(res),
                                  res.witness,
                                  res.verdict == ZERO_SYMBOLIC))
    return SymmetryReport(label, cells, samples, tol)
