"""Second-order jet layer over the plane, with the fiber (a, b, c).

Jet coordinates are the function symbols themselves: a_1 is the first
x-derivative atom, a_12 the mixed one, so total derivatives are plain
diff() calls. Prolongation follows the total-derivative recursion
phi^{J,i} = D_i phi^J - sum_k (D_i xi^k) u^{J,k}.

Symmetry verification is numeric on designated-solve points: the six
residuals are solved for one leading derivative each, every other jet
coordinate is sampled, and the prolonged action is required to vanish
relative to the size of its own terms.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cache, cached_property
from types import MappingProxyType

from .expr import (
    ALL_DEPS, EvalGuard, Expr, ExprError, PLANE_DEPS, atom_name,
    compile_expr, coord, diff, add, eval_expr, funcsym, mul,
    neg, parse, partial, INDEX_COORD,
)
from .liealg import VectorField

FIBER = ("a", "b", "c")

PIVOT_GUARD = 1e-3
RESIDUAL_TOL = 1e-12
MAX_TRIES = 100


@dataclass(frozen=True)
class PDESystem:
    """Residual expressions plus the designated-solve recipe."""

    name: str
    residuals: tuple
    deps: tuple
    designated: tuple  # ((atom name, residual index), ...) in solve order

    @cached_property
    def compiled_residuals(self) -> tuple:
        """compile_expr of each residual, built at first use."""
        return tuple(compile_expr(r) for r in self.residuals)

    @cached_property
    def pivots(self) -> tuple:
        """(atom name, residual index, compiled d residual / d atom) in
        solve order; each residual is linear in its designated atom."""
        return tuple((name, k, compile_expr(partial(
                          self.residuals[k], _parse_atom(name, self.deps))))
                     for name, k in self.designated)

    @cached_property
    def jet_coords(self) -> tuple:
        """Every coordinate of the full 2-jet space over these deps,
        sorted."""
        names = [INDEX_COORD[i] for i in self.deps]
        for f in FIBER:
            names.append(f)
            names.extend(atom_name(funcsym(f, (i,), self.deps))
                         for i in self.deps)
            names.extend(atom_name(funcsym(f, (i, j), self.deps))
                         for i in self.deps for j in self.deps if i <= j)
        return tuple(sorted(names))

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


@dataclass(frozen=True)
class JetPoint:
    values: dict  # atom name -> float

    def residuals(self, sys: PDESystem) -> list:
        return [eval_expr(r, self.values) for r in sys.residuals]


def _parse_atom(name: str, deps: tuple):
    base, _, idx = name.partition("_")
    return funcsym(base, tuple(int(ch) for ch in idx), deps)


def on_shell_sample(seed: int, sys: PDESystem | None = None,
                    rng: random.Random | None = None,
                    targets: dict | None = None) -> JetPoint:
    """One random jet satisfying every residual of the system.

    Free coordinates are uniform on [0.5, 2.0]; each designated leading
    derivative is solved from its residual, which is linear in it. Small
    pivots trigger a full resample. ``targets`` maps a residual index to
    a prescribed value instead of zero; the designated solve order is
    triangular, so later residuals stay exact.
    """
    sys = sys or system2()
    rng = rng or random.Random(seed)
    targets = targets or {}
    for _ in range(MAX_TRIES):
        values = {n: rng.uniform(0.5, 2.0) for n in sys.free_coords}
        ok = True
        for name, k, coeff_f in sys.pivots:
            values[name] = 0.0
            try:
                coeff = coeff_f(values)[0]
                base = sys.compiled_residuals[k](values)[0]
            except EvalGuard:
                ok = False
                break
            if abs(coeff) < PIVOT_GUARD:
                ok = False
                break
            values[name] = (targets.get(k, 0.0) - base) / coeff
        if not ok:
            continue
        scaled = [f(values) for f in sys.compiled_residuals]
        if all(abs(res - targets.get(k, 0.0)) / scale <= RESIDUAL_TOL
               for k, (res, scale) in enumerate(scaled)):
            return JetPoint(values)
    raise ExprError("could not draw an on-shell jet within the retry budget")


def on_shell_points(n: int, seed: int,
                    sys: PDESystem | None = None) -> tuple:
    """``n`` on-shell jets drawn in turn from ``random.Random(seed)``.

    Each (n, seed, system) set is drawn once and shared, so the checks of
    several generators at one seed evaluate at the same jets without
    redrawing them."""
    return _drawn(n, seed, sys or system2())


@cache
def _drawn(n: int, seed: int, sys: PDESystem) -> tuple:
    rng = random.Random(seed)
    return tuple(on_shell_sample(0, sys, rng) for _ in range(n))


# --- prolongation -----------------------------------------------------------

# The (fiber, multi-index) keys of a prolongation's phi, in the order
# each is built: a multi-index comes after the one it extends.
_JET_SLOTS = tuple((f, j) for f in FIBER
                   for j in ((), (1,), (2,), (1, 1), (1, 2), (2, 2)))


@dataclass(frozen=True)
class Prolongation:
    """xi: base coefficients on (x, t); phi: (func, index tuple) -> Expr."""

    xi: tuple
    phi: dict


def _step(phi_j: Expr, xi: tuple, fname: str, j: tuple, i: int,
          deps: tuple) -> Expr:
    v = INDEX_COORD[i]
    terms = [diff(phi_j, v)]
    for k in (1, 2):
        dxi = diff(xi[k - 1], v)
        u = funcsym(fname, tuple(sorted(j + (k,))), deps)
        terms.append(neg(mul(dxi, u)))
    return add(*terms)


def prolong2(v: VectorField, deps: tuple = PLANE_DEPS) -> Prolongation:
    xi = (v.coeffs[0], v.coeffs[1])
    phi = {}
    for fname, j in _JET_SLOTS:
        if j:  # phi^{J,i} from phi^J, where J + (i,) = j
            phi[(fname, j)] = _step(phi[(fname, j[:-1])], xi, fname,
                                    j[:-1], j[-1], deps)
        else:
            phi[(fname, j)] = v.coeffs[2 + FIBER.index(fname)]
    return Prolongation(xi, phi)


@cache
def _jet_partials(residual: Expr, deps: tuple) -> tuple:
    """(d/dx, d/dt, {(fiber, j): d/du^fiber_j}) of one residual. No
    generator enters them, so they are taken once per (residual, deps)
    and every prolonged action on that residual shares them."""
    return (partial(residual, coord("x")), partial(residual, coord("t")),
            MappingProxyType({(f, j): partial(residual, funcsym(f, j, deps))
                              for f, j in _JET_SLOTS}))


def prolonged_action(pro: Prolongation, residual: Expr,
                     deps: tuple = PLANE_DEPS) -> Expr:
    """pr v applied to a residual, as one expression over jet atoms:
    xi^x dR/dx + xi^t dR/dt + sum over J of phi^J dR/du_J."""
    dx, dt, slots = _jet_partials(residual, deps)
    terms = [mul(pro.xi[0], dx), mul(pro.xi[1], dt)]
    terms.extend(mul(ph, slots[key]) for key, ph in pro.phi.items())
    return add(*terms)


# --- on-shell symmetry verification ----------------------------------------

@dataclass
class SymmetryCell:
    generator: str
    equation: int
    max_residual: float
    passed: bool
    witness: dict | None = None


@dataclass
class SymmetryReport:
    generator: str
    cells: list
    samples: int
    tol: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cells)

    @property
    def max_residual(self) -> float:
        return max(c.max_residual for c in self.cells)


def symmetry_check(v: VectorField, sys: PDESystem | None = None,
                   samples: int = 100, tol: float = 1e-8,
                   seed: int = 42, label: str = "") -> SymmetryReport:
    """Evaluate the prolonged action of v on every residual at seeded
    on-shell jets; each cell passes when the worst scaled residual stays
    under tol. A non-finite residual counts as infinite: the cell fails
    with the first such jet as the witness."""
    sys = sys or system2()
    points = on_shell_points(samples, seed, sys)
    pro = prolong2(v, sys.deps)
    cells = []
    for k, r in enumerate(sys.residuals):
        action = compile_expr(prolonged_action(pro, r, sys.deps))
        worst = 0.0
        witness = None
        for p in points:
            value, scale = action(p.values)
            val = abs(value) / scale
            if not val <= worst:  # true for NaN, where val > worst is not
                witness = p.values
                if math.isnan(val):
                    worst = math.inf
                    break
                worst = val
        ok = worst < tol
        cells.append(SymmetryCell(label, k, worst, ok,
                                  None if ok else witness))
    return SymmetryReport(label, cells, samples, tol)
