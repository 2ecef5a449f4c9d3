"""Second-order jet layer over the plane, with the fiber (a, b, c).

Jet coordinates are the function symbols themselves: a_1 is the first
x-derivative atom, a_12 the mixed one, so total derivatives are plain
diff() calls. Prolongation follows the total-derivative recursion
phi^{J,i} = D_i phi^J - sum_k (D_i xi^k) u^{J,k}.

Symmetry verification is exact on the solved jet: each residual is
solved for one leading derivative, the solutions are substituted into
the prolonged action, and the result must cancel (the infinitesimal
invariance criterion, Olver, Applications of Lie Groups to Differential
Equations, 1986, Thm 2.31).
"""

from __future__ import annotations

import random
from collections import namedtuple
from functools import cache, cached_property
from types import MappingProxyType

from .expr import (
    ALL_DEPS, Expr, ExprError, PLANE_DEPS, ZERO, ZERO_SYMBOLIC,
    atom_name, coord, diff, add, div, eval_expr, free_atoms, funcsym,
    is_zero, is_zero_symbolic, mul, neg, parse, partial, substitute,
    substitute_all, INDEX_COORD,
)
from .liealg import VectorField

FIBER = ("a", "b", "c")


class PDESystem(namedtuple("PDESystem", "name residuals deps designated")):
    """Residual expressions plus the designated-solve recipe:
    ``designated`` is ((atom name, residual index), ...) in solve order.

    No ``__slots__``: the cached properties below live in the instance
    ``__dict__``."""

    @cached_property
    def on_shell(self) -> MappingProxyType:
        """Designated jet atom -> its value on the solution set, in the
        free coordinates, built at first use.

        Each residual is solved in ``designated`` order for its atom (it
        is linear in it), and the solution is substituted back into the
        earlier ones. Every residual must then cancel exactly."""
        solved: dict = {}
        for name, k in self.designated:
            atom = _parse_atom(name, self.deps)
            r = substitute(self.residuals[k], solved)
            coeff = partial(r, atom)
            if coeff == ZERO or atom in free_atoms(coeff):
                raise ExprError(f"residual {k + 1} is not linear in {name}")
            value = neg(div(substitute(r, {atom: ZERO}), coeff))
            solved = dict(zip(solved, substitute_all(solved.values(),
                                                     {atom: value})))
            solved[atom] = value
        for k, r in enumerate(substitute_all(self.residuals, solved)):
            if not is_zero_symbolic(r):
                raise ExprError(f"residual {k + 1} does not vanish on the "
                                "solved jet")
        return MappingProxyType(solved)

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


def _parse_atom(name: str, deps: tuple):
    base, _, idx = name.partition("_")
    return funcsym(base, tuple(int(ch) for ch in idx), deps)


def on_shell_sample(seed: int, sys: PDESystem | None = None,
                    rng: random.Random | None = None) -> JetPoint:
    """One random jet satisfying every residual of the system: free
    coordinates uniform on [0.5, 2.0], the designated ones evaluated
    from the on-shell map. The pivots of both systems are constants or
    one of a, b, c, so no evaluation guard is met."""
    sys = sys or system2()
    rng = rng or random.Random(seed)
    values = {n: rng.uniform(0.5, 2.0) for n in sys.free_coords}
    values.update({atom_name(a): eval_expr(v, values)
                   for a, v in sys.on_shell.items()})
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

# The (fiber, multi-index) keys of a prolongation's phi, in the order
# each is built: a multi-index comes after the one it extends.
_JET_SLOTS = tuple((f, j) for f in FIBER
                   for j in ((), (1,), (2,), (1, 1), (1, 2), (2, 2)))


class Prolongation(namedtuple("Prolongation", "xi phi")):
    """xi: base coefficients on (x, t); phi: (func, index tuple) -> Expr."""

    __slots__ = ()


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
    and every prolonged action on that residual shares them. A slot whose
    atom the residual does not hold is ZERO, with no ``partial`` call."""
    held = free_atoms(residual)
    dx, dt, *slots = (partial(residual, u) if u in held else ZERO for u in (
        coord("x"), coord("t"), *(funcsym(f, j, deps) for f, j in _JET_SLOTS)))
    return dx, dt, MappingProxyType(dict(zip(_JET_SLOTS, slots)))


def prolonged_action(pro: Prolongation, residual: Expr,
                     deps: tuple = PLANE_DEPS) -> Expr:
    """pr v applied to a residual, as one expression over jet atoms:
    xi^x dR/dx + xi^t dR/dt + sum over J of phi^J dR/du_J."""
    dx, dt, slots = _jet_partials(residual, deps)
    terms = [mul(pro.xi[0], dx), mul(pro.xi[1], dt)]
    terms.extend(mul(ph, slots[key]) for key, ph in pro.phi.items())
    return add(*terms)


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


def symmetry_check(v: VectorField, sys: PDESystem | None = None,
                   samples: int = 100, tol: float = 1e-8,
                   seed: int = 42, label: str = "") -> SymmetryReport:
    """Decide pr v(R_k) = 0 on the solution set for every residual R_k:
    the zero test of the prolonged action with the on-shell map
    substituted. A symmetry cancels exactly; a cell that does not takes
    its residual and witness point from the probe."""
    sys = sys or system2()
    pro = prolong2(v, sys.deps)
    actions = substitute_all(
        [prolonged_action(pro, r, sys.deps) for r in sys.residuals],
        sys.on_shell)
    cells = []
    for k, action in enumerate(actions):
        res = is_zero(action, samples=samples, tol=tol, seed=seed)
        cells.append(SymmetryCell(label, k, res.max_residual, bool(res),
                                  res.witness,
                                  res.verdict == ZERO_SYMBOLIC))
    return SymmetryReport(label, cells, samples, tol)
