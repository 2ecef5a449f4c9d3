"""Reference jet layer: prolongation, the on-shell map and the prolonged
actions built as expression trees.

This is how the kit verified symmetries before it computed them as jet
polynomials: ``prolong2`` runs the total-derivative recursion
phi^{J,i} = D_i phi^J - sum_k (D_i xi^k) u_{J,k} with ``diff``, the
prolonged action takes ``partial`` of each residual, and ``on_shell``
solves each residual for its designated jet with ``partial``,
``substitute`` and ``div``. The tests compare the jet polynomials of
``walkerkit.jets`` with these trees after expansion.
"""

from collections import namedtuple
from functools import cache
from types import MappingProxyType

from walkerkit.expr import (
    PLANE_DEPS, INDEX_COORD, ZERO, Expr, ExprError, add, coord, diff, div,
    free_atoms, funcsym, is_zero_symbolic, mul, neg, partial, substitute,
    substitute_all,
)
from walkerkit.jets import FIBER

# The (fiber, multi-index) keys of a prolongation's phi, in the order
# each is built: a multi-index comes after the one it extends.
JET_SLOTS = tuple((f, j) for f in FIBER
                  for j in ((), (1,), (2,), (1, 1), (1, 2), (2, 2)))


class Prolongation(namedtuple("Prolongation", "xi phi")):
    """xi: base coefficients on (x, t); phi: (func, index tuple) -> Expr."""

    __slots__ = ()


def parse_atom(name: str, deps: tuple):
    base, _, idx = name.partition("_")
    return funcsym(base, tuple(int(ch) for ch in idx), deps)


def on_shell(sys) -> MappingProxyType:
    """Designated jet atom -> its value on the solution set, as trees.

    Each residual is solved in ``designated`` order for its atom (it is
    linear in it), and the solution is substituted back into the earlier
    ones. Every residual must then cancel exactly."""
    solved: dict = {}
    for name, k in sys.designated:
        atom = parse_atom(name, sys.deps)
        r = substitute(sys.residuals[k], solved)
        coeff = partial(r, atom)
        if coeff == ZERO or atom in free_atoms(coeff):
            raise ExprError(f"residual {k + 1} is not linear in {name}")
        value = neg(div(substitute(r, {atom: ZERO}), coeff))
        solved = dict(zip(solved, substitute_all(solved.values(),
                                                 {atom: value})))
        solved[atom] = value
    for k, r in enumerate(substitute_all(sys.residuals, solved)):
        if not is_zero_symbolic(r):
            raise ExprError(f"residual {k + 1} does not vanish on the "
                            "solved jet")
    return MappingProxyType(solved)


def _step(phi_j: Expr, xi: tuple, fname: str, j: tuple, i: int,
          deps: tuple) -> Expr:
    v = INDEX_COORD[i]
    terms = [diff(phi_j, v)]
    for k in (1, 2):
        dxi = diff(xi[k - 1], v)
        u = funcsym(fname, tuple(sorted(j + (k,))), deps)
        terms.append(neg(mul(dxi, u)))
    return add(*terms)


def prolong2(v, deps: tuple = PLANE_DEPS) -> Prolongation:
    xi = (v.coeffs[0], v.coeffs[1])
    phi = {}
    for fname, j in JET_SLOTS:
        if j:  # phi^{J,i} from phi^J, where J + (i,) = j
            phi[(fname, j)] = _step(phi[(fname, j[:-1])], xi, fname,
                                    j[:-1], j[-1], deps)
        else:
            phi[(fname, j)] = v.coeffs[2 + FIBER.index(fname)]
    return Prolongation(xi, phi)


@cache
def jet_partials(residual: Expr, deps: tuple) -> tuple:
    """(d/dx, d/dt, {(fiber, j): d/du^fiber_j}) of one residual. A slot
    whose atom the residual does not hold is ZERO, with no ``partial``
    call."""
    held = free_atoms(residual)
    dx, dt, *slots = (partial(residual, u) if u in held else ZERO for u in (
        coord("x"), coord("t"), *(funcsym(f, j, deps) for f, j in JET_SLOTS)))
    return dx, dt, MappingProxyType(dict(zip(JET_SLOTS, slots)))


def prolonged_action(pro: Prolongation, residual: Expr,
                     deps: tuple = PLANE_DEPS) -> Expr:
    """pr v applied to a residual, as one expression over jet atoms:
    xi^x dR/dx + xi^t dR/dt + sum over J of phi^J dR/du_J."""
    dx, dt, slots = jet_partials(residual, deps)
    terms = [mul(pro.xi[0], dx), mul(pro.xi[1], dt)]
    terms.extend(mul(ph, slots[key]) for key, ph in pro.phi.items())
    return add(*terms)


def symmetry_cells(v, sys) -> list:
    """The prolonged action of ``v`` on each residual of ``sys`` with the
    tree on-shell map substituted."""
    pro = prolong2(v, sys.deps)
    return substitute_all(
        [prolonged_action(pro, r, sys.deps) for r in sys.residuals],
        on_shell(sys))
