"""Reference algebra table: the bracket, decomposition and structure
constants of ``liealg`` as the kit built them before it computed them on
jet polynomials.

A bracket is taken on the expression trees, with ``VectorField.apply``
(one ``partial`` per coefficient and coordinate). A field is flattened
into {(component, monomial): Fraction} with ``expand_monomials``, and
decomposed against the basis by an exact elimination over the union of
all the monomial keys, one right-hand side at a time
(``reference_linalg.solve_exact``).
"""

from walkerkit.expr import ExprError, add, expand_monomials, neg
from walkerkit.liealg import (
    BASIS, DIM, NotClosed, StructureConstants, VectorField,
)

import reference_linalg


def bracket(v, w):
    return VectorField(tuple(
        add(v.apply(w.coeffs[k]), neg(w.apply(v.coeffs[k])))
        for k in range(5)))


def component_monomials(v):
    """Flatten a field into {(component, monomial): Fraction}."""
    return {(k, mono): c for k, cf in enumerate(v.coeffs)
            for mono, c in expand_monomials(cf).items()}


def decompose_all(fields):
    """Coordinates of each field in the basis, exact. Raises NotClosed
    when any field leaves the span."""
    cols = [component_monomials(b) for b in BASIS]
    targets = [component_monomials(v) for v in fields]
    keys = sorted(set().union(*cols, *targets))
    rows = [[c.get(key, 0) for c in cols] for key in keys]
    out = []
    for t in targets:
        x = reference_linalg.solve_exact(rows, [t.get(key, 0) for key in keys])
        if x is None:
            raise NotClosed("field does not decompose in the basis")
        out.append(x)
    return out


def structure_constants():
    """The table from the 49 tree brackets of the basis."""
    pairs = [(j, k) for j in range(DIM) for k in range(DIM)]
    coords = decompose_all([bracket(BASIS[j], BASIS[k]) for j, k in pairs])
    nonzero = {}
    for (j, k), cs in zip(pairs, coords):
        if any(v.denominator != 1 for v in cs):
            raise ExprError(f"[X{j + 1},X{k + 1}] is not integral")
        row = {i: int(v) for i, v in enumerate(cs) if v}
        if row:
            nonzero[(j, k)] = row
    return StructureConstants(nonzero)
