"""Reference curvature: the tree-built Ricci tensor and Einstein
components, the curvature tables read back from them, and
``geometry.einstein_verdicts`` as it was before it decided the
components from the metric's jets.

``ricci`` builds the Christoffel symbols and the Ricci tensor of any
metric as expression trees with ``diff``, ``mul`` and ``add``; it is how
the kit built the abstract curvature before it computed it as jet
polynomials, and ``collected_curvature`` is that abstract curvature,
each component expanded and rebuilt as a sum of monomials.
``abstract_curvature`` builds the same trees from the jet polynomials of
``geometry.ricci``, and ``tables`` reads the curvature tables back out
of such trees, as ``geometry.curvature_tables`` did before it read them
from the jet polynomials.

The verdicts substitute the coefficients into the collected abstract
components, which builds each component as a normalized expression
tree, and give each tree the three-valued zero test: exact cancellation
of its own expansion first, then a probe whose residual is scaled by the
terms of the substituted tree.
"""

from fractions import Fraction
from functools import cache

from walkerkit import geometry, jets
from walkerkit.expr import (
    ALL_DEPS, ZERO, ONE, Num, Pow, Sum, add, diff, funcsym, is_zero, mul,
    neg, num, substitute_all,
)
from walkerkit.expr.expand import expand_poly
from walkerkit.expr.nodes import _coeff_factors
from walkerkit.geometry import (
    COORDS, N, CurvatureBundle, CurvatureTables, Metric4, build_metric,
)


def abstract_functions():
    """a, b and c as function symbols on all four coordinates."""
    return tuple(funcsym(f, (), ALL_DEPS) for f in ("a", "b", "c"))


def inverse_metric(g):
    a = g.rows[2][2]
    b = g.rows[3][3]
    c = g.rows[2][3]
    z, o = ZERO, ONE
    rows = (
        (neg(a), neg(c), o, z),
        (neg(c), neg(b), z, o),
        (o, z, z, z),
        (z, o, z, z),
    )
    return Metric4(rows)


def ricci(g):
    """Christoffel symbols, Ricci tensor and scalar curvature of ``g`` as
    expression trees.

    gamma^k_ij = (1/2) g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)
    R_ij = d_k gamma^k_ij - d_j gamma^k_ik
           + gamma^k_kl gamma^l_ij - gamma^k_jl gamma^l_ik

    R_ij is built for i <= j only and ricci[j][i] is the same node as
    ricci[i][j]. A constant metric entry or a ZERO Christoffel symbol is
    never differentiated, and no product with a ZERO factor is built.
    """
    inv = inverse_metric(g)
    half = num(Fraction(1, 2))

    def d(i, e):
        return ZERO if type(e) is Num else diff(e, COORDS[i])

    gamma = [[[ZERO] * N for _ in range(N)] for _ in range(N)]
    for k in range(N):
        for i in range(N):
            for j in range(i, N):
                terms = []
                for l in range(N):
                    if inv.rows[k][l] == ZERO:
                        continue
                    inner = add(d(i, g.rows[j][l]), d(j, g.rows[i][l]),
                                neg(d(l, g.rows[i][j])))
                    if inner != ZERO:
                        terms.append(mul(inv.rows[k][l], inner))
                val = add(*terms)
                if val != ZERO:
                    val = mul(half, val)
                gamma[k][i][j] = val
                gamma[k][j][i] = val

    ric = [[ZERO] * N for _ in range(N)]
    for i in range(N):
        for j in range(i, N):
            terms = []
            for k in range(N):
                if gamma[k][i][j] != ZERO:
                    terms.append(d(k, gamma[k][i][j]))
                if gamma[k][i][k] != ZERO:
                    terms.append(neg(d(j, gamma[k][i][k])))
            for k in range(N):
                for l in range(N):
                    p, q = gamma[k][k][l], gamma[l][i][j]
                    if p != ZERO and q != ZERO:
                        terms.append(mul(p, q))
                    p, q = gamma[k][j][l], gamma[l][i][k]
                    if p != ZERO and q != ZERO:
                        terms.append(neg(mul(p, q)))
            ric[i][j] = ric[j][i] = add(*terms)

    tau = add(*[mul(inv.rows[i][j], ric[i][j])
                for i in range(N) for j in range(N)
                if inv.rows[i][j] != ZERO and ric[i][j] != ZERO])
    freeze = tuple(tuple(tuple(row) for row in plane) for plane in gamma)
    return CurvatureBundle(freeze, tuple(tuple(r) for r in ric), tau)


def einstein_residual(g):
    """E_ij = R_ij - (tau/4) g_ij, the ten upper-triangle components,
    ordered as EINSTEIN_LABELS."""
    return _trace_adjusted(g, ricci(g))


def _trace_adjusted(g, bundle):
    quarter = num(Fraction(1, 4))
    return tuple(add(bundle.ricci[i][j],
                     neg(mul(quarter, bundle.tau, g.rows[i][j])))
                 for i in range(N) for j in range(i, N))


def collected_curvature():
    """(Ricci, Einstein) components of the metric on the abstract a, b,
    c, ordered as EINSTEIN_LABELS: the tree components, each expanded and
    rebuilt as its sum of monomials."""
    g = build_metric(*abstract_functions())
    bundle = ricci(g)
    ric = [bundle.ricci[i][j] for i in range(N) for j in range(i, N)]
    return (tuple(expand_poly(e).to_expr() for e in ric),
            tuple(expand_poly(e).to_expr()
                  for e in _trace_adjusted(g, bundle)))


@cache
def abstract_curvature():
    """(Ricci, Einstein) components of the metric on the abstract a, b,
    c, ordered as EINSTEIN_LABELS: the jet polynomials of
    ``geometry.ricci`` and ``geometry.einstein_residual`` as trees."""
    bundle = geometry.ricci()
    ric = [bundle.ricci[i][j] for i in range(N) for j in range(i, N)]
    return (tuple(map(jets.to_expr, ric)),
            tuple(map(jets.to_expr, geometry.einstein_residual(bundle))))


def tables(curvature):
    """The ``CurvatureTables`` of collected (Ricci, Einstein) trees: each
    term a monomial, its jets numbered in the order the terms first hold
    them."""
    monomials = [[[(c, [(f.base, f.exp.numerator) if type(f) is Pow
                        else (f, 1) for f in factors])
                   for c, factors in map(_coeff_factors, _terms(e))]
                  for e in comps]
                 for comps in curvature]
    jet_atoms = {f: None for comps in monomials for comp in comps
                 for _, factors in comp for f, _ in factors}
    index = {f: k for k, f in enumerate(jet_atoms)}
    ricci, einstein = (
        tuple(tuple((c, tuple((index[f], n) for f, n in factors))
                    for c, factors in comp)
              for comp in comps)
        for comps in monomials)
    return CurvatureTables(tuple(jet_atoms), ricci, einstein)


def _terms(e):
    return e.terms if type(e) is Sum else () if e == ZERO else (e,)


def on_metric(exprs, a, b, c):
    """Abstract curvature expressions on the metric with coefficients
    a, b, c; one substitution, so the expressions share each derivative
    of a, b and c."""
    return substitute_all(exprs, {"a": a, "b": b, "c": c})


def einstein_verdicts(a, b, c, samples=64, tol=1e-9, seed=0):
    _, einstein = abstract_curvature()
    return [is_zero(e, samples=samples, tol=tol, seed=seed)
            for e in on_metric(einstein, a, b, c)]


def ricci_verdicts(a, b, c, samples=64, tol=1e-9, seed=0):
    ricci, _ = abstract_curvature()
    return [is_zero(e, samples=samples, tol=tol, seed=seed)
            for e in on_metric(ricci, a, b, c)]
