"""Reference curvature verdicts: ``geometry.einstein_verdicts`` as it was
before it decided the components from the metric's jets.

It substitutes the coefficients into the collected abstract components,
which builds each component as a normalized expression tree, and gives
each tree the three-valued zero test: exact cancellation of its own
expansion first, then a probe whose residual is scaled by the terms of
the substituted tree.
"""

from walkerkit.expr import is_zero, substitute_all
from walkerkit.geometry import abstract_curvature


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
