"""Metric layer: the two-block null-plane metric, its curvature, and the
probe tying the trace-adjusted Ricci components to the second-order
residual system.

Coordinate order is (x, t, y, z), indices 1..4. The metric matrix is

    [[0, 0, 1, 0],
     [0, 0, 0, 1],
     [1, 0, a, c],
     [0, 1, c, b]]

with unit determinant and a polynomial closed-form inverse, so every
curvature expression stays denominator-free when a, b, c are abstract
function symbols.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .expr import (
    ALL_DEPS, Expr, INDEX_COORD, ZERO, ONE, add, compile_expr, diff,
    funcsym, is_zero, mul, neg, num, render, substitute_all,
)
from . import jets

N = 4
COORDS = tuple(INDEX_COORD[i] for i in (1, 2, 3, 4))

EINSTEIN_LABELS = tuple(
    COORDS[i] + COORDS[j] for i in range(N) for j in range(i, N))


@dataclass(frozen=True)
class Metric4:
    rows: tuple  # 4x4 nested tuples of Expr

    def is_symmetric(self) -> bool:
        return all(self.rows[i][j] == self.rows[j][i]
                   for i in range(N) for j in range(N))


@dataclass(frozen=True)
class CurvatureBundle:
    gamma: tuple   # gamma[k][i][j]
    ricci: tuple   # ricci[i][j]
    tau: Expr


def abstract_functions() -> tuple:
    return tuple(funcsym(f, (), ALL_DEPS) for f in ("a", "b", "c"))


def build_metric(a, b, c) -> Metric4:
    z, o = ZERO, ONE
    rows = (
        (z, z, o, z),
        (z, z, z, o),
        (o, z, a, c),
        (z, o, c, b),
    )
    return Metric4(rows)


def inverse_metric(g: Metric4) -> Metric4:
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


def metric_det_is_one(g: Metric4, seed: int = 0) -> bool:
    """Leibniz determinant minus one, tested for exact cancellation."""
    import itertools

    terms = []
    for perm in itertools.permutations(range(N)):
        sign = 1
        p = list(perm)
        for i in range(N):
            for j in range(i + 1, N):
                if p[i] > p[j]:
                    sign = -sign
        terms.append(mul(num(sign), *[g.rows[i][p[i]] for i in range(N)]))
    det = add(*terms)
    return bool(is_zero(add(det, num(-1)), seed=seed))


def ricci(g: Metric4) -> CurvatureBundle:
    """Christoffel symbols, Ricci tensor and scalar curvature.

    gamma^k_ij = (1/2) g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)
    R_ij = d_k gamma^k_ij - d_j gamma^k_ik
           + gamma^k_kl gamma^l_ij - gamma^k_jl gamma^l_ik
    """
    inv = inverse_metric(g)
    half = num(Fraction(1, 2))

    def d(i, e):
        return diff(e, COORDS[i])

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
                    terms.append(mul(inv.rows[k][l], inner))
                val = mul(half, add(*terms)) if terms else ZERO
                gamma[k][i][j] = val
                gamma[k][j][i] = val

    ric = [[ZERO] * N for _ in range(N)]
    for i in range(N):
        for j in range(N):
            terms = []
            for k in range(N):
                terms.append(d(k, gamma[k][i][j]))
                terms.append(neg(d(j, gamma[k][i][k])))
            for k in range(N):
                for l in range(N):
                    terms.append(mul(gamma[k][k][l], gamma[l][i][j]))
                    terms.append(neg(mul(gamma[k][j][l], gamma[l][i][k])))
            ric[i][j] = add(*terms)

    tau = add(*[mul(inv.rows[i][j], ric[i][j])
                for i in range(N) for j in range(N)
                if inv.rows[i][j] != ZERO])
    freeze = tuple(tuple(tuple(row) for row in plane) for plane in gamma)
    return CurvatureBundle(freeze, tuple(tuple(r) for r in ric), tau)


def einstein_residual(g: Metric4) -> tuple:
    """E_ij = R_ij - (tau/4) g_ij, the ten upper-triangle components,
    ordered as EINSTEIN_LABELS."""
    return _trace_adjusted(g, ricci(g))


def _trace_adjusted(g: Metric4, bundle: CurvatureBundle) -> tuple:
    quarter = num(Fraction(1, 4))
    return tuple(add(bundle.ricci[i][j],
                     neg(mul(quarter, bundle.tau, g.rows[i][j])))
                 for i in range(N) for j in range(i, N))


@cache
def abstract_curvature() -> tuple:
    """(Ricci, Einstein) components of the metric on the abstract a, b,
    c: ten upper-triangle expressions each, ordered as EINSTEIN_LABELS,
    built once per process.

    Every concrete metric's components are these with its coefficients
    substituted (``on_metric``): substitution closes under derivatives,
    so the atom a_13 becomes the xy-derivative of the given a, and Ricci
    is never rebuilt on a concrete metric.
    """
    g = build_metric(*abstract_functions())
    bundle = ricci(g)
    return (tuple(bundle.ricci[i][j] for i in range(N) for j in range(i, N)),
            _trace_adjusted(g, bundle))


def on_metric(exprs, a, b, c) -> tuple:
    """Abstract curvature expressions on the metric with coefficients
    a, b, c; one substitution, so the expressions share each derivative
    of a, b and c."""
    return substitute_all(exprs, {"a": a, "b": b, "c": c})


def einstein_verdicts(a, b, c, samples: int = 64, tol: float = 1e-9,
                      seed: int = 0) -> list:
    """Zero verdicts for the ten components of the metric built on the
    given coefficient expressions."""
    _, einstein = abstract_curvature()
    comps = on_metric(einstein, a, b, c)
    return [is_zero(e, samples=samples, tol=tol, seed=seed) for e in comps]


# --- correspondence probe ---------------------------------------------------

@dataclass
class EquivalenceReport:
    samples: int
    tol: float
    on_shell_max: float
    generic_min: float
    correspondence: dict
    single_violation_max: dict
    passed: bool
    failure: dict | None = None


def _eval_components(comps, values) -> list:
    """Scaled values of compiled components at one jet."""
    out = []
    for f in comps:
        value, scale = f(values)
        out.append(value / scale)
    return out


def equivalence_probe(samples: int = 100, tol: float = 1e-9,
                      seed: int = 42) -> EquivalenceReport:
    """Check both directions of the Einstein/PDE correspondence on the
    abstract metric: residual-satisfying 2-jets annihilate every E
    component, generic jets do not, and single-residual violations map
    to the components that respond."""
    _, einstein = abstract_curvature()
    comps = [compile_expr(e) for e in einstein]
    sys = jets.system_a7()
    rng = random.Random(seed)

    on_shell_max = 0.0
    failure = None
    for _ in range(samples):
        p = jets.on_shell_sample(0, sys, rng)
        vals = _eval_components(comps, p.values)
        worst = max(abs(v) for v in vals)
        if worst > on_shell_max:
            on_shell_max = worst
        if worst > tol and failure is None:
            failure = {"jet": p.values, "components": vals}

    generic_min = float("inf")
    for _ in range(samples):
        values = {n: rng.uniform(0.5, 2.0) for n in sys.jet_coords}
        worst = max(abs(v) for v in _eval_components(comps, values))
        generic_min = min(generic_min, worst)

    correspondence = {}
    single_violation_max = {}
    base = jets.on_shell_sample(7, sys)
    base_vals = _eval_components(comps, base.values)
    for k in range(len(sys.residuals)):
        bumped = jets.on_shell_sample(7, sys, targets={k: 0.5})
        vals = _eval_components(comps, bumped.values)
        moved = [EINSTEIN_LABELS[m] for m in range(len(comps))
                 if abs(vals[m] - base_vals[m]) > 1e-6]
        correspondence[f"residual_{k + 1}"] = moved
        single_violation_max[f"residual_{k + 1}"] = max(
            abs(v) for v in vals)

    passed = (failure is None and generic_min > 1e-4
              and all(v > 1e-4 for v in single_violation_max.values())
              and all(len(v) > 0 for v in correspondence.values()))
    return EquivalenceReport(samples, tol, on_shell_max, generic_min,
                             correspondence, single_violation_max, passed,
                             failure)


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
    g = build_metric(a, b, c)
    return [[render(e) for e in row] for row in g.rows]
