"""Guarded floating-point evaluation and the three-valued zero test.

Verdicts: ``zero_symbolic`` when the expansion cancels exactly,
``nonzero`` with a witness point when it is proven nonzero or a probe
exceeds the tolerance, ``zero_numeric`` when random probes stay below
it. Samples are drawn from [0.5, 2.0] so the positive-domain
conventions for roots and logarithms hold; sign symbols are drawn from
their value sets.
"""

from __future__ import annotations

import math
import random

from .expand import decide, expand_poly
from .nodes import (
    Atan, Coord, ExpF, Expr, ExprError, Func, Ln, Num, Param, Pow, Prod,
    SIGN_PARAMS, Sum, TERNARY_PARAMS, atom_name, free_atoms,
)

DENOM_GUARD = 1e-6
EXP_GUARD = 300.0
MAX_RESAMPLES = 50
# float ``**`` raises OverflowError where every other operation gives inf
POWER_OVERFLOW = "power overflow"

ZERO_SYMBOLIC = "zero_symbolic"
ZERO_NUMERIC = "zero_numeric"
NONZERO = "nonzero"


class EvalGuard(ArithmeticError):
    """Sample point hit a domain guard; resample."""


class EvalError(ExprError):
    """Evaluation impossible (missing value, guards exhausted)."""


def _float(q) -> float:
    """float(q) for a rational constant; EvalError beyond float range."""
    try:
        return float(q)
    except OverflowError:
        bits = q.numerator.bit_length() - q.denominator.bit_length()
        raise EvalError(f"constant of about 2^{bits} is beyond float "
                        "range") from None


def eval_expr(e: Expr, point: dict, memo: dict | None = None) -> float:
    """Evaluate at ``point`` (atom name -> float). Raises EvalGuard near
    singularities and outside real-root domains.

    Each distinct node is evaluated once: a subtree object reached along
    several paths is looked up in ``memo`` (node id -> value) after its
    first visit, so the floats and the arithmetic order are those of a
    walk of the whole tree, and a guard raises on the first visit.
    ``memo`` is internal: ``eval_scaled`` passes one across the terms of
    a sum, and a memo must not outlive the expression it was filled on,
    since ids of dead nodes are reused.
    """
    return _eval(e, point, {} if memo is None else memo)


def _eval(e: Expr, point: dict, memo: dict) -> float:
    te = type(e)
    if te is Num:
        return _float(e.value)
    key = id(e)
    v = memo.get(key)
    if v is not None:
        return v
    if te is Sum:
        v = sum(_eval(t, point, memo) for t in e.terms)
    elif te is Prod:
        v = _float(e.coeff)
        for f in e.factors:
            v *= _eval(f, point, memo)
    elif te is Pow:
        v = _eval_pow(_eval(e.base, point, memo), e.exp)
    elif te is Coord or te is Param or te is Func:
        name = atom_name(e)
        try:
            v = point[name]
        except KeyError:
            raise EvalError(f"no value for {name!r}") from None
    elif te is Ln:
        arg = _eval(e.arg, point, memo)
        if arg < DENOM_GUARD:
            raise EvalGuard("log argument not positive")
        v = math.log(arg)
    elif te is ExpF:
        arg = _eval(e.arg, point, memo)
        if arg > EXP_GUARD:
            raise EvalGuard("exponential overflow")
        v = math.exp(arg)
    elif te is Atan:
        v = math.atan(_eval(e.arg, point, memo))
    else:
        raise ExprError(f"cannot evaluate {e!r}")
    memo[key] = v
    return v


def _eval_pow(base: float, exp) -> float:
    if exp < 0 and abs(base) < DENOM_GUARD:
        raise EvalGuard("denominator too small")
    try:
        if exp.denominator == 1:
            return base ** exp.numerator
        if base < 0:
            if exp.denominator % 2 == 1:
                r = -((-base) ** (1.0 / exp.denominator))
                return r ** exp.numerator
            raise EvalGuard("even root of a negative value")
        return base ** _float(exp)
    except OverflowError:
        raise EvalGuard(POWER_OVERFLOW) from None


def sample_point(atoms, rng: random.Random) -> dict:
    """Random positive sample for every atom; sign symbols from their sets."""
    point = {}
    for a in sorted(atoms, key=lambda s: s.key()):
        name = atom_name(a)
        if isinstance(a, Param) and a.name in SIGN_PARAMS:
            point[name] = rng.choice((-1.0, 1.0))
        elif isinstance(a, Param) and a.name in TERNARY_PARAMS:
            point[name] = rng.choice((-1.0, 0.0, 1.0))
        else:
            point[name] = rng.uniform(0.5, 2.0)
    return point


def eval_scaled(e: Expr, point: dict) -> tuple:
    """(value, scale) at ``point``, evaluating each term of a sum once.

    ``scale`` is max(1, largest |term|) for a sum and 1 otherwise, so
    value / scale is a residual relative to the size of its own terms.
    The terms share one ``eval_expr`` memo, so a subtree common to
    several terms is evaluated once per point.
    """
    if isinstance(e, Sum):
        memo: dict = {}
        values = [eval_expr(t, point, memo) for t in e.terms]
        return sum(values), max(1.0, max(map(abs, values)))
    return eval_expr(e, point), 1.0


class MonomialSum:
    """A jet evaluator for ``probe_zero``: the sum of coefficient *
    prod(values[atom]^power) over the monomials of a table, read as
    ``expand.expand_tables`` reads one, evaluated at a point without
    building the sum as a tree.

    ``scaled(point)`` is (value, scale), where the scale is max(1,
    largest |monomial|), so the residual is relative to the size of the
    table's own monomials. The values share one ``eval_expr`` memo per
    point, so a subtree common to several of them is evaluated once. A
    negative power is guarded as in ``eval_expr``.
    """

    __slots__ = ("atoms", "monomials")

    def __init__(self, values, table):
        self.monomials = [(_float(c), [(values[a], n) for a, n in factors])
                          for c, factors in table]
        self.atoms = free_atoms(*[e for _, factors in self.monomials
                                  for e, _ in factors])

    def scaled(self, point: dict) -> tuple:
        memo: dict = {}
        terms = []
        for c, factors in self.monomials:
            for e, n in factors:
                v = eval_expr(e, point, memo)
                if n < 0:
                    c *= _eval_pow(v, n)
                for _ in range(n):
                    c *= v
            terms.append(c)
        return sum(terms), max(1.0, max(map(abs, terms), default=0.0))


class ZeroResult:
    """One zero test's verdict; a slotted class, not a tuple, because
    every zero test builds one and a tuple's ``__new__`` costs more."""

    __slots__ = ("verdict", "max_residual", "witness", "samples")

    def __init__(self, verdict: str, max_residual: float = 0.0,
                 witness: dict | None = None, samples: int = 0):
        self.verdict = verdict
        self.max_residual = max_residual
        self.witness = witness
        self.samples = samples

    def __bool__(self) -> bool:
        return self.verdict in (ZERO_SYMBOLIC, ZERO_NUMERIC)

    def describe(self) -> str:
        if self.verdict == ZERO_SYMBOLIC:
            return "zero (exact cancellation)"
        if self.verdict == ZERO_NUMERIC:
            return (f"zero (numeric, {self.samples} samples, "
                    f"max residual {self.max_residual:.3e})")
        return f"nonzero (residual {self.max_residual:.3e} at {self.witness})"


def probe_zero(e, samples: int = 64, tol: float = 1e-9,
               seed: int = 0) -> ZeroResult:
    """Numeric-only zero test; scaled residual per sample. ``e`` is an
    expression, scaled by ``eval_scaled``, or a ``MonomialSum``. A
    sample that hits a guard or gives a non-finite value is drawn again,
    up to MAX_RESAMPLES times."""
    if type(e) is MonomialSum:
        atoms, scaled = e.atoms, e.scaled
    else:
        atoms = free_atoms(e)

        def scaled(point):
            return eval_scaled(e, point)

    rng = random.Random(seed)
    worst = 0.0
    done = 0
    for _ in range(samples):
        point = None
        value = None
        for _ in range(MAX_RESAMPLES):
            cand = sample_point(atoms, rng)
            try:
                value, scale = scaled(cand)
            except EvalGuard:
                continue
            # inf - inf is NaN, and NaN > tol is False: a sample without a
            # finite value or scale decides nothing
            if not (math.isfinite(value) and math.isfinite(scale)):
                continue
            point = cand
            break
        if point is None:
            raise EvalError("could not find an admissible sample point")
        resid = abs(value) / scale
        done += 1
        if resid > worst:
            worst = resid
        if resid > tol:
            return ZeroResult(NONZERO, max_residual=resid,
                              witness=point, samples=done)
    return ZeroResult(ZERO_NUMERIC, max_residual=worst, samples=done)


def witness(e, samples: int = 64, seed: int = 0) -> ZeroResult:
    """``nonzero`` for ``e`` (as ``probe_zero`` takes it), proven nonzero
    exactly; the probe, at tolerance 0, only finds the witness."""
    res = probe_zero(e, samples=samples, tol=0.0, seed=seed)
    res.verdict = NONZERO
    return res


def is_zero(e: Expr, samples: int = 64, tol: float = 1e-9,
            seed: int = 0) -> ZeroResult:
    """Three-valued zero test: the exact ring first, probes second. A
    proven nonzero (``expand.decide``) is never overruled by the probe."""
    if isinstance(e, Num):
        if e.value == 0:
            return ZeroResult(ZERO_SYMBOLIC)
        return ZeroResult(NONZERO, max_residual=abs(_float(e.value)),
                          witness={})
    exact = decide(expand_poly(e))
    if exact:
        return ZeroResult(ZERO_SYMBOLIC)
    if exact is False:
        return witness(e, samples=samples, seed=seed)
    return probe_zero(e, samples=samples, tol=tol, seed=seed)
