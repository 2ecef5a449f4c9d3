"""Guarded floating-point evaluation and the three-valued zero test.

Verdicts: ``zero_symbolic`` when the expansion cancels exactly,
``zero_numeric`` when random probes stay below tolerance, ``nonzero``
with a witness point otherwise. Samples are drawn from [0.5, 2.0] so the
positive-domain conventions for roots and logarithms hold; sign symbols
are drawn from their value sets.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial

from .expand import is_zero_symbolic
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


def eval_expr(e: Expr, point: dict) -> float:
    """Evaluate at ``point`` (atom name -> float). Raises EvalGuard near
    singularities and outside real-root domains."""
    if isinstance(e, Num):
        return _float(e.value)
    if isinstance(e, (Coord, Param, Func)):
        name = atom_name(e)
        try:
            return point[name]
        except KeyError:
            raise EvalError(f"no value for {name!r}") from None
    if isinstance(e, Sum):
        return sum(eval_expr(t, point) for t in e.terms)
    if isinstance(e, Prod):
        v = _float(e.coeff)
        for f in e.factors:
            v *= eval_expr(f, point)
        return v
    if isinstance(e, Pow):
        base = eval_expr(e.base, point)
        exp = e.exp
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
    if isinstance(e, Ln):
        arg = eval_expr(e.arg, point)
        if arg < DENOM_GUARD:
            raise EvalGuard("log argument not positive")
        return math.log(arg)
    if isinstance(e, ExpF):
        arg = eval_expr(e.arg, point)
        if arg > EXP_GUARD:
            raise EvalGuard("exponential overflow")
        return math.exp(arg)
    if isinstance(e, Atan):
        return math.atan(eval_expr(e.arg, point))
    raise ExprError(f"cannot evaluate {e!r}")


def sample_point(atoms, rng: random.Random, overrides: dict | None = None) -> dict:
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
    if overrides:
        point.update(overrides)
    return point


def eval_scaled(e: Expr, point: dict) -> tuple:
    """(value, scale) at ``point``, evaluating each term of a sum once.

    ``scale`` is max(1, largest |term|) for a sum and 1 otherwise, so
    value / scale is a residual relative to the size of its own terms.
    """
    if isinstance(e, Sum):
        values = [eval_expr(t, point) for t in e.terms]
        return sum(values), max(1.0, max(map(abs, values)))
    return eval_expr(e, point), 1.0


# (function name, guard test on its argument, guard message) per kernel
_KERNELS = {
    Ln: ("log", f"< {DENOM_GUARD!r}", "log argument not positive"),
    ExpF: ("exp", f"> {EXP_GUARD!r}", "exponential overflow"),
    Atan: ("atan", None, None),
}
_COMPILED_GLOBALS = {"G": EvalGuard, "E": EvalError, "log": math.log,
                     "exp": math.exp, "atan": math.atan}


class _Emitter:
    """Straight-line Python for one expression. Each distinct node gets
    one local, assigned where the tree walk first reaches it, so a shared
    subtree is evaluated once, guards fire on the node where eval_expr's
    would, and every operation is the one eval_expr performs."""

    def __init__(self):
        self.lines = []
        self.operands = {}   # Expr -> local name or float literal

    def operand(self, e: Expr) -> str:
        text = self.operands.get(e)
        if text is None:
            text = self.operands[e] = self._emit(e)
        return text

    def guard(self, test: str, message: str) -> None:
        self.lines.append(f"if {test}: raise G({message!r})")

    def local(self, rhs: str) -> str:
        name = f"v{len(self.lines)}"
        self.lines.append(f"{name} = {rhs}")
        return name

    def _emit(self, e: Expr) -> str:
        if isinstance(e, Num):
            return f"({_float(e.value)!r})"
        if isinstance(e, (Coord, Param, Func)):
            return self.local(f"p[{atom_name(e)!r}]")
        if isinstance(e, Sum):
            return self.local(f"sum(({', '.join(self.terms(e))}))")
        if isinstance(e, Prod):
            return self.local(" * ".join(
                [f"({_float(e.coeff)!r})"]
                + [self.operand(f) for f in e.factors]))
        if isinstance(e, Pow):
            return self._pow(self.operand(e.base), e.exp)
        kernel = _KERNELS.get(type(e))
        if kernel is None:
            raise ExprError(f"cannot evaluate {e!r}")
        fn, test, message = kernel
        arg = self.operand(e.arg)
        if test is not None:
            self.guard(f"{arg} {test}", message)
        return self.local(f"{fn}({arg})")

    def terms(self, e: Sum) -> list:
        return [self.operand(t) for t in e.terms]

    def _pow(self, base: str, exp) -> str:
        if exp < 0:
            self.guard(f"abs({base}) < {DENOM_GUARD!r}",
                       "denominator too small")
        if exp.denominator == 1:
            return self.local(f"{base} ** ({exp.numerator})")
        positive = f"{base} ** ({_float(exp)!r})"
        if exp.denominator % 2 == 0:
            self.guard(f"{base} < 0", "even root of a negative value")
            return self.local(positive)
        odd_root = f"(-((-{base}) ** (1.0 / {exp.denominator})))"
        return self.local(f"{odd_root} ** ({exp.numerator}) "
                          f"if {base} < 0 else {positive}")


def compile_expr(e: Expr):
    """``f(point) -> (value, scale)`` with the results of
    ``eval_scaled(e, point)``, bit for bit, and the same exceptions.

    The body is generated once as straight-line Python; use it where one
    expression is evaluated at many points. Atom names enter the source
    only as string literals. Only ``**`` can raise OverflowError in the
    body, so one handler around it gives eval_expr's power guard. A
    constant beyond float range raises EvalError here, at compile time.
    """
    if isinstance(e, Num):  # most adjoint and Jacobian entries
        result = _float(e.value), 1.0
        return lambda point: result
    em = _Emitter()
    if isinstance(e, Sum):
        terms = em.terms(e)
        absolute = ", ".join(f"abs({t})" for t in terms)
        result = f"sum(({', '.join(terms)})), max(1.0, max({absolute}))"
    else:
        result = f"{em.operand(e)}, 1.0"
    body = "".join(f"        {line}\n" for line in em.lines)
    source = ("def compiled(p):\n"
              "    try:\n"
              f"{body}"
              "        pass\n"
              "    except KeyError as exc:\n"
              "        raise E(f'no value for {exc.args[0]!r}') from None\n"
              "    except OverflowError:\n"
              f"        raise G({POWER_OVERFLOW!r}) from None\n"
              f"    return {result}\n")
    namespace = dict(_COMPILED_GLOBALS)
    exec(compile(source, "<compile_expr>", "exec"), namespace)
    return namespace["compiled"]


@dataclass
class ZeroResult:
    verdict: str
    max_residual: float = 0.0
    witness: dict | None = None
    samples: int = 0

    def __bool__(self) -> bool:
        return self.verdict in (ZERO_SYMBOLIC, ZERO_NUMERIC)

    def describe(self) -> str:
        if self.verdict == ZERO_SYMBOLIC:
            return "zero (exact cancellation)"
        if self.verdict == ZERO_NUMERIC:
            return (f"zero (numeric, {self.samples} samples, "
                    f"max residual {self.max_residual:.3e})")
        return f"nonzero (residual {self.max_residual:.3e} at {self.witness})"


def probe_zero(e: Expr, samples: int = 64, tol: float = 1e-9,
               seed: int = 0, overrides: dict | None = None) -> ZeroResult:
    """Numeric-only zero test; scaled residual per sample. A sample that
    hits a guard or gives a non-finite value is drawn again, up to
    MAX_RESAMPLES times.

    The first sample is evaluated by the tree walk; ``e`` is compiled only
    when the probe goes on to a second sample, since most nonzero
    expressions are settled by the first."""
    atoms = free_atoms(e)
    rng = random.Random(seed)
    worst = 0.0
    done = 0
    evaluate = partial(eval_scaled, e)
    for n in range(samples):
        if n == 1:
            evaluate = compile_expr(e)
        point = None
        value = None
        for _ in range(MAX_RESAMPLES):
            cand = sample_point(atoms, rng, overrides)
            try:
                value, scale = evaluate(cand)
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


def is_zero(e: Expr, samples: int = 64, tol: float = 1e-9,
            seed: int = 0, overrides: dict | None = None) -> ZeroResult:
    """Three-valued zero test: symbolic cancellation first, probes second."""
    if isinstance(e, Num):
        if e.value == 0:
            return ZeroResult(ZERO_SYMBOLIC)
        return ZeroResult(NONZERO, max_residual=abs(_float(e.value)),
                          witness={})
    if is_zero_symbolic(e):
        return ZeroResult(ZERO_SYMBOLIC)
    return probe_zero(e, samples=samples, tol=tol, seed=seed,
                      overrides=overrides)
