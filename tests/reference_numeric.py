"""Reference tree walks: ``eval_expr`` and ``free_atoms`` as they were
before they learned to visit each distinct node once.

Both recurse over the expression as a tree, so a subtree object reached
along several paths is walked once per path. The guards, errors and
node classes are the kernel's, so raised exceptions compare directly.
"""

import math

from walkerkit.expr.nodes import (
    Atan, Coord, ExpF, ExprError, Func, Ln, Num, Param, Pow, Prod, Sum,
    atom_name,
)
from walkerkit.expr.numeric import (
    DENOM_GUARD, EXP_GUARD, POWER_OVERFLOW, EvalError, EvalGuard, _float,
)


def eval_expr(e, point):
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


def eval_scaled(e, point):
    if isinstance(e, Sum):
        values = [eval_expr(t, point) for t in e.terms]
        return sum(values), max(1.0, max(map(abs, values)))
    return eval_expr(e, point), 1.0


def free_atoms(e):
    out = set()
    _collect_atoms(e, out)
    return out


def _collect_atoms(e, out):
    if isinstance(e, (Coord, Param, Func)):
        out.add(e)
    elif isinstance(e, Num):
        pass
    elif isinstance(e, Sum):
        for t in e.terms:
            _collect_atoms(t, out)
    elif isinstance(e, Prod):
        for f in e.factors:
            _collect_atoms(f, out)
    elif isinstance(e, Pow):
        _collect_atoms(e.base, out)
    elif isinstance(e, (Ln, ExpF, Atan)):
        _collect_atoms(e.arg, out)
    else:
        raise ExprError(f"unexpected node {e!r}")
