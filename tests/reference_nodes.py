"""Reference normalizing constructors: ``add``, ``mul`` and ``pow_`` as
they were before they learned to keep subterms that are already normal.

Each builds every result from scratch: ``mul`` raises every base to its
merged exponent with ``pow_`` again, and ``add`` remakes every term from
its coefficient and factors. The node classes are the kernel's, so a
result's ``_key`` compares directly with the kernel constructors'.
"""

from fractions import Fraction

from walkerkit.expr.nodes import (
    ONE, ZERO, ExprError, Num, Pow, Prod, Sum, _exact_pow, _frac,
    _fraction_gcd, to_expr,
)


def _coeff_factors(e):
    if isinstance(e, Num):
        return e.value, ()
    if isinstance(e, Prod):
        return e.coeff, e.factors
    return Fraction(1), (e,)


def _remake_term(coeff, factors):
    if not factors:
        return Num(coeff)
    if coeff == 1 and len(factors) == 1:
        return factors[0]
    return Prod(coeff, factors)


def add(*terms):
    flat = []
    for term in terms:
        term = to_expr(term)
        if isinstance(term, Sum):
            flat.extend(term.terms)
        else:
            flat.append(term)
    buckets: dict = {}
    for term in flat:
        cf, factors = _coeff_factors(term)
        k = tuple(f._key for f in factors)
        hit = buckets.get(k)
        if hit is None:
            buckets[k] = [cf, factors]
        else:
            hit[0] += cf
    out = []
    for cf, factors in buckets.values():
        if cf == 0:
            continue
        out.append(_remake_term(cf, factors))
    if not out:
        return ZERO
    out.sort(key=lambda e: e._key)
    if len(out) == 1:
        return out[0]
    return Sum(tuple(out))


def mul(*factors):
    coeff = Fraction(1)
    pending = [to_expr(f) for f in factors]
    powers: dict = {}
    order: list = []

    def put(base, e):
        k = base._key
        hit = powers.get(k)
        if hit is None:
            powers[k] = [base, e]
            order.append(k)
        else:
            hit[1] += e

    while pending:
        f = pending.pop()
        if isinstance(f, Num):
            coeff *= f.value
        elif isinstance(f, Prod):
            coeff *= f.coeff
            pending.extend(f.factors)
        elif isinstance(f, Pow):
            put(f.base, f.exp)
        else:
            put(f, Fraction(1))
    if coeff == 0:
        return ZERO

    out = []
    redo = []
    for k in order:
        base, e = powers[k]
        if e == 0:
            continue
        p = pow_(base, e)
        if isinstance(p, Num):
            coeff *= p.value
        elif isinstance(p, Prod):
            redo.append(p)
        else:
            out.append(p)
    if redo:
        return mul(Num(coeff), *out, *redo)
    if coeff == 0:
        return ZERO
    if not out:
        return Num(coeff)
    out.sort(key=lambda e: e._key)
    if coeff == 1 and len(out) == 1:
        return out[0]
    return Prod(coeff, tuple(out))


def sum_content(s):
    c = Fraction(0)
    for term in s.terms:
        cf, _ = _coeff_factors(term)
        c = _fraction_gcd(c, abs(cf)) if c else abs(cf)
    return c if c else Fraction(1)


def scale_sum(s, factor):
    return add(*[mul(Num(factor), t) for t in s.terms])


def pow_(base, e):
    e = _frac(e)
    base = to_expr(base)
    if e == 0:
        if isinstance(base, Num) and base.value == 0:
            raise ExprError("0^0 is undefined")
        return ONE
    if e == 1:
        return base
    if isinstance(base, Num):
        if base.value == 0:
            if e < 0:
                raise ExprError("division by exact zero")
            return ZERO
        exact = _exact_pow(base.value, e)
        if exact is not None:
            return Num(exact)
        if base.value < 0 and e.denominator % 2 == 0:
            raise ExprError(f"even root of negative rational {base.value}")
        return Pow(base, e)
    if isinstance(base, Pow):
        return pow_(base.base, base.exp * e)
    if isinstance(base, Prod):
        parts = [pow_(f, e) for f in base.factors]
        if base.coeff != 1:
            parts.append(pow_(Num(base.coeff), e))
        return mul(*parts)
    if isinstance(base, Sum):
        content = sum_content(base)
        if content != 1:
            primitive = scale_sum(base, 1 / content)
            return mul(pow_(Num(content), e), pow_(primitive, e))
        return Pow(base, e)
    return Pow(base, e)
