"""Reference expansion: the integer-polynomial arithmetic of the symbolic
zero test as it was before it learned to remember subtrees.

Every ``expand`` call expands its node again, every product of two terms
goes through ``mono_mul`` and then ``fold``, which reduces each constant
root of the product into [0, 1) whether or not the two factors shared it,
and ``_unit`` walks a shared subtree once for each parent. The kernel's
``expand`` module is compared with it key for key on canonical
monomials. It predates the sign normalization of an even power kept
under a root, so inputs that hold ``(u^2)^(1/2)`` are outside its range.
A sum atom takes the sign that makes its least term by factors positive,
as in the kernel, so that x - t and t - x are one atom.
"""

from fractions import Fraction
from math import lcm

from walkerkit.expr.nodes import (
    Atan, Coord, ExpF, Expr, ExprError, Func, Ln, Num, Param, Pow, Prod,
    SIGN_PARAMS, Sum, _coeff_factors, add, mul, pow_,
)

POW_EXPAND_LIMIT = 8
CLEAR_ROUNDS = 6


def _unit(e: Expr) -> int:
    """lcm of the exponent denominators reachable through sums, products
    and powers: every exponent of the expansion is an int in 1/unit."""
    unit = 1
    stack = [e]
    while stack:
        n = stack.pop()
        if isinstance(n, Sum):
            stack.extend(n.terms)
        elif isinstance(n, Prod):
            stack.extend(n.factors)
        elif isinstance(n, Pow):
            if n.exp.denominator != 1:
                unit = lcm(unit, n.exp.denominator)
            stack.append(n.base)
    return unit


def _add(polys: list) -> tuple:
    """Sum of (terms, den) polynomials, over the lcm of their dens."""
    den = lcm(*[d for _, d in polys])
    out: dict = {}
    get = out.get
    for terms, d in polys:
        s = den // d
        for k, c in terms.items():
            out[k] = get(k, 0) + c * s
    return {k: c for k, c in out.items() if c}, den


class _Ring:
    """The atom table of one expansion and the arithmetic over it."""

    __slots__ = ("unit", "period", "atoms", "index", "signs", "sums",
                 "roots", "flips")

    def __init__(self, e: Expr):
        self.unit = _unit(e)
        self.period = 2 * self.unit
        self.atoms: list = []
        self.index: dict = {}
        self.signs: set = set()
        self.sums: set = set()
        self.roots: dict = {}
        self.flips: dict = {}

    def units(self, exp: Fraction) -> int:
        q, r = divmod(exp.numerator * self.unit, exp.denominator)
        if r:
            raise ExprError(f"exponent {exp} outside the expansion unit")
        return q

    def atom(self, a: Expr, e: int) -> tuple:
        """a^(e/unit) as a polynomial."""
        i = self.index.get(a._key)
        if i is None:
            i = self.index[a._key] = len(self.atoms)
            self.atoms.append(a)
            if isinstance(a, Param) and a.name in SIGN_PARAMS:
                self.signs.add(i)
            elif isinstance(a, Sum):
                self.sums.add(i)
            elif isinstance(a, Num):
                self.roots[i] = a.value
        if i in self.signs and not e % self.unit:
            e %= self.period
        elif i in self.roots:
            k, p, q = self.fold(((i, e),))
            return {k: p}, q
        return ({((i, e),): 1} if e else {(): 1}), 1

    def fold(self, k: tuple) -> tuple:
        """(monomial, p, q): k with every constant root's exponent reduced
        into [0, unit), and the int ratio p/q of the whole powers taken
        out."""
        p = q = 1
        out = []
        for i, e in k:
            v = self.roots.get(i)
            if v is not None:
                w, e = divmod(e, self.unit)
                if w > 0:
                    p *= v.numerator ** w
                    q *= v.denominator ** w
                elif w < 0:
                    p *= v.denominator ** -w
                    q *= v.numerator ** -w
            if e:
                out.append((i, e))
        return tuple(out), p, q

    def mono_mul(self, ka: tuple, kb: tuple) -> tuple:
        """Product of two monomials; a sign symbol's whole powers reduce
        mod 2."""
        d = dict(ka)
        signs, unit = self.signs, self.unit
        for i, e in kb:
            if i in d:
                e += d[i]
                if i in signs and not e % unit:
                    e %= self.period
                if e:
                    d[i] = e
                else:
                    del d[i]
            else:
                d[i] = e
        return tuple(sorted(d.items()))

    def mul(self, a: tuple, b: tuple) -> tuple:
        ta, da = a
        tb, db = b
        if self.roots:
            return self.mul_folding(ta, tb, da * db)
        out: dict = {}
        get = out.get
        mono = self.mono_mul
        for ka, ca in ta.items():
            for kb, cb in tb.items():
                k = mono(ka, kb) if ka and kb else ka or kb
                out[k] = get(k, 0) + ca * cb
        return {k: c for k, c in out.items() if c}, da * db

    def mul_folding(self, ta: dict, tb: dict, den: int) -> tuple:
        """``mul`` when constant roots occur: a merge that carries a whole
        power of a root multiplies its term by an int ratio p/q, and each
        term keeps its own denominator until the common one is formed."""
        out: dict = {}
        get = out.get
        for ka, ca in ta.items():
            for kb, cb in tb.items():
                k, p, q = self.fold(self.mono_mul(ka, kb))
                n, d = get(k, (0, 1))
                if d == q:
                    out[k] = n + ca * cb * p, d
                else:
                    m = lcm(d, q)
                    out[k] = n * (m // d) + ca * cb * p * (m // q), m
        common = lcm(*[d for _, d in out.values()])
        return ({k: n * (common // d) for k, (n, d) in out.items() if n},
                den * common)

    def pow(self, base: tuple, n: int) -> tuple:
        out = ({(): 1}, 1)
        acc = base
        while n:
            if n & 1:
                out = self.mul(out, acc)
            n >>= 1
            if n:
                acc = self.mul(acc, acc)
        return out

    def expand(self, e: Expr) -> tuple:
        if isinstance(e, Num):
            v = e.value
            return ({(): v.numerator}, v.denominator) if v else ({}, 1)
        if isinstance(e, (Coord, Param, Func, Ln, ExpF, Atan)):
            return self.atom(e, self.unit)
        if isinstance(e, Sum):
            return _add([self.expand(t) for t in e.terms])
        if isinstance(e, Prod):
            c = e.coeff
            out = ({(): c.numerator}, c.denominator)
            for f in e.factors:
                out = self.mul(out, self.expand(f))
            return out
        if isinstance(e, Pow):
            return self.expand_pow(e.base, e.exp)
        raise ExprError(f"cannot expand {e!r}")

    def expand_pow(self, base: Expr, exp: Fraction) -> tuple:
        if not isinstance(base, Sum):
            # non-sum bases are leaves or kernels after normalization
            return self.atom(base, self.units(exp))
        if exp.denominator != 1:
            # irrational power of a sum stays one opaque atom
            return self.atom(pow_(base, exp), self.unit)
        n = exp.numerator
        if 0 < n <= POW_EXPAND_LIMIT:
            return self.pow(self.expand(base), n)
        # a sum atom is sign-normalized, so u and -u share one atom: its
        # least term by factors is positive
        least = min(base.terms, key=lambda t: _coeff_factors(t)[1])
        flip = _coeff_factors(least)[0] < 0
        if flip:
            hit = self.flips.get(base._key)
            if hit is None:
                hit = self.flips[base._key] = add(
                    *[mul(-1, t) for t in base.terms])
            base = hit
        terms, den = self.atom(base, n * self.unit)
        if flip and n % 2:
            terms = {k: -c for k, c in terms.items()}
        return terms, den

    def denominators(self, terms: dict) -> dict:
        """Sum atom index -> exponent (in units) needed to clear it. A sum
        atom only ever carries whole powers."""
        need: dict = {}
        sums = self.sums
        for k in terms:
            for i, e in k:
                if e < 0 and i in sums:
                    need[i] = max(need.get(i, 0), -e)
        return need

    def lift(self, poly: tuple, i: int, m: int):
        """poly times atom i^(m/unit), with that atom multiplied out; None
        when that would raise it past twice the expansion cap."""
        terms, den = poly
        groups: dict = {}
        for k, c in terms.items():
            e, rest = 0, k
            for j, (a, ae) in enumerate(k):
                if a == i:
                    e, rest = ae, k[:j] + k[j + 1:]
                    break
            groups.setdefault(e + m, {})[rest] = c
        if max(groups, default=0) > 2 * POW_EXPAND_LIMIT * self.unit:
            return None
        expansion = self.expand(self.atoms[i])
        parts = []
        for e, group in groups.items():
            part = (group, 1)
            if e:
                part = self.mul(part, self.pow(expansion, e // self.unit))
            parts.append(part)
        terms, lifted = _add(parts)
        return terms, den * lifted


class Poly:
    __slots__ = ("ring", "terms", "den")

    def __init__(self, ring: _Ring, terms: dict, den: int):
        self.ring = ring
        self.terms = terms
        self.den = den

    def monomials(self) -> dict:
        atoms, unit = self.ring.atoms, self.ring.unit
        return {tuple(sorted((atoms[i], Fraction(e, unit))
                             for i, e in k)): Fraction(c, self.den)
                for k, c in self.terms.items()}


def expand_poly(e: Expr) -> Poly:
    ring = _Ring(e)
    terms, den = ring.expand(e)
    return Poly(ring, terms, den)


def clear_denominators(p: Poly, rounds: int = CLEAR_ROUNDS):
    """Multiply through by sum denominators until none remain.

    Returns (polynomial, cleared) where ``cleared`` is False when
    denominators survive the round cap, or when clearing would multiply a
    sum out past twice ``POW_EXPAND_LIMIT``; the result is then unusable
    for a symbolic zero verdict.
    """
    ring, poly = p.ring, (p.terms, p.den)
    for _ in range(rounds):
        need = ring.denominators(poly[0])
        if not need:
            return Poly(ring, *poly), True
        for i, m in need.items():
            lifted = ring.lift(poly, i, m)
            if lifted is None:
                return Poly(ring, *poly), False
            poly = lifted
    return Poly(ring, *poly), not ring.denominators(poly[0])
