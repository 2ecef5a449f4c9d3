"""Integer polynomial expansion and denominator clearing for the symbolic
zero test.

An expression is expanded into a polynomial over multiplicative atoms:
the leaves (coordinates, parameters, function symbols), transcendental
kernels taken opaquely, and sum bases that cannot be multiplied out
(negative exponents, or degree past the expansion cap). An irrational
power of a sum stays one opaque atom.

The polynomial is a dict from monomial to int coefficient over one
common int denominator. A monomial is a sorted tuple of (atom index,
exponent) pairs. Atoms are numbered in a table built once per expansion,
and exponents are ints in units of 1/D, where D is the lcm of every power
denominator in the input, so x^(1/2)*x^(1/2) merges to x. No Fraction is
built while expanding; ``Poly.monomials`` gives the canonical rational
form, keyed by atom keys, for comparison across expansions.

Each expansion does its work once per subtree. One walk over the tree
finds its exponent unit and the nodes that more than one parent reaches
(substituted components share their jet subtrees). The ring remembers
the polynomial of each such node, keyed by node, and of each sum atom,
which clearing multiplies out in every round; every other node is
expanded once anyway and is not stored. The memo belongs to the ring,
whose atom indices and exponent unit its entries are written in; the
pairs it hands out are shared and never modified.

Sums raised to small positive integer powers are multiplied out. Sign
symbols squaring to one have integer exponents reduced mod 2. A constant
root (a rational base such as the 3 of sqrt(3)) keeps its exponent in
[0, 1): its whole powers move into the coefficient, so sqrt(3)*sqrt(3)
merges to 3. Since every monomial already holds its roots below a whole
power, a product of two monomials takes a whole power out only where the
same root occurs in both, and a constant factor only scales the other
side's coefficients. Sum bases are sign-normalized so that u and -u share
one atom, and so is the sum of an even power kept under a root, since
u^2 = (-u)^2: ((x - 1)^2)^(1/2) and ((1 - x)^2)^(1/2) are one atom.

``clear_denominators`` repeatedly multiplies the polynomial by the
positive powers needed to cancel every sum-base denominator, re-expanding
as it goes, and gives up rather than multiply a sum out past twice the
expansion cap. Together with the merge this decides zero for the rational
normal forms that actually occur here; what survives goes to the numeric
probe.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .nodes import (
    Atan, Coord, ExpF, Expr, ExprError, Func, Ln, Num, Param, Pow, Prod,
    SIGN_PARAMS, Sum, _coeff_factors, add, mul, pow_,
)

POW_EXPAND_LIMIT = 8
CLEAR_ROUNDS = 6
_LEAVES = (Coord, Param, Func, Ln, ExpF, Atan)


def _survey(e: Expr) -> tuple:
    """(unit, shared) of one walk over the sums, products and powers of
    ``e``: every exponent of the expansion is an int in 1/unit, the lcm of
    the exponent denominators; ``shared`` holds the ids of the nodes that
    more than one parent reaches, whose subtrees are walked once."""
    unit = 1
    stack = [e]
    seen: set = set()
    shared: set = set()
    while stack:
        n = stack.pop()
        t = type(n)
        if t is Sum:
            children = n.terms
        elif t is Prod:
            children = n.factors
        elif t is Pow:
            if n.exp.denominator != 1:
                unit = lcm(unit, n.exp.denominator)
            children = (n.base,)
        else:
            continue
        i = id(n)
        if i in seen:
            shared.add(i)
        else:
            seen.add(i)
            stack.extend(children)
    return unit, shared


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
    """The atom table of one expansion and the arithmetic over it.

    ``expand`` remembers the nodes whose ids are in ``shared``, so the
    (terms, den) pairs it returns are shared and must be treated as
    read-only."""

    __slots__ = ("unit", "shared", "period", "atoms", "index", "signs",
                 "sums", "roots", "flips", "memo")

    def __init__(self, e: Expr):
        self.unit, self.shared = _survey(e)
        self.period = 2 * self.unit
        self.atoms: list = []
        self.index: dict = {}
        self.signs: set = set()
        self.sums: set = set()
        self.roots: dict = {}
        self.flips: dict = {}
        self.memo: dict = {}

    def units(self, exp: Fraction) -> int:
        q, r = divmod(exp.numerator * self.unit, exp.denominator)
        if r:
            raise ExprError(f"exponent {exp} outside the expansion unit")
        return q

    def atom(self, a: Expr, e: int) -> tuple:
        """a^(e/unit) as a polynomial. A constant root keeps its exponent
        in [0, unit); its whole powers move into the coefficient."""
        i = self.index.get(a)
        if i is None:
            i = self.index[a] = len(self.atoms)
            self.atoms.append(a)
            if isinstance(a, Param) and a.name in SIGN_PARAMS:
                self.signs.add(i)
            elif isinstance(a, Sum):
                self.sums.add(i)
                # every round of clearing that lifts it expands it
                self.shared.add(id(a))
            elif isinstance(a, Num):
                self.roots[i] = a.value
        v = self.roots.get(i)
        if v is not None:
            w, e = divmod(e, self.unit)
            if w >= 0:
                p, q = v.numerator ** w, v.denominator ** w
            else:
                p, q = v.denominator ** -w, v.numerator ** -w
            return ({((i, e),): p} if e else {(): p}), q
        if i in self.signs and not e % self.unit:
            e %= self.period
        return ({((i, e),): 1} if e else {(): 1}), 1

    def mono_mul(self, ka: tuple, kb: tuple) -> tuple:
        """(monomial, p, q): the product of two monomials times the int
        ratio p/q. A sign symbol's whole powers reduce mod 2. Both factors
        hold each constant root below a whole power, so a whole power is
        taken out only where the same root meets in both."""
        d = dict(ka)
        p = q = 1
        for i, e in kb:
            f = d.get(i)
            if f is None:
                d[i] = e
                continue
            e += f
            v = self.roots.get(i)
            if v is not None:
                if e >= self.unit:
                    e -= self.unit
                    p *= v.numerator
                    q *= v.denominator
            elif i in self.signs and not e % self.unit:
                e %= self.period
            if e:
                d[i] = e
            else:
                del d[i]
        return tuple(sorted(d.items())), p, q

    def mul(self, a: tuple, b: tuple) -> tuple:
        """Product of two polynomials. A constant side only scales the
        other's coefficients; a merge that takes out a whole power of a
        root multiplies its term by p/q, and each such term keeps its own
        denominator until the common one is formed."""
        ta, da = a
        tb, db = b
        if len(tb) == 1 and () in tb:
            ta, tb = tb, ta
        if len(ta) == 1 and () in ta:
            c = ta[()]
            return (tb if c == 1 else {k: c * v for k, v in tb.items()},
                    da * db)
        out: dict = {}
        get = out.get
        split: dict = {}
        mono = self.mono_mul
        for ka, ca in ta.items():
            for kb, cb in tb.items():
                if ka and kb:
                    k, p, q = mono(ka, kb)
                    if q != 1:
                        n, d = split.get(k, (0, 1))
                        m = lcm(d, q)
                        split[k] = n * (m // d) + ca * cb * p * (m // q), m
                        if k not in out:  # terms keep the merge's order
                            out[k] = 0
                        continue
                    c = ca * cb * p
                else:
                    k, c = ka or kb, ca * cb
                out[k] = get(k, 0) + c
        if split:
            common = lcm(*[d for _, d in split.values()])
            for k, c in out.items():
                out[k] = c * common
            for k, (n, d) in split.items():
                out[k] += n * (common // d)
            da *= common
        return {k: c for k, c in out.items() if c}, da * db

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
        if isinstance(e, _LEAVES):
            return self.atom(e, self.unit)
        is_pow = isinstance(e, Pow)
        if is_pow and not isinstance(e.base, Sum):
            # one atom: cheaper to make again than to remember
            return self.expand_pow(e.base, e.exp)
        shared = id(e) in self.shared
        if shared:
            hit = self.memo.get(e)
            if hit is not None:
                return hit
        if is_pow:
            out = self.expand_pow(e.base, e.exp)
        elif isinstance(e, Sum):
            out = _add([self.expand(t) for t in e.terms])
        elif isinstance(e, Prod):
            c = e.coeff
            out = ({(): c.numerator}, c.denominator)
            for f in e.factors:
                out = self.mul(out, self.expand(f))
        else:
            raise ExprError(f"cannot expand {e!r}")
        if shared:
            self.memo[e] = out
        return out

    def negate(self, u: Sum) -> Sum:
        hit = self.flips.get(u)
        if hit is None:
            hit = self.flips[u] = add(*[mul(-1, t) for t in u.terms])
        return hit

    def expand_pow(self, base: Expr, exp: Fraction) -> tuple:
        if not isinstance(base, Sum):
            # non-sum bases are leaves or kernels after normalization, or
            # an even power of a sum kept under a root; as u^2 = (-u)^2,
            # that sum is signed so its least term by factors is positive
            if (isinstance(base, Pow) and isinstance(base.base, Sum)
                    and not base.exp.numerator % 2):
                u = base.base
                least = min(u.terms, key=lambda t: _coeff_factors(t)[1])
                if _coeff_factors(least)[0] < 0:
                    base = pow_(self.negate(u), base.exp)
            return self.atom(base, self.units(exp))
        if exp.denominator != 1:
            # irrational power of a sum stays one opaque atom
            return self.atom(pow_(base, exp), self.unit)
        n = exp.numerator
        if 0 < n <= POW_EXPAND_LIMIT:
            return self.pow(self.expand(base), n)
        # a sum atom is sign-normalized, so u and -u share one atom
        flip = _coeff_factors(base.terms[0])[0] < 0
        if flip:
            base = self.negate(base)
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
    """sum(terms[k] * prod(atom_i^(e/unit) for i, e in k)) / den, over the
    atom table ``ring``."""

    __slots__ = ("ring", "terms", "den")

    def __init__(self, ring: _Ring, terms: dict, den: int):
        self.ring = ring
        self.terms = terms
        self.den = den

    def monomials(self) -> dict:
        """Canonical form: {((atom key, Fraction exponent), ...) sorted by
        atom key: Fraction coefficient}."""
        atoms, unit = self.ring.atoms, self.ring.unit
        return {tuple(sorted((atoms[i]._key, Fraction(e, unit))
                             for i, e in k)): Fraction(c, self.den)
                for k, c in self.terms.items()}

    def to_expr(self) -> Expr:
        """The polynomial as a normal-form tree: a sum of monomials."""
        atoms, unit = self.ring.atoms, self.ring.unit
        return add(*[mul(Fraction(c, self.den),
                         *[pow_(atoms[i], Fraction(e, unit)) for i, e in k])
                     for k, c in self.terms.items()])


def expand_poly(e: Expr) -> Poly:
    ring = _Ring(e)
    terms, den = ring.expand(e)
    return Poly(ring, terms, den)


def expand_monomials(e: Expr) -> dict:
    return expand_poly(e).monomials()


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


def is_zero_symbolic(e: Expr) -> bool:
    """True when expansion plus denominator clearing cancels every term."""
    p = expand_poly(e)
    if not p.terms:
        return True
    p, cleared = clear_denominators(p)
    return cleared and not p.terms
