"""Integer polynomial expansion and denominator clearing for the symbolic
zero test.

An expression is expanded into a polynomial over multiplicative atoms:
the leaves (coordinates, parameters, function symbols), transcendental
kernels taken opaquely, and sum bases that cannot be multiplied out
(negative exponents, or degree past the expansion cap). An irrational
power of a sum stays one opaque atom.

The polynomial is a dict from monomial to int coefficient over one
common int denominator. Atoms are numbered in a table built once per
expansion, and exponents are ints in units of 1/D, where D is the lcm of
every power denominator in the input, so x^(1/2)*x^(1/2) merges to x. A
monomial is one int: field i, ``width`` bits wide, holds the exponent of
atom i as a balanced (signed) digit, so negative exponents pack too, and
the empty monomial is 0. The product of two monomials is the sum of
their ints. No Fraction is built while expanding; ``Poly.monomials``
unpacks the canonical rational form, keyed by atom keys, for comparison
across expansions.

The field width can never wrap. Every polynomial carries a bound on the
size of its largest field: |e| for an atom's e; the sum of the factors'
bounds for a product, since a field of ka + kb is the sum of theirs and a
fix-up (below) only shrinks it; the largest of the terms' bounds for a
sum, which makes no new monomial. While every bound stays below half the
field range, 2^(width - 1), every field is smaller than half in size,
the balanced digits of an int are unique, and no addition carries into a
neighbouring field. An atom or a product whose bound reaches half stops
the expansion, or the clearing, which starts again in a ring with twice
the width and the same atom table. That costs two int operations per polynomial product,
not per term; exponents are unbounded, and a chain such as
u_{k+1} = u_k*(u_k + 2), which expands to x^(2^k) - 1, widens as far as
it needs.

Each expansion does its work once per subtree. One walk over the tree
finds its exponent unit and the nodes that more than one parent reaches
(substituted components share their jet subtrees). The ring remembers
the polynomial of each such node, keyed by node, and of each sum atom,
which clearing multiplies out in every round; every other node is
expanded once anyway and is not stored. The memo belongs to the ring,
whose atom indices, exponent unit and width its entries are written in;
the polynomials it hands out are shared and never modified.

Sums raised to small positive integer powers are multiplied out. Sign
symbols squaring to one have integer exponents reduced mod 2. A constant
root (a rational base such as the 3 of sqrt(3)) keeps its exponent in
[0, 1): its whole powers move into the coefficient, so sqrt(3)*sqrt(3)
merges to 3. These two are fix-ups after the addition of two monomials,
made only in a ring that holds such atoms and only where both monomials
carry the atom: every monomial already holds its roots below a whole
power and its sign symbols reduced, and a constant factor only scales
the other side's coefficients. Sum bases are sign-normalized so that u
and -u share one atom, and so is the sum of an even power kept under a
root, since u^2 = (-u)^2: ((x - 1)^2)^(1/2) and ((1 - x)^2)^(1/2) are one
atom. Both take the sign that makes the sum's least term by factors
positive, which u and -u agree on.

``clear_denominators`` repeatedly multiplies the polynomial by the
positive powers needed to cancel every sum-base denominator, re-expanding
as it goes, and gives up rather than multiply a sum out past twice the
expansion cap. Together with the merge this decides zero for the rational
normal forms that actually occur here. ``decide`` also proves nonzero a
cleared polynomial over independent atoms; what neither settles goes to
the numeric probe.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .nodes import (
    Atan, Coord, ExpF, Expr, ExprError, Func, Ln, Num, Param, Pow, Prod,
    SIGN_PARAMS, Sum, TERNARY_PARAMS, ZERO, _coeff_factors, add, mul, pow_,
)

POW_EXPAND_LIMIT = 8
CLEAR_ROUNDS = 6
# bits of each exponent field in a fresh ring; a ring whose exponents
# outgrow it is made again twice as wide
WIDTH = 64
_LEAVES = frozenset((Coord, Param, Func, Ln, ExpF, Atan))


class _Overflow(Exception):
    """An exponent bound reached half of the ring's field range."""


def _survey(*roots: Expr) -> tuple:
    """(unit, shared) of one walk over the sums, products and powers of
    the roots: every exponent of the expansion is an int in 1/unit, the
    lcm of the exponent denominators; ``shared`` holds the ids of the
    nodes that more than one parent reaches, whose subtrees are walked
    once."""
    unit = 1
    stack = list(roots)
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
    """Sum of (terms, den, bound) polynomials, over the lcm of their
    dens."""
    den = lcm(*[d for _, d, _ in polys])
    out: dict = {}
    get = out.get
    bound = 0
    for terms, d, b in polys:
        s = den // d
        for k, c in terms.items():
            out[k] = get(k, 0) + c * s
        if b > bound:
            bound = b
    return {k: c for k, c in out.items() if c}, den, bound


def unpack(k: int, width: int) -> list:
    """[(field, digit)] of the nonzero balanced ``width``-bit digits of
    ``k``, lowest first: the lowest set bit of ``k`` is in its lowest
    nonzero field."""
    half, mask = 1 << (width - 1), (1 << width) - 1
    out = []
    while k:
        s = ((k & -k).bit_length() - 1) // width * width
        d = ((k >> s) + half & mask) - half
        out.append((s // width, d))
        k -= d << s
    return out


class _Ring:
    """The atom table of one expansion and the arithmetic over it.

    A polynomial is (terms, den, bound): packed monomial -> int
    coefficient, the common denominator, and a bound on the size of every
    exponent field. ``expand`` remembers the nodes whose ids are in
    ``shared``, so the polynomials it returns are shared and must be
    treated as read-only."""

    __slots__ = ("unit", "shared", "period", "width", "half", "mask",
                 "atoms", "index", "signs", "sums", "roots", "fixed",
                 "carried", "flips", "memo")

    def __init__(self, unit: int, shared: set, width: int = WIDTH):
        self.unit = unit
        self.shared = shared
        self.period = 2 * unit
        self.width = width
        self.half = 1 << (width - 1)
        self.mask = (1 << width) - 1
        self.atoms: list = []
        self.index: dict = {}
        self.signs: set = set()
        self.sums: list = []
        self.roots: dict = {}
        # atoms that need a fix-up after an addition, and the digits of
        # those atoms in each monomial met so far
        self.fixed: list = []
        self.carried: dict = {}
        self.flips: dict = {}
        self.memo: dict = {}

    def widened(self) -> _Ring:
        """A ring with twice the width and the same atoms, in order."""
        ring = _Ring(self.unit, set(self.shared), 2 * self.width)
        for a in self.atoms:
            ring.register(a)
        return ring

    def register(self, a: Expr) -> int:
        i = self.index[a] = len(self.atoms)
        self.atoms.append(a)
        ta = type(a)
        if ta is Param and a.name in SIGN_PARAMS:
            self.signs.add(i)
            self.fixed.append(i)
        elif ta is Sum:
            self.sums.append(i)
            # every round of clearing that lifts it expands it
            self.shared.add(id(a))
        elif ta is Num:
            self.roots[i] = a.value
            self.fixed.append(i)
        return i

    def field(self, i: int) -> tuple:
        """(shift, offset): field i of a monomial k is
        ((k + offset) >> shift & mask) - half. The offset biases the field
        by half and rounds k at the field's lower edge, which cancels the
        borrow of the signed fields below it."""
        s = self.width * i
        return s, (self.half << s) + (1 << s >> 1)

    def unpack(self, k: int) -> list:
        return unpack(k, self.width)

    def repack(self, poly: tuple, old: _Ring) -> tuple:
        """``poly``, written in ``old``, in this ring's width."""
        terms, den, bound = poly
        w = self.width
        return ({sum(e << (w * i) for i, e in old.unpack(k)): c
                 for k, c in terms.items()}, den, bound)

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
            i = self.register(a)
        p = q = 1
        v = self.roots.get(i)
        if v is not None:
            w, e = divmod(e, self.unit)
            if w >= 0:
                p, q = v.numerator ** w, v.denominator ** w
            else:
                p, q = v.denominator ** -w, v.numerator ** -w
        elif i in self.signs and not e % self.unit:
            e %= self.period
        if abs(e) >= self.half:
            raise _Overflow
        return {e << (self.width * i): p}, q, abs(e)

    def carry(self, k: int) -> dict:
        """{atom index: exponent} of the fix-up atoms that ``k`` holds."""
        hit = self.carried.get(k)
        if hit is None:
            half, mask = self.half, self.mask
            hit = {}
            for i in self.fixed:
                s, off = self.field(i)
                d = ((k + off) >> s & mask) - half
                if d:
                    hit[i] = d
            self.carried[k] = hit
        return hit

    def fix(self, k: int, xa: dict, xb: dict) -> tuple:
        """(monomial, p, q): the sum ``k`` of two monomials that carry the
        fix-up atoms ``xa`` and ``xb``, with a sign symbol's whole powers
        reduced mod 2 and a constant root's whole power taken out as the
        int ratio p/q. Both sides hold each root below a whole power, so
        that happens only where the same root meets in both."""
        p = q = 1
        unit = self.unit
        for i, d in xa.items():
            e = xb.get(i)
            if e is None:
                continue
            e += d
            v = self.roots.get(i)
            if v is not None:
                if e >= unit:
                    k -= unit << (self.width * i)
                    p *= v.numerator
                    q *= v.denominator
            elif not e % unit:
                k += (e % self.period - e) << (self.width * i)
        return k, p, q

    def mul(self, a: tuple, b: tuple) -> tuple:
        """Product of two polynomials. A constant side only scales the
        other's coefficients; a merge that takes out a whole power of a
        root multiplies its term by p/q, and each such term keeps its own
        denominator until the common one is formed."""
        ta, da, ba = a
        tb, db, bb = b
        if len(tb) == 1 and 0 in tb:
            ta, tb, bb = tb, ta, ba
        if len(ta) == 1 and 0 in ta:
            c = ta[0]
            return (tb if c == 1 else {k: c * v for k, v in tb.items()},
                    da * db, bb)
        bound = ba + bb
        if bound >= self.half:
            raise _Overflow
        if self.fixed:
            carry = self.carry
            xas = [carry(ka) for ka in ta]
            xbs = [carry(kb) for kb in tb] if any(xas) else ()
            if any(xbs):
                return self.mul_fixing(ta, tb, xas, xbs, da * db, bound)
        # one term on a side: the products are distinct monomials
        if len(ta) == 1:
            (ka, ca), = ta.items()
            return ({ka + kb: ca * cb for kb, cb in tb.items()}, da * db,
                    bound)
        if len(tb) == 1:
            (kb, cb), = tb.items()
            return ({ka + kb: ca * cb for ka, ca in ta.items()}, da * db,
                    bound)
        out: dict = {}
        get = out.get
        for ka, ca in ta.items():
            for kb, cb in tb.items():
                k = ka + kb
                out[k] = get(k, 0) + ca * cb
        return {k: c for k, c in out.items() if c}, da * db, bound

    def mul_fixing(self, ta: dict, tb: dict, xas: list, xbs: list,
                   den: int, bound: int) -> tuple:
        """``mul`` where monomials on both sides carry fix-up atoms, with
        those atoms' exponents ``xas`` and ``xbs`` for each monomial."""
        out: dict = {}
        get = out.get
        split: dict = {}
        for (ka, ca), xa in zip(ta.items(), xas):
            for (kb, cb), xb in zip(tb.items(), xbs):
                k = ka + kb
                c = ca * cb
                if xa and xb:
                    k, p, q = self.fix(k, xa, xb)
                    if q != 1:
                        n, d = split.get(k, (0, 1))
                        m = lcm(d, q)
                        split[k] = n * (m // d) + c * p * (m // q), m
                        if k not in out:  # terms keep the merge's order
                            out[k] = 0
                        continue
                    c *= p
                out[k] = get(k, 0) + c
        if split:
            common = lcm(*[d for _, d in split.values()])
            for k, c in out.items():
                out[k] = c * common
            for k, (n, d) in split.items():
                out[k] += n * (common // d)
            den *= common
        return {k: c for k, c in out.items() if c}, den, bound

    def pow(self, base: tuple, n: int) -> tuple:
        out = ({0: 1}, 1, 0)
        acc = base
        while n:
            if n & 1:
                out = self.mul(out, acc)
            n >>= 1
            if n:
                acc = self.mul(acc, acc)
        return out

    def expand(self, e: Expr) -> tuple:
        te = type(e)
        if te is Num:
            v = e.value
            return ({0: v.numerator}, v.denominator, 0) if v else ({}, 1, 0)
        if te in _LEAVES:
            return self.atom(e, self.unit)
        if te is Pow and type(e.base) is not Sum:
            # one atom: cheaper to make again than to remember
            return self.expand_pow(e.base, e.exp)
        shared = id(e) in self.shared
        if shared:
            hit = self.memo.get(e)
            if hit is not None:
                return hit
        if te is Pow:
            out = self.expand_pow(e.base, e.exp)
        elif te is Sum:
            out = _add([self.expand(t) for t in e.terms])
        elif te is Prod:
            c = e.coeff
            out = ({0: c.numerator}, c.denominator, 0)
            for f in e.factors:
                out = self.mul(out, self.expand(f))
        else:
            raise ExprError(f"cannot expand {e!r}")
        if shared:
            self.memo[e] = out
        return out

    def signed(self, u: Sum) -> tuple:
        """(v, flipped): of u and -u, the one whose least term by factors
        is positive, and whether that is -u. u and -u have the same least
        term with opposite signs, so both give one v."""
        hit = self.flips.get(u)
        if hit is None:
            least = min(u.terms, key=lambda t: _coeff_factors(t)[1])
            if _coeff_factors(least)[0] < 0:
                hit = add(*[mul(-1, t) for t in u.terms]), True
            else:
                hit = u, False
            self.flips[u] = hit
        return hit

    def expand_pow(self, base: Expr, exp: Fraction) -> tuple:
        if not isinstance(base, Sum):
            # non-sum bases are leaves or kernels after normalization, or
            # an even power of a sum kept under a root, whose sum is signed
            # as u^2 = (-u)^2
            if (isinstance(base, Pow) and isinstance(base.base, Sum)
                    and not base.exp.numerator % 2):
                u, flip = self.signed(base.base)
                if flip:
                    base = pow_(u, base.exp)
            return self.atom(base, self.units(exp))
        if exp.denominator != 1:
            # irrational power of a sum stays one opaque atom
            return self.atom(pow_(base, exp), self.unit)
        n = exp.numerator
        if 0 < n <= POW_EXPAND_LIMIT:
            return self.pow(self.expand(base), n)
        # a sum atom is sign-normalized, so u and -u share one atom
        base, flip = self.signed(base)
        terms, den, bound = self.atom(base, n * self.unit)
        if flip and n % 2:
            terms = {k: -c for k, c in terms.items()}
        return terms, den, bound

    def denominators(self, terms: dict) -> dict:
        """Sum atom index -> exponent (in units) needed to clear it. A sum
        atom only ever carries whole powers."""
        need: dict = {}
        half, mask = self.half, self.mask
        fields = [(i, *self.field(i)) for i in self.sums]
        for k in terms:
            for i, s, off in fields:
                e = ((k + off) >> s & mask) - half
                if e < 0 and need.get(i, 0) < -e:
                    need[i] = -e
        return need

    def lift(self, poly: tuple, i: int, m: int):
        """poly times atom i^(m/unit), with that atom multiplied out; None
        when that would raise it past twice the expansion cap."""
        terms, den, bound = poly
        (s, off), half, mask = self.field(i), self.half, self.mask
        groups: dict = {}
        for k, c in terms.items():
            e = ((k + off) >> s & mask) - half
            groups.setdefault(e + m, {})[k - (e << s)] = c
        if max(groups, default=0) > 2 * POW_EXPAND_LIMIT * self.unit:
            return None
        expansion = self.expand(self.atoms[i])
        parts = []
        for e, group in groups.items():
            part = (group, 1, bound)
            if e:
                part = self.mul(part, self.pow(expansion, e // self.unit))
            parts.append(part)
        terms, lifted, bound = _add(parts)
        return terms, den * lifted, bound


class Poly:
    """sum(terms[k] * prod(atom_i^(e_i/unit))) / den over the atom table
    ``ring``, where e_i is field i of the packed monomial k and every
    field is at most ``bound`` in size."""

    __slots__ = ("ring", "terms", "den", "bound")

    def __init__(self, ring: _Ring, terms: dict, den: int, bound: int):
        self.ring = ring
        self.terms = terms
        self.den = den
        self.bound = bound

    def monomials(self) -> dict:
        """Canonical form: {((atom, Fraction exponent), ...) sorted by atom:
        Fraction coefficient}, keyed by nodes and their cached hashes."""
        ring = self.ring
        atoms, unit = ring.atoms, ring.unit
        return {tuple(sorted((atoms[i], Fraction(e, unit))
                             for i, e in ring.unpack(k))): Fraction(c, self.den)
                for k, c in self.terms.items()}

    def to_expr(self) -> Expr:
        """The polynomial as a normal-form tree: a sum of monomials."""
        ring = self.ring
        atoms, unit = ring.atoms, ring.unit
        return add(*[mul(Fraction(c, self.den),
                         *[pow_(atoms[i], Fraction(e, unit))
                           for i, e in ring.unpack(k)])
                     for k, c in self.terms.items()])


def expand_poly(e: Expr) -> Poly:
    ring = _Ring(*_survey(e))
    while True:
        try:
            return Poly(ring, *ring.expand(e))
        except _Overflow:
            ring = ring.widened()


def expand_monomials(e: Expr) -> dict:
    return expand_poly(e).monomials()


def clear_denominators(p: Poly):
    """Multiply through by sum denominators until none remain.

    Returns (polynomial, cleared) where ``cleared`` is False when
    denominators survive ``CLEAR_ROUNDS`` rounds, or when clearing would
    multiply a sum out past twice ``POW_EXPAND_LIMIT``; the result is then
    unusable for a symbolic zero verdict.
    """
    ring, poly = p.ring, (p.terms, p.den, p.bound)
    while True:
        try:
            return _clear(ring, poly)
        except _Overflow:
            wide = ring.widened()
            ring, poly = wide, wide.repack(poly, ring)


def _clear(ring: _Ring, poly: tuple) -> tuple:
    for _ in range(CLEAR_ROUNDS):
        need = ring.denominators(poly[0])
        if not need:
            return Poly(ring, *poly), True
        for i, m in need.items():
            lifted = ring.lift(poly, i, m)
            if lifted is None:
                return Poly(ring, *poly), False
            poly = lifted
    return Poly(ring, *poly), not ring.denominators(poly[0])


def expand_tables(values, tables) -> list:
    """The Poly of each table, all in one ring.

    A table is a tuple of monomials (coefficient, ((atom, power), ...)),
    with a Fraction coefficient and int powers of at least 1, and stands
    for the sum of coefficient * prod(values[atom]^power); ``values`` is
    a sequence of expressions, and an atom is a position in it. Each
    value a monomial holds is expanded once, and each power of it once,
    for every table and monomial that holds it.

    The product of a monomial is the expansion of the ``mul`` of its
    values, with one exception, a fractional power of a sum (or of a
    product or power under a root): ``mul`` merges it with another
    factor on the same base, as in u^(1/2)*u^(1/2) = u, while the ring
    keeps it as an opaque atom. A monomial whose values meet on such a
    base is built with ``mul`` and expanded as one node; no other node
    is built.
    """
    used = sorted({k for table in tables for _, factors in table
                   for k, _ in factors})
    bases = {k: _bases(values[k]) for k in used}
    ring = _Ring(*_survey(*[values[k] for k in used]))
    while True:
        try:
            return [Poly(ring, *p)
                    for p in _expand_tables(ring, values, tables, bases)]
        except _Overflow:
            ring = ring.widened()


def _expand_tables(ring: _Ring, values, tables, bases: dict) -> list:
    powers: dict = {}
    rooted = any(r for found in bases.values() for _, r in found)

    def power(atom, n: int) -> tuple:
        hit = powers.get((atom, n))
        if hit is None:
            hit = (ring.expand(values[atom]) if n == 1
                   else ring.pow(power(atom, 1), n))
            powers[atom, n] = hit
        return hit

    out = []
    for table in tables:
        parts = []
        for coeff, factors in table:
            if rooted and _merges(bases[k] * n for k, n in factors):
                p = ring.expand(mul(*[pow_(values[k], n)
                                      for k, n in factors]))
            else:
                p = power(*factors[0]) if factors else ({0: 1}, 1, 0)
                for f in factors[1:]:
                    p = ring.mul(p, power(*f))
            parts.append(ring.mul(({0: coeff.numerator}, coeff.denominator,
                                   0), p))
        out.append(_add(parts))
    return out


def _bases(e: Expr) -> tuple:
    """(base, rooted) of each factor of the term ``e`` that is a sum,
    or a power of a sum, a product or a power: the sum itself, or the
    power's base, rooted when the exponent is fractional."""
    out = []
    for f in e.factors if type(e) is Prod else (e,):
        if type(f) is Sum:
            out.append((f, False))
        elif type(f) is Pow and type(f.base) in (Sum, Prod, Pow):
            out.append((f.base, f.exp.denominator != 1))
    return tuple(out)


def _merges(groups) -> bool:
    """Whether two of the (base, rooted) factors in ``groups`` share a
    base, one of them rooted."""
    seen: dict = {}
    for group in groups:
        for base, rooted in group:
            if base in seen:
                if rooted or seen[base]:
                    return True
            else:
                seen[base] = rooted
    return False


def cancels(p: Poly) -> bool:
    """True when ``p``, with its sum denominators cleared, has no term."""
    return decide(p) is True


def decide(p: Poly):
    """True when ``p`` cancels; False when it is proven nonzero: cleared,
    it keeps a term, and each atom of its terms is a coordinate, function
    symbol or non-sign parameter to a whole power, all independent; else
    None (a sum atom, root or kernel is left, or clearing gave up)."""
    if not p.terms:
        return True
    p, cleared = clear_denominators(p)
    if not (cleared and p.terms):
        return cleared or None
    ring = p.ring
    for k in p.terms:
        for i, e in ring.unpack(k):
            a = ring.atoms[i]
            if e % ring.unit or not (
                    type(a) in (Coord, Func) or type(a) is Param and
                    a.name not in SIGN_PARAMS | TERNARY_PARAMS):
                return None
    return False


def is_zero_symbolic(e: Expr) -> bool:
    """True when ``e`` is ZERO, with no ring, or its cleared expansion is."""
    return e == ZERO or cancels(expand_poly(e))
