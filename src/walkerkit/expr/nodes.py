"""Immutable symbolic expression trees over exact rational arithmetic.

Every expression is kept in a canonical normal form at construction time:
sums and products are flattened and sorted under a fixed total order, like
terms are merged, rational constants are folded, nested powers collapse
where that keeps the value (``pow_``), and power exponents are rational
numbers. Two expressions built from the same term multiset compare
structurally equal, so ``==`` is mathematical equality of normal forms.

Transcendental kernels (ln, exp, atan) stay opaque: their arguments are
normalized but no identities between distinct kernels are applied. The
zero test that needs more than the constructive normal form lives in
``expand``/``numeric``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, wraps
from itertools import repeat
from math import gcd

COORD_NAMES = ("x", "t", "y", "z")
COORD_INDEX = {"x": 1, "t": 2, "y": 3, "z": 4}
INDEX_COORD = {1: "x", 2: "t", 3: "y", 4: "z"}
ALL_DEPS = (1, 2, 3, 4)
PLANE_DEPS = (1, 2)

# Sign-valued parameters square to one; the ternary one is -1, 0 or +1.
SIGN_PARAMS = frozenset({"eps", "epsp"})
TERNARY_PARAMS = frozenset({"epz"})


class ExprError(ValueError):
    """Invalid construction: 0^0, exact division by zero, bad indices."""


def _frac(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise ExprError(f"not a rational value: {v!r}")


class Expr:
    """Base node. Instances are immutable; identity is the normal form.

    Each node stores its key and hash when it is built. A node with
    children makes its hash from their cached hashes: ``hash`` of the
    nested key would walk it as a tree, once per path, which is
    exponential in the depth of shared subtrees."""

    __slots__ = ("_key", "_hash")

    def key(self):
        return self._key

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Expr):
            return NotImplemented
        return self._key == other._key

    def __ne__(self, other):
        if self is other:
            return False
        if not isinstance(other, Expr):
            return NotImplemented
        return self._key != other._key

    def __lt__(self, other):
        return self._key < other._key

    def __repr__(self):
        return f"<expr {render(self)}>"

    # Arithmetic sugar. Everything routes through the normalizing builders.
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, mul(-1, other))

    def __rsub__(self, other):
        return add(other, mul(-1, self))

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(-1, self)

    def __pow__(self, e):
        return pow_(self, e)


# Num(k) for an int k in -SMALL_INT..SMALL_INT returns one shared node
# from this table, filled below the class. The integer constants that
# perfbench's three workloads build lie in -2..9.
SMALL_INT = 16
_SMALL_NUMS: dict = {}


class Num(Expr):
    __slots__ = ("value",)

    def __new__(cls, value):
        if type(value) is int:
            hit = _SMALL_NUMS.get(value)
            if hit is not None:
                return hit
        v = _frac(value)
        self = object.__new__(cls)
        self.value = v
        self._key = key = (0, (v.numerator, v.denominator))
        self._hash = hash(key)
        return self


_SMALL_NUMS.update({k: Num(k) for k in range(-SMALL_INT, SMALL_INT + 1)})


class Coord(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        if name not in COORD_NAMES:
            raise ExprError(f"unknown coordinate {name!r}")
        self.name = name
        self._key = key = (1, name)
        self._hash = hash(key)


class Param(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self._key = key = (2, name)
        self._hash = hash(key)


class Func(Expr):
    """Dependent-function symbol with a (sorted) derivative multi-index.

    ``deps`` lists the coordinate indices the function may depend on;
    differentiation along any other coordinate gives zero.
    """

    __slots__ = ("name", "idx", "deps")

    def __init__(self, name: str, idx: tuple = (), deps: tuple = ALL_DEPS):
        idx = tuple(idx)
        deps = tuple(deps)
        if any(i not in (1, 2, 3, 4) for i in idx):
            raise ExprError(f"derivative index outside 1..4 on {name!r}: {idx}")
        if any(i not in deps for i in idx):
            raise ExprError(f"{name!r} does not depend on coordinate index {idx}")
        if tuple(sorted(idx)) != idx:
            raise ExprError(f"derivative index not sorted on {name!r}: {idx}")
        self.name = name
        self.idx = idx
        self.deps = deps
        self._key = key = (3, name, idx, deps)
        self._hash = hash(key)


class Ln(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        self.arg = arg
        self._key = (4, arg._key)
        self._hash = hash((4, arg._hash))


class ExpF(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        self.arg = arg
        self._key = (5, arg._key)
        self._hash = hash((5, arg._hash))


class Atan(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        self.arg = arg
        self._key = (6, arg._key)
        self._hash = hash((6, arg._hash))


class Pow(Expr):
    """base^exp with a rational exponent. Never exp 0 or 1, never Num^int.
    The base is a Pow only where merging the exponents would change the
    value, as in ((x - 1)^2)^(1/2) = |x - 1|, and a Prod only under an
    even root of factors not positive by convention, as in
    ((x - 1)*ln(x))^(1/2)."""

    __slots__ = ("base", "exp")

    def __init__(self, base: Expr, exp: Fraction):
        self.base = base
        self.exp = exp
        e = exp.numerator, exp.denominator
        self._key = (7, base._key, e)
        self._hash = hash((7, base._hash, e))


class Prod(Expr):
    """coeff * f1 * f2 * ... with distinct non-numeric factors, sorted."""

    __slots__ = ("coeff", "factors")

    def __init__(self, coeff: Fraction, factors: tuple):
        self.coeff = coeff
        self.factors = factors
        c = coeff.numerator, coeff.denominator
        self._key = (8, c, tuple([f._key for f in factors]))
        self._hash = hash((8, c, factors))


class Sum(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms: tuple):
        self.terms = terms
        self._key = (9, tuple([t._key for t in terms]))
        self._hash = hash((9, terms))


ZERO = Num(0)
ONE = Num(1)


def to_expr(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, Fraction)):
        return Num(v)
    raise ExprError(f"cannot coerce {v!r} to an expression")


def num(v) -> Num:
    return Num(v)


def coord(name: str) -> Coord:
    return Coord(name)


def param(name: str) -> Param:
    return Param(name)


def funcsym(name: str, idx=(), deps=ALL_DEPS) -> Func:
    return Func(name, tuple(sorted(idx)), tuple(deps))


# Entries of the derivative cache shared by ``diff`` and ``partial``. The
# Einstein checks of a metric and of its twin re-derive the same b and c
# subtrees, and ``verify --all`` re-takes the basis fields' partials. At
# 512, perfbench's curvature workload at seed 7 derives 2759 nodes where
# it derived 19 840 uncached (2952 at 256, 2419 with no bound), and peak
# memory stays flat; it grows about 1.7 MB from 4096 entries.
DERIVE_CACHE = 512

# Entries of each constructor cache (``add``, ``mul``, ``pow_``). Vector
# fields, bracket cases and minors rebuild the same normal forms. At 256,
# perfbench's verify_all workload at seed 1 finds 8931 of its 10 952
# ``mul`` calls and 4787 of its 5962 ``add`` calls in the caches (9042
# and 4801 at 512, 9085 and 4823 at 4096), and peak memory grows about
# 0.45 MB; 512 entries run no faster and add 0.1 to 0.3 MB more, 4096 up
# to 2.5 MB more.
BUILD_CACHE = 256


def _memoized(build):
    """``build`` behind an LRU of BUILD_CACHE entries keyed on its
    arguments and their types, so 1, 1.0 and Fraction(1) are distinct
    keys and a float is rejected even after an equal int was cached. An
    unhashable argument (a list, a dict) skips the cache and ``build``
    rejects it with ExprError, as uncached."""
    cached = lru_cache(maxsize=BUILD_CACHE, typed=True)(build)

    @wraps(build)
    def builder(*args):
        try:
            return cached(*args)
        except TypeError:  # an unhashable argument
            return build(*args)

    builder.cache_info = cached.cache_info
    return builder


def _coeff_factors(e: Expr):
    """Split a normalized term into (rational coefficient, factor tuple)."""
    if isinstance(e, Num):
        return e.value, ()
    if isinstance(e, Prod):
        return e.coeff, e.factors
    return Fraction(1), (e,)


def _remake_term(coeff: Fraction, factors: tuple) -> Expr:
    if not factors:
        return Num(coeff)
    if coeff == 1 and len(factors) == 1:
        return factors[0]
    return Prod(coeff, factors)


@_memoized
def add(*terms) -> Expr:
    # Like terms share a bucket keyed by their factors: the factor itself
    # when there is one, else their tuple. A term alone in its bucket is
    # already normal and is kept as it is; only merged buckets are remade.
    buckets: dict = {}
    for term in terms:
        parts = term.terms if type(term) is Sum else (to_expr(term),)
        for t in parts:
            tt = type(t)
            if tt is Prod:
                k, cf = t.factors, t.coeff
                if len(k) == 1:
                    k = k[0]
            elif tt is Num:
                k, cf = (), t.value
            else:
                k, cf = t, 1
            hit = buckets.get(k)
            if hit is None:
                buckets[k] = [cf, t, False]
            else:
                hit[0] += cf
                hit[2] = True
    out = []
    for cf, t, merged in buckets.values():
        if not cf:
            continue
        if merged:
            t = _remake_term(_frac(cf), _coeff_factors(t)[1])
        out.append(t)
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    out.sort(key=_sort_key)
    return Sum(tuple(out))


def _sort_key(e: Expr):
    return e._key


@_memoized
def mul(*factors) -> Expr:
    # The coefficient is an int numerator and denominator until the end.
    # A base met once keeps its own factor node: a Pow is only ever built
    # by ``pow_``, so pow_(p.base, p.exp) is p, and any other factor is
    # its own first power.
    cn = cd = 1
    pending = list(factors)
    powers: dict = {}
    while pending:
        f = pending.pop()
        tf = type(f)
        if tf is Num:
            v = f.value
            cn *= v.numerator
            cd *= v.denominator
            continue
        if tf is Prod:
            v = f.coeff
            cn *= v.numerator
            cd *= v.denominator
            pending.extend(f.factors)
            continue
        if tf is Pow:
            base, e = f.base, f.exp
        elif isinstance(f, Expr):
            base, e = f, 1
        elif tf is Fraction or tf is int:
            cn *= f.numerator
            cd *= f.denominator
            continue
        else:
            pending.append(to_expr(f))
            continue
        hit = powers.get(base)
        if hit is None:
            powers[base] = [e, f]
        else:
            hit[0] += e
            hit[1] = None
    if cn == 0:
        return ZERO

    out = []
    redo = []
    for base, (e, node) in powers.items():
        if node is not None:
            out.append(node)
            continue
        if e == 0:
            continue
        p = pow_(base, e)
        tp = type(p)
        if tp is Num:
            cn *= p.value.numerator
            cd *= p.value.denominator
        elif tp is Prod or (tp is Pow and p.base != base):
            # a product, or a nested power whose exponents merged: its
            # base may meet another factor's
            redo.append(p)
        else:
            out.append(p)
    coeff = Fraction(cn, cd)
    if redo:
        return mul(coeff, *out, *redo)
    if not cn:
        return ZERO
    if not out:
        return Num(coeff)
    if cn == cd and len(out) == 1:
        return out[0]
    out.sort(key=_sort_key)
    return Prod(coeff, tuple(out))


def _nth_root(n: int, k: int):
    """Exact integer k-th root of n >= 0, or None."""
    if n == 0:
        return 0
    # integer Newton iteration from above stops at the floor of the root
    r = 1 << -(-n.bit_length() // k)
    while (nxt := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
        r = nxt
    return r if r ** k == n else None


def _exact_pow(v: Fraction, e: Fraction):
    """v^e as an exact Fraction, or None when irrational."""
    if e.denominator == 1:
        return v ** e.numerator
    neg = v < 0
    if neg and e.denominator % 2 == 0:
        return None
    av = abs(v)
    rn = _nth_root(av.numerator, e.denominator)
    rd = _nth_root(av.denominator, e.denominator)
    if rn is None or rd is None:
        return None
    root = Fraction(rn, rd)
    if neg:
        root = -root
    return root ** e.numerator


def _fraction_gcd(a: Fraction, b: Fraction) -> Fraction:
    return Fraction(gcd(a.numerator, b.numerator),
                    (a.denominator * b.denominator) // gcd(a.denominator, b.denominator))


def sum_content(s: Sum) -> Fraction:
    """Positive rational content of a sum's term coefficients."""
    c = Fraction(0)
    for term in s.terms:
        cf, _ = _coeff_factors(term)
        c = _fraction_gcd(c, abs(cf)) if c else abs(cf)
    return c if c else Fraction(1)


def scale_sum(s: Sum, factor: Fraction) -> Expr:
    return add(*[mul(factor, t) for t in s.terms])


@_memoized
def pow_(base, e) -> Expr:
    e = _frac(e)
    base = to_expr(base)
    if e == 0:
        if type(base) is Num and base.value == 0:
            raise ExprError("0^0 is undefined")
        return ONE
    if e == 1:
        return base
    tb = type(base)
    if tb is Num:
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
    if tb is Pow:
        if (e.denominator == 1 or base.exp.numerator % 2
                or _positive_atom(base.base)):
            return pow_(base.base, base.exp * e)
        # u^m >= 0 for an even numerator m, so (u^m)^e is |u|^(m*e)
        return Pow(base, e)
    if tb is Prod:
        if e.denominator % 2 == 0:
            # an even root spreads only over factors positive by
            # convention: (u*v)^(1/2) is real where u, v < 0, and
            # u^(1/2)*v^(1/2) is not
            rest = tuple(f for f in base.factors if not _positive_factor(f))
            if rest:
                sign = -1 if base.coeff < 0 else 1
                kept = Prod(Fraction(sign), rest) if (
                    sign < 0 or len(rest) > 1) else rest[0]
                parts = [pow_(f, e) for f in base.factors
                         if _positive_factor(f)]
                parts.append(pow_(Num(abs(base.coeff)), e))
                parts.append(Pow(kept, e) if type(kept) is Prod
                             else pow_(kept, e))
                return mul(*parts)
        parts = [pow_(f, e) for f in base.factors]
        if base.coeff != 1:
            parts.append(pow_(Num(base.coeff), e))
        return mul(*parts)
    if tb is Sum:
        content = sum_content(base)
        if content != 1:
            primitive = scale_sum(base, 1 / content)
            return mul(pow_(Num(content), e), pow_(primitive, e))
    return Pow(base, e)


def _positive_atom(u: Expr) -> bool:
    """A leaf taken positive by convention (numeric samples draw it from
    [0.5, 2]), or a positive rational."""
    tu = type(u)
    if tu is Coord or tu is Func:
        return True
    if tu is Param:
        return u.name not in SIGN_PARAMS and u.name not in TERNARY_PARAMS
    return tu is Num and u.value > 0


def _positive_factor(f: Expr) -> bool:
    """A factor positive wherever it is defined: a positive atom, a power
    of one, or an exponential."""
    tf = type(f)
    if tf is Pow:
        return _positive_atom(f.base)
    return tf is ExpF or _positive_atom(f)


def div(a, b) -> Expr:
    return mul(a, pow_(b, -1))


def neg(a) -> Expr:
    return mul(-1, a)


def sub(a, b) -> Expr:
    return add(a, mul(-1, b))


def ln(arg) -> Expr:
    """ln(arg); ln(1) is 0, and an exact constant at or below zero has no
    real logarithm, so it raises rather than build a node."""
    arg = to_expr(arg)
    if type(arg) is Num:
        if arg.value <= 0:
            raise ExprError(f"logarithm of the non-positive constant "
                            f"{_frac_text(arg.value)}")
        if arg.value == 1:
            return ZERO
    return Ln(arg)


def exp_(arg) -> Expr:
    """exp(arg); exp(0) is 1, and exp(k*ln(u)) is u^k for an atom u
    positive by convention."""
    arg = to_expr(arg)
    if arg == ZERO:
        return ONE
    k, factors = _coeff_factors(arg)
    if (len(factors) == 1 and type(factors[0]) is Ln
            and _positive_atom(factors[0].arg)):
        return pow_(factors[0].arg, k)
    return ExpF(arg)


def atan(arg) -> Expr:
    arg = to_expr(arg)
    return ZERO if arg == ZERO else Atan(arg)


def sqrt(arg) -> Expr:
    return pow_(arg, Fraction(1, 2))


def diff(e: Expr, v: str) -> Expr:
    """Derivative along coordinate ``v`` chaining through function symbols.

    A function symbol picks up the coordinate index (kept sorted, so mixed
    partials commute by construction); symbols that do not depend on ``v``
    differentiate to zero.
    """
    if v not in COORD_INDEX:
        raise ExprError(f"unknown coordinate {v!r}")
    return _derivative(e, v)


def partial(e: Expr, atom: Expr) -> Expr:
    """Formal partial derivative treating every other atom as constant.

    Unlike ``diff`` this does not chain a function symbol to a new
    derivative index: the atom (coordinate, parameter or function symbol)
    is an independent variable here. Used for jet-space partials and for
    vector fields on the full (x, t, a, b, c) space.
    """
    return _derivative(e, atom)


def _derivative(e: Expr, wrt) -> Expr:
    # Each level of _derive is two levels of the interpreter's recursion
    # (its frame and the cache's call), so a tree that the parser's depth
    # bound admits can still be too deep to differentiate.
    try:
        return _derive(e, wrt)
    except RecursionError:
        raise ExprError("expression nested too deeply to "
                        "differentiate") from None


@lru_cache(maxsize=DERIVE_CACHE)
def _derive(e: Expr, wrt) -> Expr:
    """Sum, product, power and chain rules. ``wrt`` is a coordinate name
    (``diff``: a function symbol picks up its index) or an atom
    (``partial``: every other atom is constant). Subtrees recurse through
    the cache, so each (node, direction) pair is derived once while it
    stays in it."""
    te = type(e)
    if te is Num or te is Coord or te is Param or te is Func:
        if type(wrt) is not str:
            return ONE if e == wrt else ZERO
        if te is Coord:
            return ONE if e.name == wrt else ZERO
        if te is Func and (i := COORD_INDEX[wrt]) in e.deps:
            return Func(e.name, tuple(sorted(e.idx + (i,))), e.deps)
        return ZERO
    if te is Sum:
        return add(*map(_derive, e.terms, repeat(wrt)))
    if te is Prod:
        terms = []
        fl = e.factors
        for k, fk in enumerate(fl):
            dk = _derive(fk, wrt)
            if dk is ZERO:
                continue
            terms.append(mul(e.coeff, dk, *fl[:k], *fl[k + 1:]))
        return add(*terms)
    if te is Pow:
        db = _derive(e.base, wrt)
        if db is ZERO:
            return ZERO
        # the base is already normal (a sum base primitive), so it is
        # raised to exp - 1 without normalizing it again
        n = e.exp - 1
        return mul(e.exp, e.base if n == 1 else Pow(e.base, n), db)
    if te is Ln:
        return mul(_derive(e.arg, wrt), pow_(e.arg, -1))
    if te is ExpF:
        return mul(_derive(e.arg, wrt), e)
    if te is Atan:
        return mul(_derive(e.arg, wrt), pow_(add(ONE, pow_(e.arg, 2)), -1))
    raise ExprError(f"cannot differentiate {e!r}")


def _norm_bindings(bindings: dict):
    fmap: dict = {}
    pmap: dict = {}
    jmap: dict = {}
    for k, v in bindings.items():
        v = to_expr(v)
        if isinstance(k, Func):
            if k.idx:
                jmap[k] = v
            else:
                fmap[k.name] = v
        elif isinstance(k, Param):
            pmap[k.name] = v
        elif isinstance(k, str):
            # Bare names: function names a,b,c,f,g,h bind functions,
            # anything else binds a parameter.
            if k in ("a", "b", "c", "f", "g", "h"):
                fmap[k] = v
            else:
                pmap[k] = v
        else:
            raise ExprError(f"bad binding key {k!r}")
    return fmap, pmap, jmap


def jet_memo(fmap: dict):
    """``jet(name, idx)``: the derivative of ``fmap[name]`` along the
    sorted coordinate index ``idx``, taken by ``diff`` on its memoized
    prefix, so each distinct derivative (a_1, a_11, ...) is
    differentiated once for as long as ``jet`` lives."""
    memo: dict = {}

    def jet(name: str, idx: tuple) -> Expr:
        key = (name, idx)
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = (diff(jet(name, idx[:-1]), INDEX_COORD[idx[-1]])
                               if idx else fmap[name])
        return hit

    return jet


def substitute(e: Expr, bindings: dict) -> Expr:
    """Replace function symbols and parameters, closing under derivatives.

    A derivative symbol of a bound function rewrites to the corresponding
    derivative of the bound expression, so a binding like b -> a*f carries
    b_2 to a_2*f + a*f_2 automatically. Differentiating a binding along a
    coordinate it does not involve yields zero rather than an error. A
    jet-atom key such as a_11 replaces that one atom only, as a leaf.
    """
    return substitute_all((e,), bindings)[0]


def substitute_all(exprs, bindings: dict) -> tuple:
    """``substitute`` of each expression under one set of bindings.

    The expressions share one derivative memo, so each distinct
    derivative of a binding (a_1, a_11, ...) is differentiated once for
    the whole batch. A term of a sum that substitutes to zero is dropped
    before ``add``, and a product with a factor that substitutes to zero
    is ZERO without a ``mul`` call; its other factors are still
    substituted, so one that raises (a zero to a negative power) still
    raises. On a metric that depends on x and t alone, most jets of a, b
    and c are zero, so most monomials of a polynomial in those jets
    build nothing.
    """
    fmap, pmap, jmap = _norm_bindings(bindings)
    bound = jet_memo(fmap)

    def walk(e: Expr) -> Expr:
        te = type(e)
        if te is Func:
            return bound(e.name, e.idx) if e.name in fmap else jmap.get(e, e)
        if te is Prod:
            factors = [walk(f) for f in e.factors]
            for f in factors:
                if type(f) is Num and not f.value:
                    return ZERO
            return mul(e.coeff, *factors)
        if te is Sum:
            terms = [w for w in map(walk, e.terms)
                     if type(w) is not Num or w.value]
            return add(*terms) if terms else ZERO
        if te is Num or te is Coord:
            return e
        if te is Param:
            return pmap.get(e.name, e)
        if te is Pow:
            return pow_(walk(e.base), e.exp)
        if te is Ln:
            return ln(walk(e.arg))
        if te is ExpF:
            return exp_(walk(e.arg))
        if te is Atan:
            return atan(walk(e.arg))
        raise ExprError(f"cannot substitute into {e!r}")

    return tuple(walk(e) for e in exprs)


def free_atoms(*exprs: Expr) -> set:
    """All coordinate, parameter and function-symbol leaves of the given
    expressions. Each distinct node object is visited once, so a subtree
    reached along several paths costs one visit."""
    out: set = set()
    seen: set = set()
    stack = list(exprs)
    while stack:
        n = stack.pop()
        tn = type(n)
        if tn is Coord or tn is Param or tn is Func:
            out.add(n)
            continue
        if tn is Num:
            continue
        if id(n) in seen:
            continue
        seen.add(id(n))
        if tn is Sum:
            stack.extend(n.terms)
        elif tn is Prod:
            stack.extend(n.factors)
        elif tn is Pow:
            stack.append(n.base)
        elif tn is Ln or tn is ExpF or tn is Atan:
            stack.append(n.arg)
        else:
            raise ExprError(f"unexpected node {n!r}")
    return out


def atom_name(a: Expr) -> str:
    """Stable string key for a leaf atom, used by numeric points."""
    if isinstance(a, (Coord, Param)):
        return a.name
    if isinstance(a, Func):
        if a.idx:
            return a.name + "_" + "".join(str(i) for i in a.idx)
        return a.name
    raise ExprError(f"not an atom: {a!r}")


# --- rendering ------------------------------------------------------------

def _frac_text(q: Fraction) -> str:
    try:
        if q.denominator == 1:
            return str(q.numerator)
        return f"{q.numerator}/{q.denominator}"
    except ValueError as exc:  # past sys.get_int_max_str_digits()
        raise ExprError(f"cannot render a constant: {exc}") from None


def _pow_text(e: Pow) -> str:
    if e.exp == Fraction(1, 2):
        return f"sqrt({render(e.base)})"
    base = render(e.base)
    if isinstance(e.base, (Sum, Prod, Pow)) or (
            isinstance(e.base, Num) and (e.base.value < 0 or e.base.value.denominator != 1)):
        base = f"({base})"
    if e.exp.denominator == 1 and e.exp >= 0:
        return f"{base}^{e.exp.numerator}"
    return f"{base}^({_frac_text(e.exp)})"


def _factor_text(f: Expr) -> str:
    s = render(f)
    if isinstance(f, Sum):
        return f"({s})"
    return s


def render(e: Expr) -> str:
    """Canonical text form; parse(render(e)) == e."""
    if isinstance(e, Num):
        return _frac_text(e.value)
    if isinstance(e, (Coord, Param)):
        return e.name
    if isinstance(e, Func):
        return atom_name(e)
    if isinstance(e, Ln):
        return f"ln({render(e.arg)})"
    if isinstance(e, ExpF):
        return f"exp({render(e.arg)})"
    if isinstance(e, Atan):
        return f"atan({render(e.arg)})"
    if isinstance(e, Pow):
        return _pow_text(e)
    if isinstance(e, Prod):
        parts = [_factor_text(f) for f in e.factors]
        if e.coeff == 1:
            return "*".join(parts)
        if e.coeff == -1:
            return "-" + "*".join(parts)
        return "*".join([_frac_text(e.coeff)] + parts)
    if isinstance(e, Sum):
        out = render(e.terms[0])
        for term in e.terms[1:]:
            cf, factors = _coeff_factors(term)
            if cf < 0:
                # -1*(u + v) negates to the sum u + v, which needs brackets
                out += " - " + _factor_text(_remake_term(-cf, factors))
            else:
                out += " + " + render(term)
        return out
    raise ExprError(f"cannot render {e!r}")
