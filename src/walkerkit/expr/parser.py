"""Text grammar for expressions.

Coordinates x t y z; parameters c1..c9, b1..b7, alpha, beta and the sign
symbols eps, epsp, epz; dependent functions a, b, c (on x and t by
default) plus the reduced profiles f, g, h of one variable. A trailing
underscore index like a_12 is a derivative symbol; digit order is
irrelevant on input and canonicalized on output.

Operators + - * / ^ with ^ binding tightest and right-associative.
Multiplication is always explicit. Exponents must fold to an exact
rational. Calls: sqrt(u), ln(u), exp(u), atan(u).

The tokenizer turns the text into a list of (kind, value, offset)
tuples (see ``_tokenize``), and the parser reads that list by index.
An error is a ParseError that names the offset of the token at fault.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .nodes import (
    COORD_NAMES, PLANE_DEPS, Expr, ExprError, Func, Num, Param, add, atan,
    coord, div, exp_, ln, mul, neg, pow_, sqrt,
)

PARAM_NAMES = frozenset(
    {f"c{i}" for i in range(1, 10)}
    | {f"b{i}" for i in range(1, 8)}
    | {"alpha", "beta", "eps", "epsp", "epz"}
)

DEFAULT_FUNCS = {
    "a": PLANE_DEPS,
    "b": PLANE_DEPS,
    "c": PLANE_DEPS,
    "f": (2,),
    "g": (2,),
    "h": (2,),
}

_CALLS = {"sqrt": sqrt, "ln": ln, "exp": exp_, "atan": atan}

# Deepest nesting of parentheses, calls, unary minus and right-nested
# powers accepted. The parser and the tree walkers recurse once per
# level, so the bound keeps them under the interpreter's recursion limit.
# The cached derivative walker takes two levels a node; past the limit,
# ``diff`` and ``partial`` raise ExprError.
MAX_DEPTH = 200

# Size bound on exact integers, in bits (floor(log2)): of an integer
# literal, and of a literal power ``Num ^ Num`` folded to an exact
# rational (floor(log2) of the base times the exponent), since a tower
# such as 2^2^2^2^2^2 would otherwise exhaust memory. The exponent of any
# other power, and the root degree of every power, are bounded by the
# same number; past it a float evaluation overflows and an exact root
# stalls.
MAX_POWER_BITS = 4096


class ParseError(ExprError):
    def __init__(self, message: str, offset: int, text: str):
        super().__init__(f"{message} at offset {offset}: "
                         f"...{text[max(0, offset - 12):offset + 12]!r}...")
        self.offset = offset


def _tokenize(text: str) -> list:
    """The tokens of ``text``: (kind, value, offset) tuples. kind is "num"
    (value: the int), "name" (value: (name, derivative digits or None)),
    one of the characters + - * / ^ ( ) (value: the same character), or
    "end" (value None, offset len(text)), which closes the list."""
    out = []
    append = out.append
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\n\r":
            i += 1
            continue
        # only 0-9 make a literal or an index: str.isdigit() also holds
        # for '²', which int() rejects, and for '٣', which it reads as 3
        if "0" <= ch <= "9":
            j = i + 1
            while j < n and "0" <= text[j] <= "9":
                j += 1
            if j < n and text[j] == ".":
                raise ParseError("decimal literals are not supported, "
                                 "write an exact fraction", i, text)
            digits = text[i:j].lstrip("0") or "0"
            # more than 3 bits a digit: the length test keeps int() off
            # strings beyond the interpreter's digit limit
            if (len(digits) > MAX_POWER_BITS // 3
                    or int(digits).bit_length() - 1 > MAX_POWER_BITS):
                raise ParseError(f"integer literal larger than "
                                 f"{MAX_POWER_BITS} bits", i, text)
            append(("num", int(digits), i))
            i = j
            continue
        if ch.isalpha():
            j = i + 1
            while j < n and text[j].isalnum():
                j += 1
            name = text[i:j]
            idx = None
            if j < n and text[j] == "_":
                k = j + 1
                while k < n and "0" <= text[k] <= "9":
                    k += 1
                if k == j + 1:
                    raise ParseError("underscore must be followed by "
                                     "coordinate digits", j, text)
                idx = tuple(map(int, text[j + 1:k]))
                j = k
            append(("name", (name, idx), i))
            i = j
            continue
        if ch in "+-*/^()":
            append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i, text)
    append(("end", None, n))
    return out


_LBP = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}


class _Parser:
    """Pratt parser over the token list; ``pos`` indexes the next token."""

    def __init__(self, text: str, functions: dict, params: frozenset):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.functions = functions
        self.params = params

    def expect(self, kind: str) -> None:
        tok = self.tokens[self.pos]
        self.pos += 1
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, got {tok[0]!r}",
                             tok[2], self.text)

    def parse(self) -> Expr:
        e = self.expression(0)
        kind, _, offset = self.tokens[self.pos]
        if kind != "end":
            raise ParseError(f"trailing input {kind!r}", offset, self.text)
        return e

    def expression(self, bp: int) -> Expr:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"nesting deeper than {MAX_DEPTH} levels",
                             self.tokens[self.pos][2], self.text)
        left = self.prefix()
        tokens = self.tokens
        while _LBP.get(tokens[self.pos][0], -1) > bp:
            left = self.infix(left)
        self.depth -= 1
        return left

    def prefix(self) -> Expr:
        kind, value, offset = self.tokens[self.pos]
        self.pos += 1
        if kind == "num":
            return Num(value)
        if kind == "name":
            return self.name(value, offset)
        if kind == "-":
            return neg(self.expression(15))
        if kind == "(":
            e = self.expression(0)
            self.expect(")")
            return e
        raise ParseError(f"unexpected token {kind!r}", offset, self.text)

    def infix(self, left: Expr) -> Expr:
        kind, _, offset = self.tokens[self.pos]
        self.pos += 1
        if kind == "+":
            return add(left, self.expression(10))
        if kind == "-":
            return add(left, neg(self.expression(10)))
        if kind == "*":
            return mul(left, self.expression(20))
        if kind == "/":
            right = self.expression(20)
            try:
                return div(left, right)
            except ExprError as exc:
                raise ParseError(str(exc), offset, self.text) from None
        if kind == "^":
            right = self.expression(29)
            if not isinstance(right, Num):
                raise ParseError("exponent must fold to an exact rational",
                                 offset, self.text)
            self.check_power(left, right.value, offset)
            try:
                return pow_(left, right.value)
            except ExprError as exc:
                raise ParseError(str(exc), offset, self.text) from None
        raise ParseError(f"unexpected operator {kind!r}", offset, self.text)

    def check_power(self, base: Expr, exp: Fraction, pos: int) -> None:
        """Reject ``base ^ exp`` beyond MAX_POWER_BITS (see there)."""
        if exp.denominator > MAX_POWER_BITS:
            raise ParseError(f"root of degree above {MAX_POWER_BITS}",
                             pos, self.text)
        if isinstance(base, Num):
            size = max(abs(base.value.numerator), base.value.denominator)
            if (size.bit_length() - 1) * abs(exp) > MAX_POWER_BITS:
                raise ParseError(f"literal power larger than "
                                 f"{MAX_POWER_BITS} bits", pos, self.text)
        elif abs(exp.numerator) > MAX_POWER_BITS:
            raise ParseError(f"exponent above {MAX_POWER_BITS} in absolute "
                             "value", pos, self.text)

    def name(self, value: tuple, offset: int) -> Expr:
        name, idx = value
        if name in _CALLS:
            if idx is not None:
                raise ParseError(f"{name} takes no derivative index",
                                 offset, self.text)
            self.expect("(")
            arg = self.expression(0)
            self.expect(")")
            try:
                return _CALLS[name](arg)
            except ExprError as exc:
                raise ParseError(str(exc), offset, self.text) from None
        if name in self.functions:
            deps = self.functions[name]
            try:
                return Func(name, tuple(sorted(idx or ())), deps)
            except ExprError as exc:
                raise ParseError(str(exc), offset, self.text) from None
        if idx is not None:
            raise ParseError(f"{name!r} is not a function symbol, "
                             "cannot take a derivative index", offset, self.text)
        if name in COORD_NAMES:
            return coord(name)
        if name in self.params:
            return Param(name)
        raise ParseError(f"unknown symbol {name!r}", offset, self.text)


# ``DEFAULT_FUNCS`` as a parse-cache key
_DEFAULT_KEY = tuple(DEFAULT_FUNCS.items())


def parse(text: str, functions: dict | None = None,
          extra_params=()) -> Expr:
    """Parse ``text`` into a normalized expression.

    ``functions`` maps function names to dependency index tuples and
    replaces the default map entirely when given. ``extra_params`` admits
    additional parameter names. Results are cached per text and symbol
    table (``PARSE_CACHE``).
    """
    funcs = (_DEFAULT_KEY if functions is None else
             tuple((name, tuple(deps)) for name, deps in functions.items()))
    return _parse(text, funcs, frozenset(extra_params))


# Entries of the parse cache. Its key is the text and the symbol table;
# a failed parse raises and is never stored. ``verify --all`` parses 365
# texts, 148 of them distinct, which 64 entries already reach.
PARSE_CACHE = 64


@lru_cache(maxsize=PARSE_CACHE)
def _parse(text: str, funcs: tuple, extra: frozenset) -> Expr:
    return _Parser(text, dict(funcs), PARAM_NAMES | extra).parse()


def parse_fraction(text: str) -> Fraction:
    e = parse(text, functions={})
    if not isinstance(e, Num):
        raise ExprError(f"not a constant: {text!r}")
    return e.value
