"""Reference tokenizer: ``expr.parser._tokenize`` as it was when it built
one ``_Token`` object per token and the parser read them through
``peek`` and ``advance``. The kernel's tokenizer emits (kind, value,
offset) tuples instead; a test checks that both give the same tokens, or
the same ``ParseError``, on any text."""

from walkerkit.expr.parser import MAX_POWER_BITS, ParseError


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind, value, pos):
        self.kind = kind
        self.value = value
        self.pos = pos


def _tokenize(text: str):
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\n\r":
            i += 1
            continue
        # only 0-9 make a literal or an index: str.isdigit() also holds
        # for '²', which int() rejects, and for '٣', which it reads as 3
        if "0" <= ch <= "9":
            j = i
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
            out.append(_Token("num", int(digits), i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum()):
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
                idx = tuple(int(d) for d in text[j + 1:k])
                j = k
            out.append(_Token("name", (name, idx), i))
            i = j
            continue
        if ch in "+-*/^()":
            out.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i, text)
    out.append(_Token("end", None, n))
    return out


def tokens(text: str) -> list:
    """The reference tokens of ``text`` as (kind, value, offset) tuples."""
    return [(t.kind, t.value, t.pos) for t in _tokenize(text)]
