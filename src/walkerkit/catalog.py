"""Shipped data: subalgebra representatives, invariant sets, ansatz
bindings, reduced residuals and solution families, with JSON load/save.

Expressions are stored as grammar strings, not serialized trees, so the
files stay human-diffable. An ansatz key bound to itself marks that
coordinate as unconstrained. Reduced profile functions f and g depend on
the single independent-variable invariant of their entry; the loader
derives that dependency from the invariant list.
"""

from __future__ import annotations

import json
from collections import namedtuple

from .expr import PLANE_DEPS, Expr, ExprError, parse
from .liealg import parse_generator
from .pis import PISAnsatz, SolutionTriple

SCHEMA = "walker-catalog/1"

# Entry fields holding a list of expression texts or a name -> text map.
_TEXT_LISTS = ("invariants", "reduced", "consistency", "inequations")
_TEXT_MAPS = ("ansatz", "profile")
_ENTRY_KEYS = {"id", "subalgebra", "solutions", "provenance", "checks",
               *_TEXT_LISTS, *_TEXT_MAPS}
# Checks an entry can ask for beyond those its fields imply.
CHECKS = frozenset({"einstein"})
_SUBALGEBRA_KEYS = {"generators", "params"}
_SOLUTION_KEYS = {"a", "b", "c", "params"}

_DOMAIN = {
    "alpha": "alpha in R", "beta": "beta in R",
    "eps": "eps in {-1,1}", "epsp": "epsp in {-1,1}",
    "epz": "epz in {-1,0,1}",
}
_PARAM_ORDER = ("alpha", "beta", "eps", "epsp", "epz",
                "c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "c9")


class SchemaError(ExprError):
    pass


class Solution(namedtuple("Solution", "a b c params", defaults=((),))):
    __slots__ = ()

    def triple(self) -> SolutionTriple:
        return SolutionTriple(parse(self.a), parse(self.b), parse(self.c),
                              tuple(self.params))


class CatalogEntry(namedtuple(
        "CatalogEntry",
        "id generators params invariants ansatz reduced profile"
        " consistency inequations solutions provenance checks",
        defaults=((),) * 8 + ("", ()))):
    """One catalog entry; every field but ``id`` and ``provenance`` is
    a tuple.

    ansatz: ordered (name, text) pairs. profile: (name, text) pairs
    solving ``reduced``. consistency: conditions the profile must also
    satisfy. inequations: expressions the profile must keep nonzero.
    checks: names from CHECKS of the checks ``verify`` runs on the
    entry beyond those its other fields imply ("einstein": its first
    solution is an Einstein metric).
    """

    __slots__ = ()

    # -- parsed views ---------------------------------------------------

    def coeff_vectors(self) -> tuple:
        return tuple(parse_generator(g) for g in self.generators)

    def profile_deps(self) -> tuple:
        """Dependency of the reduced profiles f, g: the remaining
        independent variable among the invariants."""
        if "t" in self.invariants:
            return (2,)
        return (1,)

    def _functions(self) -> dict:
        deps = self.profile_deps()
        return {"a": PLANE_DEPS, "b": PLANE_DEPS, "c": PLANE_DEPS,
                "f": deps, "g": deps, "h": deps}

    def parse_expr(self, text: str) -> Expr:
        return parse(text, functions=self._functions())

    def invariant_set(self) -> tuple:
        return tuple(self.parse_expr(s) for s in self.invariants)

    def pis_ansatz(self) -> PISAnsatz:
        bindings = {}
        arbitrary = []
        for name, text in self.ansatz:
            if text == name:
                arbitrary.append(name)
            else:
                bindings[name] = self.parse_expr(text)
        return PISAnsatz(bindings, tuple(arbitrary))

    def reduced_exprs(self) -> tuple:
        return tuple(self.parse_expr(s) for s in self.reduced)

    def triples(self) -> tuple:
        return tuple(s.triple() for s in self.solutions)

    def all_expr_texts(self) -> tuple:
        out = list(self.generators) + list(self.invariants)
        out += [text for _, text in self.ansatz]
        out += list(self.reduced)
        out += [text for _, text in self.profile]
        out += list(self.consistency) + list(self.inequations)
        for s in self.solutions:
            out += [s.a, s.b, s.c]
        return tuple(out)


# --- construction helpers ----------------------------------------------------

def _params_of(*texts: str) -> tuple:
    found = set()
    for text in texts:
        for name in _PARAM_ORDER:
            if name in found:
                continue
            i = text.find(name)
            while i >= 0:
                after = i + len(name)
                tail = text[after:after + 1]
                if not (tail.isalnum() or tail == "_"):
                    found.add(name)
                    break
                i = text.find(name, after)
    return tuple(_DOMAIN.get(n, f"{n} in R")
                 for n in _PARAM_ORDER if n in found)


def _entry(eid, gens, extra_param_texts=(), **fields) -> CatalogEntry:
    texts = tuple(gens) + tuple(extra_param_texts)
    return CatalogEntry(id=eid, generators=tuple(gens),
                        params=_params_of(*texts), **fields)


# --- shipped data ------------------------------------------------------------

_DIM1 = (
    "X7",
    "X1 + c1*X7",
    "X2 + c1*X7",
    "X6 + c1*X7",
    "eps*X1 + X6 + c1*X7",
    "X5 + c1*X6 + c2*X7",
    "eps*X2 + X5 + c1*X6 + c2*X7",
    "X4 + c1*X5 + c2*X6 + c3*X7",
    "eps*X1 + X4 + c1*X5 + c2*X6 + c3*X7",
    "X3 + c1*X5 + c2*X6 + c3*X7",
    "eps*X2 + X3 + c1*X5 + c2*X6 + c3*X7",
    "X3 + eps*X4 + c1*X5 + c2*X6 + c3*X7",
    "eps*X2 + X3 + epsp*X4 + c1*X5 + c2*X6 + c3*X7",
)

_DIM2 = (
    ("A1_1", "X1", "X3 + alpha*X6 + beta*X7"),
    ("A2_1", "X1", "X2 + alpha*X5 + beta*X7"),
    ("A3_1", "X1", "X5 + alpha*X7"),
    ("A4_1", "X1", "X3 + epz*X5 + X6 + alpha*X7"),
    ("A5_1", "X1", "X2 + alpha*X3 + beta*X7"),
    ("A6_1", "X1", "X6 + alpha*X7"),
    ("A7_1", "X1", "X7"),
    ("A1_2", "X2", "X3 + alpha*X6 + beta*X7"),
    ("A2_2", "X2", "X1 + epz*X4 + beta*X7"),
    ("A3_2", "X2", "X4 + alpha*X7"),
    ("A4_2", "X2", "X3 + epz*X4 + X6 + alpha*X7"),
    ("A5_2", "X2", "X1 + X6 + alpha*X7"),
    ("A6_2", "X2", "X6 + alpha*X7"),
    ("A7_2", "X2", "X7"),
    ("A1_3", "X6", "X3 + alpha*X7"),
    ("A2_3", "X6", "X4"),
    ("A3_3", "X6", "X5"),
    ("A4_3", "X6", "X1 + alpha*X7"),
    ("A5_3", "X6", "X2"),
    ("A6_3", "X6", "X7"),
    ("A1_4", "eps*X1 + X6", "X2"),
    ("A2_4", "eps*X1 + X6", "X5"),
    ("A3_4", "eps*X1 + X6", "X7"),
    ("A1_5", "X5", "X3 + alpha*X6 + beta*X7"),
    ("A2_5", "X5", "X1 + alpha*X6 + beta*X7"),
    ("A3_5", "X5", "X6 + alpha*X7"),
    ("A4_5", "X5", "X7"),
    ("A1_6", "eps*X2 + X5", "X3 + (1/2)*X6 + alpha*X7"),
    ("A2_6", "eps*X2 + X5", "X1 + alpha*X7"),
    ("A3_6", "eps*X2 + X5", "X7"),
    ("A1_7", "X4", "X3 + alpha*X6 + beta*X7"),
    ("A2_7", "X4", "X2 + alpha*X3 + beta*X7"),
    ("A3_7", "X4", "X6 + alpha*X7"),
    ("A4_7", "X4", "X7"),
    ("A1_8", "eps*X1 + X4", "X3 + 2*X6 + alpha*X7"),
    ("A2_8", "eps*X1 + X4", "X2 + alpha*X7"),
    ("A3_8", "eps*X1 + X4", "X7"),
    ("A1_9", "X3", "X2 + alpha*X7"),
    ("A2_9", "X3", "X5"),
    ("A3_9", "X3", "X1"),
    ("A4_9", "X3", "X6 + alpha*X7"),
    ("A5_9", "X3", "X7"),
    ("A6_9", "X3", "X4"),
    ("A1_10", "eps*X2 + X3", "X1"),
    ("A2_10", "eps*X2 + X3", "X4"),
    ("A3_10", "eps*X2 + X3", "X7"),
    ("A4_10", "X2", "X3 + alpha*X7"),
    ("A1_11", "X3 + eps*X4", "eps*X5 + X6 - 2*X7"),
    ("A2_11", "X3 + eps*X4", "X2 + alpha*X7"),
    ("A3_11", "X3 + eps*X4", "X7"),
    ("A4_11", "X3 + eps*X4", "X3 + X6 + alpha*X7"),
    ("A5_11", "X3 + eps*X4", "X1 + eps*X2"),
    ("A1_12", "eps*X2 + X3 + epsp*X4", "X1 + epsp*X2"),
    ("A2_12", "eps*X2 + X3 + epsp*X4", "X7"),
)

RATIO_INVARIANTS = ("t", "b/a", "c/a")
RATIO_ANSATZ = (("a", "a"), ("b", "a*f"), ("c", "a*g"))

# Reduction of the six field equations under b = a*f(t), c = a*g(t).
RATIO_REDUCED = (
    "a_11 - a_22*f - 2*a_2*f_2 - a*f_22",
    "a_12*f + a_1*f_2 + a_11*g",
    "a_12 + a_22*g + 2*a_2*g_2 + a*g_22",
    "a_2^2*f + a_2*a*f_2 - (a_2*g + a*g_2)^2 + a*a_12*g + a*a_22*f",
    "a_1*a_2*f - a_1*a_2*g^2 - 2*a*a_1*g*g_2 - a*a_12*g^2 - a*a_22*f*g"
    " - 2*a*a_2*f*g_2 - a^2*f*g_22",
    "a_1^2*f - 2*a*a_1*f*g_2 - a_1^2*g^2 + a*a_11*f + 3*a*a_1*g*f_2"
    " + a*a_12*f*g",
)

# Conditions forced on the free coefficient for compatibility, and the
# genericity inequations accompanying them.
RATIO_CONSISTENCY = (
    "a^2*f_22 + a*a_2*f_2 + a^2*g_2^2 - a_2^2*f + a_2^2*g^2"
    " + 2*a*a_2*g*g_2",
    "a_1",
    "a*a_22*f + a_2^2*f - 2*a*a_2*g*g_2 + a*a_2*f_2 - a^2*g_2^2"
    " - a_2^2*g^2",
    "a^2*f*g_22 - a*a_2*f_2*g + a^2*g*g_2^2 - a_2^2*f*g + a_2^2*g^3"
    " + 2*a*a_2*g_2*g^2 + 2*a*a_2*f*g_2",
)

RATIO_INEQUATIONS = ("f", "g", "a", "f - g^2")

# Profile-level families solving the reduced equations above.
RATIO_PROFILE_FAMILIES = (
    {"f": "c3*t + c4", "g": "c2", "a": "c1"},
    {"f": "(c1*c3^2*t + c5)/(c1*t + c2)",
     "g": "c3 + c1*c4/(c1*t + c2)",
     "a": "c1*t + c2"},
    {"f": "c5*(t + c2)/(ln(t + c2) - c3*c1)",
     "g": "c4/(ln(t + c2) - c3*c1)",
     "a": "-ln(t + c2)/c1 + c3"},
    {"f": "c6^2*(t + c2)/((c1*ln(t + c2) + c3*t + c4)*c3)",
     "g": "(c5 + c6*t)/(c1*ln(t + c2) + c3*t + c4)",
     "a": "c1*ln(t + c2) + c3*t + c4"},
)

_RATIO_SOLUTIONS = (
    Solution("c1", "c1*(c3*t + c4)", "c1*c2", ("c1", "c2", "c3", "c4")),
    Solution("c1*t + c2", "c1*c3^2*t + c5", "c3*(c1*t + c2) + c1*c4",
             ("c1", "c2", "c3", "c4", "c5")),
    Solution("-ln(t + c2)/c1 + c3", "c5*(t + c2)", "c4",
             ("c1", "c2", "c3", "c4", "c5")),
    Solution("c1*ln(t + c2) + c3*t + c4", "c6^2*(t + c2)/c3", "c5 + c6*t",
             ("c1", "c2", "c3", "c4", "c5", "c6")),
)

_EXP_KERNEL = "exp(c1*t + beta/alpha*x)"
_PENCIL_SOLUTIONS = (
    Solution("0", "0", "0", ()),
    Solution("0", "c1*exp(beta/alpha*x)", "0", ("c1",)),
    Solution("c2*" + _EXP_KERNEL,
             "-(c2*beta/(c1*alpha))*" + _EXP_KERNEL,
             "-(c1*c2*alpha/beta)*" + _EXP_KERNEL,
             ("c1", "c2")),
)

_CUBE_TAIL = (
    "(ln(({v} + (c1/c2)^(1/3))^2)"
    " - ln({v}^2 - {v}*(c1/c2)^(1/3) + (c1/c2)^(2/3))"
    " + 2*sqrt(3)*atan(2*c2*{v}/(sqrt(3)*c1)*(c1/c2)^(2/3) - 1/sqrt(3)))"
)

_TABLE1 = (
    {
        "invariants": ("x", "b/a", "c/a"),
        "ansatz": (("a", "a"), ("b", "a*f"), ("c", "a*g")),
        "solution": Solution(
            "c1*x + c2",
            "c1*c3^2*x + (c5/c1 - c3^2*c2)*ln(c1*x + c2) + c6",
            "c3*(c1*x + c2) + c1*c4",
            ("c1", "c2", "c3", "c4", "c5", "c6")),
        "gens": ("X2", "X7"),
        "note": "auxiliary logarithmic term in b",
    },
    {
        "invariants": ("t", "(c^2 - b*a)/b^2", "(-c*t + b*x)/b"),
        "ansatz": (("a", "b*(x - g)^2/t^2 - b*f"), ("b", "b"),
                   ("c", "b*(x - g)/t")),
        "solution": Solution(
            "(c1 + c2*t^3)*(x - c3)^2/t^3 - t*(c4 + c5)*"
            + _CUBE_TAIL.format(v="t"),
            "(c1 + c2*t^3)/t",
            "(c1 + c2*t^3)*(x - c3)/t^2",
            ("c1", "c2", "c3", "c4", "c5")),
        "gens": ("X5", "X7"),
        "note": "auxiliary cube-root term in a",
    },
    {
        "invariants": ("x", "b/a^3", "c/a^2"),
        "ansatz": (("a", "a"), ("b", "a^3*f"), ("c", "a^2*g")),
        "solution": Solution(
            "4*(t + c1)/(c2*x + c3)^2",
            "4*c2^2*(t + c1)^3/(c2*x + c3)^4",
            "4*c2*(t + c1)^2/(c2*x + c3)^3",
            ("c1", "c2", "c3")),
        "gens": ("X2", "X6 + X7"),
        "note": "",
    },
    {
        "invariants": ("x", "(-a*t + c*x)/(x*a)",
                       "(a*t^2 - 2*x*t*c + b*x^2)/(x^2*a)"),
        "ansatz": (("a", "a"), ("b", "a*(g + 2*t/x*f + t^2/x^2)"),
                   ("c", "a*(f + t/x)")),
        "solution": Solution(
            "(c1 + c2*x^3)/x",
            "(c1 + c2*x^3)*(t + c3)^2/x^3 + x*(c4 + c5)*"
            + _CUBE_TAIL.format(v="x"),
            "(c1 + c2*x^3)*(t + c3)/x^2",
            ("c1", "c2", "c3", "c4", "c5")),
        "gens": ("X4", "X7"),
        "note": "auxiliary cube-root term in b",
    },
)


def builtin() -> tuple:
    """Every shipped entry, in catalog order."""
    entries = []
    for i, text in enumerate(_DIM1, start=1):
        entries.append(_entry(
            f"thm31.{i}", (text,),
            provenance=f"one-dimensional optimal system, entry {i}"))
    for label, g1, g2 in _DIM2:
        k, grp = label.split("_")
        entries.append(_entry(
            f"thm32.{label}", (g1, g2),
            provenance=f"two-dimensional optimal system, "
                       f"group {grp}, item {k[1:]}"))
    for i, sol in enumerate(_RATIO_SOLUTIONS, start=1):
        entries.append(_entry(
            f"eq25.family{i}", ("X1", "X7"),
            invariants=RATIO_INVARIANTS, ansatz=RATIO_ANSATZ,
            reduced=RATIO_REDUCED,
            profile=tuple(sorted(RATIO_PROFILE_FAMILIES[i - 1].items())),
            consistency=RATIO_CONSISTENCY, inequations=RATIO_INEQUATIONS,
            solutions=(sol,),
            provenance=f"equation (25), family {i}; reduction pipeline"
                       " of equations (16)-(24)",
            extra_param_texts=sol.params))
    for i, sol in enumerate(_PENCIL_SOLUTIONS, start=1):
        entries.append(_entry(
            f"eq26.family{i}", ("alpha*X1 + beta*X7",),
            solutions=(sol,),
            provenance=f"equation (26), family {i}; one-parameter"
                       " pencil reduction",
            extra_param_texts=sol.params))
    for i, row in enumerate(_TABLE1, start=1):
        note = f"; {row['note']}" if row["note"] else ""
        entries.append(_entry(
            f"table1.row{i}", row["gens"],
            invariants=row["invariants"], ansatz=row["ansatz"],
            solutions=(row["solution"],),
            provenance=f"table 1, row {i}{note}",
            extra_param_texts=row["solution"].params))
    row3 = _TABLE1[2]
    entries.append(_entry(
        "eq27", row3["gens"],
        invariants=row3["invariants"], ansatz=row3["ansatz"],
        solutions=(row3["solution"],),
        provenance="equation (27); closed metric form, equation (28);"
                   " same data as table 1, row 3",
        checks=("einstein",),
        extra_param_texts=row3["solution"].params))
    return tuple(entries)


def builtin_map() -> dict:
    return {e.id: e for e in builtin()}


# --- serialization -----------------------------------------------------------

def _to_dict(e: CatalogEntry) -> dict:
    d = {
        "id": e.id,
        "subalgebra": {"generators": list(e.generators),
                       "params": list(e.params)},
        "provenance": e.provenance,
    }
    for key in _TEXT_LISTS:
        if getattr(e, key):
            d[key] = list(getattr(e, key))
    for key in _TEXT_MAPS:
        if getattr(e, key):
            d[key] = dict(getattr(e, key))
    if e.solutions:
        d["solutions"] = [{"a": s.a, "b": s.b, "c": s.c,
                           "params": list(s.params)} for s in e.solutions]
    if e.checks:
        d["checks"] = list(e.checks)
    return d


def save(entries, path) -> None:
    doc = {"schema": SCHEMA, "entries": [_to_dict(e) for e in entries]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _line_of(text: str, needle: str) -> str:
    i = text.find(needle)
    if i < 0:
        return "unknown location"
    return f"line {text.count(chr(10), 0, i) + 1}, offset {i}"


def _typed(value, kind, where: str):
    """``value``, which the schema requires to be a ``kind``."""
    if not isinstance(value, kind):
        raise SchemaError(f"{where} must be {kind.__name__}, "
                          f"got {type(value).__name__}")
    return value


def _strings(value, where: str) -> tuple:
    return tuple(_typed(v, str, f"{where}[{i}]")
                 for i, v in enumerate(_typed(value, list, where)))


def _string_map(value, where: str) -> tuple:
    return tuple(sorted((k, _typed(v, str, f"{where}.{k}"))
                        for k, v in _typed(value, dict, where).items()))


def _required(d: dict, keys, allowed, where: str, text: str) -> None:
    """``d`` is an object with every field in ``keys`` and none outside
    ``allowed``."""
    extra = sorted(set(_typed(d, dict, where)) - allowed)
    if extra:
        raise SchemaError(
            f"unknown field {extra[0]!r} in {where} "
            f"({_line_of(text, json.dumps(extra[0]))})")
    for key in keys:
        if key not in d:
            raise SchemaError(f"missing field {key!r} in {where}")


def _from_dict(d, text: str, where: str) -> CatalogEntry:
    _required(d, ("id", "subalgebra", "provenance"), _ENTRY_KEYS, where,
              text)
    sub, subwhere = d["subalgebra"], f"{where}.subalgebra"
    _required(sub, ("generators",), _SUBALGEBRA_KEYS, subwhere, text)
    solutions = []
    for j, s in enumerate(_typed(d.get("solutions", []), list,
                                 f"{where}.solutions")):
        swhere = f"{where}.solutions[{j}]"
        _required(s, ("a", "b", "c"), _SOLUTION_KEYS, swhere, text)
        solutions.append(Solution(
            *(_typed(s[key], str, f"{swhere}.{key}") for key in "abc"),
            _strings(s.get("params", []), f"{swhere}.params")))
    texts = {key: _strings(d.get(key, []), f"{where}.{key}")
             for key in _TEXT_LISTS}
    texts |= {key: _string_map(d.get(key, {}), f"{where}.{key}")
              for key in _TEXT_MAPS}
    checks = _strings(d.get("checks", []), f"{where}.checks")
    for name in checks:
        if name not in CHECKS:
            raise SchemaError(f"unknown check {name!r} in {where}.checks")
    entry = CatalogEntry(
        id=_typed(d["id"], str, f"{where}.id"),
        generators=_strings(sub["generators"], f"{subwhere}.generators"),
        params=_strings(sub.get("params", []), f"{subwhere}.params"),
        solutions=tuple(solutions),
        provenance=_typed(d["provenance"], str, f"{where}.provenance"),
        checks=checks, **texts)
    for t in entry.generators:
        parse_generator(t)
    for t in entry.all_expr_texts()[len(entry.generators):]:
        entry.parse_expr(t)
    return entry


def load(path) -> tuple:
    """The entries of a saved catalog. A document that is not UTF-8
    JSON, or breaks the schema, raises SchemaError; an expression that
    does not parse raises ParseError, and a generator that is not a
    combination of X1..X7 with constant coefficients raises ExprError."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and over-long integers
        raise SchemaError(f"not a UTF-8 JSON document: {exc}") from None
    _required(doc, (), {"schema", "entries"}, "document", text)
    if doc.get("schema") != SCHEMA:
        raise SchemaError(f"unsupported schema {doc.get('schema')!r}, "
                          f"expected {SCHEMA!r}")
    return tuple(_from_dict(d, text, f"entries[{i}]")
                 for i, d in enumerate(_typed(doc.get("entries", []), list,
                                              "entries")))
