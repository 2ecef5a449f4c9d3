"""Exact symbolic expression kernel: immutable normal-form trees,
derivatives, substitution, a text grammar and a three-valued zero test."""

from .expand import clear_denominators, expand_monomials, is_zero_symbolic
from .nodes import (
    ALL_DEPS, COORD_INDEX, COORD_NAMES, INDEX_COORD, PLANE_DEPS,
    SIGN_PARAMS, TERNARY_PARAMS, Atan, Coord, ExpF, Expr, ExprError, Func,
    Ln, Num, Param, Pow, Prod, Sum, ZERO, ONE, add, atan, atom_name, coord,
    diff, div, exp_, free_atoms, funcsym, ln, mul, neg, num, param, partial,
    pow_, render, sqrt, sub, substitute, substitute_all, to_expr,
)
from .numeric import (
    NONZERO, ZERO_NUMERIC, ZERO_SYMBOLIC, EvalError, EvalGuard, ZeroResult,
    eval_expr, eval_scaled, is_zero, probe_zero, sample_point,
)
from .parser import DEFAULT_FUNCS, PARAM_NAMES, ParseError, parse, parse_fraction

__all__ = [
    "ALL_DEPS", "COORD_INDEX", "COORD_NAMES", "INDEX_COORD", "PLANE_DEPS",
    "SIGN_PARAMS", "TERNARY_PARAMS", "Atan", "Coord", "ExpF", "Expr",
    "ExprError", "Func", "Ln", "Num", "Param", "Pow", "Prod", "Sum",
    "ZERO", "ONE", "add", "atan", "atom_name", "coord", "diff", "div",
    "exp_", "free_atoms", "funcsym", "ln", "mul", "neg", "num", "param",
    "partial", "pow_", "render", "sqrt", "sub", "substitute",
    "substitute_all", "to_expr",
    "NONZERO", "ZERO_NUMERIC", "ZERO_SYMBOLIC", "EvalError", "EvalGuard",
    "ZeroResult", "eval_expr", "eval_scaled", "is_zero", "probe_zero",
    "sample_point",
    "DEFAULT_FUNCS", "PARAM_NAMES", "ParseError", "parse", "parse_fraction",
    "clear_denominators", "expand_monomials", "is_zero_symbolic",
]
