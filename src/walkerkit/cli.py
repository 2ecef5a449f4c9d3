"""Command-line driver and report emitter.

Exit codes: 0 when every check in the requested suite passed, 1 when at
least one failed, 2 on usage errors. The JSON rendering carries no
wall-clock timing, so two runs with identical flags and seed are
byte-identical; the text rendering appends elapsed time at the end.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import catalog
from .expr import (
    NONZERO, EvalError, ExprError, is_zero, is_zero_symbolic, parse,
    probe_zero, render, sub, substitute, substitute_all,
)
from .geometry import (
    EINSTEIN_LABELS, abstract_curvature, einstein_verdicts,
    equivalence_probe, metric_latex, metric_matrix_strings, on_metric,
)
from .jets import symmetry_check, system2
from .liealg import (
    BASIS, DIM, NotClosed, adjoint_matrix, parse_generator,
    proof_case_replays, render_generator, sc, subalgebra_closed, unit,
)
from .pis import (
    ansatz_substitute, defect, invariant_check, invariant_rank,
    reducibility_scan,
)

REPORT_SCHEMA = "walker-report/1"
GENERIC_FLOOR = 1e-4
_TOL_DEFAULTS = {"symmetries": 1e-8}


@dataclass
class Check:
    id: str
    verdict: str
    witness: str = ""


@dataclass
class Report:
    command: str
    seed: int
    samples: int
    tol: float
    mode: str = "auto"
    checks: list = field(default_factory=list)
    details: dict = field(default_factory=dict)
    seconds: float = 0.0

    def add(self, cid: str, ok: bool, witness: str = "") -> None:
        self.checks.append(Check(cid, "pass" if ok else "fail", witness))

    @property
    def failures(self) -> list:
        return [c for c in self.checks if c.verdict == "fail"]

    def exit_code(self) -> int:
        return 1 if self.failures else 0

    def to_json(self) -> str:
        ordered = sorted(self.checks, key=lambda c: c.id)
        doc = {
            "schema": REPORT_SCHEMA,
            "command": self.command,
            "seed": self.seed,
            "samples": self.samples,
            "tol": self.tol,
            "mode": self.mode,
            "checks": [{"id": c.id, "verdict": c.verdict,
                        "witness": c.witness} for c in ordered],
            "summary": {"pass": len(self.checks) - len(self.failures),
                        "fail": len(self.failures),
                        "total": len(self.checks)},
            "details": self.details,
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = []
        for key, value in self.details.items():
            lines.append(f"# {key}")
            if isinstance(value, list):
                for row in value:
                    lines.append("  " + (" | ".join(row)
                                         if isinstance(row, list) else
                                         str(row)))
            elif isinstance(value, dict):
                for k in value:
                    lines.append(f"  {k}: {value[k]}")
            else:
                lines.append(f"  {value}")
        for c in sorted(self.checks, key=lambda c: c.id):
            line = f"{c.verdict.upper()} {c.id}"
            if c.witness:
                line += f"  [{c.witness}]"
            lines.append(line)
        npass = len(self.checks) - len(self.failures)
        lines.append(f"{len(self.checks)} checks: {npass} pass, "
                     f"{len(self.failures)} fail ({self.seconds:.1f}s)")
        return "\n".join(lines)


def _zero_note(e, ctx) -> tuple:
    """(ok, note) under the requested mode."""
    if ctx.mode == "symbolic":
        ok = is_zero_symbolic(e)
        return ok, ("zero_symbolic" if ok else "no symbolic cancellation")
    if ctx.mode == "numeric":
        res = probe_zero(e, samples=ctx.samples, tol=ctx.tol, seed=ctx.seed)
    else:
        res = is_zero(e, samples=ctx.samples, tol=ctx.tol, seed=ctx.seed)
    return bool(res), res.describe()


# --- subcommands -------------------------------------------------------------

def _table_checks(rep: Report, prefix: str, closure_id: str,
                  closure_witness: str):
    """Build the structure constants and report closure, antisymmetry and
    Jacobi. Building decomposes all 49 basis brackets, so closure fails
    exactly when it raises; returns the table, or None then."""
    try:
        table = sc()
    except NotClosed as exc:
        rep.add(closure_id, False, str(exc))
        return None
    rep.add(closure_id, True, closure_witness)
    rep.add(f"{prefix}.antisymmetry", table.antisymmetric())
    rep.add(f"{prefix}.jacobi", table.jacobi_holds(), "35 triples")
    return table


def cmd_brackets(args, rep: Report, parser) -> None:
    table = _table_checks(rep, "brackets", "brackets.decomposition",
                          "49 ordered pairs")
    if table is None:
        return
    rep.details["table"] = [
        [render_generator(table.bracket_coeffs(unit(i), unit(j)))
         for j in range(DIM)] for i in range(DIM)]


def _user_value(parser, flag: str, convert, text):
    """``convert(text)``; malformed command-line text is a usage error
    that names the flag."""
    try:
        return convert(text)
    except ZeroDivisionError:
        parser.error(f"argument {flag}: division by zero in {text!r}")
    except (ExprError, ValueError) as exc:
        parser.error(f"argument {flag}: {exc}")


def cmd_adjoint(args, rep: Report, parser) -> None:
    if not 1 <= args.gen <= DIM:
        parser.error(f"--gen must be 1..{DIM}")
    s = _user_value(parser, "--s", Fraction, args.s)
    mat = adjoint_matrix(args.gen, s)
    rep.details["matrix"] = [[render(e) for e in row] for row in mat]
    rep.details["generator"] = f"X{args.gen}"
    rep.details["s"] = args.s


def cmd_subalgebra(args, rep: Report, parser) -> None:
    texts = [t.strip() for t in args.gens.replace(";", ",").split(",")
             if t.strip()]
    vectors = [_user_value(parser, "--gens", parse_generator, t)
               for t in texts]
    if args.check_closed and not 1 <= len(vectors) <= 2:
        parser.error("--check-closed expects 1 or 2 generators")
    rep.details["generators"] = [render_generator(v) for v in vectors]
    if args.check_closed:
        closure = subalgebra_closed(vectors, seed=args.seed)
        for n, case in enumerate(closure.cases, start=1):
            witness = ""
            if case.assignment:
                witness = " ".join(f"{k}={v}"
                                   for k, v in sorted(case.assignment.items()))
            if case.closed:
                witness += f" lambda={case.lam} mu={case.mu}"
            elif case.reason:
                witness += f" {case.reason}"
            rep.add(f"subalgebra.case{n}", case.closed, witness.strip())
        rep.add("subalgebra.closed", closure.closed,
                "symbolic" if closure.symbolic else "")


def _symmetry_checks(ctx, rep: Report, tol: float) -> dict:
    """One check per basis generator; returns the per-equation residuals."""
    sys2 = system2()
    residuals = {}
    for i in range(DIM):
        label = f"X{i + 1}"
        srep = symmetry_check(BASIS[i], sys2, samples=ctx.samples,
                              tol=tol, seed=ctx.seed, label=label)
        residuals[label] = [f"{c.max_residual:.3e}" for c in srep.cells]
        rep.add(f"symmetries.{label}", srep.passed,
                f"max residual {srep.max_residual:.3e}")
    return residuals


def cmd_symmetries(args, rep: Report, parser) -> None:
    rep.details["per_equation_residuals"] = _symmetry_checks(
        args, rep, args.tol)


def _entry_or_die(parser, entry_id, solutions=True):
    """The catalog entry; a usage error if absent or lacking solutions."""
    entry = catalog.builtin_map().get(entry_id)
    if entry is None:
        parser.error(f"unknown catalog entry {entry_id!r}")
    if solutions and not entry.solutions:
        parser.error(f"entry {entry_id!r} carries no solutions")
    return entry


def cmd_einstein(args, rep: Report, parser) -> None:
    if args.entry:
        triple = _entry_or_die(parser, args.entry).triples()[0]
        a, b, c = triple.a, triple.b, triple.c
    elif args.a is not None and args.b is not None and args.c is not None:
        a, b, c = (_user_value(parser, flag, parse, t)
                   for flag, t in (("--a", args.a), ("--b", args.b),
                                   ("--c", args.c)))
    else:
        parser.error("provide --entry ID or all of --a --b --c")
        return
    try:
        verdicts = einstein_verdicts(a, b, c, samples=args.samples,
                                     tol=args.tol, seed=args.seed)
        abstract_ricci, _ = abstract_curvature()
        ricci_zero = all(
            is_zero(r, samples=min(args.samples, 16), tol=args.tol,
                    seed=args.seed)
            for r in on_metric(abstract_ricci, a, b, c))
    except EvalError as exc:
        parser.error(f"cannot evaluate the metric: {exc}")
    for label, res in zip(EINSTEIN_LABELS, verdicts):
        rep.add(f"einstein.{label}", bool(res), res.describe())
    rep.details["ricci_zero"] = "yes" if ricci_zero else "no"
    rep.details["einstein"] = (
        "yes" if all(bool(r) for r in verdicts) else "no")


def _check_closure(entry, ctx, rep: Report) -> None:
    closure = subalgebra_closed(list(entry.coeff_vectors()), seed=ctx.seed)
    if len(entry.generators) == 1:
        rep.add(f"{entry.id}.closure", closure.closed, "single generator")
        return
    ok = closure.closed and closure.symbolic
    cases = len(closure.cases)
    witness = (f"{cases} case(s), symbolic" if ok else
               "; ".join(c.reason for c in closure.cases if c.reason)
               or "numeric only")
    rep.add(f"{entry.id}.closure", ok, witness)


def _check_invariants(entry, ctx, rep: Report) -> None:
    inv = entry.invariant_set()
    gens = entry.coeff_vectors()
    irep = invariant_check(list(gens), inv, seed=ctx.seed)
    rep.add(f"{entry.id}.invariants", irep.passed,
            f"jacobian rank {irep.jacobian_rank}, "
            f"{len(irep.annihilation)} annihilation checks")
    rank, delta = invariant_rank(inv, seed=ctx.seed)
    arbitrary = entry.pis_ansatz().arbitrary
    ok = delta == len(arbitrary) if arbitrary else rank <= 3
    rep.add(f"{entry.id}.rank", ok, f"rank={rank} delta={delta}")


def _check_reduction(entry, ctx, rep: Report) -> None:
    computed = ansatz_substitute(entry.pis_ansatz(), system2())
    shipped = entry.reduced_exprs()
    ok = len(computed) == len(shipped) and all(
        is_zero_symbolic(sub(c, s)) for c, s in zip(computed, shipped))
    rep.add(f"{entry.id}.reduction", ok,
            f"{len(shipped)} reduced residuals, exact")


def _check_profile_family(entry, ctx, rep: Report) -> None:
    bindings = {k: entry.parse_expr(v) for k, v in entry.profile}
    shipped = entry.reduced_exprs()
    consistency = tuple(entry.parse_expr(s) for s in entry.consistency)
    notes = []
    ok = True
    symbolic = 0
    for k, r in enumerate(tuple(shipped) + consistency, start=1):
        good, note = _zero_note(substitute(r, bindings), ctx)
        if note == "zero_symbolic" or "exact" in note:
            symbolic += 1
        if not good:
            ok = False
            notes.append(f"residual {k}: {note}")
    for q in entry.inequations:
        res = is_zero(substitute(entry.parse_expr(q), bindings),
                      samples=ctx.samples, tol=ctx.tol, seed=ctx.seed)
        if res.verdict != NONZERO:
            ok = False
            notes.append(f"inequation {q!r} degenerated")
    witness = (f"{len(shipped) + len(consistency)} residuals zero "
               f"({symbolic} exact), inequations generic"
               if ok else "; ".join(notes))
    rep.add(f"{entry.id}.profile", ok, witness)


def _per_solution(entry, check: str):
    """(check id, triple) per solution, ids numbered when there are several."""
    many = len(entry.solutions) > 1
    for n, triple in enumerate(entry.triples(), start=1):
        yield f"{entry.id}.{check}{n if many else ''}", triple


def _check_solutions(entry, ctx, rep: Report) -> None:
    sys2 = system2()
    for cid, triple in _per_solution(entry, "solution"):
        ok = True
        symbolic = 0
        notes = []
        on_solution = substitute_all(sys2.residuals, triple.bindings())
        for k, res in enumerate(on_solution, start=1):
            good, note = _zero_note(res, ctx)
            if note == "zero_symbolic":
                symbolic += 1
            if not good:
                ok = False
                notes.append(f"equation {k}: {note}")
        witness = (f"6 residuals zero ({symbolic} exact)" if ok
                   else "; ".join(notes))
        rep.add(cid, ok, witness)


def _check_defect(entry, ctx, rep: Report, expect=None) -> None:
    gens = list(entry.coeff_vectors())
    for cid, triple in _per_solution(entry, "defect"):
        d = defect(gens, triple, seed=ctx.seed)
        ok = d == expect if expect is not None else True
        rep.add(cid, ok, f"delta={d}")


def _check_reducibility(entry, ctx, rep: Report) -> None:
    gens = list(entry.coeff_vectors())
    for cid, triple in _per_solution(entry, "reducibility"):
        scan = reducibility_scan(gens, triple, seed=ctx.seed)
        if scan.directions:
            dirs = ", ".join(f"({d['alpha']}:{d['beta']})"
                             for d in scan.directions)
            witness = (f"invariant directions {dirs}; "
                       + "; ".join(scan.notes)
                       + "; flagged: conflicts with the non-reducibility"
                       " claim")
        else:
            witness = "no invariant direction in the pencil"
        rep.add(cid, True, witness)


def _check_einstein_entry(entry, ctx, rep: Report) -> None:
    triple = entry.triples()[0]
    verdicts = einstein_verdicts(triple.a, triple.b, triple.c,
                                 samples=ctx.samples, tol=ctx.tol,
                                 seed=ctx.seed)
    ok = all(bool(r) for r in verdicts)
    worst = max(verdicts, key=lambda r: r.max_residual)
    rep.add(f"{entry.id}.einstein", ok,
            f"10 components, worst residual {worst.max_residual:.3e}")


def _verify_entry(entry, ctx, rep: Report) -> None:
    _check_closure(entry, ctx, rep)
    if entry.invariants:
        _check_invariants(entry, ctx, rep)
    if entry.reduced:
        _check_reduction(entry, ctx, rep)
    if entry.profile:
        _check_profile_family(entry, ctx, rep)
    if entry.solutions:
        _check_solutions(entry, ctx, rep)
    if entry.reduced:
        # a reduced entry is a partially invariant solution: its defect
        # is the number of coordinates the ansatz leaves arbitrary
        _check_defect(entry, ctx, rep,
                      expect=len(entry.pis_ansatz().arbitrary))
        _check_reducibility(entry, ctx, rep)
    if entry.id == "eq27":
        _check_einstein_entry(entry, ctx, rep)


def _verify_suite(ctx, rep: Report) -> None:
    _table_checks(rep, "algebra", "algebra.brackets",
                  "49 ordered pairs decompose")

    rng = random.Random(ctx.seed)
    worst = 0.0
    for i in range(1, DIM + 1):
        for _ in range(10):
            s, t = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
            ms = adjoint_matrix(i, s)
            mt = adjoint_matrix(i, t)
            mst = adjoint_matrix(i, s + t)
            for a in range(DIM):
                for b in range(DIM):
                    got = sum(ms[a][k] * mt[k][b] for k in range(DIM))
                    worst = max(worst, abs(got - mst[a][b]))
    rep.add("algebra.group_law", worst < 1e-10,
            f"70 (s,s') pairs, max deviation {worst:.3e}")

    replays = proof_case_replays(seed=ctx.seed)
    rep.add("algebra.replays", all(r.ok for r in replays),
            f"{len(replays)} normalization cases")

    _symmetry_checks(ctx, rep, _TOL_DEFAULTS["symmetries"])
    _equivalence_checks(ctx, rep)


def cmd_verify(args, rep: Report, parser) -> None:
    if args.all:
        _verify_suite(args, rep)
        for entry in catalog.builtin():
            _verify_entry(entry, args, rep)
    else:
        entry = _entry_or_die(parser, args.entry, solutions=False)
        _verify_entry(entry, args, rep)


def cmd_defect_cmd(args, rep: Report, parser) -> None:
    entry = _entry_or_die(parser, args.entry)
    if len(entry.generators) < 2:
        parser.error(f"entry {args.entry!r} is not a two-generator span")
    _check_defect(entry, args, rep)


def cmd_reducibility(args, rep: Report, parser) -> None:
    entry = _entry_or_die(parser, args.entry)
    if len(entry.generators) != 2:
        parser.error(f"entry {args.entry!r} is not a two-generator span")
    _check_reducibility(entry, args, rep)


def _equivalence_checks(ctx, rep: Report):
    """The three Einstein/PDE correspondence checks; returns the probe."""
    probe = equivalence_probe(samples=ctx.samples, tol=ctx.tol,
                              seed=ctx.seed)
    rep.add("equivalence.on_shell", probe.on_shell_max < ctx.tol,
            f"max scaled component {probe.on_shell_max:.3e}")
    rep.add("equivalence.generic", probe.generic_min > GENERIC_FLOOR,
            f"min generic violation {probe.generic_min:.3e}")
    corr_ok = (all(probe.correspondence.values())
               and all(v > GENERIC_FLOOR
                       for v in probe.single_violation_max.values()))
    rep.add("equivalence.correspondence", corr_ok,
            "; ".join(f"{k} moves {len(v)} components"
                      for k, v in probe.correspondence.items()))
    return probe


def cmd_equivalence_probe(args, rep: Report, parser) -> None:
    probe = _equivalence_checks(args, rep)
    rep.details["correspondence"] = {
        k: list(v) for k, v in probe.correspondence.items()}


def cmd_emit_metric(args, rep: Report, parser) -> int:
    """Prints the metric itself, so it returns the exit code and the
    report is not printed."""
    entry = _entry_or_die(parser, args.entry)
    triple = entry.triples()[0]
    if args.format == "latex":
        print(metric_latex(triple.a, triple.b, triple.c))
    else:
        doc = {
            "entry": entry.id,
            "line_element": metric_latex(triple.a, triple.b, triple.c),
            "matrix": metric_matrix_strings(triple.a, triple.b, triple.c),
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


# --- argument plumbing -------------------------------------------------------

def _positive(convert):
    """An argparse type: ``convert(text)``, which must be finite and > 0,
    so no check can pass on zero samples or a NaN tolerance."""
    def check(text):
        value = convert(text)
        if not (math.isfinite(value) and value > 0):
            raise argparse.ArgumentTypeError(
                f"must be finite and positive, got {text!r}")
        return value
    check.__name__ = convert.__name__  # argparse's 'invalid int value'
    return check


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=42)
    common.add_argument("--tol", type=_positive(float), default=None)
    common.add_argument("--samples", type=_positive(int), default=100)
    common.add_argument("--report", choices=("json", "text"),
                        default="text")

    parser = argparse.ArgumentParser(
        prog="walker-kit",
        description="verification toolkit for a family of null-parallel"
                    " 4D metrics and their symmetry algebra")
    subs = parser.add_subparsers(dest="command", required=True)

    subs.add_parser("brackets", parents=[common]).set_defaults(
        run=cmd_brackets)

    p = subs.add_parser("adjoint", parents=[common])
    p.set_defaults(run=cmd_adjoint)
    p.add_argument("--gen", type=int, required=True, metavar="I",
                   help="generator index 1..7")
    p.add_argument("--s", required=True, metavar="V",
                   help="flow parameter, an exact rational such as"
                        " 1/2, 0.25 or 1e-3")

    p = subs.add_parser("subalgebra", parents=[common])
    p.set_defaults(run=cmd_subalgebra)
    p.add_argument("--gens", required=True,
                   help="generator expressions separated by ';' or ','")
    p.add_argument("--check-closed", action="store_true")

    subs.add_parser("symmetries", parents=[common]).set_defaults(
        run=cmd_symmetries)

    p = subs.add_parser("einstein", parents=[common])
    p.set_defaults(run=cmd_einstein)
    p.add_argument("--a")
    p.add_argument("--b")
    p.add_argument("--c")
    p.add_argument("--entry")

    p = subs.add_parser("verify", parents=[common])
    p.set_defaults(run=cmd_verify)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--entry")
    g.add_argument("--all", action="store_true")
    p.add_argument("--mode", choices=("symbolic", "numeric", "auto"),
                   default="auto")

    p = subs.add_parser("defect", parents=[common])
    p.set_defaults(run=cmd_defect_cmd)
    p.add_argument("--entry", required=True)

    p = subs.add_parser("reducibility", parents=[common])
    p.set_defaults(run=cmd_reducibility)
    p.add_argument("--entry", required=True)

    subs.add_parser("equivalence-probe", parents=[common]).set_defaults(
        run=cmd_equivalence_probe)

    p = subs.add_parser("emit-metric", parents=[common])
    p.set_defaults(run=cmd_emit_metric)
    p.add_argument("--entry", required=True)
    p.add_argument("--format", choices=("latex", "json"), default="latex")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.tol is None:
        args.tol = _TOL_DEFAULTS.get(args.command, 1e-9)
    if not hasattr(args, "mode"):
        args.mode = "auto"

    rep = Report(command=args.command, seed=args.seed,
                 samples=args.samples, tol=args.tol, mode=args.mode)
    start = time.monotonic()
    # Handlers fill ``rep``; one that prints its own output returns the
    # exit code instead.
    code = args.run(args, rep, parser)
    if code is not None:
        return code
    rep.seconds = time.monotonic() - start

    print(rep.to_json() if args.report == "json" else rep.to_text())
    return rep.exit_code()


if __name__ == "__main__":
    sys.exit(main())
