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
import sys
import time
from fractions import Fraction

from . import catalog
from .expr import (
    NONZERO, ZERO_SYMBOLIC, ExprError, is_zero, is_zero_symbolic,
    parse, render, sub, substitute, substitute_all,
)
from .expr.parser import MAX_POWER_BITS
from .geometry import (
    EINSTEIN_LABELS, curvature_tables, curvature_verdicts, einstein_verdicts,
    equivalence_probe, metric_latex, metric_matrix_strings,
)
from .jets import symmetry_check, system2
from .liealg import (
    BASIS, DIM, NotClosed, adjoint_flow_holds, adjoint_matrix,
    parse_generator, proof_case_replays, render_generator, sc,
    subalgebra_closed, unit,
)
from .pis import (
    ansatz_substitute, defect, invariant_check, invariant_rank,
    reducibility_scan,
)

REPORT_SCHEMA = "walker-report/2"


class Check:
    """One check's verdict, slotted like ``ZeroResult``."""

    __slots__ = ("id", "verdict", "witness")

    def __init__(self, id: str, verdict: str, witness: str = ""):
        self.id = id
        self.verdict = verdict
        self.witness = witness


class Report:
    """The checks of one run, with its settings; ``main`` sets
    ``seconds`` when the run ends."""

    def __init__(self, command: str, seed: int, samples: int, tol: float):
        self.command = command
        self.seed = seed
        self.samples = samples
        self.tol = tol
        self.checks = []
        self.details = {}
        self.seconds = 0.0

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


def _zero_test(e, rep: Report):
    """The zero test at the run's settings, which the report records."""
    return is_zero(e, samples=rep.samples, tol=rep.tol, seed=rep.seed)


def _zero_tally(residuals, rep: Report, label: str) -> tuple:
    """Zero-test each residual at the run's settings: (how many cancel
    exactly, one note per residual that is not zero)."""
    exact = 0
    notes = []
    for k, r in enumerate(residuals, start=1):
        res = _zero_test(r, rep)
        exact += res.verdict == ZERO_SYMBOLIC
        if not res:
            notes.append(f"{label} {k}: {res.describe()}")
    return exact, notes


# --- subcommands -------------------------------------------------------------

def _table_checks(rep: Report):
    """Build the structure constants and report closure, antisymmetry and
    Jacobi. Building decomposes all 49 basis brackets, so closure fails
    exactly when it raises; returns the table, or None then."""
    try:
        table = sc()
    except NotClosed as exc:
        rep.add("algebra.brackets", False, str(exc))
        return None
    rep.add("algebra.brackets", True, "49 ordered pairs decompose")
    rep.add("algebra.antisymmetry", table.antisymmetric())
    rep.add("algebra.jacobi", table.jacobi_holds(), "35 triples")
    return table


def cmd_brackets(args, rep: Report, parser) -> None:
    table = _table_checks(rep)
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


def _bounded_fraction(text: str) -> Fraction:
    """``Fraction(text)``, its size bounded from the text first, since
    building 1e9999999 alone takes seconds. A decimal digit is more than
    3 bits, so past MAX_POWER_BITS // 3 digits, those of the exponent's
    value included, the value is past MAX_POWER_BITS."""
    mantissa, _, exponent = text.strip().lower().partition("e")
    exponent = exponent.lstrip("+-").replace("_", "")
    digits = sum(ch.isdigit() for ch in mantissa.lstrip("+-0"))
    if exponent.isdecimal():
        digits += int(exponent)
    if digits > MAX_POWER_BITS // 3:
        raise ValueError(f"more than {MAX_POWER_BITS // 3} digits, "
                         f"exponent included: past {MAX_POWER_BITS} bits")
    return Fraction(text)


def cmd_adjoint(args, rep: Report, parser) -> None:
    if not 1 <= args.gen <= DIM:
        parser.error(f"--gen must be 1..{DIM}")
    s = _user_value(parser, "--s", _bounded_fraction, args.s)
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
        closure = _check_closure("subalgebra", vectors, rep)
        for n, case in enumerate(closure.cases, start=1):
            words = [f"{k}={v}" for k, v in sorted(case.assignment.items())]
            words.append(f"lambda={case.lam} mu={case.mu}" if case.closed
                         else case.reason)
            rep.add(f"subalgebra.case{n}", case.closed,
                    " ".join(w for w in words if w))


def _symmetry_checks(rep: Report) -> dict:
    """One check per basis generator; returns the per-equation residuals."""
    sys2 = system2()
    residuals = {}
    for i in range(DIM):
        label = f"X{i + 1}"
        srep = symmetry_check(BASIS[i], sys2, samples=rep.samples,
                              tol=rep.tol, seed=rep.seed, label=label)
        residuals[label] = [f"{c.max_residual:.3e}" for c in srep.cells]
        zero = sum(c.passed for c in srep.cells)
        exact = sum(c.exact for c in srep.cells)
        rep.add(f"symmetries.{label}", srep.passed,
                f"{zero} of {len(srep.cells)} equations zero ({exact} exact)"
                f" on the solved jet, max residual {srep.max_residual:.3e}")
    return residuals


def cmd_symmetries(args, rep: Report, parser) -> None:
    rep.details["per_equation_residuals"] = _symmetry_checks(rep)


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
        # distinct entries can share their verdicts; name the metric
        rep.details["entry"] = args.entry
    elif args.a is not None and args.b is not None and args.c is not None:
        a, b, c = (_user_value(parser, flag, parse, t)
                   for flag, t in (("--a", args.a), ("--b", args.b),
                                   ("--c", args.c)))
    else:
        parser.error("provide --entry ID or all of --a --b --c")
        return
    try:
        # the Ricci and Einstein components share each derivative of the
        # metric and one ring
        _, ricci, einstein = curvature_tables()
        verdicts = curvature_verdicts(ricci + einstein, a, b, c,
                                      samples=rep.samples, tol=rep.tol,
                                      seed=rep.seed)
    except ExprError as exc:
        parser.error(f"cannot evaluate the metric: {exc}")
    ricci_zero = all(verdicts[:len(ricci)])
    verdicts = verdicts[len(ricci):]
    for label, res in zip(EINSTEIN_LABELS, verdicts):
        rep.add(f"einstein.{label}", bool(res), res.describe())
    rep.details["ricci_zero"] = "yes" if ricci_zero else "no"
    rep.details["einstein"] = (
        "yes" if all(bool(r) for r in verdicts) else "no")


def _check_closure(name: str, vectors: list, rep: Report):
    """The ``<name>.closure`` check of span(vectors): a single generator
    passes when it is not zero, a pair when every case is closed, that
    is independent with every residual cancelling exactly. Returns the
    closure report."""
    closure = subalgebra_closed(vectors, seed=rep.seed)
    if not closure.closed:
        witness = "; ".join(c.reason for c in closure.cases if c.reason)
    elif len(vectors) == 1:
        witness = "single generator"
    else:
        witness = f"{len(closure.cases)} case(s), symbolic"
    rep.add(f"{name}.closure", closure.closed, witness)
    return closure


def _check_invariants(entry, rep: Report) -> None:
    inv = entry.invariant_set()
    gens = entry.coeff_vectors()
    irep = invariant_check(list(gens), inv, seed=rep.seed)
    rep.add(f"{entry.id}.invariants", irep.passed,
            f"jacobian rank {irep.jacobian_rank}, "
            f"{len(irep.annihilation)} annihilation checks")
    rank, delta = invariant_rank(inv, seed=rep.seed)
    ok = delta == len(entry.pis_ansatz().arbitrary)
    rep.add(f"{entry.id}.rank", ok, f"rank={rank} delta={delta}")


def _check_reduction(entry, rep: Report) -> None:
    computed = ansatz_substitute(entry.pis_ansatz(), system2())
    shipped = entry.reduced_exprs()
    if len(computed) != len(shipped):
        fault = (f"{len(shipped)} reduced residuals shipped, "
                 f"{len(computed)} derived")
    else:
        fault = next((f"reduced residual {k} differs from the derived one"
                      for k, (c, s) in enumerate(zip(computed, shipped), 1)
                      if not (c == s or is_zero_symbolic(sub(c, s)))), "")
    rep.add(f"{entry.id}.reduction", not fault,
            fault or f"{len(shipped)} reduced residuals, exact")


def _check_profile_family(entry, rep: Report) -> None:
    bindings = {k: entry.parse_expr(v) for k, v in entry.profile}
    residuals = tuple(entry.reduced_exprs()) + tuple(
        entry.parse_expr(s) for s in entry.consistency)
    exact, notes = _zero_tally([substitute(r, bindings) for r in residuals],
                               rep, "residual")
    for q in entry.inequations:
        res = _zero_test(substitute(entry.parse_expr(q), bindings), rep)
        if res.verdict != NONZERO:
            notes.append(f"inequation {q!r} degenerated")
    witness = "; ".join(notes) or (
        f"{len(residuals)} residuals zero ({exact} exact),"
        " inequations generic")
    rep.add(f"{entry.id}.profile", not notes, witness)


def _per_solution(entry, check: str):
    """(check id, triple) per solution, ids numbered when there are several."""
    many = len(entry.solutions) > 1
    for n, triple in enumerate(entry.triples(), start=1):
        yield f"{entry.id}.{check}{n if many else ''}", triple


def _check_solutions(entry, rep: Report) -> None:
    sys2 = system2()
    for cid, triple in _per_solution(entry, "solution"):
        exact, notes = _zero_tally(
            substitute_all(sys2.residuals, triple.bindings()), rep,
            "equation")
        rep.add(cid, not notes,
                "; ".join(notes) or f"6 residuals zero ({exact} exact)")


def _check_defect(entry, rep: Report) -> None:
    """A partially invariant solution's defect is the number of
    coordinates its ansatz leaves arbitrary."""
    gens = list(entry.coeff_vectors())
    expect = len(entry.pis_ansatz().arbitrary)
    for cid, triple in _per_solution(entry, "defect"):
        d = defect(gens, triple, seed=rep.seed)
        rep.add(cid, d == expect, f"delta={d}")


def _check_reducibility(entry, rep: Report) -> None:
    gens = list(entry.coeff_vectors())
    for cid, triple in _per_solution(entry, "reducibility"):
        scan = reducibility_scan(gens, triple, seed=rep.seed)
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


def _check_einstein_entry(entry, rep: Report) -> None:
    triple = entry.triples()[0]
    verdicts = einstein_verdicts(triple.a, triple.b, triple.c,
                                 samples=rep.samples, tol=rep.tol,
                                 seed=rep.seed)
    ok = all(bool(r) for r in verdicts)
    worst = max(verdicts, key=lambda r: r.max_residual)
    rep.add(f"{entry.id}.einstein", ok,
            f"10 components, worst residual {worst.max_residual:.3e}")


def _verify_entry(entry, rep: Report) -> None:
    _check_closure(entry.id, list(entry.coeff_vectors()), rep)
    if entry.invariants:
        _check_invariants(entry, rep)
    if entry.reduced:
        _check_reduction(entry, rep)
    if entry.profile:
        _check_profile_family(entry, rep)
    if entry.solutions:
        _check_solutions(entry, rep)
    if entry.reduced:
        # a reduced entry is a partially invariant solution
        _check_defect(entry, rep)
        _check_reducibility(entry, rep)
    if "einstein" in entry.checks:
        _check_einstein_entry(entry, rep)


def _verify_suite(rep: Report) -> None:
    _table_checks(rep)

    bad = [f"X{i}" for i in range(1, DIM + 1) if not adjoint_flow_holds(i)]
    rep.add("algebra.group_law", not bad,
            f"M(s) != exp(s*ad) for {', '.join(bad)}" if bad
            else f"M(s) = exp(s*ad) for X1..X{DIM}: dM/ds = ad*M in "
                 f"{DIM ** 3} cells and M(0) = I, exact")

    replays = proof_case_replays(seed=rep.seed)
    rep.add("algebra.replays", all(r.ok for r in replays),
            f"{len(replays)} normalization cases")

    _symmetry_checks(rep)
    _equivalence_checks(rep)


def cmd_verify(args, rep: Report, parser) -> None:
    if args.all:
        _verify_suite(rep)
        for entry in catalog.builtin():
            _verify_entry(entry, rep)
    else:
        _verify_entry(_entry_or_die(parser, args.entry, solutions=False),
                      rep)


def _span_entry_or_die(parser, entry_id):
    """The entry, which must carry solutions and span two generators."""
    entry = _entry_or_die(parser, entry_id)
    if len(entry.generators) != 2:
        parser.error(f"entry {entry_id!r} is not a two-generator span")
    return entry


def cmd_defect_cmd(args, rep: Report, parser) -> None:
    _check_defect(_span_entry_or_die(parser, args.entry), rep)


def cmd_reducibility(args, rep: Report, parser) -> None:
    _check_reducibility(_span_entry_or_die(parser, args.entry), rep)


def _equivalence_checks(rep: Report):
    """The three Einstein/PDE correspondence checks; returns the probe."""
    probe = equivalence_probe(samples=rep.samples, tol=rep.tol,
                              seed=rep.seed)
    exact = sum(r.verdict == ZERO_SYMBOLIC for r in probe.rows)
    bad = [f"{label}: {r.describe()}"
           for label, r in zip(EINSTEIN_LABELS, probe.rows) if not r]
    rep.add("equivalence.on_shell", probe.on_shell,
            "; ".join(bad) or f"{len(probe.rows)} components of E - M*r"
                               f" zero ({exact} exact)")
    rep.add("equivalence.generic", probe.generic,
            f"det of M on rows {', '.join(probe.block)} is "
            f"{render(probe.determinant)}, so E = 0 forces r = 0")
    rep.add("equivalence.correspondence",
            all(probe.correspondence.values()),
            "; ".join(f"{k} moves {len(v)} components"
                      for k, v in probe.correspondence.items()))
    return probe


def cmd_equivalence_probe(args, rep: Report, parser) -> None:
    probe = _equivalence_checks(rep)
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
    common.add_argument("--tol", type=_positive(float), default=1e-9)
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

    rep = Report(command=args.command, seed=args.seed,
                 samples=args.samples, tol=args.tol)
    start = time.monotonic()
    # Handlers fill ``rep``; one that prints its own output returns the
    # exit code instead. An input the kernel cannot carry through, such
    # as a constant too long to render, is a usage error.
    try:
        code = args.run(args, rep, parser)
    except ExprError as exc:
        parser.error(str(exc))
    if code is not None:
        return code
    rep.seconds = time.monotonic() - start

    print(rep.to_json() if args.report == "json" else rep.to_text())
    return rep.exit_code()


if __name__ == "__main__":
    sys.exit(main())
