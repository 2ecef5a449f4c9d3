"""The three workloads, their seeded inputs and their known answers.

The known answers come from the README and the paper, not from the
program's own output:

* ``verify --all`` runs 141 checks and exits 1; the one failure is the
  documented honest one, ``eq26.family3.solution``.
* Every one of the seven generators is a symmetry of the system, the
  Einstein/PDE correspondence holds in both directions, and the scaling
  field x*d/dx (not in the algebra) is not a symmetry.
* Every catalog solution except ``eq26.family3`` is an Einstein metric for
  any value of its constants ``c1..c9``. Adding m*x^3 to ``a`` adds 6*m*x
  to the first residual ``a_11 - b_22``, so the twin metric is not
  Einstein.

A gate counts verdicts that differ from these answers (mismatches) and
checks or cases that raised instead of giving a verdict (errors).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from dataclasses import dataclass, field

NAMES = ("verify_all", "probe_dense", "curvature")

VERIFY_CHECKS = 141
VERIFY_EXIT = 1
VERIFY_FAILS = frozenset({"eq26.family3.solution"})

PROBE_SAMPLES = 300
PROBE_EXIT = 0
SYMMETRY_IDS = tuple(f"symmetries.X{i}" for i in range(1, 8))
EQUIVALENCE_IDS = ("equivalence.correspondence", "equivalence.generic",
                   "equivalence.on_shell")
CONTROL_FLOOR = 1e-3

CURVATURE_DRAWS = 9
CURVATURE_SKIP = "eq26.family3"
_CONST = re.compile(r"\bc([1-9])\b")


@dataclass
class Gate:
    attempted: int = 0
    mismatches: int = 0
    errors: int = 0
    notes: list = field(default_factory=list)

    def merge(self, other: "Gate") -> None:
        self.attempted += other.attempted
        self.mismatches += other.mismatches
        self.errors += other.errors
        self.notes += other.notes


# --- known-answer gates (pure; the tests drive them directly) -------------

def gate_verify(report, exit_code) -> Gate:
    """``report`` is the parsed JSON report, or None when main raised."""
    if report is None:
        return Gate(VERIFY_CHECKS, 0, VERIFY_CHECKS, ["verify raised"])
    g = Gate(VERIFY_CHECKS)
    checks = report["checks"]
    fails = {c["id"] for c in checks if c["verdict"] != "pass"}
    flipped = sorted(fails ^ VERIFY_FAILS)
    g.mismatches += len(flipped) + abs(len(checks) - VERIFY_CHECKS)
    if flipped:
        g.notes.append(f"verdicts differ: {flipped}")
    if len(checks) != VERIFY_CHECKS:
        g.notes.append(f"{len(checks)} checks, expected {VERIFY_CHECKS}")
    if exit_code != VERIFY_EXIT:
        g.mismatches += 1
        g.notes.append(f"exit {exit_code}, expected {VERIFY_EXIT}")
    return g


def _gate_all_pass(result, ids) -> Gate:
    """``result`` is (report, exit code) as ``_cli_json`` returns it."""
    report, code = result
    if report is None:
        return Gate(len(ids), 0, len(ids), [f"command raised: {code}"])
    checks = report["checks"]
    got = {c["id"]: c["verdict"] for c in checks}
    bad = [i for i in ids if got.get(i) != "pass"]
    g = Gate(len(ids), len(bad) + abs(len(checks) - len(ids)))
    if bad:
        g.notes.append(f"not passing: {bad}")
    if len(checks) != len(ids):
        g.notes.append(f"{len(checks)} checks, expected {len(ids)}")
    if code != PROBE_EXIT:
        g.mismatches += 1
        g.notes.append(f"exit {code}, expected {PROBE_EXIT}")
    return g


def gate_probe(symmetries, equivalence, control) -> Gate:
    """``symmetries`` and ``equivalence`` are (report, exit code) of the
    two commands; ``control`` is (passed, max_residual), or None when it
    raised."""
    g = _gate_all_pass(symmetries, SYMMETRY_IDS)
    g.merge(_gate_all_pass(equivalence, EQUIVALENCE_IDS))
    g.attempted += 1
    if control is None:
        g.errors += 1
        g.notes.append("control raised")
    elif control[0] or not control[1] > CONTROL_FLOOR:
        g.mismatches += 1
        g.notes.append(f"control x*d/dx not rejected: {control}")
    return g


def gate_curvature(outcomes) -> Gate:
    """``outcomes``: (case id, twin, einstein) with einstein None when the
    case raised."""
    g = Gate(len(outcomes))
    for cid, twin, einstein in outcomes:
        if einstein is None:
            g.errors += 1
            g.notes.append(f"{cid} raised")
        elif einstein == twin:
            g.mismatches += 1
            g.notes.append(f"{cid}: einstein={einstein}")
    return g


# --- seeded inputs ----------------------------------------------------------

def instantiate(text: str, values: dict) -> str:
    """Replace each constant c1..c9 by its integer value."""
    return _CONST.sub(lambda m: f"({values[int(m.group(1))]})", text)


def curvature_cases(solutions, seed: int) -> list:
    """``solutions``: (entry id, a, b, c) texts. Returns
    (case id, twin, a, b, c) texts: per entry ``CURVATURE_DRAWS``
    instantiations of the constants from 1..9, each followed by its twin
    with a + m*x^3.

    Each constant, and m, runs through a seeded permutation of 1..9, so
    every seed draws each value equally often and only the pairings
    change; the cost of a seed's inputs then varies little."""
    rng = random.Random(seed)
    out = []
    for eid, a, b, c in solutions:
        columns = [rng.sample(range(1, 10), 9) for _ in range(10)]
        for n in range(CURVATURE_DRAWS):
            values = {i: columns[i][n] for i in range(1, 10)}
            m = columns[0][n]
            a_n, b_n, c_n = (instantiate(t, values) for t in (a, b, c))
            out.append((f"{eid}#{n}", False, a_n, b_n, c_n))
            out.append((f"{eid}#{n}+{m}x3", True, f"({a_n}) + {m}*x^3",
                        b_n, c_n))
    return out


def catalog_solutions(entries) -> list:
    return [(e.id, e.solutions[0].a, e.solutions[0].b, e.solutions[0].c)
            for e in entries if e.solutions and e.id != CURVATURE_SKIP]


# --- running ----------------------------------------------------------------

def case_hook(module, attr: str, clock) -> None:
    """Make every call of ``module.attr`` one case of ``clock`` (case
    boundaries inside a CLI command)."""
    fn = getattr(module, attr, None)
    if fn is None:
        raise RuntimeError(f"case boundary {module.__name__}.{attr} "
                           "not found")
    setattr(module, attr, clock.timed(fn))


def _cli_json(cli, argv: list):
    """(parsed JSON report, exit code) of one CLI call, or (None, error
    text) when the command raised."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv + ["--report", "json"])
    except Exception as exc:  # counted as an error by the gate
        return None, f"{type(exc).__name__}: {exc}"
    return json.loads(buf.getvalue()), code


def run_verify_all(seed: int, entries, clock) -> Gate:
    from walkerkit import cli
    case_hook(cli, "_verify_suite", clock)
    case_hook(cli, "_verify_entry", clock)
    report, code = _cli_json(cli, ["verify", "--all", "--seed", str(seed)])
    return gate_verify(report, code)


def _control(seed: int):
    """(passed, max residual) of the x*d/dx field, or None if it raised."""
    from walkerkit.expr import ZERO, coord
    from walkerkit.jets import symmetry_check
    from walkerkit.liealg import VectorField
    scaling = VectorField((coord("x"), ZERO, ZERO, ZERO, ZERO))
    try:
        rep = symmetry_check(scaling, samples=PROBE_SAMPLES, tol=1e-8,
                             seed=seed, label="x*d/dx")
    except Exception:  # counted as an error by the gate
        return None
    return rep.passed, rep.max_residual


def run_probe_dense(seed: int, entries, clock) -> Gate:
    from walkerkit import cli
    case_hook(cli, "symmetry_check", clock)
    case_hook(cli, "equivalence_probe", clock)
    common = ["--samples", str(PROBE_SAMPLES), "--seed", str(seed)]
    sym = _cli_json(cli, ["symmetries"] + common)
    equiv = _cli_json(cli, ["equivalence-probe"] + common)
    control = clock.timed(_control)(seed)
    return gate_probe(sym, equiv, control)


def _einstein(seed: int, a: str, b: str, c: str):
    """True/False: all ten components vanish; None if the case raised."""
    from walkerkit.expr import parse
    from walkerkit.geometry import einstein_verdicts
    try:
        verdicts = einstein_verdicts(parse(a), parse(b), parse(c), seed=seed)
    except Exception:  # counted as an error by the gate
        return None
    return all(bool(v) for v in verdicts)


def run_curvature(seed: int, entries, clock) -> Gate:
    case = clock.timed(_einstein)
    outcomes = [(cid, twin, case(seed, a, b, c))
                for cid, twin, a, b, c
                in curvature_cases(catalog_solutions(entries), seed)]
    return gate_curvature(outcomes)


RUNNERS = {"verify_all": run_verify_all, "probe_dense": run_probe_dense,
           "curvature": run_curvature}
