"""End-to-end acceptance suite.

Nine guarantees, one test and one printed verdict line apiece. Run with
`pytest -s tests/test_acceptance.py` to see the lines; each carries the
measured residuals and elapsed time next to its PASS or FAIL.
"""

import json
import time

from walkerkit import catalog
from walkerkit.cli import main
from walkerkit.expr import (
    NONZERO, ZERO, ZERO_SYMBOLIC, coord, is_zero, is_zero_symbolic, num,
    parse, render, sub, substitute,
)
from walkerkit.geometry import (
    curvature_tables, curvature_verdicts, einstein_verdicts,
    equivalence_probe,
)
from walkerkit.jets import symmetry_check, system2
from walkerkit.liealg import (
    BASIS, DIM, NotClosed, VectorField, adjoint_flow_holds, bracket,
    decompose, proof_case_replays, sc, subalgebra_closed,
)
from walkerkit.pis import (
    ansatz_substitute, defect, invariant_check, invariant_rank,
    reducibility_scan,
)


def _verdict(n, label, ok, info=""):
    tail = f"  [{info}]" if info else ""
    print(f"\nacceptance {n} ({label}): {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"acceptance {n} ({label}) failed{tail}"


def test_1_bracket_table_closure():
    start = time.perf_counter()
    decomposed = True
    try:
        for i in range(DIM):
            for j in range(DIM):
                decompose(bracket(BASIS[i], BASIS[j]))
    except NotClosed:
        decomposed = False
    table = sc()
    ok = decomposed and table.antisymmetric() and table.jacobi_holds()
    elapsed = time.perf_counter() - start
    _verdict(1, "algebra closure", ok and elapsed < 1.0,
             f"49 pairs exact, 35 triples exact, {elapsed:.2f}s < 1s")


def test_2_symmetry_certification():
    start = time.perf_counter()
    sys2 = system2()
    worst = 0.0
    ok = True
    for i in range(DIM):
        rep = symmetry_check(BASIS[i], sys2, samples=100, tol=1e-8,
                             seed=42, label=f"X{i + 1}")
        worst = max(worst, rep.max_residual)
        ok = ok and rep.passed and all(c.exact for c in rep.cells)
    bogus = VectorField((coord("x"), ZERO, ZERO, ZERO, ZERO))
    neg = symmetry_check(bogus, sys2, samples=100, tol=1e-8, seed=42,
                         label="x*d/dx control")
    ok = ok and not neg.passed and neg.max_residual > 1e-3
    elapsed = time.perf_counter() - start
    _verdict(2, "symmetry certification", ok and elapsed < 10.0,
             f"7 generators x 6 equations cancel exactly on the solved "
             f"jet (max residual {worst:.2e}); negative "
             f"control {neg.max_residual:.2e} > 1e-3; "
             f"{elapsed:.2f}s < 10s")


def test_3_two_generator_spans_close_symbolically():
    start = time.perf_counter()
    pairs = [e for e in catalog.builtin() if e.id.startswith("thm32.")]
    ok = len(pairs) >= 48
    bad = []
    for entry in pairs:
        rep = subalgebra_closed(list(entry.coeff_vectors()), seed=42)
        if not rep.closed:
            ok = False
            bad.append(entry.id)
    elapsed = time.perf_counter() - start
    _verdict(3, "two-generator closure", ok and elapsed < 5.0,
             f"{len(pairs)} spans symbolic in their parameters, "
             f"{elapsed:.2f}s < 5s"
             + (f"; failing: {bad}" if bad else ""))


def test_4_adjoint_replays_and_group_law():
    replays = proof_case_replays(seed=42)
    ok = all(r.ok for r in replays)
    case_f = next(r for r in replays if r.case_id == "f")
    step = case_f.steps[0]
    ok = (ok and step.s_text == "b5/(-1 + b6)" and step.killed == 5
          and step.verdict == ZERO_SYMBOLIC)
    flows = [adjoint_flow_holds(i) for i in range(1, DIM + 1)]
    ok = ok and all(flows)
    _verdict(4, "adjoint replay and group law", ok,
             f"{len(replays)} normalization cases replayed; the stated "
             f"shear kills the fifth coefficient exactly; "
             f"{sum(flows)}/{DIM} adjoint matrices solve dM/ds = ad*M "
             f"with M(0) = I exactly, so they compose as a group")


def test_5_reduction_pipeline():
    bmap = catalog.builtin_map()
    entry = bmap["eq25.family1"]
    gens = list(entry.coeff_vectors())
    inv = entry.invariant_set()

    irep = invariant_check(gens, inv, seed=42)
    ok = irep.independent and all(
        v == ZERO_SYMBOLIC for _, _, v in irep.annihilation)
    rank, delta = invariant_rank(inv, seed=42)
    ok = ok and rank == 2 and delta == 1

    reduced = tuple(parse(s) for s in catalog.RATIO_REDUCED)
    computed = ansatz_substitute(entry.pis_ansatz(), system2())
    ok = ok and len(computed) == len(reduced) and all(
        is_zero_symbolic(sub(c, r)) for c, r in zip(computed, reduced))

    consistency = tuple(parse(s) for s in catalog.RATIO_CONSISTENCY)
    ineq = tuple(parse(s) for s in catalog.RATIO_INEQUATIONS)
    families = [{k: parse(v) for k, v in d.items()}
                for d in catalog.RATIO_PROFILE_FAMILIES]
    for n, bindings in enumerate(families):
        verdicts = [is_zero(substitute(r, bindings), samples=100, tol=1e-9,
                            seed=42).verdict
                    for r in reduced + consistency]
        ok = ok and NONZERO not in verdicts and all(
            is_zero(substitute(q, bindings), samples=100, tol=1e-9,
                    seed=42).verdict == NONZERO for q in ineq)
        # rational families must cancel exactly, not merely numerically
        if n < 2:
            ok = ok and all(v == ZERO_SYMBOLIC for v in verdicts)

    sys2 = system2()
    solved = 0
    for i in range(1, 5):
        triple = bmap[f"eq25.family{i}"].triples()[0]
        if all(bool(is_zero(substitute(r, triple.bindings()),
                            samples=100, tol=1e-9, seed=42))
               for r in sys2.residuals):
            solved += 1
    ok = ok and solved == 4
    _verdict(5, "reduction pipeline", ok,
             f"invariants exact, rank {rank}, defect {delta}; ansatz "
             f"reduction exact; 4 profile families satisfy reduced + "
             f"consistency (first two fully symbolic); {solved}/4 "
             f"assembled triples solve the source system")


def test_6_einstein_certification():
    triple = catalog.builtin_map()["eq27"].triples()[0]
    verdicts = einstein_verdicts(triple.a, triple.b, triple.c,
                                 samples=100, tol=1e-9, seed=42)
    ok = all(bool(v) for v in verdicts)
    worst = max(v.max_residual for v in verdicts)
    for consts in ((ZERO, ZERO, ZERO), (num(2), num(3), num(5))):
        ricci = curvature_verdicts(curvature_tables().ricci, *consts)
        ok = ok and all(v.verdict == ZERO_SYMBOLIC for v in ricci)
    probe = equivalence_probe(samples=100, tol=1e-9, seed=42)
    exact = sum(r.verdict == ZERO_SYMBOLIC for r in probe.rows)
    ok = ok and probe.passed and exact == 10
    _verdict(6, "einstein certification", ok,
             f"10 trace-adjusted components zero (worst residual "
             f"{worst:.2e} < 1e-9); flat and constant metrics Ricci-flat "
             f"exactly; E - M*r cancels on {exact}/10 components, "
             f"det of M's block {render(probe.determinant)}, both "
             f"directions exact")


def test_7_closed_form_row_verdicts():
    sys2 = system2()
    bmap = catalog.builtin_map()
    ok = True
    lines = []
    for i in range(1, 5):
        rid = f"table1.row{i}"
        triple = bmap[rid].triples()[0]
        results = [is_zero(substitute(r, triple.bindings()),
                           samples=100, tol=1e-9, seed=42)
                   for r in sys2.residuals]
        passed = all(bool(r) for r in results)
        if passed:
            peak = max(r.max_residual for r in results)
            lines.append(f"{rid} PASS (max residual {peak:.2e})")
        else:
            bad = next(r for r in results if not bool(r))
            # a definitive FAIL must carry the witness point
            ok = ok and bad.witness is not None
            lines.append(f"{rid} FAIL ({bad.describe()})")
        if i == 3:
            ok = ok and passed
    _verdict(7, "closed-form rows", ok, "; ".join(lines))


def test_8_defect_and_reducibility_scan():
    bmap = catalog.builtin_map()
    ok = True
    flagged = 0
    for i in range(1, 5):
        entry = bmap[f"eq25.family{i}"]
        gens = list(entry.coeff_vectors())
        triple = entry.triples()[0]
        ok = ok and defect(gens, triple, seed=42) == 1
        scan = reducibility_scan(gens, triple, seed=42)
        if {"alpha": "1", "beta": "0"} in scan.directions:
            flagged += 1
        ok = ok and scan.directions != []
    ok = ok and flagged == 4
    _verdict(8, "defect and reducibility", ok,
             "defect 1 on each of the 4 families; the scan flags the "
             "first-generator invariance direction (1:0) on every "
             "family, so none is irreducible under the pair it came "
             "from; finding reported, not suppressed")


def test_9_deterministic_reports(capsys):
    start = time.perf_counter()
    code1 = main(["verify", "--all", "--seed", "42", "--report", "json"])
    first = capsys.readouterr().out
    code2 = main(["verify", "--all", "--seed", "42", "--report", "json"])
    second = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    doc = json.loads(first)
    failed = [c["id"] for c in doc["checks"] if c["verdict"] == "fail"]
    ok = (first == second and code1 == code2
          and doc["summary"]["total"] == 141
          and failed == ["eq26.family3.solution"] and elapsed < 120.0)
    _verdict(9, "deterministic reporting", ok,
             f"{doc['summary']['total']} checks, two runs byte-identical, "
             f"{elapsed:.1f}s < 120s; "
             f"{doc['summary']['fail']} known honest failure(s)")
