"""walker-kit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.

Load model: a closed loop with one client. Each repetition is a fresh
interpreter (``child.py``), started only after the previous one has
exited, so module caches such as the structure-constant table start cold
as they do for a CLI user. Children run with one BLAS thread
(``CHILD_ENV``). Workload repetitions repeat until ``--seconds`` have
passed after the set-up measurement (about 7 s). The seed chooses the
workload's inputs; the program sees only those inputs.

Workloads (see ``workloads.py`` for inputs and known answers):

* ``verify_all``: ``verify --all`` through ``walkerkit.cli.main``; the
  headline command, touching every module. A case is the algebra-wide
  suite or one catalog entry.
* ``probe_dense``: ``symmetries`` and ``equivalence-probe`` at 300 samples
  plus the x*d/dx negative control; few expressions, each evaluated at
  hundreds of on-shell jets. A case is one generator check, the probe or
  the control.
* ``curvature``: Einstein verdicts of seeded instantiations of the
  catalog solutions and of twins that must fail; many expressions, each
  evaluated a few times. A case is one metric.

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
On a shared two-vCPU virtual machine the host's speed was measured to
drift by tens of percent within a second and by more than 25% between
sets of runs minutes apart, so the workload times are corrected for it:
seconds divided by the host's speed at that moment, sampled by
``timing.CaseClock`` as the time of a fixed stdlib Fraction/dict
reference loop of 60k steps (one "ref").

* ``setup_s``: time to import ``walkerkit.cli`` plus run
  ``catalog.builtin()`` in a fresh interpreter, from ``SETUP_RUNS``
  set-up-only interpreters started at the beginning of the run, so the
  sample count does not depend on the workload. Set-up is mostly imports,
  which the Fraction loop does not track, so each set-up is divided by
  the time of a fixed import job run right after it in the same
  interpreter (``timing.import_reference``). The median ratio is
  reported in seconds at the baseline host's import speed (times
  ``timing.IMPORT_REF_S``). The measured seconds are on the detail line;
* ``wall_ref``: workload time after set-up, median;
* ``case_p50_ref`` and ``case_tail_ref``: median case time, and the
  highest percentile of a repetition with at least ten cases beyond it,
  read from the cases of all repetitions pooled (``case_quantiles``). The
  detail line states the percentile and the case count;
* ``peak_rss_mb``: peak resident memory of a repetition, median.

The detail line (second to last) also gives every set-up and
import-reference time, the median wall time in seconds, the seconds per
ref, and the spread of the repetitions' wall times.

Every repetition is checked against its workload's known answers. The
result is ``correct`` only when no verdict differs from them and no check
raised; ``failed`` counts both.

``--trace 1`` alternates untraced and traced repetitions (at least two
traced, at the same seed) and prints the per-layer metrics: calls and
self time per module, ratios, set-up parts (from the untraced
repetitions, started with ``-X importtime``), the tracing overhead in ref
units, and the gate counts. It fails the run when the two traced
repetitions disagree on any call count. Spans are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

from tracing import LAYERS  # noqa: E402
from timing import IMPORT_REF_S  # noqa: E402
from workloads import NAMES  # noqa: E402

RUN_LIMIT_S = 170.0
TRACED_MIN = 2
SETUP_RUNS = 15
# numpy's OpenBLAS starts one worker thread per CPU when imported. On a
# two-vCPU host, waiting for that thread moved the set-up median by a third
# between sets of runs an hour apart; with one BLAS thread, numpy imported
# in 0.10-0.12 s against 0.17-0.34 s. The program only takes SVDs of small
# matrices, so every child runs with one.
CHILD_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1")

# Per-layer metrics that name one function or group: (metric prefix,
# function or group key in the child's results).
FOCUS = (
    ("expr.nodes.build", "expr.nodes.build"),
    ("expr.nodes.derive", "expr.nodes.derive"),
    ("expr.numeric.eval_expr", "expr.numeric:eval_expr"),
    ("jets.on_shell_sample", "jets:on_shell_sample"),
    ("geometry.ricci", "geometry:ricci"),
    ("liealg.adjoint_matrix", "liealg:adjoint_matrix"),
    ("liealg.jacobi_holds", "liealg:StructureConstants.jacobi_holds"),
    ("liealg.structure_constants", "liealg:structure_constants"),
)


class BenchError(RuntimeError):
    pass


def run_child(workload: str, seed: int, run_id: str, deadline: float,
              span_file: str | None = None,
              importtime: bool = False) -> dict:
    """One repetition; traced when ``span_file`` is given."""
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [os.path.join(HERE, "child.py"), workload, str(seed),
            "0" if span_file is None else "1", run_id, span_file or ""]
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError("time limit reached before a repetition")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=CHILD_ENV,
                              capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"repetition {run_id} exceeded the time limit")
    if proc.returncode != 0:
        raise BenchError(f"repetition {run_id} exited {proc.returncode}:\n"
                         + proc.stderr[-3000:])
    result = json.loads(proc.stdout.splitlines()[-1])
    if importtime:
        result["numpy_import_s"] = numpy_import_s(proc.stderr)
    return result


def numpy_import_s(importtime_log: str) -> float:
    """Cumulative import time of the top-level numpy package, from the
    interpreter's ``-X importtime`` log; 0 when numpy was not imported."""
    for line in importtime_log.splitlines():
        m = re.match(r"import time:\s*\d+ \|\s*(\d+) \|\s*numpy\s*$", line)
        if m:
            return int(m.group(1)) / 1e6
    return 0.0


def case_quantiles(reps: list) -> tuple:
    """(median, tail, tail percentile, cases per repetition) of the
    repetitions' case costs.

    The tail is the highest percentile of one repetition with at least ten
    cases beyond it, read from all repetitions' cases pooled, so that it
    does not depend on how many repetitions fit in a run. With fewer than
    11 cases a repetition has no such percentile; the tail is then the
    median over repetitions of each one's slowest case.
    """
    n = len(reps[0]["case_refs"])
    pooled = sorted(c for r in reps for c in r["case_refs"])
    p50 = statistics.median(pooled)
    if n < 11:
        return p50, statistics.median(max(r["case_refs"]) for r in reps), \
            100.0, n
    share = (n - 10) / n
    return p50, pooled[math.ceil(share * len(pooled)) - 1], 100 * share, n


def spread(values: list) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def gate_totals(reps: list) -> dict:
    attempted = sum(r["attempted"] for r in reps)
    mismatches = sum(r["mismatches"] for r in reps)
    errors = sum(r["errors"] for r in reps)
    notes = [n for r in reps for n in r["notes"]]
    return {"attempted": attempted, "mismatches": mismatches,
            "errors": errors, "notes": notes[:20]}


def end_to_end(setups: list, reps: list) -> tuple:
    med = statistics.median
    p50, tail, pct, n = case_quantiles(reps)
    metrics = {
        "setup_s": (med(s["setup_s"] / s["import_ref_s"] for s in setups)
                    * IMPORT_REF_S, "s"),
        "wall_ref": (med(r["wall_s"] / r["ref_s"] for r in reps), "ref"),
        "case_p50_ref": (p50, "ref"),
        "case_tail_ref": (tail, "ref"),
        "peak_rss_mb": (med(r["rss_mb"] for r in reps), "MB"),
    }
    walls = [r["wall_s"] for r in reps]
    detail = {
        "repetitions": len(reps),
        "case_tail": {"percentile": round(pct, 2),
                      "cases_per_repetition": n},
        "setup_s_measured": med(s["setup_s"] for s in setups),
        "setup_s_each": [round(s["setup_s"], 4) for s in setups],
        "import_ref_s_each": [round(s["import_ref_s"], 4) for s in setups],
        "wall_s": med(walls),
        "ref_s": med(r["ref_s"] for r in reps),
        "wall_s_each": [round(w, 4) for w in walls],
        "wall_spread": spread(walls),
        "wall_ref_spread": spread([r["wall_s"] / r["ref_s"] for r in reps]),
    }
    return metrics, detail


def count_signature(rep: dict) -> dict:
    sig = {k: v["calls"] for k, v in rep["functions"].items()}
    sig.update(rep["counters"])
    return sig


def per_layer(plain: list, traced: list) -> tuple:
    med = statistics.median
    first = traced[0]
    metrics = {}
    for layer in LAYERS:
        agg = first["layers"].get(layer, {"calls": 0})
        metrics[f"{layer}.calls"] = (agg["calls"], "count")
        metrics[f"{layer}.self_s"] = (
            med(t["layers"].get(layer, {"self_s": 0.0})["self_s"]
                for t in traced), "s")
    for prefix, key in FOCUS:
        table = "layers" if ":" not in key else "functions"
        zero = {"calls": 0, "self_s": 0.0}
        metrics[f"{prefix}.calls"] = (
            first[table].get(key, zero)["calls"], "count")
        metrics[f"{prefix}.self_s"] = (
            med(t[table].get(key, zero)["self_s"] for t in traced), "s")
    ctr = first["counters"]
    metrics["expr.expand.exact_ratio"] = (
        ctr["exact"] / ctr["attempts"] if ctr["attempts"] else 0.0, "ratio")
    metrics["expr.numeric.guard_ratio"] = (
        ctr["guards"] / ctr["evals"] if ctr["evals"] else 0.0, "ratio")
    metrics["expr.numeric.probe_samples"] = (ctr["probe_samples"], "count")
    metrics["setup.import_s"] = (med(r["import_s"] for r in plain), "s")
    metrics["setup.catalog_s"] = (med(r["catalog_s"] for r in plain), "s")
    metrics["setup.numpy_import_s"] = (
        med(r["numpy_import_s"] for r in plain), "s")
    plain_ref = med(r["wall_s"] / r["ref_s"] for r in plain)
    overhead = med(t["wall_s"] / t["ref_s"] for t in traced) - plain_ref
    metrics["trace.overhead_ref"] = (overhead, "ref")
    metrics["trace.overhead_share"] = (overhead / plain_ref, "ratio")
    gate = gate_totals(plain + traced)
    metrics["gate.verdict_mismatch"] = (gate["mismatches"], "count")
    metrics["gate.error_rate"] = (gate["errors"] / gate["attempted"],
                                  "ratio")

    signatures = [count_signature(t) for t in traced]
    differing = sorted(k for k in signatures[0]
                       if any(s.get(k) != signatures[0][k]
                              for s in signatures[1:]))
    detail = {
        "repetitions": {"untraced": len(plain), "traced": len(traced)},
        "counts_identical": not differing,
        "counts_differing": differing,
        "missing_targets": first["missing"],
        "spans": [t["spans"] for t in traced],
    }
    return metrics, detail


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    tag = f"{workload}-s{seed}"
    # The first interpreter compiles bytecode and warms the file cache.
    run_child("setup", seed, f"{tag}-warm", deadline)
    setups = [] if trace else [
        run_child("setup", seed, f"{tag}-setup{k}", deadline)
        for k in range(SETUP_RUNS)]
    stop = time.perf_counter() + seconds
    plain, traced = [], []
    while True:
        began = time.perf_counter()
        k = len(plain)
        plain.append(run_child(workload, seed, f"{tag}-p{k}", deadline,
                               importtime=trace))
        if trace:
            # One span file per workload and repetition, overwritten by
            # later runs, so a checkout does not fill up with spans.
            spans = os.path.join(OUT_DIR, f"spans-{workload}-{k}.jsonl")
            traced.append(run_child(workload, seed, f"{tag}-t{k}", deadline,
                                    span_file=spans))
        now = time.perf_counter()
        enough = not trace or len(traced) >= TRACED_MIN
        # Stop when another repetition would end more than half of it
        # past the measuring time, so runs last about --seconds.
        if enough and now + (now - began) / 2 >= stop:
            break

    if trace:
        metrics, detail = per_layer(plain, traced)
        gate = gate_totals(plain + traced)
        consistent = detail["counts_identical"]
    else:
        metrics, detail = end_to_end(setups, plain)
        gate = gate_totals(plain)
        consistent = True
    detail["gate"] = gate
    detail["verdict_mismatch"] = gate["mismatches"]
    detail["error_rate"] = gate["errors"] / gate["attempted"]
    detail["elapsed_s"] = time.perf_counter() - start
    return {
        "detail": detail,
        "result": {
            "correct": (gate["mismatches"] == 0 and gate["errors"] == 0
                        and consistent),
            "attempted": gate["attempted"],
            "failed": gate["mismatches"] + gate["errors"],
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        out = measure(args.workload, args.seed, args.seconds,
                      bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"detail": out["detail"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
