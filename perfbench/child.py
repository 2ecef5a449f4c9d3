"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED TRACE RUN_ID SPAN_FILE

WORKLOAD ``setup`` stops after set-up and prints its times and the
import reference's (``timing.import_reference``).
Prints one JSON object on its last line of standard output. Set-up is
timed first, before the benchmark imports anything the program might
share with it, so modules that ``walkerkit.cli`` pulls in are paid for
inside ``setup_s`` as they are for a user of the CLI.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv) -> int:
    workload, seed, trace, run_id, span_file = argv
    seed = int(seed)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)

    t0 = time.perf_counter()
    import walkerkit.cli  # noqa: F401  (timed: part of set-up)
    import_s = time.perf_counter() - t0
    src = os.path.join(ROOT, "src", "")
    if not walkerkit.cli.__file__.startswith(src):
        sys.exit(f"walkerkit was imported from {walkerkit.cli.__file__}, "
                 f"not from {src}")
    from timing import CaseClock
    clock = CaseClock()
    tracer = None
    if trace == "1":
        from tracing import Tracer
        # Spans read a clock that stops while the host's speed is sampled.
        tracer = Tracer(run_id, clock=lambda: time.perf_counter()
                        - clock.probe_s)
        tracer.install(on_result={
            "is_zero_symbolic": lambda ok: 1 if ok else 0,
            "probe_zero": lambda res: res.samples,
        })
    t1 = time.perf_counter()
    from walkerkit import catalog
    entries = catalog.builtin()
    catalog_s = time.perf_counter() - t1

    import json
    setup = {"import_s": import_s, "catalog_s": catalog_s,
             "setup_s": import_s + catalog_s}
    if workload == "setup":
        from timing import import_reference
        setup["import_ref_s"] = import_reference()
        print(json.dumps(setup))
        return 0

    import resource
    import workloads

    start, probed = time.perf_counter(), clock.probe_s
    clock.start()
    if tracer is not None:
        with tracer.span("bench:workload"):
            gate = workloads.RUNNERS[workload](seed, entries, clock)
    else:
        gate = workloads.RUNNERS[workload](seed, entries, clock)
    clock.stop()
    wall = time.perf_counter() - start - (clock.probe_s - probed)

    result = dict(setup, **{
        "wall_s": wall,
        "ref_s": clock.mean_speed(),
        "case_refs": clock.case_refs(),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": gate.attempted,
        "mismatches": gate.mismatches,
        "errors": gate.errors,
        "notes": gate.notes[:20],
    })
    if tracer is not None:
        stats = tracer.stats
        evals = stats["expr.numeric:eval_expr"]
        zsym = stats["expr.expand:is_zero_symbolic"]
        result["layers"] = tracer.layer_totals()
        result["functions"] = {k: {"calls": s.calls, "self_s": s.self_s}
                               for k, s in stats.items()}
        result["counters"] = {
            "exact": zsym.extra, "attempts": zsym.calls,
            "guards": evals.raised.get("EvalGuard", 0),
            "evals": evals.calls,
            "probe_samples": stats["expr.numeric:probe_zero"].extra,
        }
        result["missing"] = tracer.missing
        result["spans"] = tracer.span_count()
        os.makedirs(os.path.dirname(span_file), exist_ok=True)
        tracer.write_spans(span_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
