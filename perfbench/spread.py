"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--traced] [--out FILE]

Runs ``run.py`` for seeds 1 to 10 on every workload of
``BENCHMARK.json``, for its ``run_seconds`` each, one run at a time,
interleaving the workloads within each seed so that a slow spell of the
host falls on all of them. For each workload and end-to-end metric it
prints the median of the runs and their spread: the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the metric's bound from ``BENCHMARK.json``.
``--traced`` adds one ``--trace 1`` run per workload at seed 1. ``--out``
writes every run's metrics, the summary, the machine and the git commit
as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from run import HERE, ROOT, spread

SEEDS = tuple(range(1, 11))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    return {"seed": seed, "correct": result["correct"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "detail": json.loads(lines[-2])["detail"]}


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def summarize(runs: list, bounds: dict) -> dict:
    out = {}
    for name, bound in bounds.items():
        values = [r["metrics"][name] for r in runs]
        out[name] = {"median": statistics.median(values),
                     "spread": spread(values), "bound": bound}
    return out


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--traced", action="store_true",
                    help="also make one --trace 1 run per workload")
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = {w: [] for w in workloads}
    for seed in SEEDS:
        for w in workloads:
            r = run_once(w, seed, seconds, 0)
            runs[w].append(r)
            print(f"{w} seed {seed}: correct={r['correct']} "
                  + " ".join(f"{k}={v:.4g}" for k, v in r["metrics"].items()),
                  flush=True)

    summary = {w: summarize(rs, bounds) for w, rs in runs.items()}
    for w, table in summary.items():
        print(f"\n{w}")
        for name, s in table.items():
            flag = "ok" if s["spread"] < s["bound"] / 3 else "WIDE"
            print(f"  {name:12s} median {s['median']:.4g}  spread "
                  f"{s['spread']:.3f}  bound {s['bound']}  {flag}")
    traced = {}
    if args.traced:
        for w in workloads:
            traced[w] = run_once(w, SEEDS[0], seconds, 1)
            print(f"{w} traced: correct={traced[w]['correct']} overhead "
                  f"{traced[w]['metrics']['trace.overhead_share']:.2f}",
                  flush=True)
    if args.out:
        doc = {"machine": platform.machine(),
               "processor": platform.processor(),
               "nproc": os.cpu_count(),
               "python": platform.python_version(), "git_sha": git_sha(),
               "seconds": seconds, "seeds": list(SEEDS),
               "summary": summary, "runs": runs, "traced": traced}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
