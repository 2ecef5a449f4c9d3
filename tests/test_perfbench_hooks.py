"""The benchmark's hooks into the program still find their targets.

perfbench reaches into walkerkit from outside: its tracer rebinds named
functions, and its workloads time named CLI functions as cases. A name
it cannot find shows up as a zero count (tracer) or stops the run (case
boundary), so a rename would silently zero a benchmark counter. These
tests fail on such a rename instead, and run perfbench's own unit tests.
"""

import ast
import importlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
SRC = os.path.join(ROOT, "src")


def _python(*argv):
    # the tracer rebinds functions process-wide, so it runs in a child
    return subprocess.run([sys.executable, *argv], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=300)


def test_perfbench_unit_tests_pass():
    proc = _python("-m", "unittest", "discover", "-s", "perfbench")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "OK" in proc.stderr


def test_tracer_finds_every_target():
    script = (
        "import json, sys\n"
        f"sys.path.insert(0, {BENCH!r})\n"
        "import walkerkit.cli\n"
        "from tracing import TARGETS, Tracer\n"
        "tr = Tracer('hooks')\n"
        "tr.install()\n"
        "print(json.dumps({'targets': len(TARGETS),"
        " 'missing': tr.missing}))\n")
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["targets"] > 0
    assert out["missing"] == []


def _case_boundaries():
    """(module name, attribute) of every ``case_hook`` call in the
    workloads."""
    with open(os.path.join(BENCH, "workloads.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return [(call.args[0].id, call.args[1].value)
            for call in ast.walk(tree)
            if isinstance(call, ast.Call)
            and getattr(call.func, "id", None) == "case_hook"]


def test_every_case_boundary_exists():
    bounds = _case_boundaries()
    assert len(bounds) >= 4
    for modname, attr in bounds:
        mod = importlib.import_module(f"walkerkit.{modname}")
        assert callable(getattr(mod, attr, None)), f"{modname}.{attr}"


def test_probe_dense_repetition_meets_its_known_answers():
    # one repetition of the probe_dense workload, as the benchmark runs
    # it: the seven generators and the correspondence pass, and the
    # x*d/dx control fails with a residual above its floor
    proc = _python(os.path.join(BENCH, "child.py"), "probe_dense", "3101",
                   "0", "tier1", os.devnull)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["attempted"] > 0
    assert (result["mismatches"], result["errors"]) == (0, 0), \
        result["notes"]


def test_tracer_sees_every_float_evaluation(tmp_path):
    # one traced verify_all repetition: every probe sample is at least one
    # traced eval_expr call, so no float evaluation bypasses the tracer
    proc = _python(os.path.join(BENCH, "child.py"), "verify_all", "3", "1",
                   "hooks", str(tmp_path / "spans.json"))
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["mismatches"], result["errors"]) == (0, 0), \
        result["notes"]
    assert result["missing"] == []
    counters = result["counters"]
    assert counters["evals"] >= counters["probe_samples"], counters
