"""Tests of the benchmark's own logic: gates, inputs, tracing, statistics.

    python3 -m unittest discover -s perfbench -v

Stdlib only. One test runs the real ``verify --all`` in-process (a few
seconds); the rest run in milliseconds.
"""

import copy
import os
import sys
import types
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import timing  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def _verify_report(fail_ids=("eq26.family3.solution",), total=141):
    checks = [{"id": f"check{i}", "verdict": "pass"}
              for i in range(total - len(fail_ids))]
    checks += [{"id": cid, "verdict": "fail"} for cid in fail_ids]
    return {"checks": checks}


def _all_pass(ids):
    return {"checks": [{"id": i, "verdict": "pass"} for i in ids]}


class GateTests(unittest.TestCase):
    def test_verify_known_answer_passes(self):
        g = wl.gate_verify(_verify_report(), 1)
        self.assertEqual((g.attempted, g.mismatches, g.errors), (141, 0, 0))

    def test_verify_flipped_verdict_is_a_mismatch(self):
        report = _verify_report()
        report["checks"][0]["verdict"] = "fail"
        self.assertEqual(wl.gate_verify(report, 1).mismatches, 1)

    def test_verify_honest_failure_turned_pass_is_a_mismatch(self):
        g = wl.gate_verify(_verify_report(fail_ids=(), total=141), 0)
        self.assertEqual(g.mismatches, 2)  # the verdict and the exit code

    def test_verify_missing_check_and_crash(self):
        self.assertEqual(wl.gate_verify(_verify_report(total=140), 1)
                         .mismatches, 1)
        g = wl.gate_verify(None, "ValueError: boom")
        self.assertEqual((g.mismatches, g.errors), (0, 141))

    def test_probe_gate(self):
        sym = (_all_pass(wl.SYMMETRY_IDS), 0)
        equiv = (_all_pass(wl.EQUIVALENCE_IDS), 0)
        self.assertEqual(wl.gate_probe(sym, equiv, (False, 3.9)).mismatches,
                         0)
        self.assertEqual(wl.gate_probe(sym, equiv, (True, 0.0)).mismatches,
                         1)
        self.assertEqual(wl.gate_probe(sym, equiv, (False, 1e-6))
                         .mismatches, 1)
        bad = copy.deepcopy(sym)
        bad[0]["checks"][3]["verdict"] = "fail"
        self.assertEqual(wl.gate_probe(bad, equiv, (False, 3.9)).mismatches,
                         1)
        g = wl.gate_probe((None, "ValueError: boom"), equiv, None)
        self.assertEqual((g.attempted, g.errors), (11, 8))

    def test_probe_gate_exit_code_and_check_count(self):
        sym = (_all_pass(wl.SYMMETRY_IDS), 0)
        equiv = (_all_pass(wl.EQUIVALENCE_IDS), 0)
        ok = (False, 3.9)
        self.assertEqual(wl.gate_probe((sym[0], 1), equiv, ok).mismatches, 1)
        self.assertEqual(wl.gate_probe(sym, (equiv[0], 2), ok).mismatches, 1)
        extra = copy.deepcopy(equiv)
        extra[0]["checks"].append({"id": "equivalence.new",
                                   "verdict": "fail"})
        self.assertEqual(wl.gate_probe(sym, extra, ok).mismatches, 1)
        missing = copy.deepcopy(sym)
        del missing[0]["checks"][0]
        self.assertEqual(wl.gate_probe(missing, equiv, ok).mismatches, 2)

    def test_curvature_gate(self):
        g = wl.gate_curvature([("a", False, True), ("a+", True, False)])
        self.assertEqual((g.attempted, g.mismatches, g.errors), (2, 0, 0))
        g = wl.gate_curvature([("a", False, False), ("a+", True, True),
                               ("b", False, None)])
        self.assertEqual((g.mismatches, g.errors), (2, 1))

    def test_real_verify_all_flipped_verdict_is_caught(self):
        from walkerkit import cli
        report, code = wl._cli_json(cli, ["verify", "--all", "--seed", "42"])
        self.assertEqual(wl.gate_verify(report, code).mismatches, 0)
        flipped = copy.deepcopy(report)
        target = next(c for c in flipped["checks"]
                      if c["id"] == "eq27.einstein")
        target["verdict"] = "fail"
        self.assertEqual(wl.gate_verify(flipped, code).mismatches, 1)


class InputTests(unittest.TestCase):
    SOLUTIONS = [("e1", "c1*x + c2", "c_1 + c12", "c"),
                 ("e2", "0", "0", "0")]

    def test_instantiate_replaces_only_constants(self):
        self.assertEqual(wl.instantiate("c1*c + c_1 + c12 + c9", {1: 4, 9: 2}),
                         "(4)*c + c_1 + c12 + (2)")

    def test_cases_are_seeded(self):
        a = wl.curvature_cases(self.SOLUTIONS, 5)
        self.assertEqual(a, wl.curvature_cases(self.SOLUTIONS, 5))
        self.assertNotEqual(a, wl.curvature_cases(self.SOLUTIONS, 6))
        self.assertEqual(len(a), 2 * wl.CURVATURE_DRAWS * 2)
        self.assertEqual([twin for _, twin, *_ in a[:2]], [False, True])
        self.assertTrue(a[1][2].startswith(f"({a[0][2]}) + "))

    def test_catalog_solutions_skip_the_honest_failure(self):
        from walkerkit import catalog
        ids = [s[0] for s in wl.catalog_solutions(catalog.builtin())]
        self.assertEqual(len(ids), 11)
        self.assertNotIn(wl.CURVATURE_SKIP, ids)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


class TracerTests(unittest.TestCase):
    def _module(self):
        mod = types.ModuleType("walkerkit._fake_for_test")

        def leaf(n):
            if n > 0:
                return mod.leaf(n - 1)
            return 0

        def top(n):
            return mod.leaf(n) + mod.leaf(n)

        def boom():
            raise ArithmeticError("guard")

        mod.leaf, mod.top, mod.boom = leaf, top, boom
        sys.modules[mod.__name__] = mod
        self.addCleanup(sys.modules.pop, mod.__name__)
        return mod

    def test_outermost_calls_and_self_time(self):
        mod = self._module()
        tr = tracing.Tracer("t", clock=FakeClock())
        tr.install([(mod.__name__, "leaf", "jets"),
                    (mod.__name__, "top", "geometry"),
                    (mod.__name__, "gone", "pis")])
        mod.top(3)
        leaf = tr.stats["jets:leaf"]
        top = tr.stats["geometry:top"]
        self.assertEqual((leaf.calls, top.calls), (2, 1))
        # Each span reads the clock twice; top covers its two children.
        self.assertEqual(top.total, 5.0)
        self.assertEqual(leaf.self_s + top.self_s, top.total)
        self.assertEqual(tr.missing, [f"{mod.__name__}.gone"])
        self.assertEqual([row[3] for row in tr.span_rows()], [-1, 0, 0])
        self.assertEqual(list(tr.span_start), [1.0, 2.0, 4.0])
        self.assertEqual(list(tr.span_end), [6.0, 3.0, 5.0])

    def test_exceptions_are_counted(self):
        mod = self._module()
        tr = tracing.Tracer("t", clock=FakeClock())
        tr.install([(mod.__name__, "boom", "expr.numeric")])
        with self.assertRaises(ArithmeticError):
            mod.boom()
        self.assertEqual(tr.stats["expr.numeric:boom"].raised,
                         {"ArithmeticError": 1})

    def test_layer_totals_group_nodes(self):
        self.assertEqual(tracing.layer_of("expr.nodes.build"), "expr.nodes")
        self.assertEqual(tracing.layer_of("liealg"), "liealg")


class CaseClockTests(unittest.TestCase):
    def test_speed_is_interpolated_between_marks(self):
        c = timing.CaseClock()
        c.marks = [(0.0, 1.0), (2.0, 3.0), (4.0, 3.0)]
        self.assertEqual(c.speed_at(-1.0), 1.0)
        self.assertEqual(c.speed_at(1.0), 2.0)
        self.assertEqual(c.speed_at(9.0), 3.0)
        self.assertAlmostEqual(c.mean_speed(), 2.5)

    def test_sampling_time_is_not_case_time(self):
        c = timing.CaseClock(clock=FakeClock())

        def work():
            c.probe_s += 0.5  # as if the timer fired during the case

        c.timed(work)()
        self.assertEqual(c.cases, [(1.0, 0.5)])
        c.marks = [(0.0, 0.25)]
        self.assertEqual(c.case_refs(), [2.0])

    def test_started_clock_samples(self):
        c = timing.CaseClock()
        c.start()
        try:
            timing.reference_loop(20_000)
        finally:
            c.stop()
        self.assertGreaterEqual(len(c.marks), 2)
        self.assertGreater(c.mean_speed(), 0.0)

    def test_missing_case_boundary_fails_loudly(self):
        mod = types.ModuleType("fake")
        with self.assertRaises(RuntimeError):
            wl.case_hook(mod, "_verify_entry", timing.CaseClock())


class StatisticsTests(unittest.TestCase):
    def test_tail_has_ten_beyond_per_repetition(self):
        reps = [{"case_refs": [float(v) for v in range(1, 21)]}
                for _ in range(3)]
        p50, tail, pct, n = run.case_quantiles(reps)
        self.assertEqual((p50, tail, pct, n), (10.5, 10.0, 50.0, 20))
        self.assertEqual(sum(v > tail for r in reps
                             for v in r["case_refs"]), 30)

    def test_tail_of_few_cases_is_the_median_slowest(self):
        reps = [{"case_refs": [1.0, 2.0, m]} for m in (3.0, 5.0, 9.0)]
        self.assertEqual(run.case_quantiles(reps)[1:], (5.0, 100.0, 3))

    def test_setup_is_the_median_ratio_to_the_import_reference(self):
        ref = timing.IMPORT_REF_S
        setups = [{"setup_s": s, "import_ref_s": r}
                  for s, r in ((0.3, ref), (0.4, 2 * ref), (0.1, ref))]
        reps = [{"case_refs": [1.0], "wall_s": 2.0, "ref_s": 0.5,
                 "rss_mb": 30.0}]
        metrics, detail = run.end_to_end(setups, reps)
        # Ratios to the import reference: 0.3, 0.2 and 0.1 seconds at the
        # reference host's speed.
        self.assertAlmostEqual(metrics["setup_s"][0], 0.2)
        self.assertEqual(metrics["wall_ref"], (4.0, "ref"))
        self.assertEqual(detail["setup_s_measured"], 0.3)

    def test_import_reference_leaves_loaded_modules_alone(self):
        before = set(sys.modules)
        self.assertGreater(timing.import_reference(), 0.0)
        self.assertFalse(any(n.startswith("_import_ref")
                             for n in set(sys.modules) - before))

    def test_spread(self):
        self.assertAlmostEqual(run.spread([1, 1, 1, 1]), 0.0)
        self.assertGreater(run.spread([1, 2, 3, 4, 5]), 0.5)

    def test_numpy_import_time_is_read(self):
        log = ("import time:       120 |        120 |   numpy.version\n"
               "import time:      2000 |     143274 | numpy\n")
        self.assertAlmostEqual(run.numpy_import_s(log), 0.143274)
        self.assertEqual(run.numpy_import_s(""), 0.0)

    def test_differing_counts_fail_the_run(self):
        rep = {"layers": {}, "functions": {"jets:f": {"calls": 3,
                                                      "self_s": 0.1}},
               "counters": {"exact": 1, "attempts": 2, "guards": 0,
                            "evals": 5, "probe_samples": 4},
               "missing": [], "spans": 1,
               "wall_s": 1.0, "ref_s": 0.1, "import_s": 0.1,
               "catalog_s": 0.0,
               "numpy_import_s": 0.0, "attempted": 1, "mismatches": 0,
               "errors": 0, "notes": []}
        other = copy.deepcopy(rep)
        _, detail = run.per_layer([rep], [rep, copy.deepcopy(rep)])
        self.assertTrue(detail["counts_identical"])
        other["functions"]["jets:f"]["calls"] = 4
        _, detail = run.per_layer([rep], [rep, other])
        self.assertEqual(detail["counts_differing"], ["jets:f"])


if __name__ == "__main__":
    unittest.main()
