import argparse
import dataclasses
import json
import os
import subprocess
import sys

import pytest

import walkerkit
from walkerkit import catalog
from walkerkit.cli import Report, _verify_entry, main


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--report", "json")
    return code, json.loads(out)


def test_brackets_text_table(capsys):
    code, out = run(capsys, "brackets")
    assert code == 0
    assert "X3 - X6 + 2*X7" in out
    assert "PASS brackets.jacobi" in out


def test_brackets_json_schema(capsys):
    code, doc = run_json(capsys, "brackets")
    assert code == 0
    assert doc["schema"] == "walker-report/1"
    assert doc["summary"] == {"pass": 3, "fail": 0, "total": 3}
    ids = [c["id"] for c in doc["checks"]]
    assert ids == sorted(ids)


def test_adjoint_exact_parameter(capsys):
    code, doc = run_json(capsys, "adjoint", "--gen", "3", "--s", "1/2")
    assert code == 0
    mat = doc["details"]["matrix"]
    assert mat[0][0] == "exp(-1/2)"
    assert mat[3][3] == "exp(1/2)"
    assert mat[1][1] == "1"


def test_adjoint_nilpotent_flow(capsys):
    # ad(X1) is nilpotent, entries stay polynomial in s
    code, doc = run_json(capsys, "adjoint", "--gen", "1", "--s", "2")
    assert code == 0
    flat = [e for row in doc["details"]["matrix"] for e in row]
    assert not any("exp" in e for e in flat)


def test_subalgebra_closed(capsys):
    code, out = run(capsys, "subalgebra", "--gens", "X1; X7",
                    "--check-closed")
    assert code == 0
    assert "PASS subalgebra.closed" in out


def test_subalgebra_not_closed(capsys):
    code, out = run(capsys, "subalgebra", "--gens", "X4, X5",
                    "--check-closed")
    assert code == 1
    assert "FAIL" in out


def test_symmetries_all_pass(capsys):
    code, doc = run_json(capsys, "symmetries", "--samples", "30")
    assert code == 0
    assert doc["summary"]["total"] == 7
    assert doc["summary"]["fail"] == 0


def test_einstein_flat(capsys):
    code, doc = run_json(capsys, "einstein", "--a", "0", "--b", "0",
                         "--c", "0")
    assert code == 0
    assert doc["details"]["ricci_zero"] == "yes"
    assert all(c["verdict"] == "pass" for c in doc["checks"])


def test_einstein_catalog_entry(capsys):
    code, doc = run_json(capsys, "einstein", "--entry", "eq27")
    assert code == 0
    assert doc["summary"] == {"pass": 10, "fail": 0, "total": 10}


def test_einstein_negative(capsys):
    code, doc = run_json(capsys, "einstein", "--a", "x^2*t", "--b", "0",
                         "--c", "0")
    assert code == 1
    assert doc["summary"]["fail"] >= 1


def test_einstein_overflowing_power(capsys):
    # x^3998 overflows a float for x above about 1.19; those samples are
    # drawn again, and the rest give a verdict with a finite witness
    code, doc = run_json(capsys, "einstein", "--a", "x^4000", "--b", "0",
                         "--c", "0")
    assert code == 1
    failed = {c["id"] for c in doc["checks"] if c["verdict"] == "fail"}
    assert failed == {"einstein.xy", "einstein.tz", "einstein.yy"}
    assert doc["details"] == {"einstein": "no", "ricci_zero": "no"}


def test_verify_entry_family(capsys):
    code, doc = run_json(capsys, "verify", "--entry", "eq25.family1")
    assert code == 0
    ids = {c["id"] for c in doc["checks"]}
    assert "eq25.family1.reduction" in ids
    assert "eq25.family1.profile" in ids
    assert "eq25.family1.defect" in ids


def test_verify_entry_subalgebra_only(capsys):
    code, doc = run_json(capsys, "verify", "--entry", "thm32.A1_1")
    assert code == 0
    assert doc["checks"][0]["id"] == "thm32.A1_1.closure"


def test_verify_symbolic_mode(capsys):
    code, doc = run_json(capsys, "verify", "--entry", "eq25.family1",
                         "--mode", "symbolic")
    assert code == 0


def test_defect_command(capsys):
    code, doc = run_json(capsys, "defect", "--entry", "eq25.family4")
    assert code == 0
    assert doc["checks"][0]["witness"] == "delta=1"


def test_reducibility_flags_direction(capsys):
    code, doc = run_json(capsys, "reducibility", "--entry",
                         "eq25.family1")
    assert code == 0
    assert "(1:0)" in doc["checks"][0]["witness"]
    assert "flagged" in doc["checks"][0]["witness"]


def test_equivalence_probe(capsys):
    code, doc = run_json(capsys, "equivalence-probe", "--samples", "40")
    assert code == 0
    assert doc["summary"]["total"] == 3


def test_emit_metric_latex(capsys):
    code, out = run(capsys, "emit-metric", "--entry", "eq27")
    assert code == 0
    assert out.startswith("ds^2 = 2\\,dx\\,dy + 2\\,dt\\,dz")


def test_emit_metric_json(capsys):
    code, out = run(capsys, "emit-metric", "--entry", "eq27",
                    "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["matrix"][0][2] == "1"
    assert doc["matrix"][2][2] != "0"


def test_json_reports_byte_identical(capsys):
    _, first = run(capsys, "verify", "--entry", "table1.row3", "--seed",
                   "42", "--report", "json")
    _, second = run(capsys, "verify", "--entry", "table1.row3", "--seed",
                    "42", "--report", "json")
    assert first == second


def test_seed_changes_witnesses(capsys):
    _, a = run(capsys, "verify", "--entry", "eq26.family3", "--seed",
               "1", "--report", "json")
    _, b = run(capsys, "verify", "--entry", "eq26.family3", "--seed",
               "2", "--report", "json")
    assert a != b


def test_usage_errors_exit_two(capsys):
    # (argv, a fragment of the one-line message); a bad flag value names
    # its flag
    for argv, says in (
        (["verify", "--entry", "no.such.entry"], "no.such.entry"),
        (["einstein"], "--entry ID"),
        (["adjoint", "--gen", "0", "--s", "1"], "--gen must be"),
        (["defect", "--entry", "thm31.1"], "thm31.1"),
        # malformed expressions and values on the command line
        (["einstein", "--a", "x+", "--b", "0", "--c", "0"], "argument --a:"),
        (["einstein", "--a", "(" * 3000 + "x" + ")" * 3000, "--b", "0",
          "--c", "0"], "argument --a: nesting deeper"),
        (["einstein", "--a", "0", "--b", "1" * 5000, "--c", "0"],
         "argument --b: integer literal larger"),
        (["einstein", "--a", "x^(3^2000)", "--b", "0", "--c", "0"],
         "argument --a: exponent above"),
        # a constant beyond float range cannot be evaluated
        (["einstein", "--a", "2^4000*x^3", "--b", "0", "--c", "0"],
         "beyond float range"),
        # a power that overflows a float at every sample
        (["einstein", "--a", "exp(x)^4000", "--b", "0", "--c", "0"],
         "cannot evaluate the metric: could not find an admissible"),
        (["subalgebra", "--gens", "X1*X2"], "argument --gens:"),
        (["adjoint", "--gen", "1", "--s", "abc"], "argument --s:"),
        # the flow parameter is exact only
        (["adjoint", "--gen", "1", "--s", "inf"], "argument --s:"),
        (["adjoint", "--gen", "1", "--s", "nan"], "argument --s:"),
        (["adjoint", "--gen", "1", "--s", "1/0"],
         "argument --s: division by zero in '1/0'"),
        # no check may pass on zero samples or a non-finite tolerance
        (["symmetries", "--samples", "0"], "argument --samples:"),
        (["einstein", "--entry", "eq27", "--samples", "0"],
         "argument --samples:"),
        (["verify", "--entry", "eq27", "--samples", "0"],
         "argument --samples:"),
        (["symmetries", "--tol", "nan"], "argument --tol:"),
        (["symmetries", "--tol", "inf"], "argument --tol:"),
        (["symmetries", "--tol", "0"], "argument --tol:"),
        # closure is checked for one or two generators only
        (["subalgebra", "--gens", "X1;X2;X3", "--check-closed"],
         "--check-closed"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert "error: " in last and says in last, (argv, last)


def test_subcommands_share_the_suite_checks(capsys):
    # verify --all and the two subcommands run one implementation of the
    # symmetry and equivalence checks, so verdicts and witnesses agree
    _, suite = run_json(capsys, "verify", "--all", "--seed", "42")
    by_id = {c["id"]: c for c in suite["checks"]}
    for command in ("symmetries", "equivalence-probe"):
        _, doc = run_json(capsys, command, "--seed", "42")
        for check in doc["checks"]:
            assert by_id[check["id"]] == check


def test_entry_data_not_id_selects_checks():
    def suffixes(entry):
        rep = Report("verify", 42, 100, 1e-9)
        ctx = argparse.Namespace(seed=42, samples=100, tol=1e-9,
                                 mode="auto")
        _verify_entry(entry, ctx, rep)
        return sorted(c.id[len(entry.id):] for c in rep.checks)

    family = catalog.builtin_map()["eq25.family2"]
    expected = suffixes(family)
    assert {".profile", ".defect", ".reducibility"} <= set(expected)
    assert suffixes(dataclasses.replace(family, id="copy")) == expected


def test_defect_runs_without_numpy():
    # a None entry in sys.modules makes any `import numpy` fail
    src = os.path.dirname(os.path.dirname(walkerkit.__file__))
    code = ("import sys; sys.modules['numpy'] = None; "
            "from walkerkit.cli import main; "
            "sys.exit(main(['defect', '--entry', 'eq25.family1']))")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "PASS eq25.family1.defect" in proc.stdout


def test_expected_failure_is_honest(capsys):
    # one shipped one-parameter family does not satisfy the source
    # system generically; the report must say so rather than pass it
    code, doc = run_json(capsys, "verify", "--entry", "eq26.family3")
    assert code == 1
    failed = [c for c in doc["checks"] if c["verdict"] == "fail"]
    assert len(failed) == 1
    assert failed[0]["id"] == "eq26.family3.solution"
    assert "nonzero" in failed[0]["witness"]
