import json
import os
import re
import subprocess
import sys
import time

import pytest

import walkerkit
from walkerkit import catalog
from walkerkit.cli import Report, _check_reduction, _verify_entry, main
from walkerkit.expr import NONZERO


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
    assert "PASS algebra.jacobi" in out


def test_brackets_json_schema(capsys):
    code, doc = run_json(capsys, "brackets")
    assert code == 0
    assert doc["schema"] == "walker-report/2"
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


def test_adjoint_decimal_parameter_is_an_exact_rational(capsys):
    _, half = run_json(capsys, "adjoint", "--gen", "3", "--s", "1/2")
    _, decimal = run_json(capsys, "adjoint", "--gen", "3", "--s", "0.5")
    assert decimal["details"]["matrix"] == half["details"]["matrix"]
    _, zero = run_json(capsys, "adjoint", "--gen", "3", "--s", "0")
    assert zero["details"]["matrix"] == [
        ["1" if a == b else "0" for b in range(7)] for a in range(7)]


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
    assert "PASS subalgebra.closure" in out


def test_subalgebra_not_closed(capsys):
    code, out = run(capsys, "subalgebra", "--gens", "X4, X5",
                    "--check-closed")
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("gens", ["X1; X1", "X1; 2*X1",
                                  "X3 + alpha*X6; 2*X3 + 2*alpha*X6"])
def test_subalgebra_dependent_pair_fails(capsys, gens):
    # a vanishing bracket does not make a dependent pair two-dimensional
    code, out = run(capsys, "subalgebra", "--gens", gens, "--check-closed")
    assert code == 1
    lines = [ln for ln in out.splitlines()
             if ln.startswith(("PASS", "FAIL"))]
    assert len(lines) == 2
    for line in lines:
        assert line.startswith("FAIL")
        assert "generators not independent" in line


@pytest.mark.parametrize("gens", ["0*X1", "X1 - X1"])
def test_subalgebra_zero_generator_fails(capsys, gens):
    code, out = run(capsys, "subalgebra", "--gens", gens, "--check-closed")
    assert code == 1
    lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert lines == [f"FAIL subalgebra.{c}  [generator is zero, no pivot]"
                     for c in ("case1", "closure")]


def test_subalgebra_single_generator_splits_epz(capsys):
    # at epz = 0 the generator epz*X1 is zero
    code, out = run(capsys, "subalgebra", "--gens", "epz*X1",
                    "--check-closed")
    assert code == 1
    lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert lines == [
        "PASS subalgebra.case1  [epz=-1 lambda=0 mu=0]",
        "FAIL subalgebra.case2  [epz=0 generator is zero, no pivot]",
        "PASS subalgebra.case3  [epz=1 lambda=0 mu=0]",
        "FAIL subalgebra.closure  [generator is zero, no pivot]",
    ]
    code, out = run(capsys, "subalgebra", "--gens", "X1 + epz*X2",
                    "--check-closed")
    assert code == 0
    assert "PASS subalgebra.closure  [single generator]" in out


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
    assert "entry" not in doc["details"]
    assert all(c["verdict"] == "pass" for c in doc["checks"])


def test_einstein_catalog_entry(capsys):
    code, doc = run_json(capsys, "einstein", "--entry", "eq27")
    assert code == 0
    assert doc["summary"] == {"pass": 10, "fail": 0, "total": 10}
    assert doc["details"]["entry"] == "eq27"


def test_einstein_reports_name_their_entry(capsys):
    # both metrics are Einstein with the same ten verdicts; only the
    # entry tells the two reports apart
    _, row2 = run(capsys, "einstein", "--entry", "table1.row2",
                  "--report", "json")
    _, row4 = run(capsys, "einstein", "--entry", "table1.row4",
                  "--report", "json")
    assert row2 != row4
    assert row2.replace('"table1.row2"', '"table1.row4"') == row4


def test_einstein_negative(capsys):
    code, doc = run_json(capsys, "einstein", "--a", "x^2*t", "--b", "0",
                         "--c", "0")
    assert code == 1
    assert doc["summary"]["fail"] >= 1


def test_einstein_report_of_a_metric_that_is_not_einstein(capsys):
    # each residual is scaled by the largest monomial of its component:
    # E_ty = 1/2*a_12 is the one monomial x, so its residual is 1
    code, doc = run_json(capsys, "einstein", "--a", "x^2*t", "--b", "0",
                         "--c", "0")
    assert code == 1
    assert doc["details"] == {"einstein": "no", "ricci_zero": "no"}
    exact = "zero (exact cancellation)"
    assert {c["id"]: (c["verdict"], c["witness"]) for c in doc["checks"]} \
        == {
        "einstein.tt": ("pass", exact),
        "einstein.ty": ("fail", "nonzero (residual 1.000e+00 at "
                                "{'x': 1.4591401976868257})"),
        "einstein.tz": ("fail", "nonzero (residual 7.296e-01 at "
                                "{'t': 1.4591401976868257})"),
        "einstein.xt": ("pass", exact),
        "einstein.xx": ("pass", exact),
        "einstein.xy": ("fail", "nonzero (residual 7.296e-01 at "
                                "{'t': 1.4591401976868257})"),
        "einstein.xz": ("pass", exact),
        "einstein.yy": ("fail", "nonzero (residual 3.076e-01 at "
                                "{'t': 1.4591401976868257, "
                                "'x': 0.5375161328340003})"),
        "einstein.yz": ("pass", exact),
        "einstein.zz": ("pass", exact),
    }


def test_einstein_fails_a_metric_whose_components_are_small(capsys):
    # E_xy = a_11/4 = y/(2*10^12) is below --tol at every sample, yet its
    # expansion is a nonzero polynomial in x and y: the ring proves it
    # nonzero and the probe only finds the witness
    code, doc = run_json(capsys, "einstein", "--a", "x^2*y/10^12", "--b",
                         "0", "--c", "0")
    assert code == 1
    assert doc["details"]["einstein"] == "no"
    verdicts = {c["id"]: c["verdict"] for c in doc["checks"]}
    assert {k for k, v in verdicts.items() if v == "fail"} == {
        "einstein.xy", "einstein.tz", "einstein.yy"}
    assert all(c["witness"].startswith("nonzero (residual ")
               for c in doc["checks"] if c["verdict"] == "fail")


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


def test_solution_witness_counts_exact_verdicts(capsys):
    code, doc = run_json(capsys, "verify", "--entry", "table1.row2")
    assert code == 0
    witness = {c["id"]: c["witness"] for c in doc["checks"]}
    # sqrt(3) occurs in this entry: its whole powers fold, so all six
    # residuals cancel exactly
    assert witness["table1.row2.solution"] == "6 residuals zero (6 exact)"


def test_einstein_probes_at_the_requested_samples(monkeypatch, capsys):
    # the Ricci and Einstein components of a metric that is not Einstein
    # are probed at --samples, like every other zero test
    from walkerkit.expr import numeric

    asked = []
    probe = numeric.probe_zero

    def spying(e, **kw):
        asked.append(kw["samples"])
        return probe(e, **kw)

    monkeypatch.setattr(numeric, "probe_zero", spying)
    code, doc = run_json(capsys, "einstein", "--a", "x^3", "--b", "t^2",
                         "--c", "x", "--samples", "40")
    assert code == 1
    assert doc["details"]["ricci_zero"] == "no"
    assert asked and set(asked) == {40}


def test_einstein_substitutes_the_metric_once(monkeypatch, capsys):
    from walkerkit.expr import nodes
    from walkerkit.geometry import curvature_tables

    curvature_tables()
    calls = []
    real = nodes.diff

    def counting(e, v):
        calls.append((e, v))
        return real(e, v)

    monkeypatch.setattr(nodes, "diff", counting)
    code, doc = run_json(capsys, "einstein", "--entry", "table1.row4")
    assert code == 0
    # Ricci and Einstein share one memo: each derivative of a, b and c
    # is taken once (substituting them separately took 46 steps), and
    # none along y or z, which the (x, t) metric does not hold
    assert len(calls) == len(set(calls)) == 12
    assert {v for _, v in calls} == {"x", "t"}
    assert doc["details"]["einstein"] == "yes"


def test_defect_command(monkeypatch, capsys):
    code, doc = run_json(capsys, "defect", "--entry", "eq25.family4")
    assert code == 0
    assert doc["checks"][0]["witness"] == "delta=1"
    # defect --entry runs verify's check: a copy of eq25.family1 whose
    # ansatz binds every coordinate expects delta = 0, and its solution
    # has delta = 1
    family = catalog.builtin_map()["eq25.family1"]
    bound = family._replace(ansatz=tuple(
        (name, text) for name, text in family.ansatz if name != text))
    assert not bound.pis_ansatz().arbitrary
    monkeypatch.setattr(catalog, "builtin_map", lambda: {family.id: bound})
    code, doc = run_json(capsys, "defect", "--entry", family.id)
    assert code == 1
    assert doc["checks"] == [{"id": "eq25.family1.defect",
                              "verdict": "fail", "witness": "delta=1"}]


def test_reports_share_no_list():
    first, second = (Report("verify", 42, 100, 1e-9) for _ in range(2))
    first.add("x.closure", True)
    first.details["generators"] = ["X1"]
    assert second.checks == [] and second.details == {}


def _reduction_check(entry):
    rep = Report("verify", 42, 100, 1e-9)
    _check_reduction(entry, rep)
    (check,) = rep.checks
    return check.verdict, check.witness


def test_failing_reduction_names_its_residual():
    family = catalog.builtin_map()["eq25.family1"]
    reduced = family.reduced
    assert _reduction_check(family) == ("pass", "6 reduced residuals, exact")
    bumped = family._replace(reduced=(f"({reduced[0]}) + f",) + reduced[1:])
    assert _reduction_check(bumped) == (
        "fail", "reduced residual 1 differs from the derived one")
    short = family._replace(reduced=reduced[:-1])
    assert _reduction_check(short) == (
        "fail", "5 reduced residuals shipped, 6 derived")


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
        # a superscript two is a digit to str.isdigit() but not to int()
        (["einstein", "--a", "\u00b2", "--b", "0", "--c", "0"],
         "argument --a: unexpected character"),
        # a constant beyond float range cannot be evaluated
        (["einstein", "--a", "2^4000*x^3", "--b", "0", "--c", "0"],
         "beyond float range"),
        # a power that overflows a float at every sample
        (["einstein", "--a", "exp(x)^4000", "--b", "0", "--c", "0"],
         "cannot evaluate the metric: could not find an admissible"),
        # an exact constant at or below zero has no real logarithm, so
        # the text fails where it is parsed
        (["einstein", "--a", "ln(0)", "--b", "0", "--c", "0"],
         "argument --a: logarithm of the non-positive constant 0"),
        (["einstein", "--a", "ln(x-x)", "--b", "0", "--c", "0"],
         "argument --a: logarithm of the non-positive constant 0"),
        (["einstein", "--a", "0", "--b", "ln(1-1)", "--c", "0"],
         "argument --b: logarithm of the non-positive constant 0"),
        (["einstein", "--a", "ln(-2)*x", "--b", "0", "--c", "0"],
         "argument --a: logarithm of the non-positive constant -2"),
        (["subalgebra", "--gens", "X1*X2"], "argument --gens:"),
        # a coefficient is a constant; closure would take x as one
        (["subalgebra", "--gens", "X1; x*X2", "--check-closed"],
         "argument --gens: 'x*X2' has a coordinate"),
        (["adjoint", "--gen", "1", "--s", "abc"], "argument --s:"),
        # the flow parameter is exact only
        (["adjoint", "--gen", "1", "--s", "inf"], "argument --s:"),
        (["adjoint", "--gen", "1", "--s", "nan"], "argument --s:"),
        (["adjoint", "--gen", "1", "--s", "1/0"],
         "argument --s: division by zero in '1/0'"),
        # a flow parameter past MAX_POWER_BITS is refused from its text,
        # before it is built or rendered
        (["adjoint", "--gen", "4", "--s", "1e2500"],
         "argument --s: more than 1365 digits"),
        (["adjoint", "--gen", "7", "--s", "1e9999999"],
         "argument --s: more than 1365 digits"),
        # each literal power is in bounds, their product too long to render
        (["subalgebra", "--gens", "2^4000*2^4000*2^4000*2^4000*X1"],
         "cannot render a constant"),
        # no check may pass on zero samples or a non-finite tolerance
        (["symmetries", "--samples", "0"], "argument --samples:"),
        (["einstein", "--entry", "eq27", "--samples", "0"],
         "argument --samples:"),
        (["verify", "--entry", "eq27", "--samples", "0"],
         "argument --samples:"),
        (["symmetries", "--tol", "nan"], "argument --tol:"),
        (["symmetries", "--tol", "inf"], "argument --tol:"),
        (["symmetries", "--tol", "0"], "argument --tol:"),
        # every zero test tries exact cancellation first; no flag picks
        # another test
        (["verify", "--entry", "eq25.family1", "--mode", "symbolic"],
         "unrecognized arguments: --mode"),
        # closure is checked for one or two generators only
        (["subalgebra", "--gens", "X1;X2;X3", "--check-closed"],
         "--check-closed"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert "error: " in last and says in last, (argv, last)
    # building 10^9999999 alone took seconds
    start = time.monotonic()
    with pytest.raises(SystemExit):
        main(["adjoint", "--gen", "7", "--s", "1e9999999"])
    assert time.monotonic() - start < 1


def test_subcommands_share_the_suite_checks(capsys):
    # verify --all and the subcommands run one implementation of the
    # table, symmetry and equivalence checks, so ids, verdicts and
    # witnesses agree
    _, suite = run_json(capsys, "verify", "--all", "--seed", "42")
    by_id = {c["id"]: c for c in suite["checks"]}
    for command in ("brackets", "symmetries", "equivalence-probe"):
        _, doc = run_json(capsys, command, "--seed", "42")
        for check in doc["checks"]:
            assert by_id[check["id"]] == check


def test_entry_data_not_id_selects_checks():
    def suffixes(entry):
        rep = Report("verify", 42, 100, 1e-9)
        _verify_entry(entry, rep)
        return sorted(c.id[len(entry.id):] for c in rep.checks)

    family = catalog.builtin_map()["eq25.family2"]
    expected = suffixes(family)
    assert {".profile", ".defect", ".reducibility"} <= set(expected)
    assert suffixes(family._replace(id="copy")) == expected
    # the Einstein check follows the entry's ``checks`` field
    eq27 = catalog.builtin_map()["eq27"]
    assert ".einstein" in suffixes(eq27._replace(id="copy"))
    assert ".einstein" not in suffixes(eq27._replace(checks=()))
    assert ".einstein" in suffixes(family._replace(checks=("einstein",)))


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


# The byte oracle: the full JSON report of verify --all at seed 42. Python
# 3.12 and later sum floats with compensation and print other last
# digits in a few witnesses, so only 3.10 and 3.11 are pinned.
VERIFY_ALL_SEED42_SHA256 = (
    "8f44ff0b99faa3c68e3d70994882959e67d8893a9c5b3b90e0add2f91407fcfa")


@pytest.mark.skipif(sys.version_info[:2] not in ((3, 10), (3, 11)),
                    reason="the oracle bytes are pinned for Python 3.10/3.11")
def test_verify_all_byte_oracle(capsys):
    import hashlib

    code, out = run(capsys, "verify", "--all", "--seed", "42",
                    "--report", "json")
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == \
        VERIFY_ALL_SEED42_SHA256


def test_readme_quotes_the_pinned_oracle():
    readme = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = " ".join(fh.read().split())  # joins the wrapped lines
    quoted = re.findall(r"sha256 `([0-9a-f]{8})…([0-9a-f]{4})` for "
                        r"`verify --all --seed 42 --report json`", text)
    digest = VERIFY_ALL_SEED42_SHA256
    assert quoted == [(digest[:8], digest[-4:])]


def test_verify_all_makes_no_numeric_zero_verdict(monkeypatch, capsys):
    # every zero that verify --all finds cancels exactly; the float probe
    # only ever finds nonzero residuals
    from walkerkit.expr import numeric

    verdicts = []
    probe = numeric.probe_zero

    def counting(e, **kw):
        res = probe(e, **kw)
        verdicts.append(res.verdict)
        return res

    monkeypatch.setattr(numeric, "probe_zero", counting)
    code, _ = run(capsys, "verify", "--all", "--seed", "42")
    assert code == 1
    assert verdicts and set(verdicts) == {NONZERO}


BRACKETS_SHA256 = (
    "41a3caa41ba8fd7a4bf59029d17f9a80d3512716ef23c2cb57e586b3b9edc4fc")
ADJOINT_THIRD_SHA256 = {
    1: "9bfdc84e03493b45b59ff0deb80d3297f1cac6b47785d5cea6d70e9a4f1d9b68",
    2: "2d8e5437e1bd7be981335535cc279e512533b5140ea34d79fe1f6fec676eedd8",
    3: "bc5511e0f5eb99c0465482c207d9093c0576ebe000e14e9e5fe0852b743802d8",
    4: "0f5aced565625f361e1df2b7f0a62fa2e15365fcdc1b49ccc08707cb154d7dd6",
    5: "a694cb1bbb8b5e52bee3230aa5a573a1dd9df69e994273212992537e16878465",
    6: "524cce0e988c2a1ce936d87e840e8756c9f04288075285bf125547e7cc87c8c5",
    7: "18c285074c73816eea3febf5be085097d65f07064105775a2a650c8c08137aed",
}


def test_exact_algebra_reports_are_byte_stable(capsys):
    import hashlib

    def digest(*argv):
        code, out = run(capsys, *argv, "--report", "json")
        assert code == 0
        return hashlib.sha256(out.encode()).hexdigest()

    assert digest("brackets") == BRACKETS_SHA256
    for i, want in ADJOINT_THIRD_SHA256.items():
        assert digest("adjoint", "--gen", str(i), "--s", "1/3") == want, i


# Reports the shared derivatives must leave byte-identical, with
# --report json. The symmetries and equivalence-probe digests were
# captured when those checks became exact; the subalgebra digest when
# --check-closed came to report verify's closure check.
SHARED_DERIVATIVE_SHA256 = {
    ("symmetries",):
        "fb0f8adfed99e32892aef34f4437b796c3dbaeff60fbe735cc574393abee2931",
    ("symmetries", "--samples", "300", "--seed", "3"):
        "8a974775f8ae06e74d3df590d03bca421c07f0b7c31e09fcee13f6719cfd59d8",
    ("equivalence-probe",):
        "4284b8c8c291c116e67e5349059327b0fc4d81ef0aed555d73dee42d27175071",
    ("subalgebra", "--gens", "X3+eps*X4;eps*X5+X6-2*X7", "--check-closed"):
        "22fa8deafa7cbd3549e9f556e45e9682d6d0a58227e7ca9e4cf4fd974fde8aac",
}


@pytest.mark.skipif(sys.version_info[:2] not in ((3, 10), (3, 11)),
                    reason="the oracle bytes are pinned for Python 3.10/3.11")
def test_shared_derivative_reports_are_byte_stable(capsys):
    import hashlib

    for argv, want in SHARED_DERIVATIVE_SHA256.items():
        _, out = run(capsys, *argv, "--report", "json")
        assert hashlib.sha256(out.encode()).hexdigest() == want, argv


# einstein --entry reports, each naming its entry.
EINSTEIN_ENTRY_SHA256 = {
    "eq25.family1":
        "d50475f4c03d7845bd18d9379b2604736953f67d6151df691506833aecedee75",
    "eq25.family2":
        "14f38fda2c6a5af955a41701c87543b07d9b9294807e61edf30e9060bd6b26fd",
    "eq25.family3":
        "1be83940ebea88340ac135389a81129c4a9884cb58e239f7101d824dadba20f0",
    "eq25.family4":
        "ca7b864681ae0a7de1234f490110862fe2eff71a3a44c3b6dbf663fdb7532449",
    "eq26.family1":
        "e05a7071c9b172a541e240b16c465244b71cea287ee30be0ab224f6345300fe5",
    "eq26.family2":
        "036877a3518cd866d2b312918c943af8284e537272d087fe5781fbe1ca023eeb",
    "eq26.family3":
        "04743d398f81a57d39f717dec66f648032f591f2ae48a3f920c842cfa1ab6631",
    "table1.row1":
        "635be7efcd453c167f545af5184dfcd9db4cdca806a4932c54b150909e24de44",
    "table1.row2":
        "95fe2d5852ef81b4511b57db89108632e0b7248ab1f2fe0b8d750b6d99d9e704",
    "table1.row3":
        "a798084d2a946862f99c8e721ef5482c828c979b4368c6109c4e1007f914a288",
    "table1.row4":
        "b9617b5445e283199c15ffc29a0db276bfe220722af4ae8bb92b5a865af10b12",
    "eq27":
        "5b9b9b5af4bc44ed07df68c169a1e50f66847f4243c6f16be93aa46e3de60efe",
}


@pytest.mark.skipif(sys.version_info[:2] not in ((3, 10), (3, 11)),
                    reason="the oracle bytes are pinned for Python 3.10/3.11")
def test_einstein_entry_reports_are_byte_stable(capsys):
    import hashlib

    with_solutions = [e.id for e in catalog.builtin() if e.solutions]
    assert sorted(with_solutions) == sorted(EINSTEIN_ENTRY_SHA256)
    for eid, want in EINSTEIN_ENTRY_SHA256.items():
        _, out = run(capsys, "einstein", "--entry", eid, "--report", "json")
        assert hashlib.sha256(out.encode()).hexdigest() == want, eid


# defect and reducibility --entry reports of each two-generator entry
# with solutions, and closure reports of a pair with epz, of pairs
# without it, of a dependent pair and of a single generator.
SPAN_REPORT_SHA256 = {
    ("defect", "--entry", "eq25.family1"):
        "24dbcaf838ce205c778ce041e671df812ddbbd16d4987cc3720d7db211fe8028",
    ("defect", "--entry", "eq25.family2"):
        "1c8a9358364b21a67fa9e66513613b965e7c91adf3b22df79a6ff288204482bb",
    ("defect", "--entry", "eq25.family3"):
        "51b34d1997a771ed1043ed24707ec1da41a1f6761e4ee9a4e4b7c80cdc31873b",
    ("defect", "--entry", "eq25.family4"):
        "b662b7d422f4dac33ed0458ec2fa145d99ab43e98f3d5db665bd596b1f4d5171",
    ("defect", "--entry", "eq27"):
        "0959fcc63fdb757c0e836a30fe3b15071af9f3bd87b9270f508180614316b5cc",
    ("defect", "--entry", "table1.row1"):
        "8be96addba0a0fc50451c387cde546937b9573e4aeb1a904a34bf0397cad18f7",
    ("defect", "--entry", "table1.row2"):
        "a7d6eb06e200ef5405719228d817e7aebd050d3b64463df7790374d8e2a09afd",
    ("defect", "--entry", "table1.row3"):
        "101547a67b99eb7dc88f59b7a9ade236b3c1fa581151e14639f33bdcb6c0a0b8",
    ("defect", "--entry", "table1.row4"):
        "e301a5974b1996ef3aa38c3cc4f4fc5f1673266c3f802fafd02fbff6347881a9",
    ("reducibility", "--entry", "eq25.family1"):
        "c1ccb635a9dea6d49197c0dfb152b3a955ca940ce0b0c2e3ffee36fe2d639770",
    ("reducibility", "--entry", "eq25.family2"):
        "627835a047121716a32ee0fc790d76e5f6efd72f1f4f8c6d94fca1a3ed399215",
    ("reducibility", "--entry", "eq25.family3"):
        "d9209e8bcb4e3ebe6faa7ddf0a0a2a2e27c94ac3f7287a0e9acc7bc4e92289ee",
    ("reducibility", "--entry", "eq25.family4"):
        "1c1808a244797ae12d79780baf33e3106ac518bc874e0eb1d963c803cee7ea81",
    ("reducibility", "--entry", "eq27"):
        "8bec722ae652cc4fe797a1a85656973533f195203a264d1b191bf0502a9546a1",
    ("reducibility", "--entry", "table1.row1"):
        "a5f501fbd0e20679da458101fc1125da824b8d901ed80015384084742f09ab37",
    ("reducibility", "--entry", "table1.row2"):
        "0e88298ff68cf834159127caa7eb949e0f635244a9861011f5b827c848c2610d",
    ("reducibility", "--entry", "table1.row3"):
        "4ad75205d810105635a18a9b0044f31e5c5dfa94de60ef9fdd2c0056f297e462",
    ("reducibility", "--entry", "table1.row4"):
        "e18eac44cf6564464ced47641a4087c81fb97a412cc660319f4f872b1005448c",
    ("subalgebra", "--gens", "X1; X3 + epz*X5 + X6 + alpha*X7",
     "--check-closed"):
        "da15408c829070b71a73666aff0aa5199fceebe52b36a35066d7518f59dfe993",
    ("subalgebra", "--gens", "X4", "--check-closed"):
        "7fc28cd006851ee7580657324d3842ed1045771f80c703ef307ee29ebba0708e",
    ("subalgebra", "--gens", "X1; X7", "--check-closed"):
        "038db73e2ccf36c79351e5bc1b3d519e69d754f77572bf9213105eeaf3cd8785",
    ("subalgebra", "--gens", "X1; X1", "--check-closed"):
        "35de0eb964bb489b415281abeb8ea5d83965e2cfc71231f856a32ab44fe107f7",
}


@pytest.mark.skipif(sys.version_info[:2] not in ((3, 10), (3, 11)),
                    reason="the oracle bytes are pinned for Python 3.10/3.11")
def test_span_reports_are_byte_stable(capsys):
    import hashlib

    pairs = {e.id for e in catalog.builtin()
             if e.solutions and len(e.generators) == 2}
    for cmd in ("defect", "reducibility"):
        assert {argv[2] for argv in SPAN_REPORT_SHA256
                if argv[0] == cmd} == pairs, cmd
    for argv, want in SPAN_REPORT_SHA256.items():
        _, out = run(capsys, *argv, "--report", "json")
        assert hashlib.sha256(out.encode()).hexdigest() == want, argv


def test_verify_all_parses_each_generator_text_once(monkeypatch, capsys):
    from walkerkit import liealg

    texts = {g for e in catalog.builtin() for g in e.generators}
    liealg.parse_generator.cache_clear()
    parsed = []
    real = liealg.parse

    def counting(text, **kwargs):
        if "X1" in kwargs.get("extra_params", ()):  # a generator text
            parsed.append(text)
        return real(text, **kwargs)

    monkeypatch.setattr(liealg, "parse", counting)
    code, _ = run(capsys, "verify", "--all", "--seed", "1",
                  "--report", "json")
    assert code == 1
    # the catalog's checks re-read each entry's generators many times
    assert sorted(parsed) == sorted(texts)


# sha256 over the concatenated `subalgebra --check-closed --report json`
# bytes of every two-generator catalog entry, in catalog order: it pins
# the lambda and mu witnesses, which the verify oracle does not print.
CATALOG_PAIRS_CLOSURE_SHA256 = (
    "2e4a16ab7beb73104f5e535952143a77a5a55b354ae20932efca14df356e47a4")


@pytest.mark.skipif(sys.version_info[:2] not in ((3, 10), (3, 11)),
                    reason="the oracle bytes are pinned for Python 3.10/3.11")
def test_catalog_pair_closure_witnesses_are_byte_stable(capsys):
    import hashlib

    pairs = [e for e in catalog.builtin() if len(e.generators) == 2]
    assert len(pairs) == 63
    digest = hashlib.sha256()
    for e in pairs:
        code, out = run(capsys, "subalgebra", "--gens",
                        "; ".join(e.generators), "--check-closed",
                        "--report", "json")
        assert code == 0, e.id
        digest.update(out.encode())
    assert digest.hexdigest() == CATALOG_PAIRS_CLOSURE_SHA256


def test_closure_cases_agree_with_the_closure_check(capsys):
    texts = ["; ".join(e.generators) for e in catalog.builtin()
             if len(e.generators) == 2]
    texts += ["X1; X4", "X4, X5", "X1; X1", "X1; X3 + epz*X4"]
    for gens in texts:
        code, doc = run_json(capsys, "subalgebra", "--gens", gens,
                             "--check-closed")
        ok = {c["id"]: c["verdict"] == "pass" for c in doc["checks"]}
        cases = [v for cid, v in ok.items()
                 if cid.startswith("subalgebra.case")]
        assert cases, gens
        assert ok["subalgebra.closure"] == all(cases), gens
        assert code == (0 if all(cases) else 1), gens
