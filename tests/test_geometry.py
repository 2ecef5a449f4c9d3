"""Curvature layer.

The independent oracle here contracts the full Riemann tensor
R^r_{s m n} = d_m G^r_{n s} - d_n G^r_{m s} + G^r_{m l}G^l_{n s}
            - G^r_{n l}G^l_{m s},  Ric_{s n} = sum_r R^r_{s r n},
which shares only the Christoffel input with the production path.
"""

import json
import random
from fractions import Fraction

import pytest

from walkerkit.expr import (
    ALL_DEPS, NONZERO, ZERO, ZERO_SYMBOLIC, Atan, Coord, ExpF, Func, Ln, Num,
    Param, Pow, Prod, Sum, add, coord, diff, eval_expr, eval_scaled,
    expand_monomials, funcsym, is_zero, is_zero_symbolic, mul, neg, num,
    parse, render, sub,
)
from walkerkit import catalog, cli
from walkerkit import geometry as geo
from walkerkit import jets


def riemann_ricci_oracle(g):
    n = geo.N
    bundle = geo.ricci(g)
    gam = bundle.gamma

    def d(i, e):
        return diff(e, geo.COORDS[i])

    ric = [[None] * n for _ in range(n)]
    for s in range(n):
        for m in range(n):
            terms = []
            for r in range(n):
                terms.append(d(r, gam[r][m][s]))
                terms.append(neg(d(m, gam[r][r][s])))
                for l in range(n):
                    terms.append(mul(gam[r][r][l], gam[l][m][s]))
                    terms.append(neg(mul(gam[r][m][l], gam[l][r][s])))
            ric[s][m] = add(*terms)
    return ric


def test_metric_layout():
    a, b, c = geo.abstract_functions()
    g = geo.build_metric(a, b, c)
    assert g.rows[0][2] == num(1)
    assert g.rows[1][3] == num(1)
    assert g.rows[2][2] == a
    assert g.rows[3][3] == b
    assert g.rows[2][3] == c
    assert g.rows[0][0] == ZERO


def test_inverse_is_exact():
    a, b, c = geo.abstract_functions()
    g = geo.build_metric(a, b, c)
    inv = geo.inverse_metric(g)
    for i in range(4):
        for j in range(4):
            dot = add(*[mul(g.rows[i][k], inv.rows[k][j]) for k in range(4)])
            want = num(1 if i == j else 0)
            assert is_zero_symbolic(add(dot, neg(want))), (i, j)


def test_inverse_numeric():
    rng = random.Random(5)
    vals = {"a": rng.uniform(0.5, 2), "b": rng.uniform(0.5, 2),
            "c": rng.uniform(0.5, 2)}
    a, b, c = geo.abstract_functions()
    g = geo.build_metric(a, b, c)
    inv = geo.inverse_metric(g)
    for i in range(4):
        for j in range(4):
            got = sum(eval_expr(g.rows[i][k], vals)
                      * eval_expr(inv.rows[k][j], vals) for k in range(4))
            assert abs(got - (1.0 if i == j else 0.0)) < 1e-14


def test_flat_metric_curvature_vanishes():
    g = geo.build_metric(ZERO, ZERO, ZERO)
    bundle = geo.ricci(g)
    assert all(e == ZERO for row in bundle.ricci for e in row)
    assert bundle.tau == ZERO
    assert all(e == ZERO for e in geo.einstein_residual(g))


def test_constant_coefficients_flat():
    g = geo.build_metric(num(3), num(Fraction(1, 2)), num(-1))
    bundle = geo.ricci(g)
    for row in bundle.gamma:
        for line in row:
            for e in line:
                assert e == ZERO
    assert all(is_zero(e).verdict == ZERO_SYMBOLIC
               for e in geo.einstein_residual(g))


def test_christoffel_symmetry_and_ricci_symmetry():
    a, b, c = geo.abstract_functions()
    bundle = geo.ricci(geo.build_metric(a, b, c))
    for k in range(4):
        for i in range(4):
            for j in range(4):
                assert bundle.gamma[k][i][j] == bundle.gamma[k][j][i]
    for i in range(4):
        for j in range(4):
            assert is_zero_symbolic(add(bundle.ricci[i][j],
                                        neg(bundle.ricci[j][i]))), (i, j)


def test_ricci_matches_riemann_contraction():
    a, b, c = geo.abstract_functions()
    g = geo.build_metric(a, b, c)
    bundle = geo.ricci(g)
    oracle = riemann_ricci_oracle(g)
    for i in range(4):
        for j in range(4):
            assert is_zero_symbolic(add(bundle.ricci[i][j],
                                        neg(oracle[i][j]))), (i, j)


def test_einstein_components_polynomial():
    # closed-form inverse keeps everything denominator-free
    from walkerkit.expr import Pow, Prod, Sum

    def no_negative_powers(e):
        if isinstance(e, Pow):
            return e.exp >= 0 and no_negative_powers(e.base)
        if isinstance(e, Prod):
            return all(no_negative_powers(f) for f in e.factors)
        if isinstance(e, Sum):
            return all(no_negative_powers(t) for t in e.terms)
        return True

    a, b, c = geo.abstract_functions()
    for e in geo.einstein_residual(geo.build_metric(a, b, c)):
        assert no_negative_powers(e)


def test_plane_solution_triple_is_einstein():
    # rational triple: a = 4(t+k1)/(k2 x+k3)^2, b = a^3 k2^2 (t+k1)^2 ...
    f = {}
    a = parse("4*(t + c1)/(c2*x + c3)^2", functions=f)
    b = parse("4*c2^2*(t + c1)^3/(c2*x + c3)^4", functions=f)
    c = parse("4*c2*(t + c1)^2/(c2*x + c3)^3", functions=f)
    verdicts = geo.einstein_verdicts(a, b, c, samples=40, tol=1e-9, seed=3)
    assert all(v for v in verdicts), [v.verdict for v in verdicts]


def test_negative_control_not_einstein():
    x, t = coord("x"), coord("t")
    a = mul(x, x)
    b = t
    c = ZERO
    verdicts = geo.einstein_verdicts(a, b, c, samples=30, seed=9)
    assert any(v.verdict == NONZERO for v in verdicts)


def test_einstein_zero_on_full_on_shell_jets():
    a, b, c = geo.abstract_functions()
    comps = geo.einstein_residual(geo.build_metric(a, b, c))
    sys = jets.system_a7()
    rng = random.Random(31)
    for _ in range(10):
        p = jets.on_shell_sample(0, sys, rng)
        assert max(abs(value) / scale
                   for value, scale in (eval_scaled(e, p.values)
                                        for e in comps)) < 1e-9


# The components each residual enters, as the single-violation probe
# measured them before the correspondence was read from M.
PROBED_CORRESPONDENCE = {
    "residual_1": ["xy", "tz", "yy", "yz", "zz"],
    "residual_2": ["xz"], "residual_3": ["ty"], "residual_4": ["yy"],
    "residual_5": ["yz"], "residual_6": ["zz"],
}


def test_equivalence_probe_report():
    rep = geo.equivalence_probe(samples=30, tol=1e-9, seed=42)
    assert rep.passed
    assert [r.verdict for r in rep.rows] == [ZERO_SYMBOLIC] * 10
    assert rep.determinant == num(Fraction(-1, 128))
    assert rep.correspondence == PROBED_CORRESPONDENCE


def test_einstein_is_m_times_residuals():
    # E = M r, row by row, checked against the residuals directly
    _, einstein = geo.abstract_curvature()
    r = [None] + list(jets.system_a7().residuals)
    a, b, c = geo.abstract_functions()
    quarter, half = num(Fraction(1, 4)), num(Fraction(1, 2))
    expected = {
        "xy": mul(quarter, r[1]), "tz": neg(mul(quarter, r[1])),
        "xz": mul(half, r[2]), "ty": mul(half, r[3]),
        "yy": add(mul(quarter, a, r[1]), mul(half, r[4])),
        "yz": add(mul(quarter, c, r[1]), neg(mul(half, r[5]))),
        "zz": add(neg(mul(quarter, b, r[1])), mul(half, r[6])),
    }
    for label, e in zip(geo.EINSTEIN_LABELS, einstein):
        assert is_zero_symbolic(sub(e, expected.get(label, ZERO))), label


def test_perturbed_m_fails_on_shell(monkeypatch, capsys):
    m = dict(jets.EINSTEIN_M, xy={1: "1/2"})
    monkeypatch.setattr(jets, "EINSTEIN_M", m)
    rep = geo.equivalence_probe(samples=20, seed=42)
    assert not rep.on_shell and not rep.passed
    bad = [label for label, res in zip(geo.EINSTEIN_LABELS, rep.rows)
           if not res]
    assert bad == ["xy"]
    assert rep.rows[2].verdict == NONZERO
    assert rep.rows[2].witness
    # the block's determinant doubles and stays a nonzero constant
    assert rep.generic and rep.determinant == num(Fraction(-1, 64))
    assert cli.main(["equivalence-probe", "--report", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    verdicts = {c["id"]: c["verdict"] for c in doc["checks"]}
    assert verdicts == {"equivalence.on_shell": "fail",
                        "equivalence.generic": "pass",
                        "equivalence.correspondence": "pass"}


def test_metric_latex_and_matrix():
    a = parse("c1", functions={})
    txt = geo.metric_latex(a, ZERO, ZERO)
    assert "dy^2" in txt and "dz^2" not in txt
    mat = geo.metric_matrix_strings(a, ZERO, ZERO)
    assert mat[0][2] == "1"
    assert mat[2][2] == "c1"


# --- the abstract components, built once and substituted ---------------------

def _triples():
    """Every catalog solution (eq26.family3 included) and an a + x^3
    twin of the first, as (a, b, c) parameters."""
    out = [pytest.param(t.a, t.b, t.c, id=f"{e.id}#{n}")
           for e in catalog.builtin()
           for n, t in enumerate(e.triples())]
    a, b, c = out[0].values
    x = coord("x")
    out.append(pytest.param(add(a, mul(x, x, x)), b, c, id="twin"))
    return out


@pytest.mark.parametrize("a, b, c", _triples())
def test_substituted_components_equal_direct_build(a, b, c):
    ricci, einstein = geo.abstract_curvature()
    direct = geo.ricci(geo.build_metric(a, b, c)).ricci
    direct_ricci = [direct[i][j] for i in range(4) for j in range(i, 4)]
    for name, d, s in zip(geo.EINSTEIN_LABELS, direct_ricci,
                          geo.on_metric(ricci, a, b, c)):
        assert is_zero_symbolic(sub(s, d)), f"R_{name}"
    direct = geo.einstein_residual(geo.build_metric(a, b, c))
    for name, d, s in zip(geo.EINSTEIN_LABELS, direct,
                          geo.on_metric(einstein, a, b, c)):
        assert is_zero_symbolic(sub(s, d)), f"E_{name}"
        # the trees may differ; their expanded forms may not
        assert expand_monomials(s) == expand_monomials(d), f"E_{name}"


def test_cached_components_are_collected():
    # the cache holds each component as its expanded polynomial in the
    # jets: the same monomials as the direct build, one term per monomial
    ricci, einstein = geo.abstract_curvature()
    g = geo.build_metric(*geo.abstract_functions())
    direct = geo.ricci(g).ricci
    direct_ricci = [direct[i][j] for i in range(4) for j in range(i, 4)]
    for name, d, c in zip(geo.EINSTEIN_LABELS, direct_ricci, ricci):
        assert expand_monomials(c) == expand_monomials(d), f"R_{name}"
    for name, d, c in zip(geo.EINSTEIN_LABELS, geo.einstein_residual(g),
                          einstein):
        monos = expand_monomials(d)
        assert expand_monomials(c) == monos, f"E_{name}"
        terms = c.terms if isinstance(c, Sum) else () if c == ZERO else (c,)
        assert len(terms) == len(monos), f"E_{name}"
    assert render(einstein[geo.EINSTEIN_LABELS.index("xy")]) == \
        "-1/4*b_22 + 1/4*a_11"


def test_ricci_is_built_once(monkeypatch, capsys):
    calls = []

    def counting(g):
        calls.append(g)
        return real(g)

    real = geo.ricci
    monkeypatch.setattr(geo, "ricci", counting)
    geo.abstract_curvature.cache_clear()
    for a, b in (("0", "0"), ("x^2*t", "0"), ("t^3", "x*t")):
        geo.einstein_verdicts(parse(a), parse(b), ZERO, samples=8)
    assert cli.main(["einstein", "--a", "x*t", "--b", "0", "--c", "t",
                     "--samples", "8", "--report", "json"]) in (0, 1)
    capsys.readouterr()
    assert len(calls) == 1
    a, b, c = geo.abstract_functions()
    assert calls[0] == geo.build_metric(a, b, c)


def _to_sympy(sp, e, symbols, functions):
    """The expression tree as a SymPy expression: coordinates and
    parameters are looked up in ``symbols`` by name, and a_13 becomes the
    xy-derivative of ``functions["a"]``, a function of (x, t, y, z) or any
    expression in those symbols."""
    if isinstance(e, Num):
        return sp.Rational(e.value.numerator, e.value.denominator)
    if isinstance(e, (Coord, Param)):
        return symbols[e.name]
    if isinstance(e, (Ln, ExpF, Atan)):
        kernel = {Ln: sp.log, ExpF: sp.exp, Atan: sp.atan}[type(e)]
        return kernel(_to_sympy(sp, e.arg, symbols, functions))
    if isinstance(e, Func):
        f = functions[e.name]
        return f.diff(*[symbols[geo.COORDS[i - 1]] for i in e.idx]) \
            if e.idx else f
    if isinstance(e, Sum):
        return sp.Add(*[_to_sympy(sp, t, symbols, functions)
                        for t in e.terms])
    if isinstance(e, Prod):
        return sp.Rational(e.coeff.numerator, e.coeff.denominator) * \
            sp.Mul(*[_to_sympy(sp, f, symbols, functions)
                     for f in e.factors])
    if isinstance(e, Pow):
        return _to_sympy(sp, e.base, symbols, functions) ** sp.Rational(
            e.exp.numerator, e.exp.denominator)
    raise TypeError(f"unexpected node {e!r}")


def test_cached_components_match_sympy():
    # independent oracle: SymPy's inverse, derivatives and algebra, with
    # Ricci contracted from the Riemann tensor
    sp = pytest.importorskip("sympy")
    xs = sp.symbols("x t y z")
    symbols = dict(zip(geo.COORDS, xs))
    functions = {n: sp.Function(n)(*xs) for n in "abc"}
    fa, fb, fc = (functions[n] for n in "abc")
    g = sp.Matrix([[0, 0, 1, 0], [0, 0, 0, 1],
                   [1, 0, fa, fc], [0, 1, fc, fb]])
    inv = g.inv()
    n = 4
    gam = [[[sum(inv[k, m] * (sp.diff(g[j, m], xs[i])
                              + sp.diff(g[i, m], xs[j])
                              - sp.diff(g[i, j], xs[m]))
                 for m in range(n)) / 2
             for j in range(n)] for i in range(n)] for k in range(n)]

    def riemann(r, s, m, q):
        return (sp.diff(gam[r][q][s], xs[m]) - sp.diff(gam[r][m][s], xs[q])
                + sum(gam[r][m][l] * gam[l][q][s]
                      - gam[r][q][l] * gam[l][m][s] for l in range(n)))

    ric = [[sum(riemann(r, s, r, q) for r in range(n)) for q in range(n)]
           for s in range(n)]
    tau = sum(inv[i, j] * ric[i][j] for i in range(n) for j in range(n))
    expected = [ric[i][j] - tau * g[i, j] / 4
                for i in range(n) for j in range(i, n)]
    _, ours = geo.abstract_curvature()
    for name, mine, theirs in zip(geo.EINSTEIN_LABELS, ours, expected):
        assert sp.expand(_to_sympy(sp, mine, symbols, functions)
                         - theirs) == 0, name
