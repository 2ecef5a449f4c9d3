"""Curvature layer.

The independent oracle here contracts the full Riemann tensor
R^r_{s m n} = d_m G^r_{n s} - d_n G^r_{m s} + G^r_{m l}G^l_{n s}
            - G^r_{n l}G^l_{m s},  Ric_{s n} = sum_r R^r_{s r n},
built with ``diff`` on the Christoffel trees of ``reference_geometry``,
so it shares no code with the jet polynomials of the production path.
"""

import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import reference_geometry
import reference_linalg as reference
from walkerkit.expr import (
    ALL_DEPS, NONZERO, ZERO, ZERO_SYMBOLIC, Atan, Coord, EvalError,
    EvalGuard, ExpF, ExprError, Func, Ln, Num, Param, Pow, Prod, Sum, add,
    coord, diff, eval_expr, eval_scaled, expand_monomials, free_atoms,
    funcsym, is_zero, is_zero_symbolic, mul, neg, num, parse, render,
    sample_point, sub, substitute,
)
from walkerkit import catalog, cli
from walkerkit import geometry as geo
from walkerkit import jets
from walkerkit import liealg as la
from walkerkit.expr import nodes


def riemann_ricci_oracle(g):
    n = geo.N
    bundle = reference_geometry.ricci(g)
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
    a, b, c = reference_geometry.abstract_functions()
    g = geo.build_metric(a, b, c)
    assert g.rows[0][2] == num(1)
    assert g.rows[1][3] == num(1)
    assert g.rows[2][2] == a
    assert g.rows[3][3] == b
    assert g.rows[2][3] == c
    assert g.rows[0][0] == ZERO


def test_inverse_is_exact():
    # the jet polynomials of the metric and its inverse, as trees
    a, b, c = reference_geometry.abstract_functions()
    g = geo.build_metric(a, b, c)
    polys, inv_polys = geo._metric_polys()
    assert [[jets.to_expr(p) for p in row] for row in polys] == \
        [list(row) for row in g.rows]
    inv = [[jets.to_expr(p) for p in row] for row in inv_polys]
    assert inv == [list(row)
                   for row in reference_geometry.inverse_metric(g).rows]
    for i in range(4):
        for j in range(4):
            dot = add(*[mul(g.rows[i][k], inv[k][j]) for k in range(4)])
            want = num(1 if i == j else 0)
            assert is_zero_symbolic(add(dot, neg(want))), (i, j)


def test_inverse_numeric():
    rng = random.Random(5)
    vals = {"a": rng.uniform(0.5, 2), "b": rng.uniform(0.5, 2),
            "c": rng.uniform(0.5, 2)}
    a, b, c = reference_geometry.abstract_functions()
    g = geo.build_metric(a, b, c)
    inv = reference_geometry.inverse_metric(g)
    for i in range(4):
        for j in range(4):
            got = sum(eval_expr(g.rows[i][k], vals)
                      * eval_expr(inv.rows[k][j], vals) for k in range(4))
            assert abs(got - (1.0 if i == j else 0.0)) < 1e-14


def test_flat_metric_curvature_vanishes():
    g = geo.build_metric(ZERO, ZERO, ZERO)
    bundle = reference_geometry.ricci(g)
    assert all(e == ZERO for row in bundle.ricci for e in row)
    assert bundle.tau == ZERO
    assert all(e == ZERO for e in reference_geometry.einstein_residual(g))


def test_constant_coefficients_flat():
    g = geo.build_metric(num(3), num(Fraction(1, 2)), num(-1))
    bundle = reference_geometry.ricci(g)
    for row in bundle.gamma:
        for line in row:
            for e in line:
                assert e == ZERO
    assert all(is_zero(e).verdict == ZERO_SYMBOLIC
               for e in reference_geometry.einstein_residual(g))


def test_christoffel_symmetry_and_ricci_symmetry():
    a, b, c = reference_geometry.abstract_functions()
    g = geo.build_metric(a, b, c)
    bundle = geo.ricci()
    for k in range(4):
        for i in range(4):
            for j in range(4):
                assert bundle.gamma[k][i][j] == bundle.gamma[k][j][i]
    # production builds R_ij for i <= j only and mirrors it, so the
    # symmetry it relies on is checked on the oracle, which builds all
    # 16 entries independently
    oracle = riemann_ricci_oracle(g)
    for i in range(4):
        for j in range(4):
            assert is_zero_symbolic(add(oracle[i][j],
                                        neg(oracle[j][i]))), (i, j)


def test_ricci_builds_the_upper_triangle_only():
    bundle = geo.ricci()
    for i in range(4):
        for j in range(i, 4):
            assert bundle.ricci[j][i] is bundle.ricci[i][j], (i, j)


def _zero_argument_calls(monkeypatch, module, run):
    """(calls, calls with a ZERO argument) of ``module.mul`` and of
    ``module.diff`` during ``run()``."""
    counts = {}
    for name in ("mul", "diff"):
        real = getattr(module, name)
        seen = counts[name] = [0, 0]

        def counting(*args, real=real, seen=seen):
            seen[0] += 1
            seen[1] += any(isinstance(a, Num) and a == ZERO for a in args)
            return real(*args)

        monkeypatch.setattr(module, name, counting)
    run()
    monkeypatch.undo()
    return {name: tuple(c) for name, c in counts.items()}


def test_ricci_builds_and_derives_no_known_zero(monkeypatch):
    # no constant metric entry or zero Christoffel symbol is
    # differentiated, and no product has a zero factor
    want = geo.ricci()
    calls = []
    for name in ("pmul", "total_diff"):
        real = getattr(geo, name)

        def counting(*args, real=real, name=name):
            calls.append((name, args))
            return real(*args)

        monkeypatch.setattr(geo, name, counting)
    got = geo.ricci.__wrapped__()  # built afresh, past the cache
    monkeypatch.undo()
    assert got == want
    products = [args for name, args in calls if name == "pmul"]
    derivatives = [args[0] for name, args in calls if name == "total_diff"]
    assert products and all(p and q for p, q in products)
    assert derivatives and all(any(m for m in p) for p in derivatives)


def test_on_metric_builds_no_product_with_a_zero_factor(monkeypatch):
    # most jets of a metric on x and t are zero; 39 of 41 products of
    # eq25.family1 had a ZERO factor before substitution skipped them
    triple = catalog.builtin_map()["eq25.family1"].triples()[0]
    values = {f"c{i}": num(i + 1) for i in range(1, 10)}
    a, b, c = (substitute(e, values) for e in (triple.a, triple.b, triple.c))
    _, einstein = reference_geometry.abstract_curvature()
    counts = _zero_argument_calls(
        monkeypatch, nodes,
        lambda: reference_geometry.on_metric(einstein, a, b, c))
    assert counts["mul"][0] > 0 and counts["mul"][1] == 0, counts
    counts = _zero_argument_calls(
        monkeypatch, nodes,
        lambda: reference_geometry.on_metric(einstein, ZERO, ZERO, ZERO))
    assert counts["mul"][0] == 0, counts


def test_ricci_matches_riemann_contraction():
    a, b, c = reference_geometry.abstract_functions()
    g = geo.build_metric(a, b, c)
    bundle = geo.ricci()
    oracle = riemann_ricci_oracle(g)
    for i in range(4):
        for j in range(4):
            assert is_zero_symbolic(add(jets.to_expr(bundle.ricci[i][j]),
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

    a, b, c = reference_geometry.abstract_functions()
    _, einstein = reference_geometry.abstract_curvature()
    tree = reference_geometry.einstein_residual(geo.build_metric(a, b, c))
    for e in einstein + tree:
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
    _, comps = reference_geometry.abstract_curvature()
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
    rep = geo.equivalence_probe(samples=30, seed=42)
    assert rep.passed
    assert [r.verdict for r in rep.rows] == [ZERO_SYMBOLIC] * 10
    assert rep.determinant == num(Fraction(-1, 128))
    assert rep.correspondence == PROBED_CORRESPONDENCE


def test_determinant_of_m_block_skips_zero_cofactors(monkeypatch):
    # M's block is lower triangular: expanding along the first row over
    # its nonzero entries takes one call per size down to the 2x2 base,
    # 5 in all; the full Laplace expansion made 517
    calls = []
    real = la.det

    def counting(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(la, "det", counting)
    monkeypatch.setattr(geo, "det", counting)
    rep = geo.equivalence_probe(samples=8)
    assert rep.determinant == num(Fraction(-1, 128))
    assert len(calls) <= 6
    assert reference.laplace_det(calls[0]) == rep.determinant


def test_einstein_is_m_times_residuals():
    # E = M r, row by row, checked against the residuals directly
    _, einstein = reference_geometry.abstract_curvature()
    r = [None] + list(jets.system_a7().residuals)
    a, b, c = reference_geometry.abstract_functions()
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
    ricci, einstein = reference_geometry.abstract_curvature()
    g = geo.build_metric(a, b, c)
    direct = reference_geometry.ricci(g).ricci
    direct_ricci = [direct[i][j] for i in range(4) for j in range(i, 4)]
    for name, d, s in zip(geo.EINSTEIN_LABELS, direct_ricci,
                          reference_geometry.on_metric(ricci, a, b, c)):
        assert is_zero_symbolic(sub(s, d)), f"R_{name}"
    direct = reference_geometry.einstein_residual(g)
    for name, d, s in zip(geo.EINSTEIN_LABELS, direct,
                          reference_geometry.on_metric(einstein, a, b, c)):
        assert is_zero_symbolic(sub(s, d)), f"E_{name}"
        # the trees may differ; their expanded forms may not
        assert expand_monomials(s) == expand_monomials(d), f"E_{name}"


def test_cached_components_are_collected():
    # the cache holds each component as its expanded polynomial in the
    # jets: the same monomials as the direct build, one term per monomial
    ricci, einstein = reference_geometry.abstract_curvature()
    g = geo.build_metric(*reference_geometry.abstract_functions())
    direct = reference_geometry.ricci(g).ricci
    direct_ricci = [direct[i][j] for i in range(4) for j in range(i, 4)]
    for name, d, c in zip(geo.EINSTEIN_LABELS, direct_ricci, ricci):
        assert expand_monomials(c) == expand_monomials(d), f"R_{name}"
    for name, d, c in zip(geo.EINSTEIN_LABELS,
                          reference_geometry.einstein_residual(g),
                          einstein):
        monos = expand_monomials(d)
        assert expand_monomials(c) == monos, f"E_{name}"
        terms = c.terms if isinstance(c, Sum) else () if c == ZERO else (c,)
        assert len(terms) == len(monos), f"E_{name}"
    assert render(einstein[geo.EINSTEIN_LABELS.index("xy")]) == \
        "-1/4*b_22 + 1/4*a_11"


def _table_jets(tables):
    """The variables that the curvature tables hold."""
    return {n for table in tables.ricci + tables.einstein
            for _, factors in table for n, _ in factors}


def test_tables_hold_the_collected_monomials():
    # each table rebuilt as a sum is its collected component, and its
    # variables are the 26 jets of a, b and c
    tables = geo.curvature_tables()
    held = _table_jets(tables)
    assert len(held) == 26
    assert all(type(jets.JET_VARS[n]) is tuple for n in held)
    atoms = jets.jet_atoms(ALL_DEPS)
    for comps, tabs in zip(reference_geometry.abstract_curvature(),
                           (tables.ricci, tables.einstein)):
        for e, table in zip(comps, tabs):
            rebuilt = add(*[mul(c, *[nodes.pow_(atoms[n], k)
                                     for n, k in factors])
                            for c, factors in table])
            assert rebuilt == e


def test_ricci_is_built_once(monkeypatch, capsys):
    # the abstract curvature is built once per process, whatever metrics
    # and commands ask for verdicts: the equivalence probe shares it
    geo.ricci.cache_clear()
    geo.curvature_tables.cache_clear()
    for a, b in (("0", "0"), ("x^2*t", "0"), ("t^3", "x*t")):
        geo.einstein_verdicts(parse(a), parse(b), ZERO, samples=8)
    assert cli.main(["einstein", "--a", "x*t", "--b", "0", "--c", "t",
                     "--samples", "8", "--report", "json"]) in (0, 1)
    assert cli.main(["equivalence-probe", "--samples", "8"]) == 0
    capsys.readouterr()
    assert geo.ricci.cache_info().misses == 1


def test_abstract_curvature_equals_the_collected_trees():
    # the jet polynomials give the components that the tree path built,
    # expanded and collected, node for node
    assert reference_geometry.abstract_curvature.__wrapped__() == \
        reference_geometry.collected_curvature()


def _jet_poly(e):
    """A collected component as a jet polynomial: {sorted tuple of
    (name, idx) jets, one per power: Fraction}."""
    out = {}
    for term in e.terms if isinstance(e, Sum) else () if e == ZERO else (e,):
        coeff, factors = nodes._coeff_factors(term)
        jet_list = []
        for f in factors:
            base, n = (f.base, int(f.exp)) if isinstance(f, Pow) else (f, 1)
            jet_list += [(base.name, base.idx)] * n
        out[tuple(sorted(jet_list))] = coeff
    return out


def _unpacked(p):
    """A jet polynomial in the form of ``_jet_poly``."""
    return {tuple(sorted(jet for n, e in jets.unpack(k, jets.WIDTH)
                         for jet in [jets.JET_VARS[n]] * e)): c
            for k, c in p.items()}


def test_jet_polynomials_hold_the_collected_monomials():
    # each jet index sorted and each monomial once, with its coefficient
    bundle = geo.ricci()
    ricci, einstein = reference_geometry.collected_curvature()
    upper = [bundle.ricci[i][j] for i in range(4) for j in range(i, 4)]
    assert list(map(_unpacked, upper)) == [_jet_poly(e) for e in ricci]
    assert list(map(_unpacked, geo.einstein_residual(bundle))) == \
        [_jet_poly(e) for e in einstein]


def test_christoffel_traces_vanish():
    # sum_k gamma^k_ik = d_i ln sqrt|det g| = 0, as det g = 1: the terms
    # of R_ij that ricci() does not build
    gamma = geo.ricci().gamma
    for i in range(4):
        assert jets.padd(*[(gamma[k][i][k], 1) for k in range(4)]) == {}


def test_curvature_tables_equal_the_tree_built_monomials():
    # every component holds the monomials and coefficients of the tree
    # built, expanded and collected component, each once, in any order
    tables = geo.curvature_tables.__wrapped__()
    for comps, tabs in zip(reference_geometry.collected_curvature(),
                           tables):
        for e, table in zip(comps, tabs):
            read = {tuple(sorted(jet for n, k in factors
                                 for jet in [jets.JET_VARS[n]] * k)): c
                    for c, factors in table}
            assert len(read) == len(table)
            assert read == _jet_poly(e)


def test_curvature_tables_build_no_tree(monkeypatch):
    # the tables are read from the jet polynomials, so no component is
    # rebuilt as a tree: no to_expr, add or mul runs
    def forbidden(*args, **kw):
        raise AssertionError("called")

    reals = {jets.to_expr, nodes.add, nodes.mul}
    for mod in [m for name, m in sys.modules.items()
                if name.startswith("walkerkit")]:
        for key, val in list(vars(mod).items()):
            if any(val is real for real in reals):
                monkeypatch.setattr(mod, key, forbidden)
    tables = geo.curvature_tables.__wrapped__()
    monkeypatch.undo()
    assert tables == geo.curvature_tables()


def test_building_the_curvature_derives_and_expands_nothing(monkeypatch):
    # the curvature is computed over the jets, so no tree is
    # differentiated, expanded or substituted while it is built
    from walkerkit.expr import expand

    def forbidden(*args, **kw):
        raise AssertionError("called")

    reals = {nodes.diff, nodes.partial, nodes.substitute,
             nodes.substitute_all, expand.expand_poly}
    for mod in [m for name, m in sys.modules.items()
                if name.startswith("walkerkit")]:
        for key, val in list(vars(mod).items()):
            if any(val is real for real in reals):
                monkeypatch.setattr(mod, key, forbidden)
    tables = geo.curvature_tables.__wrapped__()
    monkeypatch.undo()
    assert tables == geo.curvature_tables()


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
    _, ours = reference_geometry.abstract_curvature()
    for name, mine, theirs in zip(geo.EINSTEIN_LABELS, ours, expected):
        assert sp.expand(_to_sympy(sp, mine, symbols, functions)
                         - theirs) == 0, name


# --- verdicts from the metric's jets, against the substituted trees ----------

def _kinds(verdicts):
    return [v.verdict for v in verdicts]


def _outcome(run):
    """The verdict kinds ``run()`` gives, or the name of the expression
    error it raises."""
    try:
        return _kinds(run())
    except ExprError as exc:
        return type(exc).__name__


def _jet_and_tree_kinds(a, b, c, **kw):
    """Outcomes for the Ricci and Einstein components on the jet path and
    on the reference's substituted trees."""
    tables = geo.curvature_tables()
    return (
        _outcome(lambda: geo.curvature_verdicts(
            tables.ricci + tables.einstein, a, b, c, **kw)),
        _outcome(lambda: reference_geometry.ricci_verdicts(a, b, c, **kw)
                 + reference_geometry.einstein_verdicts(a, b, c, **kw)))


@pytest.mark.parametrize("entry", [e for e in catalog.builtin()
                                   if e.solutions], ids=lambda e: e.id)
def test_jet_verdicts_match_the_trees_on_the_catalog(entry):
    # each solution with its constants c1..c9 drawn at three seeds, and
    # its twin with m*x^3 added to a, which is not Einstein: its
    # curvature, and the six residuals of the plane system that the
    # solution check decides on their jet polynomials
    residuals = [jets.terms(p) for p in jets.system2().polys]
    s = entry.solutions[0]
    x = coord("x")
    for seed in (2801, 2802, 2803):
        rng = random.Random(seed)
        values = {f"c{i}": num(rng.randint(1, 9)) for i in range(1, 10)}
        a, b, c = (substitute(parse(t), values) for t in (s.a, s.b, s.c))
        twin = add(a, mul(rng.randint(1, 9), x, x, x))
        for metric in ((a, b, c), (twin, b, c)):
            jet, tree = _jet_and_tree_kinds(*metric, samples=16, seed=seed)
            assert jet == tree, (seed, metric)
            jet = _outcome(lambda: geo.curvature_verdicts(
                residuals, *metric, samples=16, seed=seed))
            tree = _outcome(lambda: reference_geometry.solution_verdicts(
                *metric, samples=16, seed=seed))
            assert jet == tree, (seed, metric)


_METRIC_LEAVES = ("x", "t", "y", "c1")
_METRIC_EXPONENTS = st.sampled_from(
    (-2, -1, 2, 3, Fraction(1, 2), Fraction(1, 3), Fraction(-1, 2),
     Fraction(2, 3)))
_KERNELS = {"ln": nodes.ln, "exp": nodes.exp_, "atan": nodes.atan}


def _metric_extend(children):
    return st.one_of(
        st.lists(children, min_size=2, max_size=3).map(lambda ts: ("+", ts)),
        st.lists(children, min_size=2, max_size=3).map(lambda fs: ("*", fs)),
        st.tuples(st.just("^"), children, _METRIC_EXPONENTS),
        st.tuples(st.sampled_from(tuple(_KERNELS)), children),
    )


_COEFFICIENTS = st.recursive(
    st.one_of(st.sampled_from(_METRIC_LEAVES),
              st.fractions(min_value=-4, max_value=4, max_denominator=3)
              .filter(bool)),
    _metric_extend, max_leaves=7)


def _coefficient(tree):
    if isinstance(tree, str):
        return parse(tree)
    if isinstance(tree, Fraction):
        return num(tree)
    if tree[0] == "^":
        return nodes.pow_(_coefficient(tree[1]), tree[2])
    if tree[0] in _KERNELS:
        return _KERNELS[tree[0]](_coefficient(tree[1]))
    parts = [_coefficient(t) for t in tree[1]]
    return add(*parts) if tree[0] == "+" else mul(*parts)


def _has_real_values(e):
    """Whether ``e`` evaluates at one of 20 sample points."""
    rng = random.Random(0)
    for _ in range(20):
        try:
            eval_expr(e, sample_point(free_atoms(e), rng))
            return True
        except EvalGuard:
            pass
    return False


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(_COEFFICIENTS, _COEFFICIENTS, st.one_of(st.just(0), _COEFFICIENTS),
       st.integers(0, 5))
# E_yy cancels only where c_2^2 = ((t + 1)^(1/2))^2 merges to t + 1
@example("t", ("+", ["t", ("^", "t", 2)]),
         ("*", [Fraction(2, 3), ("^", ("+", ["t", Fraction(1)]),
                                     Fraction(3, 2))]), 0)
def test_jet_verdicts_match_the_trees(ta, tb, tc, seed):
    # metrics with ln, exp, atan, rational roots and negative powers of
    # sums, real somewhere on the sample box (a metric without real
    # values is the next test's)
    try:
        a, b = _coefficient(ta), _coefficient(tb)
        c = ZERO if tc == 0 else _coefficient(tc)
    except ExprError:
        assume(False)
    assume(all(_has_real_values(e) for e in (a, b, c)))
    jet, tree = _jet_and_tree_kinds(a, b, c, samples=16, seed=seed)
    assert jet == tree, (a, b, c)


def test_a_metric_without_real_values_is_not_probed():
    # a_1 = b_1 = sqrt(atan(-1/2)) has no real value, so no sample point
    # is admissible for the one component that does not cancel; the
    # substituted tree of E_zz multiplies the two roots into atan(-1/2)
    # and so could be probed
    a = parse("x*sqrt(atan(-1/2))")
    with pytest.raises(EvalError, match="admissible sample point"):
        geo.einstein_verdicts(a, a, ZERO, samples=16)
    tree = _kinds(reference_geometry.einstein_verdicts(a, a, ZERO,
                                                       samples=16))
    assert tree == [ZERO_SYMBOLIC] * 9 + [NONZERO]


def test_a_root_of_a_sum_merges_as_in_the_tree():
    # E_yy = -1/2*c_2^2 + 1/2*a_2*b_2 - 1/4*a*b_22 cancels because
    # ((t + 1)^(1/2))^2 is t + 1, which the ring's opaque root atom would
    # not show
    a, b, c = parse("t"), parse("t^2 + t"), parse("2/3*(t + 1)^(3/2)")
    verdicts = geo.einstein_verdicts(a, b, c, samples=16)
    assert verdicts[geo.EINSTEIN_LABELS.index("yy")].verdict == \
        ZERO_SYMBOLIC


def test_einstein_metric_needs_no_tree_and_no_probe(monkeypatch):
    # every component of an Einstein catalog metric cancels in the one
    # ring over its jets: nothing is substituted and nothing is probed
    from walkerkit.expr import numeric

    def forbidden(*args, **kw):
        raise AssertionError("called")

    monkeypatch.setattr(nodes, "substitute_all", forbidden)
    monkeypatch.setattr(numeric, "probe_zero", forbidden)
    for eid in ("table1.row4", "eq27"):
        t = catalog.builtin_map()[eid].triples()[0]
        assert _kinds(geo.einstein_verdicts(t.a, t.b, t.c)) == \
            [ZERO_SYMBOLIC] * 10, eid


def test_curvature_residual_is_scaled_by_its_monomials():
    # E_ty = 1/2*a_12 + 1/2*c_22 is the one monomial x for a = x^2*t: its
    # residual is 1 whatever the point, where the substituted tree x was
    # scaled by 1
    verdicts = geo.einstein_verdicts(parse("x^2*t"), ZERO, ZERO, samples=8)
    ty = verdicts[geo.EINSTEIN_LABELS.index("ty")]
    assert ty.verdict == NONZERO and ty.max_residual == 1.0


def test_constant_component_is_an_exact_nonzero():
    # E_xy = 1/4*a_11 is the constant 1/2 for a = x^2, and 1/4*10^-12
    # for a = x^2/(2*10^12), below the tolerance: both are exact verdicts
    for a, value in (("x^2", 0.5), ("x^2/(2*10^12)", 2.5e-13)):
        xy = geo.einstein_verdicts(parse(a), ZERO, ZERO)[
            geo.EINSTEIN_LABELS.index("xy")]
        assert xy.verdict == NONZERO and xy.witness == {}
        assert xy.max_residual == pytest.approx(value)


@pytest.mark.parametrize("a, b, c", [
    (parse("x*y"), parse("exp(z)*t"), ZERO),
    (parse("exp(z)*t"), parse("x*y"), parse("x*y")),
    (funcsym("f", (), ALL_DEPS), ZERO, ZERO),
], ids=["x*y", "exp(z)*t", "f(x,t,y,z)"])
def test_metrics_on_y_and_z_match_the_trees(a, b, c):
    # a jet along a coordinate that no coordinate or function symbol of
    # its coefficient names is ZERO without diff; these coefficients
    # name y or z, so their jets along it are taken
    jet = geo.einstein_verdicts(a, b, c, samples=16)
    tree = reference_geometry.einstein_verdicts(a, b, c, samples=16)
    assert [v.describe() for v in jet] == [v.describe() for v in tree]


def test_no_jet_is_derived_along_an_absent_coordinate(monkeypatch):
    from collections import Counter
    calls = []
    real = nodes.diff

    def counting(e, v):
        calls.append(v)
        return real(e, v)

    monkeypatch.setattr(nodes, "diff", counting)
    geo.einstein_verdicts(parse("x^3*t + c1"), parse("x*t"), parse("t^2"))
    assert calls and set(calls) == {"x", "t"}
    calls.clear()
    # of the 26 jets, a = x*z takes a_1, a_11 and a_14; b = x*t takes
    # b_1, b_11, b_12, b_2 and b_22; c, a symbol on (x, y), takes c_1,
    # c_11 and c_13
    geo.einstein_verdicts(parse("x*z"), parse("x*t"),
                          funcsym("f", (), (1, 3)))
    assert Counter(calls) == {"x": 6, "t": 3, "y": 1, "z": 1}
