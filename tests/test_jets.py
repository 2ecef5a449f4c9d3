"""Prolongation and on-shell checks.

Two independent oracles pin the recursion: the characteristic form
phi^J = D_J(Q) + xi^i u_{J,i} with Q = phi - xi^1 u_1 - xi^2 u_2, and
finite-difference transport of concrete polynomial jets along explicit
one-parameter flows. A third, ``reference_jets``, builds the on-shell
map, the prolongation and the cells as trees; the jet polynomials must
equal them after expansion.
"""

import math
import random

import pytest

from walkerkit.expr import (
    PLANE_DEPS, ZERO, ExprError, add, atom_name, coord, diff, eval_expr,
    funcsym, is_zero_symbolic, mul, neg, num, parse,
)
from walkerkit.expr import expand, nodes, numeric
from walkerkit.expr.expand import expand_poly
from walkerkit import jets
from walkerkit import liealg as la

import reference_jets


ORDERS = ((1,), (2,), (1, 1), (1, 2), (2, 2))


def characteristic_oracle(v, fname, j):
    xi_x, xi_t = v.coeffs[0], v.coeffs[1]
    pos = jets.FIBER.index(fname)
    u1 = funcsym(fname, (1,), PLANE_DEPS)
    u2 = funcsym(fname, (2,), PLANE_DEPS)
    q = add(v.coeffs[2 + pos], neg(mul(xi_x, u1)), neg(mul(xi_t, u2)))
    dq = q
    for i in j:
        dq = diff(dq, "x" if i == 1 else "t")
    lift1 = funcsym(fname, tuple(sorted(j + (1,))), PLANE_DEPS)
    lift2 = funcsym(fname, tuple(sorted(j + (2,))), PLANE_DEPS)
    return add(dq, mul(xi_x, lift1), mul(xi_t, lift2))


def test_prolongation_matches_characteristic_form():
    for gen in la.BASIS:
        pro = jets.prolong2(gen)
        for fname in jets.FIBER:
            for j in ORDERS:
                want = characteristic_oracle(gen, fname, j)
                got = jets.to_expr(pro[(fname, j)], PLANE_DEPS)
                assert is_zero_symbolic(add(got, neg(want))), (fname, j)


def test_prolongation_hand_values():
    f = {"a": PLANE_DEPS, "b": PLANE_DEPS, "c": PLANE_DEPS}
    def phi(i, key):
        return jets.to_expr(jets.prolong2(la.BASIS[i])[key], PLANE_DEPS)

    assert phi(4, ("a", (1,))) == parse("2*c_1", functions=f)
    assert phi(4, ("a", (2,))) == parse("2*c_2 - a_1", functions=f)
    assert phi(4, ("a", (2, 2))) == parse("2*c_22 - 2*a_12", functions=f)
    assert phi(2, ("b", (1,))) == parse("-3*b_1", functions=f)
    assert phi(6, ("a", (1, 1))) == parse("a_11", functions=f)
    x1 = jets.prolong2(la.BASIS[0])
    assert x1["x"] == {0: 1}
    assert all(x1[key] == {} for key in jets._JET_SLOTS)


def test_mixed_prolongation_paths_commute():
    for gen in la.BASIS:
        pro = jets.prolong2(gen)
        dxi = {i: (jets.total_diff(pro["x"], i),
                   jets.total_diff(pro["t"], i)) for i in (1, 2)}
        for fname in jets.FIBER:
            via_12 = jets._step(pro[(fname, (1,))], 2, dxi[2], fname,
                                (1,))
            via_21 = jets._step(pro[(fname, (2,))], 1, dxi[1], fname,
                                (2,))
            assert via_12 == via_21


def test_prolongation_linearity():
    combo = la.BASIS[2] + la.BASIS[4].scale(num(2))
    pro_combo = jets.prolong2(combo)
    p3 = jets.prolong2(la.BASIS[2])
    p5 = jets.prolong2(la.BASIS[4])
    for key, e in pro_combo.items():
        assert e == jets.padd((p3[key], 1), (p5[key], 2))


def _poly_jet(x0, t0):
    # concrete polynomial functions with simple exact derivatives
    vals = {
        "x": x0, "t": t0,
        "a": x0 ** 2 + 2 * t0, "a_1": 2 * x0, "a_2": 2.0,
        "a_11": 2.0, "a_12": 0.0, "a_22": 0.0,
        "b": x0 ** 2 * t0 + t0, "b_1": 2 * x0 * t0, "b_2": x0 ** 2 + 1,
        "b_11": 2 * t0, "b_12": 2 * x0, "b_22": 0.0,
        "c": x0 * t0 ** 2 + 3 * x0, "c_1": t0 ** 2 + 3, "c_2": 2 * x0 * t0,
        "c_11": 0.0, "c_12": 2 * t0, "c_22": 2 * x0,
    }
    return vals


def test_flow_transport_scaling_field():
    # flow of the third generator: x -> e^s x, b -> e^{-2s} b
    x0, t0 = 1.3, 0.7
    vals = _poly_jet(x0, t0)
    pro = jets.prolong2(la.BASIS[2])
    got = eval_expr(jets.to_expr(pro[("b", (1,))], PLANE_DEPS), vals)

    def b1_along(s):
        import math
        # transformed function evaluated at the flowed base point
        x = x0  # source point held fixed, image moves
        return math.exp(-3 * s) * (2 * x * t0)

    h = 1e-6
    fd = (b1_along(h) - b1_along(-h)) / (2 * h)
    assert abs(got - fd) < 1e-6


def test_flow_transport_shear_field():
    # flow of the fourth generator: t -> t + s x, c -> c + s a
    x0, t0 = 0.9, 1.4
    vals = _poly_jet(x0, t0)
    pro = jets.prolong2(la.BASIS[3])

    # exact x- and t-derivatives of the transformed function
    # ct(xt, tt) = c(xt, tt - s*xt) + s*a(xt, tt - s*xt)
    def c1_along(s):
        xt, tt = x0, t0 + s * x0
        u = tt - s * xt
        return (u ** 2 + 3) - s * (2 * xt * u) + s * (2 * xt - 2 * s)

    def c2_along(s):
        xt, tt = x0, t0 + s * x0
        u = tt - s * xt
        return 2 * xt * u + 2 * s

    h = 1e-5
    fd1 = (c1_along(h) - c1_along(-h)) / (2 * h)
    fd2 = (c2_along(h) - c2_along(-h)) / (2 * h)
    for j, fd in (((1,), fd1), ((2,), fd2)):
        got = eval_expr(jets.to_expr(pro[("c", j)], PLANE_DEPS), vals)
        assert abs(got - fd) < 1e-8


def test_on_shell_sample_residuals():
    sys = jets.system2()
    for seed in range(5):
        p = jets.on_shell_sample(seed, sys)
        assert max(abs(r) for r in p.residuals(sys)) < 1e-11


def test_on_shell_zero_jet():
    sys = jets.system2()
    values = {n: 0.0 for n in sys.jet_coords}
    for n in ("a", "b", "c"):
        values[n] = 1.0
    for name, k in sys.designated:
        atom = reference_jets.parse_atom(name, sys.deps)
        from walkerkit.expr import partial
        values[name] = 0.0
        coeff = eval_expr(partial(sys.residuals[k], atom), values)
        base = eval_expr(sys.residuals[k], values)
        values[name] = -base / coeff
    assert all(values[n] == 0.0 for n, _ in sys.designated)


def test_on_shell_points_distinct():
    sys = jets.system2()
    pts = jets.on_shell_points(100, seed=42, sys=sys)
    keys = {tuple(sorted(p.values.items())) for p in pts}
    assert len(keys) == 100


def test_on_shell_full_system():
    sys = jets.system_a7()
    assert len(sys.jet_coords) == 49
    for seed in (0, 1):
        p = jets.on_shell_sample(seed, sys)
        assert max(abs(r) for r in p.residuals(sys)) < 1e-11


def test_all_generators_are_symmetries():
    sys = jets.system2()
    for idx, gen in enumerate(la.BASIS, start=1):
        rep = jets.symmetry_check(gen, sys, samples=25, seed=11,
                                  label=f"X{idx}")
        assert rep.passed, (idx, rep.max_residual)
        # every cell by exact cancellation on the solved jet
        assert all(c.exact and c.max_residual == 0.0 for c in rep.cells)


def test_translation_action_is_identically_zero():
    sys = jets.system2()
    pro = jets.prolong2(la.BASIS[0])
    for partials in sys.partials:
        assert jets.prolonged_action(pro, partials) == {}


def test_negative_control_fails():
    sys = jets.system2()
    bogus = la.VectorField((coord("x"), ZERO, ZERO, ZERO, ZERO))
    for seed in (0, 11, 3101):
        rep = jets.symmetry_check(bogus, sys, samples=25, seed=seed,
                                  label="x*d/dx")
        assert not rep.passed
        # every cell fails, each with its residual and witness point
        for cell in rep.cells:
            assert not cell.passed and not cell.exact
            assert cell.max_residual > 1e-3, (seed, cell.equation)
            assert cell.witness
            assert set(cell.witness) <= set(sys.free_coords)


@pytest.mark.parametrize("system", [jets.system2, jets.system_a7])
def test_on_shell_map_sends_every_residual_to_zero(system):
    sys = system()
    on_shell = sys.on_shell
    atoms = [reference_jets.parse_atom(n, sys.deps)
             for n, _ in sys.designated]
    assert [jets.JET_VARS[n] for n in on_shell] == [
        (a.name, a.idx) for a in atoms]
    # back-substituted: no value involves a designated variable
    solved = set(on_shell)
    assert not any(n in solved for v in on_shell.values() for k in v
                   for n, _ in jets.unpack(k, jets.WIDTH))
    for r in sys.polys:
        assert jets.substitute(r, on_shell) == {}
    assert sys.on_shell is on_shell


def test_on_shell_map_rejects_a_bad_recipe():
    funcs = {f: PLANE_DEPS for f in jets.FIBER}
    nonlinear = jets.PDESystem(
        "nonlinear", (parse("a_11^2 - b", functions=funcs),), PLANE_DEPS,
        (("a_11", 0),))
    with pytest.raises(ExprError, match="not linear"):
        nonlinear.on_shell
    unsolved = jets.PDESystem(
        "unsolved", tuple(parse(s, functions=funcs)
                          for s in ("a_11 - b", "a_11 - c")),
        PLANE_DEPS, (("a_11", 0),))
    with pytest.raises(ExprError, match="residual 2 does not vanish"):
        unsolved.on_shell


def test_systems_are_built_once():
    assert jets.system2() is jets.system2()
    assert jets.system_a7() is jets.system_a7()


def test_on_shell_points_equal_a_fresh_draw():
    sys = jets.system2()
    rng = random.Random(2024)
    fresh = [jets.on_shell_sample(0, sys, rng) for _ in range(30)]
    assert [p.values for p in jets.on_shell_points(30, 2024, sys)] == [
        p.values for p in fresh]
    # the default system is the same one, so the same set
    assert jets.on_shell_points(30, 2024) is jets.on_shell_points(
        30, 2024, sys)


def _count_calls(monkeypatch, real) -> list:
    """Route every walkerkit binding of ``real`` through a counter;
    returns the list each call appends to."""
    import sys as _sys
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, mod in list(_sys.modules.items()):
        if mod is not None and (name == "walkerkit"
                                or name.startswith("walkerkit.")):
            for key, val in list(vars(mod).items()):
                if val is real:
                    monkeypatch.setattr(mod, key, counting)
    return calls


def _direct_action(pro, residual, deps):
    """The tree prolonged action with every partial taken afresh."""
    from walkerkit.expr import partial
    terms = [mul(pro.xi[0], partial(residual, coord("x"))),
             mul(pro.xi[1], partial(residual, coord("t")))]
    for (fname, j), ph in pro.phi.items():
        terms.append(mul(ph, partial(residual, funcsym(fname, j, deps))))
    return add(*terms)


def _by_name(e) -> dict:
    """The expanded monomials of ``e`` with each atom taken by its name:
    the generators' a, b and c depend on x and t only, while the full
    system's jets depend on all four coordinates."""
    out: dict = {}
    for m, c in expand_poly(e).monomials().items():
        powers: dict = {}
        for a, p in m:
            powers[atom_name(a)] = powers.get(atom_name(a), 0) + p
        key = tuple(sorted(powers.items()))
        out[key] = out.get(key, 0) + c
    return {k: c for k, c in out.items() if c}


def test_shared_partials_give_the_same_action_trees():
    # each prolonged action is the tree one, with every partial taken
    # afresh, after expansion
    bogus = la.VectorField((coord("x"), ZERO, ZERO, ZERO, ZERO))
    for sys in (jets.system2(), jets.system_a7()):
        for gen in la.BASIS + (bogus,):
            pro = jets.prolong2(gen)
            tree = reference_jets.prolong2(gen, sys.deps)
            for r, partials in zip(sys.residuals, sys.partials):
                got = jets.to_expr(jets.prolonged_action(pro, partials),
                                   sys.deps)
                assert _by_name(got) == _by_name(
                    _direct_action(tree, r, sys.deps))


def test_symmetries_take_each_residual_partial_once(monkeypatch, capsys):
    from walkerkit import cli
    sys = jets.system2()
    sys.on_shell  # the solve's own derivatives
    sys.__dict__.pop("partials", None)
    calls = _count_calls(monkeypatch, jets.derivative)
    assert cli.main(["symmetries", "--samples", "5"]) == 0
    capsys.readouterr()
    # of the 6 x 20 slots (d/dx, d/dt and the 18 jet variables of each
    # residual), only the 39 variables the residuals hold are derived,
    # once each and shared by the seven generators
    assert len(calls) == 39
    assert sum(len(p) for p in sys.partials) == 39


def test_jet_partials_equal_every_partial_taken():
    from walkerkit.expr import partial
    for sys in (jets.system2(), jets.system_a7()):
        for r, partials in zip(sys.residuals, sys.partials):
            dx, dt, slots = reference_jets.jet_partials(r, sys.deps)
            want = {"x": dx, "t": dt, **slots}
            assert want == {"x": partial(r, coord("x")),
                            "t": partial(r, coord("t")),
                            **{(f, j): partial(r, funcsym(f, j, sys.deps))
                               for f, j in jets._JET_SLOTS}}
            assert dict(partials) == {v: jets.jet_poly(d)
                                      for v, d in want.items() if d != ZERO}


def test_second_symmetry_check_takes_no_partial(monkeypatch):
    sys = jets.system2()
    jets.symmetry_check(la.BASIS[2], sys, samples=5, seed=11)
    calls = _count_calls(monkeypatch, nodes.partial)
    rep = jets.symmetry_check(la.BASIS[5], sys, samples=5, seed=11)
    assert rep.passed
    assert calls == []


@pytest.mark.parametrize("command", ["symmetries", "equivalence-probe"])
def test_default_flags_decide_without_floats(monkeypatch, capsys, command):
    from walkerkit import cli
    evaluated = _count_calls(monkeypatch, numeric.eval_expr)
    drawn = _count_calls(monkeypatch, jets.on_shell_sample)
    assert cli.main([command]) == 0
    capsys.readouterr()
    assert evaluated == [] and drawn == []


BOGUS = la.VectorField((coord("x"), ZERO, ZERO, ZERO, ZERO))


@pytest.mark.parametrize("system", [jets.system2, jets.system_a7])
def test_on_shell_map_equals_the_tree_map(system):
    sys = system()
    tree = reference_jets.on_shell(sys)
    assert [jets.JET_VARS[n] for n in sys.on_shell] == [
        (a.name, a.idx) for a in tree]
    for (n, value), want in zip(sys.on_shell.items(), tree.values()):
        assert _by_name(jets.to_expr(value, sys.deps)) == _by_name(want), n


@pytest.mark.parametrize("deps", [PLANE_DEPS, jets.ALL_DEPS])
def test_prolongation_equals_the_tree_prolongation(deps):
    for gen in la.BASIS + (BOGUS,):
        pro = jets.prolong2(gen)
        tree = reference_jets.prolong2(gen, deps)
        assert [jets.to_expr(pro[v], deps) for v in "xt"] == list(tree.xi)
        assert set(pro) == {"x", "t"} | set(tree.phi)
        for key, want in tree.phi.items():
            assert _by_name(jets.to_expr(pro[key], deps)) == \
                _by_name(want), key


def test_cells_equal_the_tree_cells():
    # the negative control's nonzero cells too
    sys = jets.system2()
    for gen in la.BASIS + (BOGUS,):
        pro = jets.prolong2(gen)
        cells = [jets.to_expr(sys.solved(jets.prolonged_action(pro, p)),
                              sys.deps) for p in sys.partials]
        for got, want in zip(cells,
                             reference_jets.symmetry_cells(gen, sys)):
            assert _by_name(got) == _by_name(want)
        assert all(c == ZERO for c in cells) == (gen is not BOGUS)


def test_a_symmetry_check_builds_no_tree(monkeypatch):
    # once the system is built, a check derives, substitutes and expands
    # no expression
    sys = jets.system2()
    jets.symmetry_check(la.BASIS[0], sys, samples=5)
    calls = [_count_calls(monkeypatch, f) for f in (
        nodes.diff, nodes.partial, nodes.substitute, nodes.substitute_all,
        expand.expand_poly)]
    for gen in la.BASIS + (BOGUS,):
        jets.symmetry_check(gen, sys, samples=5, seed=11)
    assert calls == [[]] * 5


@pytest.mark.parametrize("text", ["exp(x)", "ln(a)", "c1*x", "x^(1/2)",
                                  "1/(a + b)", "sqrt(3)*a", "x^257",
                                  "(x^40 + a)^8", "y", "1/t", "a_1"])
def test_a_field_that_is_not_polynomial_fails_cleanly(text):
    # symmetry_check and bracket share one definition of a vector field,
    # so both refuse it with the same message
    f = {"a": PLANE_DEPS, "b": PLANE_DEPS, "c": PLANE_DEPS}
    field = la.VectorField((parse(text, functions=f), ZERO, ZERO, ZERO,
                            ZERO))
    with pytest.raises(ExprError) as checked:
        jets.symmetry_check(field, samples=5)
    with pytest.raises(ExprError) as bracketed:
        la.bracket(field, la.BASIS[0])
    assert str(checked.value) == str(bracketed.value)


def test_on_shell_map_rejects_a_pivot_that_is_not_a_monomial():
    funcs = {f: PLANE_DEPS for f in jets.FIBER}
    system = jets.PDESystem(
        "sum pivot", (parse("(a + b)*a_11 - c", functions=funcs),),
        PLANE_DEPS, (("a_11", 0),))
    with pytest.raises(ExprError, match="not a monomial"):
        system.on_shell


def test_jet_polynomial_round_trip():
    # a Laurent monomial packs its negative exponent, and the inverse of
    # a monomial is its negation
    f = {"a": PLANE_DEPS, "b": PLANE_DEPS, "c": PLANE_DEPS}
    e = parse("3/2*a^(-2)*b_12*x - c_22^3/t + 5", functions=f)
    p = jets.jet_poly(e)
    assert jets.to_expr(p, PLANE_DEPS) == e
    (k, c), = jets.jet_poly(parse("a^2*t", functions=f)).items()
    assert jets.pmul({k: c}, {-k: 1}) == {0: 1}
