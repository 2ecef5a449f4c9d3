"""Prolongation and on-shell checks.

Two independent oracles pin the recursion: the characteristic form
phi^J = D_J(Q) + xi^i u_{J,i} with Q = phi - xi^1 u_1 - xi^2 u_2, and
finite-difference transport of concrete polynomial jets along explicit
one-parameter flows.
"""

import math
import random

import pytest

from walkerkit.expr import (
    PLANE_DEPS, ZERO, add, coord, diff, eval_expr, funcsym,
    is_zero_symbolic, mul, neg, num, parse,
)
from walkerkit import jets
from walkerkit import liealg as la


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
                got = pro.phi[(fname, j)]
                assert is_zero_symbolic(add(got, neg(want))), (fname, j)


def test_prolongation_hand_values():
    f = {"a": PLANE_DEPS, "b": PLANE_DEPS, "c": PLANE_DEPS}
    x5 = jets.prolong2(la.BASIS[4])
    assert x5.phi[("a", (1,))] == parse("2*c_1", functions=f)
    assert x5.phi[("a", (2,))] == parse("2*c_2 - a_1", functions=f)
    assert x5.phi[("a", (2, 2))] == parse("2*c_22 - 2*a_12", functions=f)
    x3 = jets.prolong2(la.BASIS[2])
    assert x3.phi[("b", (1,))] == parse("-3*b_1", functions=f)
    x7 = jets.prolong2(la.BASIS[6])
    assert x7.phi[("a", (1, 1))] == parse("a_11", functions=f)
    x1 = jets.prolong2(la.BASIS[0])
    assert all(e == ZERO for e in x1.phi.values() if e is not None)


def test_mixed_prolongation_paths_commute():
    for gen in la.BASIS:
        pro = jets.prolong2(gen)
        for fname in jets.FIBER:
            via_12 = jets._step(pro.phi[(fname, (1,))], pro.xi, fname,
                                (1,), 2, PLANE_DEPS)
            via_21 = jets._step(pro.phi[(fname, (2,))], pro.xi, fname,
                                (2,), 1, PLANE_DEPS)
            assert is_zero_symbolic(add(via_12, neg(via_21)))


def test_prolongation_linearity():
    combo = la.BASIS[2] + la.BASIS[4].scale(num(2))
    pro_combo = jets.prolong2(combo)
    p3 = jets.prolong2(la.BASIS[2])
    p5 = jets.prolong2(la.BASIS[4])
    for key, e in pro_combo.phi.items():
        want = add(p3.phi[key], mul(num(2), p5.phi[key]))
        assert is_zero_symbolic(add(e, neg(want)))


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
    got = eval_expr(pro.phi[("b", (1,))], vals)

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
    assert abs(eval_expr(pro.phi[("c", (1,))], vals) - fd1) < 1e-8
    assert abs(eval_expr(pro.phi[("c", (2,))], vals) - fd2) < 1e-8


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
        atom = jets._parse_atom(name, sys.deps)
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


def test_translation_action_is_identically_zero():
    sys = jets.system2()
    pro = jets.prolong2(la.BASIS[0])
    for r in sys.residuals:
        assert jets.prolonged_action(pro, r) == ZERO


def test_negative_control_fails():
    sys = jets.system2()
    bogus = la.VectorField((coord("x"), ZERO, ZERO, ZERO, ZERO))
    rep = jets.symmetry_check(bogus, sys, samples=25, seed=11,
                              label="x*d/dx")
    assert not rep.passed
    assert rep.max_residual > 1e-3
    failing = [c for c in rep.cells if not c.passed]
    assert failing and failing[0].witness is not None


def test_non_finite_residual_fails_its_cell(monkeypatch):
    # NaN > worst is False, so a NaN residual must not be skipped
    sys = jets.system2()
    points = jets.on_shell_points(12, 11, sys)
    bad = points[5].values
    compile_expr = jets.compile_expr

    def nan_at_bad(e):
        f = compile_expr(e)
        return lambda p: (math.nan, 1.0) if p is bad else f(p)

    monkeypatch.setattr(jets, "compile_expr", nan_at_bad)
    rep = jets.symmetry_check(la.BASIS[0], sys, samples=12, seed=11)
    assert not rep.passed
    for cell in rep.cells:
        assert not cell.passed and cell.witness is bad
        assert cell.max_residual == math.inf


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


def test_symmetries_draw_each_jet_once(monkeypatch, capsys):
    from walkerkit import cli
    drawn = []
    sample = jets.on_shell_sample

    def counted(*args, **kwargs):
        drawn.append(1)
        return sample(*args, **kwargs)

    monkeypatch.setattr(jets, "on_shell_sample", counted)
    # a seed no other test draws at, so no set is cached yet
    assert cli.main(["symmetries", "--samples", "20", "--seed",
                     "730501"]) == 0
    capsys.readouterr()
    # seven generators share one draw of 20 jets, not 7 x 20
    assert len(drawn) == 20
