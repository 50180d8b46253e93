import math

import numpy as np
import pytest

from carnot import catalog
from carnot.algebra import GroupElement
from carnot.curves import (HorizontalControl, SampledCurve, decay_order,
                           group_riemann_sum, horizontal_lift, is_horizontal,
                           lift_layer_bound, make_control, pansu_quotient,
                           pansu_quotient_norms, riemann_limit, sup_average,
                           variation, verify_ac_lip_characterization)
from carnot.metric import koranyi


def identity_of(g):
    return GroupElement(g, np.zeros(g.dim))


def test_constant_control_is_one_parameter_subgroup(h1):
    c = make_control(h1, "line", direction=[1.0, 0.0])
    curve = horizontal_lift(c, identity_of(h1), steps=64)
    assert np.allclose(curve.coords[-1], [1.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(curve.coords[:, 1:], 0.0, atol=1e-12)


def test_square_loop_area(h1):
    c = make_control(h1, "square")
    curve = horizontal_lift(c, identity_of(h1), steps=400)
    assert abs(curve.coords[-1][2] - 1.0) <= 1e-8
    assert np.max(np.abs(curve.coords[-1][:2])) <= 1e-10
    assert is_horizontal(curve, tol=1e-6).ok


def test_parabola_vertical_growth(h1):
    c = make_control(h1, "parabola")
    curve = horizontal_lift(c, identity_of(h1), steps=400)
    assert abs(curve.coords[-1][2] - 1.0 / 6.0) <= 1e-8
    # gamma_2(t) = t^3 / 6 along the way
    k = len(curve.ts) // 2
    t = curve.ts[k]
    assert abs(curve.coords[k][2] - t ** 3 / 6) <= 1e-8


def test_lift_requires_horizontal_control(h1):
    bad = make_control(h1, "line", direction=[1.0, 0.0])
    bad.fn = lambda t: np.array([1.0, 0.0, 0.0])  # wrong length: leaves layer 1
    with pytest.raises(ValueError, match="layer 1"):
        horizontal_lift(bad, identity_of(h1), steps=16)


def test_is_horizontal_flags_vertical_curve(h1):
    ts = np.linspace(0, 1, 101)
    vert = SampledCurve(h1, ts, np.stack([0 * ts, 0 * ts, ts], axis=1))
    rep = is_horizontal(vert, tol=1e-6)
    assert not rep.ok and rep.max_residual == pytest.approx(1.0, rel=1e-9)
    line = SampledCurve(h1, ts, np.stack([ts, 0 * ts, 0 * ts], axis=1))
    assert is_horizontal(line).max_residual <= 1e-12
    with pytest.raises(ValueError):
        is_horizontal(SampledCurve(h1, [0, 1], np.zeros((2, 3))))


def test_is_horizontal_reads_accurate_circle_lifts(h1, f23):
    # the residual of an accurate lift is far below the tolerance: the
    # velocity is taken to fourth order, so the check does not measure its
    # own difference error (at 512 steps a central difference read 3e-6 on
    # h1 and 1e-5 on free_2_4, above the default 1e-6)
    for g in (h1, f23, catalog.get("free_2_4")):
        for steps in (512, 1024):
            curve = horizontal_lift(make_control(g, "circle"), identity_of(g), steps=steps)
            rep = is_horizontal(curve)
            assert rep.ok, (g.name, steps, rep.max_residual)
    ts = np.linspace(0, 1, 4)
    with pytest.raises(ValueError, match="5 samples"):
        is_horizontal(SampledCurve(h1, ts, np.zeros((4, 3))))


def test_is_horizontal_excludes_stencils_across_an_off_grid_breakpoint(h1):
    # a horizontal corner whose breakpoint b falls between grid nodes: the
    # node 1.8 cells past b has a five-point stencil that reaches across it
    from carnot.bch import group_product_np
    ts, b = np.linspace(0, 2, 201), 1.002
    turn = group_product_np(h1, [b, 0, 0],
                            np.stack([0 * ts, np.maximum(ts - b, 0), 0 * ts], axis=1))
    coords = np.where((ts <= b)[:, None], np.stack([ts, 0 * ts, 0 * ts], axis=1), turn)
    corner = HorizontalControl(lambda t: np.where((t < b)[:, None], [1.0, 0.0], [0.0, 1.0]),
                               (0.0, 2.0), "piecewise", breakpoints=(b,))
    assert is_horizontal(SampledCurve(h1, ts, coords, control=corner)).max_residual <= 1e-12
    assert not is_horizontal(SampledCurve(h1, ts, coords)).ok
    # segments of different spacing: a 4-cell middle segment (h = 5e-4)
    # between outer ones of h ~ 2e-3; a coarse node just past 0.502 has a
    # stencil that reaches back across that corner, so a rule in multiples
    # of the smallest spacing would keep it
    zigzag = HorizontalControl(
        lambda t: np.where((t < 0.5)[:, None], [1.0, 0.0],
                           np.where((t < 0.502)[:, None], [0.0, 1.0], [-1.0, 0.0])),
        (0.0, 1.0), "piecewise", breakpoints=(0.5, 0.502))
    lift = horizontal_lift(zigzag, identity_of(h1), steps=256)
    assert np.ptp(np.diff(lift.ts)) > 1e-3
    assert is_horizontal(lift).max_residual <= 1e-12


def test_pansu_quotient(h1):
    line = make_control(h1, "line", direction=[1.0, 0.0])
    lc = horizontal_lift(line, identity_of(h1), steps=64)
    q = pansu_quotient(lc, 0.25, 0.1)
    assert np.max(np.abs(q)) <= 1e-10
    circ = make_control(h1, "circle")
    crv = horizontal_lift(circ, identity_of(h1), steps=1024)
    hs = [1e-1, 1e-2, 1e-3, 1e-4]
    vals = pansu_quotient_norms(crv, 0.5, hs)
    assert decay_order(hs, vals) >= 1.0 - 1e-3
    with pytest.raises(ValueError):
        pansu_quotient(crv, 0.5, 100.0)


def test_sup_average():
    ts = np.linspace(0, 1, 1001)
    const = np.full_like(ts, 3.0)
    assert sup_average(ts, const, 0.0, 1.0) == pytest.approx(3.0)
    # monotone increasing integrand: the sup is the full-window mean
    inc = ts.copy()
    assert sup_average(ts, inc, 0.0, 1.0) == pytest.approx(0.5, abs=1e-6)
    # small windows approach the left endpoint value at continuity points
    assert sup_average(ts, inc, 0.5, 1e-3) == pytest.approx(0.5, abs=1e-3)
    with pytest.raises(ValueError):
        sup_average(ts, inc, 0.9, 0.5)


def test_riemann_sum_and_limit(h1):
    ts = np.linspace(0, 1, 2001)
    # straight line (t, t, 0): bracket term vanishes identically
    line = SampledCurve(h1, ts, np.stack([ts, ts, 0 * ts], axis=1))
    assert np.allclose(riemann_limit(line), [1.0, 1.0, 0.0], atol=1e-9)
    # single-interval partition telescopes to the endpoint difference
    parab = SampledCurve(h1, ts, np.stack([ts, ts ** 2, 0 * ts], axis=1))
    one = group_riemann_sum(parab, [0.0, 1.0])
    assert np.allclose(one, [1.0, 1.0, 0.0], atol=1e-12)  # (-g(0)) o g(1)
    lim = riemann_limit(parab)
    assert np.allclose(lim, [1.0, 1.0, -1.0 / 6.0], atol=1e-6)
    meshes = [1 / 8, 1 / 16, 1 / 32, 1 / 64]
    errs = [np.linalg.norm(group_riemann_sum(parab, np.arange(0, 1 + m / 2, m))
                           - np.array([1, 1, -1 / 6])) for m in meshes]
    assert decay_order(meshes, errs) >= 1.0
    with pytest.raises(ValueError):
        group_riemann_sum(parab, [0.5, 0.25])


def test_variation(h1):
    K = koranyi(h1)
    line = make_control(h1, "line", direction=[1.0, 0.0])
    seg = horizontal_lift(line, identity_of(h1), steps=128)
    v = variation(seg, K)
    assert v["partition"] == pytest.approx(1.0, abs=1e-9)
    assert v["first_layer_integral"] == pytest.approx(1.0, abs=1e-12)
    assert v["horizontal"]
    circ = make_control(h1, "circle")
    crv = horizontal_lift(circ, identity_of(h1), steps=2048)
    v2 = variation(crv, K)
    assert v2["agreement"] <= 1e-4
    assert v2["first_layer_integral"] == pytest.approx(2 * math.pi, rel=1e-6)
    # reparametrization invariance of the partition method: the same circle
    # run at double speed over half the time has the same variation
    fast = make_control(h1, "circle")
    fast.fn = lambda t: np.stack([-2 * np.sin(2 * t), 2 * np.cos(2 * t)], axis=-1)
    fast.domain = (0.0, math.pi)
    crv_fast = horizontal_lift(fast, identity_of(h1), steps=2048)
    v3 = variation(crv_fast, K)
    assert v3["partition"] == pytest.approx(v2["partition"], rel=1e-4)
    # vertical (non-horizontal) curve: methods legitimately disagree, flagged
    ts = np.linspace(0, 1, 257)
    vert = SampledCurve(h1, ts, np.stack([0 * ts, 0 * ts, ts], axis=1))
    v4 = variation(vert, K)
    assert not v4["horizontal"] and v4["agreement"] > 0.5


def test_ac_lip_characterization(h1):
    K = koranyi(h1)
    line = make_control(h1, "line", direction=[0.6, 0.8])
    seg = horizontal_lift(line, identity_of(h1), steps=256)
    rep = verify_ac_lip_characterization(seg, K)
    assert rep.group_lipschitz_compatible
    assert rep.lip_gamma1 == pytest.approx(1.0, rel=1e-9)
    assert rep.lip_curve > 0 and math.isfinite(rep.ratio_upper)
    ts = np.linspace(0, 1, 257)
    vert = SampledCurve(h1, ts, np.stack([0 * ts, 0 * ts, ts], axis=1))
    rep2 = verify_ac_lip_characterization(vert, K)
    assert not rep2.group_lipschitz_compatible


def test_left_translation_invariance(h1, rng):
    from carnot.bch import group_product_np
    circ = make_control(h1, "circle")
    g0 = rng.standard_normal(3)
    base = horizontal_lift(circ, identity_of(h1), steps=256)
    moved = horizontal_lift(circ, GroupElement(h1, g0), steps=256)
    translated = group_product_np(h1, g0, base.coords)
    assert np.max(np.abs(translated - moved.coords)) <= 1e-9


def test_dilation_covariance(h1):
    from carnot.algebra import dilate
    circ = make_control(h1, "circle")
    base = horizontal_lift(circ, identity_of(h1), steps=256)
    r = 1.7
    scaled = make_control(h1, "circle", radius=r)
    lifted = horizontal_lift(scaled, identity_of(h1), steps=256)
    ops = h1.float_ops()
    dilated = ops.dilate(base.coords, r)
    assert np.max(np.abs(dilated - lifted.coords)) <= 1e-9


def test_lift_layer_bound(h1):
    circ = make_control(h1, "circle")
    c = lift_layer_bound(circ, h1, [0.1, 0.2, 0.4, 0.8], steps=512)
    assert math.isfinite(c.sup_observed) and c.sup_observed > 0


def test_step3_lift_consistency(f23):
    # lifts in groups of step 3 and 4, smooth and piecewise, stay horizontal
    for g in (f23, catalog.get("free_2_4")):
        for name in ("circle", "square"):
            curve = horizontal_lift(make_control(g, name), identity_of(g), steps=2048)
            assert is_horizontal(curve, tol=1e-5).ok, (g.name, name)


def test_lift_never_evaluates_control_at_cell_ends(h1):
    # a piecewise control need not be defined at its breakpoints or at the
    # ends of its domain: the lift only reads it inside the cells
    square = make_control(h1, "square")

    def fn(t):
        ends = np.isin(t, [0.0, 1.0, 2.0, 3.0, 4.0])
        if ends.any():
            raise ValueError("evaluated at %r" % t[ends])
        return square.fn(t)

    open_square = HorizontalControl(fn, square.domain, "piecewise", square.breakpoints)
    curve = horizontal_lift(open_square, identity_of(h1), steps=400)
    assert np.array_equal(curve.coords, horizontal_lift(square, identity_of(h1),
                                                         steps=400).coords)
    assert abs(curve.coords[-1][2] - 1.0) <= 1e-8


def test_lift_cocycle():
    # one lift over [0, 2 pi] equals the lift over [0, pi] continued from its
    # endpoint over [pi, 2 pi], on the same grid (300 steps: no power of two)
    g = catalog.get("free_2_4")
    whole = horizontal_lift(make_control(g, "circle"), identity_of(g), steps=300)
    first = horizontal_lift(make_control(g, "circle", domain=(0.0, math.pi)),
                            identity_of(g), steps=150)
    second = horizontal_lift(make_control(g, "circle", domain=(math.pi, 2 * math.pi)),
                             GroupElement(g, first.coords[-1]), steps=150)
    assert np.allclose(whole.ts, np.concatenate([first.ts, second.ts[1:]]),
                       rtol=0, atol=1e-14)
    assert np.allclose(whole.coords, np.concatenate([first.coords, second.coords[1:]]),
                       rtol=0, atol=1e-12)


def test_control_from_csv(tmp_path, h1):
    import os
    from carnot.curves import control_from_csv
    ts = np.linspace(0, 1, 101)
    rows = np.stack([ts, np.ones_like(ts), 2 * ts], axis=1)
    p = tmp_path / "ctrl.csv"
    np.savetxt(p, rows, delimiter=",", header="t,u1,u2", comments="")
    ctrl = control_from_csv(h1, str(p))
    curve = horizontal_lift(ctrl, identity_of(h1), steps=200)
    # same data as the parabola control
    assert abs(curve.coords[-1][2] - 1.0 / 6.0) <= 1e-6


def test_sup_average_negative_window():
    from carnot.curves import sup_average
    ts = np.linspace(0, 1, 2001)
    vals = ts.copy()  # increasing
    # backward window from t = 1: means over [1 - s, 1] decrease toward the
    # left-endpoint value as s grows; the sup is the short-window limit
    back = sup_average(ts, vals, 1.0, -1.0)
    assert back == pytest.approx(1.0, abs=2e-3)
    # constant integrand: both directions give the constant
    const = np.full_like(ts, 2.5)
    assert sup_average(ts, const, 0.7, -0.5) == pytest.approx(2.5)


def test_sup_average_empty_window():
    # [0.3, 0.35] lies between the samples 0.25 and 0.5: a typed error naming
    # the window, in both directions
    ts = np.linspace(0, 1, 5)
    with pytest.raises(ValueError, match=r"window \[0\.3, 0\.35"):
        sup_average(ts, ts, 0.3, 0.05)
    with pytest.raises(ValueError, match="no grid point"):
        sup_average(ts, ts, 0.35, -0.05)


def test_eval_on_arrays_matches_scalar_eval(h1):
    curve = horizontal_lift(make_control(h1, "circle"), identity_of(h1))
    ts = np.linspace(-0.5, 7.0, 37)  # the ends lie outside the domain
    batch = curve.eval(ts)
    assert batch.shape == (37, 3) and curve.eval(ts[:, None]).shape == (37, 1, 3)
    assert all(np.array_equal(batch[i], curve.eval(t)) for i, t in enumerate(ts))


def _gauss_nodes(domain, cells):
    """The two Gauss points of every cell of a uniform grid, as the lift
    reads the control."""
    ts = np.linspace(domain[0], domain[1], cells + 1)
    mid, off = 0.5 * (ts[:-1] + ts[1:]), math.sqrt(3.0) / 6.0 * (ts[1] - ts[0])
    return np.concatenate([mid - off, mid + off])


def _scalar_control(name, t, r=1.0):
    """The built-in controls one time at a time, in math and Python branches."""
    if name == "line":
        return [1.0, 0.0]
    if name == "circle":
        return [-r * math.sin(t), r * math.cos(t)]
    if name == "parabola":
        return [1.0, 2.0 * t]
    s = t % 4.0
    return [1.0, 0.0] if s < 1 else [0.0, 1.0] if s < 2 else [-1.0, 0.0] if s < 3 \
        else [0.0, -1.0]


def test_array_controls_equal_the_scalar_formulas(h1):
    # one call maps all 1200 Gauss nodes of a 600-cell grid; line, square and
    # parabola match the scalar formulas bit for bit.  The circle goes
    # through np.sin/np.cos instead of math.sin/math.cos: 0 ulp apart on
    # x86-64 with AVX-512 (numpy 2.4.6), and held to 1 ulp here
    for name, r in (("line", 1.0), ("square", 1.0), ("parabola", 1.0), ("circle", 1.0),
                    ("circle", 1.7)):
        control = make_control(h1, name, radius=r) if name == "circle" \
            else make_control(h1, name)
        nodes = _gauss_nodes(control.domain, 600)
        got = control(nodes)
        want = np.array([_scalar_control(name, t, r) for t in nodes])
        assert got.shape == (1200, 2), name
        if name == "circle":
            assert np.all(np.abs(got - want) <= np.spacing(np.abs(want))), r
        else:
            assert np.array_equal(got, want), name
    # a square time that t % 4 rounds up to 4.0 stays on the last side
    assert (-1e-20) % 4.0 == 4.0
    assert make_control(h1, "square")(-1e-20).tolist() == [0.0, -1.0]


def test_scalar_control_call_returns_one_velocity(h1, h2):
    for g in (h1, h2):
        m = len(g.layer_indices(1))
        for name in ("line", "circle", "square", "parabola"):
            control = make_control(g, name)
            assert control(0.3).shape == (m,), (g.name, name)
            assert control(np.array([0.3, 1.2])).shape == (2, m), (g.name, name)
            assert np.array_equal(control(1.2), control(np.array([0.3, 1.2]))[1])
    assert make_control(h2, "circle")(0.0).tolist() == [0.0, 1.0, 0.0, 0.0]


@pytest.mark.parametrize("name, params, message", [
    ("circle", {"radius": float("nan")}, "radius must be finite"),
    ("circle", {"radius": float("inf")}, "radius must be finite"),
    ("line", {"direction": [1.0, float("nan")]}, "direction needs 2 finite numbers"),
    ("line", {"direction": ["a", 1.0]}, "direction needs 2 finite numbers"),
    ("parabola", {"domain": (0.0, float("inf"))}, "domain must be finite"),
    ("circle", {"domain": (-float("inf"), 1.0)}, "domain must be finite"),
    (["circle"], {}, "unknown control")])
def test_bad_control_input_raises_value_error(h1, name, params, message):
    # a non-finite parameter once reached the lift, where numpy overflowed
    # and the error named no parameter
    with pytest.raises(ValueError, match=message):
        horizontal_lift(make_control(h1, name, **params), identity_of(h1), steps=8)
