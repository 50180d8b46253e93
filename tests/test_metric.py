import math
import re
from fractions import Fraction as Q

import numpy as np
import pytest

from carnot import catalog
from carnot.algebra import (BLOCK_POINTS, GradedAlgebra, GroupElement, dilate,
                            draw_until, homogeneous_dimension, unit_vectors)
from carnot.bch import group_product, group_product_np
from carnot.metric import (HomogeneousMetric, ball_layer_squares,
                           default_metric, direction_layer_squares, distance,
                           first_layer_constant,
                           first_layer_lower_bound, generating_word, koranyi,
                           left_inverse_estimate, norm_exp_estimate,
                           quasi_norm, quasi_triangle_constant, sample_ball,
                           sample_box, solve_word, sphere_point,
                           standard_word_system,
                           verify_conjugation_estimate,
                           verify_product_estimate,
                           verify_projection_estimate, weighted_max,
                           word_constant)


def test_koranyi_values(h1):
    K = koranyi(h1)
    assert quasi_norm(GroupElement(h1, [0, 0, 1]), K) == pytest.approx(2.0)
    assert quasi_norm(GroupElement(h1, [1, 0, 0]), K) == pytest.approx(1.0)
    x = GroupElement(h1, [1.0, 2.0, 3.0])
    assert distance(x, x, K) == 0.0


def test_metric_mismatch(h1, h2):
    K = koranyi(h1)
    with pytest.raises(ValueError):
        quasi_norm(GroupElement(h2, np.zeros(5)), K)


def test_homogeneity_and_symmetry(h1, rng):
    K = koranyi(h1)
    for _ in range(20):
        x = GroupElement(h1, rng.standard_normal(3))
        y = GroupElement(h1, rng.standard_normal(3))
        r = float(rng.uniform(0.1, 3.0))
        lhs = distance(dilate(x, r), dilate(y, r), K)
        assert lhs == pytest.approx(r * distance(x, y, K), rel=1e-12)
        assert distance(x, y, K) == pytest.approx(distance(y, x, K), rel=1e-12)
        assert quasi_norm(-x, K) == pytest.approx(quasi_norm(x, K), rel=1e-15)


def test_left_invariance(h12, rng):
    K = koranyi(h12)
    for _ in range(10):
        x = GroupElement(h12, rng.standard_normal(6)).to_float()
        y = GroupElement(h12, rng.standard_normal(6)).to_float()
        z = GroupElement(h12, rng.standard_normal(6)).to_float()
        lhs = distance(group_product(z, x), group_product(z, y), K)
        assert lhs == pytest.approx(distance(x, y, K), rel=1e-12)


def test_weighted_max(h1, rng):
    W = weighted_max(h1)
    assert quasi_norm(GroupElement(h1, [0, 0, 4]), W) == pytest.approx(2.0)
    for _ in range(10):
        x = GroupElement(h1, rng.standard_normal(3))
        r = float(rng.uniform(0.2, 2.5))
        assert quasi_norm(dilate(x, r), W) == pytest.approx(
            r * quasi_norm(x, W), rel=1e-12)
    # quasi-triangle constant is finite and stable-ish; reported, not assumed
    c = quasi_triangle_constant(W, samples=1500, seed=0)
    assert math.isfinite(c.sup_observed) and c.sup_observed < 5


def test_koranyi_true_distance_sampled(h1, h12):
    for g in (h1, h12):
        c = quasi_triangle_constant(koranyi(g), samples=2500, seed=1)
        assert c.sup_observed <= 1.0 + 1e-9


def test_first_layer_lower_bound(h1, rng):
    K = koranyi(h1)
    x = GroupElement(h1, [0.0, 0.0, 1.0]).to_float()
    y = GroupElement(h1, [0.0, 0.0, -0.4]).to_float()
    assert first_layer_lower_bound(x, y, K) == 0.0
    with pytest.raises(ValueError):
        first_layer_lower_bound(x, x, K)
    c = first_layer_constant(K, samples=1500, seed=2)
    assert math.isfinite(c.sup_observed)
    # dilation invariance of the ratio
    a = GroupElement(h1, rng.standard_normal(3)).to_float()
    b = GroupElement(h1, rng.standard_normal(3)).to_float()
    r0 = first_layer_lower_bound(a, b, K)
    r2 = first_layer_lower_bound(dilate(a, 2.0), dilate(b, 2.0), K)
    assert r0 == pytest.approx(r2, rel=1e-9)


def test_projection_estimate(h1):
    K = koranyi(h1)
    consts = verify_projection_estimate(K, radius=1.0, samples=4000, seed=0)
    assert len(consts) == 2
    assert [c.samples for c in consts] == [4000, 4000]  # every sample is a ball point
    # vertical points realize ratio 1/4 for the layer >= 2 tail
    assert consts[1].sup_observed <= 0.25 + 1e-9
    z = np.array([0.0, 0.0, 0.7])
    assert abs(0.7 / float(K.quasi_norm_np(z)) ** 2 - 0.25) < 1e-12


def _replay_ball_layer_norms(metric, r, n, rng):
    """The layer norms that verify_projection_estimate draws for n points of
    the gauge ball of radius r, shape (n, step), replayed from the law in
    sample_ball's docstring: Koranyi s ~ Beta(m/4, k/2 + 1), |x_1| =
    r s^{1/4}, then |x_2| = r^2 sqrt(1 - s) / 4 U^{1/k}; weighted max, per
    nonempty layer in order, |x_i| = r^i / w_i U_i^{1/d_i}."""
    alg = metric.algebra
    dims = [len(alg.layer_indices(i)) for i in range(1, alg.step + 1)]
    out = np.zeros((n, alg.step))
    if metric.kind == "koranyi":
        m, k = dims[0], dims[1] if alg.step == 2 else 0
        s = rng.beta(m / 4, k / 2 + 1, n)
        out[:, 0] = r * s ** 0.25
        if k:
            out[:, 1] = r ** 2 * np.sqrt(1 - s) / 4 * rng.uniform(size=n) ** (1 / k)
        return out
    for i, (d, w) in enumerate(zip(dims, metric.weights), start=1):
        if d:
            out[:, i - 1] = r ** i / w * rng.uniform(size=n) ** (1 / d)
    return out


def _points_with_layer_norms(alg, norms):
    """Points, shape (n, dim), whose layer i is norms[:, i - 1] times the
    first basis vector of layer i."""
    pts = np.zeros((len(norms), alg.dim))
    for i in range(1, alg.step + 1):
        idx = alg.layer_indices(i)
        if idx:
            pts[:, idx[0]] = norms[:, i - 1]
    return pts


@pytest.mark.parametrize("name", ["h1", "g42", "free_2_4"])
def test_layer_norms_and_tails_match_masked_norms(name):
    # layer norms come from one pass over the squared coordinates and the
    # projection tails from the layer norms; the masked Euclidean norms are
    # the reference, up to summation order.  The projection estimate draws
    # only the layer norms of its ball points: replayed, they give points
    # with those layer norms
    g = catalog.get(name)
    ops = g.float_ops()
    x = np.random.default_rng(3).standard_normal((500, g.dim))
    ref = np.stack([np.linalg.norm(x * ops.layer_masks[i], axis=-1)
                    for i in range(1, g.step + 1)], axis=-1)
    assert np.allclose(np.sqrt(ops.layer_squares(x)), ref, rtol=1e-14, atol=0)
    m = default_metric(g)
    consts = verify_projection_estimate(m, radius=1.0, samples=500, seed=1)
    pts = _points_with_layer_norms(g, _replay_ball_layer_norms(
        m, 1.0, 500, np.random.default_rng(1)))
    norms = m.quasi_norm_np(pts)
    for i, c in enumerate(consts, start=1):
        tails = np.linalg.norm(ops.project_tail(pts, i), axis=-1)
        assert c.sup_observed == pytest.approx(float(np.max(tails / norms ** i)),
                                               rel=1e-12)


def _layer_tables():
    """Every catalog group, a table whose layers interleave and one with an
    empty layer."""
    for name in catalog.catalog_names():
        yield catalog.get(name)
    yield GradedAlgebra("interleaved", [1, 2, 1], {(0, 2): {1: 1}})
    yield GradedAlgebra("gap", [1, 1, 3], {})


@pytest.mark.parametrize("g", list(_layer_tables()), ids=lambda g: g.name)
def test_layer_squares_match_masked_reference(g):
    # each layer adds its squared coordinate columns in index order: bit for
    # bit that loop, in either memory order, on one point and on a (m, n,
    # dim) batch; the masked squared norms up to summation order
    ops = g.float_ops()
    x = np.random.default_rng(4).standard_normal((300, g.dim))
    loop = np.zeros((300, g.step))
    for k, layer in enumerate(g.layer_of):
        loop[:, layer - 1] += x[:, k] * x[:, k]
    for batch in (x, np.asfortranarray(x)):
        got = ops.layer_squares(batch)
        assert got.shape == (300, g.step) and np.array_equal(got, loop)
    assert np.array_equal(ops.layer_squares(x[7]), loop[7])
    assert np.array_equal(ops.layer_squares(x.reshape(30, 10, g.dim)),
                          loop.reshape(30, 10, g.step))
    masked = np.stack([np.sum(np.square(x * ops.layer_masks[i]), axis=-1)
                       for i in range(1, g.step + 1)], axis=-1)
    assert np.allclose(got, masked, rtol=1e-14, atol=0)
    assert np.array_equal(np.sqrt(ops.layer_squares(x)), np.sqrt(loop))


def _gauge_reference(metric, x):
    """The gauge by its ** formula: (|x_1|^4 + 16 |x_2|^2)^{1/4} or
    max_i (w_i |x_i|)^{1/i}, from the masked layer norms."""
    alg = metric.algebra
    ops = alg.float_ops()
    ln = np.stack([np.linalg.norm(x * ops.layer_masks[i], axis=-1)
                   for i in range(1, alg.step + 1)], axis=-1)
    if metric.kind == "koranyi":
        n2 = ln[..., 1] if alg.step >= 2 else 0.0
        return (ln[..., 0] ** 4 + 16.0 * n2 ** 2) ** 0.25
    return np.max(np.stack([(w * ln[..., i - 1]) ** (1.0 / i)
                            for i, w in enumerate(metric.weights, start=1)], axis=-1),
                  axis=-1)


def _gauge_metrics():
    # free_2_5 and free_2_6 reach the ** (1 / i) branch above layer 4
    for name in list(catalog.catalog_names()) + ["free_2_5", "free_2_6"]:
        g = catalog.get(name)
        if g.step <= 2:
            yield koranyi(g)
        yield weighted_max(g, [1.0 + i / 2 for i in range(g.step)])


@pytest.mark.parametrize("metric", list(_gauge_metrics()), ids=repr)
def test_gauge_matches_power_formula(metric):
    # the gauge from the squared layer sums, by sqrt and cbrt, equals the **
    # formula to 1e-13 relative, over six decades of scale, at 0 and on
    # points in one layer
    g = metric.algebra
    rng = np.random.default_rng(6)
    x = rng.standard_normal((400, g.dim)) * 10.0 ** rng.uniform(-3, 3, (400, 1))
    x[0] = 0.0
    x[1] *= g.float_ops().layer_masks[g.step]
    want = _gauge_reference(metric, x)
    for batch in (x, np.asfortranarray(x)):
        assert np.allclose(metric.quasi_norm_np(batch), want, rtol=1e-13, atol=0)
    one = metric.quasi_norm_np(x[5])
    assert np.ndim(one) == 0 and one == pytest.approx(want[5], rel=1e-13)


def _estimate_metrics():
    yield koranyi(catalog.get("h1"))
    yield koranyi(catalog.get("g42"))
    yield weighted_max(catalog.get("free_2_4"), [1.0, 1.5, 2.0, 2.5])
    yield weighted_max(catalog.get("free_2_5"))


@pytest.mark.parametrize("metric", list(_estimate_metrics()), ids=repr)
def test_estimates_match_their_norm_formulas(metric):
    # each estimate that reads squared layer sums, or divides by the drawn
    # radius, equals the formula with one norm per use on the same draws;
    # the draws are replayed from the seed: each box sampler fills a (dim,
    # count) array, and the projection and gauge-vs-norm estimates draw
    # layer norms only
    alg, n, seed = metric.algebra, 600, 9
    ops = alg.float_ops()

    rng = np.random.default_rng(seed)
    pts = rng.uniform(-0.8, 0.8, size=(alg.dim, 2 * n)).T
    a, b = pts[:n], pts[n:]
    num = np.linalg.norm(ops.project_layer(a - b, 1), axis=-1)
    den = _gauge_reference(metric, group_product_np(alg, -a, b))
    mask = den > 1e-12
    got = first_layer_constant(metric, radius=0.8, samples=n, seed=seed)
    assert got.samples == mask.sum()
    assert got.sup_observed == pytest.approx(float(np.max(num[mask] / den[mask])),
                                             rel=1e-13)

    pts = _points_with_layer_norms(alg, _replay_ball_layer_norms(
        metric, 0.7, n, np.random.default_rng(seed)))
    norms = _gauge_reference(metric, pts)
    sq = np.square(np.stack([np.linalg.norm(pts * ops.layer_masks[i], axis=-1)
                             for i in range(1, alg.step + 1)], axis=-1))
    tails = np.sqrt(np.cumsum(sq[:, ::-1], axis=-1)[:, ::-1])
    got = verify_projection_estimate(metric, radius=0.7, samples=n, seed=seed)
    assert [c.samples for c in got] == [n] * alg.step
    for i, c in enumerate(got, start=1):
        assert c.sup_observed == pytest.approx(
            float(np.max(tails[:, i - 1] / norms ** i)), rel=1e-13)

    # the gauge-vs-norm estimate draws the layer shares |u_i|^2 of its unit
    # directions u, Gamma(d_i / 2) per nonempty layer over their sum (Z^2 / 2
    # from one standard normal Z on a one-dimensional layer), and then the
    # radii r: the point r u has layer norms r |u_i|
    rng = np.random.default_rng(seed)
    gam = np.zeros((n, alg.step))
    for i in range(1, alg.step + 1):
        d = len(alg.layer_indices(i))
        if d == 1:
            gam[:, i - 1] = rng.standard_normal(n) ** 2 / 2
        elif d:
            gam[:, i - 1] = rng.standard_gamma(d / 2, n)
    shares = gam / gam.sum(axis=-1, keepdims=True)
    r = rng.uniform(0.05, 0.9, n)
    pts = _points_with_layer_norms(alg, r[:, None] * np.sqrt(shares))
    want = np.max(_gauge_reference(metric, pts)
                  / np.linalg.norm(pts, axis=-1) ** (1.0 / alg.step))
    got = norm_exp_estimate(metric, nu=0.9, samples=n, seed=seed)
    assert got.samples == n and got.sup_observed == pytest.approx(float(want), rel=1e-13)

    rng = np.random.default_rng(seed)
    h = 0.9 / math.sqrt(alg.dim)
    xi, eta = (rng.uniform(-h, h, size=(alg.dim, n)).T for _ in range(2))
    num = np.linalg.norm(group_product_np(alg, -xi, eta), axis=-1)
    den = np.linalg.norm(xi - eta, axis=-1)
    mask = den > 1e-12
    got = left_inverse_estimate(metric, nu=0.9, samples=n, seed=seed)
    assert got.samples == mask.sum()
    assert got.sup_observed == pytest.approx(float(np.max(num[mask] / den[mask])),
                                             rel=1e-13)


def test_estimates_check_samples(h1):
    # one check at entry: a count that is not an integer >= 1 is a
    # ValueError naming samples, before any draw; the sampled bounds of bch
    # and pdiff share it
    from carnot import bch, pdiff
    from carnot.morphism import identity_morphism
    K = koranyi(h1)
    ws = standard_word_system(h1, K)
    f = pdiff.hom_map(identity_morphism(h1))
    estimates = [
        lambda n: bch.cn_difference_bound(h1, 2, 1.0, samples=n),
        lambda n: bch.bilinear_bound(h1, 2, samples=n),
        lambda n: pdiff.bilipschitz_bounds(f, np.zeros(3), samples=n),
        lambda n: first_layer_constant(K, samples=n),
        lambda n: verify_projection_estimate(K, samples=n),
        lambda n: norm_exp_estimate(K, samples=n),
        lambda n: left_inverse_estimate(K, samples=n),
        lambda n: verify_conjugation_estimate(K, samples=n),
        lambda n: verify_product_estimate(K, samples=n),
        lambda n: quasi_triangle_constant(K, samples=n),
        lambda n: word_constant(ws, samples=n),
    ]
    for run in estimates:
        for bad in (0, -3, 2.5, True, "10", None):
            with pytest.raises(ValueError, match="samples must be an integer >= 1"):
                run(bad)
        run(np.int64(3))


def _ball_metrics():
    """Both gauges (Koranyi up to step 2) on every catalog group, the
    interleaved table and the table with an empty layer."""
    for g in _layer_tables():
        if g.step <= 2:
            yield koranyi(g)
        yield weighted_max(g, [1.0 + i / 2 for i in range(g.step)])


@pytest.mark.parametrize("metric", list(_ball_metrics()), ids=repr)
def test_sample_ball_law(metric):
    # uniform on a homogeneous ball: (N(x)/r)^Q is Uniform(0, 1), Q the
    # homogeneous dimension; Kolmogorov-Smirnov at p ~ 0.001
    n = 20000
    hom = homogeneous_dimension(metric.algebra)
    rng = np.random.default_rng(11)
    for r in (1.0, 0.3):
        pts = sample_ball(metric, r, n, rng)
        assert pts.shape == (n, metric.algebra.dim) and pts.flags.f_contiguous
        norms = metric.quasi_norm_np(pts)
        assert np.all(norms <= r)
        u = np.sort((norms / r) ** hom)
        ks = max(np.max(np.arange(1, n + 1) / n - u), np.max(u - np.arange(n) / n))
        assert math.sqrt(n) * ks <= 1.95, (r, math.sqrt(n) * ks)
    empty = sample_ball(metric, 1.0, 0, rng)
    assert empty.shape == (0, metric.algebra.dim) and empty.flags.f_contiguous
    box = sample_box(metric.algebra, 1.0, 5, rng)
    assert box.shape == (5, metric.algebra.dim) and box.flags.f_contiguous


def _ks_uniform(u):
    """sqrt(n) times the Kolmogorov-Smirnov distance of the sample u to
    Uniform(0, 1)."""
    n, u = len(u), np.sort(u)
    return math.sqrt(n) * max(np.max(np.arange(1, n + 1) / n - u),
                              np.max(u - np.arange(n) / n))


def _ks_two_sample(a, b):
    """sqrt(n m / (n + m)) times the two-sample Kolmogorov-Smirnov distance."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    d = np.max(np.abs(np.searchsorted(a, grid, side="right") / len(a)
                      - np.searchsorted(b, grid, side="right") / len(b)))
    return math.sqrt(len(a) * len(b) / (len(a) + len(b))) * d


@pytest.mark.parametrize("metric", list(_ball_metrics()), ids=repr)
def test_ball_layer_squares_law(metric):
    # the squared layer norms that the projection estimate draws are those
    # of uniform ball points: (N/r)^Q is Uniform(0, 1), as in
    # test_sample_ball_law, and each layer's law is that of sample_ball's
    # layer_squares (two-sample KS); Kolmogorov-Smirnov at p ~ 0.001
    n, alg = 20000, metric.algebra
    hom = homogeneous_dimension(alg)
    rng = np.random.default_rng(12)
    for r in (1.0, 0.3):
        sq = ball_layer_squares(metric, r, n, rng)
        assert sq.shape == (n, alg.step) and sq.flags.f_contiguous
        norms = metric.quasi_norm_np(_points_with_layer_norms(alg, np.sqrt(sq)))
        assert np.all(norms <= r * (1 + 1e-12))
        assert _ks_uniform((norms / r) ** hom) <= 1.95, r
        ref = alg.float_ops().layer_squares(sample_ball(metric, r, n, rng))
        for i in range(1, alg.step + 1):
            if alg.layer_indices(i):
                assert _ks_two_sample(sq[:, i - 1], ref[:, i - 1]) <= 1.95, (r, i)
            else:
                assert not sq[:, i - 1].any()
    assert ball_layer_squares(metric, 1.0, 0, rng).shape == (0, alg.step)


@pytest.mark.parametrize("g", list(_layer_tables()) + [catalog.get("free_2_5")],
                         ids=lambda g: g.name)
def test_direction_layer_squares_law(g):
    # the layer shares that the gauge-vs-norm estimate draws, Gamma(d_i / 2)
    # over their sum, against the layer shares of normalised Gaussians: a
    # two-sample KS per layer and on the Koranyi-type statistic
    # s_1^2 + 16 s_2, at p ~ 0.001
    n = 20000
    rng = np.random.default_rng(13)
    got = direction_layer_squares(g, n, rng)
    u = rng.standard_normal((n, g.dim))
    ref = g.float_ops().layer_squares(u / np.linalg.norm(u, axis=-1, keepdims=True))
    assert got.shape == (n, g.step) and got.flags.f_contiguous
    assert np.allclose(got.sum(axis=-1), 1.0, rtol=1e-14, atol=0)
    for i in range(1, g.step + 1):
        if not g.layer_indices(i):
            assert not got[:, i - 1].any()
        elif g.step == 1:
            assert np.all(got[:, 0] == 1.0)
        else:
            assert _ks_two_sample(got[:, i - 1], ref[:, i - 1]) <= 1.95, i
    if g.step >= 2:
        stat = [s[:, 0] ** 2 + 16 * s[:, 1] for s in (got, ref)]
        assert _ks_two_sample(*stat) <= 1.95


@pytest.mark.parametrize("metric", list(_ball_metrics()), ids=repr)
def test_sample_ball_replays_its_documented_draws(metric):
    # sample_ball's stream, pinned bit for bit by replaying its docstring:
    # layer by layer the layer norms (the Koranyi split s first, one uniform
    # per uniform-ball layer), then d_i standard normals per point,
    # normalised by one column-sum reduction
    alg, n, r = metric.algebra, 257, 0.8
    got = sample_ball(metric, r, n, np.random.default_rng(14))
    rng = np.random.default_rng(14)
    want = np.zeros((alg.dim, n))

    def direction(d):
        g = rng.standard_normal((d, n))
        return g / np.sqrt(np.square(g).sum(axis=0))

    dims = [len(alg.layer_indices(i)) for i in range(1, alg.step + 1)]
    if metric.kind == "koranyi":
        m, k = dims[0], dims[1] if alg.step == 2 else 0
        s = rng.beta(m / 4, k / 2 + 1, size=n)
        want[alg.layer_indices(1)] = direction(m) * (r * s ** 0.25)
        if k:
            norms = r ** 2 * np.sqrt(1 - s) / 4 * rng.uniform(size=n) ** (1.0 / k)
            want[alg.layer_indices(2)] = direction(k) * norms
    else:
        for i, (d, w) in enumerate(zip(dims, metric.weights), start=1):
            if d:
                norms = r ** i / w * rng.uniform(size=n) ** (1.0 / d)
                want[alg.layer_indices(i)] = direction(d) * norms
    assert np.array_equal(got, want.T)


def test_estimates_check_radius(h1, monkeypatch):
    # one check at entry, beside the count check: a radius that is not a
    # finite number > 0 is a ValueError naming the argument, before any
    # draw; the gauge-vs-norm estimate draws its radii from [0.05, nu], so
    # it needs nu > 0.05
    from carnot import bch, pdiff
    from carnot.morphism import identity_morphism
    K = koranyi(h1)
    f = pdiff.hom_map(identity_morphism(h1))
    o = np.zeros(3)
    estimates = [
        ("nu", lambda v: bch.cn_difference_bound(h1, 2, v, samples=3)),
        ("nu", lambda v: bch.bilinear_bound(h1, 2, nu=v, samples=3)),
        ("radius", lambda v: pdiff.bilipschitz_bounds(f, o, radius=v, samples=3)),
        ("r1", lambda v: pdiff.mean_value_ratio(f, o, r1=v, r2=8.0, pair_samples=3)),
        ("r2", lambda v: pdiff.mean_value_ratio(f, o, r1=0.5, r2=v, pair_samples=3)),
        ("radius", lambda v: first_layer_constant(K, radius=v, samples=3)),
        ("radius", lambda v: verify_projection_estimate(K, radius=v, samples=3)),
        ("nu", lambda v: left_inverse_estimate(K, nu=v, samples=3)),
        ("nu", lambda v: verify_conjugation_estimate(K, nu=v, samples=3)),
        ("nu", lambda v: verify_product_estimate(K, nu=v, samples=3)),
        ("radius", lambda v: quasi_triangle_constant(K, radius=v, samples=3)),
    ]
    bad = [0, 0.0, -1.0, math.nan, math.inf, -math.inf, True, "1", None]
    cases = [(name, run, bad, [np.float64(0.5), Q(1, 2), 2]) for name, run in estimates]
    cases.append(("nu", lambda v: norm_exp_estimate(K, nu=v, samples=3),
                  bad + [0.01, 0.05], [np.float64(0.06), Q(1, 2), 2]))

    def no_draw(*args, **kwargs):
        raise AssertionError("drew before checking the radius")

    for name, run, bad_values, good_values in cases:
        with monkeypatch.context() as m:
            m.setattr(np.random, "default_rng", no_draw)
            for v in bad_values:
                with pytest.raises(ValueError, match="^%s must be a finite number > " % name):
                    run(v)
        for v in good_values:
            run(v)


def test_conjugation_product_estimates(h1):
    K = koranyi(h1)
    c1, c2 = verify_conjugation_estimate(K, nu=1.0, samples=1200, seed=0)
    assert math.isfinite(c1.sup_observed) and math.isfinite(c2.sup_observed)
    p = verify_product_estimate(K, nu=1.0, n_factors=3, samples=120, seed=0)
    assert math.isfinite(p.sup_observed)
    # single-factor case reduces to the two-point comparison
    p1 = verify_product_estimate(K, nu=1.0, n_factors=1, samples=120, seed=0)
    assert math.isfinite(p1.sup_observed)


def _product_reference(metric, nu, b, pert):
    """The one-candidate product-list statistic: (accepted, ratio)."""
    from carnot.bch import group_product_np
    alg = metric.algebra
    tails = [b[-1]]
    for bb in b[-2::-1]:
        tails.insert(0, group_product_np(alg, bb, tails[0]))
    a = [group_product_np(alg, bb, pp) for bb, pp in zip(b, pert)]
    pa = a[-1]
    for aa in a[-2::-1]:
        pa = group_product_np(alg, aa, pa)
    dterms = [float(metric.distance_np(aa, bb)) for aa, bb in zip(a, b)]
    den = sum(d ** (1.0 / alg.step) for d in dterms)
    ok = not any(float(metric.quasi_norm_np(t)) > nu for t in tails) and \
        not any(d > nu for d in dterms) and den > 1e-12
    return ok, float(metric.distance_np(pa, tails[0])) / den


@pytest.mark.parametrize("n_factors", [1, 3])
def test_batched_product_estimate_matches_one_candidate_loop(n_factors, h1, f23):
    # the masks and ratios of a batch of candidates equal the one-candidate
    # loop on the same (b, pert) draws; the balls are wider than the
    # driver's, so that the hypotheses fail for some candidates
    from carnot.metric import _product_ratios
    k, nu = 300, 0.8
    for metric in (koranyi(h1), weighted_max(f23)):
        rng = np.random.default_rng(5)
        shape = (k, n_factors, metric.algebra.dim)
        b = sample_ball(metric, 1.1 * nu / math.sqrt(n_factors), k * n_factors,
                        rng).reshape(shape)
        pert = sample_ball(metric, 1.1 * nu, k * n_factors, rng).reshape(shape)
        ok, ratios = _product_ratios(metric, nu, b, pert)
        # d(A_j, B_j) = N(p_j): some candidates fail the pairwise hypothesis,
        # some others only the tail one
        pairwise = np.all(metric.quasi_norm_np(pert) <= nu, axis=1)
        assert ok.any() and (~pairwise).any() and (pairwise & ~ok).any()
        for c in range(k):
            want_ok, want = _product_reference(metric, nu, b[c], pert[c])
            assert ok[c] == want_ok, (metric, c)
            if want_ok:
                assert ratios[c] == pytest.approx(want, rel=1e-12), (metric, c)
        est = verify_product_estimate(metric, nu=nu, n_factors=n_factors,
                                      samples=137, seed=2)
        assert est.samples == 137
    # on h1 the Koranyi gauge is a distance, so every candidate of the
    # driver's balls is kept: the sup is that of the first `samples` draws
    metric, rng = koranyi(h1), np.random.default_rng(2)
    shape = (137, n_factors, 3)
    b = sample_ball(metric, nu / (2 * n_factors), 137 * n_factors, rng).reshape(shape)
    pert = sample_ball(metric, nu / 2, 137 * n_factors, rng).reshape(shape)
    want = max(_product_reference(metric, nu, bb, pp)[1] for bb, pp in zip(b, pert))
    est = verify_product_estimate(metric, nu=nu, n_factors=n_factors, samples=137, seed=2)
    assert est.sup_observed == pytest.approx(want, rel=1e-12)


def test_draw_until_keeps_the_first_accepted_rows_in_draw_order():
    rng = np.random.default_rng(1)
    seen = []

    def draw(n):
        seen.append(rng.uniform(size=n))
        return seen[-1][seen[-1] < 0.1]

    got = draw_until(50, (), draw)
    drawn = np.concatenate(seen)
    assert len(seen) > 1 and np.sum(drawn < 0.1) > 50
    assert np.array_equal(got, drawn[drawn < 0.1][:50])
    assert draw_until(7, (3,), lambda n: np.ones((n, 3))).shape == (7, 3)
    assert draw_until(0, (2,), draw).shape == (0, 2)
    # no call asks for more than one block, whatever the count and rate
    seen.clear()
    got = draw_until(3 * BLOCK_POINTS, (), draw)
    drawn = np.concatenate(seen)
    assert max(map(len, seen)) == BLOCK_POINTS
    assert np.array_equal(got, drawn[drawn < 0.1][:3 * BLOCK_POINTS])


def _unblocked_references():
    """The six streamed drivers as they were before they walked their count
    in blocks: every point drawn at once from one generator, the sup taken
    over the whole count.  name -> (driver, reference), each called as
    f(metric, r, samples, seed) and returning a list of (sup, kept)."""

    def first_layer(metric, radius, samples, seed):
        alg, rng = metric.algebra, np.random.default_rng(seed)
        pts = sample_box(alg, radius, 2 * samples, rng)
        a, b = -pts[:samples], pts[samples:]
        num = np.zeros(samples)
        for k in alg.layer_indices(1):
            num += np.square(a[:, k] + b[:, k])
        num = np.sqrt(num)
        den = metric.quasi_norm_np(group_product_np(alg, a, b))
        mask = den > 1e-12
        return [(np.max(num[mask] / den[mask]), mask.sum())]

    def projection(metric, radius, samples, seed):
        alg, rng = metric.algebra, np.random.default_rng(seed)
        sq = ball_layer_squares(metric, radius, samples, rng)
        norms = metric._gauge(sq)
        mask = norms > 1e-9
        tails = np.cumsum(sq[:, ::-1], axis=-1)[:, ::-1]
        out, power = [], 1.0
        for i in range(1, alg.step + 1):
            power = power * norms[mask]
            out.append((np.max(np.sqrt(tails[mask, i - 1]) / power), mask.sum()))
        return out

    def norm_exp(metric, nu, samples, seed):
        alg, rng = metric.algebra, np.random.default_rng(seed)
        sq = direction_layer_squares(alg, samples, rng)
        radii = rng.uniform(0.05, nu, samples)
        return [(np.max(metric._gauge(sq * np.square(radii)[:, None])
                        / radii ** (1.0 / alg.step)), samples)]

    def left_inverse(metric, nu, samples, seed):
        alg, rng = metric.algebra, np.random.default_rng(seed)
        h = nu / math.sqrt(alg.dim)
        xi = sample_box(alg, h, samples, rng)
        eta = sample_box(alg, h, samples, rng)
        ops = alg.float_ops()
        num = ops.layer_squares(group_product_np(alg, -xi, eta)).sum(axis=-1)
        den = ops.layer_squares(eta - xi).sum(axis=-1)
        mask = den > 1e-24
        return [(math.sqrt(np.max(num[mask] / den[mask])), mask.sum())]

    def conjugation(metric, nu, samples, seed):
        alg, rng = metric.algebra, np.random.default_rng(seed)
        x = sample_ball(metric, nu, samples, rng)
        y = sample_ball(metric, nu, samples, rng)
        d_conj = metric.quasi_norm_np(group_product_np(alg, -y, group_product_np(alg, x, y)))
        norm_x, d_x = np.linalg.norm(x, axis=-1), metric.quasi_norm_np(x)
        mask, e = (norm_x > 1e-9) & (d_x > 1e-9), 1.0 / alg.step
        return [(np.max(d_conj[mask] / norm_x[mask] ** e), mask.sum()),
                (np.max(d_conj[mask] / d_x[mask] ** e), mask.sum())]

    def quasi_triangle(metric, radius, samples, seed):
        alg, rng = metric.algebra, np.random.default_rng(seed)
        x = sample_ball(metric, radius, samples, rng)
        y = sample_ball(metric, radius, samples, rng)
        num = metric.quasi_norm_np(group_product_np(alg, x, y))
        den = metric.quasi_norm_np(x) + metric.quasi_norm_np(y)
        mask = den > 1e-12
        return [(np.max(num[mask] / den[mask]), mask.sum())]

    return {
        "first_layer": (lambda m, r, n, s: [first_layer_constant(m, r, n, s)], first_layer),
        "projection": (verify_projection_estimate, projection),
        "norm_exp": (lambda m, r, n, s: [norm_exp_estimate(m, r, n, s)], norm_exp),
        "left_inverse": (lambda m, r, n, s: [left_inverse_estimate(m, r, n, s)],
                         left_inverse),
        "conjugation": (verify_conjugation_estimate, conjugation),
        "quasi_triangle": (lambda m, r, n, s: [quasi_triangle_constant(m, r, n, s)],
                           quasi_triangle),
    }


STREAMED = _unblocked_references()


def _bound_drivers():
    """The four sampled bounds of bch, metric and pdiff that walk their
    count through the same blocks, each called as f(metric, r, samples,
    seed) on the metric's group: name -> driver.  The constants' driver
    returns a list of EmpiricalConstants, bilipschitz_bounds its (min, max)
    for the map x -> 2x, which is no homomorphism."""
    from carnot import bch, pdiff

    def bilipschitz(metric, radius, samples, seed):
        alg = metric.algebra
        f = pdiff.PDMap(alg, alg, lambda c: 2.0 * c, name="double")
        return pdiff.bilipschitz_bounds(f, np.zeros(alg.dim), radius, samples, seed)

    return {
        "cn_difference": lambda m, r, n, s: [bch.cn_difference_bound(m.algebra, 2, r, n, s)],
        "bilinear": lambda m, r, n, s: [bch.bilinear_bound(m.algebra, 2, r, n, s)],
        "word_constant": lambda m, r, n, s: [
            word_constant(standard_word_system(m.algebra, m), n, s)],
        "bilipschitz": bilipschitz,
    }


BOUNDS = _bound_drivers()
DRIVERS = dict(BOUNDS, **{name: driver for name, (driver, _) in STREAMED.items()})


def _streamed_metrics():
    yield koranyi(catalog.get("h1"))
    yield koranyi(catalog.get("g42"))
    yield weighted_max(catalog.get("free_2_4"), [1.0, 1.5, 2.0, 2.5])


@pytest.mark.parametrize("metric", list(_streamed_metrics()), ids=repr)
@pytest.mark.parametrize("name", sorted(STREAMED))
def test_one_block_is_bit_identical_to_the_unblocked_driver(name, metric):
    # a count of exactly one block draws and reduces what the driver drew
    # before it streamed: the same sups to the bit and the same kept counts
    driver, reference = STREAMED[name]
    got = driver(metric, 0.9, BLOCK_POINTS, 4)
    want = reference(metric, 0.9, BLOCK_POINTS, 4)
    assert [(c.sup_observed, c.samples) for c in got] == \
        [(float(sup), int(kept)) for sup, kept in want]


@pytest.mark.parametrize("name, metric", [
    pytest.param(name, metric, id="%s-%r" % (name, metric))
    for name in sorted(STREAMED) + sorted(BOUNDS) for metric in _streamed_metrics()
    # the word systems stop at step 2
    if name != "word_constant" or metric.algebra.step <= 2])
def test_streamed_driver_replays_its_blocks_from_one_generator(name, metric):
    # 2.5 blocks: two full blocks and a half block, each drawn as the driver
    # draws a count of that size, one after the other from the generator of
    # the seed (default_rng returns a Generator it is given unaltered); the
    # sups fold by a max and the kept counts by a sum
    driver = DRIVERS[name]
    n = 5 * BLOCK_POINTS // 2
    got = driver(metric, 0.9, n, 4)
    rng = np.random.default_rng(4)
    blocks = [driver(metric, 0.9, k, rng)
              for k in (BLOCK_POINTS, BLOCK_POINTS, n % BLOCK_POINTS)]
    if name == "bilipschitz":
        # the min is 1 / the sup of the reciprocal ratios, so it folds by a
        # min, to the bit
        assert got == (min(b[0] for b in blocks), max(b[1] for b in blocks))
        assert 0 < got[0] < got[1]
        return
    for j, c in enumerate(got):
        assert c.sup_observed == max(b[j].sup_observed for b in blocks)
        assert c.samples == sum(b[j].samples for b in blocks)
        assert c.label == blocks[0][j].label
        assert c.nu == (1.0 if name == "word_constant" else 0.9)


def test_streamed_drivers_hold_one_block_of_memory(h1):
    # at 10^6 samples on h1 the unblocked drivers peaked at 48-161 MB of
    # traced allocations (bilipschitz_bounds drew every pair at once);
    # streamed, the peak is set by one block
    import tracemalloc
    K = koranyi(h1)
    for name in sorted(STREAMED) + ["bilipschitz"]:
        tracemalloc.start()
        try:
            DRIVERS[name](K, 0.9, 10 ** 6, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20, (name, peak)


@pytest.mark.parametrize("name, run", [
    ("first_layer_comparison[h1]",
     lambda K: first_layer_constant(K, radius=1e-26, samples=50)),
    ("tail_projection K_U layer>=1[h1]",
     lambda K: verify_projection_estimate(K, radius=1e-12, samples=50)),
    ("group_difference_vs_linear C(nu)[h1]",
     lambda K: left_inverse_estimate(K, nu=1e-13, samples=50)),
    ("conjugation_vs_norm[h1]",
     lambda K: verify_conjugation_estimate(K, nu=1e-12, samples=50)),
    ("quasi_triangle[koranyi,h1]",
     lambda K: quasi_triangle_constant(K, radius=1e-13, samples=50)),
    ("bilipschitz_upper[double]",
     lambda K: BOUNDS["bilipschitz"](K, 1e-20, 50, 0)),
], ids=lambda v: v if isinstance(v, str) else "")
def test_a_mask_that_keeps_no_sample_is_one_labelled_error(h1, name, run):
    # at a radius so small that every denominator falls below its cutoff,
    # each masked driver raises the same ValueError, labelled with its
    # (first) constant; the gauge-vs-norm estimate keeps every sample, and
    # bilipschitz_bounds keeps no pair closer than 1e-8
    with pytest.raises(ValueError, match=r"^%s: no sample of 50 was kept;"
                       % re.escape(name)):
        run(koranyi(h1))


def test_norm_and_left_inverse_estimates(h12):
    K = koranyi(h12)
    assert math.isfinite(norm_exp_estimate(K, nu=1.0, samples=2000).sup_observed)
    assert math.isfinite(left_inverse_estimate(K, nu=1.0, samples=2000).sup_observed)


def test_word_system_h1(h1):
    K = koranyi(h1)
    ws = standard_word_system(h1, K)
    assert ws.indices[:2] == (0, 1)
    assert ws.commutator_blocks == ((2, 0, 1),)
    # P^1(a) = exp(a1 X)
    p1 = generating_word([Q(3, 2)], ws, s=1)
    assert p1.coords == (Q(3, 2), 0, 0)
    # the commutator word realizes exp(Z) exactly
    g = generating_word([Q(0), Q(0), Q(1), Q(1), Q(-1), Q(-1)], ws)
    assert g.coords == (0, 0, 1)
    # P^0 = identity
    assert generating_word([], ws, s=0).coords == (0, 0, 0)
    a = solve_word(GroupElement(h1, [0.0, 0.0, 1.0]), ws)
    assert np.allclose(a, [0, 0, 1, 1, -1, -1], atol=1e-12)


def test_word_solver_roundtrip(h1, h12, rng):
    for g in (h1, h12):
        K = koranyi(g)
        ws = standard_word_system(g, K)
        for _ in range(30):
            u = rng.standard_normal(g.dim)
            xc = sphere_point(K, u)
            a = solve_word(GroupElement(g, xc), ws)
            back = generating_word(a, ws)
            assert np.max(np.abs(np.asarray(back.coords) - xc)) < 1e-10
        # single-letter words
        t = float(rng.uniform(0.2, 2.0))
        x = np.zeros(g.dim)
        x[g.layer_indices(1)[0]] = t
        a = solve_word(GroupElement(g, x), ws)
        assert a[0] == pytest.approx(t)
        assert np.allclose(a[1:], 0, atol=1e-12)


def test_word_homogeneity(h1, rng):
    K = koranyi(h1)
    ws = standard_word_system(h1, K)
    for _ in range(10):
        x = GroupElement(h1, rng.standard_normal(3))
        r = float(rng.uniform(0.3, 2.0))
        a = solve_word(x, ws)
        ar = solve_word(dilate(x, r), ws)
        assert np.allclose(ar, r * np.asarray(a), atol=1e-10)


@pytest.mark.parametrize("name", ["h1", "h2", "h12", "g42", "free_3_2", "r2"])
def test_solve_word_on_a_batch_equals_it_per_point(name, rng):
    # one path serves a point and a batch: the rows of a column-major batch
    # (as word_constant draws it) and of a (2, 20) batch equal the per-point
    # solutions bit for bit
    g = catalog.get(name)
    ws = standard_word_system(g)
    x = sphere_point(ws.metric, unit_vectors(rng, 40, g.dim))
    a = solve_word(x, ws)
    assert a.shape == (40, ws.length)
    for xi, ai in zip(x, a):
        assert np.array_equal(solve_word(GroupElement(g, xi.copy()), ws), ai)
    assert np.array_equal(solve_word(x.reshape(2, 20, g.dim), ws), a.reshape(2, 20, -1))


def test_word_constant(h1, rng):
    K = koranyi(h1)
    ws = standard_word_system(h1, K)
    c = word_constant(ws, samples=150, seed=0)
    assert 0 < c.sup_observed < 5
    # abelian: c equals the max coordinate norm over the unit sphere
    r2 = catalog.abelian(2)
    W = weighted_max(r2)
    ws2 = standard_word_system(r2, W)
    c2 = word_constant(ws2, samples=200, seed=0)
    assert c2.sup_observed <= 1.0 + 1e-9


def test_word_system_step_bound(f23):
    with pytest.raises(ValueError):
        standard_word_system(f23)


def test_exp_pair_comparison(h1, rng):
    # d(exp xi, exp eta) <= C |xi - eta|^{1/step} on bounded sets: the pair
    # analogue of the gauge-vs-norm estimate; sampled sup stays finite
    K = koranyi(h1)
    worst = 0.0
    for _ in range(2000):
        xi = rng.uniform(-0.6, 0.6, 3)
        eta = rng.uniform(-0.6, 0.6, 3)
        diff = float(np.linalg.norm(xi - eta))
        if diff < 1e-9:
            continue
        worst = max(worst, float(K.distance_np(xi, eta)) / diff ** 0.5)
    assert math.isfinite(worst) and worst > 0


def test_word_system_rescaled_generators(h1, rng):
    # non-unit gauge for the generators: the system records the rescaling
    # and the solver compensates
    W = weighted_max(h1, weights=[2.0, 3.0])
    ws = standard_word_system(h1, W)
    assert any(abs(s - 1.0) > 1e-12 for s in ws.generator_scales)
    for _ in range(10):
        u = rng.standard_normal(3)
        xc = sphere_point(W, u)
        a = solve_word(GroupElement(h1, xc), ws)
        back = generating_word(a, ws)
        assert np.max(np.abs(np.asarray(back.coords) - xc)) < 1e-10


def test_a_fraction_radius_draws_the_float_radius(monkeypatch):
    # Fraction(1, 2) is read as 0.5: the same draws bit for bit, in float64
    # arrays; the layer norms are float64 on the way, not Python objects
    from carnot import metric as metric_module, pdiff
    from carnot.morphism import identity_morphism
    layer_norms = metric_module._layer_norms

    def float_norms(*args):
        for i, norms in layer_norms(*args):
            assert np.asarray(norms).dtype == np.float64
            yield i, norms

    monkeypatch.setattr(metric_module, "_layer_norms", float_norms)
    g42, f23 = catalog.get("g42"), catalog.get("free_2_3")
    for metric in (koranyi(g42), default_metric(f23)):
        for sampler in (sample_ball, ball_layer_squares):
            got = sampler(metric, Q(1, 2), 500, np.random.default_rng(3))
            want = sampler(metric, 0.5, 500, np.random.default_rng(3))
            assert got.dtype == want.dtype == np.float64
            assert np.array_equal(got, want)
        for run in (verify_projection_estimate, quasi_triangle_constant,
                    first_layer_constant):
            got = run(metric, Q(1, 2), samples=300, seed=4)
            want = run(metric, 0.5, samples=300, seed=4)
            for a, b in zip(np.atleast_1d(got), np.atleast_1d(want)):
                assert (a.sup_observed, a.nu) == (b.sup_observed, b.nu)
                assert type(a.nu) is float
        for run in (verify_conjugation_estimate, left_inverse_estimate, norm_exp_estimate):
            got = run(metric, nu=Q(1, 2), samples=300, seed=4)
            want = run(metric, nu=0.5, samples=300, seed=4)
            for a, b in zip(np.atleast_1d(got), np.atleast_1d(want)):
                assert (a.sup_observed, a.nu) == (b.sup_observed, b.nu)
        got = verify_product_estimate(metric, nu=Q(1, 2), samples=50, seed=4)
        want = verify_product_estimate(metric, nu=0.5, samples=50, seed=4)
        assert (got.sup_observed, got.nu) == (want.sup_observed, want.nu)
    f = pdiff.hom_map(identity_morphism(catalog.get("h1")))
    o = np.zeros(3)
    got = pdiff.mean_value_ratio(f, o, r1=Q(1, 2), r2=Q(8), pair_samples=50)
    want = pdiff.mean_value_ratio(f, o, r1=0.5, r2=8.0, pair_samples=50)
    assert got == want
    assert all(type(e) is float for e in got.bin_edges)
    assert pdiff.bilipschitz_bounds(f, o, radius=Q(1, 4), samples=50) == \
        pdiff.bilipschitz_bounds(f, o, radius=0.25, samples=50)
