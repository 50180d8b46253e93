import math
from fractions import Fraction as Q

import numpy as np
import pytest

from carnot import catalog
from carnot.algebra import (GradedAlgebra, GroupElement, dilate,
                            homogeneous_dimension)
from carnot.bch import group_product, group_product_np
from carnot.metric import (HomogeneousMetric, default_metric, distance,
                           draw_until, first_layer_constant,
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


@pytest.mark.parametrize("name", ["h1", "g42", "free_2_4"])
def test_layer_norms_and_tails_match_masked_norms(name):
    # layer norms come from one pass over the squared coordinates and the
    # projection tails from the layer norms; the masked Euclidean norms are
    # the reference, up to summation order
    g = catalog.get(name)
    ops = g.float_ops()
    x = np.random.default_rng(3).standard_normal((500, g.dim))
    ref = np.stack([np.linalg.norm(x * ops.layer_masks[i], axis=-1)
                    for i in range(1, g.step + 1)], axis=-1)
    assert np.allclose(ops.layer_norms(x), ref, rtol=1e-14, atol=0)
    m = default_metric(g)
    consts = verify_projection_estimate(m, radius=1.0, samples=500, seed=1)
    pts = sample_ball(m, 1.0, 500, np.random.default_rng(1))
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
    assert np.array_equal(ops.layer_norms(x), np.sqrt(loop))


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
    # the draws are replayed from the seed: each sampler fills a (dim,
    # count) array
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

    pts = sample_ball(metric, 0.7, n, np.random.default_rng(seed))
    norms = _gauge_reference(metric, pts)
    sq = np.square(np.stack([np.linalg.norm(pts * ops.layer_masks[i], axis=-1)
                             for i in range(1, alg.step + 1)], axis=-1))
    tails = np.sqrt(np.cumsum(sq[:, ::-1], axis=-1)[:, ::-1])
    got = verify_projection_estimate(metric, radius=0.7, samples=n, seed=seed)
    assert [c.samples for c in got] == [n] * alg.step
    for i, c in enumerate(got, start=1):
        assert c.sup_observed == pytest.approx(
            float(np.max(tails[:, i - 1] / norms ** i)), rel=1e-13)

    rng = np.random.default_rng(seed)
    g = rng.standard_normal((alg.dim, n))
    pts = (g / np.linalg.norm(g, axis=0)).T * rng.uniform(0.05, 0.9, n)[:, None]
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
    # ValueError naming samples, before any draw
    K = koranyi(h1)
    ws = standard_word_system(h1, K)
    estimates = [
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
    for name in catalog.catalog_names():
        g = catalog.get(name)
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
