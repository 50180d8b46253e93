import math
import re
from fractions import Fraction as Q

import numpy as np
import pytest

from carnot import catalog, pdiff
from carnot.algebra import GroupElement
from carnot.morphism import GradedMorphism, identity_morphism
from carnot.pdiff import product_set_membership


@pytest.fixture(scope="module")
def radial():
    return pdiff.radial_level_map(catalog.get("h2"))


XI = np.array([0.0, 1.0, 0.0, 1.0, 0.0])
ETA = np.array([0.0, 0.0, 1.0, 1.0, 0.0])


def test_horizontal_derivative_identity_and_translation(h1, rng):
    idm = pdiff.hom_map(identity_morphism(h1), name="id")
    x = rng.standard_normal(3)
    d = pdiff.horizontal_derivative(idm, x, [1, 0, 0])
    assert np.allclose(d, [1, 0, 0], atol=1e-9)
    g = GroupElement(h1, rng.standard_normal(3))
    lt = pdiff.left_translation_map(g)
    d2 = pdiff.horizontal_derivative(lt, x, [0, 1, 0])
    assert np.allclose(d2, [0, 1, 0], atol=1e-9)
    with pytest.raises(ValueError):
        boxed = pdiff.PDMap(h1, h1, lambda c: c,
                            box=(np.full(3, -0.1), np.full(3, 0.1)))
        pdiff.horizontal_derivative(boxed, np.zeros(3), [1, 0, 0], h=1.0)


def test_pdmap_checks_evaluator_shape(h1):
    # evaluators map (..., dim) to (..., dim'); a scalar-only one handed a
    # batch returns shape (1, 3) here, which the call rejects by name
    f = pdiff.PDMap(h1, catalog.abelian(1), lambda x: np.array([abs(x[0])]),
                    name="scalar_only")
    assert f(np.array([-0.5, 0.0, 1.0])).tolist() == [0.5]
    with pytest.raises(ValueError, match="scalar_only"):
        f(np.zeros((4, 3)))
    wide = pdiff.PDMap(h1, catalog.abelian(1), lambda x: x[..., :2], name="wide")
    with pytest.raises(ValueError, match="wide"):
        wide(np.zeros(3))


def test_batched_maps_match_pointwise(h1, radial, rng):
    maps = [radial, pdiff.named_map("xcoord"), pdiff.vertical_shear_map(h1),
            pdiff.corner_map(h1), pdiff.named_map("legendrian_line"),
            pdiff.hom_map(identity_morphism(h1)), pdiff.dilation_map(h1, 2.0)]
    for f in maps:
        x = rng.standard_normal((6, 2, f.domain.dim))
        batch = f(x)
        assert batch.shape == (6, 2, f.codomain.dim)
        assert all(np.array_equal(batch[i, j], f(x[i, j]))
                   for i in range(6) for j in range(2))


def _random_systems(rng, count, n_out, k=3):
    """count systems A_i (t + 0.2 sin t) = A_i s_i with well-conditioned A_i:
    square for n_out = k, consistent least squares otherwise."""
    A = rng.standard_normal((count, n_out, k)) * 0.3 + np.eye(n_out, k)
    s = rng.standard_normal((count, k))
    b = np.einsum("nij,nj->ni", A, s + 0.2 * np.sin(s))

    def resid(t, rows):
        return np.einsum("nij,nj->ni", A[rows], t + 0.2 * np.sin(t)) - b[rows]

    return resid, s


@pytest.mark.parametrize("n_out", [3, 5])
@pytest.mark.parametrize("budget", [100, 3])
def test_newton_batch_matches_single_solves(rng, n_out, budget):
    # one batched call gives each system the result of solving it alone;
    # budget 3 leaves some systems unconverged, with the same flags
    count = 24
    resid, roots = _random_systems(rng, count, n_out)
    t0 = rng.standard_normal((count, 3)) * 0.5
    t, nrm, ok = pdiff._newton(resid, t0, tol=1e-12, budget=budget)
    assert t.shape == (count, 3) and nrm.shape == ok.shape == (count,)
    for i in range(count):
        ti, ri, oki = pdiff._newton(lambda z, rows: resid(z, rows + i), t0[i:i + 1],
                                    tol=1e-12, budget=budget)
        assert np.max(np.abs(ti[0] - t[i])) <= 1e-12
        assert abs(ri[0] - nrm[i]) <= 1e-12 and oki[0] == ok[i]
    if budget == 100:
        assert ok.all() and np.max(np.abs(t - roots)) <= 1e-9
    else:
        assert not ok.all()


def test_newton_singular_system_fails_alone():
    # system 2 has an exactly zero Jacobian column: only it fails, and it
    # returns its seed with the seed's residual norm
    targets = np.array([[1.0, 2.0], [-0.5, 0.3], [1.0, 1.0], [0.2, 0.7]])

    def resid(t, rows):
        out = np.stack([t[:, 0] + 0.1 * t[:, 1] ** 2, t[:, 1] + 0.1 * t[:, 0] ** 3],
                       axis=-1)
        singular = rows == 2
        out[singular] = np.stack([t[singular, 0], t[singular, 0] ** 2], axis=-1)
        return out - targets[rows]

    t0 = np.zeros((4, 2))
    t, nrm, ok = pdiff._newton(resid, t0)
    assert ok.tolist() == [True, True, False, True]
    assert np.array_equal(t[2], t0[2]) and nrm[2] == pytest.approx(math.sqrt(2.0))
    assert np.max(np.linalg.norm(resid(t, np.arange(4))[ok], axis=-1)) <= 1e-10


def test_horizontal_derivative_radial(radial):
    d = pdiff.horizontal_derivative(radial, XI, [0, 1, 0, 0, 0])
    assert np.allclose(d, [1.0, 0.0], atol=1e-9)


def test_pansu_differential_recovers_homs(h1, rng):
    r2 = catalog.abelian(2)
    L = GradedMorphism(h1, r2, [[1, 0, 0], [0, 1, 0]])
    f = pdiff.hom_map(L)
    f.dfirst = None  # force the finite-difference route
    rep = pdiff.pansu_differential(f, rng.standard_normal(3))
    assert np.max(np.abs(np.asarray(rep.morphism.matrix, dtype=float)
                         - [[1, 0, 0], [0, 1, 0]])) <= 1e-6
    assert max(rep.defect_by_scale.values()) <= 1e-9
    dil = pdiff.dilation_map(h1, 2.0)
    repd = pdiff.pansu_differential(dil, rng.standard_normal(3))
    assert np.allclose(np.asarray(repd.morphism.matrix),
                       np.diag([2.0, 2.0, 4.0]), atol=1e-8)
    assert repd.converged


def test_pansu_differential_radial_matrix(radial):
    rep = pdiff.pansu_differential(radial, XI)
    expect = np.array([[0, 1, 0, 0, 0], [0, 0, 0, 1, 0]], dtype=float)
    assert np.max(np.abs(np.asarray(rep.morphism.matrix) - expect)) <= 1e-6
    assert rep.converged
    # generic point: matches the closed-form first-layer differential
    p = np.array([0.2, 0.8, -0.5, 1.1, 0.3])
    rep2 = pdiff.pansu_differential(radial, p)
    r = math.hypot(p[1], p[2])
    row = np.array([0.0, p[1] / r, p[2] / r, 0.0, 0.0])
    assert np.max(np.abs(np.asarray(rep2.morphism.matrix)[0] - row)) <= 1e-6


def test_lift_differential_blocks(h1):
    # layer-preserving extension of a first-layer block on a stratified domain
    L = pdiff.lift_differential(h1, h1, np.array([[2.0, 0.0], [0.0, 3.0]]))
    assert np.allclose(np.asarray(L.matrix), np.diag([2.0, 3.0, 6.0]))
    exact = pdiff.lift_differential(h1, h1, [[Q(2), Q(0)], [Q(0), Q(3)]])
    assert exact.matrix[2][2] == 6
    assert exact.is_h_homomorphism()


@pytest.mark.parametrize("name", ["h2", "h12"])
def test_lift_differential_float_matches_exact(name, rng):
    # a block that is not the first layer of a homomorphism: the float lift
    # transports it with the same exact bracket combinations as the exact one
    g = catalog.get(name)
    m = len(g.layer_indices(1))
    block = [[Q(int(rng.integers(-5, 6)), int(rng.integers(1, 4))) for _ in range(m)]
             for _ in range(m)]
    exact = pdiff.lift_differential(g, g, block)
    assert not exact.is_h_homomorphism()
    flt = pdiff.lift_differential(g, g, np.array([[float(c) for c in r] for r in block]))
    expect = np.asarray(exact.to_float().matrix)
    assert np.allclose(flt.matrix, expect, rtol=1e-12, atol=1e-12)


def test_lift_differential_needs_stratified_domain():
    from carnot.algebra import GradedAlgebra
    ns = GradedAlgebra("ns", [1, 1, 2], {})  # layer 2 is not generated
    with pytest.raises(ValueError, match="not stratified"):
        pdiff.lift_differential(ns, ns, np.eye(2))
    with pytest.raises(ValueError, match="not stratified"):
        pdiff.lift_differential(ns, ns, [[1, 0], [0, 1]])


def test_component_differentials(h1, rng):
    # dF_2 = 1/2 [F_1, dF_1 .] for maps into h1, against symbolic expansion
    r2 = catalog.abelian(2)
    Fx = np.array([0.7, -0.3, 0.0])
    cd = pdiff.component_differentials(r2, h1, np.eye(2), Fx)
    # symbolic: z-row = 1/2 (F1 x (dF1 h)) = 1/2 (x dy - y dx)
    assert np.allclose(cd[2], [0.5 * 0.3, 0.5 * 0.7])
    # abelian target: higher components vanish
    cd2 = pdiff.component_differentials(h1, r2, np.eye(2), np.zeros(2))
    assert cd2.shape == (2, 3)
    # F(x) = 0: higher components vanish
    cd3 = pdiff.component_differentials(r2, h1, np.eye(2), np.zeros(3))
    assert np.allclose(cd3[2], 0.0)


def test_contact_check_detectors_agree(h1, rng):
    pts = [rng.standard_normal(3) * 0.4 for _ in range(4)]
    idm = pdiff.hom_map(identity_morphism(h1))
    assert pdiff.contact_check(idm, pts) <= 1e-6
    shear = pdiff.vertical_shear_map(h1)
    resid = pdiff.contact_check(shear, pts)
    rep = pdiff.pansu_differential(shear, np.array([0.5, 0.2, 0.1]))
    # both detectors flag the sheared map (nonzero residual, divergent defect)
    assert resid > 1e-3
    assert not rep.converged
    swap = pdiff.PDMap(h1, h1, lambda c: np.array([c[0], c[2], c[1]]), name="swap")
    assert pdiff.contact_check(swap, pts) > 1e-3


def test_mean_value_tables(h1, radial):
    tab = pdiff.mean_value_ratio(radial, XI, r1=0.6, r2=8.0,
                                 pair_samples=400, bins=4, seed=0)
    assert tab.decreasing()
    assert tab.bin_defect[-1] <= 0.1 * tab.bin_defect[0]
    L = GradedMorphism(h1, catalog.abelian(2), [[1, 0, 0], [0, 1, 0]])
    f = pdiff.hom_map(L)
    f.dfirst = lambda x: np.eye(2)
    tabh = pdiff.mean_value_ratio(f, np.zeros(3), 0.4, 5.0, pair_samples=200)
    assert max(tabh.bin_sup) <= 1e-10
    cm = pdiff.corner_map(h1)
    cm.dfirst = lambda x: np.array([[math.copysign(1.0, x[0]), 0.0]])
    tabc = pdiff.mean_value_ratio(cm, np.zeros(3), 0.4, 5.0,
                                  pair_samples=400, seed=2)
    assert tabc.bin_sup[-1] > 0.5 * tabc.bin_sup[0]  # no decay: flagged


def test_mean_value_pairs_in_their_bins(radial, monkeypatch):
    # each pair y = x o delta_s(w) sits in the dyadic bin it is credited to,
    # so the direction w must lie on the gauge's unit sphere
    from carnot.metric import HomogeneousMetric
    seen = []
    distance_np = HomogeneousMetric.distance_np

    def recording(self, a, b):
        d = distance_np(self, a, b)
        if self.algebra is radial.domain:
            seen.append(np.array(d))
        return d

    monkeypatch.setattr(HomogeneousMetric, "distance_np", recording)
    bins = 4
    tab = pdiff.mean_value_ratio(radial, XI, r1=0.6, r2=8.0, pair_samples=200,
                                 bins=bins, seed=3)
    d = np.concatenate([s.ravel() for s in seen]).reshape(tab.samples, bins)
    edges = np.array(tab.bin_edges)
    assert np.all((d > edges[1:]) & (d <= edges[:-1]))


def test_batched_estimates_match_pointwise_loops(radial):
    # the mean-value table and the bi-Lipschitz bounds run all pairs as
    # arrays; the one-pair-at-a-time loops are the reference
    from carnot.bch import group_product_np
    from carnot.metric import default_metric, sample_ball, sphere_point
    dom, cod = radial.domain, radial.codomain
    dm, cm = default_metric(dom), default_metric(cod)
    ops = dom.float_ops()
    tab = pdiff.mean_value_ratio(radial, XI, r1=0.6, r2=8.0, pair_samples=60,
                                 bins=3, seed=4)
    rng = np.random.default_rng(4)
    sups, defects = np.zeros(3), np.zeros(3)
    for u in sample_ball(dm, 0.3, 60, rng):
        x = group_product_np(dom, XI, u)
        L = np.asarray(pdiff.lift_differential(dom, cod, radial.dfirst(x)).matrix)
        w = sphere_point(dm, rng.standard_normal(dom.dim))
        for k in range(3):
            y = group_product_np(dom, x, ops.dilate(w, tab.bin_edges[k] * 2 / 3))
            gap = group_product_np(cod, -(L @ group_product_np(dom, -x, y)),
                                   group_product_np(cod, -radial(x), radial(y)))
            rho = float(cm.quasi_norm_np(gap))
            sups[k] = max(sups[k], rho / float(dm.distance_np(x, y)))
            defects[k] = max(defects[k], rho)
    assert np.allclose(tab.bin_sup, sups, rtol=1e-9, atol=0)
    assert np.allclose(tab.bin_defect, defects, rtol=1e-9, atol=0)
    lo, hi = pdiff.bilipschitz_bounds(radial, XI, radius=0.3, samples=80, seed=2)
    rng = np.random.default_rng(2)
    a, b = sample_ball(dm, 0.3, 80, rng), sample_ball(dm, 0.3, 80, rng)
    ratios = []
    for u, v in zip(a, b):
        x, y = group_product_np(dom, XI, u), group_product_np(dom, XI, v)
        d = float(dm.distance_np(x, y))
        if d >= 1e-8:
            ratios.append(float(cm.distance_np(radial(x), radial(y))) / d)
    assert lo == pytest.approx(min(ratios), rel=1e-12)
    assert hi == pytest.approx(max(ratios), rel=1e-12)


def test_mean_value_nesting_guard(radial, h2):
    from carnot.metric import standard_word_system
    ws = standard_word_system(h2)
    with pytest.raises(ValueError):
        pdiff.mean_value_ratio(radial, XI, r1=0.5, r2=0.6, pair_samples=10,
                               word_system=ws)


def test_local_inverse(h1, rng):
    dil = pdiff.dilation_map(h1, 2.0)
    y = np.array([0.4, 0.6, 0.5])
    x, r = pdiff.local_inverse(dil, np.zeros(3), y)
    assert np.allclose(x, [0.2, 0.3, 0.125], atol=1e-9)
    g = GroupElement(h1, rng.standard_normal(3))
    lt = pdiff.left_translation_map(g)
    from carnot.bch import group_product_np
    x2, r2 = pdiff.local_inverse(lt, np.zeros(3), y)
    expect = group_product_np(h1, -np.asarray(g.to_float().coords), y)
    assert np.allclose(x2, expect, atol=1e-8)
    lo, hi = pdiff.bilipschitz_bounds(lt, np.zeros(3), 0.3, 150)
    assert lo == pytest.approx(1.0, abs=1e-6) and hi == pytest.approx(1.0, abs=1e-6)


def test_local_inverse_requires_invertible(h1):
    r2 = catalog.abelian(2)
    # not even same dimension: a typed input error
    with pytest.raises(ValueError, match="dimensions"):
        pdiff.local_inverse(pdiff.hom_map(GradedMorphism(h1, r2,
                                                         [[1, 0, 0], [0, 1, 0]])),
                            np.zeros(3), np.zeros(2))


def test_implicit_function_level_sets(radial):
    # x-coordinate on h1: the level set is the vertical subgroup, phi == e
    f = pdiff.named_map("xcoord")
    sol, numerical = pdiff.implicit_function(f, np.zeros(3),
                                             {"radius": 0.4, "counts": [5, 3]})
    assert not numerical
    assert np.max(np.abs(sol.phis)) == 0.0
    assert pdiff.tangent_dim_check(sol)["ok"]
    # the radial example at xi
    sol2, numerical2 = pdiff.implicit_function(radial, XI,
                                               {"radius": 0.4,
                                                "counts": [9, 9, 1]})
    assert not numerical2
    assert np.max(sol2.residuals) <= 1e-8
    hc = sol2.holder_constants()
    assert math.isfinite(hc["kappa"]) and hc["kappa"] > 0
    assert pdiff.uniqueness_check(sol2, restarts=4, subset=10) <= 1e-7
    assert pdiff.tangent_cone_bracket_rank(sol2.kernel) == 0
    assert pdiff.tangent_dim_check(sol2)["ok"]
    # graphs translate to graphs over the same kernel subgroup
    dev = pdiff.translated_graph_check(sol2, np.array([0.05, -0.1, 0.02, 0, 0.03]),
                                       subset=6)
    assert dev <= 1e-7


def test_implicit_function_eta_cone(radial):
    sol, _ = pdiff.implicit_function(radial, ETA,
                                     {"radius": 0.3, "counts": [5, 5, 1]})
    assert pdiff.tangent_cone_bracket_rank(sol.kernel) == 1


def test_implicit_function_requires_epi(h1):
    # a map with non-epi differential is rejected
    f = pdiff.PDMap(h1, catalog.abelian(2),
                    lambda c: np.array([c[0], c[1]]),
                    dfirst=lambda c: np.eye(2),
                    dfirst_exact=lambda c: [[1, 0], [0, 1]], name="both")
    with pytest.raises(ValueError):
        pdiff.implicit_function(f, np.zeros(3))


def test_rank_parametrization(radial):
    f = pdiff.named_map("legendrian_line")
    rp = pdiff.rank_parametrization(f, np.zeros(1), grid_radius=0.3, grid_count=5)
    assert np.max(np.abs(rp.phi_points)) <= 1e-9
    assert rp.lip_ratio <= 1e-6
    # h graph points reproduce the image: re-solve f at a few of them
    h2 = catalog.get("h2")
    from carnot.bch import group_product_np

    def pl(t):
        base = np.zeros(t.shape[:-1] + (5,))
        base[..., 0], base[..., 2] = t[..., 0], t[..., 1]
        corr = np.zeros(t.shape[:-1] + (5,))
        corr[..., 1] = 0.05 * (t[..., 0] * t[..., 1])
        return group_product_np(h2, base, corr)

    plm = pdiff.PDMap(catalog.abelian(2), h2, pl, name="pert_legendrian",
                      dfirst_exact=lambda t: [[1, 0], [0, 0], [0, 1], [0, 0]])
    rp2 = pdiff.rank_parametrization(plm, np.zeros(2), grid_radius=0.25,
                                     grid_count=4)
    assert math.isfinite(rp2.lip_ratio)
    for h, phi in zip(rp2.h_points[:4], rp2.phi_points[:4]):
        graph_pt = group_product_np(h2, h, phi)
        t, r, ok = pdiff._newton(lambda z, rows: pl(z) - graph_pt, np.zeros((1, 2)),
                                 tol=1e-9)
        assert ok[0]


def test_rank_parametrization_puts_one_node_at_the_centre():
    # np.linspace(-r, r, 1) is [-r]; one node per direction sits at the
    # image of the base point, as in implicit_function
    f = pdiff.named_map("legendrian_line")
    rp = pdiff.rank_parametrization(f, np.array([0.2]), grid_radius=0.3, grid_count=1)
    assert rp.psi_points.shape == (1, 1)
    assert abs(rp.psi_points[0, 0] - 0.2) <= 1e-12


@pytest.mark.parametrize("spec, field", [
    ({"counts": [0, 5, 1]}, "counts[0]"), ({"counts": [5, -3, 1]}, "counts[1]"),
    ({"counts": [5, 5, 2.5]}, "counts[2]"), ({"counts": [True, 5, 1]}, "counts[0]"),
    ({"shrink_attempts": -1}, "shrink_attempts"),
    ({"shrink_attempts": 1.5}, "shrink_attempts")])
def test_grid_counts_are_checked(radial, spec, field):
    # a count below 1 ran one node, a negative shrink count raised "failed
    # at None", and a float count reached numpy
    with pytest.raises(ValueError, match=r"^%s must be an integer" % re.escape(field)):
        pdiff.implicit_function(radial, XI, spec)
    for count in (0, -1, 2.0):
        with pytest.raises(ValueError, match="^grid_count must be an integer"):
            pdiff.rank_parametrization(pdiff.named_map("legendrian_line"), np.zeros(1),
                                       grid_count=count)


def test_chain_rule(h1, rng):
    # D(g o f) = Dg(f(x)) o Df(x) on composable smooth maps
    dil = pdiff.dilation_map(h1, 2.0)
    g0 = GroupElement(h1, rng.standard_normal(3) * 0.3)
    lt = pdiff.left_translation_map(g0)
    comp = pdiff.compose_maps(lt, dil)
    x = rng.standard_normal(3) * 0.2
    rep = pdiff.pansu_differential(comp, x)
    repf = pdiff.pansu_differential(dil, x)
    repg = pdiff.pansu_differential(lt, np.asarray(dil(x)))
    expect = np.asarray(repg.morphism.matrix) @ np.asarray(repf.morphism.matrix)
    assert np.max(np.abs(np.asarray(rep.morphism.matrix) - expect)) <= 1e-5


def test_first_layer_consistency(radial, rng):
    # the first-layer restriction of the differential matches the horizontal
    # derivative estimates
    p = np.array([0.1, 0.9, -0.4, 1.2, 0.2])
    rep = pdiff.pansu_differential(radial, p)
    for k in range(4):
        v = np.zeros(5)
        v[k] = 1.0
        hd = pdiff.horizontal_derivative(radial, p, v, h=1e-5)
        assert np.allclose(np.asarray(rep.morphism.matrix)[:, k], hd, atol=1e-6)


def test_blowup_trivial_and_radial(radial):
    f = pdiff.named_map("xcoord")
    sol, _ = pdiff.implicit_function(f, np.zeros(3),
                                     {"radius": 0.4, "counts": [5, 3]})
    sampler = pdiff.LevelSetSampler(f, np.zeros(3), sol)
    rep = pdiff.tangent_cone_samples(sampler, np.zeros(3), sol.kernel,
                                     [1e-1, 1e-2], R=1.0, count=150, seed=0)
    assert max(rep.distances) <= 1e-8  # the set equals its cone
    sol2, _ = pdiff.implicit_function(radial, XI,
                                      {"radius": 0.4, "counts": [7, 7, 3]})
    sampler2 = pdiff.LevelSetSampler(radial, XI, sol2)
    rep2 = pdiff.tangent_cone_samples(sampler2, XI, sol2.kernel,
                                      [3e-2, 1e-2, 3e-3], R=1.0, count=150,
                                      seed=1)
    assert rep2.decreasing
    assert rep2.distances[-1] <= 0.05


def _hausdorff_two_pass(metric, A, B):
    """The symmetric Hausdorff distance from both directed distances, each
    from its own full distance matrix: d(a, b) for A -> B, d(b, a) for
    B -> A."""
    ab = metric.distance_np(A[:, None, :], B[None, :, :])
    ba = metric.distance_np(B[:, None, :], A[None, :, :])
    return max(float(np.max(np.min(ab, axis=1))), float(np.max(np.min(ba, axis=1))))


@pytest.mark.parametrize("name", ["h1", "g42", "free_2_3"])
def test_hausdorff_distance_matches_the_two_pass_brute_force(name):
    # one pass over A x B reads d(b, a) as d(a, b), equal up to rounding; the
    # clouds span two chunks of 256 rows and are of unequal sizes, each
    # either way round, once with a far cloud so that B -> A is the larger
    from carnot.metric import default_metric, sample_ball
    g = catalog.get(name)
    metric = default_metric(g)
    rng = np.random.default_rng(21)
    a = sample_ball(metric, 1.0, 300, rng)
    b = sample_ball(metric, 0.5, 170, rng)
    far = b.copy()
    far[:20] = sample_ball(metric, 3.0, 20, rng)
    for x, y in ((a, b), (b, a), (b, far), (far, b), (a[:1], b)):
        want = _hausdorff_two_pass(metric, x, y)
        assert pdiff.hausdorff_distance(metric, x, y) == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError, match="two nonempty clouds"):
        pdiff.hausdorff_distance(metric, a[:0], b)


def test_bilipschitz_of_smooth_maps(radial):
    # local Lipschitz property of continuously P-differentiable maps
    lo, hi = pdiff.bilipschitz_bounds(radial, XI, radius=0.3, samples=300)
    assert math.isfinite(hi) and hi > 0


def test_implicit_numerical_kernel_path(radial):
    # without the analytic differential the kernel comes from the thresholded
    # numerical one; the solution flags the verdict as numerical
    import copy
    f = pdiff.radial_level_map(catalog.get("h2"))
    f.dfirst_exact = None
    sol, numerical = pdiff.implicit_function(f, XI, {"radius": 0.3,
                                                     "counts": [5, 5, 1]})
    assert numerical
    assert np.max(sol.residuals) <= 1e-8
    assert pdiff.tangent_cone_bracket_rank(sol.kernel) == 0


def test_product_set_membership(h2):
    # u = span{x1, y1}, w = span{y1 + z/2}: exp(u) exp(w) misses
    # exp(-x1 + lam z) for lam != 0
    A = [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]]
    B = [[0, 1, 0, 0, Q(1, 2)]]
    h1 = catalog.get("h1")
    A1 = [[1, 0, 0], [0, 1, 0]]
    B1 = [[0, 1, Q(1, 2)]]
    inside = GroupElement(h1, [Q(1), Q(1), Q(0)]).to_float()
    found, resid, _ = product_set_membership(inside, A1, B1, seed=1)
    assert found
    outside = GroupElement(h1, [-1, 0, Q(1, 2)]).to_float()
    found2, resid2, _ = product_set_membership(outside, A1, B1, seed=1)
    assert not found2 and resid2 > 1e-3


def test_product_set_membership_h2_counterexample(h2):
    # a = span{x1, x2, z + y1}, b = span{y1, y2}: the spans sum directly to
    # the whole algebra, yet exp(2 x1 + z) is not in exp(a) exp(b): the
    # vertical part of any product is forced to gamma + delta = 0 there
    A = [[1, 0, 0, 0, 0], [0, 0, 1, 0, 0], [0, 1, 0, 0, Q(1)] ]
    B = [[0, 1, 0, 0, 0], [0, 0, 0, 1, 0]]
    target = GroupElement(h2, [2, 0, 0, 0, 1]).to_float()
    found, resid, _ = product_set_membership(target, A, B, restarts=24, seed=3)
    assert not found and resid > 1e-3
    # a point that is in the product set is found
    inside = GroupElement(h2, [2, 0, 0, 0, 0]).to_float()
    found2, resid2, _ = product_set_membership(inside, A, B, restarts=24, seed=3)
    assert found2
