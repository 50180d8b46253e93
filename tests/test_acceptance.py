"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS line (pytest -s shows them; a failure raises before printing).

Complementary pairs produced anywhere in this suite register through
check_pair_qkp, which enforces the homogeneous-dimension additivity
Q(G) = Q(A) + Q(B) exactly on each of them.
"""

import math
import time
from fractions import Fraction as Q

import numpy as np
import pytest

from carnot import catalog, pdiff
from carnot.algebra import (AlgebraVector, GroupElement,
                            homogeneous_dimension)
from carnot.bch import (bch_term, cn_remainder, decompose_cn, group_product,
                        series_oracle_product)
from carnot.curves import (decay_order, group_riemann_sum, horizontal_lift,
                           is_horizontal, make_control, pansu_quotient,
                           pansu_quotient_norms, riemann_limit)
from carnot.metric import (koranyi, left_inverse_estimate, norm_exp_estimate,
                           verify_conjugation_estimate,
                           verify_product_estimate,
                           verify_projection_estimate)
from carnot.morphism import GradedMorphism
from carnot.subgroups import (NonexistenceCertificate, classify_epimorphism,
                              find_complement, h21_complement,
                              heisenberg_complement,
                              horizontal_vertical_classify, is_complementary,
                              is_ideal, layered_decomposition, quotient,
                              random_complementary_pairs, span_subalgebra,
                              subalgebra_as_algebra)
from conftest import rational_vector
from carnot import linalg

XI = np.array([0.0, 1.0, 0.0, 1.0, 0.0])
ETA = np.array([0.0, 0.0, 1.0, 1.0, 0.0])

_PAIRS_CHECKED = [0]


def check_pair_qkp(algebra, a, b):
    assert is_complementary(a, b)
    qa = homogeneous_dimension(subalgebra_as_algebra(a)) if a.total_dim else 0
    qb = homogeneous_dimension(subalgebra_as_algebra(b)) if b.total_dim else 0
    assert qa + qb == homogeneous_dimension(algebra)
    _PAIRS_CHECKED[0] += 1


def _report(num, text):
    print("PASS criterion %02d: %s" % (num, text))


def test_criterion_01_bch_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(1)
    groups = ["h1", "h2", "h12", "free_2_3", "g42"]
    for name in groups:
        g = catalog.get(name)
        for _ in range(100):
            x, y = rational_vector(g, rng), rational_vector(g, rng)
            assert group_product(x, y).coords == series_oracle_product(x, y).coords
        for _ in range(50):
            a, b, c = (rational_vector(g, rng) for _ in range(3))
            assert group_product(group_product(a, b), c).coords == \
                group_product(a, group_product(b, c)).coords
    elapsed = time.monotonic() - t0
    assert elapsed <= 60.0
    _report(1, "recursion == series oracle on 100 pairs and associativity on "
               "50 triples in each of %s (exact, %.1fs <= 60s)"
            % (", ".join(groups), elapsed))


def test_criterion_02_cn_structure():
    rng = np.random.default_rng(2)
    g = catalog.get("free_2_4")
    for _ in range(25):
        x, y = rational_vector(g, rng), rational_vector(g, rng)
        assert bch_term(1, x, y).coords == (x + y).coords
        br = g.bracket_coords(x.coords, y.coords)
        assert bch_term(2, x, y).coords == tuple(Q(1, 2) * c for c in br)
        assert all(c == 0 for c in cn_remainder(2, x, y).coords)
        lam = Q(int(rng.integers(1, 7)), int(rng.integers(1, 5)))
        for n in range(1, 5):
            assert bch_term(n, lam * x, lam * y).coords == \
                (lam ** n * bch_term(n, x, y)).coords
    for n in (2, 3, 4):
        dec = decompose_cn(n, g)
        for _ in range(10):
            x, y = rational_vector(g, rng), rational_vector(g, rng)
            assert dec.evaluate(x, y).coords == bch_term(n, x, y).coords
    _report(2, "c1 = X+Y, c2 = [X,Y]/2, R2 = 0, homogeneity, and the "
               "multilinear decomposition identity exact for n <= 4")


def test_criterion_03_horizontal_lift():
    t0 = time.monotonic()
    h1 = catalog.get("h1")
    e = GroupElement(h1, np.zeros(3))
    sq = horizontal_lift(make_control(h1, "square"), e, steps=600)
    dz = abs(sq.coords[-1][2] - 1.0)
    assert dz <= 1e-8
    par = horizontal_lift(make_control(h1, "parabola"), e, steps=500)
    dz2 = abs(par.coords[-1][2] - 1.0 / 6.0)
    assert dz2 <= 1e-8
    for curve in (sq, par):
        assert is_horizontal(curve, tol=1e-6).ok
    elapsed = time.monotonic() - t0
    assert elapsed <= 10.0
    _report(3, "square loop dz error %.2e, parabola z(1) error %.2e "
               "(<= 1e-8), lifted curves horizontal at 1e-6 (%.1fs <= 10s)"
            % (dz, dz2, elapsed))


def test_criterion_04_pansu_quotient():
    h1 = catalog.get("h1")
    e = GroupElement(h1, np.zeros(3))
    crv = horizontal_lift(make_control(h1, "circle"), e, steps=2048)
    hs = [1e-1, 1e-2, 1e-3, 1e-4]
    vals = pansu_quotient_norms(crv, 0.5, hs)
    order = decay_order(hs, vals)
    # the true order for this control is exactly 1, so the fitted slope can
    # sit within fit noise of 1; the first-order bound itself is checked
    # directly: |quotient(h)| <= C h with C fixed at the largest scale
    assert order >= 1.0 - 1e-3
    C = 1.05 * vals[0] / hs[0]
    assert all(v <= C * h for v, h in zip(vals, hs))
    # an h-homomorphism target map: the defect vanishes at all scales
    L = GradedMorphism(h1, catalog.abelian(2), [[1, 0, 0], [0, 1, 0]])
    rep = pdiff.pansu_differential(pdiff.hom_map(L), np.array([0.2, -0.4, 0.1]),
                                   h_grid=hs)
    worst_hom = max(rep.defect_by_scale.values())
    assert worst_hom <= 1e-9
    # a one-parameter subgroup has identically vanishing quotient
    line = horizontal_lift(make_control(h1, "line", direction=[1.0, 0.0]),
                           e, steps=256)
    worst_line = max(float(np.linalg.norm(pansu_quotient(line, 0.3, h)))
                     for h in hs)
    assert worst_line <= 1e-9
    _report(4, "C^2 control quotient: first-order bound holds at every scale, "
               "fitted order %.5f; h-homomorphism map defect %.1e <= 1e-9 at "
               "all scales (one-parameter subgroup quotient %.1e)"
            % (order, worst_hom, worst_line))


def test_criterion_05_riemann_limit():
    h1 = catalog.get("h1")
    ts = np.linspace(0, 1, 4001)
    parab = __import__("carnot.curves", fromlist=["SampledCurve"]).SampledCurve(
        h1, ts, np.stack([ts, ts ** 2, 0 * ts], axis=1))
    lim = riemann_limit(parab)
    closed = np.array([1.0, 1.0, -1.0 / 6.0])
    assert np.max(np.abs(lim - closed)) <= 1e-6
    meshes = [1 / 8, 1 / 16, 1 / 32, 1 / 64]
    errs = [float(np.linalg.norm(group_riemann_sum(
        parab, np.arange(0, 1 + m / 2, m)) - closed)) for m in meshes]
    order = decay_order(meshes, errs)
    assert order >= 1.0
    for m, err in zip(meshes, errs):
        assert err <= 2.0 * m  # |sigma - limit| <= C mesh with C = 2
    _report(5, "group Riemann sums: closed-form limit error %.1e <= 1e-6, "
               "fitted order %.2f >= 1 over 4 dyadic meshes"
            % (float(np.max(np.abs(lim - closed))), order))


def test_criterion_06_classification_suite():
    t0 = time.monotonic()
    h1 = catalog.get("h1")
    r2 = catalog.abelian(2)
    out = classify_epimorphism(GradedMorphism(h1, r2, [[1, 0, 0], [0, 1, 0]]))
    assert out.verdict == "surjective_not_epi"
    assert isinstance(out.witness, NonexistenceCertificate)
    g42 = catalog.get("g42")
    L1 = GradedMorphism(g42, r2, [[1, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0]])
    out1 = classify_epimorphism(L1)
    assert out1.verdict == "h_epimorphism"
    check_pair_qkp(g42, out1.kernel, out1.witness)
    L2 = GradedMorphism(g42, r2, [[0, 0, 1, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0]])
    assert classify_epimorphism(L2).verdict == "surjective_not_epi"
    nn = find_complement(span_subalgebra(h1, [0, 0, 1]))
    assert nn.verdict == "surjective_not_epi"
    assert isinstance(nn.witness, NonexistenceCertificate)
    rng = np.random.default_rng(6)
    total = 0
    for n in (1, 2, 3, 4):
        g = catalog.heisenberg(n)
        idx1 = g.layer_indices(1)
        for _ in range(50):
            p = int(rng.integers(n, 2 * n))
            rows = []
            while linalg.rank(rows) < p:
                v = [Q(0)] * g.dim
                for k in idx1:
                    v[k] = Q(int(rng.integers(-3, 4)), int(rng.integers(1, 3)))
                rows.append(v)
                rows = [list(r) for r in linalg.row_space_basis(rows)]
            s = heisenberg_complement(g, rows)
            bs = s.layer_basis(1)
            for i in range(len(bs)):
                for j in range(i + 1, len(bs)):
                    assert all(c == 0 for c in g.bracket_coords(bs[i], bs[j]))
            vert = rows + [list(g.basis_coords(k)) for k in g.layer_indices(2)]
            check_pair_qkp(g, layered_decomposition(g, vert), s)
            total += 1
    h12 = catalog.get("h12")
    n_comm = span_subalgebra(h12, [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0],
                             [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1])
    h_comm = h21_complement(h12, n_comm)
    assert h_comm.basis() == [(1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0)]
    check_pair_qkp(h12, n_comm, h_comm)
    n_noncomm = span_subalgebra(h12, [1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0],
                                [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1])
    h_nc = h21_complement(h12, n_noncomm)
    assert all(c == 0 for c in h12.bracket_coords(*h_nc.basis()))
    check_pair_qkp(h12, n_noncomm, h_nc)
    elapsed = time.monotonic() - t0
    assert elapsed <= 120.0
    _report(6, "classification examples exact (two certificates, one witness), "
               "%d random Heisenberg complements exact for n in 1..4, both "
               "constructive cases in the complexified group (%.1fs <= 120s)"
            % (total, elapsed))


def test_criterion_07_quotient_gradings():
    rng = np.random.default_rng(7)
    for n, k in ((1, 1), (2, 1), (2, 2), (3, 2)):
        g = catalog.heisenberg(n)
        idx1 = g.layer_indices(1)
        rows = []
        while linalg.rank(rows) < 2 * n - k:
            v = [Q(0)] * g.dim
            for t in idx1:
                v[t] = Q(int(rng.integers(-3, 4)), int(rng.integers(1, 3)))
            rows.append(v)
            rows = [list(r) for r in linalg.row_space_basis(rows)]
        vert = rows + [list(g.basis_coords(t)) for t in g.layer_indices(2)]
        ideal = layered_decomposition(g, vert)
        assert is_ideal(ideal)
        qalg, dpi = quotient(g, ideal)
        assert qalg.dim == k
        assert all(l == 1 for l in qalg.layer_of)
        assert not qalg.struct  # abelian: h-isomorphic to R^k
        assert dpi.is_h_homomorphism() and dpi.is_surjective()
    assert _PAIRS_CHECKED[0] >= 200
    _report(7, "vertical-kernel quotients of h^n are R^k with the induced "
               "one-layer grading; Q additivity held exactly on all %d "
               "complementary pairs produced so far" % _PAIRS_CHECKED[0])


def test_criterion_08_implicit_function():
    f = pdiff.radial_level_map(catalog.get("h2"))
    sol, numerical = pdiff.implicit_function(
        f, XI, {"radius": 0.45, "counts": [21, 21, 1]}, tol=1e-10)
    assert not numerical
    max_resid = float(np.max(sol.residuals))
    assert max_resid <= 1e-8
    uniq = pdiff.uniqueness_check(sol, restarts=5, subset=30, seed=8)
    assert uniq <= 1e-7
    hc = sol.holder_constants()
    assert math.isfinite(hc["kappa"]) and hc["kappa"] > 0
    assert math.isfinite(hc["holder_1_over_step"])
    _report(8, "level-set graph on a 21x21 kernel grid: max residual %.1e <= "
               "1e-8, 5-restart agreement %.1e <= 1e-7, intrinsic Lipschitz "
               "kappa = %.3f on %d grid pairs (1/2-Holder constant %.3f)"
            % (max_resid, uniq, hc["kappa"], hc["pairs"],
               hc["holder_1_over_step"]))


def test_criterion_09_blowup():
    f = pdiff.radial_level_map(catalog.get("h2"))
    scales = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]
    sol, _ = pdiff.implicit_function(f, XI, {"radius": 0.4, "counts": [9, 9, 3]})
    sampler = pdiff.LevelSetSampler(f, XI, sol)
    rep = pdiff.tangent_cone_samples(sampler, XI, sol.kernel, scales,
                                     R=1.0, count=350, seed=9)
    assert rep.decreasing
    assert rep.distances[-1] <= 0.05
    assert pdiff.tangent_cone_bracket_rank(sol.kernel) == 0  # commutative
    sol_eta, _ = pdiff.implicit_function(f, ETA, {"radius": 0.3,
                                                  "counts": [5, 5, 1]})
    assert pdiff.tangent_cone_bracket_rank(sol_eta.kernel) == 1
    _report(9, "blow-up distances %s decrease to %.3f <= 0.05 at R = 1; "
               "tangent cone commutative at the first base point, bracket "
               "rank 1 at the second (exact kernels)"
            % (["%.3f" % d for d in rep.distances], rep.distances[-1]))


def test_criterion_10_mean_value():
    f = pdiff.radial_level_map(catalog.get("h2"))
    tab = pdiff.mean_value_ratio(f, XI, r1=0.6, r2=8.0, pair_samples=600,
                                 bins=4, seed=10)
    assert tab.decreasing(slack=1.10)
    assert tab.bin_defect[-1] <= 0.1 * tab.bin_defect[0]
    _report(10, "difference-quotient tables over 4 dyadic bins: ratio sups %s "
                "decrease (10%% tolerance); defect last/first = %.3f <= 0.1 "
                "(ratio last/first = %.3f, order-1 limit 1/8; see ledger)"
            % (["%.3f" % v for v in tab.bin_sup],
               tab.bin_defect[-1] / tab.bin_defect[0],
               tab.bin_sup[-1] / tab.bin_sup[0]))


def test_criterion_11_metric_estimates():
    drifts = {}
    for name in ("h1", "h12"):
        g = catalog.get(name)
        K = koranyi(g)
        checks = {
            "tail_projection": lambda s: verify_projection_estimate(
                K, radius=1.0, samples=4000, seed=s)[-1].sup_observed,
            "gauge_vs_norm": lambda s: norm_exp_estimate(
                K, nu=1.0, samples=4000, seed=s).sup_observed,
            "group_difference": lambda s: left_inverse_estimate(
                K, nu=1.0, samples=4000, seed=s).sup_observed,
            "conjugation": lambda s: verify_conjugation_estimate(
                K, nu=1.0, samples=4000, seed=s)[1].sup_observed,
            "product_list": lambda s: verify_product_estimate(
                K, nu=1.0, samples=400, seed=s).sup_observed,
        }
        for label, fn in checks.items():
            a, b = fn(0), fn(1)
            assert math.isfinite(a) and math.isfinite(b) and a > 0
            combined = max(a, b)
            drift = (combined - a) / combined
            assert drift <= 0.05, (name, label, drift)
            drifts["%s/%s" % (name, label)] = drift
    worst = max(drifts.values())
    _report(11, "five estimate families finite on h1 and the complexified "
                "group; worst sup drift on sample doubling %.2f%% <= 5%%"
            % (100 * worst))


def test_criterion_12_h_type_and_factorizations():
    rng = np.random.default_rng(12)
    h12 = catalog.get("h12")
    data = h12.tags["htype"]
    for _ in range(50):
        zc = [Q(int(rng.integers(-3, 4)), int(rng.integers(1, 3)))
              for _ in range(2)]
        xc = [Q(int(rng.integers(-3, 4)), int(rng.integers(1, 3)))
              for _ in range(4)]
        jm = data.j_of(zc)
        jx = [sum(jm[r][s] * xc[s] for s in range(4)) for r in range(4)]
        assert sum(c * c for c in jx) == \
            sum(c * c for c in zc) * sum(c * c for c in xc)
        # [X, J_Z X] = |X|^2 Z for the declared center basis
        for zi in range(2):
            unit = [Q(1) if t == zi else Q(0) for t in range(2)]
            ju = data.j_of(unit)
            jux = [sum(ju[r][s] * xc[s] for s in range(4)) for r in range(4)]
            br = h12.bracket_coords(tuple(xc) + (Q(0),) * 2,
                                    tuple(jux) + (Q(0),) * 2)
            n2 = sum(c * c for c in xc)
            assert list(br[4:]) == [n2 * unit[0], n2 * unit[1]]
    # polarization on basis combinations
    for k in range(2):
        for l in range(2):
            jk, jl = data.j_matrices[k], data.j_matrices[l]
            anti = linalg.matmul(jk, jl)
            anti2 = linalg.matmul(jl, jk)
            target = Q(-2) if k == l else Q(0)
            for r in range(4):
                for s in range(4):
                    assert anti[r][s] + anti2[r][s] == \
                        (target if r == s else Q(0))
    # complementary pair with neither member normal
    a = span_subalgebra(h12, [1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0],
                        [0, 0, 0, 0, 1, 0])
    b = span_subalgebra(h12, [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0],
                        [0, 0, 0, 0, 0, 1])
    check_pair_qkp(h12, a, b)
    assert not is_ideal(a) and not is_ideal(b)
    # property tests over search-generated complementary pairs
    pairs12 = random_complementary_pairs(h12, rng, 60)
    normal_pairs = 0
    center = [list(h12.basis_coords(4)), list(h12.basis_coords(5))]
    for x, y in pairs12:
        check_pair_qkp(h12, x, y)
        for first, second in ((x, y), (y, x)):
            if is_ideal(first) and first.total_dim < h12.dim:
                normal_pairs += 1
                assert all(first.contains(v) for v in center)
                assert set(second.layered_bases) <= {1}
                bs = second.basis()
                for i in range(len(bs)):
                    for j in range(i + 1, len(bs)):
                        assert all(c == 0 for c in
                                   h12.bracket_coords(bs[i], bs[j]))
    assert normal_pairs >= 30
    count_hn = 0
    for n in (1, 2, 3):
        g = catalog.heisenberg(n)
        pairs = random_complementary_pairs(g, rng, 20)
        for x, y in pairs:
            check_pair_qkp(g, x, y)
            kinds = {horizontal_vertical_classify(x),
                     horizontal_vertical_classify(y)}
            assert kinds == {"horizontal", "vertical"}
            count_hn += 1
    assert count_hn + len(pairs12) >= 100
    _report(12, "H-type identities exact on 50 rational samples, the "
                "complementary-but-not-normal pair reproduced, and %d "
                "search-generated pairs satisfy the factorization properties"
            % (count_hn + len(pairs12)))
