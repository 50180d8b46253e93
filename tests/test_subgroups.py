import hashlib
import itertools
import json
from collections import Counter
from fractions import Fraction as Q

import numpy as np
import pytest
import sympy

from carnot import catalog
from carnot import io as cio
from carnot.algebra import (GradedAlgebra, GroupElement, dilate, homogeneous_dimension,
                            validate_grading)
from carnot.bch import group_product
from carnot.morphism import GradedMorphism, check_h_homomorphism
from carnot.subgroups import (BudgetExhausted, EpiClassification,
                              HomogeneousSubalgebra, MonoClassification,
                              NonexistenceCertificate, NotHomogeneous,
                              NotSubalgebra,
                              classify_epimorphism, classify_monomorphism,
                              find_complement, full_subalgebra, h21_complement,
                              heisenberg_complement,
                              horizontal_vertical_classify, is_complementary,
                              is_ideal, layered_decomposition, quotient,
                              max_commutative_horizontal_dim,
                              random_homogeneous_subalgebra, section_through,
                              span_subalgebra, split_element,
                              subalgebra_as_algebra, zero_subalgebra)
from conftest import rational_vector
from test_bch import _fractional_table
from test_linalg import reference_rank
from test_metric import _layer_tables


def test_layered_decomposition(h1):
    with pytest.raises(NotHomogeneous):
        span_subalgebra(h1, [1, 0, 1])  # span{X + Z}
    sub = span_subalgebra(h1, [1, 0, 0], [0, 0, 1])
    assert sorted(sub.layered_bases) == [1, 2]
    with pytest.raises(NotSubalgebra):
        span_subalgebra(h1, [1, 0, 0], [0, 1, 0])  # bracket escapes


def test_is_ideal(h1):
    assert is_ideal(span_subalgebra(h1, [0, 0, 1]))            # center
    assert is_ideal(span_subalgebra(h1, [1, 0, 0], [0, 0, 1]))  # span{X, Z}
    assert not is_ideal(span_subalgebra(h1, [1, 0, 0]))         # span{X}
    from carnot.subgroups import full_subalgebra
    assert is_ideal(full_subalgebra(h1))


def test_is_complementary(h1, h2):
    for lam in (Q(0), Q(1), Q(-3, 2)):
        a = span_subalgebra(h1, [1, lam, 0])
        s = span_subalgebra(h1, [0, 1, 0], [0, 0, 1])
        assert is_complementary(a, s)
    assert not is_complementary(span_subalgebra(h1, [1, 0, 0], [0, 0, 1]),
                                span_subalgebra(h1, [0, 1, 0], [0, 0, 1]))
    with pytest.raises(ValueError, match="different algebras"):
        is_complementary(span_subalgebra(h1, [1, 0, 0]),
                         span_subalgebra(h2, [1, 0, 0, 0, 0]))


def test_quotient_abelianization(h1):
    qalg, dpi = quotient(h1, span_subalgebra(h1, [0, 0, 1]))
    assert qalg.dim == 2 and qalg.step == 1 and not qalg.struct
    rep = check_h_homomorphism(dpi)
    assert rep.is_h_homomorphism and dpi.is_surjective()


def test_quotient_vertical_kernel(h2):
    # h^2 / exp(u + V2) with u of codim k inside V1 is R^k with one layer
    u = span_subalgebra(h2, [0, 1, 0, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1])
    qalg, dpi = quotient(h2, u)
    assert qalg.dim == 2 and all(l == 1 for l in qalg.layer_of)
    assert not qalg.struct


def test_quotient_dilation_covariance(f23, rng):
    center = span_subalgebra(f23, [0, 0, 0, 1, 0], [0, 0, 0, 0, 1])
    qalg, dpi = quotient(f23, center)
    for _ in range(5):
        x = rational_vector(f23, rng)
        r = Q(int(rng.integers(1, 5)), int(rng.integers(1, 3)))
        assert dpi(dilate(x, r)).coords == dilate(dpi(x), r).coords
    from carnot.algebra import is_stratified
    assert is_stratified(qalg)


def test_quotient_by_everything(h1):
    from carnot.subgroups import full_subalgebra
    qalg, dpi = quotient(h1, full_subalgebra(h1))
    assert qalg.dim == 0 and dpi.is_h_homomorphism() and dpi.is_surjective()
    assert dpi.apply_coords((1, 2, 3)) == ()


def test_quotient_requires_ideal(h1):
    with pytest.raises(ValueError):
        quotient(h1, span_subalgebra(h1, [1, 0, 0]))


def test_derived_algebras_validate():
    # subalgebra_as_algebra and quotient build their algebras without
    # validation; the algebras must be valid by construction.  Random
    # ideals nearly always contain the derived algebra, so the line through
    # the last basis vector (top layer, hence central) is added as an ideal
    # with a non-abelian quotient on most groups.
    nonabelian = {"sub": 0, "quotient": 0}
    for name in ("h1", "h2", "h3", "g42", "h12", "free_2_3", "free_3_2"):
        alg = catalog.get(name)
        rng = np.random.default_rng(11)
        ideals = [span_subalgebra(alg, alg.basis_coords(alg.dim - 1))]
        for _ in range(12):
            sub = random_homogeneous_subalgebra(alg, rng,
                                                n_generators=int(rng.integers(1, 3)))
            small = subalgebra_as_algebra(sub)
            assert validate_grading(small).ok, name
            nonabelian["sub"] += bool(small.struct)
            if is_ideal(sub):
                ideals.append(sub)
        assert len(ideals) > 1, name
        for ideal in ideals:
            qalg = quotient(alg, ideal)[0]
            assert validate_grading(qalg).ok, name
            nonabelian["quotient"] += bool(qalg.struct)
    assert nonabelian["sub"] >= 20 and nonabelian["quotient"] >= 4, nonabelian


def test_check_h_homomorphism(h1):
    r2 = catalog.abelian(2)
    zero = GradedMorphism(h1, h1, [[0] * 3] * 3)
    assert check_h_homomorphism(zero).is_h_homomorphism
    proj = GradedMorphism(h1, r2, [[1, 0, 0], [0, 1, 0]])
    rep = check_h_homomorphism(proj)
    assert rep.is_h_homomorphism and proj.is_surjective()
    swap = GradedMorphism(h1, h1, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    assert not check_h_homomorphism(swap).is_layer_preserving
    assert check_h_homomorphism(swap).violations == [
        ("layer", 0, 2), ("layer", 2, 0), ("bracket", 0, 1), ("bracket", 1, 2)]
    # one cached report per morphism, read by the three flags
    assert check_h_homomorphism(proj) is rep and proj.is_h_homomorphism()
    # a float morphism keeps its layer verdict, lists no bracket violations,
    # and is never reported a Lie homomorphism
    fproj = proj.to_float()
    assert fproj.is_layer_preserving() and not fproj.is_lie_hom()
    assert not fproj.is_h_homomorphism()
    assert check_h_homomorphism(swap.to_float()).violations == [
        ("layer", 0, 2), ("layer", 2, 0)]


def test_classify_epi_heisenberg_to_r2(h1):
    # surjective but no h-homomorphism right inverse: every 2-dim homogeneous
    # subalgebra of h^1 contains the center
    L = GradedMorphism(h1, catalog.abelian(2), [[1, 0, 0], [0, 1, 0]])
    out = classify_epimorphism(L)
    assert out.verdict == "surjective_not_epi"
    assert isinstance(out.witness, NonexistenceCertificate)


def test_classify_epi_counterexample_pair(g42):
    r2 = catalog.abelian(2)
    L1 = GradedMorphism(g42, r2, [[1, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0]])
    out1 = classify_epimorphism(L1)
    assert out1.verdict == "h_epimorphism"
    assert is_complementary(out1.witness, out1.kernel)
    # the restriction of L1 to the witness is an exact h-isomorphism
    cols = [L1.apply_coords(v) for v in out1.witness.basis()]
    from carnot import linalg
    assert linalg.rank([list(c) for c in cols]) == 2
    L2 = GradedMorphism(g42, r2, [[0, 0, 1, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0]])
    out2 = classify_epimorphism(L2)
    assert out2.verdict == "surjective_not_epi"
    assert isinstance(out2.witness, NonexistenceCertificate)


def test_classify_epi_not_surjective(h1):
    L = GradedMorphism(h1, catalog.abelian(2), [[1, 0, 0], [2, 0, 0]])
    assert classify_epimorphism(L).verdict == "not_surjective"


def test_classify_epi_rejects_non_hom(h1):
    bad = GradedMorphism(h1, h1, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    with pytest.raises(ValueError):
        classify_epimorphism(bad)


def test_subalgebra_rows_are_canonical(rng):
    # equality and the hash read the integer rows: each the primitive
    # multiple of its basis() vector with a positive pivot entry, whatever
    # spanning set, scale, sign or order the space was given by
    for name in ("h2", "free_2_3", "g42"):
        g = catalog.get(name)
        for _ in range(15):
            s = random_homogeneous_subalgebra(g, rng, 2)
            t = layered_decomposition(g, [[-3 * x for x in v] for v in s.basis()][::-1])
            for row, p, b in zip(s.rows, s.pivots, s.basis()):
                assert row[p] > 0 and tuple(Q(x, row[p]) for x in row) == b
            assert s.rows == t.rows and s == t and hash(s) == hash(t)


def test_equal_subalgebras_of_equal_tables_hash_alike(h1):
    # equality compares the algebras by their tables, so the hash does too:
    # a copy of the h1 table is not the h1 object, and a set holds one span
    h1b = GradedAlgebra("h1", h1.layer_of, h1.struct)
    a, b = span_subalgebra(h1, [1, 0, 0]), span_subalgebra(h1b, [1, 0, 0])
    assert h1b is not h1 and a == b and hash(a) == hash(b) and len({a, b}) == 1


def test_complement_of_non_ideal_is_canonical(h2):
    # span{x1 + y1} is not an ideal; its complement is the canonical
    # per-layer one: standard vectors off the pivots, plus the center
    sub = span_subalgebra(h2, [1, 1, 0, 0, 0])
    assert not is_ideal(sub)
    out = find_complement(sub)
    assert out.verdict == "h_epimorphism"
    assert out.witness == span_subalgebra(h2, [0, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                                          [0, 0, 0, 1, 0], [0, 0, 0, 0, 1])


def test_complement_of_center_nonexistence(h1):
    out = find_complement(span_subalgebra(h1, [0, 0, 1]))
    assert out.verdict == "surjective_not_epi"
    assert isinstance(out.witness, NonexistenceCertificate)


def test_heisenberg_complement_examples(h1, h2):
    s = heisenberg_complement(h1, [[0, 1, 0]])
    assert s.basis() == [(1, 0, 0)]
    s2 = heisenberg_complement(h2, [[0, 1, 0, 0, 0], [0, 0, 0, 1, 0]])
    bs = s2.layer_basis(1)
    assert len(bs) == 2
    for i in range(2):
        for j in range(i + 1, 2):
            assert all(c == 0 for c in h2.bracket_coords(bs[i], bs[j]))


def test_heisenberg_complement_randomized(rng):
    # exact commutative complement for random horizontal kernels, n <= 4
    for n in (1, 2, 3, 4):
        g = catalog.heisenberg(n)
        idx1 = g.layer_indices(1)
        for _ in range(10):
            p = int(rng.integers(n, 2 * n))
            rows = []
            from carnot import linalg
            while linalg.rank(rows) < p:
                v = [Q(0)] * g.dim
                for k in idx1:
                    v[k] = Q(int(rng.integers(-3, 4)), int(rng.integers(1, 3)))
                rows.append(v)
                rows = [list(r) for r in linalg.row_space_basis(rows)]
            s = heisenberg_complement(g, rows)
            assert s.total_dim == 2 * n - p
            bs = s.layer_basis(1)
            for i in range(len(bs)):
                for j in range(i + 1, len(bs)):
                    assert all(c == 0 for c in g.bracket_coords(bs[i], bs[j]))
            assert linalg.rank(rows + [list(v) for v in bs]) == 2 * n


def test_heisenberg_complement_hypotheses(h1, h2):
    with pytest.raises(ValueError):
        heisenberg_complement(h2, [[0, 0, 0, 0, 1]])  # not horizontal
    with pytest.raises(ValueError):
        heisenberg_complement(h1, [])  # dim 0 < n


def test_h21_complement_commutative_case(h12):
    nsub = span_subalgebra(h12, [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0],
                           [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1])
    out = h21_complement(h12, nsub)
    assert out.basis() == [(1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0)]  # span{r0, r3}
    assert all(c == 0 for c in h12.bracket_coords(*out.basis()))
    assert is_complementary(out, nsub)


def test_h21_complement_noncommutative_case(h12, rng):
    for _ in range(20):
        # random 2-dim horizontal part with nonvanishing bracket
        while True:
            v = [Q(int(rng.integers(-3, 4)), int(rng.integers(1, 3)))
                 for _ in range(4)] + [Q(0)] * 2
            w = [Q(int(rng.integers(-3, 4)), int(rng.integers(1, 3)))
                 for _ in range(4)] + [Q(0)] * 2
            from carnot import linalg
            if linalg.rank([v, w]) == 2 and \
                    any(c != 0 for c in h12.bracket_coords(tuple(v), tuple(w))):
                break
        nsub = span_subalgebra(h12, v, w, [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1])
        out = h21_complement(h12, nsub)
        assert is_complementary(out, nsub)
        bs = out.basis()
        assert all(c == 0 for c in h12.bracket_coords(bs[0], bs[1]))


def test_classify_mono(h1):
    r1 = catalog.abelian(1)
    T = GradedMorphism(r1, h1, [[1], [0], [0]])
    out = classify_monomorphism(T)
    assert out.verdict == "h_monomorphism"
    assert out.normal_complement.total_dim == 2
    assert is_ideal(out.normal_complement)
    # the canonical complement: span{Y, Z}
    assert out.normal_complement == span_subalgebra(h1, [0, 1, 0], [0, 0, 1])
    # p restricted to the image is the identity
    p = out.projection
    img = out.image.basis()[0]
    assert p.apply_coords(img) == img
    # identity map: trivial complement
    from carnot.morphism import identity_morphism
    out2 = classify_monomorphism(identity_morphism(h1))
    assert out2.verdict == "h_monomorphism"
    assert out2.normal_complement.total_dim == 0
    assert out2.normal_complement == zero_subalgebra(h1)
    # non-injective
    T3 = GradedMorphism(r1, h1, [[0], [0], [0]])
    assert classify_monomorphism(T3).verdict == "not_injective"


def test_classify_mono_undecided_spends_no_trials(h1):
    # the inclusion of the center of h^1: its canonical complement span{X, Y}
    # is not a subalgebra, and no tier searches at random
    center = span_subalgebra(h1, [0, 0, 1])
    T = GradedMorphism(subalgebra_as_algebra(center), h1, [[0], [0], [1]])
    out = classify_monomorphism(T)
    assert (out.verdict, out.tier) == ("undecided", None)
    assert isinstance(out.normal_complement, BudgetExhausted)
    assert out.normal_complement.trials == 0
    assert out.normal_complement.note == \
        "ran: coordinate complements of the image; none is an ideal"
    assert out.to_json_dict()["certificate"]["reason"] == "no_exact_tier"
    assert out.to_json_dict()["tier"] is None


def test_classify_mono_r2_into_h2(h2):
    r2 = catalog.abelian(2)
    # t -> exp(t1 x1 + t2 x2): commutative horizontal image
    T = GradedMorphism(r2, h2, [[1, 0], [0, 0], [0, 1], [0, 0], [0, 0]])
    out = classify_monomorphism(T)
    assert out.verdict == "h_monomorphism"
    n = out.normal_complement
    assert is_ideal(n) and is_complementary(n, out.image)
    # the kernel construction: complement inside V1 plus all higher layers
    assert len(n.layer_basis(2)) == 1
    assert n == span_subalgebra(h2, [0, 1, 0, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1])


def test_horizontal_vertical(h1, h2):
    assert horizontal_vertical_classify(span_subalgebra(h1, [1, Q(1, 2), 0])) \
        == "horizontal"
    assert horizontal_vertical_classify(
        span_subalgebra(h1, [0, 1, 0], [0, 0, 1])) == "vertical"
    sub = span_subalgebra(h2, [1, 0, 0, 0, 0])
    assert horizontal_vertical_classify(sub) == "horizontal"
    with pytest.raises(ValueError):
        horizontal_vertical_classify(span_subalgebra(catalog.abelian(2), [1, 0]))


def test_max_commutative_horizontal(h12):
    for n in (1, 2, 3):
        rep = max_commutative_horizontal_dim(catalog.heisenberg(n))
        assert rep.exact and rep.dim == n
    rep12 = max_commutative_horizontal_dim(h12)
    assert rep12.exact and rep12.dim == 2
    repab = max_commutative_horizontal_dim(catalog.abelian(3))
    assert repab.exact and repab.dim == 3


def test_split_element(h1, rng):
    P = span_subalgebra(h1, [0, 1, 0], [0, 0, 1])
    H = span_subalgebra(h1, [1, 0, 0])
    for _ in range(10):
        g = GroupElement(h1, rational_vector(h1, rng).coords)
        p, h = split_element(g, P, H)
        assert group_product(p, h).coords == g.coords
        assert P.contains(p.coords) and H.contains(h.coords)
        # deterministic
        p2, h2 = split_element(g, P, H)
        assert p2.coords == p.coords and h2.coords == h.coords
    # a pair that is not complementary is refused even when the element
    # happens to factor through it
    with pytest.raises(ValueError, match="layer 1"):
        split_element(GroupElement(h1, H.basis()[0]), H, H)
    with pytest.raises(ValueError, match="layer 1"):
        split_element(GroupElement(h1, [0, 0, 1]), span_subalgebra(h1, [0, 0, 1]),
                      zero_subalgebra(h1))


def test_section_through_witness(g42):
    r2 = catalog.abelian(2)
    L1 = GradedMorphism(g42, r2, [[1, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0]])
    out = classify_epimorphism(L1)
    qalg, dpi = quotient(g42, out.kernel)
    sec = section_through(dpi, out.witness)
    comp = dpi.compose(sec)
    from carnot import linalg
    assert comp.matrix == linalg.identity(qalg.dim)


def test_qkp_additivity_on_found_pairs(h2, rng):
    from carnot.subgroups import random_complementary_pairs
    total = homogeneous_dimension(h2)
    pairs = random_complementary_pairs(h2, rng, 12)
    assert len(pairs) == 12
    for a, b in pairs:
        qa = homogeneous_dimension(subalgebra_as_algebra(a))
        qb = homogeneous_dimension(subalgebra_as_algebra(b))
        assert qa + qb == total


def test_find_complement_tries_every_coordinate_chart():
    # in free_2_3 (x1, x2, [x2,x1], [[x2,x1],x1], [[x2,x1],x2]) the canonical
    # complement {x1, [x2,x1], [[x2,x1],x2]} of span{x2, [[x2,x1],x1] -
    # 2 [[x2,x1],x2]} is not a subalgebra, since [x1, [x2,x1]] leaves it;
    # taking [[x2,x1],x1] in the third layer instead gives one
    g = catalog.get("free_2_3")
    sub = span_subalgebra(g, [0, 1, 0, 0, 0], [0, 0, 0, 1, -2])
    assert not is_ideal(sub)
    out = find_complement(sub)
    assert out.verdict == "h_epimorphism" and is_complementary(sub, out.witness)
    assert out.tier == "coordinate complements"
    assert out.witness == span_subalgebra(g, [1, 0, 0, 0, 0], [0, 0, 1, 0, 0],
                                          [0, 0, 0, 1, 0])


def test_quadratic_tier_and_honest_budget(h2):
    # the embedded copy span{x1, y1, z} of the 3-dimensional Heisenberg group
    # inside h^2 is an ideal whose complement needs a nonzero correction
    # (C = 0 fails: [x2, y2] = z must be absorbed), so the classification
    # lands in the quadratic tiers; it has no coordinate complement, and the
    # Heisenberg closed form splits it
    sub = span_subalgebra(h2, [1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 0, 1])
    assert is_ideal(sub)
    out = find_complement(sub, budget=4000, seed=0)
    assert (out.verdict, out.tier) == ("h_epimorphism", "Heisenberg closed form")
    assert is_complementary(out.witness, sub)
    # with no random tier (and the witness not at C = 0) the verdict must
    # be a witness or an explicit undecided marker, never a silent
    # nonexistence claim
    from carnot.subgroups import quotient as q_
    _, dpi = q_(h2, sub)
    out0 = classify_epimorphism(dpi)
    assert out0.verdict in ("undecided", "h_epimorphism")
    if out0.verdict == "undecided":
        assert isinstance(out0.witness, BudgetExhausted)


def _groebner_says_empty_reference(eqs, nvars):
    """1 in the ideal of the equations over Q, read off a reduced sympy
    Groebner basis: the reference for the in-repo unit-ideal test."""
    xs = sympy.symbols("c0:%d" % nvars)
    polys = [sympy.Poly(sum((sympy.Rational(c.numerator, c.denominator) *
                             sympy.Mul(*(xs[v] for v in mono))
                             for mono, c in p.terms.items()), sympy.Integer(0)),
                        *xs, domain="QQ") for p in eqs]
    return sympy.groebner(polys, *xs, order="grevlex").exprs == [sympy.Integer(1)]


def _h1xh1():
    # basis x1, y1, z1, x2, y2, z2
    return catalog.direct_product(catalog.get("h1"), catalog.get("h1"))


def _h1xh2():
    # basis h1.x1, h1.y1, h1.z, h2.x1, h2.y1, h2.x2, h2.y2, h2.z
    return catalog.direct_product(catalog.get("h1"), catalog.get("h2"))


def _units(g, *sums):
    """One vector per tuple of basis indices: the sum of those basis vectors."""
    return span_subalgebra(g, *[[int(k in ks) for k in range(g.dim)] for ks in sums])


def test_classification_cross_validation(rng):
    # witnesses must verify exactly; nonexistence certificates must agree
    # with a sympy Groebner basis and survive an independent random probe
    from carnot.subgroups import _right_inverse_system, quotient as q_
    reasons = set()
    for g in (catalog.get("h1"), catalog.get("h2"), _h1xh1(), _h1xh2()):
        subs = []
        for seed in range(10):
            local = np.random.default_rng(seed)
            subs.append(random_homogeneous_subalgebra(
                g, local, n_generators=int(local.integers(1, 3))))
        if g.name == "h1xh1":
            subs.append(_units(g, (3,), (4,), (2,), (5,)))
        for seed, sub in enumerate(subs):
            if sub.total_dim in (0, g.dim) or not is_ideal(sub):
                continue
            out = find_complement(sub, budget=300, seed=seed)
            if out.verdict == "h_epimorphism":
                assert is_complementary(sub, out.witness)
            elif out.verdict == "surjective_not_epi":
                reasons.add(out.witness.reason)
                _, dpi = q_(g, sub)
                eqs, _, nvars = _right_inverse_system(dpi, sub)
                if 0 < nvars <= 10:
                    assert _groebner_says_empty_reference(eqs, nvars)
                probe = np.random.default_rng(seed + 77)
                for _ in range(120):
                    cand = random_homogeneous_subalgebra(
                        g, probe, n_generators=max(1, g.dim - sub.total_dim - 1))
                    assert not (cand.total_dim == g.dim - sub.total_dim
                                and is_complementary(sub, cand))
    assert "unit_ideal" in reasons, reasons


def test_unit_ideal_degree():
    from carnot.algebra import Polynomial
    from carnot.subgroups import _unit_ideal_degree
    x0, x1 = Polynomial({(0,): 1}), Polynomial({(1,): 1})
    assert _unit_ideal_degree([x0 * x1, x0 * x1 + 3], 2) == 0
    # 1 = x1 * x0 - (x0 x1 - 1): degree 1, and no constant combination
    eqs = [x0 * x1 - 1, x0]
    assert _unit_ideal_degree(eqs, 2) == 1 and _groebner_says_empty_reference(eqs, 2)
    assert _unit_ideal_degree([x0 * x1 - 1, x0 - 1], 2) is None


def test_unit_ideal_tier_on_h1xh1():
    # a right inverse sends x1~, y1~ to x1 + u, y1 + w with u, w in
    # span{x2, y2}; their bracket is z1 + (...) z2, so the z1 equation is 1 = 0
    out = find_complement(_units(_h1xh1(), (3,), (4,), (2,), (5,)))
    assert out.verdict == "surjective_not_epi"
    assert out.tier == "unit-ideal test of degree <= 1"
    assert out.witness.reason == "unit_ideal"
    assert out.witness.detail.startswith("degree 0:")


def _h1xh1_mixed():
    # h1 x h1 in the first-layer basis u1 = x1 + x2, v1 = y1 + y2, u2 = x2,
    # v2 = y2; basis u1, v1, z1, u2, v2, z2: [u1, v1] = z1 + z2 and
    # [u1, v2] = [u2, v1] = [u2, v2] = z2
    return GradedAlgebra("h1xh1", [1, 1, 2, 1, 1, 2], {
        (0, 1): {2: 1, 5: 1}, (0, 4): {5: 1}, (1, 3): {5: -1}, (3, 4): {5: 1}})


def test_undecided_on_h1xh1(tmp_path, capsys):
    # the second factor span{u2, v2, z2} is an ideal, and the first factor
    # span{u1 - u2, v1 - v2, z1} a complement of it.  Its one coordinate
    # candidate span{u1, v1, z1} is not a subalgebra, the quotient h1 is
    # not abelian, and a system with a solution has no unit-ideal
    # certificate, so no tier decides
    from carnot.cli import main
    g = _h1xh1_mixed()
    sub = _units(g, (3,), (4,), (5,))
    assert is_ideal(sub) and is_complementary(sub, span_subalgebra(
        g, [1, 0, 0, -1, 0, 0], [0, 1, 0, 0, -1, 0], [0, 0, 1, 0, 0, 0]))
    out = find_complement(sub)
    assert (out.verdict, out.tier) == ("undecided", None)
    assert out.witness.note.endswith(
        "ran: coordinate complements, unit-ideal test of degree <= 1")
    group, vectors = tmp_path / "g.json", tmp_path / "s.json"
    group.write_text(cio.emit_group(g))
    vectors.write_text(json.dumps({"vectors": [[str(c) for c in v] for v in sub.basis()]}))
    assert main(["subgroups", "complement", "--group", str(group), str(vectors)]) == 4
    got = json.loads(capsys.readouterr().out)
    assert (got["verdict"], got["tier"]) == ("undecided", None)


def test_undecided_note_names_each_tier_whose_precondition_held():
    # span{u1, v2, z1, z2} of the mixed h1 x h1 table is an ideal with an
    # abelian quotient, so the closed forms and the bound apply as well:
    # the table is neither h^n nor h12, and the bound 2 does not exceed
    # dim M = 2.  The affine tier did not apply: its system is quadratic
    out = find_complement(_units(_h1xh1_mixed(), (0,), (4,), (2,), (5,)))
    assert (out.verdict, out.tier) == ("undecided", None)
    assert out.witness.note == (
        "4-unknown quadratic system; ran: coordinate complements, Heisenberg closed "
        "form, h12 closed form, isotropic rank bound, unit-ideal test of degree <= 1")


def test_isotropic_bound_on_h1xh2():
    # the forms of h1.z and h2.z sum to a nondegenerate form on the
    # 6-dimensional first layer: commutative horizontal subalgebras have
    # dimension <= 3, and the quotient needs 4
    out = find_complement(_units(_h1xh2(), (5,), (6,), (2,), (7,)))
    assert (out.verdict, out.tier) == ("surjective_not_epi", "isotropic rank bound")
    assert out.witness.reason == "isotropic_dimension_bound"
    assert out.witness.detail.endswith("<= 3 < 4")


def test_isotropic_bound_is_kept_on_the_algebra(monkeypatch):
    # the bound depends on the table only: the first call runs the ranks,
    # a second call on the same algebra reads the kept value and runs none
    from carnot import linalg
    from carnot.subgroups import _isotropic_bound
    ranks, rank = [], linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda rows: ranks.append(rows) or rank(rows))
    g = _h1xh2()
    assert _isotropic_bound(g) == 3
    first = len(ranks)
    assert first > 0
    assert _isotropic_bound(g) == 3 and len(ranks) == first


def _zero_correction_reference(L, kernel):
    """The tier that the coordinate complements replaced: the particular
    right inverse, with every kernel correction zero, when it solves a
    quadratic right-inverse system; else None."""
    from carnot.subgroups import _right_inverse_system, _system_degree
    eqs, cols, nvars = _right_inverse_system(L, kernel)
    zero = [Q(0)] * nvars
    if _system_degree(eqs) <= 1 or any(p(zero) for p in eqs):
        return None
    return layered_decomposition(L.domain, [[p(zero) for p in col] for col in cols])


def test_coordinate_tier_decides_what_zero_correction_decided():
    # the zero-correction witness spans the pivot columns of the quotient
    # projection, a coordinate complement; every ideal it decides gets the
    # first coordinate complement instead
    from carnot.subgroups import _coordinate_complements, _coordinate_span
    decided = 0
    for name in ("h1", "h2", "h3", "g42", "h12", "free_2_3", "free_3_2"):
        g = catalog.get(name)
        local = np.random.default_rng(3)
        for _ in range(40):
            sub = random_homogeneous_subalgebra(
                g, local, n_generators=int(local.integers(1, 3)))
            if not is_ideal(sub):
                continue
            ref = _zero_correction_reference(quotient(g, sub)[1], sub)
            if ref is None:
                continue
            decided += 1
            assert all(sorted(v) == [0] * (g.dim - 1) + [1] for v in ref.basis())
            out = find_complement(sub)
            assert (out.verdict, out.tier) == ("h_epimorphism", "coordinate complements")
            assert out.witness == _coordinate_span(g, next(_coordinate_complements(sub)))
            assert is_complementary(sub, out.witness)
    assert decided >= 20, decided


@pytest.mark.parametrize("name", ["h1", "h2", "h3", "h12"])
def test_file_loaded_group_gets_the_catalog_verdicts(name):
    # the classifiers read the structure table only: a group written to a
    # file and read back is classified as its catalog original
    g = catalog.get(name)
    f = cio.parse_group_dict(cio.group_to_dict(g))
    local = np.random.default_rng(0)
    verdicts = set()
    for _ in range(60):
        sub = random_homogeneous_subalgebra(g, local, n_generators=int(local.integers(1, 3)))
        if not is_ideal(sub):
            continue
        want = find_complement(sub)
        got = find_complement(layered_decomposition(f, sub.basis()))
        assert got.to_json_dict() == want.to_json_dict()
        verdicts.add(got.verdict)
        if got.verdict == "h_epimorphism":
            assert is_complementary(got.kernel, got.witness)
    assert "undecided" not in verdicts and verdicts, verdicts


def test_closed_forms_on_file_loaded_groups():
    def loaded(g):
        return cio.parse_group_dict(cio.group_to_dict(g))

    for name, n1 in (("h2", [[0, 1, 0, 0, 0], [0, 0, 0, 1, 0]]),
                     ("h3", [[1, 1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, 0],
                             [0, 0, 0, 0, 1, 2, 0]])):
        g = catalog.get(name)
        assert heisenberg_complement(loaded(g), n1).basis() == \
            heisenberg_complement(g, n1).basis()
    h12 = catalog.get("h12")
    for n1 in ([[0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]],      # commutative
               [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]],      # [r0, r1] = z1
               [[1, 2, 0, -1, 0, 0], [0, 1, Q(1, 2), 3, 0, 0]]):
        assert h21_complement(loaded(h12), n1).basis() == h21_complement(h12, n1).basis()


def test_h21_complement_refuses_h1xh1():
    # layer dims [4, 2], but J_{z1} is zero on x2, y2: not the table of h12
    g = _h1xh1()
    assert g.layer_dims() == [4, 2]
    with pytest.raises(ValueError, match="h12"):
        h21_complement(g, [[1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0]])


def test_find_complement_tests_an_ideal_once(monkeypatch):
    # the ideal check runs once per input; the quotient of an ideal is
    # built without a second one
    from carnot import subgroups as sg
    calls, real = [], sg.is_ideal
    monkeypatch.setattr(sg, "is_ideal", lambda sub: calls.append(sub) or real(sub))
    ideals = 0
    for name in ("h1", "h2", "g42", "h12"):
        g = catalog.get(name)
        local = np.random.default_rng(5)
        for _ in range(8):
            sub = random_homogeneous_subalgebra(g, local)
            ideals += real(sub)
            calls.clear()
            sg.find_complement(sub)
            assert calls == [sub], name
    assert ideals >= 8


# ---------------------------------------------------------------------------
# the integer classification path against the Fraction routes it replaced
# ---------------------------------------------------------------------------

def _in_span_reference(rows, v):
    """Membership by one textbook Fraction elimination per call."""
    return reference_rank(rows + [list(v)]) == reference_rank(rows)


def _is_ideal_reference(sub):
    """[e_k, v] in the span for every basis vector e_k of G and v of sub,
    each bracket of Fraction vectors checked by its own elimination."""
    alg = sub.algebra
    rows = [list(v) for v in sub.basis()]
    return all(_in_span_reference(rows, alg.bracket_coords(
        tuple(map(Q, alg.basis_coords(k))), v))
        for k in range(alg.dim) for v in sub.basis())


def _solve_coords(cols, vec):
    """Coordinates of vec in the columns cols, by an exact solve."""
    from carnot import linalg
    sol = linalg.solve([list(r) for r in zip(*cols)], list(vec))
    assert sol is not None
    return sol


def _table_reference(alg, vectors, coords_of):
    return {(a, b): dict(enumerate(coords_of(alg.bracket_coords(vectors[a], vectors[b]))))
            for a in range(len(vectors)) for b in range(a + 1, len(vectors))}


def _quotient_reference(alg, ideal):
    """(layers, projection matrix, structure table) of the quotient: the
    representatives are the non-pivot columns of each layer's rref, and each
    vector is read by a solve in representatives + ideal basis."""
    from carnot import linalg
    reps = []
    for layer in range(1, alg.step + 1):
        idx = alg.layer_indices(layer)
        rows = [[v[k] for k in idx] for v in ideal.layer_basis(layer)]
        pivots = linalg.rref(rows)[1] if rows else []
        reps += [k for pos, k in enumerate(idx) if pos not in pivots]
    units = [tuple(map(Q, alg.basis_coords(k))) for k in range(alg.dim)]
    cols = [units[k] for k in reps] + ideal.basis()

    def reduce_mod(vec):
        return _solve_coords(cols, vec)[:len(reps)]

    proj = [list(r) for r in zip(*[reduce_mod(u) for u in units])]
    return ([alg.layer_of[k] for k in reps], proj,
            _table_reference(alg, [units[k] for k in reps], reduce_mod))


def _subalgebra_table_reference(sub):
    basis = sub.basis()
    return _table_reference(sub.algebra, basis, lambda vec: _solve_coords(basis, vec))


def _check_h_homomorphism_reference(L):
    """The bracket violations of L, from Fraction matrix-vector products."""
    dom, cod = L.domain, L.codomain
    cols = [L.column(j) for j in range(dom.dim)]
    units = [tuple(map(Q, dom.basis_coords(k))) for k in range(dom.dim)]

    def apply(v):
        return tuple(sum((a * b for a, b in zip(row, v)), Q(0)) for row in L.matrix)

    return [("bracket", i, j) for i in range(dom.dim) for j in range(i + 1, dom.dim)
            if apply(dom.bracket_coords(units[i], units[j]))
            != cod.bracket_coords(cols[i], cols[j])]


def _assert_matches_references(sub):
    from carnot.algebra import GradedAlgebra
    alg = sub.algebra
    ideal = is_ideal(sub)
    assert ideal == _is_ideal_reference(sub)
    assert subalgebra_as_algebra(sub) == GradedAlgebra(
        "ref", sub.basis_layers(), _subalgebra_table_reference(sub))
    if ideal:
        qalg, dpi = quotient(alg, sub)
        layers, proj, table = _quotient_reference(alg, sub)
        assert qalg == GradedAlgebra("ref", layers, table)
        assert dpi.matrix == proj
    # the inclusion of sub, and the projection when sub is an ideal
    basis = sub.basis()
    incl = GradedMorphism(subalgebra_as_algebra(sub), alg,
                          [[v[r] for v in basis] for r in range(alg.dim)])
    for L in [incl] + ([dpi] if ideal else []):
        assert [v for v in check_h_homomorphism(L).violations if v[0] == "bracket"] \
            == _check_h_homomorphism_reference(L) == []
    return ideal


@pytest.mark.parametrize("name", list(catalog.catalog_names()) + ["frac5"])
def test_integer_path_matches_fraction_references(name):
    alg = _fractional_table() if name == "frac5" else catalog.get(name)
    rng = np.random.default_rng(5)
    subs = [random_homogeneous_subalgebra(alg, rng, n_generators=int(rng.integers(1, 3)))
            for _ in range(4 if alg.dim > 8 else 10)]
    # the line through the last basis vector is central (top layer), so every
    # group runs the quotient branch at least once
    subs.append(span_subalgebra(alg, alg.basis_coords(alg.dim - 1)))
    for sub in subs:
        _assert_matches_references(sub)


CLASSIFY_GROUPS = ("h1", "h2", "h3", "g42", "h12", "free_2_3", "free_3_2")


def test_float_basis_is_the_fraction_basis_as_floats():
    # each integer row over its pivot entry gives the floats of the Fraction
    # basis() bit for bit, also where a Fraction does not reduce to a short
    # binary one and where the integers overflow an int64
    def bits(rows):
        return [[float(x).hex() for x in row] for row in rows]

    subs = [span_subalgebra(catalog.abelian(3), [2**32, 2**32, 1], [1, 2**32 + 1, 0])]
    for name in CLASSIFY_GROUPS:
        rng = np.random.default_rng(13)
        subs += [random_homogeneous_subalgebra(catalog.get(name), rng, n_generators=2)
                 for _ in range(12)]
    thirds = 0
    for sub in subs:
        got = sub.float_basis()
        assert all(type(x) is float for row in got for x in row)
        assert bits(got) == bits(sub.basis())
        thirds += any(c.denominator % 3 == 0 for v in sub.basis() for c in map(Q, v))
    assert thirds >= 5, thirds


def test_subalgebra_tables_with_non_unit_pivots():
    # the integer rows of these draws have pivot entries other than 1, so
    # each induced entry is divided by a product of pivots; the table is the
    # one read off the Fraction basis(), zeros dropped
    non_unit = 0
    for name in CLASSIFY_GROUPS:
        alg = catalog.get(name)
        rng = np.random.default_rng(9)
        for _ in range(8):
            sub = random_homogeneous_subalgebra(alg, rng, n_generators=2)
            want = {pair: {k: c for k, c in terms.items() if c}
                    for pair, terms in _subalgebra_table_reference(sub).items()}
            assert subalgebra_as_algebra(sub).struct == {
                pair: terms for pair, terms in want.items() if terms}, name
            non_unit += any(abs(row[p]) != 1 for row, p in zip(sub.rows, sub.pivots))
    assert non_unit >= 10, non_unit


def test_frac5_subalgebras_match_references():
    # on the table with struct_den 12: the ideal span{e1, e3, e4, e5}, given
    # by a scaled vector, and the non-ideal span{e1 + 3/2 e2, e4, e5}, with a
    # fractional entry beside its pivot
    g = _fractional_table()
    sub = span_subalgebra(g, [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1],
                          [Q(3, 5), 0, 0, 0, 0])
    assert _assert_matches_references(sub)
    sub = span_subalgebra(g, [Q(2, 3), 1, 0, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1])
    assert not _assert_matches_references(sub)


def test_check_h_homomorphism_with_denominators():
    g = _fractional_table()
    r = Q(2, 3)
    # the dilation by 2/3 is an automorphism with non-unit denominators
    dil = GradedMorphism(g, g, [[r ** l if i == j else 0 for j in range(g.dim)]
                                for i, l in enumerate(g.layer_of)])
    assert check_h_homomorphism(dil).is_h_homomorphism
    assert _check_h_homomorphism_reference(dil) == []
    # halving e1 alone breaks [e1, e2] = 1/2 e3 and [e1, e3] = 3/4 e4
    half = GradedMorphism(g, g, [[Q(1, 2) if i == j == 0 else int(i == j)
                                  for j in range(g.dim)] for i in range(g.dim)])
    rep = check_h_homomorphism(half)
    assert rep.is_layer_preserving and not rep.is_lie_hom
    assert rep.violations == _check_h_homomorphism_reference(half) == [
        ("bracket", 0, 1), ("bracket", 0, 2)]
    # random layer-preserving rational maps: mostly not homomorphisms
    rng = np.random.default_rng(3)
    broken = 0
    for _ in range(10):
        m = [[Q(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
              if g.layer_of[i] == g.layer_of[j] else 0 for j in range(g.dim)]
             for i in range(g.dim)]
        L = GradedMorphism(g, g, m)
        assert check_h_homomorphism(L).violations == _check_h_homomorphism_reference(L)
        broken += not check_h_homomorphism(L).is_lie_hom
    assert broken >= 5


def test_max_commutative_witness_has_the_reported_dimension():
    for name in ("h1", "h2", "h3", "h12", "g42", "free_3_2"):
        rep = max_commutative_horizontal_dim(catalog.get(name))
        assert rep.witness.total_dim == rep.dim, name


# ---------------------------------------------------------------------------
# one echelon per subalgebra against the per-layer algorithm it replaced
# ---------------------------------------------------------------------------

def _layered_reference(alg, span_vectors):
    """The per-layer algorithm: a Fraction RREF of the span, each row's
    projection onto each layer tested for membership, a fresh RREF per
    layer, then the bracket test on the layered basis.  Returns the layered
    bases, or raises what that algorithm raised."""
    from carnot import linalg
    rows = linalg.row_space_basis([[Q(c) for c in v] for v in span_vectors])
    span = linalg.Span(rows)
    for v in rows:
        for layer in range(1, alg.step + 1):
            proj = alg.project_layer_coords(tuple(v), layer)
            if not span.contains(proj):
                raise NotHomogeneous(
                    "span is not dilation invariant: a layer projection escapes",
                    witness=proj)
    layered = {}
    for layer in range(1, alg.step + 1):
        projs = [p for p in (alg.project_layer_coords(tuple(v), layer) for v in rows)
                 if any(p)]
        if projs:
            layered[layer] = [tuple(v) for v in linalg.row_space_basis(projs)]
    basis = [v for layer in sorted(layered) for v in layered[layer]]
    for u, v in itertools.combinations(basis, 2):
        br = alg.bracket_coords(u, v)
        if not span.contains(br):
            raise NotSubalgebra("bracket leaves the span", witness=br)
    return layered


def _complementary_reference(a, b):
    """The per-layer test: in each layer the two bases have the layer's
    dimension together and span it."""
    from carnot import linalg
    alg = a.algebra
    for layer in range(1, alg.step + 1):
        idx = alg.layer_indices(layer)
        vecs = a.layer_basis(layer) + b.layer_basis(layer)
        if idx and (len(vecs) != len(idx) or linalg.rank([list(v) for v in vecs]) != len(idx)):
            return False
    return True


def _random_spans(alg, rng, count):
    """Spanning sets of four kinds, in turn: random vectors (rarely
    homogeneous), single-layer vectors (homogeneous, not always closed),
    combinations of a homogeneous subalgebra's basis, and the same with one
    basis vector added."""
    for t in range(count):
        kind = t % 4
        if kind == 0:
            yield [[Q(int(rng.integers(-3, 4)), int(rng.integers(1, 3)))
                    for _ in range(alg.dim)] for _ in range(int(rng.integers(1, 3)))]
        elif kind == 1:
            vecs = []
            for _ in range(int(rng.integers(1, 4))):
                layer = int(rng.integers(1, alg.step + 1))
                vecs.append([Q(int(rng.integers(-3, 4))) if alg.layer_of[k] == layer
                             else Q(0) for k in range(alg.dim)])
            yield vecs
        else:
            sub = random_homogeneous_subalgebra(alg, rng,
                                                n_generators=int(rng.integers(1, 3)))
            basis = sub.basis()
            vecs = [[sum((Q(int(rng.integers(-2, 3))) * v[k] for v in basis), Q(0))
                     for k in range(alg.dim)] for _ in range(len(basis) + 1)]
            if kind == 3:
                vecs.append(alg.basis_coords(int(rng.integers(0, alg.dim))))
            yield vecs


def _outcome(build):
    try:
        return build()
    except (NotHomogeneous, NotSubalgebra) as e:
        return type(e), str(e), e.witness


def _assert_matches_layered(got, want):
    """got (a subalgebra or an exception triple) is what the reference gave."""
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.layered_bases == want
    assert got.basis_layers() == [l for l in sorted(want) for _ in want[l]]
    assert got.pivots == [next(k for k, c in enumerate(v) if c) for v in got.basis()]


@pytest.mark.parametrize("alg", list(_layer_tables()), ids=lambda g: g.name)
def test_one_echelon_matches_layered_reference(alg):
    # layered bases, basis layers, pivots and every exception (type,
    # message, witness) as the per-layer algorithm gives them, for the span
    # and for its layer projections handed over layer by layer
    rng = np.random.default_rng(17)
    subs, raised = [], 0
    for vecs in _random_spans(alg, rng, 12 if alg.dim > 8 else 24):
        want = _outcome(lambda: _layered_reference(alg, vecs))
        got = _outcome(lambda: layered_decomposition(alg, vecs))
        _assert_matches_layered(got, want)
        by_layer = {}
        for v in vecs:
            for layer in range(1, alg.step + 1):
                proj = alg.project_layer_coords(tuple(v), layer)
                if any(proj):
                    by_layer.setdefault(layer, []).append(proj)
        direct = _outcome(lambda: HomogeneousSubalgebra(alg, by_layer))
        _assert_matches_layered(direct, _outcome(lambda: _layered_reference(
            alg, [v for vs in by_layer.values() for v in vs])))
        if isinstance(want, tuple):
            raised += 1
        else:
            assert direct == got and hash(direct) == hash(got)
            subs.append(got)
    assert subs and (raised or alg.step == 1), (len(subs), raised)
    # a vector placed in the wrong layer is named as it was given
    if alg.step > 1:
        k = next(k for k in range(alg.dim) if alg.layer_of[k] != 1)
        v = alg.basis_coords(k)
        assert _outcome(lambda: HomogeneousSubalgebra(alg, {1: [v]})) == (
            NotHomogeneous, "vector assigned to layer 1 has support in layer %d"
            % alg.layer_of[k], tuple(map(Q, v)))
    # the found complements, whole and zero, and every pair of the spans
    pairs = [(sub, out.witness) for sub in subs[:6]
             for out in [find_complement(sub)] if out.verdict == "h_epimorphism"]
    pairs += [(full_subalgebra(alg), zero_subalgebra(alg))]
    pairs += [(a, b) for a in subs for b in subs]
    verdicts = [is_complementary(a, b) for a, b in pairs]
    assert verdicts == [_complementary_reference(a, b) for a, b in pairs]
    assert any(verdicts) and not all(verdicts)


# ---------------------------------------------------------------------------
# the classifiers against the routes they replaced
# ---------------------------------------------------------------------------

def _classify_epimorphism_reference(L):
    """The front that tested surjectivity by its own elimination, took the
    kernel from a nullspace and returned the whole domain for an
    isomorphism before the exact tiers ran."""
    from carnot.subgroups import _split_kernel
    if not check_h_homomorphism(L).is_h_homomorphism:
        raise ValueError("not an h-homomorphism")
    if not L.is_surjective():
        return EpiClassification("not_surjective")
    vecs = L.kernel_basis()
    kernel = layered_decomposition(L.domain, vecs) if vecs else zero_subalgebra(L.domain)
    if kernel.total_dim == 0:
        return EpiClassification("h_epimorphism", full_subalgebra(L.domain), kernel,
                                 "affine right-inverse system")
    return _split_kernel(L, kernel)


def _find_complement_reference(sub):
    """The zero and whole algebras answered first, an ideal classified
    through its quotient projection and its verdict wrapped with sub.  The
    zero and whole algebras have an empty right-inverse system."""
    alg = sub.algebra
    if sub.total_dim == 0:
        return EpiClassification("h_epimorphism", full_subalgebra(alg), sub,
                                 "affine right-inverse system")
    if sub.total_dim == alg.dim:
        return EpiClassification("h_epimorphism", zero_subalgebra(alg), sub,
                                 "affine right-inverse system")
    if _is_ideal_full(sub):
        out = _classify_epimorphism_reference(quotient(alg, sub)[1])
        return EpiClassification(out.verdict, out.witness, sub, out.tier)
    cand = next(_coordinate_complements_reference(sub), None)
    if cand is not None:
        return EpiClassification("h_epimorphism", cand, sub, "coordinate complements")
    return EpiClassification("undecided", BudgetExhausted(
        0, "non-ideal; ran: coordinate complements; none is a subalgebra"), sub)


def _classify_monomorphism_reference(T):
    """The front that tested injectivity by its own elimination and took
    the image from the RREF of T's columns."""
    from carnot.subgroups import _projection_along
    if not check_h_homomorphism(T).is_h_homomorphism:
        raise ValueError("not an h-homomorphism")
    if not T.is_injective():
        return MonoClassification("not_injective")
    M = T.codomain
    image = layered_decomposition(M, T.image_basis())
    n = next((c for c in _coordinate_complements_reference(image)
              if _is_ideal_reference(c)), None)
    if n is not None:
        return MonoClassification("h_monomorphism", n, _projection_along(M, image, n), image,
                                  "coordinate complements")
    return MonoClassification("undecided", BudgetExhausted(
        0, "ran: coordinate complements of the image; none is an ideal"), None, image)


def _assert_same_epi(got, want):
    assert got == want
    assert got.to_json_dict() == want.to_json_dict()


def _assert_same_mono(got, want):
    assert (got.verdict, got.normal_complement, got.image, got.tier) == \
        (want.verdict, want.normal_complement, want.image, want.tier)
    assert (got.projection is None) == (want.projection is None)
    if got.projection is not None:
        assert got.projection.matrix == want.projection.matrix
    assert got.to_json_dict() == want.to_json_dict()


@pytest.mark.parametrize("name", catalog.catalog_names())
def test_classifiers_match_parent_routes(name):
    # find_complement, and both classifiers on the inclusion of each
    # subalgebra and on the projection of each ideal: verdict, witness,
    # certificate, kernel, image, projection and JSON as the old fronts gave
    alg = catalog.get(name)
    rng = np.random.default_rng(23)
    subs = [random_homogeneous_subalgebra(alg, rng, n_generators=int(rng.integers(1, 3)))
            for _ in range(3 if alg.dim > 8 else 8)]
    subs += [zero_subalgebra(alg), full_subalgebra(alg)]
    verdicts = set()
    for sub in subs:
        out = find_complement(sub)
        _assert_same_epi(out, _find_complement_reference(sub))
        verdicts.add(out.verdict)
        basis = sub.basis()
        maps = [GradedMorphism(subalgebra_as_algebra(sub), alg,
                               [[v[r] for v in basis] for r in range(alg.dim)])]
        if is_ideal(sub):
            maps.append(quotient(alg, sub)[1])
        for L in maps:
            epi = classify_epimorphism(L)
            _assert_same_epi(epi, _classify_epimorphism_reference(L))
            mono = classify_monomorphism(L)
            _assert_same_mono(mono, _classify_monomorphism_reference(L))
            verdicts.update([epi.verdict, mono.verdict])
    assert {"h_epimorphism", "h_monomorphism"} <= verdicts
    if alg.dim > 1:
        assert {"not_surjective", "not_injective"} <= verdicts


def test_classifier_fronts_on_rank_deficient_maps(h1):
    # the zero map onto r1 is not surjective; the projection onto r2 is
    # surjective and not injective
    r1, r2 = catalog.abelian(1), catalog.abelian(2)
    zero = GradedMorphism(h1, r1, [[0, 0, 0]])
    proj = GradedMorphism(h1, r2, [[1, 0, 0], [0, 1, 0]])
    assert classify_epimorphism(zero).verdict == "not_surjective"
    assert classify_monomorphism(proj).verdict == "not_injective"
    for L in (zero, proj):
        _assert_same_epi(classify_epimorphism(L), _classify_epimorphism_reference(L))
        _assert_same_mono(classify_monomorphism(L), _classify_monomorphism_reference(L))


def test_subalgebra_entries_are_taken_as_given(h1):
    # a float or a string is refused, not read as the exact value of the float
    for bad in ([0.1, 0.3, 0], ["1", "0", "0"]):
        with pytest.raises(TypeError):
            span_subalgebra(h1, bad)
        with pytest.raises(TypeError):
            layered_decomposition(h1, [bad])
        with pytest.raises(TypeError):
            HomogeneousSubalgebra(h1, {1: [bad]})
    # numpy integers give the subalgebra of the Python ints they hold, also
    # where the elimination's products overflow an int64
    r3 = catalog.abelian(3)
    rows = [[2**32, 2**32, 1], [1, 2**32 + 1, 0]]
    rows64 = [[np.int64(x) for x in row] for row in rows]
    plane = span_subalgebra(r3, *rows)
    assert plane.layer_basis(1) == [(1, 0, Q(2**32 + 1, 2**64)), (0, 1, Q(-1, 2**64))]
    assert span_subalgebra(r3, *rows64) == plane == HomogeneousSubalgebra(r3, {1: rows64})


def test_classify_epi_onto_the_zero_algebra(h1):
    # the projection onto h1/h1 has no matrix rows: its kernel is all of h1
    # and its complement the zero subalgebra
    _, dpi = quotient(h1, full_subalgebra(h1))
    assert len(dpi.kernel_basis()) == 3
    out = classify_epimorphism(dpi)
    assert (out.verdict, out.witness, out.kernel) == (
        "h_epimorphism", zero_subalgebra(h1), full_subalgebra(h1))


# ---------------------------------------------------------------------------
# the verdicts of the Classify groups, pinned
# ---------------------------------------------------------------------------


def _verdict_text(out):
    j = out.to_json_dict()
    return "%s:%s:%s" % (j["verdict"], j["witness_basis"],
                         j["certificate"] and j["certificate"]["reason"])


def test_classify_verdicts_are_pinned():
    # 24 seeded draws on each group: the find_complement and
    # classify_monomorphism verdicts, witness bases and certificate reasons
    # hash to the value the Fraction implementation gave
    digest = hashlib.sha256()
    verdicts = set()
    for name in CLASSIFY_GROUPS:
        alg = catalog.get(name)
        rng = np.random.default_rng(21)
        for _ in range(24):
            sub = random_homogeneous_subalgebra(alg, rng,
                                                n_generators=int(rng.integers(1, 3)))
            basis = sub.basis()
            incl = GradedMorphism(subalgebra_as_algebra(sub), alg,
                                  [[v[r] for v in basis] for r in range(alg.dim)])
            epi, mono = find_complement(sub), classify_monomorphism(incl)
            verdicts |= {epi.verdict, mono.verdict}
            digest.update(("%s|%s|%s|%s\n" % (name, basis, _verdict_text(epi),
                                              _verdict_text(mono))).encode())
    assert verdicts == {"h_epimorphism", "surjective_not_epi", "h_monomorphism",
                        "undecided"}
    assert digest.hexdigest()[:16] == "bdb0042c4e591875"


def _classify_cell(alg, rng):
    """Two ideals, one non-ideal and the inclusion of the first proper draw,
    drawn as the Classify benchmark workload draws one group's cell, with
    its four task seeds drawn after them."""
    ideals, others, first = [], [], None
    for _ in range(400):
        sub = random_homogeneous_subalgebra(alg, rng, n_generators=int(rng.integers(1, 3)))
        if sub.total_dim in (0, alg.dim):
            continue
        if first is None:
            first = sub
        if is_ideal(sub):
            if len(ideals) < 2:
                ideals.append(sub)
        elif not others:
            others.append(sub)
        if len(ideals) == 2 and others:
            break
    rng.integers(0, 2 ** 31, size=4)
    basis = first.basis()
    incl = GradedMorphism(subalgebra_as_algebra(first), alg,
                          [[v[r] for v in basis] for r in range(alg.dim)])
    return ideals, others, incl


def test_tier_census_of_classify_draws():
    # 40 rounds of the Classify groups from one rng: the count of each
    # (kind, verdict, deciding tier), as a census of the hand-ordered tiers
    # gave it by wrapping the coordinate-span and closed-form constructions
    algs = [catalog.get(name) for name in CLASSIFY_GROUPS]
    rng = np.random.default_rng(29)
    census = Counter()
    for _ in range(40):
        for alg in algs:
            ideals, others, incl = _classify_cell(alg, rng)
            for kind, subs in (("ideal", ideals), ("non_ideal", others)):
                for sub in subs:
                    out = find_complement(sub)
                    census[kind, out.verdict, out.tier] += 1
            out = classify_monomorphism(incl)
            census["inclusion", out.verdict, out.tier] += 1
    assert census == {
        ("ideal", "h_epimorphism", "affine right-inverse system"): 238,
        ("ideal", "h_epimorphism", "coordinate complements"): 194,
        ("ideal", "h_epimorphism", "h12 closed form"): 1,
        ("ideal", "surjective_not_epi", "affine right-inverse system"): 91,
        ("ideal", "surjective_not_epi", "isotropic rank bound"): 36,
        ("non_ideal", "h_epimorphism", "coordinate complements"): 238,
        ("non_ideal", "undecided", None): 42,
        ("inclusion", "h_monomorphism", "coordinate complements"): 9,
        ("inclusion", "undecided", None): 271}


# ---------------------------------------------------------------------------
# the index-set complements and the integer right-inverse system against
# the routes they replaced
# ---------------------------------------------------------------------------

def _coordinate_complements_reference(sub):
    """The Span-based enumerator: a full rank elimination of sub's layer
    rows and the candidate basis vectors per candidate, and a
    HomogeneousSubalgebra per complement yielded."""
    from carnot import linalg
    alg = sub.algebra

    def extend(chosen):
        layer = len(chosen) + 1
        if layer > alg.step:
            yield HomogeneousSubalgebra(alg, {l: [alg.basis_coords(k) for k in ks]
                                              for l, ks in enumerate(chosen, 1)})
            return
        idx = alg.layer_indices(layer)
        rows = [r for r, p in zip(sub.span.rows, sub.span.pivots)
                if alg.layer_of[p] == layer]
        pivots = set(sub.span.pivots)
        free = tuple(k for k in idx if k not in pivots)
        forced = {k for i in range(1, layer // 2 + 1)
                  for a in chosen[i - 1] for b in chosen[layer - i - 1]
                  for k in alg.struct.get((min(a, b), max(a, b)), ())}
        if len(forced) > len(free):
            return
        if forced <= set(free):
            yield from extend(chosen + [free])
        rest = [k for k in idx if k not in forced]
        for ks in itertools.combinations(rest, len(free) - len(forced)):
            ks = tuple(sorted(forced.union(ks)))
            if ks != free and linalg.rank(
                    rows + [alg.basis_coords(k) for k in ks]) == len(idx):
                yield from extend(chosen + [ks])

    return extend([])


def _right_inverse_system_reference(L, kernel):
    """The right-inverse system built by Polynomial products: the columns as
    vectors of Polynomials, bracketed by bracket_num, minus their images."""
    from math import lcm
    from carnot import linalg
    from carnot.algebra import Polynomial
    G, M = L.domain, L.codomain
    span = linalg.Span([list(row) + [int(r == b) for b in range(M.dim)]
                        for r, row in enumerate(L.matrix)])
    big_d = lcm(*(row[p] for row, p in zip(span.rows, span.pivots)))
    s = {p: [x * (big_d // row[p]) for x in row[G.dim:]]
         for row, p in zip(span.rows, span.pivots)}
    cols, nvars = [], 0
    for b in range(M.dim):
        col = [{(): s[k][b]} if k in s else {} for k in range(G.dim)]
        for kv in kernel.layer_rows(M.layer_of[b]):
            for terms, c in zip(col, kv):
                terms[(nvars,)] = c
            nvars += 1
        cols.append([Polynomial(terms) for terms in col])
    eqs, scale = [], big_d * G.struct_den
    for a, b in itertools.combinations(range(M.dim), 2):
        br = M.bracket_num(M.basis_coords(a), M.basis_coords(b))
        image = [sum((col[k] * (w * scale) for w, col in zip(br, cols) if w), Polynomial())
                 for k in range(G.dim)]
        brackets = G.bracket_num(cols[a], cols[b])
        if M.struct_den != 1:
            brackets = [u * M.struct_den for u in brackets]
        eqs += [e for e in (u - v for u, v in zip(brackets, image)) if e]
    return eqs, cols, nvars


def _is_ideal_full(sub):
    """is_ideal bracketing with every basis vector, on the integer rows."""
    alg = sub.algebra
    return all(sub.span.contains(alg.bracket_num(alg.basis_coords(k), v))
               for k in range(alg.dim) for v in sub.span.rows)


def _oracle_algebra(name):
    return _h1xh1_mixed() if name == "h1xh1_mixed" else \
        _fractional_table() if name == "frac5" else catalog.get(name)


def _oracle_inputs(alg):
    """Seeded random subalgebras, 12 of them (6 past dimension 8), with the
    zero and whole algebras; on h1 x h1 in the mixed basis also the ideal
    span{u2, v2, z2} that no tier decides."""
    rng = np.random.default_rng(31)
    subs = [random_homogeneous_subalgebra(alg, rng, n_generators=int(rng.integers(1, 3)))
            for _ in range(6 if alg.dim > 8 else 12)]
    subs += [zero_subalgebra(alg), full_subalgebra(alg)]
    if alg.name == "h1xh1":
        subs.append(_units(alg, (3,), (4,), (5,)))
    return subs


ORACLE_NAMES = catalog.catalog_names() + ["h1xh1_mixed", "frac5"]


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_coordinate_complements_match_the_span_enumerator(name):
    # the index-set walk yields the complements of the Span-based one, in
    # its order, and the index-set ideal test agrees with the full one
    from carnot.subgroups import _coordinate_complements, _coordinate_span, \
        _is_coordinate_ideal
    alg = _oracle_algebra(name)
    yielded = 0
    for sub in _oracle_inputs(alg):
        walk = list(_coordinate_complements(sub))
        want = list(_coordinate_complements_reference(sub))
        assert [_coordinate_span(alg, ks) for ks in walk] == want
        assert all(ks == tuple(sorted(ks, key=lambda k: (alg.layer_of[k], k)))
                   for ks in walk)
        assert [_is_coordinate_ideal(alg, ks) for ks in walk] == \
            [_is_ideal_full(c) for c in want] == [is_ideal(c) for c in want]
        yielded += len(walk)
    assert yielded > 0


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_right_inverse_system_matches_the_polynomial_products(name):
    # on the quotient projection of every ideal: the same equations term
    # for term and in order, the same columns and the same unknowns
    from carnot.subgroups import _right_inverse_system, _system_degree
    alg = _oracle_algebra(name)
    degrees = set()
    for sub in _oracle_inputs(alg):
        if not is_ideal(sub):
            continue
        dpi = quotient(alg, sub)[1]
        eqs, cols, nvars = _right_inverse_system(dpi, sub)
        ref_eqs, ref_cols, ref_nvars = _right_inverse_system_reference(dpi, sub)
        assert [p.terms for p in eqs] == [p.terms for p in ref_eqs]
        assert [[p.terms for p in col] for col in cols] == \
            [[p.terms for p in col] for col in ref_cols]
        assert nvars == ref_nvars
        degrees.add(_system_degree(eqs))
    assert degrees
    if name in ("h2", "h1xh1_mixed"):
        assert 2 in degrees, degrees


def test_is_ideal_reads_every_basis_vector_off_stratified_tables():
    # V2 = span{e3} is not [V1, V1] = 0, so the table is not stratified: its
    # span{e2} holds [V1, e2] = 0, yet [e3, e2] = -e4 leaves it
    from carnot.algebra import is_stratified
    from carnot.subgroups import _is_coordinate_ideal
    g = GradedAlgebra("gap", [1, 1, 2, 3], {(1, 2): {3: 1}})
    assert not is_stratified(g)
    a = span_subalgebra(g, [0, 1, 0, 0])
    assert all(a.contains(g.bracket_coords(g.basis_coords(k), (0, 1, 0, 0)))
               for k in g.layer_indices(1))
    assert not is_ideal(a) and not _is_ideal_full(a)
    assert not _is_coordinate_ideal(g, (1,))
    # span{e2, e4} is an ideal
    assert is_ideal(span_subalgebra(g, [0, 1, 0, 0], [0, 0, 0, 1]))
    assert _is_coordinate_ideal(g, (1, 3))


CLASSIFY_GROUPS = ("h1", "h2", "h3", "g42", "h12", "free_2_3", "free_3_2")


def _reference_induced(alg, sub, quotient_by):
    """The induced table and projection in Fractions, from the canonical
    bases: a subalgebra's [b_a, b_b] read at the pivots of its reduced
    echelon basis; a quotient's [e_a, e_b] (and e_k for the projection)
    minus its pivot coordinates times the ideal's basis, read at the
    representatives, the standard basis vectors off the pivots."""
    if not quotient_by:
        basis, pivots = sub.basis(), sub.pivots
        return {(a, b): {c: br[p] for c, p in enumerate(pivots) if br[p]}
                for a, b in itertools.combinations(range(len(basis)), 2)
                for br in [alg.bracket_coords(basis[a], basis[b])] if any(br)}, None
    reps = [k for k in sorted(range(alg.dim), key=lambda k: alg.layer_of[k])
            if k not in sub.pivots]

    def cls(v):
        for u, p in zip(sub.basis(), sub.pivots):
            v = [x - v[p] * y for x, y in zip(v, u)]
        return [v[k] for k in reps]

    table = {(a, b): {c: x for c, x in enumerate(cls(br)) if x}
             for a, b in itertools.combinations(range(len(reps)), 2)
             for br in [alg.bracket_coords(alg.basis_coords(reps[a]),
                                           alg.basis_coords(reps[b]))] if any(cls(br))}
    proj = [list(r) for r in zip(*[cls(list(alg.basis_coords(k))) for k in range(alg.dim)])]
    return table, proj


def test_induced_tables_equal_the_validated_construction():
    # subalgebra_as_algebra and quotient build their algebras from the
    # integer table without validation; each equals GradedAlgebra on the
    # same table in Fractions, entry for entry, and so does the projection
    seen = {"tables": 0, "den > 1": 0, "quotients": 0}
    for name in CLASSIFY_GROUPS:
        alg = catalog.get(name)
        rng = np.random.default_rng(27)
        for _ in range(15):
            sub = random_homogeneous_subalgebra(alg, rng, n_generators=int(rng.integers(1, 3)))
            built = [(subalgebra_as_algebra(sub), False)]
            if is_ideal(sub):
                built.append((quotient(alg, sub), True))
            for got, is_quotient in built:
                got, dpi = got if is_quotient else (got, None)
                table, proj = _reference_induced(alg, sub, is_quotient)
                want = GradedAlgebra(got.name, got.layer_of, table, got.basis_names)
                assert got._struct is None  # built on first read
                assert (got.struct_num, got.struct_den) == (want.struct_num, want.struct_den)
                assert got.struct == want.struct and got == want and want == got
                assert hash(got) == hash(want)
                seen["tables"] += 1
                seen["den > 1"] += got.struct_den > 1
                if is_quotient:
                    seen["quotients"] += 1
                    assert dpi.matrix == proj and dpi.codomain is got
    assert seen["tables"] >= 100 and seen["den > 1"] >= 10 and seen["quotients"] >= 20, seen


def _report_reference(L):
    """check_h_homomorphism's report computed on the Fraction matrix."""
    dom, cod, m = L.domain, L.codomain, L.matrix
    out = [("layer", j, k) for j in range(dom.dim) for k in range(cod.dim)
           if cod.layer_of[k] != dom.layer_of[j] and m[k][j] != 0]
    cols = [[row[j] for row in m] for j in range(dom.dim)]
    lie = [("bracket", i, j) for i, j in itertools.combinations(range(dom.dim), 2)
           if [sum(a * b for a, b in zip(row, dom.bracket_coords(dom.basis_coords(i),
                                                                 dom.basis_coords(j))))
               for row in m] != list(cod.bracket_coords(cols[i], cols[j]))]
    return out + lie


def _morphism_cases():
    """(domain, codomain, Fraction matrix) of h-homomorphisms and of maps
    that are not: integer and rational, onto and into, and a quotient
    projection with a denominator."""
    h1, g42, f23 = catalog.get("h1"), catalog.get("g42"), catalog.get("free_2_3")
    r2 = catalog.abelian(2)
    rng = np.random.default_rng(3)
    sub = next(s for s in (random_homogeneous_subalgebra(f23, rng, 2) for _ in range(50))
               if 0 < s.total_dim < f23.dim and not all(p == 1 for p in
                                                       (r[q] for r, q in zip(s.rows,
                                                                             s.pivots))))
    ideal = next(s for s in (random_homogeneous_subalgebra(g42, rng, 2) for _ in range(200))
                 if is_ideal(s) and 0 < s.total_dim < g42.dim
                 and quotient(g42, s)[1].int_form[1] > 1)
    dil = [[Q(1, 2 ** f23.layer_of[i]) if i == j else 0 for j in range(5)] for i in range(5)]
    return [
        (h1, r2, [[Q(1), Q(0), Q(0)], [Q(0), Q(1), Q(0)]]),
        (f23, f23, dil),
        (subalgebra_as_algebra(sub), f23, [list(r) for r in zip(*sub.basis())]),
        (g42, quotient(g42, ideal)[0], quotient(g42, ideal)[1].matrix),
        (h1, h1, [[Q(1), Q(0), Q(0)], [Q(0), Q(1), Q(0)], [Q(1, 2), Q(0), Q(1)]]),
        (h1, h1, [[Q(1), Q(0), Q(0)], [Q(0), Q(1), Q(0)], [Q(0), Q(0), Q(2, 3)]]),
        (h1, h1, [[Q(0), Q(0), Q(1)], [Q(0), Q(1), Q(0)], [Q(1), Q(0), Q(0)]]),
        (h1, catalog.abelian(0), []),
    ]


def test_int_fraction_and_int_form_morphisms_agree():
    # one map given as int rows (when it has them), as Fraction rows and as
    # a non-primitive integer form reads the same through every exact
    # reader, and each reader equals its computation on the Fraction matrix
    from carnot import linalg
    from math import lcm
    kinds = set()
    for dom, cod, m in _morphism_cases():
        den = lcm(*(c.denominator for row in m for c in row))
        nums = [[int(c * den) for c in row] for row in m]
        maps = [GradedMorphism(dom, cod, m),
                GradedMorphism.from_int_form(dom, cod, [[3 * x for x in r] for r in nums],
                                             3 * den)]
        if den == 1:
            maps.append(GradedMorphism(dom, cod, nums))
        xs = [[Q(k + 1, 3) for k in range(dom.dim)], [(-1) ** k for k in range(dom.dim)]]
        report = _report_reference(GradedMorphism(dom, cod, m))
        kinds.add((den > 1, not report))
        for L in maps:
            assert L.int_form == (nums, den)
            assert L.matrix == m
            rep = check_h_homomorphism(L)
            assert rep.violations == report and rep.is_h_homomorphism == (not report)
            assert L.kernel_basis() == (linalg.nullspace(m) if m else
                                        linalg.identity(dom.dim))
            assert L.image_basis() == linalg.row_space_basis(linalg.transpose(m))
            assert (L.is_surjective(), L.is_injective()) == \
                (linalg.rank(m) == cod.dim, linalg.rank(m) == dom.dim)
            for x in xs:
                assert L.apply_coords(x) == tuple(linalg.matvec(m, x))
            assert np.array_equal(L.to_float().matrix,
                                  np.array([[float(c) for c in row] for row in m]
                                           ).reshape(cod.dim, dom.dim))
    assert kinds == {(False, True), (False, False), (True, True), (True, False)}


def test_determinant_is_one_on_the_integer_form():
    # det(nums) == den ** dim, by Bareiss on the numerators
    h1 = catalog.get("h1")
    assert GradedMorphism(h1, h1, [[1, 5, 0], [0, 1, 0], [3, -2, 1]]).determinant_is_one()
    assert not GradedMorphism(h1, h1, [[1, 0, 0], [0, 2, 0], [0, 0, 1]]).determinant_is_one()
    rational = [[Q(2), Q(0), Q(0)], [Q(0), Q(1, 2), Q(0)], [Q(1, 3), Q(0), Q(1)]]
    assert GradedMorphism(h1, h1, rational).int_form[1] == 6
    assert GradedMorphism(h1, h1, rational).determinant_is_one()
    rational[2][2] = Q(1, 2)
    assert not GradedMorphism(h1, h1, rational).determinant_is_one()


def test_the_integer_classify_path_builds_no_fraction(monkeypatch):
    # induced tables, quotient projections, int morphisms, their flags and
    # ranks, and the monomorphism tier on an int inclusion run in integers
    from carnot.morphism import identity_morphism
    g42, h2 = catalog.get("g42"), catalog.get("h2")
    rng = np.random.default_rng(5)
    subs = [s for s in (random_homogeneous_subalgebra(g42, rng, 2) for _ in range(40))
            if 0 < s.total_dim < g42.dim]
    ideal = [is_ideal(s) for s in subs]
    assert len(subs) > 20 and sum(ideal) > 5
    r2 = catalog.abelian(2)
    built, new = [], Q.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Q, "__new__", counted)
    for sub, is_ideal_sub in zip(subs, ideal):
        small = subalgebra_as_algebra(sub)
        if is_ideal_sub:
            qalg, dpi = quotient(g42, sub)
            assert check_h_homomorphism(dpi).is_h_homomorphism and dpi.is_surjective()
            assert dpi.compose(identity_morphism(g42)).int_form == dpi.int_form
        assert homogeneous_dimension(small) == sum(l for l in small.layer_of)
    T = GradedMorphism(r2, h2, [[1, 0], [0, 0], [0, 1], [0, 0], [0, 0]])
    out = classify_monomorphism(T)
    assert out.verdict == "h_monomorphism" and out.projection.is_h_homomorphism()
    assert identity_morphism(h2).determinant_is_one()
    monkeypatch.undo()
    assert not built, built[:5]
