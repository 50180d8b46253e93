import hashlib
import math
from fractions import Fraction as Q

import numpy as np
import pytest

from carnot import catalog
from carnot.algebra import (AlgebraVector, GradedAlgebra, GroupElement,
                            Polynomial, bracket, dilate, unit_vectors)
from carnot.bch import (_dynkin_evaluate, _law, bch_term, bch_word_polynomial,
                        bernoulli, bilinear_bound, cn_difference_bound,
                        cn_difference_ratio, cn_remainder, decompose_cn,
                        dexp_word_polynomial, exp_differential,
                        exp_differential_oracle, group_inverse, group_product,
                        group_product_coords, group_product_np,
                        series_oracle_product)
from conftest import is_primitive, rational_vector


def XY(g):
    return AlgebraVector(g, g.basis_coords(0)), AlgebraVector(g, g.basis_coords(1))


def test_bernoulli_values():
    assert bernoulli(2) == Q(1, 6)
    assert bernoulli(4) == Q(-1, 30)
    assert bernoulli(3) == 0


def test_bch_term_low_orders(h1, f23):
    x, y = XY(h1)
    assert bch_term(1, x, y).coords == tuple(a + b for a, b in zip(x.coords, y.coords))
    assert bch_term(2, x, y).coords == (0, 0, Q(1, 2))
    # degree 3 in the free step-3 algebra: 1/12 [x,[x,y]] + 1/12 [y,[y,x]]
    fx, fy = XY(f23)
    c3 = bch_term(3, fx, fy)
    names = f23.basis_names
    i_xxy = names.index("[[x2,x1],x1]")
    i_yyx = names.index("[[x2,x1],x2]")
    # [x,[x,y]] = [[x2,x1],x1] up to the Hall orientation [x1,[x1,x2]] = [[x2,x1],x1]
    expect = {i_xxy: Q(1, 12), i_yyx: Q(-1, 12)}
    for k, c in enumerate(c3.coords):
        assert c == expect.get(k, 0)
    with pytest.raises(ValueError):
        bch_term(4, fx, fy)


def test_bch_homogeneity(f23, rng):
    for n in (2, 3):
        for _ in range(8):
            x, y = rational_vector(f23, rng), rational_vector(f23, rng)
            lam = Q(int(rng.integers(-5, 6)) or 1, int(rng.integers(1, 4)))
            lhs = bch_term(n, lam * x, lam * y)
            rhs = lam ** n * bch_term(n, x, y)
            assert lhs.coords == rhs.coords


def test_group_product_h1(h1):
    x = GroupElement(h1, [1, 0, 0])
    y = GroupElement(h1, [0, 1, 0])
    assert group_product(x, y).coords == (1, 1, Q(1, 2))
    assert group_product(x, GroupElement(h1, [0, 0, 0])).coords == x.coords
    assert group_product(x, group_inverse(x)).coords == (0, 0, 0)


def test_group_inverse(h1, rng):
    assert group_inverse(GroupElement(h1, [0, 0, 0])).coords == (0, 0, 0)
    assert group_inverse(GroupElement(h1, [1, 2, 3])).coords == (-1, -2, -3)
    for _ in range(5):
        x = rational_vector(h1, rng)
        assert group_inverse(group_inverse(x)).coords == x.coords


def test_associativity_exact(rng):
    for name in ("h1", "h2", "h12", "free_2_3", "g42", "free_2_4"):
        g = catalog.get(name)
        for _ in range(6):
            a, b, c = (rational_vector(g, rng) for _ in range(3))
            assert group_product(group_product(a, b), c).coords == \
                group_product(a, group_product(b, c)).coords


def test_oracle_equivalence(rng):
    # every catalog group up to step 5: the law equals the series oracle and
    # the sum of its terms c_n; each float term is the exact one to 1e-12
    for name in list(catalog.catalog_names()) + ["free_2_5"]:
        g = catalog.get(name)
        for _ in range(12):
            x, y = rational_vector(g, rng), rational_vector(g, rng)
            z = group_product(x, y)
            assert z.coords == series_oracle_product(x, y).coords, name
            terms = [bch_term(n, x, y) for n in range(1, g.step + 1)]
            assert tuple(map(sum, zip(*(t.coords for t in terms)))) == z.coords, name
            for n, t in enumerate(terms, start=1):
                ft = bch_term(n, x.to_float(), y.to_float()).coords
                assert np.allclose(ft, t.to_float().coords, rtol=0, atol=1e-12), name


def test_oracle_abelian(rng):
    g = catalog.abelian(3)
    x, y = rational_vector(g, rng), rational_vector(g, rng)
    assert series_oracle_product(x, y).coords == \
        tuple(a + b for a, b in zip(x.coords, y.coords))


def test_matrix_model_crosscheck(h1, rng):
    model = catalog.matrix_model(h1)
    for _ in range(20):
        x, y = rational_vector(h1, rng), rational_vector(h1, rng)
        assert model.product_coords(x.coords, y.coords) == \
            group_product(x, y).coords
    x = rational_vector(h1, rng)
    assert model.inverse_coords(x.coords) == tuple(-c for c in x.coords)
    assert model.to_matrix((0, 0, 0)) == [[1 if i == j else 0 for j in range(3)]
                                          for i in range(3)]


def test_exp_differential(h1, rng):
    x = AlgebraVector(h1, [1, 0, 0])
    m = exp_differential(x)
    # identity at 0
    zero = AlgebraVector(h1, [0, 0, 0])
    assert exp_differential(zero).matrix == [[1 if i == j else 0 for j in range(3)]
                                             for i in range(3)]
    # image of Y is Y - 1/2 Z, fixed against the series oracle
    y = AlgebraVector(h1, [0, 1, 0])
    assert m(y).coords == (0, 1, Q(-1, 2))
    assert m.matrix == exp_differential_oracle(x).matrix
    for _ in range(5):
        v = rational_vector(h1, rng)
        assert exp_differential(v).determinant_is_one()


@pytest.mark.parametrize("name", catalog.catalog_names())
def test_dexp_series_matches_exp_differential(name, rng):
    # d exp(x) v = v - dexp_series(x, v), one point and batched
    g = catalog.get(name)
    ops = g.float_ops()
    xs = [rational_vector(g, rng) for _ in range(3)]
    vs = rng.standard_normal((3, g.dim))
    X = np.array([x.to_float().coords for x in xs])
    for x, xf, v in zip(xs, X, vs):
        expect = np.asarray(exp_differential(x).to_float().matrix) @ v
        got = v - ops.dexp_series(xf, v)
        assert got.shape == (g.dim,)
        assert np.allclose(got, expect, rtol=1e-12, atol=1e-12 * np.max(np.abs(expect)))
    batched = ops.dexp_series(X, vs)
    assert batched.shape == (3, g.dim)
    assert np.array_equal(batched, [ops.dexp_series(xf, v) for xf, v in zip(X, vs)])


def test_exp_differential_oracle_step4(rng):
    g = catalog.get("free_2_4")
    for _ in range(3):
        x = rational_vector(g, rng)
        assert exp_differential(x).matrix == exp_differential_oracle(x).matrix


def test_decompose_cn(f23, rng):
    dec2 = decompose_cn(2, f23)
    assert dec2.coefficients[(1,)] == Q(1, 2)
    assert dec2.coefficients[(2,)] == 0
    for n in (2, 3):
        dec = decompose_cn(n, f23)
        for _ in range(20):
            a, b = rational_vector(f23, rng), rational_vector(f23, rng)
            assert dec.evaluate(a, b).coords == bch_term(n, a, b).coords
    # abelian: both sides vanish for n >= 2
    ab = catalog.abelian(2)
    a, b = rational_vector(ab, rng), rational_vector(ab, rng)
    assert all(c == 0 for c in bch_term(2, a, b).coords) if ab.step >= 2 else True
    with pytest.raises(ValueError):
        decompose_cn(5, f23)


def test_decompose_cn_degree4(rng):
    g = catalog.get("free_2_4")
    dec = decompose_cn(4, g)
    for _ in range(10):
        a, b = rational_vector(g, rng), rational_vector(g, rng)
        assert dec.evaluate(a, b).coords == bch_term(4, a, b).coords


def test_cn_remainder(h1, f23, rng):
    for _ in range(10):
        x, y = rational_vector(h1, rng), rational_vector(h1, rng)
        assert all(c == 0 for c in cn_remainder(2, x, y).coords)
    # reassembly: main term + R_n = c_n exactly
    for n in (2, 3):
        for _ in range(10):
            x, y = rational_vector(f23, rng), rational_vector(f23, rng)
            rn = cn_remainder(n, x, y)
            half = Q(1, 2)
            from carnot.algebra import iterated_bracket
            main = Q((-1) ** (n - 1), math.factorial(n)) * iterated_bracket(
                half * (y - x), x + y, n - 1)
            assert (main + rn).coords == bch_term(n, x, y).coords


def test_cn_remainder_cubic_bound(f23, rng):
    # |R_3| / |X+Y|^3 over the unit ball stays finite
    worst = 0.0
    for _ in range(500):
        x = f23.float_ops()
        a = rng.standard_normal(5)
        b = rng.standard_normal(5)
        a /= max(np.linalg.norm(a), 1.0)
        b /= max(np.linalg.norm(b), 1.0)
        X, Y = AlgebraVector(f23, a), AlgebraVector(f23, b)
        s = float(np.linalg.norm(np.asarray((X + Y).coords, dtype=float)))
        if s < 1e-3:
            continue
        worst = max(worst, cn_remainder(3, X, Y).norm() / s ** 3)
    assert math.isfinite(worst)


def test_cn_difference(h1, rng):
    x, y = rational_vector(h1, rng).to_float(), rational_vector(h1, rng).to_float()
    zero = AlgebraVector(h1, np.zeros(3))
    assert cn_difference_ratio(2, x, y, zero, zero, 1.0) == 0.0
    ab = catalog.abelian(3)
    za = AlgebraVector(ab, np.zeros(3))
    # abelian never reaches n = 2; the ratio driver simply reports 0 bound
    const = cn_difference_bound(h1, 2, nu=1.0, samples=100, seed=1)
    from carnot.algebra import bracket_norm_constant
    beta = bracket_norm_constant(h1).sup_observed
    assert const.sup_observed <= 2 * beta + 1e-9


def test_bilinear_bound_sampled(f23, rng):
    # |c_n(X,Y)| <= alpha_n(nu) |[X,Y]| on |X|,|Y| <= nu with [X,Y] != 0
    from carnot.algebra import bracket
    worst = 0.0
    for _ in range(300):
        a = rng.standard_normal(5)
        b = rng.standard_normal(5)
        a /= max(np.linalg.norm(a), 1.0)
        b /= max(np.linalg.norm(b), 1.0)
        X, Y = AlgebraVector(f23, a), AlgebraVector(f23, b)
        br = bracket(X, Y).norm()
        if br < 1e-6:
            continue
        for n in (2, 3):
            worst = max(worst, bch_term(n, X, Y).norm() / br)
    assert math.isfinite(worst) and worst > 0


def test_float_product_matches_exact(rng):
    # every catalog group up to step 5: the float law agrees with the exact
    # one, and is the same float law per point, batched (N, dim), as a batch
    # of one point and with a (dim,) side broadcast against (N, dim)
    for name in list(catalog.catalog_names()) + ["free_2_5"]:
        g = catalog.get(name)
        pairs = [(rational_vector(g, rng), rational_vector(g, rng)) for _ in range(5)]
        xs = np.array([x.to_float().coords for x, _ in pairs])
        ys = np.array([y.to_float().coords for _, y in pairs])
        exact = np.array([group_product(x, y).to_float().coords for x, y in pairs])
        single = np.array([group_product_np(g, a, b) for a, b in zip(xs, ys)])
        assert np.allclose(exact, single, atol=1e-12), name
        via_vectors = [group_product(x.to_float(), y.to_float()).coords for x, y in pairs]
        assert np.array_equal(via_vectors, single), name
        assert np.array_equal(group_product_np(g, xs, ys), single), name
        assert np.array_equal(group_product_np(g, xs[0], ys),
                              [group_product_np(g, xs[0], b) for b in ys]), name
        for shape in ((1, g.dim), (1, 1, g.dim)):
            one = group_product_np(g, xs[0].reshape(shape), ys[0])
            assert one.shape == shape and np.array_equal(one.ravel(), single[0]), name
    with pytest.raises(ValueError, match="dimension"):
        group_product_np(g, xs[0][:-1], ys[0])


@pytest.mark.parametrize("name", list(catalog.catalog_names()) + ["free_2_5"])
def test_blocked_law_matches_scalar_products(name, rng):
    # a batch that spans several blocks of the float law, plain and as an
    # (m, 1, dim) x (1, n, dim) broadcast either way round, equals the
    # per-row scalar products bit for bit
    from carnot.bch import _BLOCK_ITEMS
    g = catalog.get(name)
    block = _BLOCK_ITEMS // g.dim
    xs = rng.standard_normal((2 * block + 17, g.dim))
    ys = rng.standard_normal((2 * block + 17, g.dim))
    got = group_product_np(g, xs, ys)
    assert np.array_equal(got, [group_product_np(g, a, b) for a, b in zip(xs, ys)])
    n = 40
    m = 2 * max(1, block // n) + 3
    a, b = rng.standard_normal((m, 1, g.dim)), rng.standard_normal((1, n, g.dim))
    want = [[group_product_np(g, u, v) for v in b[0]] for u in a[:, 0]]
    assert np.array_equal(group_product_np(g, a, b), want)
    want = [[group_product_np(g, v, u) for v in b[0]] for u in a[:, 0]]
    assert np.array_equal(group_product_np(g, b, a), want)


@pytest.mark.parametrize("name", list(catalog.catalog_names()) + ["free_2_5"])
def test_law_is_bit_identical_across_memory_orders(name, rng):
    # column-major batches, as the samplers draw them, give the row-major
    # products bit for bit across the block boundary, also with the factors
    # in different orders or one broadcast; the product keeps the order
    from carnot.bch import _BLOCK_ITEMS
    g = catalog.get(name)
    n = 2 * (_BLOCK_ITEMS // g.dim) + 17
    xs, ys = rng.standard_normal((2, n, g.dim))
    want = group_product_np(g, xs, ys)
    xf, yf = np.asfortranarray(xs), np.asfortranarray(ys)
    for x, y in ((xf, yf), (xs, yf), (xf, ys)):
        assert np.array_equal(group_product_np(g, x, y), want), name
    assert group_product_np(g, xf, yf).flags.f_contiguous
    assert np.array_equal(group_product_np(g, xs[0], yf), group_product_np(g, xs[0], ys))
    assert np.array_equal(group_product_np(g, xf, ys[3]), group_product_np(g, xs, ys[3]))


def test_bilinear_bound_recorder(f23):
    c = bilinear_bound(f23, 3, nu=1.0, samples=100, seed=0)
    assert math.isfinite(c.sup_observed) and c.samples == 100
    assert "alpha_3" in c.label


@pytest.mark.parametrize("name", ["h1", "g42", "free_2_4"])
def test_sampled_bch_bounds_equal_the_scalar_ratios_over_their_draws(name):
    # a block draws X, Y, D1, D2 in turn, each as r u: unit_vectors, then
    # radii uniform on [0, nu]; bilinear_bound draws X, Y alone.  The batched
    # sups equal the scalar ratios over the same draws, bit for bit.  At
    # nu = 1e-4 a share of the pairs has |[X, Y]| < 1e-9, and the bilinear
    # constant counts the pairs kept
    g, k = catalog.get(name), 300
    for nu in (0.8, 1e-4):
        rng = np.random.default_rng(5)
        draws = [unit_vectors(rng, k, g.dim) * rng.uniform(0, nu, (k, 1)) for _ in range(4)]
        rows = [[AlgebraVector(g, v[i].copy()) for v in draws] for i in range(k)]
        for n in range(1, g.step + 1):
            got = cn_difference_bound(g, n, nu, samples=k, seed=5)
            assert (got.sup_observed, got.samples) == \
                (max(cn_difference_ratio(n, *r, nu) for r in rows), k)
        kept = [(x, y) for x, y, _, _ in rows if bracket(x, y).norm() >= 1e-9]
        assert 0 < len(kept) < k if nu < 1e-3 else len(kept) == k
        for n in range(2, g.step + 1):
            got = bilinear_bound(g, n, nu, samples=k, seed=5)
            assert (got.sup_observed, got.samples) == \
                (max(bch_term(n, x, y).norm() / bracket(x, y).norm() for x, y in kept),
                 len(kept))


def test_high_step_bernoulli_terms(rng):
    # degrees 5 and 6 exercise the quartic Bernoulli coefficient in the
    # recursion; the independent oracle pins it exactly
    for name in ("free_2_5", "free_2_6"):
        g = catalog.get(name)
        for _ in range(4):
            x, y = rational_vector(g, rng, 3, 3), rational_vector(g, rng, 3, 3)
            assert group_product(x, y).coords == \
                series_oracle_product(x, y).coords
        x = rational_vector(g, rng, 3, 3)
        assert exp_differential(x).matrix == exp_differential_oracle(x).matrix
    g6 = catalog.get("free_2_6")
    for n in (5, 6):
        dec = decompose_cn(n, g6)
        a = rational_vector(g6, rng, 2, 2)
        b = rational_vector(g6, rng, 2, 2)
        assert dec.evaluate(a, b).coords == bch_term(n, a, b).coords


def test_bilinear_bound_rejects_degrees_without_brackets(h1):
    # on an abelian algebra every bracket is zero, and c_n vanishes above
    # the step: no sample could ever be drawn
    r2 = catalog.get("r2")
    for n in (1, 2):
        with pytest.raises(ValueError, match="step"):
            bilinear_bound(r2, n, samples=3)
    with pytest.raises(ValueError, match="step"):
        bilinear_bound(h1, 3, samples=3)


def test_mixed_pair_products_agree_in_type(h1, rng):
    # a product is a GroupElement if either factor is one, on both routes
    x, y = rational_vector(h1, rng), rational_vector(h1, rng)
    gx, gy = GroupElement(h1, x.coords), GroupElement(h1, y.coords)
    for a, b in ((x, gy), (gx, y), (gx, gy)):
        z, ref = group_product(a, b), series_oracle_product(a, b)
        assert type(z) is type(ref) is GroupElement
        assert z.coords == ref.coords
    assert type(group_product(x, y)) is type(series_oracle_product(x, y)) is AlgebraVector


def _dynkin_reference(series, algebra, letters):
    """Word-by-word Dynkin evaluation in Fraction arithmetic: each word is
    bracketed from its first letter on, with no shared prefixes."""
    out = [Q(0)] * algebra.dim
    for w, c in series.terms.items():
        n = len(w)
        if n == 0:
            if c != 0:
                raise ValueError("not a Lie element (scalar part)")
            continue
        if n == 1:
            vec = letters[w[0]]
            out = [a + c * b for a, b in zip(out, vec)]
            continue
        vec = letters[w[0]]
        for letter in w[1:]:
            vec = algebra.bracket_coords(vec, letters[letter])
        q = c / n
        out = [a + q * b for a, b in zip(out, vec)]
    return tuple(out)


def _fractional_table():
    # Jacobi holds because e4 and e5 are central; struct_den = 12
    return GradedAlgebra("frac5", [1, 1, 2, 3, 3],
                         {(0, 1): {2: Q(1, 2)}, (0, 2): {3: Q(3, 4)},
                          (1, 2): {4: Q(2, 3)}})


def _old_bracket(algebra, x, y):
    """The bracket summed over the Fraction table, one Fraction product per
    table entry."""
    out = [Q(0)] * algebra.dim
    for (i, j), terms in algebra.struct.items():
        coef = x[i] * y[j] - x[j] * y[i]
        if coef:
            for k, c in terms.items():
                out[k] = out[k] + coef * c
    return tuple(out)


def _poly_terms(c):
    return c.terms if isinstance(c, Polynomial) else ({(): c} if c else {})


def test_bracket_coords_on_a_fractional_table(rng):
    g = _fractional_table()
    assert g.struct_den == 12
    assert g.bracket_coords(g.basis_coords(1), g.basis_coords(2)) == (0, 0, 0, 0, Q(2, 3))
    for _ in range(10):
        ints = [tuple(int(c) for c in rng.integers(-5, 6, g.dim)) for _ in range(2)]
        fracs = [rational_vector(g, rng).coords for _ in range(2)]
        for u, v in (ints, fracs, (ints[0], fracs[1])):
            got = g.bracket_coords(u, v)
            assert got == _old_bracket(g, u, v)
            assert all(isinstance(c, (int, Q)) for c in got)
    d = g.dim
    x = [Polynomial({(i,): 1}) for i in range(d)]
    y = [Polynomial({(d + i,): 1}) for i in range(d)]
    for u, v in ((x, y), (x, fracs[0]), (ints[0], y)):
        got = g.bracket_coords(u, v)
        assert [_poly_terms(c) for c in got] == \
            [_poly_terms(c) for c in _old_bracket(g, u, v)]


def test_integer_tables_stay_in_int(h1, f23):
    for g in (h1, f23):
        assert g.struct_den == 1
        got = g.bracket_coords(*(tuple(range(i, i + g.dim)) for i in (1, 3)))
        assert all(type(c) is int for c in got)


@pytest.mark.parametrize("name", list(catalog.catalog_names())
                         + ["free_2_5", "free_2_6", "abelian_0", "frac5"])
def test_dynkin_evaluate_matches_word_by_word(name, rng):
    # the shared-prefix integer evaluator, on integer forms in and out,
    # equals the word-by-word Fraction one on the BCH series and the d exp
    # series of every degree 2..6
    g = {"abelian_0": catalog.abelian(0), "frac5": _fractional_table()}.get(name) \
        or catalog.get(name)
    x, y = rational_vector(g, rng), rational_vector(g, rng)
    zero = AlgebraVector(g, g.zero_coords())
    last = AlgebraVector(g, g.basis_coords(g.dim - 1) if g.dim else ())
    for degree in range(2, 7):
        for series in (bch_word_polynomial(degree), dexp_word_polynomial(degree)):
            for letters in ({0: x, 1: y}, {0: x, 1: zero}, {0: y, 1: last}):
                nums, common = _dynkin_evaluate(
                    series, g, {l: v.int_form for l, v in letters.items()})
                assert all(type(n) is int for n in nums) and type(common) is int
                assert common > 0 and len(nums) == g.dim
                assert tuple(Q(n, common) for n in nums) == _dynkin_reference(
                    series, g, {l: v.coords for l, v in letters.items()}), (name, degree)


def test_oracles_on_a_fractional_table(rng):
    g = _fractional_table()
    for _ in range(5):
        x, y = rational_vector(g, rng), rational_vector(g, rng)
        assert group_product(x, y).coords == series_oracle_product(x, y).coords
        assert exp_differential(x).matrix == exp_differential_oracle(x).matrix


LAW_GROUPS = [n for n in catalog.catalog_names() if catalog.get(n).step >= 2] + \
    ["free_2_5", "frac5"]


@pytest.mark.parametrize("name", LAW_GROUPS)
def test_product_routes_agree_on_large_coprime_denominators(name, rng):
    # recursion, series oracle and (on the Heisenberg groups) the matrix
    # model agree exactly, with denominators 7, 9 and 10**6 + 3 mixed in
    # every coordinate; the law's outputs are primitive integer forms
    g = _fractional_table() if name == "frac5" else catalog.get(name)
    dens = (7, 9, 10 ** 6 + 3)
    model = g.tags.get("matrix_model")
    for t in range(3):
        x, y = (AlgebraVector(g, [Q(int(rng.integers(-10 ** 6, 10 ** 6)),
                                    dens[(k + t + s) % 3]) for k in range(g.dim)])
                for s in (0, 1))
        z = group_product(x, y)
        assert is_primitive(z)
        assert z == series_oracle_product(x, y)
        assert group_product_coords(g, x.coords, y.coords) == z.coords
        if model is not None:
            assert model.product_coords(x.coords, y.coords) == z.coords
        terms = [bch_term(n, x, y) for n in range(1, g.step + 1)]
        assert all(is_primitive(c) for c in terms)
        total = terms[0]
        for c in terms[1:]:
            total = total + c
        assert total == z


# the first 16 hex digits of the sha256 of repr((rows, dens, float_rows)) of
# each compiled law, as compiled with Fraction polynomial coefficients
LAW_DIGESTS = {"h1": "380ca9ff33c6009f", "g42": "a32b1d4b7751e114",
               "h12": "da1d2f078ada08fc", "free_2_3": "87fddf92b513111f",
               "free_3_3": "93459b9df7182ce7", "free_2_4": "40b57938ab106323",
               "free_2_5": "8732b1b8a0bdd7eb", "free_2_6": "8e26fb31eb26458d"}


@pytest.mark.parametrize("name", sorted(LAW_DIGESTS))
def test_compiled_law_is_pinned(name):
    # the integer-coefficient polynomials compile the same table
    law = _law(catalog.get(name))
    assert hashlib.sha256(repr(law).encode()).hexdigest()[:16] == LAW_DIGESTS[name]
