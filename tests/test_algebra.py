import itertools
import math
import random
import re
import subprocess
import sys
import warnings
from fractions import Fraction as Q

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from carnot import catalog
from carnot.algebra import (AlgebraVector, GradedAlgebra, GroupElement, Polynomial,
                            bracket, bracket_norm_constant, dilate,
                            homogeneous_dimension, identity_element, is_stratified,
                            iterated_bracket, project_layer, project_tail,
                            ValidationReport, validate_grading, validate_table)
from conftest import OPTIMIZED_RUNNER, run_optimized
from conftest import is_primitive, rational_vector
from test_bch import _fractional_table


def test_validate_grading_h1(h1):
    assert validate_grading(h1).ok


def test_validate_antisymmetry_violation():
    # c_12^3 = c_21^3 = 1 conflicts with antisymmetry
    report = validate_table(3, 2, [1, 1, 2], [(0, 1, 2, 1), (1, 0, 2, 1)])
    assert not report.ok
    assert any(v["kind"] == "antisymmetry" and v["where"] == (0, 1, 2)
               for v in report.violations)


def test_validate_grading_violation():
    # z reassigned to layer 1 breaks layer(k) = layer(i) + layer(j)
    report = validate_table(3, 2, [1, 1, 1], [(0, 1, 2, 1)])
    assert any(v["kind"] == "grading" for v in report.violations)


def test_validate_jacobi_violation():
    # V1 = {e1,e2,e3}, V2 = {e4}, V3 = {e5}; cyclic sum on (e1,e2,e3) gives
    # [e1,e4] + [e3,e4] = 2 e5 != 0
    report = validate_table(5, 3, [1, 1, 1, 2, 3],
                            [(0, 1, 3, 1), (1, 2, 3, 1),
                             (0, 3, 4, 1), (2, 3, 4, 1)])
    assert any(v["kind"] == "jacobi" for v in report.violations)


def dense_jacobi_triples(dim, entries):
    """Reference Jacobi check: every basis triple i < j < k whose cyclic
    bracket sum is nonzero, from the dense structure tensor T[a, b, k] =
    c_ab^k of the table as validate_table reads it (entries summed, diagonal
    ones dropped, the first orientation of a pair kept), scaled to integers.
    [b_i, [b_j, b_k]] is sum_l T[j, k, l] T[i, l, :]."""
    table = {}
    for i, j, k, c in entries:
        if i != j:
            terms = table.setdefault((i, j), {})
            terms[k] = terms.get(k, Q(0)) + Q(c)
    canon = {}
    for (i, j), terms in table.items():
        a, b, sgn = (i, j, 1) if i < j else (j, i, -1)
        for k, c in terms.items():
            if c and k not in canon.setdefault((a, b), {}):
                canon[(a, b)][k] = sgn * c
    scale = math.lcm(*(c.denominator for t in canon.values() for c in t.values()))
    T = np.zeros((dim, dim, dim), dtype=np.int64)
    for (a, b), terms in canon.items():
        for k, c in terms.items():
            T[a, b, k], T[b, a, k] = int(c * scale), -int(c * scale)
    cyclic = (np.einsum("jkl,ilm->ijkm", T, T) + np.einsum("kil,jlm->ijkm", T, T)
              + np.einsum("ijl,klm->ijkm", T, T))
    return [t for t in itertools.combinations(range(dim), 3) if cyclic[t].any()]


def _mutations(alg, rng):
    """One seeded mutation of each kind of alg's table, as (kind, entries)."""
    entries = [(i, j, k, c) for (i, j), t in sorted(alg.struct.items())
               for k, c in sorted(t.items())]
    lay = alg.layer_of
    pairs = list(itertools.combinations(range(alg.dim), 2))
    coeff = Q(rng.choice([-2, -1, 1, 2, 3]), rng.choice([1, 2]))
    i, j, k, c = rng.choice(entries)
    bumped = [(i, j, k, c + coeff) if e == (i, j, k, c) else e for e in entries]
    graded = [(a, b, k) for a, b in pairs for k in range(alg.dim)
              if lay[k] == lay[a] + lay[b]]
    off = [(a, b, k) for a, b in pairs for k in range(alg.dim)
           if lay[k] != lay[a] + lay[b]]
    out = [("bump", bumped), ("off-grade", entries + [rng.choice(off) + (coeff,)]),
           ("conflict", entries + [(j, i, k, c)])]
    if graded:
        out.append(("in-grade", entries + [rng.choice(graded) + (coeff,)]))
    return out


def test_sparse_jacobi_matches_dense_reference():
    # on seeded mutations of catalog tables the report is the one the dense
    # check gives: the same violations, in the same order
    rng = random.Random(20261018)
    failing = 0
    algs = [catalog.get(name) for name in ("h1", "h2", "h12", "g42", "free_2_3", "free_3_2",
                                           "free_2_4", "free_3_3", "free_2_5")]
    # free_2_3 with every bracket scaled by 2/3, so that struct_den is 3
    f23 = algs[4]
    algs.append(GradedAlgebra("free_2_3*2/3", f23.layer_of, {
        pair: {k: c * Q(2, 3) for k, c in terms.items()} for pair, terms in f23.struct.items()}))
    assert algs[-1].struct_den == 3
    for alg in algs:
        name = alg.name
        for _ in range(8):
            for kind, entries in _mutations(alg, rng):
                report = validate_table(alg.dim, alg.step, alg.layer_of, entries)
                dense = dense_jacobi_triples(alg.dim, entries)
                others = [v for v in report.violations if v["kind"] != "jacobi"]
                assert report.violations == others + [
                    {"kind": "jacobi", "where": t, "detail": "cyclic bracket sum nonzero"}
                    for t in dense], (name, kind)
                # an off-grade entry breaks the grading, a second orientation
                # the antisymmetry; a changed coefficient may stay valid
                assert kind in ("bump", "in-grade") or not report.ok, (name, kind)
                failing += bool(dense)
    assert failing >= 20  # the comparison is not vacuous


def test_validate_catalog_tables_ok():
    for name in catalog.catalog_names():
        alg = catalog.get(name)
        assert validate_grading(alg).ok
        assert dense_jacobi_triples(alg.dim, [(i, j, k, c) for (i, j), t in alg.struct.items()
                                              for k, c in t.items()]) == []


def _validate_table_reference(dim, step, layer_of, entries):
    """validate_table as it was before it skipped triples: the Jacobi loop
    runs on every basis triple, over brackets built for every ordered pair
    up front."""
    report = ValidationReport()
    for idx, layer in enumerate(layer_of):
        if not (1 <= layer <= step):
            report.add("layer_range", (idx,), "layer %d outside 1..%d" % (layer, step))
    entries = [(i, j, k, Q(c)) for i, j, k, c in entries]
    den = math.lcm(*(c.denominator for *_, c in entries))
    table = {}
    for (i, j, k, c) in entries:
        c = c.numerator * (den // c.denominator)
        if i == j and c != 0:
            report.add("antisymmetry", (i, j, k), "nonzero [b_i, b_i] coefficient")
            continue
        terms = table.setdefault((i, j), {})
        terms[k] = terms.get(k, 0) + c
    for (i, j), terms in table.items():
        if i < j and (j, i) in table:
            for k in set(terms) | set(table[(j, i)]):
                if terms.get(k, 0) != -table[(j, i)].get(k, 0):
                    report.add("antisymmetry", (i, j, k),
                               "c_%d%d^%d != -c_%d%d^%d" % (i, j, k, j, i, k))
    canon = {}
    for (i, j), terms in table.items():
        a, b, sgn = (i, j, 1) if i < j else (j, i, -1)
        for k, c in terms.items():
            if c != 0 and not ((a, b) in canon and k in canon[(a, b)]):
                canon.setdefault((a, b), {})[k] = sgn * c
    for (i, j), terms in canon.items():
        for k, c in terms.items():
            if c != 0 and layer_of[k] != layer_of[i] + layer_of[j]:
                report.add("grading", (i, j, k),
                           "layer(%d)=%d but layer(%d)+layer(%d)=%d"
                           % (k, layer_of[k], i, j, layer_of[i] + layer_of[j]))

    def ad(a, vec):
        out = {}
        for m, v in vec.items():
            lo, hi, v = (a, m, v) if a < m else (m, a, -v)
            for k, c in canon.get((lo, hi), {}).items():
                out[k] = out.get(k, 0) + v * c
        return out

    inner = {(b, c): ad(b, {c: 1}) for b, c in itertools.permutations(range(dim), 2)}
    for i, j, k in itertools.combinations(range(dim), 3):
        acc = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, v in ad(a, inner[b, c]).items():
                acc[m] = acc.get(m, 0) + v
        if any(acc.values()):
            report.add("jacobi", (i, j, k), "cyclic bracket sum nonzero")
    return report


# a step-3 table whose first layer e1, e2, e3 brackets into e4, e5, e6 and
# whose only third-layer bracket is [e1, e6] = e7; the cyclic sum on
# (e1, e2, e3) is [e1, e6] = e7, so it fails Jacobi and nothing else
STEP3 = ([1, 1, 1, 2, 2, 2, 3],
         [(0, 1, 3, 1), (0, 2, 4, 1), (1, 2, 5, 1), (0, 5, 6, 1)])
INVALID_TABLES = {
    "grading": ([1, 1, 1, 2, 2, 2, 3], STEP3[1] + [(3, 4, 6, 2)]),
    "jacobi": STEP3,
    "antisymmetry": (STEP3[0], STEP3[1] + [(2, 1, 5, 1)]),
    "layer_range": ([1, 1, 1, 2, 2, 2, 4], STEP3[1]),
}


@pytest.mark.parametrize("name", catalog.catalog_names() + sorted(INVALID_TABLES))
def test_validate_table_matches_the_full_triple_reference(name):
    # the report, violations in order, of every catalog table and of one
    # table with each kind of violation is the one the loop over every
    # triple gives; each invalid table reports its own kind
    if name in INVALID_TABLES:
        layer_of, entries = INVALID_TABLES[name]
        dim, step = len(layer_of), 3
    else:
        alg = catalog.get(name)
        dim, step, layer_of = alg.dim, alg.step, alg.layer_of
        entries = [(i, j, k, c) for (i, j), t in alg.struct.items() for k, c in t.items()]
    report = validate_table(dim, step, layer_of, entries)
    assert report.violations == _validate_table_reference(dim, step, layer_of,
                                                          entries).violations
    if name in INVALID_TABLES:
        assert {v["kind"] for v in report.violations} >= {name}
        assert name != "jacobi" or [v["kind"] for v in report.violations] == ["jacobi"]
    else:
        assert report.ok


def test_validate_table_mutations_match_the_full_triple_reference():
    # the seeded mutations of catalog tables, valid ones included
    rng = random.Random(20261019)
    for name in ("h1", "h2", "h12", "g42", "free_2_3", "free_3_2", "free_2_4", "free_3_3"):
        alg = catalog.get(name)
        for _ in range(4):
            for kind, entries in _mutations(alg, rng):
                got = validate_table(alg.dim, alg.step, alg.layer_of, entries)
                want = _validate_table_reference(alg.dim, alg.step, alg.layer_of, entries)
                assert got.violations == want.violations, (name, kind)


# polynomials in 3 variables up to degree 3 with int coefficients, or with
# int and Fraction coefficients of denominator up to 4, zero a third of the
# time; scalars and values are ints or Fractions
fractions = st.builds(Q, st.integers(-5, 5), st.integers(1, 4))
ints = st.integers(-5, 5)
monomials = st.lists(st.integers(0, 2), max_size=3).map(lambda m: tuple(sorted(m)))
polynomials = st.one_of(
    st.dictionaries(monomials, st.one_of(st.just(0), ints, ints), max_size=5),
    st.dictionaries(monomials, st.one_of(st.just(Q(0)), fractions, ints),
                    max_size=5)).map(Polynomial)
scalars = st.one_of(st.integers(-3, 3), fractions)
XS = sympy.symbols("x0:3")


def as_sympy(p):
    return sum((sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(XS[v] for v in m))
                for m, c in p.terms.items()), sympy.Integer(0))


def integral(p):
    return all(type(c) is int for c in p.terms.values())


@settings(max_examples=100, deadline=None, derandomize=True)
@given(polynomials, polynomials, scalars, st.lists(st.one_of(fractions, ints), min_size=3,
                                                   max_size=3))
def test_polynomial_matches_sympy(p, q, s, values):
    P, Qs, S = as_sympy(p), as_sympy(q), sympy.Rational(Q(s).numerator, Q(s).denominator)
    ints_in = integral(p) and integral(q) and type(s) is int
    for got, want in ((p + q, P + Qs), (p - q, P - Qs), (p * q, P * Qs),
                      (s * p, S * P), (p * s, P * S), (p + s, P + S), (s + p, S + P),
                      (p - s, P - S), (s - p, S - P), (-p, -P)):
        assert isinstance(got, Polynomial) and sympy.expand(as_sympy(got) - want) == 0
        assert all(c != 0 and type(c) in (int, Q) for c in got.terms.values())
        assert integral(got) or not ints_in  # int coefficients stay int
        assert all(list(m) == sorted(m) for m in got.terms)
    point = dict(zip(XS, (sympy.Rational(v.numerator, v.denominator) for v in values)))
    assert p(values) == P.subs(point) and type(p(values)) in (int, Q)
    zero = p - p
    assert zero.terms == {} and not zero and not p * 0 and not (0 * p).terms
    assert bool(p - q) == (sympy.expand(P - Qs) != 0) and not p - (p + 0)


def test_polynomial_vectors_through_bracket_coords(f23, rng):
    # bracketing symbolic vectors, then substituting, is bracketing numbers
    d = f23.dim
    symbolic = f23.bracket_coords([Polynomial({(i,): 1}) for i in range(d)],
                                  [Polynomial({(d + i,): 1}) for i in range(d)])
    for _ in range(5):
        u, v = rational_vector(f23, rng), rational_vector(f23, rng)
        values = list(u.coords + v.coords)
        assert tuple((Polynomial() + c)(values) for c in symbolic) == \
            f23.bracket_coords(u.coords, v.coords)


def test_bracket_h1(h1):
    x = AlgebraVector(h1, [1, 0, 0])
    y = AlgebraVector(h1, [0, 1, 0])
    z = AlgebraVector(h1, [0, 0, 1])
    assert bracket(x, y).coords == (0, 0, 1)
    assert bracket(x, x).coords == (0, 0, 0)
    assert bracket(x, z).coords == (0, 0, 0)


def test_bracket_algebra_mismatch(h1, h2):
    with pytest.raises(ValueError):
        bracket(AlgebraVector(h1, [1, 0, 0]), AlgebraVector(h2, [1, 0, 0, 0, 0]))


def test_iterated_bracket(h1):
    x = AlgebraVector(h1, [1, 0, 0])
    y = AlgebraVector(h1, [0, 1, 0])
    assert iterated_bracket(x, y, 0).coords == y.coords
    assert iterated_bracket(x, y, 1).coords == (0, 0, 1)
    assert iterated_bracket(x, y, 2).coords == (0, 0, 0)


def test_dilate(h1):
    v = AlgebraVector(h1, [Q(1), Q(2), Q(3)])
    assert dilate(v, Q(2)).coords == (2, 4, 12)
    assert dilate(v, 1).coords == v.coords
    with pytest.raises(ValueError):
        dilate(v, 0)
    # span{X + Z} is not dilation invariant: delta_2(X+Z) = 2X + 4Z
    w = AlgebraVector(h1, [1, 0, 1])
    assert dilate(w, 2).coords == (2, 0, 4)


def test_projections(h1, rng):
    v = AlgebraVector(h1, [1, 2, 3])
    assert project_layer(v, 2).coords == (0, 0, 3)
    assert project_tail(v, 1).coords == v.coords
    with pytest.raises(ValueError):
        project_layer(v, 3)
    for _ in range(5):
        x = rational_vector(h1, rng)
        total = project_layer(x, 1) + project_layer(x, 2)
        assert total.coords == x.coords
    # the float projections are the exact ones, bit for bit
    g = catalog.get("free_2_4")
    x = rational_vector(g, rng)
    for i in range(1, g.step + 1):
        for project in (project_layer, project_tail):
            assert np.array_equal(project(x.to_float(), i).coords,
                                  project(x, i).to_float().coords)


def test_homogeneous_dimension(h2, g42):
    assert homogeneous_dimension(catalog.heisenberg(3)) == 8  # 2n + 2
    assert homogeneous_dimension(g42) == 10                   # 4 + 2*3
    assert homogeneous_dimension(catalog.abelian(5)) == 5


def test_homogeneous_dimension_additive(h1, h2):
    prod = catalog.direct_product(h1, h2)
    assert homogeneous_dimension(prod) == \
        homogeneous_dimension(h1) + homogeneous_dimension(h2)


def test_is_stratified(h1):
    assert is_stratified(h1)
    assert is_stratified(catalog.abelian(3))
    # span{X, Z} of h1 as a standalone graded algebra is graded, not stratified
    from carnot.subgroups import span_subalgebra, subalgebra_as_algebra
    sub = subalgebra_as_algebra(span_subalgebra(h1, [1, 0, 0], [0, 0, 1]))
    assert validate_grading(sub).ok and not is_stratified(sub)


def test_jacobi_random_exact(h12, f23, rng):
    for g in (h12, f23):
        for _ in range(10):
            x, y, w = (rational_vector(g, rng) for _ in range(3))
            acc = bracket(x, bracket(y, w)) + bracket(y, bracket(w, x)) \
                + bracket(w, bracket(x, y))
            assert all(c == 0 for c in acc.coords)


def test_dilation_automorphism(f23, rng):
    for _ in range(10):
        x, y = rational_vector(f23, rng), rational_vector(f23, rng)
        r = Q(int(rng.integers(1, 7)), int(rng.integers(1, 4)))
        lhs = dilate(bracket(x, y), r)
        rhs = bracket(dilate(x, r), dilate(y, r))
        assert lhs.coords == rhs.coords


def test_bracket_norm_constant(h1, rng):
    assert bracket_norm_constant(catalog.abelian(4)).sup_observed == 0.0
    c = bracket_norm_constant(h1)
    assert c.sup_observed <= 2.0
    # sampled sup never exceeds the certified bound
    worst = 0.0
    for _ in range(200):
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        fx = h1.float_ops()
        worst = max(worst, float(np.linalg.norm(fx.bracket(x, y))) /
                    (np.linalg.norm(x) * np.linalg.norm(y)))
    assert worst <= c.sup_observed
    # doubling the table doubles the bound
    doubled = GradedAlgebra("2h1", [1, 1, 2], {(0, 1): {2: Q(2)}})
    assert bracket_norm_constant(doubled).sup_observed == \
        pytest.approx(2 * c.sup_observed, rel=1e-12)


def test_scalar_modes(h1):
    v = AlgebraVector(h1, [1, 2, 3])
    assert v.scalar_mode == "exact"
    f = v.to_float()
    assert f.scalar_mode == "float"
    with pytest.raises(ValueError):
        v + f  # no implicit mixing
    assert (f + f).scalar_mode == "float"


@pytest.mark.parametrize("name", ["h1", "free_2_3", "g42", "free_2_4", "frac5"])
def test_vector_arithmetic_keeps_the_integer_form_primitive(name, rng):
    # every exact operation returns the primitive integer form of the value
    # that the Fraction coordinate operations give
    g = _fractional_table() if name == "frac5" else catalog.get(name)
    for _ in range(10):
        x, y = rational_vector(g, rng, 7, 10), rational_vector(g, rng, 7, 10)
        r = Q(int(rng.integers(1, 8)), int(rng.integers(1, 8)))
        xc, yc = x.coords, y.coords
        cases = [(bracket(x, y), g.bracket_coords(xc, yc)),
                 (x + y, tuple(a + b for a, b in zip(xc, yc))),
                 (x - y, tuple(a - b for a, b in zip(xc, yc))),
                 (-x, tuple(-a for a in xc)),
                 (r * x, tuple(r * a for a in xc)),
                 (0 * x, g.zero_coords()),
                 (dilate(x, r), tuple(c * r ** l for c, l in zip(xc, g.layer_of)))]
        for i in range(1, g.step + 1):
            cases.append((project_layer(x, i), g.project_layer_coords(xc, i)))
            cases.append((project_tail(x, i),
                          tuple(c if l >= i else 0 for c, l in zip(xc, g.layer_of))))
        for got, want in cases:
            assert is_primitive(got), got
            assert got.coords == tuple(want)
            assert got.int_form == AlgebraVector(g, want).int_form
    zero = ((0,) * g.dim, 1)
    assert (x - x).int_form == zero and AlgebraVector(g, [0] * g.dim).int_form == zero
    assert identity_element(g).int_form == zero


def test_the_two_constructions_of_a_vector_agree(f23, rng):
    # one value built from Fractions and from an integer form that is not
    # reduced: equal, with equal hash, repr and bit-identical float image
    for _ in range(20):
        v = rational_vector(f23, rng, 10 ** 6, 10 ** 6)
        nums, den = v.int_form
        k = int(rng.integers(2, 50))
        w = AlgebraVector.from_int_form(f23, [k * n for n in nums], k * den)
        assert w.int_form == (nums, den)
        assert v == w and hash(v) == hash(w) and repr(v) == repr(w)
        assert w.coords == v.coords and all(type(c) is Q for c in w.coords)
        floats = np.array([float(c) for c in v.coords])
        assert w.to_float().coords.tobytes() == floats.tobytes() == \
            v.to_float().coords.tobytes()
    e = GroupElement.from_int_form(f23, [0, 2, 0, 0, 4], 6)
    assert type(e) is GroupElement and e.int_form == ((0, 1, 0, 0, 2), 3)
    assert repr(e) == "GroupElement(0,1/3,0,0,2/3)"


def test_equal_vectors_of_equal_algebras_compare_equal():
    # each catalog builder call makes a new algebra (catalog.get shares one
    # per name); vectors compare and hash by the algebra's table, as vector
    # arithmetic accepts them
    a, b = (GroupElement(catalog.heisenberg(1), [1, 0, 0]) for _ in range(2))
    assert a.algebra is not b.algebra and a.algebra == b.algebra
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a.to_float() == b.to_float() and a - b == identity_element(a.algebra)
    assert a != GroupElement(b.algebra, [0, 1, 0])
    assert a != GroupElement(catalog.get("h2"), [1, 0, 0, 0, 0])


def test_float_coordinates_of_an_exact_vector_are_read_exactly(h1):
    # a float given to an exact vector becomes its exact binary value, not
    # the decimal it prints as; metric and demo 02 pass floats such as 0.0
    v = AlgebraVector(h1, [0.1, 0.0, 2.5])
    assert v.scalar_mode == "exact"
    assert v.coords == (Q(3602879701896397, 36028797018963968), Q(0), Q(5, 2))
    assert v.int_form == ((3602879701896397, 0, 90071992547409920), 36028797018963968)
    assert v.to_float().coords.tolist() == [0.1, 0.0, 2.5]


def test_numpy_integers_in_a_vector_are_read_as_python_ints(h1):
    # np.int64 coordinates once stayed numpy integers in the integer forms of
    # a vector and of the matrix model, so the exact product overflowed with
    # only a RuntimeWarning: z read 0
    from carnot.bch import group_product
    big = np.int64(2 ** 40)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, y = GroupElement(h1, [big, 0, 0]), GroupElement(h1, [0, big, 0])
        assert group_product(x, y).coords == (2 ** 40, 2 ** 40, 2 ** 79)
        assert is_primitive(x)
        assert catalog.matrix_model(h1).product_coords([big, 0, 0], [0, big, 0]) == \
            (2 ** 40, 2 ** 40, 2 ** 79)


def test_numpy_integers_in_a_table_are_read_as_python_ints():
    # an np.int64 structure constant once stayed a numpy integer in
    # struct_num, so integer brackets overflowed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = GradedAlgebra("g", [1, 1, 2], {(0, 1): {2: np.int64(2 ** 40)}})
        assert g.struct_num == ((0, 1, ((2, 2 ** 40),)),) and g.struct_den == 1
        assert type(g.struct_num[0][2][0][1]) is int
        assert g.bracket_num((2 ** 30, 0, 0), (0, 2 ** 30, 0)) == (0, 0, 2 ** 100)


def test_zero_dimensional_algebra(h1):
    from carnot.bch import group_product
    from carnot.pdiff import lift_differential
    r0 = catalog.abelian(0)
    assert r0.bracket_coords((), ()) == ()
    e = GroupElement(r0, [])
    assert group_product(e, e).coords == ()
    assert group_product(e.to_float(), e.to_float()).coords.shape == (0,)
    assert lift_differential(h1, r0, []).matrix == []


# each input check of a library constructor or routine, as a script that must
# raise ValueError naming the bad input; also under python -O, where an
# assert would vanish
INPUT_CHECKS = {
    "empirical-constant-samples": (
        "from carnot.algebra import EmpiricalConstant\n"
        "EmpiricalConstant('c', 1.0, samples=0)", "samples must be >= 1"),
    "empirical-constant-sup": (
        "from carnot.algebra import EmpiricalConstant\n"
        "EmpiricalConstant('c', -1.0, samples=10)", "sup_observed must be >= 0"),
    "estimate-samples": (
        "from carnot import catalog, metric\n"
        "metric.norm_exp_estimate(metric.default_metric(catalog.get('h1')), samples=0)",
        "samples must be an integer >= 1"),
    "estimate-radius": (
        "from carnot import catalog, metric\n"
        "metric.verify_projection_estimate(metric.default_metric(catalog.get('h1')),"
        " radius=-1.0)", "radius must be a finite number > 0"),
    "estimate-nu": (
        "from carnot import catalog, metric\n"
        "metric.norm_exp_estimate(metric.default_metric(catalog.get('h1')), nu=0.01)",
        "nu must be a finite number > 0.05"),
    "bilinear-bound-samples": (
        "from carnot import bch, catalog\n"
        "bch.bilinear_bound(catalog.get('h1'), 2, samples=2.5)",
        "samples must be an integer >= 1"),
    "cn-difference-samples": (
        "from carnot import bch, catalog\n"
        "bch.cn_difference_bound(catalog.get('h1'), 2, 1.0, samples=2.5)",
        "samples must be an integer >= 1"),
    "bilipschitz-samples": (
        "from carnot import catalog, pdiff\n"
        "from carnot.morphism import identity_morphism\n"
        "f = pdiff.hom_map(identity_morphism(catalog.get('h1')))\n"
        "pdiff.bilipschitz_bounds(f, [0.0] * 3, samples=0)",
        "samples must be an integer >= 1"),
    "mvi-pair-samples": (
        "from carnot import pdiff\n"
        "pdiff.mean_value_ratio(pdiff.named_map('xcoord'), [0.0] * 3, 0.4, 5.0,"
        " pair_samples=0)", "pair_samples must be an integer >= 1"),
    "mvi-bins": (
        "from carnot import pdiff\n"
        "pdiff.mean_value_ratio(pdiff.named_map('xcoord'), [0.0] * 3, 0.4, 5.0,"
        " bins=0)", "bins must be an integer >= 1"),
    "product-estimate-no-factors": (
        "from carnot import catalog, metric\n"
        "metric.verify_product_estimate(metric.default_metric(catalog.get('h1')),"
        " n_factors=0)", "n_factors must be an integer >= 1"),
    "product-estimate-negative-factors": (
        "from carnot import catalog, metric\n"
        "metric.verify_product_estimate(metric.default_metric(catalog.get('h1')),"
        " n_factors=-1)", "n_factors must be an integer >= 1"),
    "lift-layer-bound-zero-lambda": (
        "from carnot import catalog\n"
        "from carnot.curves import lift_layer_bound, make_control\n"
        "h1 = catalog.get('h1')\n"
        "lift_layer_bound(make_control(h1, 'circle'), h1, [0.0])",
        "lambdas[0] must be a finite number > 0"),
    "lift-layer-bound-negative-lambda": (
        "from carnot import catalog\n"
        "from carnot.curves import lift_layer_bound, make_control\n"
        "h1 = catalog.get('h1')\n"
        "lift_layer_bound(make_control(h1, 'circle'), h1, [0.1, -0.2])",
        "lambdas[1] must be a finite number > 0"),
    "lift-layer-bound-short-lambda": (
        "from carnot import catalog\n"
        "from carnot.curves import lift_layer_bound, make_control\n"
        "h1 = catalog.get('h1')\n"
        "lift_layer_bound(make_control(h1, 'circle'), h1, [0.1, 0.001], steps=512)",
        "lambdas[1] = 0.001 is shorter than the first cell of the lift, 0.00613"),
    "structure-dimension-budget": (
        "from carnot.algebra import GradedAlgebra\n"
        "GradedAlgebra('big', [1] * 201, {})", "big: dimension 201 exceeds the budget of 200"),
    "structure-orientation": (
        "from carnot.algebra import GradedAlgebra\n"
        "GradedAlgebra('bad', [1, 1, 2], {(1, 0): {2: 1}})", "i < j"),
    "iterated-bracket-k": (
        "from carnot import catalog\n"
        "from carnot.algebra import AlgebraVector, iterated_bracket\n"
        "x = AlgebraVector(catalog.get('h1'), [1, 0, 0])\n"
        "iterated_bracket(x, x, -1)", "k >= 0"),
    "free-series-add": (
        "from carnot.bch import FreeSeries\n"
        "FreeSeries.letter(0, 2).add(FreeSeries.letter(0, 3))", "degree mismatch"),
    "free-series-mul": (
        "from carnot.bch import FreeSeries\n"
        "FreeSeries.letter(0, 2).mul(FreeSeries.letter(0, 3))", "degree mismatch"),
    "h-type-j-shape": (
        "from carnot.catalog import HTypeData, h_type_from_J\n"
        "h_type_from_J(HTypeData(dim_v=2, dim_z=1, j_matrices=[[[0, 1]]]))", "J-data"),
    "sampled-curve-shape": (
        "from carnot import catalog\n"
        "from carnot.curves import SampledCurve\n"
        "SampledCurve(catalog.get('h1'), [0, 1], [[0, 0], [0, 0]])", "shape"),
    "sampled-curve-times": (
        "from carnot import catalog\n"
        "from carnot.curves import SampledCurve\n"
        "SampledCurve(catalog.get('h1'), [0, 0], [[0, 0, 0], [0, 0, 0]])",
        "strictly increasing"),
    "sampled-curve-finite": (
        "from carnot import catalog\n"
        "from carnot.curves import SampledCurve\n"
        "SampledCurve(catalog.get('h1'), [0, 1], [[0, 0, 0], [0, float('nan'), 0]])",
        "finite"),
    "lift-steps": (
        "from carnot import catalog\n"
        "from carnot.algebra import identity_element\n"
        "from carnot.curves import horizontal_lift, make_control\n"
        "h1 = catalog.get('h1')\n"
        "horizontal_lift(make_control(h1, 'line', direction=[1.0, 0.0]),"
        " identity_element(h1), steps=1)", "steps >= 2"),
    "lift-control-length": (
        "from carnot import catalog\n"
        "from carnot.algebra import identity_element\n"
        "from carnot.curves import horizontal_lift, make_control\n"
        "h1 = catalog.get('h1')\n"
        "c = make_control(h1, 'line', direction=[1.0, 0.0])\n"
        "c.fn = lambda t: [1.0, 0.0, 0.0]\n"
        "horizontal_lift(c, identity_element(h1), steps=16)", "layer 1"),
    "sphere-point-zero": (
        "from carnot import catalog, metric\n"
        "metric.sphere_point(metric.default_metric(catalog.get('h1')), [0.0, 0.0, 0.0])",
        "nonzero"),
    "morphism-call": (
        "from carnot import catalog\n"
        "from carnot.algebra import vector\n"
        "from carnot.morphism import identity_morphism\n"
        "identity_morphism(catalog.get('h1'))(vector(catalog.get('h2'), [0] * 5))",
        "algebra mismatch"),
    "morphism-compose": (
        "from carnot import catalog\n"
        "from carnot.morphism import identity_morphism\n"
        "identity_morphism(catalog.get('h1')).compose(identity_morphism(catalog.get('h2')))",
        "codomain"),
    "morphism-kernel-float": (
        "from carnot import catalog\n"
        "from carnot.morphism import identity_morphism\n"
        "identity_morphism(catalog.get('h1')).to_float().kernel_basis()", "exact"),
    "morphism-image-float": (
        "from carnot import catalog\n"
        "from carnot.morphism import identity_morphism\n"
        "identity_morphism(catalog.get('h1')).to_float().image_basis()", "exact"),
    "morphism-determinant-shape": (
        "from carnot import catalog\n"
        "from carnot.morphism import GradedMorphism\n"
        "GradedMorphism(catalog.get('h1'), catalog.abelian(2),"
        " [[1, 0, 0], [0, 1, 0]]).determinant_is_one()", "endomorphism"),
    "compose-maps": (
        "from carnot import catalog, pdiff\n"
        "from carnot.morphism import identity_morphism\n"
        "f = pdiff.hom_map(identity_morphism(catalog.get('h1')))\n"
        "g = pdiff.hom_map(identity_morphism(catalog.get('h2')))\n"
        "pdiff.compose_maps(g, f)", "f.codomain"),
    "local-inverse-dims": (
        "from carnot import catalog, pdiff\n"
        "from carnot.morphism import GradedMorphism\n"
        "L = GradedMorphism(catalog.get('h1'), catalog.abelian(2), [[1, 0, 0], [0, 1, 0]])\n"
        "pdiff.local_inverse(pdiff.hom_map(L), [0.0] * 3, [0.0] * 2)", "dimensions"),
    "vertical-subgroup-step": (
        "from carnot import catalog, pdiff, subgroups\n"
        "from carnot.metric import default_metric\n"
        "g = catalog.get('free_2_3')\n"
        "sub = subgroups.layered_decomposition(g, [g.basis_coords(2)])\n"
        "pdiff.distance_to_vertical_subgroup(default_metric(g), sub,"
        " [[0.0, 0.0, 0.0, 1.0, 0.0]])", "whole second layer"),
    "vertical-subgroup-horizontal": (
        "from carnot import catalog, pdiff, subgroups\n"
        "from carnot.metric import default_metric\n"
        "g = catalog.get('h2')\n"
        "sub = subgroups.layered_decomposition(g, [g.basis_coords(0)])\n"
        "pdiff.distance_to_vertical_subgroup(default_metric(g), sub,"
        " [[0.0, 0.0, 0.0, 0.0, 1.0]])", "whole second layer"),
    "split-element-float": (
        "from carnot import catalog, subgroups\n"
        "from carnot.algebra import element\n"
        "h1 = catalog.get('h1')\n"
        "subgroups.split_element(element(h1, [0, 0, 1]).to_float(),"
        " subgroups.full_subalgebra(h1), subgroups.zero_subalgebra(h1))", "exact element"),
    "split-element-pair": (
        "from carnot import catalog, subgroups\n"
        "from carnot.algebra import element\n"
        "h1 = catalog.get('h1')\n"
        "P = subgroups.span_subalgebra(h1, [1, 0, 0])\n"
        "subgroups.split_element(element(h1, [0, 1, 0]), P, P)",
        "not complementary at layer 1"),
    "blowup-nan-distance": (
        "from carnot.pdiff import BlowupReport\n"
        "BlowupReport([0.1], [float('nan')], [0.0], [0.0], 1.0)", "distances must be"),
    "blowup-negative-distance": (
        "from carnot.pdiff import BlowupReport\n"
        "BlowupReport([0.1, 0.01], [0.5, -1.0], [0.0, 0.0], [0.0, 0.0], 1.0)",
        "distances must be"),
    "section-through-witness": (
        "from carnot import catalog, subgroups\n"
        "h1 = catalog.get('h1')\n"
        "_, dpi = subgroups.quotient(h1, subgroups.span_subalgebra(h1, [0, 0, 1]))\n"
        "subgroups.section_through(dpi, subgroups.span_subalgebra(h1, [1, 0, 0]))",
        "does not map isomorphically"),
}


def _guarded(script):
    """The script with a ValueError it raises printed, not raised."""
    return "try:\n%s\nexcept ValueError as e:\n    print(e)\n" % "\n".join(
        "    " + line for line in script.splitlines())


@pytest.fixture(scope="module")
def optimized_checks(tmp_path_factory):
    # every guarded INPUT_CHECKS script, each in its own directory, in one
    # python -O interpreter
    probes = {name: {"cwd": str(tmp_path_factory.mktemp(name)), "script": _guarded(script)}
              for name, (script, _) in INPUT_CHECKS.items()}
    return run_optimized(probes, tmp_path_factory.mktemp("optimized"))


@pytest.mark.parametrize("optimized", [False, True], ids=["python", "python-O"])
@pytest.mark.parametrize("probe", sorted(INPUT_CHECKS))
def test_input_check_raises_value_error(request, probe, optimized):
    script, message = INPUT_CHECKS[probe]
    if not optimized:
        with pytest.raises(ValueError, match=re.escape(message)):
            exec(script, {})
        return
    run = request.getfixturevalue("optimized_checks")[probe]
    assert run["code"] == 0 and not run["stderr"], run["stderr"]
    assert message in run["stdout"]


def test_optimized_runner_reports_like_a_process(tmp_path):
    # a failing probe fails as its own process would (exit 1, traceback on
    # stderr), and the runner refuses to run with asserts left in
    probes = {
        "assert-compiled-out": "assert False",
        "assertion-error": "raise AssertionError('kept')",
        "exit": "import sys\nsys.exit(1)",
        "exit-message": "import sys\nsys.exit('bad input')",
        "value-error": "raise ValueError('named')",
        "ok": "import os, sys\nprint(sys.flags.optimize, os.path.basename(os.getcwd()))",
    }
    dirs = {name: tmp_path / name for name in probes}
    for d in dirs.values():
        d.mkdir()
    runs = run_optimized({name: {"cwd": str(dirs[name]), "script": script}
                          for name, script in probes.items()}, tmp_path)
    assert runs["assert-compiled-out"] == {"code": 0, "stdout": "", "stderr": ""}
    assert runs["assertion-error"]["code"] == 1 and \
        "AssertionError: kept" in runs["assertion-error"]["stderr"]
    assert runs["exit"] == {"code": 1, "stdout": "", "stderr": ""}
    assert runs["exit-message"] == {"code": 1, "stdout": "", "stderr": "bad input\n"}
    assert runs["value-error"]["code"] == 1 and "ValueError: named" in \
        runs["value-error"]["stderr"]
    assert runs["ok"] == {"code": 0, "stdout": "1 ok\n", "stderr": ""}
    plain = subprocess.run([sys.executable, OPTIMIZED_RUNNER, "p.json", "r.json"],
                           cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert plain.returncode == 1 and "python -O" in plain.stderr
