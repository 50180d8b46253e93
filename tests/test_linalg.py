"""Property tests of the exact linear algebra kernel against a textbook
Gauss-Jordan over Fraction, on random rational matrices with zero rows,
duplicate rows and dependent rows."""

import itertools
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carnot import linalg

PROPS = settings(max_examples=100, deadline=None, derandomize=True)


def reference_rref(m):
    """Gauss-Jordan with Fraction division at every step: the reference."""
    a = [[Q(x) for x in row] for row in m]
    pivots = []
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        i = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if i is None:
            continue
        a[r], a[i] = a[i], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


def reference_rank(m):
    return len(reference_rref(m)[1])


# entries with denominators up to 5, zero half of the time
entries = st.one_of(st.just(Q(0)), st.builds(Q, st.integers(-6, 6), st.integers(1, 5)))


def combination(draw, rows, ncols):
    """A random rational combination of rows (the zero row when there are none)."""
    out = [Q(0)] * ncols
    for row in rows:
        c = draw(entries)
        out = [x + c * y for x, y in zip(out, row)]
    return out


@st.composite
def matrices(draw, min_rows=0, ncols=None):
    """0-9 rows, 1-10 columns; may hold zero, duplicate and dependent rows."""
    ncols = ncols or draw(st.integers(1, 10))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=min_rows, max_size=7))
    extra = draw(st.sampled_from(["none", "zero", "duplicate", "combination"]))
    if rows and extra == "zero":
        rows.insert(draw(st.integers(0, len(rows))), [Q(0)] * ncols)
    elif rows and extra == "duplicate":
        rows.append(list(draw(st.sampled_from(rows))))
    elif rows and extra == "combination":
        rows.append(combination(draw, rows, ncols))
        rows.append(combination(draw, rows, ncols))
    return draw(st.permutations(rows))


@st.composite
def basis_and_vector(draw):
    ncols = draw(st.integers(1, 10))
    basis = draw(matrices(ncols=ncols))
    if draw(st.booleans()):
        v = combination(draw, basis, ncols)
    else:
        v = draw(st.lists(entries, min_size=ncols, max_size=ncols))
    return basis, v


@PROPS
@given(matrices())
def test_rref_matches_reference(m):
    ref = reference_rref(m)
    assert linalg.rref(m) == ref
    assert linalg.rank(m) == len(ref[1])


@PROPS
@given(basis_and_vector(), st.data())
def test_span_contains_agrees_with_elimination(bv, data):
    basis, v = bv
    span = linalg.Span(basis)
    inside = reference_rank(basis + [v]) == reference_rank(basis)
    assert span.contains(v) == inside
    assert span.contains([-3 * x for x in v]) == inside
    assert span.contains([0] * len(v))
    # a span grown in place answers like one built from scratch
    assert span.add(v) == (not inside) and span.contains(v)
    w = data.draw(st.lists(entries, min_size=len(v), max_size=len(v)))
    assert span.contains(w) == (reference_rank(basis + [v, w]) ==
                                reference_rank(basis + [v]))
    assert len(span.pivots) == reference_rank(basis + [v])


def test_span_of_no_rows():
    span = linalg.Span([])
    assert span.contains([0, 0]) and not span.contains([0, Q(1, 2)])
    assert not span.add([0, 0])
    assert span.add([0, Q(-1, 2)]) and (span.rows, span.pivots) == ([[0, -1]], [1])
    assert span.contains([0, 7]) and not span.contains([1, 0])


@PROPS
@given(matrices(min_rows=1), st.data())
def test_solve_exact_or_none(a, data):
    ncols = len(a[0])
    if data.draw(st.booleans()):
        b = linalg.matvec(a, data.draw(st.lists(entries, min_size=ncols, max_size=ncols)))
    else:
        b = data.draw(st.lists(entries, min_size=len(a), max_size=len(a)))
    x = linalg.solve(a, b)
    consistent = reference_rank([row + [bv] for row, bv in zip(a, b)]) == reference_rank(a)
    assert (x is not None) == consistent
    if x is not None:
        assert linalg.matvec(a, x) == b


@PROPS
@given(matrices(min_rows=1))
def test_nullspace_annihilated(m):
    null = linalg.nullspace(m)
    assert len(null) == len(m[0]) - reference_rank(m)
    for v in null:
        assert linalg.matvec(m, v) == [0] * len(m)


@PROPS
@given(st.integers(1, 6).flatmap(lambda n: matrices(min_rows=n, ncols=n)
                                 .map(lambda m: m[:n])))
def test_inverse_or_none(m):
    n = len(m)
    inv = linalg.inverse(m)
    assert (inv is None) == (reference_rank(m) < n)
    if inv is not None:
        assert linalg.matmul(inv, m) == linalg.identity(n)


def test_float_entries_rejected():
    with pytest.raises(TypeError):
        linalg.rref([[Q(1), 0.5]])
    with pytest.raises(TypeError):
        linalg.rank([[Q(1)], [0.5]])
    with pytest.raises(TypeError):
        linalg.Span([[Q(1), Q(0)]]).contains([0.5, 0])
    with pytest.raises(TypeError):
        linalg.solve([[Q(1)]], [0.5])


def test_numpy_integer_entries_are_exact():
    # 2**32 * 2**32 overflows an int64: numpy integers are read as the
    # Python ints they hold, so the solve is the exact one of those ints
    a = [[2**32, 2**32], [1, 2**32 + 1]]
    a64 = [[np.int64(x) for x in row] for row in a]
    x = linalg.solve(a, [1, 0])
    assert x is not None and linalg.solve(a64, [1, 0]) == x
    assert linalg.rank(a64) == 2 and linalg.Span(a64).rows == linalg.Span(a).rows
    assert linalg.Span(a64[:1]).contains([np.int64(3), np.int64(3)])


def test_shape_errors():
    with pytest.raises(ValueError, match="inner dimensions"):
        linalg.matmul(linalg.identity(2), linalg.identity(3))
    with pytest.raises(ValueError, match="vector"):
        linalg.matvec(linalg.identity(2), [Q(1)] * 3)
    # a map onto the zero space has no rows
    assert linalg.matvec([], [Q(1)] * 3) == []


def _leibniz_det(m):
    """The determinant as the signed sum over permutations: the reference."""
    total = 0
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = -1 if inversions % 2 else 1
        for r, c in enumerate(perm):
            term *= m[r][c]
        total += term
    return total


@PROPS
@given(st.integers(0, 5).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(-4, 4) | st.just(0), min_size=n, max_size=n),
             min_size=n, max_size=n),
    st.sampled_from(["none", "zero", "duplicate", "combination"]))))
def test_det_matches_leibniz(case):
    # square int matrices, some of them singular by a zero, a repeated or a
    # combined row, and with zero leading entries that make the elimination
    # swap rows
    m, extra = case
    if len(m) > 1 and extra == "zero":
        m[1] = [0] * len(m)
    elif len(m) > 1 and extra == "duplicate":
        m[1] = list(m[0])
    elif len(m) > 2 and extra == "combination":
        m[2] = [2 * x - 3 * y for x, y in zip(m[0], m[1])]
    before = [list(row) for row in m]
    d = linalg.det(m)
    assert type(d) is int and d == _leibniz_det(m)
    assert m == before
    assert (d != 0) == (linalg.rank(m) == len(m))
