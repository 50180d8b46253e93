"""Exact linear algebra over the rationals.

Matrices are lists of lists of ``int`` or ``fractions.Fraction`` (row major).
Eliminations return ``Fraction``; ``matmul`` and ``matvec`` keep integer
inputs integer, and a ``Span`` keeps primitive integer rows.  ``int_form``
reads rational input, numpy integers as the Python ints they hold, so no
fixed-width product can overflow.  Eliminations read their entries through
it; other entries, floats and strings included, raise ``TypeError`` rather
than make an exact result inexact.
Nothing here mutates its arguments.  This is the kernel behind subalgebra
canonicalization, quotients and all classification decisions.  Elimination is
fraction-free over the integers (after Bareiss, Math. Comp. 22 (1968)
565-578): ``_echelon`` scales each row once by the lcm of its denominators,
each step is ``row <- p*row - f*pivot`` divided by the row's content gcd, and
``rref`` divides by the pivots at the end.  ``det`` is Bareiss's own
determinant of an int matrix, exact division by the previous pivot.
"""

from fractions import Fraction
from math import gcd, lcm
from numbers import Rational

ZERO = Fraction(0)
ONE = Fraction(1)


def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def zeros(nrows, ncols):
    return [[ZERO] * ncols for _ in range(nrows)]


def transpose(m):
    return [list(col) for col in zip(*m)] if m else []


def matmul(a, b):
    if len(a[0]) != len(b):
        raise ValueError("inner dimensions differ: %d vs %d" % (len(a[0]), len(b)))
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def matvec(a, v):
    if a and len(a[0]) != len(v):
        raise ValueError("%d matrix columns vs %d vector entries" % (len(a[0]), len(v)))
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def int_form(values):
    """(nums, den): the values as a list of int numerators over their least
    common denominator den > 0, so gcd(den, *nums) == 1.  Ints and Fractions
    are read as they are, other Rationals (numpy integers among them) by the
    Python ints of their numerator and denominator, and anything else
    through Fraction (a float exactly, a string parsed)."""
    if all(type(x) is int for x in values):
        return list(values), 1
    vals = [x if type(x) is int or type(x) is Fraction
            else Fraction(int(x.numerator), int(x.denominator)) if isinstance(x, Rational)
            else Fraction(x) for x in values]
    den = lcm(*[x.denominator for x in vals])
    return [x.numerator * (den // x.denominator) for x in vals], den


def _int_row(row):
    """The primitive integer row with the same span as a row of Rationals; a
    row of ints goes straight to its content gcd."""
    for x in row:
        if type(x) is not int:
            bad = next((x for x in row if type(x) is not Fraction and type(x) is not int
                        and not isinstance(x, Rational)), None)
            if bad is not None:
                raise TypeError("entry %r is not an int or a Fraction" % (bad,))
            row = int_form(row)[0]
            break
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else list(row)


def _reduce(row, prow, c):
    """p*row - f*prow, zero in column c, divided by its content gcd."""
    p, f = prow[c], row[c]
    g = gcd(p, f)
    p, f = p // g, f // g
    out = [p * x - f * y for x, y in zip(row, prow)]
    g = gcd(*out)
    return [x // g for x in out] if g > 1 else out


def _echelon(rows):
    """Fraction-free Gauss-Jordan: (int_rows, pivots), where int_rows[r] is
    primitive, has its pivot in column pivots[r] and zeros in every other
    pivot column.  Zero rows are dropped: len(int_rows) is the rank."""
    a = [r for r in map(_int_row, rows) if any(r)]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == len(a):
            break
        i = next((i for i in range(r, len(a)) if a[i][c]), None)
        if i is None:
            continue
        a[r], a[i] = a[i], a[r]
        prow = a[r]
        for i, row in enumerate(a):
            if i != r and row[c]:
                a[i] = _reduce(row, prow, c)
        pivots.append(c)
    return a[:len(pivots)], pivots


def rref(m):
    """Reduced row echelon form.  Returns (rref_matrix, pivot_columns)."""
    if not m:
        return [], []
    rows, pivots = _echelon(m)
    out = [[Fraction(x, row[c]) if x else ZERO for x in row]
           for row, c in zip(rows, pivots)]
    return out + [[ZERO] * len(m[0]) for _ in range(len(m) - len(rows))], pivots


def rank(m):
    return len(_echelon(m)[1])


def det(m):
    """Determinant of a square matrix of ints (1 for the 0 x 0 matrix), by
    Bareiss's fraction-free elimination: each step divides exactly by the
    previous pivot, so every entry stays an int minor of m."""
    a = [list(row) for row in m]
    sign, prev = 1, 1
    for c in range(len(a)):
        i = next((i for i in range(c, len(a)) if a[i][c]), None)
        if i is None:
            return 0
        if i != c:
            a[c], a[i], sign = a[i], a[c], -sign
        prow, p = a[c], a[c][c]
        for row in a[c + 1:]:
            f = row[c]
            for k in range(c + 1, len(a)):
                row[k] = (p * row[k] - f * prow[k]) // prev
        prev = p
    return sign * prev


def row_space_basis(m):
    """Canonical (RREF) basis of the row space; empty rows dropped."""
    r, pivots = rref(m)
    return r[:len(pivots)]


def nullspace(m):
    """Basis of the right nullspace, as a list of vectors."""
    if not m:
        return []
    r, pivots = rref(m)
    basis = []
    for fc in (c for c in range(len(m[0])) if c not in pivots):
        v = [ONE if c == fc else ZERO for c in range(len(m[0]))]
        for i, pc in enumerate(pivots):
            v[pc] = -r[i][fc]
        basis.append(v)
    return basis


def solve(a, b):
    """One exact solution of a x = b, or None if inconsistent.

    Free variables are set to zero, which makes the result canonical.
    """
    ncols = len(a[0]) if a else 0
    aug = [list(row) + [bv] for row, bv in zip(a, b)]
    r, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [ZERO] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = r[i][ncols]
    return x


def inverse_form(m):
    """The inverse of a square matrix as an integer form (nums, den), the
    inverse being nums / den with den > 0 (not reduced), or None when m is
    singular: row r of the fraction-free echelon form of [m | I] is its
    pivot entry times [e_r | row r of the inverse]."""
    n = len(m)
    rows, pivots = _echelon([list(row) + [int(r == c) for c in range(n)]
                             for r, row in enumerate(m)])
    if pivots != list(range(n)):
        return None
    den = lcm(*(row[c] for row, c in zip(rows, pivots)))
    return [[x * (den // row[c]) for x in row[n:]] for row, c in zip(rows, pivots)], den


def inverse(m):
    form = inverse_form(m)
    if form is None:
        return None
    nums, den = form
    return [[Fraction(x, den) for x in row] for row in nums]


class Span:
    """The row span of `rows`, brought to echelon form once.  `rows` holds primitive
    integer rows and `pivots` their pivot columns; each row is zero in the
    pivot columns of the rows before it, so a vector reduced against them in
    order is zero exactly when it lies in the span.  A vector and its
    nonzero multiples get the same answer."""

    def __init__(self, rows):
        self.rows, self.pivots = _echelon(rows)

    def _residue(self, v):
        w = _int_row(v)
        for prow, c in zip(self.rows, self.pivots):
            if w[c]:
                w = _reduce(w, prow, c)
        return w

    def contains(self, v):
        return not any(self._residue(v))

    def add(self, v):
        """Extend the span by v in place; True iff v was not in it."""
        w = self._residue(v)
        if not any(w):
            return False
        self.rows.append(w)
        self.pivots.append(next(c for c, x in enumerate(w) if x))
        return True
