"""Graded nilpotent Lie algebras from exact rational structure constants.

A ``GradedAlgebra`` stores a basis split into layers V_1 .. V_step and a
sparse table c_{ij}^k (canonical orientation i < j, the j < i entries are
derived by antisymmetry) with [b_i, b_j] = sum_k c_{ij}^k b_k.  All algebraic
primitives here are exact; ``FloatOps`` exposes the same operations on float
numpy arrays for the analytic modules.
"""

import itertools
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import linalg

Q = Fraction


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations

    def add(self, kind, where, detail):
        self.violations.append({"kind": kind, "where": where, "detail": detail})

    def __str__(self):
        if self.ok:
            return "valid graded Lie algebra"
        lines = ["%s at %s: %s" % (v["kind"], v["where"], v["detail"]) for v in self.violations]
        return "\n".join(lines)


def validate_table(dim, step, layer_of, entries):
    """Check a raw structure-constant table (list of (i, j, k, coeff), 0-based).

    Reports antisymmetry conflicts (both orientations present and
    inconsistent, or diagonal entries), grading violations
    layer(k) != layer(i)+layer(j), layers out of range, and Jacobi failures.
    Jacobi is checked on every basis triple i < j < k, by sparse signed
    lookups in the canonical table.  Diagnostic only: always returns a
    report, never raises.
    """
    report = ValidationReport()
    for idx, layer in enumerate(layer_of):
        if not (1 <= layer <= step):
            report.add("layer_range", (idx,), "layer %d outside 1..%d" % (layer, step))
    table = {}
    for (i, j, k, c) in entries:
        c = Q(c)
        if i == j and c != 0:
            report.add("antisymmetry", (i, j, k), "nonzero [b_i, b_i] coefficient")
            continue
        table.setdefault((i, j), {}).setdefault(k, Q(0))
        table[(i, j)][k] += c
    # antisymmetry between explicit opposite orientations
    for (i, j), terms in table.items():
        if i < j and (j, i) in table:
            for k in set(terms) | set(table[(j, i)]):
                if terms.get(k, Q(0)) != -table[(j, i)].get(k, Q(0)):
                    report.add("antisymmetry", (i, j, k),
                               "c_%d%d^%d != -c_%d%d^%d" % (i, j, k, j, i, k))
    # canonical table for the remaining checks
    canon = {}
    for (i, j), terms in table.items():
        a, b, sgn = (i, j, Q(1)) if i < j else (j, i, Q(-1))
        for k, c in terms.items():
            if c == 0:
                continue
            if (a, b) in canon and k in canon[(a, b)]:
                continue  # the antisymmetry pass already compared both
            canon.setdefault((a, b), {})[k] = sgn * c
    for (i, j), terms in canon.items():
        for k, c in terms.items():
            if c != 0 and layer_of[k] != layer_of[i] + layer_of[j]:
                report.add("grading", (i, j, k),
                           "layer(%d)=%d but layer(%d)+layer(%d)=%d"
                           % (k, layer_of[k], i, j, layer_of[i] + layer_of[j]))

    def ad(a, vec):
        """[b_a, vec] for a sparse vector {index: coefficient}, by signed
        lookups in the canonical table."""
        out = {}
        for m, v in vec.items():
            lo, hi, v = (a, m, v) if a < m else (m, a, -v)
            for k, c in canon.get((lo, hi), {}).items():
                out[k] = out.get(k, 0) + v * c
        return out

    inner = {(b, c): ad(b, {c: Q(1)}) for b, c in itertools.permutations(range(dim), 2)}
    for i, j, k in itertools.combinations(range(dim), 3):
        acc = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, v in ad(a, inner[b, c]).items():
                acc[m] = acc.get(m, 0) + v
        if any(acc.values()):
            report.add("jacobi", (i, j, k), "cyclic bracket sum nonzero")
    return report


def validate_grading(algebra):
    """Validation report for an already-constructed algebra (grading + Jacobi;
    antisymmetry holds by construction of the canonical table)."""
    entries = []
    for (i, j), terms in algebra.struct.items():
        for k, c in terms.items():
            entries.append((i, j, k, c))
    return validate_table(algebra.dim, algebra.step, algebra.layer_of, entries)


# ---------------------------------------------------------------------------
# sparse polynomials over Q
# ---------------------------------------------------------------------------

class Polynomial:
    """Sparse polynomial over Q in variables 0, 1, 2, ...: ``terms`` maps a
    monomial, the sorted tuple of its variables (``()`` for the constant),
    to a nonzero Fraction.  ``+``, ``-`` and ``*`` take a scalar on either
    side, so a vector of polynomials goes through
    ``GradedAlgebra.bracket_coords`` unchanged.  ``p(values)`` evaluates at
    a value list; a zero polynomial has no terms and is falsy."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {m: Q(c) for m, c in (terms or {}).items() if c}

    @staticmethod
    def _terms_of(x):
        return x.terms if isinstance(x, Polynomial) else {(): Q(x)} if x else {}

    @classmethod
    def _of(cls, terms):
        out = cls.__new__(cls)
        out.terms = {m: c for m, c in terms.items() if c}
        return out

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in self._terms_of(other).items():
            out[m] = out.get(m, 0) + c
        return self._of(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return self._of({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self._of({m: c * other for m, c in self.terms.items()})
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(sorted(m1 + m2))
                out[m] = out.get(m, 0) + c1 * c2
        return self._of(out)

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.terms)

    def __call__(self, values):
        out = Q(0)
        for mono, c in self.terms.items():
            for v in mono:
                c = c * values[v]
            out += c
        return out


# ---------------------------------------------------------------------------
# the algebra
# ---------------------------------------------------------------------------

class GradedAlgebra:
    """Finite-dimensional graded Lie algebra over Q.

    layer_of:   layer index (1-based) of each basis vector.
    struct:     {(i, j): {k: Fraction}} with i < j only.
    struct_den: the least common denominator of the table.
    struct_num: the same table as integers over struct_den, a tuple of
                (i, j, ((k, c_{ij}^k * struct_den), ...)); bracket_coords
                reads it.  Every catalog table has struct_den == 1.
    tags:       metadata that catalog constructors and the group-file reader
                set after construction (e.g. the J-data of an H-type table,
                a matrix model, a metric block).

    Every table is validated once, here: an invalid one raises ValueError.
    """

    def __init__(self, name, layer_of, struct, basis_names=None):
        self.name = name
        self.layer_of = tuple(int(l) for l in layer_of)
        self.dim = len(self.layer_of)
        self.step = max(self.layer_of) if self.layer_of else 1
        canon = {}
        for (i, j), terms in struct.items():
            if not i < j:
                raise ValueError("structure table must use i < j orientation, got %r" % ((i, j),))
            kept = {k: Q(c) for k, c in terms.items() if Q(c) != 0}
            if kept:
                canon[(i, j)] = kept
        self.struct = canon
        self.struct_den = math.lcm(*(c.denominator for t in canon.values()
                                     for c in t.values()))
        self.struct_num = tuple(
            (i, j, tuple((k, int(c * self.struct_den)) for k, c in t.items()))
            for (i, j), t in canon.items())
        self.basis_names = tuple(basis_names) if basis_names else tuple(
            "e%d" % (i + 1) for i in range(self.dim))
        self.tags = {}
        self._float_ops = None
        self._stratified = None
        self._bch_law = None  # the BCH table, built by carnot.bch on first use
        report = validate_grading(self)
        if not report.ok:
            raise ValueError("invalid graded algebra %r:\n%s" % (name, report))

    # -- basic geometry of the grading ------------------------------------
    def layer_indices(self, i):
        return [k for k, l in enumerate(self.layer_of) if l == i]

    def layer_dims(self):
        return [len(self.layer_indices(i)) for i in range(1, self.step + 1)]

    def __repr__(self):
        return "GradedAlgebra(%r, dim=%d, step=%d)" % (self.name, self.dim, self.step)

    def __eq__(self, other):
        return (isinstance(other, GradedAlgebra) and self.layer_of == other.layer_of
                and self.struct == other.struct)

    def __hash__(self):
        return hash((self.layer_of, tuple(sorted(
            (i, j, k, c) for (i, j), t in self.struct.items() for k, c in t.items()))))

    # -- exact coordinate operations --------------------------------------
    def zero_coords(self):
        return tuple([Q(0)] * self.dim)

    def basis_coords(self, k):
        """Basis vector k as an int tuple: its brackets on an integer table
        stay int."""
        return tuple(int(t == k) for t in range(self.dim))

    def bracket_coords(self, x, y):
        """[x, y] on coordinate sequences; the coordinates may be int,
        Fraction or Polynomial (a vector of polynomials gives the bracket of
        symbolic vectors).  The sums run over the integer table; each output
        coordinate is divided by struct_den once, so int inputs on an
        integer table give int outputs."""
        out = [0] * self.dim
        for i, j, terms in self.struct_num:
            coef = x[i] * y[j] - x[j] * y[i]
            if coef:
                for k, c in terms:
                    out[k] = coef * c + out[k]
        if self.struct_den != 1:
            scale = Q(1, self.struct_den)
            out = [c * scale for c in out]
        return tuple(out)

    def dilate_coords(self, x, r):
        return tuple(c * r ** self.layer_of[k] for k, c in enumerate(x))

    def project_layer_coords(self, x, i):
        return tuple(c if self.layer_of[k] == i else c * 0 for k, c in enumerate(x))

    def project_tail_coords(self, x, i):
        return tuple(c if self.layer_of[k] >= i else c * 0 for k, c in enumerate(x))

    # -- float backend ------------------------------------------------------
    def float_ops(self):
        if self._float_ops is None:
            self._float_ops = FloatOps(self)
        return self._float_ops


class AlgebraVector:
    """Coordinate vector in the fixed graded basis of an algebra.

    scalar_mode is 'exact' (tuple of Fraction) or 'float' (1-d numpy array).
    Conversion is one way, exact -> float, via to_float().
    """

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra, coords):
        self.algebra = algebra
        if isinstance(coords, np.ndarray):
            self.coords = np.asarray(coords, dtype=float)
        else:
            self.coords = tuple(Q(c) for c in coords)
        if len(self.coords) != algebra.dim:
            raise ValueError("expected %d coordinates, got %d"
                             % (algebra.dim, len(self.coords)))

    @property
    def scalar_mode(self):
        return "float" if isinstance(self.coords, np.ndarray) else "exact"

    def to_float(self):
        if self.scalar_mode == "float":
            return self
        return type(self)(self.algebra, np.array([float(c) for c in self.coords]))

    def __eq__(self, other):
        if not isinstance(other, AlgebraVector) or self.algebra is not other.algebra:
            return NotImplemented
        if self.scalar_mode == "float" or other.scalar_mode == "float":
            return bool(np.array_equal(np.asarray(self.coords, dtype=float),
                                       np.asarray(other.coords, dtype=float)))
        return self.coords == other.coords

    def __hash__(self):
        if self.scalar_mode == "float":
            raise TypeError("float-mode vectors are not hashable")
        return hash((id(self.algebra), self.coords))

    def __add__(self, other):
        self._check(other)
        if self.scalar_mode == "float":
            return type(self)(self.algebra, self.coords + other.coords)
        return type(self)(self.algebra, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check(other)
        if self.scalar_mode == "float":
            return type(self)(self.algebra, self.coords - other.coords)
        return type(self)(self.algebra, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        if self.scalar_mode == "float":
            return type(self)(self.algebra, -self.coords)
        return type(self)(self.algebra, tuple(-a for a in self.coords))

    def __rmul__(self, scalar):
        if self.scalar_mode == "float":
            return type(self)(self.algebra, float(scalar) * self.coords)
        return type(self)(self.algebra, tuple(Q(scalar) * a for a in self.coords))

    def _check(self, other):
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise ValueError("algebra mismatch")
        if self.scalar_mode != other.scalar_mode:
            raise ValueError("scalar mode mismatch (convert with to_float first)")

    def norm(self):
        """Euclidean norm of the coordinates (the declared coordinate norm)."""
        if self.scalar_mode == "float":
            return float(np.linalg.norm(self.coords))
        return math.sqrt(float(sum(c * c for c in self.coords)))

    def __repr__(self):
        if self.scalar_mode == "float":
            return "AlgebraVector(%s)" % np.array2string(self.coords, precision=6)
        return "AlgebraVector(%s)" % (",".join(str(c) for c in self.coords))


class GroupElement(AlgebraVector):
    """Same coordinates read as exponential coordinates of the first kind:
    the element is exp of the stored algebra vector, identity = all zeros."""

    def __repr__(self):
        body = AlgebraVector.__repr__(self)
        return "GroupElement" + body[len("AlgebraVector"):]


def vector(algebra, coords):
    return AlgebraVector(algebra, coords)


def element(algebra, coords):
    return GroupElement(algebra, coords)


def identity_element(algebra):
    return GroupElement(algebra, algebra.zero_coords())


# ---------------------------------------------------------------------------
# operations on vectors
# ---------------------------------------------------------------------------

def bracket(x, y):
    """Exact bilinear extension of the structure constants."""
    x._check(y)
    if x.scalar_mode == "float":
        ops = x.algebra.float_ops()
        return AlgebraVector(x.algebra, ops.bracket(x.coords, y.coords))
    return AlgebraVector(x.algebra, x.algebra.bracket_coords(x.coords, y.coords))


def iterated_bracket(x, y, k):
    """[x, y]_k = [x, [x, ..., [x, y]...]] with k occurrences of x; [x,y]_0 = y."""
    if k < 0:
        raise ValueError("iterated bracket needs k >= 0, got %d" % k)
    out = y
    for _ in range(k):
        out = bracket(x, out)
    return out


def dilate(x, r):
    """Grading dilation: layer-i coordinates scale by r^i.  Needs r > 0."""
    if x.scalar_mode == "float":
        r = float(r)
        if r <= 0:
            raise ValueError("dilation parameter must be positive")
        ops = x.algebra.float_ops()
        return type(x)(x.algebra, ops.dilate(x.coords, r))
    r = Q(r)
    if r <= 0:
        raise ValueError("dilation parameter must be positive")
    return type(x)(x.algebra, x.algebra.dilate_coords(x.coords, r))


def project_layer(x, i):
    if not (1 <= i <= x.algebra.step):
        raise ValueError("layer out of range")
    if x.scalar_mode == "float":
        return type(x)(x.algebra, x.algebra.float_ops().project_layer(x.coords, i))
    return type(x)(x.algebra, x.algebra.project_layer_coords(x.coords, i))


def project_tail(x, i):
    if not (1 <= i <= x.algebra.step):
        raise ValueError("layer out of range")
    if x.scalar_mode == "float":
        return type(x)(x.algebra, x.algebra.float_ops().project_tail(x.coords, i))
    return type(x)(x.algebra, x.algebra.project_tail_coords(x.coords, i))


def homogeneous_dimension(algebra):
    """Sum of i * dim V_i; the Hausdorff dimension under any homogeneous
    distance."""
    return sum(i * d for i, d in enumerate(algebra.layer_dims(), start=1))


def is_stratified(algebra):
    """True iff [V_1, V_i] spans V_{i+1} for every i < step (exact rank)."""
    if algebra._stratified is not None:
        return algebra._stratified
    out = True
    e = algebra.basis_coords
    for i in range(1, algebra.step):
        target = algebra.layer_indices(i + 1)
        rows = [[algebra.bracket_coords(e(a), e(b))[k] for k in target]
                for a in algebra.layer_indices(1) for b in algebra.layer_indices(i)]
        if target and linalg.rank(rows) < len(target):
            out = False
            break
    algebra._stratified = out
    return out


# ---------------------------------------------------------------------------
# empirical constants
# ---------------------------------------------------------------------------

@dataclass
class EmpiricalConstant:
    """An existential constant observed by sampling: the recorded value is a
    sup of ratios, never a claimed sharp constant."""
    label: str
    sup_observed: float
    samples: int
    nu: float = float("nan")

    def __post_init__(self):
        if not self.sup_observed >= 0.0:
            raise ValueError("%s: sup_observed must be >= 0, got %r"
                             % (self.label, self.sup_observed))
        if not self.samples >= 1:
            raise ValueError("%s: samples must be >= 1, got %r"
                             % (self.label, self.samples))

    def csv_row(self):
        return [self.label, "%.17g" % self.nu, str(self.samples), "%.17g" % self.sup_observed]


def check_samples(samples, name="samples"):
    """The count check of every sampled estimate, at entry: `samples` must be
    an integer >= 1, else ValueError naming it as `name`."""
    if isinstance(samples, bool) or not isinstance(samples, numbers.Integral) \
            or samples < 1:
        raise ValueError("%s must be an integer >= 1, got %r" % (name, samples))


def bracket_norm_constant(algebra):
    """Certified upper bound for |[X,Y]| <= beta |X| |Y| in the Euclidean
    coordinate norm: the Frobenius norm of the full structure tensor.  This is
    a triangle-inequality bound over the table, not a sampled value."""
    total = Q(0)
    for (i, j), terms in algebra.struct.items():
        for k, c in terms.items():
            total += 2 * c * c  # both orientations of the tensor
    bound = math.sqrt(float(total))
    if bound > 0:
        bound = math.nextafter(bound, math.inf)  # round up: keep it certified
    return EmpiricalConstant(label="bracket_norm_bound[%s]" % algebra.name,
                             sup_observed=bound, samples=1)


# ---------------------------------------------------------------------------
# float backend
# ---------------------------------------------------------------------------

class FloatOps:
    """Vectorized float operations; all functions accept arrays of shape
    (..., dim) and broadcast over the leading axes.  layer_squares gives the
    squared Euclidean norm of every layer component, shape (..., step), from
    the coordinate columns in index order; the gauges and the metric
    estimates read their layer norms from it."""

    def __init__(self, algebra):
        self.algebra = algebra
        self.dim = algebra.dim
        self.step = algebra.step
        entries = []
        for (i, j), terms in algebra.struct.items():
            for k, c in terms.items():
                entries.append((i, j, k, float(c)))
        self.entries = entries
        self.layer_of = np.array(algebra.layer_of)
        self.layer_masks = [None] + [
            (self.layer_of == i).astype(float) for i in range(1, self.step + 1)]
        self.layer_idx = [np.flatnonzero(self.layer_of == i)
                          for i in range(1, self.step + 1)]
        # tail_masks[step + 1] is all zeros: the tail above the top layer
        self.tail_masks = [None] + [
            (self.layer_of >= i).astype(float) for i in range(1, self.step + 2)]

    def bracket(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.zeros(np.broadcast(x, y).shape)
        for (i, j, k, c) in self.entries:
            out[..., k] += c * (x[..., i] * y[..., j] - x[..., j] * y[..., i])
        return out

    def dexp_series(self, x, v):
        """sum_{n=2}^{step} ((-1)^n / n!) ad(x)^{n-1} v, so that
        d exp(x) v = v - dexp_series(x, v)."""
        power = np.asarray(v, dtype=float)
        acc = np.zeros(np.broadcast(np.asarray(x, dtype=float), power).shape)
        for n in range(2, self.step + 1):
            power = self.bracket(x, power)  # ad(x)^{n-1} v
            acc += ((-1) ** n / math.factorial(n)) * power
        return acc

    def dilate(self, x, r):
        x = np.asarray(x, dtype=float)
        r = np.asarray(r, dtype=float)
        return x * r[..., None] ** self.layer_of if r.ndim else x * r ** self.layer_of

    def project_layer(self, x, i):
        return np.asarray(x, dtype=float) * self.layer_masks[i]

    def project_tail(self, x, i):
        return np.asarray(x, dtype=float) * self.tail_masks[i]

    def layer_squares(self, x):
        """Squared Euclidean norm of each layer component, shape (..., step):
        layer i adds its squared coordinate columns x[..., k]**2 in index
        order (0 for an empty layer).  Each layer's sums fill one contiguous
        row of a (step, ...) array, returned as its (..., step) view; on a
        column-major batch every column read is contiguous too."""
        x = np.asarray(x, dtype=float)
        out = np.empty((self.step,) + x.shape[:-1])
        for i, idx in enumerate(self.layer_idx):
            acc = out[i, ...]
            if not len(idx):
                acc[...] = 0.0
            for n, k in enumerate(idx):
                col = x[..., k]
                if n:
                    acc += col * col
                else:
                    np.multiply(col, col, out=acc)
        return np.moveaxis(out, 0, -1)

