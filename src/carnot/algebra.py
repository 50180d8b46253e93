"""Graded nilpotent Lie algebras from exact rational structure constants.

A ``GradedAlgebra`` stores a basis split into layers V_1 .. V_step and a
sparse table c_{ij}^k (canonical orientation i < j, the j < i entries are
derived by antisymmetry) with [b_i, b_j] = sum_k c_{ij}^k b_k.  All algebraic
primitives here are exact; ``FloatOps`` exposes the same operations on float
numpy arrays for the analytic modules.  Every table that an algebra derives
is built on first use through ``per_algebra`` and kept in its one memo.
"""

import functools
import itertools
import math
import numbers
import types
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import linalg

Q = Fraction

# The largest dimension of an algebra.  The catalog names, the group-file
# reader and the validated constructor check it before they build anything:
# validation alone visits every triple of basis vectors.
MAX_DIM = 200


def check_dim(dim, name):
    """ValueError naming `name` (a group name or a file field) if `dim`
    exceeds MAX_DIM."""
    if dim > MAX_DIM:
        raise ValueError("%s: dimension %d exceeds the budget of %d" % (name, dim, MAX_DIM))


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
    Every check runs on the table scaled to integers over the common
    denominator of its entries: antisymmetry, grading and Jacobi are all
    invariant under that scaling.  Jacobi is checked on the basis triples
    i < j < k, by sparse signed lookups in the canonical table; when nothing
    else was reported, the triples whose layers add up past `step` are
    skipped, since their brackets vanish.  Diagnostic
    only: always returns a report, never raises.
    """
    report = ValidationReport()
    for idx, layer in enumerate(layer_of):
        if not (1 <= layer <= step):
            report.add("layer_range", (idx,), "layer %d outside 1..%d" % (layer, step))
    nums = linalg.int_form([c for *_, c in entries])[0]
    table = {}
    for (i, j, k, _), c in zip(entries, nums):
        if i == j and c != 0:
            report.add("antisymmetry", (i, j, k), "nonzero [b_i, b_i] coefficient")
            continue
        terms = table.setdefault((i, j), {})
        terms[k] = terms.get(k, 0) + c
    # antisymmetry between explicit opposite orientations
    for (i, j), terms in table.items():
        if i < j and (j, i) in table:
            for k in set(terms) | set(table[(j, i)]):
                if terms.get(k, 0) != -table[(j, i)].get(k, 0):
                    report.add("antisymmetry", (i, j, k),
                               "c_%d%d^%d != -c_%d%d^%d" % (i, j, k, j, i, k))
    # canonical table for the remaining checks
    canon = {}
    for (i, j), terms in table.items():
        a, b, sgn = (i, j, 1) if i < j else (j, i, -1)
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

    graded = not report.violations  # then brackets stay in their layer sums
    inner = {}
    for i, j, k in itertools.combinations(range(dim), 3):
        if graded and layer_of[i] + layer_of[j] + layer_of[k] > step:
            continue
        acc = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            if (b, c) not in inner:
                inner[b, c] = ad(b, {c: 1})
            for m, v in ad(a, inner[b, c]).items():
                acc[m] = acc.get(m, 0) + v
        if any(acc.values()):
            report.add("jacobi", (i, j, k), "cyclic bracket sum nonzero")
    return report


def validate_grading(algebra):
    """Validation report for an already-constructed algebra (grading + Jacobi;
    antisymmetry holds by construction of the canonical table), read off
    the integer table struct_num."""
    entries = [(i, j, k, c) for i, j, terms in algebra.struct_num for k, c in terms]
    return validate_table(algebra.dim, algebra.step, algebra.layer_of, entries)


# ---------------------------------------------------------------------------
# sparse polynomials over Q
# ---------------------------------------------------------------------------

class Polynomial:
    """Sparse polynomial over Q in variables 0, 1, 2, ...: ``terms`` maps a
    monomial, the sorted tuple of its variables (``()`` for the constant),
    to a nonzero int or Fraction, kept as given: int coefficients and int
    scalars give int coefficients.  ``+``, ``-`` and ``*`` take a scalar on
    either side, so a vector of polynomials goes through
    ``GradedAlgebra.bracket_coords`` unchanged.  ``p(values)`` evaluates at
    a value list; a zero polynomial has no terms and is falsy."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {m: c if type(c) is int else Q(c)
                      for m, c in (terms or {}).items() if c}

    @staticmethod
    def _terms_of(x):
        return x.terms if isinstance(x, Polynomial) else {(): x} if x else {}

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
        out = 0
        for mono, c in self.terms.items():
            for v in mono:
                c = c * values[v]
            out += c
        return out


# ---------------------------------------------------------------------------
# the algebra
# ---------------------------------------------------------------------------

def per_algebra(build):
    """The one memo of the tables an algebra derives: build(algebra), built
    on first use, kept in the algebra's memo dict keyed by `build` and
    shared by every caller, who must not mutate it.  A builder reads only
    layer_of, struct_num and struct_den, never the tags or basis names."""
    @functools.wraps(build)
    def memoised(algebra):
        try:
            return algebra._memo[build]
        except KeyError:
            return algebra._memo.setdefault(build, build(algebra))
    return memoised


_NO_TAGS = types.MappingProxyType({})  # the tags of every algebra given none
_set = object.__setattr__  # how `_init` sets a field past GradedAlgebra.__setattr__


class GradedAlgebra:
    """Finite-dimensional graded Lie algebra over Q.

    layer_of:   layer index (1-based) of each basis vector.
    struct_den: the least common denominator of the table.
    struct_num: the table as integers over struct_den, a tuple of
                (i, j, ((k, c_{ij}^k * struct_den), ...)), i < j, nonzero
                entries; every operation reads it.  Every catalog table has
                struct_den == 1.
    struct:     the same table as {(i, j): {k: Fraction}}, a view kept in the
                memo (`per_algebra`), for the group file.
    tags:       read-only metadata given at construction by the catalog
                constructors and the group-file reader (e.g. the J-data of
                an H-type table, a matrix model, a metric block).

    The attributes cannot be set or deleted once built (AttributeError).
    Every table given here is read by ``linalg.int_form`` and validated
    once: an invalid one, or one of more than MAX_DIM basis vectors, raises
    ValueError.  ``_induced`` takes the integer
    table of a subalgebra, a quotient or a product, valid by construction.
    """

    def __init__(self, name, layer_of, struct, basis_names=None, tags=None):
        check_dim(len(layer_of), name)
        entries = []
        for (i, j), terms in struct.items():
            if not i < j:
                raise ValueError("structure table must use i < j orientation, got %r" % ((i, j),))
            entries.extend((i, j, k) for k in terms)
        nums, den = linalg.int_form([c for terms in struct.values() for c in terms.values()])
        table = {}
        for (i, j, k), c in zip(entries, nums):
            if c:
                table.setdefault((i, j), []).append((k, c))
        self._init(name, layer_of, tuple((i, j, tuple(t)) for (i, j), t in table.items()),
                   den, basis_names, tags)
        report = validate_grading(self)
        if not report.ok:
            raise ValueError("invalid graded algebra %r:\n%s" % (name, report))

    @classmethod
    def _induced(cls, name, layer_of, struct_num, struct_den, basis_names=None, tags=None):
        """The algebra of a table built from valid ones, given as struct_num
        over its least common denominator, not re-validated."""
        out = cls.__new__(cls)
        out._init(name, layer_of, struct_num, struct_den, basis_names, tags)
        return out

    def __reduce__(self):
        # pickled as its fields and rebuilt from them, valid as it was, with
        # an empty memo: the memo's tables are rebuilt on first use
        return GradedAlgebra._induced, (self.name, self.layer_of, self.struct_num,
                                        self.struct_den, self.basis_names, dict(self.tags))

    def _init(self, name, layer_of, struct_num, struct_den, basis_names, tags):
        layer_of = tuple(int(l) for l in layer_of)
        dim = len(layer_of)
        _set(self, "name", name)
        _set(self, "layer_of", layer_of)
        _set(self, "dim", dim)
        _set(self, "step", max(layer_of) if layer_of else 1)
        _set(self, "struct_num", struct_num)
        _set(self, "struct_den", struct_den)
        _set(self, "basis_names", tuple(basis_names) if basis_names else tuple(
            "e%d" % (i + 1) for i in range(dim)))
        _set(self, "tags", types.MappingProxyType(dict(tags)) if tags else _NO_TAGS)
        _set(self, "_basis", tuple(tuple(int(t == k) for t in range(dim)) for k in range(dim)))
        _set(self, "_memo", {})  # per_algebra: builder -> table

    def __setattr__(self, key, value):
        # read-only, as `catalog.get` shares one algebra per name
        raise AttributeError("GradedAlgebra %r is read-only: cannot set %s to %r"
                             % (self.name, key, value))

    def __delattr__(self, key):
        raise AttributeError("GradedAlgebra %r is read-only: cannot delete %s" % (self.name, key))

    @property
    @per_algebra
    def struct(self):
        den = self.struct_den
        return {(i, j): {k: Q(c, den) for k, c in terms} for i, j, terms in self.struct_num}

    # -- basic geometry of the grading ------------------------------------
    def layer_indices(self, i):
        return [k for k, l in enumerate(self.layer_of) if l == i]

    def layer_dims(self):
        return [len(self.layer_indices(i)) for i in range(1, self.step + 1)]

    def __repr__(self):
        return "GradedAlgebra(%r, dim=%d, step=%d)" % (self.name, self.dim, self.step)

    @per_algebra
    def _key(self):
        """The grading and the integer table: struct_den is the least common
        denominator, so equal tables have equal keys."""
        return self.layer_of, self.struct_den, frozenset(
            (i, j, k, c) for i, j, terms in self.struct_num for k, c in terms)

    def __eq__(self, other):
        return self is other or (isinstance(other, GradedAlgebra)
                                 and self._key() == other._key())

    def __hash__(self):
        return hash(self._key())

    # -- exact coordinate operations --------------------------------------
    def zero_coords(self):
        return tuple([Q(0)] * self.dim)

    def basis_coords(self, k):
        """Basis vector k as an int tuple: its brackets on an integer table
        stay int."""
        return self._basis[k]

    def bracket_num(self, x, y):
        """struct_den times [x, y]: the sums over the integer table struct_num,
        undivided, so int inputs give int outputs on every table.  Tests that
        a nonzero scaling leaves alone (span membership, ranks, the
        homomorphism check) read this form."""
        out = [0] * self.dim
        for i, j, terms in self.struct_num:
            coef = x[i] * y[j] - x[j] * y[i]
            if coef:
                for k, c in terms:
                    out[k] = coef * c + out[k]
        return tuple(out)

    def bracket_coords(self, x, y):
        """[x, y] on coordinate sequences; the coordinates may be int,
        Fraction or Polynomial (a vector of polynomials gives the bracket of
        symbolic vectors).  This is bracket_num with each output coordinate
        divided by struct_den once, so int inputs on an integer table give
        int outputs."""
        out = self.bracket_num(x, y)
        if self.struct_den == 1:
            return out
        scale = Q(1, self.struct_den)
        return tuple(c * scale for c in out)

    def project_layer_coords(self, x, i):
        return tuple(c if self.layer_of[k] == i else c * 0 for k, c in enumerate(x))

    # -- float backend ------------------------------------------------------
    @per_algebra
    def float_ops(self):
        return FloatOps(self)


class AlgebraVector:
    """Coordinate vector in the fixed graded basis of an algebra.

    scalar_mode is 'exact' or 'float'.  An exact vector holds one form,
    ``int_form``: a tuple of int numerators over one positive int
    denominator, kept primitive (gcd(den, *nums) == 1), so that equal
    vectors have equal forms; its input is read by ``linalg.int_form`` at
    construction.  Its ``coords``, a tuple of Fraction, is built from that
    form on first read and kept.  Float inputs to an exact vector are read
    exactly: 0.1 becomes 3602879701896397/36028797018963968.  A float
    vector's coords is a 1-d numpy array.  Conversion is one way, exact ->
    float, via to_float().
    """

    __slots__ = ("algebra", "_coords", "_form")

    def __init__(self, algebra, coords):
        self.algebra = algebra
        if isinstance(coords, np.ndarray):
            self._coords, self._form = np.asarray(coords, dtype=float), None
            n = len(self._coords)
        else:
            nums, den = linalg.int_form(coords)
            self._coords, self._form = None, (tuple(nums), den)
            n = len(nums)
        if n != algebra.dim:
            raise ValueError("expected %d coordinates, got %d" % (algebra.dim, n))

    @classmethod
    def from_int_form(cls, algebra, nums, den):
        """The exact vector nums / den (den > 0), reduced to its primitive
        form by one gcd."""
        g = math.gcd(den, *nums)
        out = cls.__new__(cls)
        out.algebra = algebra
        out._coords = None
        out._form = (tuple(nums), den) if g == 1 else (tuple(n // g for n in nums), den // g)
        return out

    @property
    def coords(self):
        if self._coords is None:
            nums, den = self._form
            self._coords = tuple(Q(n, den) for n in nums)
        return self._coords

    @property
    def int_form(self):
        """(nums, den) of an exact vector: the coordinates are nums[k] / den,
        with den > 0 and gcd(den, *nums) == 1."""
        return self._form

    @property
    def scalar_mode(self):
        return "float" if self._form is None else "exact"

    def to_float(self):
        if self.scalar_mode == "float":
            return self
        nums, den = self.int_form
        # int true division rounds as float(Fraction(n, den)) does
        return type(self)(self.algebra, np.array([n / den for n in nums]))

    def __eq__(self, other):
        if not isinstance(other, AlgebraVector) or self.algebra != other.algebra:
            return NotImplemented  # GradedAlgebra.__eq__ tries `is` first
        if self.scalar_mode == "float" or other.scalar_mode == "float":
            return bool(np.array_equal(np.asarray(self.coords, dtype=float),
                                       np.asarray(other.coords, dtype=float)))
        return self.int_form == other.int_form

    def __hash__(self):
        if self.scalar_mode == "float":
            raise TypeError("float-mode vectors are not hashable")
        return hash((self.algebra, self.int_form))

    def _combine(self, other, sign):
        """self + sign * other on exact vectors, over the lcm of the two
        denominators."""
        (a, da), (b, db) = self.int_form, other.int_form
        den = math.lcm(da, db)
        sa, sb = den // da, sign * (den // db)
        return type(self).from_int_form(self.algebra,
                                        [x * sa + y * sb for x, y in zip(a, b)], den)

    def __add__(self, other):
        self._check(other)
        if self.scalar_mode == "float":
            return type(self)(self.algebra, self.coords + other.coords)
        return self._combine(other, 1)

    def __sub__(self, other):
        self._check(other)
        if self.scalar_mode == "float":
            return type(self)(self.algebra, self.coords - other.coords)
        return self._combine(other, -1)

    def __neg__(self):
        if self.scalar_mode == "float":
            return type(self)(self.algebra, -self.coords)
        nums, den = self.int_form
        return type(self).from_int_form(self.algebra, [-n for n in nums], den)

    def __rmul__(self, scalar):
        if self.scalar_mode == "float":
            return type(self)(self.algebra, float(scalar) * self.coords)
        s = Q(scalar)
        nums, den = self.int_form
        return type(self).from_int_form(self.algebra, [s.numerator * n for n in nums],
                                        s.denominator * den)

    def _check(self, other):
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise ValueError("algebra mismatch")
        if self.scalar_mode != other.scalar_mode:
            raise ValueError("scalar mode mismatch (convert with to_float first)")

    def norm(self):
        """Euclidean norm of the coordinates (the declared coordinate norm)."""
        if self.scalar_mode == "float":
            return float(np.linalg.norm(self.coords))
        nums, den = self.int_form
        return math.sqrt(sum(n * n for n in nums) / (den * den))

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
    return GroupElement.from_int_form(algebra, (0,) * algebra.dim, 1)


# ---------------------------------------------------------------------------
# operations on vectors
# ---------------------------------------------------------------------------

def bracket(x, y):
    """Exact bilinear extension of the structure constants: bracket_num on
    the two integer forms, over den_x den_y struct_den."""
    x._check(y)
    alg = x.algebra
    if x.scalar_mode == "float":
        return AlgebraVector(alg, alg.float_ops().bracket(x.coords, y.coords))
    (a, da), (b, db) = x.int_form, y.int_form
    return AlgebraVector.from_int_form(alg, alg.bracket_num(a, b), da * db * alg.struct_den)


def iterated_bracket(x, y, k):
    """[x, y]_k = [x, [x, ..., [x, y]...]] with k occurrences of x; [x,y]_0 = y."""
    if k < 0:
        raise ValueError("iterated bracket needs k >= 0, got %d" % k)
    out = y
    for _ in range(k):
        out = bracket(x, out)
    return out


def dilate(x, r):
    """Grading dilation: layer-i coordinates scale by r^i.  Needs r > 0.
    On an exact vector with r = p/q, layer i scales by p^i q^(step - i) over
    q^step."""
    alg = x.algebra
    if x.scalar_mode == "float":
        r = float(r)
        if r <= 0:
            raise ValueError("dilation parameter must be positive")
        return type(x)(alg, alg.float_ops().dilate(x.coords, r))
    r = Q(r)
    if r <= 0:
        raise ValueError("dilation parameter must be positive")
    p, q = r.numerator, r.denominator
    nums, den = x.int_form
    return type(x).from_int_form(
        alg, [n * p ** l * q ** (alg.step - l) for n, l in zip(nums, alg.layer_of)],
        den * q ** alg.step)


def _keep_layers(x, layers):
    """The exact vector x with its coordinates outside `layers` set to 0."""
    nums, den = x.int_form
    return type(x).from_int_form(
        x.algebra, [n if l in layers else 0 for n, l in zip(nums, x.algebra.layer_of)], den)


def project_layer(x, i):
    if not (1 <= i <= x.algebra.step):
        raise ValueError("layer out of range")
    if x.scalar_mode == "float":
        return type(x)(x.algebra, x.algebra.float_ops().project_layer(x.coords, i))
    return _keep_layers(x, (i,))


def project_tail(x, i):
    if not (1 <= i <= x.algebra.step):
        raise ValueError("layer out of range")
    if x.scalar_mode == "float":
        return type(x)(x.algebra, x.algebra.float_ops().project_tail(x.coords, i))
    return _keep_layers(x, range(i, x.algebra.step + 1))


def homogeneous_dimension(algebra):
    """Sum of i * dim V_i; the Hausdorff dimension under any homogeneous
    distance."""
    return sum(i * d for i, d in enumerate(algebra.layer_dims(), start=1))


@per_algebra
def is_stratified(algebra):
    """True iff [V_1, V_i] spans V_{i+1} for every i < step (exact rank)."""
    e, layer = algebra.basis_coords, algebra.layer_indices
    return all(linalg.rank([[algebra.bracket_num(e(a), e(b))[k] for k in layer(i + 1)]
                            for a in layer(1) for b in layer(i)]) == len(layer(i + 1))
               for i in range(1, algebra.step))


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


def check_samples(samples, name="samples", least=1):
    """The count check of every sampled estimate, before any draw (streamed
    runs it), and of the solvers' grid counts: `samples` must be an integer
    >= `least`, else ValueError naming it as `name`."""
    if isinstance(samples, bool) or not isinstance(samples, numbers.Integral) \
            or samples < least:
        raise ValueError("%s must be an integer >= %d, got %r" % (name, least, samples))


def check_radius(radius, name="radius", above=0.0):
    """The radius check of every sampled estimate, at entry, beside
    check_samples: `radius` must be a finite real number > `above`, else
    ValueError naming it as `name`.  Returns it as a float, which the
    samplers read: a Fraction radius would make them compute in arrays of
    Python objects."""
    if isinstance(radius, bool) or not isinstance(radius, numbers.Real) \
            or not math.isfinite(radius) or radius <= above:
        raise ValueError("%s must be a finite number > %s, got %r" % (name, above, radius))
    return float(radius)


# Every sampled constant of bch, metric and pdiff walks its count in blocks
# of BLOCK_POINTS points, so memory is bounded by the block, not the count.
BLOCK_POINTS = 1 << 14


def unit_vectors(rng, count, d):
    """`count` directions uniform on the unit sphere of R^d, shape (count, d),
    column-major; one column-sum reduction gives the norms."""
    g = rng.standard_normal((d, count))
    g /= np.sqrt(np.square(g).sum(axis=0))
    return g.T


def masked_sup(num, den, mask):
    """max of num / den where mask holds (0 where it holds nowhere), divided
    in place in num: pass a copy of num if it is read again."""
    return float(np.max(np.divide(num, den, out=num, where=mask), where=mask,
                        initial=0.0))


def streamed(samples, block, labels, nu):
    """One EmpiricalConstant per label, from `samples` points (check_samples)
    walked in blocks of at most BLOCK_POINTS: block(n) draws n points as the
    driver would for a count of n and returns their sups, one per label (a
    max with initial 0; a min is the sup of reciprocals), and the count its
    mask kept.  Sups fold by a max, counts by a sum.  Raises ValueError,
    labelled with the first label, when no block keeps a point."""
    check_samples(samples)
    sups, kept = np.zeros(len(labels)), 0
    for start in range(0, samples, BLOCK_POINTS):
        sup, k = block(min(BLOCK_POINTS, samples - start))
        np.maximum(sups, sup, out=sups)
        kept += k
    if not kept:
        raise ValueError("%s: no sample of %d was kept; every ratio's denominator "
                         "is below its cutoff, so nu or the radius is too small"
                         % (labels[0], samples))
    return [EmpiricalConstant(label, float(sup), kept, nu=nu)
            for label, sup in zip(labels, sups)]


def draw_until(count, row_shape, draw):
    """The walker of the samplers with a hypothesis: the first `count` rows
    of shape `row_shape` that draw(n) accepts of n fresh candidates, in draw
    order.  Each call asks for the missing rows over the acceptance rate so
    far (Laplace-smoothed, 20% margin, at most 16 * count and BLOCK_POINTS)."""
    kept = [np.zeros((0,) + tuple(row_shape))]
    have = drawn = 0
    while have < count:
        n = count if not drawn else \
            min(math.ceil(1.2 * (count - have) * (drawn + 1) / (have + 1)), 16 * count)
        n = min(n, BLOCK_POINTS)
        kept.append(draw(n))
        have, drawn = have + len(kept[-1]), drawn + n
    return np.concatenate(kept)[:count]


def bracket_norm_constant(algebra):
    """Certified upper bound for |[X,Y]| <= beta |X| |Y| in the Euclidean
    coordinate norm: the Frobenius norm of the full structure tensor.  This is
    a triangle-inequality bound over the table, not a sampled value."""
    # both orientations of the tensor; int division rounds as float(Fraction)
    total = sum(2 * c * c for _, _, terms in algebra.struct_num for _, c in terms)
    bound = math.sqrt(total / algebra.struct_den ** 2)
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
        self.dim = algebra.dim
        self.step = algebra.step
        den = algebra.struct_den
        self.entries = [(i, j, k, c / den) for i, j, terms in algebra.struct_num
                        for k, c in terms]
        self.layer_of = np.array(algebra.layer_of)
        self.layer_masks = (None,) + tuple(
            (self.layer_of == i).astype(float) for i in range(1, self.step + 1))
        self.layer_idx = tuple(np.flatnonzero(self.layer_of == i)
                               for i in range(1, self.step + 1))
        # tail_masks[step + 1] is all zeros: the tail above the top layer
        self.tail_masks = (None,) + tuple(
            (self.layer_of >= i).astype(float) for i in range(1, self.step + 2))
        # shared by every user of the algebra, so read-only like the algebra
        for a in (self.layer_of,) + self.layer_masks[1:] + self.layer_idx + self.tail_masks[1:]:
            a.flags.writeable = False

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

