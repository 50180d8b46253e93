"""Constructors for the groups used throughout: Heisenberg groups, the
complexified Heisenberg group, H-type algebras from J-data, free nilpotent
algebras on a Hall basis, direct products, and the 7-dimensional
counterexample group whose ideals separate the two surjection classes.
"""

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import linalg
from .algebra import GradedAlgebra, check_dim
from .bch import FreeSeries
from .morphism import GradedMorphism

Q = Fraction


# ---------------------------------------------------------------------------
# Heisenberg groups
# ---------------------------------------------------------------------------

def heisenberg(n):
    """h^n: basis (x1, y1, ..., xn, yn, z), step 2, [x_i, y_i] = z."""
    if n < 1:
        raise ValueError("heisenberg group h^n needs n >= 1, got %d" % n)
    check_dim(2 * n + 1, "h%d" % n)
    layers = [1] * (2 * n) + [2]
    names = []
    for i in range(1, n + 1):
        names += ["x%d" % i, "y%d" % i]
    names.append("z")
    struct = {(2 * i, 2 * i + 1): {2 * n: Q(1)} for i in range(n)}
    return GradedAlgebra("h%d" % n, layers, struct, basis_names=names,
                         tags={"matrix_model": UnipotentHeisenbergModel(n)})


class UnipotentHeisenbergModel:
    """Faithful (n+2)x(n+2) strictly-upper-triangular model of h^n, used as an
    exp/log cross-check for the group law.  Exact over Q: the matrices are
    nilpotent of index 3, so exp and log are finite sums.  They run on
    integer matrices over one denominator: for a = A / d with A integer,
    exp(a) = (2 d^2 I + 2 d A + A^2) / (2 d^2)."""

    def __init__(self, n):
        self.n = n
        self.size = n + 2

    def algebra_matrix(self, coords):
        n = self.n
        m = [[0] * self.size for _ in range(self.size)]
        for i in range(n):
            m[0][1 + i] = coords[2 * i]
            m[1 + i][n + 1] = coords[2 * i + 1]
        m[0][n + 1] = coords[2 * n]
        return m

    def _exp(self, form):
        """(E, s): for the integer form (A, d) of a point, exp of the algebra
        matrix of A / d is E / s, E an integer matrix."""
        nums, d = form
        a = self.algebra_matrix(nums)
        a2 = linalg.matmul(a, a)
        s = 2 * d * d
        return [[s * (r == c) + 2 * d * a[r][c] + a2[r][c] for c in range(self.size)]
                for r in range(self.size)], s

    def _log_form(self, m, s):
        """(nums, 2 s^2): log(m / s) for a unipotent m / s, not reduced.  With
        N = m - s I, log = (2 s N - N^2) / (2 s^2)."""
        nmat = [[x - s * (r == c) for c, x in enumerate(row)] for r, row in enumerate(m)]
        n2 = linalg.matmul(nmat, nmat)
        return [2 * s * x - y for x, y in zip(self.coords_from_algebra_matrix(nmat),
                                              self.coords_from_algebra_matrix(n2))], 2 * s * s

    def coords_from_algebra_matrix(self, a):
        n = self.n
        out = []
        for i in range(n):
            out.append(a[0][1 + i])
            out.append(a[1 + i][n + 1])
        out.append(a[0][n + 1])
        return tuple(out)

    def to_matrix(self, coords):
        e, s = self._exp(linalg.int_form(coords))
        return [[Q(x, s) for x in row] for row in e]

    def product_form(self, xf, yf):
        """The product of the integer forms xf = (nums, den) and yf, as an
        integer form (nums, den), not reduced."""
        (ex, sx), (ey, sy) = self._exp(xf), self._exp(yf)
        return self._log_form(linalg.matmul(ex, ey), sx * sy)

    def product_coords(self, xc, yc):
        nums, den = self.product_form(linalg.int_form(xc), linalg.int_form(yc))
        return tuple(Q(x, den) for x in nums)

    def inverse_coords(self, xc):
        nums, den = self._log_form(linalg.inverse(self.to_matrix(xc)), 1)
        return tuple(Q(x, den) for x in nums)


def matrix_model(algebra):
    """The registered unipotent model (Heisenberg groups only)."""
    model = algebra.tags.get("matrix_model")
    if model is None:
        raise ValueError("no matrix model registered for %r" % algebra.name)
    return model


# ---------------------------------------------------------------------------
# H-type algebras
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HTypeData:
    """J-data on orthonormal declared bases: one matrix per center direction.
    Encodes <J_Z X, Y> = <Z, [X, Y]>.  An algebra's tags hold it with nested
    tuples, read-only like the algebra."""
    dim_v: int
    dim_z: int
    j_matrices: tuple

    def j_of(self, zcoords):
        """J_Z for Z given in center coordinates (linear in Z)."""
        out = linalg.zeros(self.dim_v, self.dim_v)
        for c, jm in zip(zcoords, self.j_matrices):
            if c:
                for r in range(self.dim_v):
                    for s in range(self.dim_v):
                        out[r][s] += Q(c) * jm[r][s]
        return out


def h_type_from_J(data, name="htype", basis_names=None):
    """Build the 2-step algebra induced by J-data, rejecting non-H-type input.

    The defining identity gives the brackets [e_i, e_j] = sum_k (J_k)_{ji} Z_k;
    H-type requires each J_k skew with J_k J_l + J_l J_k = -2 delta_kl Id,
    which is exactly |J_Z X| = |Z||X| polarized.
    """
    m, q = data.dim_v, data.dim_z
    js = tuple(tuple(tuple(Q(c) for c in row) for row in jm) for jm in data.j_matrices)
    if len(js) != q or any(len(jm) != m or any(len(row) != m for row in jm) for jm in js):
        raise ValueError("J-data must hold dim_z = %d matrices of shape %d x %d" % (q, m, m))
    for k, jm in enumerate(js):
        for r in range(m):
            for s in range(m):
                if jm[r][s] != -jm[s][r]:
                    raise ValueError("J_%d is not skew at (%d,%d): bracket "
                                     "antisymmetry fails" % (k + 1, r, s))
    ident = linalg.identity(m)
    for k in range(q):
        for l in range(k, q):
            anti = linalg.matmul(js[k], js[l])
            anti2 = linalg.matmul(js[l], js[k])
            target = Q(-2) if k == l else Q(0)
            for r in range(m):
                for s in range(m):
                    got = anti[r][s] + anti2[r][s]
                    want = target * ident[r][s]
                    if got != want:
                        raise ValueError(
                            "|J_Z X| = |Z||X| fails: (J_%d J_%d + J_%d J_%d)[%d][%d]"
                            " = %s, expected %s" % (k + 1, l + 1, l + 1, k + 1,
                                                    r, s, got, want))
    layers = [1] * m + [2] * q
    struct = {}
    for i in range(m):
        for j in range(i + 1, m):
            terms = {}
            for k in range(q):
                c = js[k][j][i]
                if c != 0:
                    terms[m + k] = c
            if terms:
                struct[(i, j)] = terms
    return GradedAlgebra(name, layers, struct, basis_names,
                         tags={"htype": HTypeData(dim_v=m, dim_z=q, j_matrices=js)})


def complexified_heisenberg():
    """The 6-dimensional H-type group with 2-dimensional center: basis
    (r0, r1, r2, r3, z1, z2) with [r0,r1] = [r2,r3] = z1 and
    [r0,r2] = -[r1,r3] = z2."""
    j1 = [[Q(0)] * 4 for _ in range(4)]
    j2 = [[Q(0)] * 4 for _ in range(4)]
    # J_{z1}: r0 -> r1, r1 -> -r0, r2 -> r3, r3 -> -r2
    j1[1][0], j1[0][1], j1[3][2], j1[2][3] = Q(1), Q(-1), Q(1), Q(-1)
    # J_{z2}: r0 -> r2, r2 -> -r0, r1 -> -r3, r3 -> r1
    j2[2][0], j2[0][2], j2[3][1], j2[1][3] = Q(1), Q(-1), Q(-1), Q(1)
    return h_type_from_J(HTypeData(dim_v=4, dim_z=2, j_matrices=[j1, j2]), name="h12",
                         basis_names=("r0", "r1", "r2", "r3", "z1", "z2"))


# ---------------------------------------------------------------------------
# free nilpotent algebras on a Hall basis
# ---------------------------------------------------------------------------

def _foliage(tree):
    if isinstance(tree, int):
        return (tree,)
    out = ()
    for t in tree:
        out += _foliage(t)
    return out


def _tree_degree(tree):
    return len(_foliage(tree))


def _tree_less(a, b):
    """Order by degree, then lexicographically on the foliage word, then on
    the recursive structure for ties; deterministic structure constants."""
    ka = (_tree_degree(a), _foliage(a), repr(a))
    kb = (_tree_degree(b), _foliage(b), repr(b))
    return ka < kb


def hall_trees(p, step):
    """Hall set on p letters up to the given degree, classical convention for
    a degree-compatible order: [u, v] is kept iff u > v and
    (u is a letter or u = [x, y] with y <= v)."""
    levels = [[(i,) for i in range(p)]]
    for deg in range(2, step + 1):
        new = []
        for left_deg in range(1, deg):
            for u in levels[left_deg - 1]:
                for v in levels[deg - left_deg - 1]:
                    if _tree_less(v, u) and (left_deg == 1 or not _tree_less(v, u[1])):
                        new.append((u, v))
        new.sort(key=lambda t: (_foliage(t), repr(t)))
        levels.append(new)
    return levels


def witt_dimension(p, degree):
    """Number of Hall elements of the given degree (Witt's formula)."""
    total = 0
    for e in range(1, degree + 1):
        if degree % e == 0:
            total += _mobius(e) * p ** (degree // e)
    return total // degree


def _mobius(n):
    if n == 1:
        return 1
    m, out = n, 1
    f = 2
    while f * f <= m:
        if m % f == 0:
            m //= f
            if m % f == 0:
                return 0
            out = -out
        f += 1
    if m > 1:
        out = -out
    return out


def _tree_to_series(tree, degree):
    if isinstance(tree[0], int) and len(tree) == 1:
        return FreeSeries.letter(tree[0], degree)
    return _tree_to_series(tree[0], degree).commutator(_tree_to_series(tree[1], degree))


def _tree_name(tree):
    if isinstance(tree[0], int) and len(tree) == 1:
        return "x%d" % (tree[0] + 1)
    return "[%s,%s]" % (_tree_name(tree[0]), _tree_name(tree[1]))


@functools.lru_cache(maxsize=None)
def _free_nilpotent_data(p, step):
    levels = hall_trees(p, step)
    for deg, level in enumerate(levels, start=1):
        expected = witt_dimension(p, deg)
        if len(level) != expected:
            raise AssertionError("Hall level %d has %d elements, Witt says %d"
                                 % (deg, len(level), expected))
    trees = [t for level in levels for t in level]
    dim = len(trees)
    layers = [_tree_degree(t) for t in trees]
    series = [_tree_to_series(t, step) for t in trees]
    # per degree, the word-space expansion matrix of the Hall elements, as
    # integers over one denominator, and one factorization of it: a square
    # block of its rows of full rank and that block's inverse
    by_degree = {}
    for d in range(1, step + 1):
        idxs = [i for i, l in enumerate(layers) if l == d]
        words = sorted({w for i in idxs for w in series[i].terms})
        windex = {w: r for r, w in enumerate(words)}
        cells = {(windex[w], c): coeff for c, i in enumerate(idxs)
                 for w, coeff in series[i].terms.items()}
        nums, scale = linalg.int_form(list(cells.values()))
        mat = linalg.zeros(len(words), len(idxs))
        for (r, c), a in zip(cells, nums):
            mat[r][c] = a
        rows = linalg.Span(linalg.transpose(mat)).pivots
        if len(rows) < len(idxs):
            raise AssertionError("Hall elements of degree %d are not independent" % d)
        by_degree[d] = (idxs, windex, mat, scale, rows, linalg.inverse_form([mat[r] for r in rows]))

    def expand(series_elt, deg):
        """The coordinates {k: c} of a Hall bracket of degree deg, exactly:
        the solution of mat x = scale * rhs read off the block's rows, and
        checked on every row."""
        idxs, windex, mat, scale, rows, (inv, den) = by_degree[deg]
        rhs = [0] * len(windex)
        for w, coeff in series_elt.terms.items():
            r = windex.get(w)
            if r is None:
                raise AssertionError("Hall expansion failed: basis not closed")
            rhs[r] = coeff
        rhs, rden = linalg.int_form(rhs)
        x = linalg.matvec(inv, [rhs[r] for r in rows])
        if linalg.matvec(mat, x) != [den * c for c in rhs]:
            raise AssertionError("Hall expansion failed: basis not closed")
        return {k: Q(scale * c, den * rden) for k, c in zip(idxs, x) if c}

    struct = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            d = layers[i] + layers[j]
            if d > step:
                continue
            br = series[i].commutator(series[j])
            if br.terms:
                terms = expand(br, d)
                if terms:
                    struct[(i, j)] = terms
    return trees, tuple(layers), struct


def free_nilpotent(p, step):
    """Free nilpotent stratified algebra on p generators, Hall basis ordered
    by degree then lexicographically on the bracket word."""
    if p < 1 or step < 1:
        raise ValueError("free nilpotent algebra needs p >= 1 generators and step >= 1,"
                         " got p = %d, step = %d" % (p, step))
    if p == 1:
        return GradedAlgebra("free_1_%d" % step, [1], {}, basis_names=["x1"],
                             tags={"free_generators": (0,)})
    # Witt's formula gives the dimension before any Hall tree is built; on
    # p >= 2 letters every degree adds to it, so the sum passes the budget
    # within a few degrees
    dim = 0
    for degree in range(1, step + 1):
        dim += witt_dimension(p, degree)
        check_dim(dim, "free_%d_%d up to degree %d" % (p, step, degree))
    trees, layers, struct = _free_nilpotent_data(p, step)
    return GradedAlgebra("free_%d_%d" % (p, step), layers, struct,
                         basis_names=[_tree_name(t) for t in trees],
                         tags={"hall_trees": tuple(trees), "free_generators": tuple(range(p))})


def free_lie_extension(free_alg, target, generator_images):
    """The homomorphism extending a map of generators into any algebra of the
    same (or lower) step: each Hall element goes to the corresponding nested
    bracket of the images.  Realizes the universal property."""
    trees = free_alg.tags["hall_trees"]
    images = {i: tuple(v) for i, v in enumerate(generator_images)}

    def ev(tree):
        if isinstance(tree[0], int) and len(tree) == 1:
            return images[tree[0]]
        return target.bracket_coords(ev(tree[0]), ev(tree[1]))

    cols = [ev(t) for t in trees]
    matrix = [[cols[j][k] for j in range(len(trees))] for k in range(target.dim)]
    return GradedMorphism(free_alg, target, matrix)


# ---------------------------------------------------------------------------
# products and the counterexample group
# ---------------------------------------------------------------------------

def direct_product(a, b):
    """Blockwise direct product; the basis is a's basis followed by b's.  Its
    integer table is the two over the lcm of their denominators, valid."""
    den = lcm(a.struct_den, b.struct_den)
    struct_num = tuple((i + o, j + o, tuple((k + o, c * (den // g.struct_den)) for k, c in t))
                       for g, o in ((a, 0), (b, a.dim)) for i, j, t in g.struct_num)
    names = ["%s.%s" % (a.name, nm) for nm in a.basis_names] + \
            ["%s.%s" % (b.name, nm) for nm in b.basis_names]
    return GradedAlgebra._induced("%sx%s" % (a.name, b.name), a.layer_of + b.layer_of,
                                  struct_num, den, names)


def example_g42():
    """Dim-7 step-2 stratified group: V1 = span{x1..x4},
    V2 = span{z23, z24, z34}, [x2,x3]=z23, [x2,x4]=z24, [x3,x4]=z34.
    The two coordinate surjections onto R^2 behave differently: the kernel of
    (x1,x2) splits, the kernel of (x3,x4) does not."""
    layers = [1, 1, 1, 1, 2, 2, 2]
    names = ["x1", "x2", "x3", "x4", "z23", "z24", "z34"]
    struct = {(1, 2): {4: Q(1)}, (1, 3): {5: Q(1)}, (2, 3): {6: Q(1)}}
    return GradedAlgebra("g42", layers, struct, basis_names=names)


def abelian(k):
    """R^k as a one-layer graded algebra."""
    check_dim(k, "r%d" % k)
    return GradedAlgebra("r%d" % k, [1] * k, {},
                         basis_names=["t%d" % (i + 1) for i in range(k)])


CATALOG = {
    "h1": lambda: heisenberg(1),
    "h2": lambda: heisenberg(2),
    "h3": lambda: heisenberg(3),
    "h4": lambda: heisenberg(4),
    "h12": complexified_heisenberg,
    "h2_1": complexified_heisenberg,
    "g42": example_g42,
    "r1": lambda: abelian(1),
    "r2": lambda: abelian(2),
    "r3": lambda: abelian(3),
    "free_2_2": lambda: free_nilpotent(2, 2),
    "free_2_3": lambda: free_nilpotent(2, 3),
    "free_2_4": lambda: free_nilpotent(2, 4),
    "free_3_2": lambda: free_nilpotent(3, 2),
    "free_3_3": lambda: free_nilpotent(3, 3),
}


def catalog_names():
    return sorted(CATALOG)


@functools.lru_cache(maxsize=None)
def get(name):
    """Catalog lookup; accepts free_p_s for any in-budget pair.  Each name
    is built once per process: every caller shares the one algebra, whose
    tags are read-only, and so the tables it derives (`per_algebra`)."""
    if name in CATALOG:
        return CATALOG[name]()
    if name.startswith("free_"):
        parts = name.split("_")
        if len(parts) == 3 and parts[1].isdigit() and parts[2].isdigit():
            return free_nilpotent(int(parts[1]), int(parts[2]))
    if name.startswith("r") and name[1:].isdigit():
        return abelian(int(name[1:]))
    if name.startswith("h") and name[1:].isdigit() and name != "h12":
        return heisenberg(int(name[1:]))
    raise KeyError("unknown catalog group %r" % name)
