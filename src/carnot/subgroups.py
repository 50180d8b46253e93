"""Homogeneous subalgebras and subgroups: layered decomposition, ideals,
complementary pairs, quotient gradings, h-epimorphism / h-monomorphism
classification, and the constructive complement algorithms for Heisenberg
type groups.

Everything here is exact, and it computes on integer rows: a subalgebra is
the primitive integer rows of its ``linalg.Span``, and the closure, ideal
and classification checks bracket them on the algebra's integer table
(``bracket_num``): span membership and ranks do not see a nonzero scaling.
On a stratified table the ideal test brackets with V1 alone, which
generates the algebra.  Induced structure tables and quotient projections
are built as integers over one denominator, the form that ``GradedAlgebra``
and ``GradedMorphism`` keep, and morphisms are read in theirs.  Fractions
are built only where values leave: the canonical bases, the witnesses and
the JSON.  Each classifier is a tuple of exact, deterministic tiers
(`IDEAL_TIERS`, `NON_IDEAL_TIERS`, `INCLUSION_TIERS`) run by one loop,
`_run_tiers`: the first tier that decides gives the verdict and its
``tier`` name; when none does, the verdict is `undecided`, and its marker
names the tiers whose precondition held.  Every tier reads the structure
table alone, never the tags, so a group read back from its file gets the
verdicts of the catalog group it was written from, and the tables that
depend on it alone are kept in the algebra's memo (``per_algebra``).  No
tier uses sympy or randomness, and the self-checks raise explicitly, so
``python -O`` keeps them.
"""

import itertools
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from . import linalg
from .algebra import GradedAlgebra, Polynomial, is_stratified, per_algebra
from .bch import group_product_coords
from .morphism import GradedMorphism, check_h_homomorphism

Q = Fraction


class NotHomogeneous(ValueError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotSubalgebra(ValueError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


# ---------------------------------------------------------------------------
# homogeneous subalgebras
# ---------------------------------------------------------------------------

class HomogeneousSubalgebra:
    """A dilation-invariant subalgebra, computed once as `span`: a
    ``linalg.Span`` of primitive integer rows, the echelon form of the given
    vectors, which the membership, bracket-closure and ideal checks read.
    Each given vector lies in its layer, so each row of `span` lies in the
    layer of its pivot.  `rows` holds those rows by that layer, in pivot
    order, each with a positive pivot entry, and `pivots` their pivot
    columns.  basis() divides each row by its pivot entry: the layers'
    reduced echelon bases, so the rows are canonical, and equality and the
    hash read them; a vector of the space has its coordinates in basis() at
    the columns `pivots`.  `layered_bases`, basis() by layer, is built on
    first use."""

    def __init__(self, algebra, layered_bases):
        self.algebra = algebra
        self.span = linalg.Span([v for vecs in layered_bases.values() for v in vecs])
        for layer, vecs in layered_bases.items():
            for v in vecs:
                for k, c in enumerate(v):
                    if c and algebra.layer_of[k] != layer:
                        raise NotHomogeneous(
                            "vector assigned to layer %d has support in layer %d"
                            % (layer, algebra.layer_of[k]), witness=tuple(v))
        order = sorted(range(len(self.span.pivots)),
                       key=lambda r: algebra.layer_of[self.span.pivots[r]])
        rows, self.pivots = self.span.rows, [self.span.pivots[r] for r in order]
        self.rows = [rows[r] if rows[r][p] > 0 else [-x for x in rows[r]]
                     for r, p in zip(order, self.pivots)]
        self._layered = None
        # closure on the integer rows, in layer order: the witness is the
        # first escaping bracket of two basis() vectors
        for (a, u), (b, v) in itertools.combinations(enumerate(self.rows), 2):
            if not self.span.contains(algebra.bracket_num(u, v)):
                basis = self.basis()
                raise NotSubalgebra("bracket leaves the span",
                                    witness=algebra.bracket_coords(basis[a], basis[b]))

    @property
    def layered_bases(self):
        if self._layered is None:
            self._layered = {}
            for row, p in zip(self.rows, self.pivots):
                self._layered.setdefault(self.algebra.layer_of[p], []).append(
                    tuple(Q(x, row[p]) if x else linalg.ZERO for x in row))
        return self._layered

    @property
    def total_dim(self):
        return len(self.rows)

    def layer_rows(self, i):
        """The integer rows of layer i, in the order of layer_basis(i)."""
        return [r for r, p in zip(self.rows, self.pivots) if self.algebra.layer_of[p] == i]

    def layer_basis(self, i):
        return list(self.layered_bases.get(i, []))

    def basis(self):
        out = []
        for layer in sorted(self.layered_bases):
            out.extend(self.layered_bases[layer])
        return out

    def float_basis(self):
        """basis() as floats, each integer row divided by its pivot entry:
        int true division rounds correctly, as float() of a Fraction does."""
        return [[x / row[p] for x in row] for row, p in zip(self.rows, self.pivots)]

    def basis_layers(self):
        """Layer of each vector of basis(), in the same order."""
        return [self.algebra.layer_of[p] for p in self.pivots]

    def contains(self, coords):
        return self.span.contains(coords)

    def __eq__(self, other):
        return (isinstance(other, HomogeneousSubalgebra)
                and self.algebra == other.algebra and self.rows == other.rows)

    def __hash__(self):
        return hash((self.algebra, tuple(map(tuple, self.rows))))

    def __repr__(self):
        dims = {l: len(v) for l, v in self.layered_bases.items()}
        return "HomogeneousSubalgebra(%s, layer dims %s)" % (self.algebra.name, dims)


def layered_decomposition(algebra, span_vectors):
    """Split a spanning set into per-layer bases.

    Succeeds iff the span is invariant under all layer projections (the
    algebraic form of dilation invariance) and closed under the bracket.
    The span is brought to echelon form once.  It is invariant exactly when
    each echelon row lies in one layer: the reduced echelon form of a graded
    space is the union of its layers' reduced echelon forms.  Raises
    NotHomogeneous with the projection of the first row that leaves its
    layer onto the lowest layer it touches (none of that row's nonzero
    projections lies in the span), or NotSubalgebra with the escaping bracket.
    """
    span = linalg.Span(span_vectors)
    layered = {}
    for row, p in zip(span.rows, span.pivots):
        layers = {algebra.layer_of[k] for k, x in enumerate(row) if x}
        if len(layers) > 1:
            raise NotHomogeneous(
                "span is not dilation invariant: a layer projection escapes",
                witness=algebra.project_layer_coords(
                    tuple(Q(x, row[p]) for x in row), min(layers)))
        layered.setdefault(algebra.layer_of[p], []).append(row)
    return HomogeneousSubalgebra(algebra, {layer: layered[layer] for layer in sorted(layered)})


def span_subalgebra(algebra, *vectors):
    """Convenience: layered_decomposition of explicit coordinate vectors."""
    return layered_decomposition(algebra, vectors)


def full_subalgebra(algebra):
    return layered_decomposition(algebra, linalg.identity(algebra.dim))


def zero_subalgebra(algebra):
    return HomogeneousSubalgebra(algebra, {})


def _ideal_probes(alg):
    """The basis vectors whose brackets with a subalgebra decide whether it
    is an ideal: V1 on a stratified table, every basis vector otherwise.
    The x with [x, a] inside a form a subalgebra, and V1 generates a
    stratified algebra."""
    return alg.layer_indices(1) if is_stratified(alg) else range(alg.dim)


def is_ideal(sub):
    """[G, a] inside a, checked exactly on the brackets of the integer rows
    of a with the basis vectors of `_ideal_probes`.  For homogeneous
    subgroups this is equivalent to normality."""
    alg, span = sub.algebra, sub.span
    return all(span.contains(alg.bracket_num(alg.basis_coords(k), v))
               for k in _ideal_probes(alg) for v in span.rows)


def is_complementary(a, b):
    """Layer-wise direct sum spanning each layer: certifies the group-level
    factorization with uniqueness of the decomposition.  Both spaces are
    graded, so this holds exactly when their dimensions add up to the
    algebra's and together they span it."""
    if a.algebra != b.algebra:
        raise ValueError("subalgebras of different algebras: %s and %s"
                         % (a.algebra.name, b.algebra.name))
    dim = a.algebra.dim
    return (a.total_dim + b.total_dim == dim
            and linalg.rank(a.span.rows + b.span.rows) == dim)


def random_homogeneous_subalgebra(algebra, rng, n_generators=1):
    """Homogeneous closure of random rational vectors (entries a/b with
    |a| <= 3, b in {1, 2}, drawn in that order and kept as the integers
    2a/b, which span the same line): the smallest span that holds them and
    is closed under layer projections and brackets.  Used by the
    property-test drivers."""
    rows = []
    for _ in range(n_generators):
        rows.append([int(rng.integers(-3, 4)) * 2 // int(rng.integers(1, 3))
                     for _ in range(algebra.dim)])
    # a worklist: each vector that grows the span has its layer projections
    # and its brackets with the vectors before it offered to the span in turn
    span = linalg.Span([])
    basis = [r for r in rows if span.add(r)]
    for i, v in enumerate(basis):
        for w in [algebra.project_layer_coords(v, layer)
                  for layer in range(1, algebra.step + 1)] + \
                [algebra.bracket_coords(u, v) for u in basis[:i]]:
            if span.add(w):
                basis.append(w)
    return layered_decomposition(algebra, basis)


# ---------------------------------------------------------------------------
# quotients
# ---------------------------------------------------------------------------

def quotient(algebra, ideal):
    """Quotient by a homogeneous ideal, with the induced grading, plus the
    projection morphism.  The projection is a surjective h-homomorphism and
    the quotient of a stratified algebra stays stratified."""
    if not isinstance(ideal, HomogeneousSubalgebra):
        ideal = layered_decomposition(algebra, ideal)
    if not is_ideal(ideal):
        raise ValueError("subalgebra is not an ideal; quotient undefined")
    return _quotient(algebra, ideal)


def _quotient(algebra, ideal):
    """quotient() of a HomogeneousSubalgebra known to be an ideal."""
    # the representatives: the standard basis vectors off the pivots, in
    # layer order
    reps = [k for layer in range(1, algebra.step + 1)
            for k in algebra.layer_indices(layer) if k not in ideal.pivots]
    # the ideal's integer rows, each scaled to the common pivot entry den
    den = lcm(*(row[p] for row, p in zip(ideal.rows, ideal.pivots)))
    pivoted = [(p, [x * (den // row[p]) for x in row])
               for row, p in zip(ideal.rows, ideal.pivots)]

    def reduce_mod(vec):
        """den times an integer vec modulo the ideal, in the representatives:
        subtract vec[p] n for each scaled row n with pivot p, read at the
        representative columns."""
        return [den * vec[k] - sum(vec[p] * n[k] for p, n in pivoted if vec[p])
                for k in reps]

    struct_num, struct_den = _induced_table(
        algebra, [algebra.basis_coords(k) for k in reps], [1] * len(reps), reduce_mod, den)
    name = ("%s/[dim %d]" % (algebra.name, ideal.total_dim) if reps
            else algebra.name + "/full")
    qalg = GradedAlgebra._induced(name, [algebra.layer_of[k] for k in reps], struct_num,
                                  struct_den, [algebra.basis_names[k] + "~" for k in reps])
    # column k of the projection is den e_k modulo the ideal, over den
    cols = [reduce_mod(algebra.basis_coords(k)) for k in range(algebra.dim)]
    return qalg, GradedMorphism.from_int_form(algebra, qalg, linalg.transpose(cols), den)


def _induced_table(algebra, rows, scales, read, den):
    """(struct_num, struct_den), in the form of ``GradedAlgebra``, of the
    table of a new basis whose a-th vector is the integer row rows[a]
    divided by scales[a]; `read` maps an integer vector to den times its
    integer coordinates in the new basis.  Entry c of [a, b] is read[c] over
    struct_den * den * scales[a] * scales[b]; all of them are put over the
    lcm D of those denominators and divided by gcd(D, *numerators), which
    leaves D the least common denominator.  No Fraction is built."""
    raw = []
    for a, b in itertools.combinations(range(len(rows)), 2):
        terms = [(c, x) for c, x in enumerate(read(algebra.bracket_num(rows[a], rows[b]))) if x]
        if terms:
            raw.append((a, b, scales[a] * scales[b], terms))
    big = lcm(*(s for _, _, s, _ in raw))
    raw = [(a, b, [(c, x * (big // s)) for c, x in terms]) for a, b, s, terms in raw]
    den = algebra.struct_den * den * big
    g = gcd(den, *(x for *_, terms in raw for _, x in terms))
    return tuple((a, b, tuple((c, x // g) for c, x in terms)) for a, b, terms in raw), den // g


def section_through(dpi, witness):
    """Right inverse of a quotient projection through a complementary
    subalgebra: the linear inverse of dpi restricted to the witness."""
    cols = [list(v) for v in witness.basis()]
    img = [dpi.apply_coords(tuple(v)) for v in cols]
    m = [[img[j][r] for j in range(len(img))] for r in range(dpi.codomain.dim)]
    minv = linalg.inverse(m) if len(cols) == dpi.codomain.dim else None
    if minv is None:
        raise ValueError("witness %r does not map isomorphically onto the quotient %s"
                         % (witness, dpi.codomain.name))
    big = [[cols[j][r] for j in range(len(cols))] for r in range(dpi.domain.dim)]
    return GradedMorphism(dpi.codomain, dpi.domain, linalg.matmul(big, minv))


def subalgebra_as_algebra(sub, name=None):
    """A homogeneous subalgebra as a standalone graded algebra (its own basis,
    induced brackets)."""
    alg = sub.algebra
    return GradedAlgebra._induced(name or (alg.name + ".sub"), sub.basis_layers(),
                                  *_induced_table(
                                      alg, sub.rows,
                                      [row[p] for row, p in zip(sub.rows, sub.pivots)],
                                      lambda vec: [vec[p] for p in sub.pivots], 1))


# ---------------------------------------------------------------------------
# group-level splitting along a complementary pair
# ---------------------------------------------------------------------------

def split_element(g, first, second):
    """Unique factors (p, h) with exp(p) o exp(h) = g for complementary
    (first, second).  Solved layer by layer: the group law only feeds lower
    layers into the layer-i correction, so each step is a linear solve.
    Deterministic and exact."""
    alg = g.algebra
    if g.scalar_mode != "exact":
        raise ValueError("split_element needs an exact element")
    p = [0] * alg.dim
    h = [0] * alg.dim
    for layer in range(1, alg.step + 1):
        idx = alg.layer_indices(layer)
        if not idx:
            continue
        corr = group_product_coords(alg, tuple(p), tuple(h))
        cols = first.layer_basis(layer) + second.layer_basis(layer)
        np_cols = len(first.layer_basis(layer))
        m = [[col[k] for col in cols] for k in idx]
        if len(cols) != len(idx) or linalg.rank(m) != len(idx):
            raise ValueError("pair is not complementary at layer %d" % layer)
        sol = linalg.solve(m, [g.coords[k] - corr[k] for k in idx])
        for t, (c, col) in enumerate(zip(sol, cols)):
            target = p if t < np_cols else h
            for k in range(alg.dim):
                target[k] += c * col[k]
    cls = type(g)
    return cls(alg, tuple(p)), cls(alg, tuple(h))


# ---------------------------------------------------------------------------
# polynomial feasibility (right-inverse systems)
# ---------------------------------------------------------------------------

@dataclass
class NonexistenceCertificate:
    reason: str
    detail: str = ""


@dataclass
class BudgetExhausted:
    """Marker of an `undecided` verdict: no exact tier decided.  `trials` is
    always 0 (no tier searches at random); `note` names the tiers whose
    precondition held."""
    trials: int
    note: str


def _system_degree(eqs):
    return max((len(mono) for p in eqs for mono in p.terms), default=0)


UNIT_IDEAL_MAX_VARS = 10


def _unit_ideal_degree(eqs, nvars):
    """The least d <= 1 such that 1 lies in the span of the products m p of
    the equations p with the monomials m of degree <= d, else None.  The
    coefficients of that combination are cofactors h_i with sum h_i p_i = 1,
    a degree-bounded Nullstellensatz certificate (De Loera, Lee, Malkin and
    Margulies, J. Symbolic Comput. 46 (2011)): the equations have no common
    zero over C, hence none over R.  Sound, and incomplete past degree 1."""
    shifted = [{tuple(sorted(m + (v,))): c for m, c in p.terms.items()}
               for p in eqs for v in range(nvars)]
    columns = {(): 0}
    for terms in [p.terms for p in eqs] + shifted:
        for m in terms:
            columns.setdefault(m, len(columns))

    def row(terms):
        out = [0] * len(columns)
        for m, c in terms.items():
            out[columns[m]] = c
        return out

    one = row({(): 1})
    span = linalg.Span([row(p.terms) for p in eqs])
    if span.contains(one):
        return 0
    for terms in shifted:
        span.add(row(terms))
    return 1 if span.contains(one) else None


def _right_inverse_system(L, kernel):
    """Polynomial system, with int coefficients, for a layer-preserving right
    inverse R of L that is also a Lie homomorphism.  D R = S + sum_t c_t E_t:
    one fraction-free echelon form of [nums | den I], the rows of [L | I]
    scaled by den for L's integer form nums / den, gives D, the lcm of its
    pivot entries, and column b of S, D times the solution of L x = w_b
    with free variables zero; E_t ranges over the (integer kernel row,
    codomain basis vector) pairs of equal layer.  The equations are [R w_a, R w_b] -
    R [w_a, w_b] = 0 on codomain basis pairs, times D^2 and both struct_den.
    L o R = Id holds identically, and scaling the unknowns leaves the
    free-variables-zero solution, hence every witness, unchanged.  Returns
    the equations, the columns D R w_b as vectors of Polynomials in the
    unknowns c_t, and the number of unknowns.

    Column b is the int vector s_b plus sum_t c_t kv_t, so each equation's
    coefficients are int brackets: [s_a, s_b] for the constant, [s_a, kv_u]
    and [kv_t, s_b] for the unknowns of columns b and a, [kv_t, kv_u] for
    c_t c_u (t < u, since a < b), and the image R [w_a, w_b] adds -D
    struct_den [w_a, w_b]_w (s_w + sum c_t kv_t) over the codomain
    coordinates w; each monomial comes from one of these alone."""
    G, M = L.domain, L.codomain
    nums, den = L.int_form
    span = linalg.Span([list(row) + [den * (r == b) for b in range(M.dim)]
                        for r, row in enumerate(nums)])
    if span.pivots and span.pivots[-1] >= G.dim:
        raise ValueError("L is not surjective")
    big_d = lcm(*(row[p] for row, p in zip(span.rows, span.pivots)))
    s = {p: [x * (big_d // row[p]) for x in row[G.dim:]]
         for row, p in zip(span.rows, span.pivots)}
    consts = [[s[k][b] if k in s else 0 for k in range(G.dim)] for b in range(M.dim)]
    # unknowns[b]: the (variable, integer kernel row) pairs of column b
    unknowns, nvars = [], 0
    for b in range(M.dim):
        rows = kernel.layer_rows(M.layer_of[b])
        unknowns.append(list(enumerate(rows, nvars)))
        nvars += len(rows)
    cols = [[Polynomial._of({(): c, **{(t,): kv[k] for t, kv in unknowns[b]}})
             for k, c in enumerate(consts[b])] for b in range(M.dim)]
    bracket, eqs, scale, mden = G.bracket_num, [], big_d * G.struct_den, M.struct_den
    for a, b in itertools.combinations(range(M.dim), 2):
        sa, sb = consts[a], consts[b]
        # (monomial, int vector) pairs: the brackets, then the image's unknowns
        parts = [((), bracket(sa, sb))]
        parts += [((u,), bracket(sa, kv)) for u, kv in unknowns[b]]
        parts += [((t,), bracket(kv, sb)) for t, kv in unknowns[a]]
        parts += [((t, u), bracket(kt, ku)) for t, kt in unknowns[a] for u, ku in unknowns[b]]
        if mden != 1:
            parts = [(m, [x * mden for x in v]) for m, v in parts]
        image = [(w * scale, c) for c, w in enumerate(
            M.bracket_num(M.basis_coords(a), M.basis_coords(b))) if w]
        if image:
            parts[0] = ((), [x - sum(f * consts[c][k] for f, c in image)
                             for k, x in enumerate(parts[0][1])])
            parts += [((t,), [-f * x for x in kv]) for f, c in image for t, kv in unknowns[c]]
        for k in range(G.dim):
            eq = Polynomial._of({m: v[k] for m, v in parts})
            if eq:
                eqs.append(eq)
    return eqs, cols, nvars


# ---------------------------------------------------------------------------
# symplectic machinery for step-2 H-type complements, on the forms of `_forms`
# ---------------------------------------------------------------------------

@per_algebra
def _forms(algebra):
    """The step-2 forms, read off struct_num: per second-layer basis vector
    z, in index order, the int matrix W_z on the first-layer coordinates,
    W_z[p][q] = struct_den times the z coordinate of [e_p, e_q].  Every use
    (ranks, spans, isotropy, the normalised symplectic pairs) is invariant
    under that common scale."""
    at1 = {k: p for p, k in enumerate(algebra.layer_indices(1))}
    at2 = {k: f for f, k in enumerate(algebra.layer_indices(2))}
    forms = [[[0] * len(at1) for _ in at1] for _ in at2]
    for i, j, terms in algebra.struct_num:
        if i in at1 and j in at1:
            for k, c in terms:
                forms[at2[k]][at1[i]][at1[j]], forms[at2[k]][at1[j]][at1[i]] = c, -c
    return forms


def _omega_of(W, u, v):
    return sum(u[i] * sum(W[i][j] * v[j] for j in range(len(v))) for i in range(len(u)))


def _symplectic_pairs(W, vectors):
    """Rational symplectic Gram-Schmidt: returns (pairs, kernel_basis) for the
    restriction of W to span(vectors).  Pairs (a, b) satisfy omega(a,b) = 1
    and are mutually omega-orthogonal; kernel carries the radical."""
    rows = [list(v) for v in linalg.row_space_basis([list(v) for v in vectors])]
    pairs = []
    while True:
        found = next(((i, j, om) for i, j in itertools.combinations(range(len(rows)), 2)
                      for om in [_omega_of(W, rows[i], rows[j])] if om), None)
        if not found:
            return pairs, rows
        i, j, om = found
        a = rows[i]
        b = [x / om for x in rows[j]]
        rest = [rows[t] for t in range(len(rows)) if t not in (i, j)]
        newrows = []
        for v in rest:
            lam, mu = _omega_of(W, v, b), _omega_of(W, v, a)
            newrows.append([x - lam * ya + mu * yb for x, ya, yb in zip(v, a, b)])
        pairs.append((a, b))
        rows = [r for r in linalg.row_space_basis(newrows)] if newrows else []


def _omega_orthogonal(W, vectors, ambient_rows):
    """Basis of {x in span(ambient_rows) : omega(v, x) = 0 for all v}."""
    if not vectors:
        return [list(r) for r in ambient_rows]
    m = [[_omega_of(W, v, r) for r in ambient_rows] for v in vectors]
    combine = linalg.transpose(ambient_rows)
    return linalg.row_space_basis([linalg.matvec(combine, k) for k in linalg.nullspace(m)])


@per_algebra
def _heisenberg_n(algebra):
    """n when the table is that of h^n up to a first-layer change of basis:
    step 2, one second-layer vector, and its form omega nondegenerate on V1;
    else None."""
    dims = algebra.layer_dims()
    if len(dims) != 2 or dims[1] != 1:
        return None
    return dims[0] // 2 if linalg.rank(_forms(algebra)[0]) == dims[0] else None


def _j_map(algebra, z, x):
    """J_Z x of a step-2 table, for second-layer coordinates z: the
    first-layer vector with coordinates <Z, [x, e_i]>, so that
    <J_Z x, Y> = <Z, [x, Y]> in the declared basis, i.e. J_k = -W_k /
    struct_den on the form W_k (`_forms`) of the k-th second-layer vector."""
    idx2 = algebra.layer_indices(2)
    brs = [algebra.bracket_coords(x, algebra.basis_coords(i)) for i in range(algebra.dim)]
    return [sum(c * br[k] for c, k in zip(z, idx2)) if l == 1 else 0
            for br, l in zip(brs, algebra.layer_of)]


@per_algebra
def _is_h12(algebra):
    """Whether the table is that of the complexified Heisenberg group h12:
    layer dims [4, 2], and the maps J_k = -W_k / d (`_j_map`, d =
    struct_den) of the two second-layer vectors satisfy J_k^2 = -Id and
    J_1 J_2 = -J_2 J_1, i.e. W_k^2 = -d^2 Id and W_1 W_2 = -W_2 W_1."""
    if algebra.layer_dims() != [4, 2]:
        return False
    (w1, w2), mul = _forms(algebra), linalg.matmul
    minus = [[-algebra.struct_den ** 2 * (p == q) for q in range(4)] for p in range(4)]
    return mul(w1, w1) == mul(w2, w2) == minus and \
        mul(w1, w2) == [[-x for x in row] for row in mul(w2, w1)]


def heisenberg_complement(algebra, n1):
    """Commutative horizontal complement of a horizontal subspace n1 (a list
    of vectors) of the first layer of a Heisenberg table (see
    `_heisenberg_n`), with dim n1 >= n (the kernel part of an abelian
    quotient).  Constructive and exact.

    The construction is the symplectic normal form of the classical
    orthonormal one: kernel directions of omega|_{n1} get their symplectic
    duals, and each leftover symplectic pair outside n1 is glued to one
    inside as (c + a, d - b); both families are omega-isotropic, i.e.
    commutative, and transversal to n1.
    """
    n = _heisenberg_n(algebra)
    if n is None:
        raise ValueError("heisenberg_complement needs a Heisenberg group")
    vecs = [list(v) for v in n1]
    W, idx = _forms(algebra)[0], algebra.layer_indices(1)
    rows = linalg.row_space_basis([[v[k] for k in idx] for v in vecs])
    if any(c != 0 and algebra.layer_of[k] != 1 for v in vecs for k, c in enumerate(v)):
        raise ValueError("n1 must be horizontal")
    p = len(rows)
    k_out = 2 * n - p
    if not (1 <= k_out <= n):
        raise ValueError("dim n1 = %d violates n <= dim n1 < 2n" % p)
    pairs_w, kernel = _symplectic_pairs(W, rows)
    l = len(pairs_w)
    m = len(kernel)
    ambient = linalg.identity(2 * n)
    vprime = _omega_orthogonal(W, [a for a, b in pairs_w] + [b for a, b in pairs_w],
                               ambient)
    # symplectic duals h_i in V' of the kernel directions, isotropic family
    duals = []
    for i, g in enumerate(kernel):
        mrows = [[_omega_of(W, gg, vp) for vp in vprime] for gg in kernel]
        sol = linalg.solve(mrows, [int(t == i) for t in range(m)])
        if sol is None:
            raise AssertionError("symplectic dual solve failed")
        h = linalg.matvec(linalg.transpose(vprime), sol)
        for j, prev in enumerate(duals):
            lam = _omega_of(W, prev, h)
            h = [x + lam * g2 for x, g2 in zip(h, kernel[j])]
        duals.append(h)
    vsecond = _omega_orthogonal(W, kernel + duals, vprime)
    pairs_v, rad = _symplectic_pairs(W, vsecond)
    if rad:
        raise AssertionError("residual symplectic space must be nondegenerate")
    q = len(pairs_v)
    if not (q == n - l - m and q <= l):
        raise AssertionError("dimension bookkeeping failed")
    out = list(duals)
    for t in range(q):
        c, d = pairs_v[t]
        a, b = pairs_w[t]
        out.append([x + y for x, y in zip(c, a)])
        out.append([x - y for x, y in zip(d, b)])
    s = layered_decomposition(algebra, [[dict(zip(idx, v)).get(k, 0) for k in range(algebra.dim)]
                                        for v in out])
    # exact verification before returning
    horizontal = s.layer_rows(1)
    if any(any(algebra.bracket_num(u, v)) for u, v in itertools.combinations(horizontal, 2)):
        raise AssertionError("complement is not commutative")
    if linalg.rank([list(r) for r in rows] + [[v[k] for k in idx] for v in horizontal]) != 2 * n:
        raise AssertionError("complement is not transversal to n1")
    if s.total_dim != k_out:
        raise AssertionError("complement has dimension %d, not %d" % (s.total_dim, k_out))
    return s


def h21_complement(algebra, nsub):
    """Complement construction in the complexified Heisenberg group for an
    ideal n = n1 + center with dim n1 = 2.  The table must be that of h12
    (see `_is_h12`); J is read off it.

    Commutative case: J_z(X) for any nonzero X in n1 (invariant under the
    adapted rotation of the center basis).  Non-commutative case: the
    two-vector family with a free parameter lambda, scanned over rationals
    until the exact direct-sum and commutativity checks pass (only finitely
    many lambda are excluded).  A ValueError names an input for which
    neither holds.
    """
    if not _is_h12(algebra):
        raise ValueError("h21_complement needs the table of the complexified "
                         "Heisenberg group h12")
    if isinstance(nsub, HomogeneousSubalgebra):
        n1 = nsub.layer_basis(1)
        if len(nsub.layer_basis(2)) != 2:
            raise ValueError("the ideal must contain the center")
    else:
        n1 = [list(v) for v in nsub]
    n2 = [algebra.basis_coords(k) for k in algebra.layer_indices(2)]
    if len(n1) != 2:
        raise ValueError("dim n1 must be 2")
    v, w = (algebra.project_layer_coords(u, 1) for u in n1)
    z = [algebra.bracket_coords(v, w)[k] for k in algebra.layer_indices(2)]

    def good(cand):
        return not any(algebra.bracket_coords(*cand)) and \
            linalg.rank([list(x) for x in cand + n1 + n2]) == algebra.dim

    if all(c == 0 for c in z):
        # commutative case: J_{z1} X and J_{z2} X for the declared center basis
        x = v if any(c != 0 for c in v) else w
        cand = [_j_map(algebra, [1, 0], x), _j_map(algebra, [0, 1], x)]
        if not good(cand):
            raise ValueError("n1 and the center do not span a 4-dimensional ideal")
        return layered_decomposition(algebra, cand)
    zperp = [-z[1], z[0]]
    qnorm = z[0] * z[0] + z[1] * z[1]
    x = v
    jz_x = _j_map(algebra, z, x)
    jzp_x = _j_map(algebra, zperp, x)
    jzjzp_x = _j_map(algebra, z, _j_map(algebra, zperp, x))
    for lam in (c for k in range(1, 20) for c in (k, -k, Q(1, k + 1), Q(-1, k + 1))):
        u1 = [a - lam * b for a, b in zip(x, jzp_x)]
        u2 = [lam * qnorm * a + b for a, b in zip(jz_x, jzjzp_x)]
        if good([u1, u2]):
            return layered_decomposition(algebra, [u1, u2])
    raise ValueError("no admissible lambda among the candidates for this n1")


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def _witness_json(verdict, witness, tier):
    """The JSON of both classifications: the deciding tier, and the witness
    basis as rational strings or the certificate (or undecided marker)."""
    out = {"verdict": verdict, "tier": tier, "witness_basis": None, "certificate": None}
    if isinstance(witness, HomogeneousSubalgebra):
        out["witness_basis"] = [[str(c) for c in v] for v in witness.basis()]
    elif isinstance(witness, NonexistenceCertificate):
        out["certificate"] = {"reason": witness.reason, "detail": witness.detail}
    elif isinstance(witness, BudgetExhausted):
        out["certificate"] = {"reason": "no_exact_tier", "detail": witness.note}
    return out


@dataclass
class EpiClassification:
    verdict: str               # h_epimorphism | surjective_not_epi | not_surjective | undecided
    witness: object = None     # HomogeneousSubalgebra | NonexistenceCertificate | BudgetExhausted
    kernel: object = None
    tier: str = None           # name of the deciding tier; None when no tier decided

    def to_json_dict(self):
        return _witness_json(self.verdict, self.witness, self.tier)


@dataclass
class MonoClassification:
    verdict: str               # h_monomorphism | not_injective | undecided
    normal_complement: object = None
    projection: object = None  # GradedMorphism p with p|_H = Id
    image: object = None
    tier: str = None           # name of the deciding tier; None when no tier decided

    def to_json_dict(self):
        return _witness_json(self.verdict, self.normal_complement, self.tier)


# a named exact tier: `applies` (its precondition) and `decide` read one
# `_Inputs`, the subalgebra to complement (a kernel, a non-ideal or an image)
# and, for a kernel, its surjection L and right-inverse system; `decide`
# returns (verdict, witness) or None
Tier = namedtuple("Tier", "name applies decide")
_Inputs = namedtuple("_Inputs", "sub L eqs cols nvars", defaults=(None, None, None, 0))


def _run_tiers(tiers, inputs, note, *args):
    """(verdict, witness, tier name) of the first of `tiers` that decides
    `inputs`, else ('undecided', marker, None), the marker's note being
    `note` % (*args, the names of the tiers whose precondition held)."""
    ran = []
    for tier in tiers:
        if tier.applies(inputs):
            out = tier.decide(inputs)
            if out is not None:
                return (*out, tier.name)
            ran.append(tier.name)
    return "undecided", BudgetExhausted(0, note % (*args, ", ".join(ran))), None


def classify_epimorphism(L):
    """Decide whether a surjective h-homomorphism admits an h-homomorphism
    right inverse, equivalently whether its kernel has a complementary
    homogeneous subgroup, through the tiers of `IDEAL_TIERS`.  Returns the
    witness subalgebra, a nonexistence certificate, or an undecided marker.
    L is surjective exactly when its kernel has dimension dim G - dim M."""
    rep = check_h_homomorphism(L)
    if not rep.is_h_homomorphism:
        raise ValueError("input is not an h-homomorphism: %s" % rep.violations)
    kernel = layered_decomposition(L.domain, L.kernel_basis())
    if kernel.total_dim != L.domain.dim - L.codomain.dim:
        return EpiClassification("not_surjective")
    return _split_kernel(L, kernel)


def _split_kernel(L, kernel):
    """`IDEAL_TIERS` for a surjective h-homomorphism L with the given kernel,
    on its right-inverse system.  An isomorphism gives an empty system and
    the whole domain."""
    inputs = _Inputs(kernel, L, *_right_inverse_system(L, kernel))
    verdict, witness, tier = _run_tiers(IDEAL_TIERS, inputs,
                                        "%d-unknown quadratic system; ran: %s", inputs.nvars)
    return EpiClassification(verdict, witness, kernel, tier)


def classify_monomorphism(T, budget=2000, seed=0):
    """Decide whether an injective h-homomorphism admits an h-homomorphism
    left inverse, equivalently whether its image (the span of T's columns)
    has a normal complementary subgroup, through `INCLUSION_TIERS`; returns
    the projection p with p|_H = Id when found.  `budget` and `seed` are
    unread.  T is injective exactly when its image has dimension dim H."""
    rep = check_h_homomorphism(T)
    if not rep.is_h_homomorphism:
        raise ValueError("input is not an h-homomorphism: %s" % rep.violations)
    M = T.codomain
    image = layered_decomposition(M, linalg.transpose(T.int_form[0]))
    if image.total_dim != T.domain.dim:
        return MonoClassification("not_injective")
    verdict, n, tier = _run_tiers(INCLUSION_TIERS, _Inputs(image),
                                  "ran: %s of the image; none is an ideal")
    proj = _projection_along(M, image, n) if tier else None
    return MonoClassification(verdict, n, proj, image, tier)


def _abelian_image(c):
    """Whether M is abelian: then the kernel holds every layer >= 2, and a
    complement is a commutative horizontal transversal of its first-layer
    part, of dimension dim M."""
    return set(c.L.codomain.layer_of) <= {1}


def _affine_tier(c):
    """A solution is the witness, an inconsistency the certificate."""
    rows = [[p.terms.get((v,), 0) for v in range(c.nvars)] for p in c.eqs]
    sol = linalg.solve(rows, [-p.terms.get((), 0) for p in c.eqs]) if rows else [0] * c.nvars
    if sol is not None:
        return "h_epimorphism", layered_decomposition(
            c.L.domain, [[p(sol) for p in col] for col in c.cols])
    return "surjective_not_epi", NonexistenceCertificate(
        "affine_infeasible", "the right-inverse equations are affine in the kernel "
        "corrections and exactly inconsistent")


def _coordinate_tier(c):
    """The first coordinate complement of c.sub that is a subalgebra; that
    of a kernel maps isomorphically onto the image."""
    ks = next(_coordinate_complements(c.sub), None)
    if ks is not None:
        return "h_epimorphism", _coordinate_span(c.sub.algebra, ks)


def _heisenberg_tier(c):
    hn = _heisenberg_n(c.L.domain)
    if hn is not None and c.L.codomain.dim <= hn:
        return "h_epimorphism", heisenberg_complement(c.L.domain, c.sub.layer_basis(1))


def _h12_tier(c):
    # a quadratic system on h12 has dim M = 2: two kernel directions in V1
    if _is_h12(c.L.domain):
        return "h_epimorphism", h21_complement(c.L.domain, c.sub.layer_basis(1))


def _isotropic_tier(c):
    bound, k = _isotropic_bound(c.L.domain), c.L.codomain.dim
    if bound < k:
        return "surjective_not_epi", NonexistenceCertificate(
            "isotropic_dimension_bound",
            "commutative horizontal subalgebras have dimension <= %d < %d" % (bound, k))


def _unit_ideal_tier(c):
    d = _unit_ideal_degree(c.eqs, c.nvars)
    if d is not None:
        return "surjective_not_epi", NonexistenceCertificate(
            "unit_ideal", "degree %d: 1 is a rational combination of the right-inverse "
            "equations times monomials of degree <= %d" % (d, d))


def _coordinate_ideal_tier(c):
    """The first coordinate complement of the image c.sub that is an ideal:
    the canonical one is, when the image is horizontal or all of M."""
    M = c.sub.algebra
    ks = next((k for k in _coordinate_complements(c.sub) if _is_coordinate_ideal(M, k)), None)
    if ks is not None:
        return "h_monomorphism", _coordinate_span(M, ks)


# each classifier's exact tiers, in the order they run
_COORDINATE_COMPLEMENTS = Tier("coordinate complements", lambda c: True, _coordinate_tier)
IDEAL_TIERS = (
    Tier("affine right-inverse system", lambda c: _system_degree(c.eqs) <= 1, _affine_tier),
    _COORDINATE_COMPLEMENTS,
    Tier("Heisenberg closed form", _abelian_image, _heisenberg_tier),
    Tier("h12 closed form", _abelian_image, _h12_tier),
    Tier("isotropic rank bound", _abelian_image, _isotropic_tier),
    Tier("unit-ideal test of degree <= 1", lambda c: c.nvars <= UNIT_IDEAL_MAX_VARS,
         _unit_ideal_tier))
NON_IDEAL_TIERS = (_COORDINATE_COMPLEMENTS,)
INCLUSION_TIERS = (Tier("coordinate complements", lambda c: True, _coordinate_ideal_tier),)


def _coordinate_complements(sub):
    """The complements of sub spanned by basis vectors, layer by layer, that
    are closed under the bracket, found depth first over the layers, each as
    the tuple of its basis indices in layer order (`_coordinate_span` builds
    it).  Each layer takes every set ks of its basis vectors that completes
    sub's layer and holds the brackets of the lower layers already chosen,
    read off the support of the structure table; the canonical set (the
    non-pivot columns of sub's layer) comes first, so the canonical
    complement, when it is a subalgebra, is the first one yielded.  ks
    completes the layer exactly when the square minor of sub's integer layer
    rows on the columns left out of ks is nonsingular; each minor's verdict
    is kept for the rest of the walk."""
    alg = sub.algebra
    pivots = set(sub.pivots)
    layers = []  # per layer: its indices, its canonical set and sub's rows
    for layer in range(1, alg.step + 1):
        idx = alg.layer_indices(layer)
        layers.append((idx, tuple(k for k in idx if k not in pivots), sub.layer_rows(layer)))
    minors, support = {}, _supports(alg)

    def transversal(ks, idx, rows):
        if ks not in minors:
            out = [k for k in idx if k not in ks]
            minors[ks] = linalg.det([[row[k] for k in out] for row in rows]) != 0
        return minors[ks]

    def extend(chosen):
        layer = len(chosen) + 1
        if layer > alg.step:
            yield tuple(itertools.chain.from_iterable(chosen))
            return
        idx, free, rows = layers[layer - 1]
        # the support of [e_a, e_b], read from the integer table
        forced = {k for i in range(1, layer // 2 + 1)
                  for a in chosen[i - 1] for b in chosen[layer - i - 1]
                  for k in support.get((min(a, b), max(a, b)), ())}
        if len(forced) > len(free):
            return
        if forced <= set(free):
            yield from extend(chosen + [free])
        rest = [k for k in idx if k not in forced]
        for ks in itertools.combinations(rest, len(free) - len(forced)):
            ks = tuple(sorted(forced.union(ks)))
            if ks != free and transversal(ks, idx, rows):
                yield from extend(chosen + [ks])

    return extend([])


def _coordinate_span(alg, ks):
    """The subalgebra spanned by the basis vectors ks, given in layer order."""
    layered = {}
    for k in ks:
        layered.setdefault(alg.layer_of[k], []).append(alg.basis_coords(k))
    return HomogeneousSubalgebra(alg, layered)


@per_algebra
def _supports(alg):
    """{(i, j): the k with c_ij^k != 0}, i < j, read off the integer table."""
    return {(i, j): [k for k, _ in terms] for i, j, terms in alg.struct_num}


def _is_coordinate_ideal(alg, ks):
    """is_ideal of the span of the basis vectors ks, on the index set: a
    coordinate span holds a vector exactly when it holds its support."""
    inside, support = set(ks), _supports(alg)
    return all(k in inside for j in _ideal_probes(alg) for a in ks
               for k in support.get((min(j, a), max(j, a)), ()))


def _projection_along(M, image, normal):
    """Linear projection onto the image along the normal complement; a Lie
    homomorphism because the complement is an ideal.  It does not depend on
    the bases, so it is read off the integer rows: with A the matrix of
    columns image.rows + normal.rows and A^-1 = inv / den, it is the sum of
    the image columns of A times the matching rows of A^-1."""
    form = linalg.inverse_form(linalg.transpose(image.rows + normal.rows))
    if form is None:
        raise AssertionError("image and normal complement do not span M")
    inv, den = form
    proj = [[sum(a[r] * inv[c][k] for c, a in enumerate(image.rows)) for k in range(M.dim)]
            for r in range(M.dim)]
    return GradedMorphism.from_int_form(M, M, proj, den)


# ---------------------------------------------------------------------------
# horizontal / vertical classification and commutative horizontal maxima
# ---------------------------------------------------------------------------

def horizontal_vertical_classify(sub):
    """'horizontal' if contained in the first layer, 'vertical' if it
    contains the whole second layer, else 'neither'.  Step-2 ambient only."""
    alg = sub.algebra
    if alg.step != 2:
        raise ValueError("classification defined for step-2 ambient groups")
    if set(sub.layered_bases) <= {1}:
        return "horizontal"
    if all(sub.contains(alg.basis_coords(k)) for k in alg.layer_indices(2)):
        return "vertical"
    return "neither"


@dataclass
class MaxCommutativeReport:
    dim: int
    witness: object
    upper_bound: int
    exact: bool
    note: str = ""


@per_algebra
def _isotropic_bound(algebra):
    """Upper bound on the dimension of a commutative subalgebra inside the
    first layer V1.  Such a subspace is isotropic for each combination
    omega_c = sum_f c_f omega_f of the forms of the second-layer basis
    vectors, so its dimension is at most dim V1 - rank(omega_c) / 2.  The
    minimum runs over the unit combinations and the moment-curve points
    c = (1, t, ..., t^(F-1)), t = 2 .. 2 dim V1 + 1."""
    m, forms = len(algebra.layer_indices(1)), _forms(algebra)
    combos = [[int(f == s) for f in range(len(forms))] for s in range(len(forms))]
    combos += [[t ** f for f in range(len(forms))] for t in range(2, 2 * m + 2)]
    return min((m - linalg.rank([[sum(c * W[i][j] for c, W in zip(combo, forms))
                                  for j in range(m)] for i in range(m)]) // 2
                for combo in combos), default=m)


def max_commutative_horizontal_dim(algebra):
    """Largest dimension of a commutative subalgebra inside the first layer.

    Upper bound: `_isotropic_bound`.  Lower bound: one greedy pass that
    adds the first vector omega-orthogonal to those chosen (for every form)
    outside their span.  Exact verdict when the two meet.
    """
    idx1, forms = algebra.layer_indices(1), _forms(algebra)
    bound = _isotropic_bound(algebra)
    best, span = [], linalg.Span([])
    while len(best) < bound:
        orthogonal = [linalg.matvec(W, v) for v in best for W in forms]
        space = linalg.nullspace(orthogonal) if orthogonal else linalg.identity(len(idx1))
        v = next((v for v in space if not span.contains(v)), None)
        if v is None:
            break
        span.add(v)
        best.append(v)
    witness = layered_decomposition(algebra, [[dict(zip(idx1, v)).get(k, 0)
                                               for k in range(algebra.dim)] for v in best])
    exact = len(best) == bound
    note = "" if exact else "lower bound from one greedy pass; upper bound %d" % bound
    return MaxCommutativeReport(len(best), witness, bound, exact, note)


# ---------------------------------------------------------------------------
# complement search for a given homogeneous subgroup
# ---------------------------------------------------------------------------

def find_complement(sub, budget=4000, seed=0):
    """Complementary homogeneous subgroup of `sub`, when one can be found.

    An ideal is the kernel of its quotient projection, a surjective
    h-homomorphism, so it goes straight to `IDEAL_TIERS` (certificates
    included), the zero and whole algebras too.  A non-ideal goes through
    `NON_IDEAL_TIERS`, which never claim nonexistence.  `budget` and `seed`
    are unread."""
    if is_ideal(sub):
        return _split_kernel(_quotient(sub.algebra, sub)[1], sub)
    verdict, witness, tier = _run_tiers(NON_IDEAL_TIERS, _Inputs(sub),
                                        "non-ideal; ran: %s; none is a subalgebra")
    return EpiClassification(verdict, witness, sub, tier)


def random_complementary_pairs(algebra, rng, count):
    """Search-generated complementary pairs for property tests, from at most
    4000 trials.

    Mixes (a) vertical kernels with their constructive horizontal
    complements (Heisenberg-type groups), and (b) fully random homogeneous
    subalgebra pairs kept when exactly complementary.  Every returned pair is
    re-verified with is_complementary."""
    out = []
    hn = _heisenberg_n(algebra)
    is_h12 = _is_h12(algebra)
    idx1 = algebra.layer_indices(1)
    trials = 0
    while len(out) < count and trials < 4000:
        trials += 1
        mode = trials % 3
        if mode != 2 and (hn or is_h12):
            target = 2 if is_h12 else int(rng.integers(hn, 2 * hn))
            rows = []
            while linalg.rank(rows) < target:
                v = [0] * algebra.dim
                for k in idx1:  # a/b, scaled by 2 to an integer
                    v[k] = int(rng.integers(-3, 4)) * 2 // int(rng.integers(1, 3))
                rows.append(v)
                rows = [list(r) for r in linalg.row_space_basis(rows)]
            vert = rows + [list(algebra.basis_coords(k))
                           for k in algebra.layer_indices(2)]
            try:
                n = layered_decomposition(algebra, vert)
                h = h21_complement(algebra, n) if is_h12 \
                    else heisenberg_complement(algebra, rows)
            except (ValueError, NotSubalgebra, AssertionError):
                continue
            if is_complementary(n, h):
                out.append((n, h))
            continue
        a = random_homogeneous_subalgebra(algebra, rng,
                                          n_generators=int(rng.integers(1, 3)))
        b = random_homogeneous_subalgebra(algebra, rng,
                                          n_generators=int(rng.integers(1, 3)))
        if a.total_dim and b.total_dim and is_complementary(a, b):
            out.append((a, b))
    return out
