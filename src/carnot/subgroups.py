"""Homogeneous subalgebras and subgroups: layered decomposition, ideals,
complementary pairs, quotient gradings, h-epimorphism / h-monomorphism
classification, and the constructive complement algorithms for Heisenberg
type groups.

Everything here is exact rational arithmetic, and every bracket is the
algebra's ``bracket_coords``.  Classification verdicts come in exact,
deterministic tiers, in this order: affine right-inverse systems, decided
both ways; the zero correction of a quadratic system; the Heisenberg and
h12 closed forms; the isotropic rank bound; a unit-ideal test of degree
<= 1, whose certificate is one exact solve on ``linalg``.  Non-ideals and
monomorphisms try the complements spanned by basis vectors.  When no tier
decides, the verdict is `undecided`, and its marker names the tiers that
ran.  No tier uses sympy or randomness.  The right-inverse system of an
h-epimorphism is written with ``algebra.Polynomial``: the columns of the
unknown right inverse are vectors of polynomials, bracketed by
``bracket_coords``.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .algebra import GradedAlgebra, Polynomial
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
    layer of its pivot.  `layered_bases` holds the rows by that layer, each
    divided by its pivot, in pivot order: the layers' reduced echelon bases,
    canonical, so equality is matrix comparison.  `pivots` holds the pivot
    column of each vector of basis(), in the same order; a vector of the
    space has its coordinates in basis() at these columns."""

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
        canon = {}
        for row, p in zip(self.span.rows, self.span.pivots):
            canon.setdefault(algebra.layer_of[p], []).append((p, _unit_pivot(row, p)))
        self.layered_bases = {layer: [v for _, v in canon[layer]]
                              for layer in layered_bases if layer in canon}
        self.pivots = [p for layer in sorted(canon) for p, _ in canon[layer]]
        w = self._bracket_escape()
        if w is not None:
            raise NotSubalgebra("bracket leaves the span", witness=w)

    def _bracket_escape(self):
        """None when the span is closed under the bracket, decided on the
        integer rows; else the first escaping bracket of two basis vectors."""
        bracket, span = self.algebra.bracket_coords, self.span
        if all(span.contains(bracket(u, v))
               for u, v in itertools.combinations(span.rows, 2)):
            return None
        return next(br for u, v in itertools.combinations(self.basis(), 2)
                    for br in [bracket(u, v)] if not span.contains(br))

    @property
    def total_dim(self):
        return sum(len(v) for v in self.layered_bases.values())

    def layer_basis(self, i):
        return list(self.layered_bases.get(i, []))

    def basis(self):
        out = []
        for layer in sorted(self.layered_bases):
            out.extend(self.layered_bases[layer])
        return out

    def basis_layers(self):
        """Layer of each vector of basis(), in the same order."""
        return [layer for layer in sorted(self.layered_bases)
                for _ in self.layered_bases[layer]]

    def contains(self, coords):
        return self.span.contains(coords)

    def __eq__(self, other):
        return (isinstance(other, HomogeneousSubalgebra)
                and self.algebra == other.algebra
                and self.layered_bases == other.layered_bases)

    def __hash__(self):
        return hash((id(self.algebra), tuple(sorted(
            (l, tuple(vs)) for l, vs in self.layered_bases.items()))))

    def __repr__(self):
        dims = {l: len(v) for l, v in self.layered_bases.items()}
        return "HomogeneousSubalgebra(%s, layer dims %s)" % (self.algebra.name, dims)


def _unit_pivot(row, p):
    """An integer echelon row divided by its pivot entry row[p]: the row of
    the reduced echelon form, in Fractions."""
    return tuple(Q(x, row[p]) if x else linalg.ZERO for x in row)


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
                witness=algebra.project_layer_coords(_unit_pivot(row, p), min(layers)))
        layered.setdefault(algebra.layer_of[p], []).append(row)
    return HomogeneousSubalgebra(algebra, {layer: layered[layer] for layer in sorted(layered)})


def span_subalgebra(algebra, *vectors):
    """Convenience: layered_decomposition of explicit coordinate vectors."""
    return layered_decomposition(algebra, vectors)


def full_subalgebra(algebra):
    return layered_decomposition(algebra, linalg.identity(algebra.dim))


def zero_subalgebra(algebra):
    return HomogeneousSubalgebra(algebra, {})


def is_ideal(sub):
    """[G, a] inside a, checked exactly on the brackets of the basis vectors
    of G with the integer rows of a.  For homogeneous subgroups this is
    equivalent to normality."""
    alg, span = sub.algebra, sub.span
    return all(span.contains(alg.bracket_coords(alg.basis_coords(k), v))
               for k in range(alg.dim) for v in span.rows)


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
    |a| <= 3, b in {1, 2}): the smallest span that holds them and is closed
    under layer projections and brackets.  Used by the property-test
    drivers."""
    rows = []
    for _ in range(n_generators):
        rows.append([Q(int(rng.integers(-3, 4)),
                       int(rng.integers(1, 3))) for _ in range(algebra.dim)])
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
    pivoted = list(zip(ideal.pivots, ideal.basis()))
    # the representatives: the standard basis vectors off the pivots, in
    # layer order
    reps = [k for layer in range(1, algebra.step + 1)
            for k in algebra.layer_indices(layer) if k not in ideal.pivots]

    def reduce_mod(vec):
        """vec modulo the ideal in the representatives: subtract vec[p] n for
        each ideal vector n with pivot p, read at the representative columns."""
        return [vec[k] - sum(vec[p] * n[k] for p, n in pivoted if vec[p]) for k in reps]

    proj_matrix = linalg.transpose([reduce_mod(algebra.basis_coords(k))
                                    for k in range(algebra.dim)])
    struct = _induced_table(algebra, [algebra.basis_coords(k) for k in reps], reduce_mod)
    name = ("%s/[dim %d]" % (algebra.name, ideal.total_dim) if reps
            else algebra.name + "/full")
    qalg = GradedAlgebra(name, [algebra.layer_of[k] for k in reps], struct,
                         basis_names=[algebra.basis_names[k] + "~" for k in reps])
    dpi = GradedMorphism(algebra, qalg, proj_matrix)
    return qalg, dpi


def _induced_table(algebra, vectors, coords_of):
    """The table {(a, b): [v_a, v_b] read by coords_of} of the brackets of
    `vectors`, a < b, in a new basis; GradedAlgebra drops its zeros."""
    return {(a, b): dict(enumerate(coords_of(algebra.bracket_coords(vectors[a], vectors[b]))))
            for a, b in itertools.combinations(range(len(vectors)), 2)}


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
    return GradedAlgebra(name or (alg.name + ".sub"), sub.basis_layers(),
                         _induced_table(alg, sub.basis(),
                                        lambda vec: [vec[p] for p in sub.pivots]))


# ---------------------------------------------------------------------------
# group-level splitting along a complementary pair
# ---------------------------------------------------------------------------

def split_element(g, first, second):
    """Unique factors (p, h) with exp(p) o exp(h) = g for complementary
    (first, second).  Solved layer by layer: the group law only feeds lower
    layers into the layer-i correction, so each step is a linear solve.
    Deterministic and exact."""
    from .bch import group_product_coords
    alg = g.algebra
    if g.scalar_mode != "exact":
        raise ValueError("split_element needs an exact element")
    p = [Q(0)] * alg.dim
    h = [Q(0)] * alg.dim
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
    """Marker of an `undecided` verdict: no exact tier applied.  `trials` is
    always 0 (no tier searches at random); `note` names the tiers that ran."""
    trials: int
    note: str


def _system_degree(eqs):
    return max((len(mono) for p in eqs for mono in p.terms), default=0)


def _solve_affine_system(eqs, nvars):
    """Exact solve of an affine system of Polynomials.  Returns
    ('witness', values) or ('infeasible', equation index)."""
    if not eqs:
        return ("witness", [Q(0)] * nvars)
    rows, rhs = [], []
    for p in eqs:
        row = [Q(0)] * nvars
        const = Q(0)
        for mono, c in p.terms.items():
            if len(mono) == 0:
                const += c
            elif len(mono) == 1:
                row[mono[0]] += c
            else:
                raise AssertionError("not affine")
        rows.append(row)
        rhs.append(-const)
    if nvars == 0:
        for i, v in enumerate(rhs):
            if v != 0:
                return ("infeasible", i)
        return ("witness", [])
    sol = linalg.solve(rows, rhs)
    if sol is None:
        return ("infeasible", None)
    return ("witness", sol)


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
    """Polynomial system for a layer-preserving right inverse R of L that is
    also a Lie homomorphism.  R = S0 + sum_t c_t E_t with E_t ranging over
    (kernel vector, codomain basis vector) pairs of equal layer; the equations
    are [R w_a, R w_b] - R [w_a, w_b] = 0 on codomain basis pairs.  L o R = Id
    holds identically by construction.  Returns the equations, the columns
    R w_b as vectors of Polynomials in the unknowns c_t, and the number of
    unknowns."""
    G, M = L.domain, L.codomain
    cols, nvars = [], 0
    for b in range(M.dim):
        s0 = linalg.solve(L.matrix, list(M.basis_coords(b)))
        assert s0 is not None, "not surjective"
        col = [{(): c} for c in s0]
        for kv in kernel.layer_basis(M.layer_of[b]):
            for terms, c in zip(col, kv):
                terms[(nvars,)] = c
            nvars += 1
        cols.append([Polynomial(terms) for terms in col])
    eqs = []
    for a, b in itertools.combinations(range(M.dim), 2):
        br = M.bracket_coords(M.basis_coords(a), M.basis_coords(b))
        image = [sum((col[k] * w for w, col in zip(br, cols) if w), Polynomial())
                 for k in range(G.dim)]
        brackets = G.bracket_coords(cols[a], cols[b])
        eqs += [e for e in (u - v for u, v in zip(brackets, image)) if e]
    return eqs, cols, nvars


# ---------------------------------------------------------------------------
# symplectic machinery for step-2 H-type complements
# ---------------------------------------------------------------------------

def _omega_form(algebra, z_index):
    """The bilinear form omega(a, b) = coefficient of basis vector z_index in
    [a, b], restricted to first-layer coordinates."""
    idx = algebra.layer_indices(1)
    m = len(idx)
    W = [[Q(0)] * m for _ in range(m)]
    for p, q in itertools.combinations(range(m), 2):
        c = algebra.bracket_coords(algebra.basis_coords(idx[p]),
                                   algebra.basis_coords(idx[q]))[z_index]
        W[p][q], W[q][p] = c, -c
    return W, idx


def _omega_of(W, u, v):
    return sum((u[i] * sum((W[i][j] * v[j] for j in range(len(v))), Q(0))
                for i in range(len(u))), Q(0))


def _symplectic_pairs(W, vectors):
    """Rational symplectic Gram-Schmidt: returns (pairs, kernel_basis) for the
    restriction of W to span(vectors).  Pairs (a, b) satisfy omega(a,b) = 1
    and are mutually omega-orthogonal; kernel carries the radical."""
    rows = [list(v) for v in linalg.row_space_basis([list(v) for v in vectors])]
    pairs = []
    while True:
        found = None
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                om = _omega_of(W, rows[i], rows[j])
                if om != 0:
                    found = (i, j, om)
                    break
            if found:
                break
        if not found:
            return pairs, rows
        i, j, om = found
        a = rows[i]
        b = [x / om for x in rows[j]]
        rest = [rows[t] for t in range(len(rows)) if t not in (i, j)]
        newrows = []
        for v in rest:
            lam = _omega_of(W, v, b)
            mu = _omega_of(W, v, a)
            vv = [x - lam * ya + mu * yb for x, ya, yb in zip(v, a, b)]
            newrows.append(vv)
        pairs.append((a, b))
        rows = [r for r in linalg.row_space_basis(newrows)] if newrows else []


def _omega_orthogonal(W, vectors, ambient_rows):
    """Basis of {x in span(ambient_rows) : omega(v, x) = 0 for all v}."""
    if not vectors:
        return [list(r) for r in ambient_rows]
    m = []
    for v in vectors:
        m.append([_omega_of(W, v, r) for r in ambient_rows])
    out = []
    for k in linalg.nullspace(m):
        vec = [sum((k[t] * ambient_rows[t][d] for t in range(len(ambient_rows))), Q(0))
               for d in range(len(ambient_rows[0]))]
        out.append(vec)
    return linalg.row_space_basis(out)


def heisenberg_complement(algebra, n1):
    """Commutative horizontal complement of a horizontal subspace n1 of the
    first layer of h^n, with dim n1 >= n (the kernel part of an abelian
    quotient).  Constructive and exact.

    The construction is the symplectic normal form of the classical
    orthonormal one: kernel directions of omega|_{n1} get their symplectic
    duals, and each leftover symplectic pair outside n1 is glued to one
    inside as (c + a, d - b); both families are omega-isotropic, i.e.
    commutative, and transversal to n1.
    """
    n = algebra.tags.get("heisenberg_n")
    if n is None:
        raise ValueError("heisenberg_complement needs a Heisenberg group")
    if isinstance(n1, HomogeneousSubalgebra):
        if any(l != 1 for l in n1.layered_bases):
            raise ValueError("n1 must be horizontal")
        vecs = n1.layer_basis(1)
    else:
        vecs = [list(map(Q, v)) for v in n1]
    z_index = algebra.layer_indices(2)[0]
    W, idx = _omega_form(algebra, z_index)
    rows = linalg.row_space_basis([[v[k] for k in idx] for v in vecs])
    for v in vecs:
        for k, c in enumerate(v):
            if c != 0 and algebra.layer_of[k] != 1:
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
        rhs = [Q(1) if t == i else Q(0) for t in range(m)]
        sol = linalg.solve(mrows, rhs)
        assert sol is not None, "symplectic dual solve failed"
        h = [sum((sol[t] * vprime[t][d] for t in range(len(vprime))), Q(0))
             for d in range(2 * n)]
        for j, prev in enumerate(duals):
            lam = _omega_of(W, prev, h)
            h = [x + lam * g2 for x, g2 in zip(h, kernel[j])]
        duals.append(h)
    vsecond = _omega_orthogonal(W, kernel + duals, vprime)
    pairs_v, rad = _symplectic_pairs(W, vsecond)
    assert not rad, "residual symplectic space must be nondegenerate"
    q = len(pairs_v)
    assert q == n - l - m and q <= l, "dimension bookkeeping failed"
    out = list(duals)
    for t in range(q):
        c, d = pairs_v[t]
        a, b = pairs_w[t]
        out.append([x + y for x, y in zip(c, a)])
        out.append([x - y for x, y in zip(d, b)])
    full = []
    for v in out:
        vec = [Q(0)] * algebra.dim
        for pos, k in enumerate(idx):
            vec[k] = v[pos]
        full.append(vec)
    s = layered_decomposition(algebra, full)
    # exact verification before returning
    for u, v in itertools.combinations(s.layer_basis(1), 2):
        assert all(c == 0 for c in algebra.bracket_coords(u, v)), \
            "complement is not commutative"
    assert linalg.rank([list(r) for r in rows] +
                       [[v[k] for k in idx] for v in s.layer_basis(1)]) == 2 * n
    assert s.total_dim == k_out
    return s


def h21_complement(algebra, nsub):
    """Complement construction in the complexified Heisenberg group for an
    ideal n = n1 + center with dim n1 = 2.

    Commutative case: J_z(X) for any nonzero X in n1 (invariant under the
    adapted rotation of the center basis).  Non-commutative case: the
    two-vector family with a free parameter lambda, scanned over rationals
    until the exact direct-sum and commutativity checks pass (only finitely
    many lambda are excluded).
    """
    if not algebra.tags.get("complexified_heisenberg"):
        raise ValueError("h21_complement needs the complexified Heisenberg group")
    data = algebra.tags["htype"]
    if isinstance(nsub, HomogeneousSubalgebra):
        n1 = nsub.layer_basis(1)
        n2 = nsub.layer_basis(2)
        if len(n2) != 2:
            raise ValueError("the ideal must contain the center")
    else:
        n1 = [list(map(Q, v)) for v in nsub]
        n2 = [list(algebra.basis_coords(4)), list(algebra.basis_coords(5))]
    if len(n1) != 2:
        raise ValueError("dim n1 must be 2")
    v = [x for x in n1[0][:4]]
    w = [x for x in n1[1][:4]]
    z = algebra.bracket_coords(tuple(n1[0]), tuple(n1[1]))[4:6]

    def apply_j(zc, x):
        jm = data.j_of(zc)
        return [sum((jm[r][s] * x[s] for s in range(4)), Q(0)) for r in range(4)]

    def lift(xs):
        return [list(x) + [Q(0), Q(0)] for x in xs]

    def good(cand):
        br = algebra.bracket_coords(tuple(cand[0]), tuple(cand[1]))
        if any(c != 0 for c in br):
            return False
        stacked = [list(x) for x in cand] + [list(x) for x in n1] + [list(x) for x in n2]
        return linalg.rank(stacked) == 6

    if all(c == 0 for c in z):
        # commutative case: J_{z1} X and J_{z2} X for the declared center basis
        x = v if any(c != 0 for c in v) else w
        cand = lift([apply_j([Q(1), Q(0)], x), apply_j([Q(0), Q(1)], x)])
        if not good(cand):
            raise AssertionError("commutative-case construction failed verification")
        return layered_decomposition(algebra, cand)
    zperp = [-z[1], z[0]]
    qnorm = z[0] * z[0] + z[1] * z[1]
    x = v
    jz_x = apply_j(list(z), x)
    jzp_x = apply_j(zperp, x)
    jzjzp_x = apply_j(list(z), apply_j(zperp, x))
    for lam in _lambda_candidates():
        u1 = [a - lam * b for a, b in zip(x, jzp_x)]
        u2 = [lam * qnorm * a + b for a, b in zip(jz_x, jzjzp_x)]
        cand = lift([u1, u2])
        if good(cand):
            return layered_decomposition(algebra, cand)
    raise AssertionError("no admissible lambda found; should not occur")


def _lambda_candidates():
    out = []
    for k in range(1, 20):
        out.extend([Q(k), Q(-k), Q(1, k + 1), Q(-1, k + 1)])
    return out


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def _witness_json(verdict, witness):
    """The JSON form shared by both classifications: the witness basis as
    rational strings, or the certificate (nonexistence or undecided marker)."""
    out = {"verdict": verdict, "witness_basis": None, "certificate": None}
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

    def to_json_dict(self):
        return _witness_json(self.verdict, self.witness)


@dataclass
class MonoClassification:
    verdict: str               # h_monomorphism | not_injective | undecided
    normal_complement: object = None
    projection: object = None  # GradedMorphism p with p|_H = Id
    image: object = None

    def to_json_dict(self):
        return _witness_json(self.verdict, self.normal_complement)


def _abelian_image(M):
    return all(M.layer_of[k] == 1 for k in range(M.dim))


def classify_epimorphism(L):
    """Decide whether a surjective h-homomorphism admits an h-homomorphism
    right inverse, equivalently whether its kernel has a complementary
    homogeneous subgroup.  Returns the witness subalgebra, a nonexistence
    certificate, or an undecided marker naming the exact tiers that ran.
    L is surjective exactly when its kernel has dimension dim G - dim M."""
    rep = check_h_homomorphism(L)
    if not rep.is_h_homomorphism:
        raise ValueError("input is not an h-homomorphism: %s" % rep.violations)
    kernel = layered_decomposition(L.domain, L.kernel_basis())
    if kernel.total_dim != L.domain.dim - L.codomain.dim:
        return EpiClassification("not_surjective")
    return _split_kernel(L, kernel)


def _split_kernel(L, kernel):
    """The exact tiers for a surjective h-homomorphism L with the given
    kernel: the right-inverse system (affine, or its zero correction), the
    closed forms and the isotropic rank bound for abelian images, the
    unit-ideal test, else undecided.  An isomorphism gives an empty system
    and the whole domain."""
    eqs, cols, nvars = _right_inverse_system(L, kernel)

    def witness(values):
        return layered_decomposition(L.domain, [[p(values) for p in col] for col in cols])

    deg = _system_degree(eqs)
    if deg <= 1:
        status, data = _solve_affine_system(eqs, nvars)
        if status == "witness":
            return EpiClassification("h_epimorphism", witness(data), kernel)
        cert = NonexistenceCertificate(
            "affine_infeasible",
            "the right-inverse equations are affine in the kernel corrections "
            "and exactly inconsistent")
        return EpiClassification("surjective_not_epi", cert, kernel)
    # quadratic tier: cheap witnesses first
    zero_vals = [Q(0)] * nvars
    if not any(p(zero_vals) for p in eqs):
        return EpiClassification("h_epimorphism", witness(zero_vals), kernel)
    G, M = L.domain, L.codomain
    tiers = ["zero correction"]
    if _abelian_image(M):
        tiers += ["abelian closed forms", "isotropic rank bound"]
        closed = _abelian_kernel_complement(G, kernel, M.dim)
        if closed is not None:
            if isinstance(closed, HomogeneousSubalgebra):
                return EpiClassification("h_epimorphism", closed, kernel)
            return EpiClassification("surjective_not_epi", closed, kernel)
    if nvars <= UNIT_IDEAL_MAX_VARS:
        tiers.append("unit-ideal test of degree <= 1")
        d = _unit_ideal_degree(eqs, nvars)
        if d is not None:
            cert = NonexistenceCertificate(
                "unit_ideal",
                "degree %d: 1 is a rational combination of the right-inverse "
                "equations times monomials of degree <= %d" % (d, d))
            return EpiClassification("surjective_not_epi", cert, kernel)
    note = "%d-unknown quadratic system; ran: %s" % (nvars, ", ".join(tiers))
    return EpiClassification("undecided", BudgetExhausted(0, note), kernel)


def _abelian_kernel_complement(G, kernel, k):
    """Closed forms for kernels of abelian quotients: the kernel contains all
    layers >= 2 and a complement is a commutative horizontal transversal of
    its first-layer part, of dimension k.  A quadratic system has k >= 2
    codomain directions and two kernel directions in the first layer, so on
    h12, whose first layer has dimension 4, k is 2."""
    hn = G.tags.get("heisenberg_n")
    if hn is not None and k <= hn:
        return heisenberg_complement(G, kernel.layer_basis(1))
    if G.tags.get("complexified_heisenberg"):
        return h21_complement(G, kernel.layer_basis(1))
    bound = _isotropic_bound(G)
    if bound < k:
        return NonexistenceCertificate(
            "isotropic_dimension_bound",
            "commutative horizontal subalgebras have dimension <= %d < %d"
            % (bound, k))
    return None


def classify_monomorphism(T, budget=2000, seed=0):
    """Decide whether an injective h-homomorphism admits an h-homomorphism
    left inverse, equivalently whether its image has a normal complementary
    subgroup; returns the projection p with p|_H = Id when found.  The one
    tier tries the coordinate complements of the image, the span of T's
    columns, else `undecided`; `budget` and `seed` are unread.  T is
    injective exactly when its image has dimension dim H."""
    rep = check_h_homomorphism(T)
    if not rep.is_h_homomorphism:
        raise ValueError("input is not an h-homomorphism: %s" % rep.violations)
    M = T.codomain
    image = layered_decomposition(M, linalg.transpose(T.matrix))
    if image.total_dim != T.domain.dim:
        return MonoClassification("not_injective")
    # the canonical complement comes first: it is an ideal complement when
    # the image is horizontal, and zero when the image is all of M
    n = next((c for c in _coordinate_complements(image) if is_ideal(c)), None)
    if n is not None:
        return MonoClassification("h_monomorphism", n,
                                  _projection_along(M, image, n), image)
    note = "ran: coordinate complements of the image; none is an ideal"
    return MonoClassification("undecided", BudgetExhausted(0, note), None, image)


def _coordinate_complements(sub):
    """The complements of sub spanned by basis vectors, layer by layer, that
    are closed under the bracket, found depth first over the layers.  Each
    layer takes every set of its basis vectors that completes sub's layer and
    holds the brackets of the lower layers already chosen; the canonical set
    (the non-pivot columns of sub's layer) comes first, so the canonical
    complement, when it is a subalgebra, is the first one yielded."""
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
        # the support of [e_a, e_b], read from the structure table
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


def _projection_along(M, image, normal):
    """Linear projection onto the image along the normal complement; a Lie
    homomorphism because the complement is an ideal."""
    cols = [list(v) for v in image.basis()] + [list(v) for v in normal.basis()]
    amat = [[cols[c][r] for c in range(len(cols))] for r in range(M.dim)]
    ainv = linalg.inverse(amat)
    assert ainv is not None
    hdim = image.total_dim
    hmat = [[cols[c][r] if c < hdim else Q(0) for c in range(len(cols))]
            for r in range(M.dim)]
    proj = linalg.matmul(hmat, ainv)
    return GradedMorphism(M, M, proj)


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


def _isotropic_bound(algebra):
    """Upper bound on the dimension of a commutative subalgebra inside the
    first layer V1.  Such a subspace is isotropic for each combination
    omega_c = sum_f c_f omega_f of the forms of the second-layer basis
    vectors, so its dimension is at most dim V1 - rank(omega_c) / 2.  The
    minimum runs over the unit combinations and the moment-curve points
    c = (1, t, ..., t^(F-1)), t = 2 .. 2 dim V1 + 1."""
    m = len(algebra.layer_indices(1))
    forms = [_omega_form(algebra, z)[0] for z in algebra.layer_indices(2)]
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
    idx1 = algebra.layer_indices(1)
    forms = [_omega_form(algebra, z)[0] for z in algebra.layer_indices(2)]
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
    witness_rows = []
    for v in best:
        vec = [Q(0)] * algebra.dim
        for pos, k in enumerate(idx1):
            vec[k] = v[pos]
        witness_rows.append(vec)
    witness = layered_decomposition(algebra, witness_rows)
    exact = len(best) == bound
    note = "" if exact else "lower bound from one greedy pass; upper bound %d" % bound
    return MaxCommutativeReport(len(best), witness, bound, exact, note)


# ---------------------------------------------------------------------------
# complement search for a given homogeneous subgroup
# ---------------------------------------------------------------------------

def find_complement(sub, budget=4000, seed=0):
    """Complementary homogeneous subgroup of `sub`, when one can be found.

    An ideal is the kernel of its quotient projection, a surjective
    h-homomorphism, so it goes straight to the exact tiers (certificates
    included), the zero and whole algebras too.  A non-ideal gets its first
    coordinate complement that is a subalgebra, else `undecided`:
    nonexistence is never claimed for it.  `budget` and `seed` are unread."""
    if is_ideal(sub):
        return _split_kernel(_quotient(sub.algebra, sub)[1], sub)
    cand = next(_coordinate_complements(sub), None)
    if cand is not None:
        return EpiClassification("h_epimorphism", cand, sub)
    note = "non-ideal; ran: coordinate complements; none is a subalgebra"
    return EpiClassification("undecided", BudgetExhausted(0, note), sub)


def random_complementary_pairs(algebra, rng, count):
    """Search-generated complementary pairs for property tests, from at most
    4000 trials.

    Mixes (a) vertical kernels with their constructive horizontal
    complements (Heisenberg-type groups), and (b) fully random homogeneous
    subalgebra pairs kept when exactly complementary.  Every returned pair is
    re-verified with is_complementary."""
    out = []
    hn = algebra.tags.get("heisenberg_n")
    is_h12 = bool(algebra.tags.get("complexified_heisenberg"))
    idx1 = algebra.layer_indices(1)
    trials = 0
    while len(out) < count and trials < 4000:
        trials += 1
        mode = trials % 3
        if mode != 2 and (hn or is_h12):
            target = 2 if is_h12 else int(rng.integers(hn, 2 * hn))
            rows = []
            while linalg.rank(rows) < target:
                v = [Q(0)] * algebra.dim
                for k in idx1:
                    v[k] = Q(int(rng.integers(-3, 4)), int(rng.integers(1, 3)))
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
