"""Layer-preserving linear maps between graded algebras.

A GradedMorphism holds the matrix of a linear map in the fixed graded bases
(columns = images of domain basis vectors).  It is the common container for
algebra homomorphisms, projections and Pansu differentials; the homomorphism
flags read one exact report, computed on demand and cached.  An exact
morphism holds one primitive ``int_form``, int numerators over one positive
denominator, which every exact operation reads; its ``matrix`` of Fractions,
for the JSON and the float readers, is built from it on first read.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import gcd

import numpy as np

from . import linalg

Q = Fraction


class GradedMorphism:
    def __init__(self, domain, codomain, matrix):
        """`matrix` is a float numpy array, or rows of rational entries,
        which ``linalg.int_form`` reads into the integer form over their
        least common denominator."""
        self.domain = domain
        self.codomain = codomain
        self._matrix = self._form = None
        if isinstance(matrix, np.ndarray):
            self._matrix = np.asarray(matrix, dtype=float)
            shape = self._matrix.shape
        else:
            rows = [list(row) for row in matrix]
            flat, den = linalg.int_form([c for row in rows for c in row])
            flat = iter(flat)
            self._form = ([[next(flat) for _ in row] for row in rows], den)
            widths = {len(r) for r in rows} or {domain.dim}
            shape = (len(rows), widths.pop() if len(widths) == 1 else "ragged")
        if shape != (codomain.dim, domain.dim):
            raise ValueError("matrix: expected shape %d x %d (codomain dim x domain "
                             "dim), got %s" % (codomain.dim, domain.dim,
                                               " x ".join(map(str, shape))))
        self._report = None

    @classmethod
    def from_int_form(cls, domain, codomain, nums, den):
        """The exact morphism with matrix nums / den (den > 0, nums rows of
        ints of the right shape), reduced to its primitive form by one gcd."""
        g = gcd(den, *(x for row in nums for x in row))
        out = cls.__new__(cls)
        out.domain, out.codomain, out._matrix, out._report = domain, codomain, None, None
        out._form = ((nums, den) if g == 1 else
                     ([[x // g for x in row] for row in nums], den // g))
        return out

    @property
    def scalar_mode(self):
        return "float" if self._form is None else "exact"

    @property
    def int_form(self):
        """(nums, den) of an exact morphism: the matrix is nums / den, with
        den > 0 and gcd(den, *nums) == 1."""
        self._require_exact("int_form")
        return self._form

    @property
    def matrix(self):
        """The float array of a float morphism; the rows of Fractions of an
        exact one, built from int_form on first read."""
        if self._matrix is None:
            nums, den = self._form
            self._matrix = [[Q(x, den) for x in row] for row in nums]
        return self._matrix

    def _require_exact(self, what):
        if self.scalar_mode != "exact":
            raise ValueError("%s needs an exact morphism" % what)

    def to_float(self):
        if self.scalar_mode == "float":
            return self
        nums, den = self._form
        # int true division rounds as float(Fraction(x, den)) does; the
        # shape is explicit, so a map onto the zero space has 0 rows
        rows = np.array([[x / den for x in row] for row in nums], dtype=float)
        return GradedMorphism(self.domain, self.codomain,
                              rows.reshape(self.codomain.dim, self.domain.dim))

    def column(self, j):
        if self.scalar_mode == "float":
            return self.matrix[:, j]
        return tuple(self.matrix[k][j] for k in range(self.codomain.dim))

    def apply_coords(self, x):
        """The image coordinates of x: a float array for a float morphism;
        for an exact one, nums x divided by den, so int x and den 1 give ints."""
        if self.scalar_mode == "float":
            return self.matrix @ np.asarray(x, dtype=float)
        nums, den = self._form
        out = linalg.matvec(nums, list(x))
        return tuple(out) if den == 1 else tuple(Q(c, den) for c in out)

    def __call__(self, v):
        if v.algebra != self.domain:
            raise ValueError("algebra mismatch: the vector is not in the domain")
        if self.scalar_mode == "float" or v.scalar_mode == "float":
            m = self.to_float()
            return type(v)(self.codomain, m.matrix @ np.asarray(
                v.to_float().coords, dtype=float))
        (nums, den), (x, xden) = self._form, v.int_form
        return type(v).from_int_form(self.codomain, linalg.matvec(nums, x), den * xden)

    def compose(self, other):
        """self after other."""
        if other.codomain != self.domain:
            raise ValueError("compose needs other.codomain == self.domain")
        if self.scalar_mode == "float" or other.scalar_mode == "float":
            return GradedMorphism(other.domain, self.codomain,
                                  self.to_float().matrix @ other.to_float().matrix)
        (a, da), (b, db) = self._form, other._form
        return GradedMorphism.from_int_form(other.domain, self.codomain,
                                            linalg.matmul(a, b), da * db)

    # -- flags (read from check_h_homomorphism's cached report) --------------
    def is_layer_preserving(self):
        """Equivalent to commuting with dilations: the matrix block from
        domain layer i to codomain layer j vanishes unless i == j."""
        return check_h_homomorphism(self).is_layer_preserving

    def is_lie_hom(self):
        """L[X,Y] = [LX, LY] on all basis pairs, exactly; never claimed for a
        float morphism."""
        return check_h_homomorphism(self).is_lie_hom

    def is_h_homomorphism(self):
        return check_h_homomorphism(self).is_h_homomorphism

    def _rank(self):
        if self.scalar_mode == "exact":
            return linalg.rank(self._form[0])
        return np.linalg.matrix_rank(self.matrix)

    def is_surjective(self):
        return self._rank() == self.codomain.dim

    def is_injective(self):
        return self._rank() == self.domain.dim

    def kernel_basis(self):
        """Exact basis of the kernel (list of coordinate vectors).  A map
        onto the zero space has no matrix rows and the whole domain as kernel."""
        nums = self.int_form[0]
        return linalg.nullspace(nums) if nums else linalg.identity(self.domain.dim)

    def image_basis(self):
        return linalg.row_space_basis(linalg.transpose(self.int_form[0]))

    def determinant_is_one(self):
        """For endomorphisms given exactly: det == 1, i.e. the Bareiss
        determinant of the numerators is den ** dim."""
        nums, den = self.int_form
        if self.domain.dim != self.codomain.dim:
            raise ValueError("determinant_is_one needs an endomorphism")
        return linalg.det(nums) == den ** len(nums)

    def __repr__(self):
        return "GradedMorphism(%s -> %s, %s)" % (
            self.domain.name, self.codomain.name, self.scalar_mode)


def identity_morphism(algebra):
    return GradedMorphism(algebra, algebra, linalg.identity(algebra.dim))


@dataclass
class HomReport:
    is_lie_hom: bool
    is_layer_preserving: bool
    violations: list = field(default_factory=list)

    @property
    def is_h_homomorphism(self):
        return self.is_lie_hom and self.is_layer_preserving


def check_h_homomorphism(L):
    """Diagnostic report, computed once per morphism: block structure of the
    matrix (exact zeros off the layer diagonal) and bracket compatibility on
    basis pairs, checked on the integer form (exact arithmetic only: a float
    morphism is never reported a Lie homomorphism).  h-homomorphism iff both
    hold."""
    if L._report is None:
        dom, cod = L.domain, L.codomain
        exact = L.scalar_mode == "exact"
        m = L._form[0] if exact else L.matrix
        violations = [("layer", j, k) for j in range(dom.dim) for k in range(cod.dim)
                      if cod.layer_of[k] != dom.layer_of[j] and m[k][j] != 0]
        layer_ok, lie_ok = not violations, exact
        if exact:
            # L[e_i, e_j] = [L e_i, L e_j] times den^2 and both struct_den, for
            # nums = den L: all of it on the integer tables
            den = L._form[1]
            cols = [tuple(row[j] for row in m) for j in range(dom.dim)]
            left, right = den * cod.struct_den, dom.struct_den
            for i, j in combinations(range(dom.dim), 2):
                br = dom.bracket_num(dom.basis_coords(i), dom.basis_coords(j))
                if [left * c for c in linalg.matvec(m, br)] != \
                        [right * c for c in cod.bracket_num(cols[i], cols[j])]:
                    violations.append(("bracket", i, j))
                    lie_ok = False
        L._report = HomReport(is_lie_hom=lie_ok, is_layer_preserving=layer_ok,
                              violations=violations)
    return L._report
