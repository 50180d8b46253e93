"""Layer-preserving linear maps between graded algebras.

A GradedMorphism holds the matrix of a linear map in the fixed graded bases
(columns = images of domain basis vectors).  It is the common container for
algebra homomorphisms, projections and Pansu differentials; the homomorphism
flags read one exact report, computed on demand and cached.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import lcm

import numpy as np

from . import linalg

Q = Fraction


class GradedMorphism:
    def __init__(self, domain, codomain, matrix):
        self.domain = domain
        self.codomain = codomain
        if isinstance(matrix, np.ndarray):
            self.matrix = np.asarray(matrix, dtype=float)
            shape = self.matrix.shape
        else:
            self.matrix = [[Q(c) for c in row] for row in matrix]
            widths = {len(r) for r in self.matrix} or {domain.dim}
            shape = (len(self.matrix), widths.pop() if len(widths) == 1 else "ragged")
        if shape != (codomain.dim, domain.dim):
            raise ValueError("matrix: expected shape %d x %d (codomain dim x domain "
                             "dim), got %s" % (codomain.dim, domain.dim,
                                               " x ".join(map(str, shape))))
        self._report = None

    @property
    def scalar_mode(self):
        return "float" if isinstance(self.matrix, np.ndarray) else "exact"

    def _require_exact(self, what):
        if self.scalar_mode != "exact":
            raise ValueError("%s needs an exact morphism" % what)

    def to_float(self):
        if self.scalar_mode == "float":
            return self
        return GradedMorphism(self.domain, self.codomain,
                              np.array([[float(c) for c in row] for row in self.matrix]))

    def column(self, j):
        if self.scalar_mode == "float":
            return self.matrix[:, j]
        return tuple(self.matrix[k][j] for k in range(self.codomain.dim))

    def apply_coords(self, x):
        if self.scalar_mode == "float":
            return self.matrix @ np.asarray(x, dtype=float)
        return tuple(linalg.matvec(self.matrix, list(x)))

    def __call__(self, v):
        if v.algebra != self.domain:
            raise ValueError("algebra mismatch: the vector is not in the domain")
        if self.scalar_mode == "float" or v.scalar_mode == "float":
            m = self.to_float()
            return type(v)(self.codomain, m.matrix @ np.asarray(
                v.to_float().coords, dtype=float))
        return type(v)(self.codomain, self.apply_coords(v.coords))

    def compose(self, other):
        """self after other."""
        if other.codomain != self.domain:
            raise ValueError("compose needs other.codomain == self.domain")
        if self.scalar_mode == "float" or other.scalar_mode == "float":
            return GradedMorphism(other.domain, self.codomain,
                                  self.to_float().matrix @ other.to_float().matrix)
        return GradedMorphism(other.domain, self.codomain,
                              linalg.matmul(self.matrix, other.matrix))

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

    def is_surjective(self):
        if self.scalar_mode == "exact":
            return linalg.rank(self.matrix) == self.codomain.dim
        return np.linalg.matrix_rank(self.matrix) == self.codomain.dim

    def is_injective(self):
        if self.scalar_mode == "exact":
            return linalg.rank(self.matrix) == self.domain.dim
        return np.linalg.matrix_rank(self.matrix) == self.domain.dim

    def kernel_basis(self):
        """Exact basis of the kernel (list of coordinate vectors).  A map
        onto the zero space has no matrix rows and the whole domain as kernel."""
        self._require_exact("kernel_basis")
        return linalg.nullspace(self.matrix) if self.matrix else linalg.identity(self.domain.dim)

    def image_basis(self):
        self._require_exact("image_basis")
        return linalg.row_space_basis(linalg.transpose(self.matrix))

    def determinant_is_one(self):
        """For endomorphisms given exactly: det == 1."""
        self._require_exact("determinant_is_one")
        if self.domain.dim != self.codomain.dim:
            raise ValueError("determinant_is_one needs an endomorphism")
        m = [list(r) for r in self.matrix]
        n = len(m)
        det = Q(1)
        for c in range(n):
            piv = next((r for r in range(c, n) if m[r][c] != 0), None)
            if piv is None:
                return False
            if piv != c:
                m[c], m[piv] = m[piv], m[c]
                det = -det
            det *= m[c][c]
            inv = 1 / m[c][c]
            for r in range(c + 1, n):
                if m[r][c] != 0:
                    f = m[r][c] * inv
                    m[r] = [a - f * b for a, b in zip(m[r], m[c])]
        return det == 1

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
    basis pairs, checked on the matrix scaled once to integers (exact
    arithmetic only: a float morphism is never reported a Lie homomorphism).
    h-homomorphism iff both hold."""
    if L._report is None:
        dom, cod = L.domain, L.codomain
        exact = L.scalar_mode == "exact"
        violations = [("layer", j, k) for j in range(dom.dim) for k in range(cod.dim)
                      if cod.layer_of[k] != dom.layer_of[j]
                      and (L.matrix[k][j] if exact else L.matrix[k, j]) != 0]
        layer_ok, lie_ok = not violations, exact
        if exact:
            # L[e_i, e_j] = [L e_i, L e_j] times d^2 and both struct_den, for
            # M = d L in integers: all of it on the integer tables
            d = lcm(*(c.denominator for row in L.matrix for c in row))
            M = [[c.numerator * (d // c.denominator) for c in row] for row in L.matrix]
            cols = [tuple(row[j] for row in M) for j in range(dom.dim)]
            left, right = d * cod.struct_den, dom.struct_den
            for i, j in combinations(range(dom.dim), 2):
                br = dom.bracket_num(dom.basis_coords(i), dom.basis_coords(j))
                if [left * c for c in linalg.matvec(M, br)] != \
                        [right * c for c in cod.bracket_num(cols[i], cols[j])]:
                    violations.append(("bracket", i, j))
                    lie_ok = False
        L._report = HomReport(is_lie_hom=lie_ok, is_layer_preserving=layer_ok,
                              violations=violations)
    return L._report
