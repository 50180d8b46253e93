from fractions import Fraction as Q

import numpy as np
import pytest

from carnot import catalog
from carnot.algebra import (AlgebraVector, GradedAlgebra, bracket, homogeneous_dimension,
                            is_stratified, validate_grading)
from carnot.catalog import (HTypeData, free_lie_extension, free_nilpotent,
                            h_type_from_J, hall_trees, witt_dimension)
from carnot.morphism import check_h_homomorphism
from conftest import rational_vector


def basis(g, k):
    return AlgebraVector(g, g.basis_coords(k))


def test_heisenberg_matches_single_bracket_table(h1):
    assert h1.dim == 3 and h1.step == 2
    assert bracket(basis(h1, 0), basis(h1, 1)).coords == (0, 0, 1)
    assert validate_grading(h1).ok
    assert homogeneous_dimension(catalog.heisenberg(4)) == 10


def test_complexified_heisenberg_table(h12):
    r0, r1, r2, r3 = (basis(h12, k) for k in range(4))
    z1 = (0, 0, 0, 0, 1, 0)
    z2 = (0, 0, 0, 0, 0, 1)
    assert bracket(r0, r1).coords == z1
    assert bracket(r2, r3).coords == z1
    assert bracket(r0, r2).coords == z2
    assert bracket(r1, r3).coords == tuple(-c for c in z2)
    assert bracket(r1, r2).coords == (0,) * 6
    assert bracket(r0, r3).coords == (0,) * 6


def test_h_type_validation(h12, rng):
    # |J_Z X| = |Z| |X| exactly on rational samples from the induced J
    data = h12.tags["htype"]
    for _ in range(20):
        zc = [Q(int(rng.integers(-3, 4))) for _ in range(2)]
        xc = [Q(int(rng.integers(-3, 4))) for _ in range(4)]
        jm = data.j_of(zc)
        jx = [sum(jm[r][s] * xc[s] for s in range(4)) for r in range(4)]
        lhs = sum(c * c for c in jx)
        rhs = sum(c * c for c in zc) * sum(c * c for c in xc)
        assert lhs == rhs


def test_keyhtype_and_polarization(h12, rng):
    # [X, J_Z X] = |X|^2 Z for unit-ish Z, exactly on rational combinations
    data = h12.tags["htype"]
    for _ in range(20):
        xc = [Q(int(rng.integers(-3, 4)), int(rng.integers(1, 3))) for _ in range(4)]
        for zi in range(2):
            zc = [Q(1) if t == zi else Q(0) for t in range(2)]
            jm = data.j_of(zc)
            jx = [sum(jm[r][s] * xc[s] for s in range(4)) for r in range(4)]
            br = h12.bracket_coords(tuple(xc) + (Q(0),) * 2, tuple(jx) + (Q(0),) * 2)
            normsq = sum(c * c for c in xc)
            expect = [Q(0)] * 4 + [normsq * zc[0], normsq * zc[1]]
            assert list(br) == expect


def test_h_type_rejects_scaled_rotation():
    # J = 2 * rotation violates |J_Z X| = |Z||X|
    j = [[Q(0), Q(-2)], [Q(2), Q(0)]]
    with pytest.raises(ValueError):
        h_type_from_J(HTypeData(dim_v=2, dim_z=1, j_matrices=[j]))


def test_h_type_rejects_non_skew():
    j = [[Q(0), Q(1)], [Q(1), Q(0)]]
    with pytest.raises(ValueError):
        h_type_from_J(HTypeData(dim_v=2, dim_z=1, j_matrices=[j]))


def test_h1_from_J():
    j = [[Q(0), Q(-1)], [Q(1), Q(0)]]  # J x = y, J y = -x
    g = h_type_from_J(HTypeData(dim_v=2, dim_z=1, j_matrices=[j]), name="h1J")
    assert g.dim == 3 and g.step == 2
    assert g.bracket_coords(g.basis_coords(0), g.basis_coords(1)) == (0, 0, 1)


def test_free_nilpotent_dimensions():
    assert [witt_dimension(2, d) for d in (1, 2, 3, 4, 5, 6)] == [2, 1, 2, 3, 6, 9]
    f22 = free_nilpotent(2, 2)
    assert f22.dim == 3 and f22.layer_dims() == [2, 1]
    f23 = free_nilpotent(2, 3)
    assert f23.dim == 5
    assert free_nilpotent(3, 3).layer_dims() == [3, 3, 8]
    for name in ("free_2_4", "free_2_6", "free_3_3"):
        g = catalog.get(name)
        assert validate_grading(g).ok and is_stratified(g)


def test_free_nilpotent_budget():
    with pytest.raises(ValueError):
        free_nilpotent(5, 5)  # dim 829 >> 200


def test_universal_property(rng):
    f22 = free_nilpotent(2, 2)
    h2 = catalog.get("h2")
    # arbitrary horizontal images extend to a homomorphism
    images = []
    for _ in range(2):
        v = [Q(int(rng.integers(-3, 4))) for _ in range(4)] + [Q(0)]
        images.append(tuple(v))
    L = free_lie_extension(f22, h2, images)
    rep = check_h_homomorphism(L)
    assert rep.is_lie_hom
    # generator permutation extends to an automorphism
    f23 = free_nilpotent(2, 3)
    perm = free_lie_extension(f23, f23, [f23.basis_coords(1), f23.basis_coords(0)])
    assert perm.is_lie_hom() and perm.is_injective() and perm.is_surjective()


def test_direct_product(h1):
    prod = catalog.direct_product(h1, h1)
    assert homogeneous_dimension(prod) == 8
    assert validate_grading(prod).ok
    # cross brackets vanish
    x_left = AlgebraVector(prod, prod.basis_coords(0))
    y_right = AlgebraVector(prod, prod.basis_coords(4))
    assert all(c == 0 for c in bracket(x_left, y_right).coords)
    # built from the two integer tables over the lcm of their denominators,
    # without validation: it equals the validated construction on the
    # Fraction table, entry order and floats included
    from test_bch import _fractional_table
    frac = _fractional_table()
    for a, b in [(h1, h1), (frac, h1), (h1, frac), (frac, frac)]:
        struct = dict(a.struct)
        struct.update({(i + a.dim, j + a.dim): {k + a.dim: c for k, c in t.items()}
                       for (i, j), t in b.struct.items()})
        want = GradedAlgebra("ref", a.layer_of + b.layer_of, struct)
        got = catalog.direct_product(a, b)
        assert (got.struct_num, got.struct_den) == (want.struct_num, want.struct_den)
        assert got == want and hash(got) == hash(want) and got.struct == want.struct
        assert got.float_ops().entries == want.float_ops().entries


def test_example_g42(g42):
    assert g42.dim == 7 and validate_grading(g42).ok and is_stratified(g42)
    x2, x3, x4 = (AlgebraVector(g42, g42.basis_coords(k)) for k in (1, 2, 3))
    assert bracket(x2, x3).coords[4] == 1
    assert bracket(x2, x4).coords[5] == 1
    assert bracket(x3, x4).coords[6] == 1


def test_free_quotient_projection(rng):
    # the projection from free_3_2 onto free_2_2 (kill the third generator)
    # is a surjective h-homomorphism
    f32 = free_nilpotent(3, 2)
    f22 = free_nilpotent(2, 2)
    images = [f22.basis_coords(0), f22.basis_coords(1), f22.zero_coords()]
    L = free_lie_extension(f32, f22, images)
    rep = check_h_homomorphism(L)
    assert rep.is_h_homomorphism and L.is_surjective()


def test_ad_surjective_onto_center_h12(h12, rng):
    # for X != 0 in the first layer, ad X : v -> z has exact rank 2
    from carnot import linalg
    for _ in range(100):
        xc = [Q(int(rng.integers(-4, 5)), int(rng.integers(1, 3)))
              for _ in range(4)]
        if all(c == 0 for c in xc):
            continue
        x = tuple(xc) + (Q(0),) * 2
        rows = []
        for k in range(4):
            br = h12.bracket_coords(x, h12.basis_coords(k))
            rows.append([br[4], br[5]])
        assert linalg.rank(rows) == 2


def test_matrix_model_identity(h1):
    m = catalog.matrix_model(h1)
    assert m.size == 3
    with pytest.raises(ValueError):
        catalog.matrix_model(catalog.get("g42"))


def test_complementary_non_normal_pair(h12):
    # a = span{r0, r3, z1}, b = span{r1, r2, z2}: complementary, neither ideal
    from carnot.subgroups import is_complementary, is_ideal, span_subalgebra
    a = span_subalgebra(h12, [1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0],
                        [0, 0, 0, 0, 1, 0])
    b = span_subalgebra(h12, [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0],
                        [0, 0, 0, 0, 0, 1])
    assert is_complementary(a, b)
    assert not is_ideal(a) and not is_ideal(b)
    # both are commutative
    for sub in (a, b):
        bs = sub.basis()
        for i in range(len(bs)):
            for j in range(i + 1, len(bs)):
                assert all(c == 0 for c in h12.bracket_coords(bs[i], bs[j]))


def test_every_catalog_algebra_validates():
    for name in catalog.catalog_names():
        g = catalog.get(name)
        assert validate_grading(g).ok, name


def test_catalog_get_keeps_one_algebra_per_name():
    # every caller shares one algebra per name, and so the tables it derives
    assert catalog.get("h1") is catalog.get("h1")
    assert catalog.get("free_2_5") is catalog.get("free_2_5")
    assert catalog.get("h12") is not catalog.get("h2_1")
    assert catalog.get("h12") == catalog.get("h2_1")
    # a builder called directly still makes a new, equal algebra
    assert catalog.heisenberg(1) is not catalog.get("h1")
    assert catalog.heisenberg(1) == catalog.get("h1")


def test_catalog_algebras_are_read_only():
    # a shared catalog algebra cannot be changed for the other callers
    h1 = catalog.get("h1")
    with pytest.raises(TypeError):
        h1.tags["x"] = 1
    with pytest.raises(TypeError):
        del h1.tags["matrix_model"]
    assert set(h1.tags) == {"matrix_model"}
    # and so are its other attributes
    with pytest.raises(AttributeError):
        h1.basis_names = ("a", "b", "c")
    with pytest.raises(AttributeError):
        h1.tags = {}
    with pytest.raises(AttributeError):
        del h1.name
    assert h1.basis_names == ("x1", "y1", "z") and h1.name == "h1"
    assert set(catalog.get("free_2_3").tags) == {"hall_trees", "free_generators"}
    assert catalog.get("free_1_3").tags["free_generators"] == (0,)
    assert catalog.get("h12").tags["htype"].dim_z == 2
    # tags given at construction are copied: the caller's dict stays its own
    given = {"note": 1}
    g = GradedAlgebra("r1", [1], {}, tags=given)
    given["note"] = 2
    assert g.tags["note"] == 1
    assert GradedAlgebra._induced("r1", (1,), (), 1).tags == {}


def test_shared_float_tables_and_j_data_are_read_only():
    # catalog.get returns one algebra per name to every caller, so a write
    # into its float tables or its H-type J-data raises instead of changing
    # them for all callers
    import dataclasses
    ops = catalog.get("h1").float_ops()
    with pytest.raises(ValueError, match="read-only"):
        ops.layer_of[0] = 9
    for a in ops.layer_masks[1:] + ops.layer_idx + ops.tail_masks[1:]:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
    data = catalog.get("h12").tags["htype"]
    with pytest.raises(TypeError):
        data.j_matrices[0][1][0] = 5
    with pytest.raises(dataclasses.FrozenInstanceError):
        data.j_matrices = ()
    assert ops.layer_of.tolist() == [1, 1, 2] and data.j_matrices[0][1][0] == 1
