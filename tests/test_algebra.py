import math
import os
import subprocess
import sys
from fractions import Fraction as Q

import numpy as np
import pytest

import carnot
from carnot import catalog
from carnot.algebra import (AlgebraVector, GradedAlgebra, GroupElement, bracket,
                            bracket_norm_constant, dilate,
                            homogeneous_dimension, is_stratified,
                            iterated_bracket, project_layer, project_tail,
                            validate_grading, validate_table)
from conftest import rational_vector


def test_validate_grading_h1(h1):
    assert validate_grading(h1).ok


def test_validate_antisymmetry_violation():
    # c_12^3 = c_21^3 = 1 conflicts with antisymmetry
    report = validate_table(3, 2, [1, 1, 2], [(0, 1, 2, 1), (1, 0, 2, 1)])
    assert not report.ok
    assert any(v["kind"] == "antisymmetry" and v["where"] == (0, 1, 2)
               for v in report.violations)


def test_validate_grading_violation():
    # z reassigned to layer 1 breaks layer(k) = layer(i) + layer(j)
    report = validate_table(3, 2, [1, 1, 1], [(0, 1, 2, 1)])
    assert any(v["kind"] == "grading" for v in report.violations)


def test_validate_jacobi_violation():
    # V1 = {e1,e2,e3}, V2 = {e4}, V3 = {e5}; cyclic sum on (e1,e2,e3) gives
    # [e1,e4] + [e3,e4] = 2 e5 != 0
    report = validate_table(5, 3, [1, 1, 1, 2, 3],
                            [(0, 1, 3, 1), (1, 2, 3, 1),
                             (0, 3, 4, 1), (2, 3, 4, 1)])
    assert any(v["kind"] == "jacobi" for v in report.violations)


def test_bracket_h1(h1):
    x = AlgebraVector(h1, [1, 0, 0])
    y = AlgebraVector(h1, [0, 1, 0])
    z = AlgebraVector(h1, [0, 0, 1])
    assert bracket(x, y).coords == (0, 0, 1)
    assert bracket(x, x).coords == (0, 0, 0)
    assert bracket(x, z).coords == (0, 0, 0)


def test_bracket_algebra_mismatch(h1, h2):
    with pytest.raises(ValueError):
        bracket(AlgebraVector(h1, [1, 0, 0]), AlgebraVector(h2, [1, 0, 0, 0, 0]))


def test_iterated_bracket(h1):
    x = AlgebraVector(h1, [1, 0, 0])
    y = AlgebraVector(h1, [0, 1, 0])
    assert iterated_bracket(x, y, 0).coords == y.coords
    assert iterated_bracket(x, y, 1).coords == (0, 0, 1)
    assert iterated_bracket(x, y, 2).coords == (0, 0, 0)


def test_dilate(h1):
    v = AlgebraVector(h1, [Q(1), Q(2), Q(3)])
    assert dilate(v, Q(2)).coords == (2, 4, 12)
    assert dilate(v, 1).coords == v.coords
    with pytest.raises(ValueError):
        dilate(v, 0)
    # span{X + Z} is not dilation invariant: delta_2(X+Z) = 2X + 4Z
    w = AlgebraVector(h1, [1, 0, 1])
    assert dilate(w, 2).coords == (2, 0, 4)


def test_projections(h1, rng):
    v = AlgebraVector(h1, [1, 2, 3])
    assert project_layer(v, 2).coords == (0, 0, 3)
    assert project_tail(v, 1).coords == v.coords
    with pytest.raises(ValueError):
        project_layer(v, 3)
    for _ in range(5):
        x = rational_vector(h1, rng)
        total = project_layer(x, 1) + project_layer(x, 2)
        assert total.coords == x.coords
    # the float projections are the exact ones, bit for bit
    g = catalog.get("free_2_4")
    x = rational_vector(g, rng)
    for i in range(1, g.step + 1):
        for project in (project_layer, project_tail):
            assert np.array_equal(project(x.to_float(), i).coords,
                                  project(x, i).to_float().coords)


def test_homogeneous_dimension(h2, g42):
    assert homogeneous_dimension(catalog.heisenberg(3)) == 8  # 2n + 2
    assert homogeneous_dimension(g42) == 10                   # 4 + 2*3
    assert homogeneous_dimension(catalog.abelian(5)) == 5


def test_homogeneous_dimension_additive(h1, h2):
    prod = catalog.direct_product(h1, h2)
    assert homogeneous_dimension(prod) == \
        homogeneous_dimension(h1) + homogeneous_dimension(h2)


def test_is_stratified(h1):
    assert is_stratified(h1)
    assert is_stratified(catalog.abelian(3))
    # span{X, Z} of h1 as a standalone graded algebra is graded, not stratified
    from carnot.subgroups import span_subalgebra, subalgebra_as_algebra
    sub = subalgebra_as_algebra(span_subalgebra(h1, [1, 0, 0], [0, 0, 1]))
    assert validate_grading(sub).ok and not is_stratified(sub)


def test_jacobi_random_exact(h12, f23, rng):
    for g in (h12, f23):
        for _ in range(10):
            x, y, w = (rational_vector(g, rng) for _ in range(3))
            acc = bracket(x, bracket(y, w)) + bracket(y, bracket(w, x)) \
                + bracket(w, bracket(x, y))
            assert all(c == 0 for c in acc.coords)


def test_dilation_automorphism(f23, rng):
    for _ in range(10):
        x, y = rational_vector(f23, rng), rational_vector(f23, rng)
        r = Q(int(rng.integers(1, 7)), int(rng.integers(1, 4)))
        lhs = dilate(bracket(x, y), r)
        rhs = bracket(dilate(x, r), dilate(y, r))
        assert lhs.coords == rhs.coords


def test_bracket_norm_constant(h1, rng):
    assert bracket_norm_constant(catalog.abelian(4)).sup_observed == 0.0
    c = bracket_norm_constant(h1)
    assert c.sup_observed <= 2.0
    # sampled sup never exceeds the certified bound
    worst = 0.0
    for _ in range(200):
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        fx = h1.float_ops()
        worst = max(worst, float(np.linalg.norm(fx.bracket(x, y))) /
                    (np.linalg.norm(x) * np.linalg.norm(y)))
    assert worst <= c.sup_observed
    # doubling the table doubles the bound
    doubled = GradedAlgebra("2h1", [1, 1, 2], {(0, 1): {2: Q(2)}})
    assert bracket_norm_constant(doubled).sup_observed == \
        pytest.approx(2 * c.sup_observed, rel=1e-12)


def test_scalar_modes(h1):
    v = AlgebraVector(h1, [1, 2, 3])
    assert v.scalar_mode == "exact"
    f = v.to_float()
    assert f.scalar_mode == "float"
    with pytest.raises(ValueError):
        v + f  # no implicit mixing
    assert (f + f).scalar_mode == "float"


def test_zero_dimensional_algebra(h1):
    from carnot.bch import group_product
    from carnot.pdiff import lift_differential
    r0 = catalog.abelian(0)
    assert r0.bracket_coords((), ()) == ()
    e = GroupElement(r0, [])
    assert group_product(e, e).coords == ()
    assert group_product(e.to_float(), e.to_float()).coords.shape == (0,)
    assert lift_differential(h1, r0, []).matrix == []


# each input check of a library constructor or routine, as a script that must
# raise ValueError naming the bad input; also under python -O, where an
# assert would vanish
INPUT_CHECKS = {
    "structure-orientation": (
        "from carnot.algebra import GradedAlgebra\n"
        "GradedAlgebra('bad', [1, 1, 2], {(1, 0): {2: 1}})", "i < j"),
    "iterated-bracket-k": (
        "from carnot import catalog\n"
        "from carnot.algebra import AlgebraVector, iterated_bracket\n"
        "x = AlgebraVector(catalog.get('h1'), [1, 0, 0])\n"
        "iterated_bracket(x, x, -1)", "k >= 0"),
    "bracket-norm-spec": (
        "from carnot import catalog\n"
        "from carnot.algebra import bracket_norm_constant\n"
        "bracket_norm_constant(catalog.get('h1'), 'max')", "Euclidean"),
    "free-series-add": (
        "from carnot.bch import FreeSeries\n"
        "FreeSeries.letter(0, 2).add(FreeSeries.letter(0, 3))", "degree mismatch"),
    "free-series-mul": (
        "from carnot.bch import FreeSeries\n"
        "FreeSeries.letter(0, 2).mul(FreeSeries.letter(0, 3))", "degree mismatch"),
}


@pytest.mark.parametrize("optimized", [False, True], ids=["python", "python-O"])
@pytest.mark.parametrize("probe", sorted(INPUT_CHECKS))
def test_input_check_raises_value_error(probe, optimized):
    script, message = INPUT_CHECKS[probe]
    if not optimized:
        with pytest.raises(ValueError, match=message):
            exec(script, {})
        return
    guarded = "try:\n%s\nexcept ValueError as e:\n    print(e)\n" % "\n".join(
        "    " + line for line in script.splitlines())
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(carnot.__file__)))
    run = subprocess.run([sys.executable, "-O", "-c", guarded], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0 and not run.stderr, run.stderr
    assert message in run.stdout
