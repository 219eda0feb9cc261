import math
from fractions import Fraction

import numpy as np
import pytest

from berg.cyclotomic import CyclotomicField, root_of_unity
from berg.groups import (
    ClosureOverflowError,
    NonUnitaryError,
    UnitaryMatrix,
    exact_nullspace,
    exact_rref,
    generate_group,
    is_fixed_point_free,
    is_reflection,
    matrix_from_json,
    matrix_order,
)
from berg.quotient import deck_sum_kernel
from berg.scalars import ExactComplex, exact


def diag(*values):
    return UnitaryMatrix.diagonal(list(values))


ONE = root_of_unity(1)
MINUS = root_of_unity(2)
I_UNIT = root_of_unity(4)
OMEGA = root_of_unity(3)


def test_scalar_i_group_order_four():
    group = generate_group([UnitaryMatrix.scalar(2, I_UNIT)])
    assert group.order == 4
    assert group.exact
    assert group.verify_axioms()


def test_omega_diag_order_three():
    group = generate_group([diag(OMEGA, OMEGA * OMEGA)])
    assert group.order == 3
    assert group.verify_axioms()


def test_klein_four_group():
    group = generate_group([diag(MINUS, ONE), diag(ONE, MINUS)])
    assert group.order == 4
    assert group.verify_axioms()


def test_float_generators_close():
    theta = 2 * math.pi / 5
    g = UnitaryMatrix([[complex(math.cos(theta), math.sin(theta))]])
    group = generate_group([g])
    assert group.order == 5
    assert not group.exact


def test_non_unitary_rejected():
    with pytest.raises(NonUnitaryError):
        UnitaryMatrix([[2.0 + 0j]])
    with pytest.raises(NonUnitaryError):
        generate_group([UnitaryMatrix([[0.5 + 0j]], check=False)])


def test_a_matrix_with_no_rows_is_refused():
    # a 0x0 matrix acts on C^0, where there is no kernel to take
    for make in (lambda: UnitaryMatrix([]), lambda: UnitaryMatrix.identity(0), lambda: matrix_from_json([])):
        with pytest.raises(ValueError, match="at least one row"):
            make()


def test_closure_overflow():
    theta = math.sqrt(2)  # irrational multiple of pi: infinite closure
    g = UnitaryMatrix([[complex(math.cos(theta), math.sin(theta))]])
    with pytest.raises(ClosureOverflowError):
        generate_group([g], max_order=64)


def test_fixed_point_free_scalar_group():
    group = generate_group([UnitaryMatrix.scalar(2, I_UNIT)])
    report = is_fixed_point_free(group)
    assert report.free and report.witness is None


def test_fixed_point_free_failure_witness():
    group = generate_group([diag(MINUS, ONE)])
    report = is_fixed_point_free(group)
    assert not report.free
    element, vec = report.witness
    # the fixed vector is e_2 up to phase
    assert abs(abs(vec[1]) - 1) < 1e-12 and abs(vec[0]) < 1e-12
    # g e_2, its second column, is e_2 exactly
    assert [row[1] for row in element.entries] == [0, 1]


def test_trivial_group_vacuously_free():
    group = generate_group([UnitaryMatrix.identity(2)])
    assert is_fixed_point_free(group).free


def test_fixed_point_free_on_sphere_samples():
    group = generate_group([UnitaryMatrix.scalar(2, I_UNIT)])
    rng = np.random.default_rng(5)
    for _ in range(100):
        v = rng.normal(size=4)
        v = v / np.linalg.norm(v)
        z = np.array([complex(v[0], v[1]), complex(v[2], v[3])])
        for g in group:
            if g.is_identity():
                continue
            assert np.linalg.norm(g.to_numpy() @ z - z) > 1e-8


def test_reflection_predicate():
    assert is_reflection(diag(MINUS, ONE))
    assert not is_reflection(UnitaryMatrix.scalar(2, I_UNIT))
    assert not is_reflection(UnitaryMatrix.identity(2))


def test_reflection_float_path():
    assert is_reflection(UnitaryMatrix([[-1.0 + 0j, 0j], [0j, 1.0 + 0j]]))


ROTATION_5 = complex(math.cos(2 * math.pi / 5), math.sin(2 * math.pi / 5))


@pytest.mark.parametrize(
    "g, order",
    [
        pytest.param(diag(MINUS, ONE), 2, id="exact-minus"),
        pytest.param(UnitaryMatrix([[-1.0 + 0j, 0j], [0j, 1.0 + 0j]]), 2, id="float-minus"),
        pytest.param(UnitaryMatrix([[ROTATION_5, 0j], [0j, 1.0 + 0j]]), 5, id="float-rotation-5"),
    ],
)
def test_the_fixed_point_witness_is_e2(g, order):
    # every non-identity element fixes exactly the line of e_2: a reflection
    group = generate_group([g])
    assert group.order == order
    report = is_fixed_point_free(group)
    assert not report
    element, vec = report.witness
    assert element == g and vec == (0j, 1 + 0j)
    assert sum(is_reflection(h) for h in group) == order - 1


def test_fixed_point_free_group_has_no_reflections():
    group = generate_group([UnitaryMatrix.scalar(2, I_UNIT)])
    assert is_fixed_point_free(group).free
    assert all(not is_reflection(g) for g in group if not g.is_identity())


def test_matrix_order_and_bound():
    assert matrix_order(diag(OMEGA, OMEGA)) == 3
    theta = math.sqrt(3)
    g = UnitaryMatrix([[complex(math.cos(theta), math.sin(theta))]])
    with pytest.raises(ClosureOverflowError):
        matrix_order(g, bound=50)


def test_determinants():
    assert diag(MINUS, MINUS).det() == 1
    assert UnitaryMatrix.scalar(2, I_UNIT).det() == root_of_unity(4, 2)


def test_matrix_from_json_forms():
    exact = matrix_from_json(
        [
            [{"zeta": 4, "terms": [[1, "1"]]}, [0, 0]],
            [[0, 0], {"zeta": 4, "terms": [[1, "1"]]}],
        ]
    )
    assert exact.exact
    assert exact.det() == root_of_unity(4, 2)
    numeric = matrix_from_json([[[0.0, 1.0]]])
    assert not numeric.exact
    assert abs(numeric.entries[0][0] - 1j) < 1e-15


def test_exact_nullspace_is_the_rref_basis_on_mixed_entries():
    w, wbar = OMEGA, OMEGA.conjugate()
    rows = [[Fraction(1), w, Fraction(1), Fraction(2)], [wbar, Fraction(1), Fraction(0), wbar]]
    reduced, pivots = exact_rref(rows)
    assert pivots == [0, 2]
    assert reduced == [[1, w, 0, 1], [0, 0, 1, 1]]
    # one vector per free column (1, 3): 1 there, 0 at the other free column
    basis = exact_nullspace(rows)
    assert basis == [[-w, 1, 0, 0], [-1, 0, -1, 1]]
    assert all(type(v[c]) is Fraction for v, c in zip(basis, (1, 3)))
    for v in basis:
        for row in rows:
            assert sum((a * x for a, x in zip(row, v)), Fraction(0)) == 0


def test_exact_complex_entries_are_read_by_value():
    g = UnitaryMatrix.diagonal([exact(0, 1), exact(0, -1)])
    written = diag(I_UNIT, I_UNIT.conjugate())
    assert g.exact and g == written
    z, w = (Fraction(1, 3), Fraction(1, 5)), (Fraction(1, 4), Fraction(1, 7))
    got = deck_sum_kernel(generate_group([g]), 2, z, w)
    want = deck_sum_kernel(generate_group([written]), 2, z, w)
    assert isinstance(got, ExactComplex) and got == want and repr(got) == repr(want)
    # a rational ExactComplex entry is exact too, beside a Cyclotomic one
    assert UnitaryMatrix([[exact(1), 0], [0, I_UNIT]]).exact
    with pytest.raises(ValueError, match="carries pi"):
        UnitaryMatrix.diagonal([exact(0, 1, 1), exact(1)])


def test_exact_matrices_compare_and_hash_by_value():
    # the identity written over Q and over Q(zeta_4), and zeta_8^2 against zeta_4
    z8 = root_of_unity(8)
    pairs = [
        (UnitaryMatrix.identity(2), generate_group([diag(I_UNIT, I_UNIT)]).identity()),
        (diag(z8 * z8, z8 * z8), diag(I_UNIT, I_UNIT)),
    ]
    for a, b in pairs:
        assert a.entries != b.entries or a.dedup_key() != b.dedup_key()
        assert a == b and b == a and hash(a) == hash(b) and len({a, b}) == 1
    assert diag(z8, z8) != diag(I_UNIT, I_UNIT)
    assert UnitaryMatrix.identity(2) != UnitaryMatrix.identity(3)
    # float matrices keep their rounded key, and are not equal to exact ones
    assert UnitaryMatrix.identity(2, exact=False) == UnitaryMatrix([[1 + 1e-14, 0], [0, 1.0]], check=False)
    assert UnitaryMatrix.identity(2, exact=False) != UnitaryMatrix.identity(2)


def test_exact_unitarity_check():
    h = Fraction(1, 2)
    assert UnitaryMatrix([[h + h * I_UNIT, h + h * I_UNIT], [-h + h * I_UNIT, h - h * I_UNIT]]).is_unitary()
    with pytest.raises(NonUnitaryError):
        UnitaryMatrix([[ONE, ONE], [ONE, -ONE]])
    with pytest.raises(NonUnitaryError):
        UnitaryMatrix([[Fraction(1), I_UNIT], [Fraction(0), Fraction(1)]])
    assert not UnitaryMatrix([[ONE, 0], [0, Fraction(2)]], check=False).is_unitary()
