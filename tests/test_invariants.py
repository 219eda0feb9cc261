from fractions import Fraction

import pytest

from berg.cyclotomic import root_of_unity
from berg.groups import UnitaryMatrix, generate_group
from berg.invariants import (
    compute_basic_map,
    find_syzygies,
    invariant_dimension,
    is_invariant,
    reynolds,
    trace_average_dimension,
)
from berg.polynomials import HoloPolynomial, monomials_of_degree

MINUS = root_of_unity(2)
ONE = root_of_unity(1)
I_UNIT = root_of_unity(4)
OMEGA = root_of_unity(3)


def z_power(dim, alpha):
    return HoloPolynomial.monomial(dim, alpha, Fraction(1))


def lens(p, q):
    return generate_group([UnitaryMatrix.diagonal([root_of_unity(p), root_of_unity(p, q)])])


def binary_dihedral(m, conjugator=None):
    zeta = root_of_unity(2 * m)
    gens = [UnitaryMatrix.diagonal([zeta, zeta.conjugate()]), UnitaryMatrix([[0, I_UNIT], [I_UNIT, 0]])]
    if conjugator is not None:
        p = UnitaryMatrix(conjugator)
        gens = [p.conj_transpose() @ g @ p for g in gens]
    return generate_group(gens)


@pytest.fixture(scope="module")
def minus_identity():
    return generate_group([UnitaryMatrix.scalar(2, MINUS)])


@pytest.fixture(scope="module")
def scalar_i():
    return generate_group([UnitaryMatrix.scalar(2, I_UNIT)])


@pytest.fixture(scope="module")
def omega_scalar():
    return generate_group([UnitaryMatrix.scalar(2, OMEGA)])


def test_reynolds_kills_odd(minus_identity):
    assert reynolds(z_power(2, (1, 0)), minus_identity).is_zero()


def test_reynolds_fixes_even(minus_identity):
    p = z_power(2, (2, 0))
    assert reynolds(p, minus_identity) == p


def test_reynolds_mixed_diagonal():
    group = generate_group([UnitaryMatrix.diagonal([I_UNIT, I_UNIT.conjugate()])])
    p = z_power(2, (1, 1))
    assert reynolds(p, group) == p


def test_reynolds_is_projection(minus_identity, omega_scalar):
    for group in (minus_identity, omega_scalar):
        for alpha in [(1, 0), (2, 0), (1, 1), (3, 1), (2, 3)]:
            f = z_power(2, alpha) + z_power(2, (0, alpha[0]))
            once = reynolds(f, group)
            assert reynolds(once, group) == once
            assert is_invariant(once, group)


def test_basic_map_minus_identity(minus_identity):
    basic = compute_basic_map(minus_identity)
    assert basic.degrees == (2, 2, 2)
    assert list(basic.generators) == [
        z_power(2, (2, 0)),
        z_power(2, (1, 1)),
        z_power(2, (0, 2)),
    ]


def test_basic_map_omega_scalar(omega_scalar):
    basic = compute_basic_map(omega_scalar)
    assert basic.degrees == (3, 3, 3, 3)
    assert list(basic.generators) == [
        z_power(2, (3, 0)),
        z_power(2, (2, 1)),
        z_power(2, (1, 2)),
        z_power(2, (0, 3)),
    ]


def test_basic_map_trivial_group():
    group = generate_group([UnitaryMatrix.identity(2)])
    basic = compute_basic_map(group)
    assert list(basic.generators) == [z_power(2, (1, 0)), z_power(2, (0, 1))]


def test_basic_map_invariance_componentwise(scalar_i):
    basic = compute_basic_map(scalar_i)
    for g in scalar_i:
        for p in basic.generators:
            assert p.compose_linear(g.entries) == p


def test_fixed_point_free_quotient_needs_extra_generators(minus_identity, scalar_i, omega_scalar):
    # singular quotients: strictly more generators than variables
    for group in (minus_identity, scalar_i, omega_scalar):
        basic = compute_basic_map(group)
        assert len(basic) > group.dim


def test_reflection_group_keeps_coordinate_count():
    klein = generate_group(
        [UnitaryMatrix.diagonal([MINUS, ONE]), UnitaryMatrix.diagonal([ONE, MINUS])]
    )
    basic = compute_basic_map(klein)
    assert list(basic.generators) == [z_power(2, (2, 0)), z_power(2, (0, 2))]


def test_invariant_dimension_matches_trace_average(minus_identity, scalar_i, omega_scalar):
    for group in (minus_identity, scalar_i, omega_scalar, binary_dihedral(2), lens(5, 2)):
        for d in range(1, 2 * group.order + 1):
            assert invariant_dimension(group, d) == trace_average_dimension(group, d)


def test_brute_force_spanning_oracle(minus_identity):
    # every even monomial of degree <= 4 is a product of the three
    # degree-2 generators; check by explicit exponent bookkeeping
    basic = compute_basic_map(minus_identity)
    gens = {tuple(p.leading_monomial()): p for p in basic.generators}
    assert set(gens) == {(2, 0), (1, 1), (0, 2)}
    for d in (2, 4):
        for alpha in monomials_of_degree(2, d):
            image = reynolds(z_power(2, alpha), minus_identity)
            if image.is_zero():
                continue
            a, b = alpha
            assert (a + b) % 2 == 0
            # exponent arithmetic: (2,0)^x (1,1)^y (0,2)^z with x+y+z = d/2
            solutions = [
                (x, y, (d // 2) - x - y)
                for x in range(d // 2 + 1)
                for y in range(d // 2 + 1 - x)
                if 2 * x + y == a and y + 2 * ((d // 2) - x - y) == b
            ]
            assert solutions, f"monomial {alpha} not a generator product"


def test_syzygy_minus_identity(minus_identity):
    basic = compute_basic_map(minus_identity)
    relations = find_syzygies(basic, degree_bound=2)
    assert len(relations) == 1
    expected = HoloPolynomial(
        3, {(1, 0, 1): Fraction(1), (0, 2, 0): Fraction(-1)}
    )
    assert relations[0].relation == expected
    assert relations[0].substitute(basic.generators).is_zero()


def test_syzygy_of_fiberwise_embedding():
    lam, z1, z2 = (HoloPolynomial.coordinate(3, i) for i in range(3))
    components = (lam, lam * z1, lam * z2, lam * z1 * z2)
    relations = find_syzygies(components, degree_bound=2)
    assert len(relations) == 1
    expected = HoloPolynomial(
        4, {(1, 0, 0, 1): Fraction(1), (0, 1, 1, 0): Fraction(-1)}
    )
    assert relations[0].relation == expected


def test_identity_map_has_no_relations():
    coords = tuple(HoloPolynomial.coordinate(2, i) for i in range(2))
    assert find_syzygies(coords, degree_bound=4) == []


def test_syzygies_scalar_i(scalar_i):
    basic = compute_basic_map(scalar_i)
    relations = find_syzygies(basic, degree_bound=2)
    # quadrics in 5 variables (dim 15) map onto degree-8 forms in 2
    # variables (dim 9), so the relation space has dimension 6: the 2x2
    # minors of the catalecticant of the quartic normal curve
    assert len(relations) == 6
    for s in relations:
        assert s.substitute(basic.generators).is_zero()


def test_reynolds_dimension_mismatch(minus_identity):
    with pytest.raises(ValueError):
        reynolds(HoloPolynomial.coordinate(3, 0), minus_identity)


def test_basic_map_requires_exact_group():
    g = UnitaryMatrix([[complex(-1.0, 0.0)]])
    group = generate_group([g])
    with pytest.raises(ValueError):
        compute_basic_map(group)


def _hilbert_basis(p, q):
    """Indecomposable nonzero (a, b) >= 0 with a + q b = 0 mod p, by brute force."""
    monoid = [
        (a, b) for a in range(p + 1) for b in range(p + 1) if (a or b) and (a + q * b) % p == 0
    ]
    sums = {(x[0] + y[0], x[1] + y[1]) for x in monoid for y in monoid}
    return {m for m in monoid if m not in sums}


@pytest.mark.parametrize(
    "p, q, expected",
    [
        # Riemenschneider: p/(p-q) = [2, 3] and [2, 4], so four generators each
        (5, 2, {(5, 0), (3, 1), (1, 2), (0, 5)}),
        (7, 3, {(7, 0), (4, 1), (1, 2), (0, 7)}),
    ],
)
def test_lens_generators_are_the_hilbert_basis(p, q, expected):
    assert _hilbert_basis(p, q) == expected
    group = generate_group([UnitaryMatrix.diagonal([root_of_unity(p), root_of_unity(p, q)])])
    basic = compute_basic_map(group, verify=False)
    leading = [tuple(g.leading_monomial()) for g in basic.generators]
    assert sorted(leading) == sorted(expected)


@pytest.mark.parametrize("m", [2, 3])
def test_binary_dihedral_degrees_and_one_relation(m):
    zeta = root_of_unity(2 * m)
    a = UnitaryMatrix.diagonal([zeta, zeta.conjugate()])
    b = UnitaryMatrix([[0, I_UNIT], [I_UNIT, 0]])
    basic = compute_basic_map(generate_group([a, b]), verify=False)
    assert basic.degrees == (4, 2 * m, 2 * m + 2)
    assert len(find_syzygies(basic, m + 1)) == 1


# ---------------------------------------------------------------------------
# the symmetric-power table against the definition
# ---------------------------------------------------------------------------


def reynolds_by_composition(f, group):
    """The definition: the average of f(gz) over every element."""
    total = HoloPolynomial(f.dim)
    for g in group:
        total = total + f.compose_linear(g.entries)
    return total.scale(Fraction(1, group.order))


SIGNED_SWAP = [[0, Fraction(-1)], [Fraction(1), 0]]


def mixed_polynomials():
    """Non-homogeneous test polynomials, each with a constant term."""
    def z(*alpha):
        return z_power(2, alpha)

    return [
        HoloPolynomial.constant(2, Fraction(3)) + z(1, 0) + z(0, 2).scale(Fraction(-2, 7)),
        HoloPolynomial.constant(2, I_UNIT) + z(2, 1).scale(Fraction(5)) + z(4, 0) + z(1, 3).scale(I_UNIT),
        HoloPolynomial.constant(2, Fraction(-1)) + z(5, 0) + z(2, 3) + z(0, 5).scale(OMEGA) + z(3, 3),
    ]


@pytest.mark.parametrize(
    "group",
    [lens(5, 2), lens(7, 3), binary_dihedral(2, SIGNED_SWAP), binary_dihedral(3, SIGNED_SWAP)],
    ids=["1/5(1,2)", "1/7(1,3)", "BD8-conjugated", "BD12-conjugated"],
)
def test_reynolds_equals_the_average_of_compositions(group):
    for f in mixed_polynomials():
        assert reynolds(f, group) == reynolds_by_composition(f, group)
    for d in range(1, 7):
        for alpha in monomials_of_degree(2, d):
            f = z_power(2, alpha)
            assert reynolds(f, group) == reynolds_by_composition(f, group)


def test_reynolds_on_a_float_group_matches_the_average():
    import numpy as np

    # BD8 in floats, conjugated by a rotation so no element is monomial
    u = np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2)
    gens = [np.diag([1j, -1j]), np.array([[0, 1j], [1j, 0]])]
    group = generate_group([UnitaryMatrix((u.T @ g @ u).tolist()) for g in gens])
    assert group.order == 8 and not group.exact
    polys = [p.to_complex_coeffs() for p in mixed_polynomials()]
    polys += [HoloPolynomial.monomial(2, a, 1.0) for a in monomials_of_degree(2, 4)]
    for f in polys:
        got, want = reynolds(f, group), reynolds_by_composition(f, group)
        keys = set(got.terms) | set(want.terms)
        assert max(abs(got.terms.get(a, 0) - want.terms.get(a, 0)) for a in keys) <= 1e-12


def test_same_order_groups_keep_separate_tables():
    minus = generate_group([UnitaryMatrix.scalar(2, MINUS)])
    reflection = generate_group([UnitaryMatrix.diagonal([MINUS, ONE])])
    assert minus.order == reflection.order == 2
    xy = z_power(2, (1, 1))
    assert reynolds(xy, minus) == xy  # fills minus's table to degree 2
    assert reynolds(xy, reflection).is_zero()
    assert minus.symmetric_powers is not reflection.symmetric_powers
    # a separately generated equal group builds its own table
    again = generate_group([UnitaryMatrix.scalar(2, MINUS)])
    assert again == minus and again.symmetric_powers is not minus.symmetric_powers
    assert again.symmetric_powers.degree == 0


def test_verified_basic_map_composes_once_per_element_and_coordinate(monkeypatch):
    calls = []
    compose = HoloPolynomial.compose_linear

    def counting(self, matrix):
        calls.append(matrix)
        return compose(self, matrix)

    group = binary_dihedral(2, SIGNED_SWAP)
    monkeypatch.setattr(HoloPolynomial, "compose_linear", counting)
    basic = compute_basic_map(group, verify=True)
    assert basic.degrees == (4, 4, 6)
    assert len(calls) == group.dim * group.order
    assert group.symmetric_powers.degree == 2 * group.order
