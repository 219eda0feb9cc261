from fractions import Fraction

import pytest

import berg.invariants as invariants
from berg.cyclotomic import CyclotomicField, root_of_unity
from berg.groups import UnitaryMatrix, determinant, generate_group
from berg.invariants import (
    Syzygy,
    _pivot_columns,
    _products_of_degree,
    _reynolds_images,
    compute_basic_map,
    find_syzygies,
    is_invariant,
    molien_counts,
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
        top = 2 * group.order
        counts = molien_counts(group, top)
        for d in range(1, top + 1):
            # the rank of the Reynolds images of the degree-d monomials
            assert len(_pivot_columns(_reynolds_images(group, d))) == counts[d]


def _molien_series_t24(top):
    """Coefficients of (1 + t^12) / ((1 - t^6)(1 - t^8)) up to t^top."""
    series = [0] * (top + 1)
    for a in range(0, top + 1, 6):
        for b in range(0, top + 1 - a, 8):
            for c in (0, 12):
                if a + b + c <= top:
                    series[a + b + c] += 1
    return series


def binary_tetrahedral():
    """T24 in Q(i), generated by the quaternions i, j and (1 + i + j + k)/2."""
    zero, one, half = 0 * I_UNIT, 1 + 0 * I_UNIT, Fraction(1, 2)
    return generate_group(
        [
            UnitaryMatrix([[I_UNIT, zero], [zero, -I_UNIT]]),
            UnitaryMatrix([[zero, one], [-one, zero]]),
            UnitaryMatrix(
                [[(1 + I_UNIT) * half, (1 + I_UNIT) * half], [(I_UNIT - 1) * half, (1 - I_UNIT) * half]]
            ),
        ]
    )


def test_molien_counts_of_the_binary_tetrahedral_group():
    exact = binary_tetrahedral()
    assert exact.order == 24 and exact.exact
    want = _molien_series_t24(48)
    assert want[1:13] == [0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 2] and want[24] == 3
    for d in range(1, 25):
        assert trace_average_dimension(exact, d) == want[d]
    # one pass gives every count up to twice the order
    assert molien_counts(exact, 48) == tuple(want)


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


def test_invariant_theory_rejects_a_float_group():
    import numpy as np

    # T24 in floats, conjugated by a real rotation
    c, s = np.cos(0.3), np.sin(0.3)
    u = np.array([[c, -s], [s, c]])
    floats = generate_group([UnitaryMatrix((u.T @ g.to_numpy() @ u).tolist()) for g in binary_tetrahedral()])
    assert floats.order == 24 and not floats.exact
    f = HoloPolynomial.monomial(2, (6, 0), 1.0)
    for call in (
        lambda: reynolds(f, floats),
        lambda: molien_counts(floats, 12),
        lambda: trace_average_dimension(floats, 6),
        lambda: compute_basic_map(floats, verify=False),
    ):
        with pytest.raises(ValueError, match="requires an exact group"):
            call()


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


def test_verified_basic_map_composes_once_per_coset_representative_and_coordinate(monkeypatch):
    calls = []
    compose = HoloPolynomial.compose_linear

    def counting(self, matrix):
        calls.append(matrix)
        return compose(self, matrix)

    group = binary_dihedral(2, SIGNED_SWAP)
    monkeypatch.setattr(HoloPolynomial, "compose_linear", counting)
    basic = compute_basic_map(group, verify=True)
    assert basic.degrees == (4, 4, 6)
    # the table runs over one element of each coset of the diagonal
    # subgroup {+-I, +-diag(i, -i)}, and it grows only to the last degree
    # that yields a generator: spanning above it is decided by Molien counts
    assert len(calls) == group.dim * group.order // 4
    assert group.symmetric_powers.degree == max(basic.degrees)


# ---------------------------------------------------------------------------
# the Molien-guided engine against the Reynolds-image check it replaced
# ---------------------------------------------------------------------------


def reynolds_spanning_failures(basic, group):
    """Degrees up to twice the group order in which some Reynolds image of a
    monomial is independent of the products of the generators."""
    gens, degs = list(basic.generators), list(basic.degrees)
    failures = []
    for d in range(1, 2 * group.order + 1):
        products = _products_of_degree(gens, degs, d)
        images = [reynolds(z_power(group.dim, a), group) for a in monomials_of_degree(group.dim, d)]
        if any(k >= len(products) for k in _pivot_columns(products + images)):
            failures.append(d)
    return failures


@pytest.mark.parametrize(
    "group",
    [lens(5, 2), lens(7, 3), binary_dihedral(2, SIGNED_SWAP), binary_dihedral(3, SIGNED_SWAP)],
    ids=["1/5(1,2)", "1/7(1,3)", "BD8-conjugated", "BD12-conjugated"],
)
def test_generators_span_by_reynolds_images_up_to_twice_the_order(group):
    basic = compute_basic_map(group, verify=False)
    assert reynolds_spanning_failures(basic, group) == []
    # the oracle catches a generator set that misses one
    short = invariants.BasicMap(basic.generators[:-1], basic.degrees[:-1], basic.dim, basic.group_order)
    assert basic.degrees[-1] in reynolds_spanning_failures(short, group)


def molien_by_elements(group, degree):
    """Molien's count as the plain average over every element of the
    complete homogeneous sum h_d, by Newton's identity (n = 2)."""
    total = 0
    for g in group:
        e1, e2 = g.entries[0][0] + g.entries[1][1], determinant(g.entries)
        h = [1, e1]
        for _ in range(2, degree + 1):
            h.append(e1 * h[-1] - e2 * h[-2])
        total = total + h[degree]
    value = total * Fraction(1, group.order)
    return int(value.as_rational() if hasattr(value, "as_rational") else value)


@pytest.mark.parametrize(
    "group",
    [lens(9, 2), lens(11, 3), binary_dihedral(3, SIGNED_SWAP), binary_tetrahedral()],
    ids=["1/9(1,2)", "1/11(1,3)", "BD12-conjugated", "T24"],
)
def test_one_pass_molien_counts_equal_the_average_over_elements(group):
    top = 2 * group.order if group.order <= 12 else 30
    counts = molien_counts(group, top)
    assert counts[0] == 1
    assert counts == tuple(molien_by_elements(group, d) for d in range(top + 1))


def _shifted_molien(monkeypatch, degree, shift):
    counts = invariants.molien_counts

    def shifted(group, top):
        out = list(counts(group, top))
        out[degree] += shift
        return tuple(out)

    monkeypatch.setattr(invariants, "molien_counts", shifted)


@pytest.mark.parametrize(
    "degree, shift, verify, message",
    [
        (4, -1, False, "not the Molien count"),  # a degree that yields generators
        (8, -1, False, "above the Molien count"),  # products alone span
        (8, 1, False, "not the Molien count"),
        (14, -1, True, "above the Molien count"),  # past the group order
        (14, 1, True, "fails to span"),
    ],
)
def test_a_wrong_molien_count_raises(monkeypatch, degree, shift, verify, message):
    group = binary_dihedral(2, SIGNED_SWAP)
    _shifted_molien(monkeypatch, degree, shift)
    with pytest.raises(RuntimeError, match=message):
        compute_basic_map(group, verify=verify)


def test_a_molien_count_of_zero_where_products_exist_raises(monkeypatch):
    group = binary_dihedral(2, SIGNED_SWAP)
    assert molien_counts(group, 8)[8] == 3
    _shifted_molien(monkeypatch, 8, -3)
    with pytest.raises(RuntimeError, match="above the Molien count 0"):
        compute_basic_map(group, verify=False)


def test_diagonal_subgroup_table_runs_over_coset_representatives():
    # T24's diagonal subgroup is {+-I, +-diag(i, -i)}: six cosets, and no
    # monomial of odd degree, nor z1^a z2^b with a - b = 2 mod 4, is fixed
    t24 = binary_tetrahedral()
    assert len(t24.symmetric_powers._forms) == 6
    assert reynolds(z_power(2, (3, 2)), t24).is_zero() and t24.symmetric_powers.degree == 0
    for alpha in [(2, 0), (1, 1), (3, 1), (2, 2), (4, 2)]:
        f = z_power(2, alpha)
        assert reynolds(f, t24) == reynolds_by_composition(f, t24)
    # a diagonal group is its own diagonal subgroup: one coset, no product
    for group in (lens(7, 3), generate_group([UnitaryMatrix.scalar(2, OMEGA)])):
        assert len(group.symmetric_powers._forms) == 1
        for d in range(1, 8):
            for alpha in monomials_of_degree(2, d):
                f = z_power(2, alpha)
                assert reynolds(f, group) == reynolds_by_composition(f, group)
    # Klein's four-group of sign changes: the characters are not read off the degree
    klein = generate_group([UnitaryMatrix.diagonal([MINUS, ONE]), UnitaryMatrix.diagonal([ONE, MINUS])])
    assert reynolds(z_power(2, (2, 1)), klein).is_zero()
    assert reynolds(z_power(2, (2, 4)), klein) == z_power(2, (2, 4))


# ---------------------------------------------------------------------------
# binary polyhedral groups: Klein's invariants, byte for byte
# ---------------------------------------------------------------------------


def binary_octahedral():
    """O48 in Q(zeta_8): T24 and diag(zeta_8, zeta_8^-1)."""
    z8 = CyclotomicField(8).root(1)
    t24 = binary_tetrahedral()
    gens = [g for g in t24.elements[1:]] + [UnitaryMatrix.diagonal([z8, z8.conjugate()])]
    return generate_group(gens)


def binary_icosahedral():
    """I120 in Q(zeta_5), from Klein's S = diag(e^3, e^2) and
    T = ((-(e - e^4), e^2 - e^3), (e^2 - e^3, e - e^4)) / sqrt(5), e = zeta_5."""
    field = CyclotomicField(5)
    e = [field.root(k) for k in range(5)]
    sqrt5 = 1 + 2 * (e[1] + e[4])
    assert sqrt5 * sqrt5 == 5
    a, b = (e[1] - e[4]) / sqrt5, (e[2] - e[3]) / sqrt5
    return generate_group([UnitaryMatrix.diagonal([e[3], e[2]]), UnitaryMatrix([[-a, b], [b, a]])])


# generator and relation reprs of the Reynolds-everywhere engine this one replaced
GOLDEN = {
    "T24": (
        [
            "(1)*z1^5*z2 + (-1)*z1*z2^5",
            "(1)*z1^8 + (14)*z1^4*z2^4 + (1)*z2^8",
            "(1)*z1^12 + (-33)*z1^8*z2^4 + (-33)*z1^4*z2^8 + (1)*z2^12",
        ],
        ["(1)*z3^2 + (-1)*z2^3 + (108)*z1^4"],
    ),
    "BD12": (
        ["(1)*z1^2*z2^2", "(1)*z1^6 + (-1)*z2^6", "(1)*z1^7*z2 + (1)*z1*z2^7"],
        ["(-1)*z3^2 + (1)*z1*z2^2 + (4)*z1^4"],
    ),
    "O48": (
        [
            "(1)*z1^8 + (14)*z1^4*z2^4 + (1)*z2^8",
            "(1)*z1^10*z2^2 + (-2)*z1^6*z2^6 + (1)*z1^2*z2^10",
            "(1)*z1^17*z2 + (-34)*z1^13*z2^5 + (34)*z1^5*z2^13 + (-1)*z1*z2^17",
        ],
        ["(-1)*z3^2 + (-108)*z2^3 + (1)*z1^3*z2"],
    ),
}


@pytest.mark.parametrize(
    "name, build, degrees",
    [
        ("T24", binary_tetrahedral, (6, 8, 12)),
        ("BD12", lambda: binary_dihedral(3), (4, 6, 8)),
        ("O48", binary_octahedral, (8, 12, 18)),
    ],
)
def test_binary_polyhedral_generators_and_relation_are_pinned(name, build, degrees):
    group = build()
    basic = compute_basic_map(group, verify=False)
    assert basic.degrees == degrees
    relations = find_syzygies(basic, 4)
    assert len(relations) == 1
    assert ([repr(g) for g in basic.generators], [repr(r.relation) for r in relations]) == GOLDEN[name]


def compose_linear_by_products(f, matrix):
    """f(Az) as compose_linear built it before it became an eval at the
    linear forms: each term a constant times one linear form at a time."""
    n = f.dim
    forms = [HoloPolynomial(n, {tuple(int(j == k) for k in range(n)): matrix[i][j] for j in range(n)}) for i in range(n)]
    out = HoloPolynomial(n)
    for a, c in f.terms.items():
        term = HoloPolynomial.constant(n, c)
        for i, e in enumerate(a):
            for _ in range(e):
                term = term * forms[i]
        out = out + term
    return out


def substitute_by_products(relation, gens):
    """q(p_1, ..., p_N) as Syzygy.substitute built it before it became an eval."""
    total = HoloPolynomial(gens[0].dim)
    for beta, c in relation.terms.items():
        prod = HoloPolynomial.constant(gens[0].dim, c)
        for g, e in zip(gens, beta):
            for _ in range(e):
                prod = prod * g
        total = total + prod
    return total


@pytest.mark.parametrize("build", [binary_tetrahedral, lambda: binary_dihedral(3)], ids=["T24", "BD12"])
def test_substitution_through_eval_agrees_with_the_product_loops(build):
    group = build()
    basic = compute_basic_map(group, verify=False)
    gens = list(basic.generators)
    others = [z_power(2, (3, 1)), z_power(2, (0, 2)) + z_power(2, (1, 0)).scale(I_UNIT) + 5, HoloPolynomial.constant(2, 7)]
    for g in group.elements[:6]:
        for f in gens + others:
            got, want = f.compose_linear(g.entries), compose_linear_by_products(f, g.entries)
            assert got == want and repr(got) == repr(want)
    relations = [s.relation for s in find_syzygies(basic, 4)]
    assert len(relations) == 1
    not_relations = [z_power(3, (1, 1, 0)) + z_power(3, (0, 0, 2)).scale(3) + 1, HoloPolynomial.constant(3, 2), HoloPolynomial(3)]
    for q in relations + not_relations:
        got, want = Syzygy(relation=q).substitute(gens), substitute_by_products(q, gens)
        assert got == want and repr(got) == repr(want)
        assert got.is_zero() == (q in relations or q.is_zero())


def test_verified_t24_agrees_with_the_unverified_map():
    group = binary_tetrahedral()
    assert compute_basic_map(group, verify=True).generators == compute_basic_map(group, verify=False).generators


@pytest.mark.slow
def test_binary_icosahedral_degrees_are_kleins():
    group = binary_icosahedral()
    assert group.order == 120
    basic = compute_basic_map(group, verify=False)
    assert basic.degrees == (12, 20, 30)
    for g in group.elements[1:3]:
        assert all(p.compose_linear(g.entries) == p for p in basic.generators)
    # Klein's E8 relation, in degree 60
    assert [repr(r.relation) for r in find_syzygies(basic, 5)] == ["(-1)*z3^2 + (1)*z2^3 + (1728)*z1^5"]
