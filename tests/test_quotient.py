import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from berg.ball import SingularKernelError, ball_kernel
from berg.cyclotomic import CyclotomicField, root_of_unity
from berg.groups import UnitaryMatrix, generate_group
from berg.polynomials import HoloPolynomial
from berg.quotient import (
    BranchPointError,
    CoveringSpec,
    check_deck_sum_symmetry,
    deck_sum_kernel,
    disk_power_cover,
    dual_deck_sum_kernel,
    minus_identity_cover,
    pushforward_kernel,
    scalar_rotation_cover,
)
from berg.scalars import ExactComplex, to_complex
from test_algebraic import punctured_disk_kernel
from test_cyclotomic import _gaussian


def _pairs(rng, count, n, radius=0.4):
    out = []
    for _ in range(count):
        z = rng.uniform(-radius, radius, 2 * n)
        w = rng.uniform(-radius, radius, 2 * n)
        out.append(
            (
                tuple(complex(z[i], z[n + i]) for i in range(n)),
                tuple(complex(w[i], w[n + i]) for i in range(n)),
            )
        )
    return out


def test_trivial_group_gives_ball_kernel():
    group = generate_group([UnitaryMatrix.identity(2)])
    z = (0.2 + 0.1j, -0.3j)
    w = (0.1 - 0.05j, 0.2 + 0.2j)
    assert to_complex(deck_sum_kernel(group, 2, z, w)) == to_complex(ball_kernel(2, z, w))


def test_disk_pm1_deck_sum_closed_form():
    # symbolic expansion: (1-u)^-2 - (1+u)^-2 = 4u/(1-u^2)^2
    cover = disk_power_cover(2)
    rng = np.random.default_rng(1)
    for z, w in _pairs(rng, 20, 1, radius=0.6):
        u = z[0] * w[0].conjugate()
        expected = 4 * u / (math.pi * (1 - u**2) ** 2)
        got = to_complex(deck_sum_kernel(cover.group, 1, z, w))
        assert abs(got - expected) < 1e-13


def test_disk_pm1_vanishes_at_branch_point():
    cover = disk_power_cover(2)
    value = to_complex(deck_sum_kernel(cover.group, 1, (0.0,), (0.3 + 0.1j,)))
    assert abs(value) == 0.0


def test_exact_deck_sum_pm1():
    cover = disk_power_cover(2)
    z = (ExactComplex(Fraction(1, 3)),)
    w = (ExactComplex(Fraction(1, 5), Fraction(1, 7)),)
    got = deck_sum_kernel(cover.group, 1, z, w)
    u = z[0] * w[0].conjugate()
    expected = (ExactComplex(4, 0, -1) * u) / ((ExactComplex(1) - u * u) ** 2)
    assert got == expected


def test_pushforward_squaring_map_is_disk_kernel_in_base():
    cover = disk_power_cover(2)
    rng = np.random.default_rng(2)
    for z, w in _pairs(rng, 20, 1, radius=0.6):
        if abs(z[0]) < 0.05 or abs(w[0]) < 0.05:
            continue
        push = to_complex(pushforward_kernel(cover, z, w))
        x, y = z[0] ** 2, w[0] ** 2
        base = 1.0 / (math.pi * (1 - x * y.conjugate()) ** 2)
        assert abs(push - base) < 1e-11


def test_pushforward_trivial_cover():
    cover = disk_power_cover(1)
    z, w = (0.4 + 0.1j,), (0.2 - 0.3j,)
    assert to_complex(pushforward_kernel(cover, z, w)) == pytest.approx(
        to_complex(ball_kernel(1, z, w))
    )


def test_branch_point_error_carries_location():
    cover = disk_power_cover(3)
    with pytest.raises(BranchPointError) as err:
        pushforward_kernel(cover, (0.0,), (0.3,))
    assert err.value.point == (0.0,)


def test_minus_identity_law_both_sides():
    cover = minus_identity_cover()
    rng = np.random.default_rng(3)
    for z, w in _pairs(rng, 50, 2, radius=0.35):
        deck = to_complex(deck_sum_kernel(cover.group, 2, z, w))
        u = z[0] * w[0].conjugate() + z[1] * w[1].conjugate()
        closed = 2 / math.pi**2 * ((1 - u) ** -3 + (1 + u) ** -3)
        assert abs(deck - closed) < 1e-12
        jz = to_complex(cover.jacobian(z))
        jw = to_complex(cover.jacobian(w))
        if min(abs(jz), abs(jw)) > 1e-3:
            push = to_complex(pushforward_kernel(cover, z, w))
            assert abs(push * jz * jw.conjugate() - closed) < 1e-10 * max(1.0, abs(closed))


def test_pushforward_well_defined_on_orbits():
    for cover in (minus_identity_cover(), scalar_rotation_cover()):
        rng = np.random.default_rng(4)
        for z, w in _pairs(rng, 10, 2, radius=0.45):
            try:
                ref = to_complex(pushforward_kernel(cover, z, w))
            except BranchPointError:
                continue
            for g in cover.group:
                gm = g.to_numpy()
                gz = tuple(gm @ np.array(z))
                gw = tuple(gm @ np.array(w))
                a = to_complex(pushforward_kernel(cover, gz, w))
                b = to_complex(pushforward_kernel(cover, z, gw))
                assert abs(a - ref) <= 1e-10 * abs(ref)
                assert abs(b - ref) <= 1e-10 * abs(ref)


def test_deck_sum_group_invariance():
    cover = scalar_rotation_cover()
    rng = np.random.default_rng(5)
    for z, w in _pairs(rng, 10, 2, radius=0.4):
        ref = to_complex(deck_sum_kernel(cover.group, 2, z, w))
        for g in cover.group:
            gm = g.to_numpy()
            det = to_complex(g.det())
            gz = tuple(gm @ np.array(z))
            assert abs(to_complex(deck_sum_kernel(cover.group, 2, gz, w)) * det - ref) < 1e-12


def test_deck_sum_hermitian_pairing():
    cover = minus_identity_cover()
    rng = np.random.default_rng(6)
    for z, w in _pairs(rng, 10, 2):
        a = to_complex(deck_sum_kernel(cover.group, 2, z, w))
        b = to_complex(deck_sum_kernel(cover.group, 2, w, z))
        assert abs(a - b.conjugate()) < 1e-13


def _coordinates(pairs):
    """Point pairs as the two (n, count) coordinate batches z and w."""
    return tuple(np.array([pair[i] for pair in pairs]).T for i in (0, 1))


def _symmetry_loop(group, n, pairs):
    # the pair-by-pair check the coordinate batch replaced, kept as its oracle
    return max(
        abs(to_complex(deck_sum_kernel(group, n, z, w)) - to_complex(dual_deck_sum_kernel(group, n, z, w)))
        for z, w in pairs
    )


def test_deck_sum_symmetry_residuals():
    rng = np.random.default_rng(7)
    scalar_i = generate_group([UnitaryMatrix.scalar(2, root_of_unity(4))])
    pm1 = disk_power_cover(2).group
    trivial = generate_group([UnitaryMatrix.identity(1)])
    for group, n, count, bound in ((scalar_i, 2, 20, 1e-12), (pm1, 1, 20, 1e-14), (trivial, 1, 5, 0.0)):
        pairs = _pairs(rng, count, n)
        residual = check_deck_sum_symmetry(group, n, *_coordinates(pairs))
        assert residual <= bound
        # one batch rounds as the pairs one at a time do
        assert residual == _symmetry_loop(group, n, pairs)
    # one pair of points, exact or float, is a batch of one
    z, w = (ExactComplex(1, 0) / 3, ExactComplex(0, 1) / 4), (ExactComplex(1, 0) / 5, ExactComplex(1, 0) / 7)
    assert check_deck_sum_symmetry(scalar_i, 2, z, w) == 0.0
    pair = _pairs(rng, 1, 2)
    assert check_deck_sum_symmetry(scalar_i, 2, *pair[0]) == _symmetry_loop(scalar_i, 2, pair)


def test_dual_deck_sum_matches():
    cover = scalar_rotation_cover()
    z = (0.3 + 0.05j, -0.2 + 0.1j)
    w = (0.15 - 0.1j, 0.05 + 0.25j)
    a = to_complex(deck_sum_kernel(cover.group, 2, z, w))
    b = to_complex(dual_deck_sum_kernel(cover.group, 2, z, w))
    assert abs(a - b) < 1e-14


def test_pushforward_hermitian_symmetry():
    cover = minus_identity_cover()
    rng = np.random.default_rng(12)
    for z, w in _pairs(rng, 8, 2):
        try:
            a = to_complex(pushforward_kernel(cover, z, w))
            b = to_complex(pushforward_kernel(cover, w, z))
        except BranchPointError:
            continue
        assert abs(a - b.conjugate()) <= 1e-12 * max(1.0, abs(a))


def test_pushforward_gram_positivity():
    cover = minus_identity_cover()
    rng = np.random.default_rng(8)
    pts = []
    while len(pts) < 8:
        z = tuple(complex(*rng.uniform(-0.4, 0.4, 2)) for _ in range(2))
        if abs(to_complex(cover.jacobian(z))) > 1e-2:
            pts.append(z)
    gram = np.array(
        [[to_complex(pushforward_kernel(cover, zi, zj)) for zj in pts] for zi in pts]
    )
    eigs = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
    assert eigs.min() >= -1e-10 * max(1.0, abs(gram).max())


def test_punctured_disk_matches_disk_kernel():
    # removing the puncture does not change the kernel: the Laurent norm
    # table drops all negative powers as non-integrable
    rng = np.random.default_rng(9)
    for z, w in _pairs(rng, 10, 1, radius=0.6):
        full = to_complex(ball_kernel(1, z, w))
        punct = punctured_disk_kernel(z[0], w[0], truncation=400)
        assert abs(full - punct) < 1e-12 * max(1.0, abs(full))


def test_covering_spec_rejects_non_invariant_map():
    group = disk_power_cover(2).group
    bad = (HoloPolynomial.monomial(1, (1,)),)  # z is not (+-1)-invariant
    with pytest.raises(ValueError):
        CoveringSpec(group=group, cover_map=bad, chart=(0,))


def test_covering_spec_chart_size():
    group = generate_group([UnitaryMatrix.identity(2)])
    coords = tuple(HoloPolynomial.coordinate(2, i) for i in range(2))
    with pytest.raises(ValueError):
        CoveringSpec(group=group, cover_map=coords, chart=(0,))


# -- batched float deck sums over the cached element stack --------------------

def _binary_dihedral_12():
    """BD12 = <diag(zeta_6, zeta_6^-1), [[0, i], [i, 0]]>: not inside Q(i)."""
    zeta = CyclotomicField(6).root(1)
    i_unit = root_of_unity(4)
    return generate_group(
        [UnitaryMatrix.diagonal([zeta, zeta.conjugate()]), UnitaryMatrix([[0, i_unit], [i_unit, 0]])]
    )


def _lens_5_12():
    """1/5(1, 2): determinants zeta_5^3k, so the det weights are not all 1."""
    zeta = CyclotomicField(5).root(1)
    return generate_group([UnitaryMatrix.diagonal([zeta, zeta * zeta])])


def _numpy_matrices(name):
    if name == "BD12":
        a = np.diag([np.exp(1j * np.pi / 3), np.exp(-1j * np.pi / 3)])
        b = np.array([[0, 1j], [1j, 0]])
        return [np.linalg.matrix_power(a, k) @ m for k in range(6) for m in (np.eye(2), b)]
    return [np.diag([np.exp(2j * np.pi * k / 5), np.exp(4j * np.pi * k / 5)]) for k in range(5)]


def _numpy_deck_sums(mats, z, w):
    """Plain loop: sum_g K(g z, w) det g and sum_g K(z, g w) conj(det g)."""
    def kernel(a, b):
        return 2 / math.pi**2 * (1 - np.vdot(b, a)) ** -3

    z, w = np.array(z), np.array(w)
    deck = sum(kernel(m @ z, w) * np.linalg.det(m) for m in mats)
    dual = sum(kernel(z, m @ w) * np.conj(np.linalg.det(m)) for m in mats)
    return deck, dual


@pytest.mark.parametrize("name, make", [("BD12", _binary_dihedral_12), ("lens-5-12", _lens_5_12)])
def test_float_deck_sums_match_a_numpy_loop(name, make):
    group = make()
    mats = _numpy_matrices(name)
    assert group.gaussian_stack is None and len(mats) == group.order
    rng = np.random.default_rng(13)
    for z, w in _pairs(rng, 25, 2):
        deck, dual = _numpy_deck_sums(mats, z, w)
        got = deck_sum_kernel(group, 2, z, w)
        got_dual = dual_deck_sum_kernel(group, 2, z, w)
        assert type(got) is complex and type(got_dual) is complex
        assert abs(got - deck) <= 1e-12 * max(1.0, abs(deck))
        assert abs(got_dual - dual) <= 1e-12 * max(1.0, abs(dual))


def test_exact_deck_sums_equal_a_per_element_reference():
    group = scalar_rotation_cover().group
    z = (ExactComplex(Fraction(1, 4), Fraction(-1, 8)), ExactComplex(Fraction(1, 5)))
    w = (ExactComplex(Fraction(-1, 3), Fraction(1, 7)), ExactComplex(0, Fraction(1, 6)))
    ref = ref_dual = ExactComplex(0)
    for g in group:
        m = g.to_exact_complex()
        det = _gaussian(g.det())
        gz = [m[i][0] * z[0] + m[i][1] * z[1] for i in range(2)]
        gw = [m[i][0] * w[0] + m[i][1] * w[1] for i in range(2)]
        ref = ref + ball_kernel(2, gz, w) * det
        ref_dual = ref_dual + ball_kernel(2, z, gw) * det.conjugate()
    got = deck_sum_kernel(group, 2, z, w)
    got_dual = dual_deck_sum_kernel(group, 2, z, w)
    assert isinstance(got, ExactComplex) and got == ref
    assert isinstance(got_dual, ExactComplex) and got_dual == ref_dual
    assert got == got_dual


GAUSSIAN_PAIRS = [
    ((Fraction(1, 4), Fraction(-1, 8), Fraction(1, 5), 0), (Fraction(-1, 3), Fraction(1, 7), 0, Fraction(1, 6))),
    ((Fraction(11, 64), Fraction(-5, 64), Fraction(-17, 64), Fraction(3, 64)),
     (Fraction(-9, 64), Fraction(20, 64), Fraction(1, 64), Fraction(-22, 64))),
    ((Fraction(1, 2), 0, 0, Fraction(1, 3)), (Fraction(-2, 5), Fraction(1, 5), Fraction(1, 10), 0)),
]


def _gaussian_point(parts):
    return (ExactComplex(parts[0], parts[1]), ExactComplex(parts[2], parts[3]))


@pytest.mark.parametrize("pair", GAUSSIAN_PAIRS)
def test_exact_scalar_i_sums_and_pushforwards_equal_a_per_element_reference(pair):
    """The cover of i*I: g = i^k I, det g = (-1)^k, K(u) = 2 pi^-2 (1 - u)^-3
    and the chart (z1^4, z1^3 z2) with Jacobian 4 z1^6."""
    cover = scalar_rotation_cover()
    z, w = (_gaussian_point(p) for p in pair)
    assert [repr(p) for p in cover.chart_components()] == ["(1)*z1^4", "(1)*z1^3*z2"]
    inner = z[0] * w[0].conjugate() + z[1] * w[1].conjugate()
    ref = ExactComplex(0)
    for k in range(4):
        ref = ref + ExactComplex(2 * (-1) ** k, 0, -2) / (1 - ExactComplex(0, 1) ** k * inner) ** 3
    jacobian = (4 * z[0] ** 6) * (4 * w[0] ** 6).conjugate()
    for deck in (deck_sum_kernel(cover.group, 2, z, w), dual_deck_sum_kernel(cover.group, 2, z, w)):
        assert isinstance(deck, ExactComplex) and deck == ref
    push = pushforward_kernel(cover, z, w)
    assert isinstance(push, ExactComplex) and push == ref / jacobian


def test_exact_deck_sums_do_not_depend_on_the_field_the_group_is_written_in():
    gauss = generate_group([UnitaryMatrix.scalar(2, CyclotomicField(4).root(1))])
    eighth = generate_group([UnitaryMatrix.scalar(2, CyclotomicField(8).root(2))])
    assert gauss.order == eighth.order == 4 and eighth.gaussian_stack is not None
    for pair in GAUSSIAN_PAIRS:
        z, w = (_gaussian_point(p) for p in pair)
        for fn in (deck_sum_kernel, dual_deck_sum_kernel):
            got = fn(eighth, 2, z, w)
            assert isinstance(got, ExactComplex) and got == fn(gauss, 2, z, w)
    # zeta_8 I does not act on Gaussian rationals, so its sums stay float
    rotation = generate_group([UnitaryMatrix.scalar(2, root_of_unity(8))])
    assert rotation.gaussian_stack is None
    z, w = (_gaussian_point(p) for p in GAUSSIAN_PAIRS[0])
    assert type(deck_sum_kernel(rotation, 2, z, w)) is complex


def test_a_point_written_in_q_zeta4_stays_exact():
    # the same Gaussian-rational point as Cyclotomic and as ExactComplex
    q4 = CyclotomicField(4)
    i, third, fifth = q4.root(1), Fraction(1, 3), Fraction(1, 5)
    group = scalar_rotation_cover().group
    as_cyclotomic = ((i * Fraction(1, 4), q4.from_rational(fifth)), (q4.from_rational(third), i * Fraction(1, 7)))
    as_gaussian = ((ExactComplex(0, Fraction(1, 4)), fifth), (third, ExactComplex(0, Fraction(1, 7))))
    for fn in (deck_sum_kernel, dual_deck_sum_kernel):
        got, want = fn(group, 2, *as_cyclotomic), fn(group, 2, *as_gaussian)
        assert isinstance(got, ExactComplex) and got == want and repr(got) == repr(want)
    got = ball_kernel(2, *as_cyclotomic)
    assert isinstance(got, ExactComplex) and got == ball_kernel(2, *as_gaussian)
    got = pushforward_kernel(scalar_rotation_cover(), *as_cyclotomic)
    assert isinstance(got, ExactComplex) and got == pushforward_kernel(scalar_rotation_cover(), *as_gaussian)
    # a coordinate outside Q(i) keeps the float path
    zeta5 = CyclotomicField(5).root(1) * Fraction(1, 3)
    assert type(deck_sum_kernel(group, 2, (zeta5, fifth), as_gaussian[1])) is complex


def _gaussian_coefficient_cover():
    """The i*I quotient through (z1^4 + i z2^4, z1^3 z2): a Jacobian
    4 z1^6 - 12 i z1^2 z2^4 with a coefficient in Q(i) that is not rational."""
    i = CyclotomicField(4).root(1)
    group = generate_group([UnitaryMatrix.scalar(2, i)])
    cover_map = (HoloPolynomial(2, {(4, 0): 1, (0, 4): i}), HoloPolynomial.monomial(2, (3, 1)))
    return CoveringSpec(group=group, cover_map=cover_map)


def test_pushforward_stays_exact_with_gaussian_jacobian_coefficients():
    spec = _gaussian_coefficient_cover()
    q4, q8 = CyclotomicField(4), CyclotomicField(8)
    third, fifth, w = Fraction(1, 3), Fraction(1, 5), (Fraction(1, 4), Fraction(1, 7))
    ways = [
        ((third, fifth), w),
        ((ExactComplex(third), fifth), w),
        ((q4.from_rational(third), q8.from_rational(fifth)), (w[0], q4.from_rational(w[1]))),
    ]
    values = [pushforward_kernel(spec, z, w) for z, w in ways]
    assert all(isinstance(v, ExactComplex) for v in values)
    assert all(v == values[0] and repr(v) == repr(values[0]) for v in values)
    floats = pushforward_kernel(spec, (1 / 3 + 0j, 0.2 + 0j), (0.25 + 0j, 1 / 7 + 0j))
    assert abs(to_complex(values[0]) - floats) <= 1e-12 * abs(floats)
    # converted once per spec; the scalar-i cover's rational Jacobian reads as itself
    assert spec.gaussian_jacobian is spec.gaussian_jacobian
    rational = scalar_rotation_cover()
    assert rational.gaussian_jacobian == rational.jacobian_polynomial


def _q8():
    i = CyclotomicField(4).root(1)
    return generate_group([UnitaryMatrix.diagonal([i, -i]), UnitaryMatrix([[0, i], [i, 0]])])


def _t24():
    """Over Q(zeta_4), with the dense entries (+-1 +- i)/2."""
    i, half = CyclotomicField(4).root(1), Fraction(1, 2)
    return generate_group(
        [
            UnitaryMatrix.diagonal([i, -i]),
            UnitaryMatrix([[0, 1], [-1, 0]]),
            UnitaryMatrix([[(1 + i) * half, (1 + i) * half], [(i - 1) * half, (1 - i) * half]]),
        ]
    )


def _twisted_swap():
    """Cyclic of order 8, generated by [[0, 1], [i, 0]] (det -i): unlike the
    groups above it does not hold the transpose of each element, so a sum
    that confused g with its transpose would differ."""
    i = CyclotomicField(4).root(1)
    return generate_group([UnitaryMatrix([[0, 1], [i, 0]])])


EXACT_GROUPS = {
    "scalar-i": lambda: scalar_rotation_cover().group,
    "minus-identity": lambda: minus_identity_cover().group,
    "BD8": _q8,
    "T24": _t24,
    "twisted-swap": _twisted_swap,
}


@functools.cache
def _exact_group(name):
    return EXACT_GROUPS[name]()


def _gaussian_point_over(q):
    """Points (a + b i, c + d i) / q strictly inside the unit ball."""
    part = st.integers(-q, q)
    inside = st.tuples(part, part, part, part).filter(lambda p: sum(x * x for x in p) < q * q)
    return inside.map(
        lambda p: tuple(ExactComplex(Fraction(p[k], q), Fraction(p[k + 1], q)) for k in (0, 2))
    )


_gaussian_in_ball = st.integers(1, 64).flatmap(_gaussian_point_over)


@pytest.mark.parametrize("name", sorted(EXACT_GROUPS))
@given(z=_gaussian_in_ball, w=_gaussian_in_ball)
def test_exact_deck_sums_equal_the_sum_of_ball_kernels(name, z, w):
    """Both deck sums equal sum_g K(g z, w) det g and sum_g K(z, g w)
    conj(det g), taken one element at a time through ``ball_kernel``."""
    group = _exact_group(name)
    ref = ref_dual = ExactComplex(0)
    for g in group:
        m = [[_gaussian(x) for x in row] for row in g.entries]
        det = _gaussian(g.det())
        gz = [m[j][0] * z[0] + m[j][1] * z[1] for j in range(2)]
        gw = [m[j][0] * w[0] + m[j][1] * w[1] for j in range(2)]
        ref = ref + ball_kernel(2, gz, w) * det
        ref_dual = ref_dual + ball_kernel(2, z, gw) * det.conjugate()
    sums = ((deck_sum_kernel(group, 2, z, w), ref), (dual_deck_sum_kernel(group, 2, z, w), ref_dual))
    for got, want in sums:
        assert isinstance(got, ExactComplex) and got == want and repr(got) == repr(want)


@pytest.mark.parametrize("name", sorted(EXACT_GROUPS))
def test_exact_deck_sums_raise_at_boundary_contact_with_any_element(name):
    # <g z, w> = 1 for some element g other than the identity
    group = _exact_group(name)
    z = (ExactComplex(Fraction(3, 5)), ExactComplex(0, Fraction(4, 5)))
    for g in group.elements[1:]:
        m = [[_gaussian(x) for x in row] for row in g.entries]
        w = tuple(m[j][0] * z[0] + m[j][1] * z[1] for j in range(2))
        for fn in (deck_sum_kernel, dual_deck_sum_kernel):
            with pytest.raises(SingularKernelError):
                fn(group, 2, z, w)
            with pytest.raises(SingularKernelError):
                fn(group, 2, w, z)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_deck_sum_at_boundary_contact_raises():
    contact = (0.6, 0.8)
    for fn in (deck_sum_kernel, dual_deck_sum_kernel):
        with pytest.raises(SingularKernelError):
            fn(minus_identity_cover().group, 2, contact, contact)
        with pytest.raises(SingularKernelError):
            fn(disk_power_cover(2).group, 1, (ExactComplex(1),), (ExactComplex(1),))


def test_points_of_the_wrong_length_are_refused_by_the_jacobian_and_eval():
    # zipping a point against each exponent once dropped what did not match
    cover = minus_identity_cover()
    for z in [(0.3,), (0.3, 0.1, 0.7)]:
        with pytest.raises(ValueError, match=rf"point dimension mismatch: polynomial has dim 2, got {len(z)}"):
            cover.jacobian_polynomial.eval(z)
        with pytest.raises(ValueError, match=r"expected points in C\^2"):
            cover.jacobian(z)


def _coordinate_batch(rng, shape, n=2, radius=0.3):
    return rng.uniform(-radius, radius, (n, *shape)) + 1j * rng.uniform(-radius, radius, (n, *shape))


def test_float_deck_sums_take_coordinate_batches():
    group = _binary_dihedral_12()
    rng = np.random.default_rng(17)
    z, w = _coordinate_batch(rng, (3, 4)), _coordinate_batch(rng, (4,))
    for fn in (deck_sum_kernel, dual_deck_sum_kernel):
        batch = fn(group, 2, z, w)
        assert batch.shape == (3, 4)
        for i in range(3):
            for k in range(4):
                one = fn(group, 2, tuple(z[:, i, k]), tuple(w[:, k]))
                assert type(one) is complex and (one.real, one.imag) == (batch[i, k].real, batch[i, k].imag)
    # coordinates of different shapes broadcast against each other
    mixed = deck_sum_kernel(group, 2, (z[0, 0], 0.1j), w)
    assert mixed.shape == (4,) and mixed[2] == deck_sum_kernel(group, 2, (z[0, 0, 2], 0.1j), tuple(w[:, 2]))


def test_pushforward_takes_coordinate_batches():
    cover = scalar_rotation_cover()
    rng = np.random.default_rng(18)
    z, w = _coordinate_batch(rng, (5,)), _coordinate_batch(rng, (5,))
    batch = pushforward_kernel(cover, z, w)
    assert batch.shape == (5,)
    for k in range(5):
        one = pushforward_kernel(cover, tuple(z[:, k]), tuple(w[:, k]))
        assert type(one) is complex and (one.real, one.imag) == (batch[k].real, batch[k].imag)
    z[0, 3] = 0.0  # on the branch locus z1 = 0
    with pytest.raises(BranchPointError):
        pushforward_kernel(cover, z, w)


@pytest.mark.parametrize("z", [(0.1,), (0.1, 0.2, 0.3), (ExactComplex(0),)], ids=["short", "long", "exact"])
def test_deck_sum_wrong_dimension_raises_the_kernel_error(z):
    group = scalar_rotation_cover().group
    with pytest.raises(ValueError, match=r"expected points in C\^2") as deck_err:
        deck_sum_kernel(group, 2, z, (0.1, 0.2))
    with pytest.raises(ValueError, match=r"expected points in C\^2"):
        dual_deck_sum_kernel(group, 2, (0.1, 0.2), z)
    with pytest.raises(ValueError) as kernel_err:
        ball_kernel(2, z, (0.1, 0.2))
    assert str(deck_err.value) == str(kernel_err.value)


def test_same_order_groups_keep_their_own_stacks():
    i_unit = root_of_unity(4)
    scalar = generate_group([UnitaryMatrix.scalar(2, i_unit)])
    twisted = generate_group([UnitaryMatrix.diagonal([i_unit, i_unit.conjugate()])])
    assert scalar.order == twisted.order == 4
    z, w = (0.3 + 0.1j, -0.2j), (0.1 - 0.25j, 0.2 + 0.05j)
    first = deck_sum_kernel(scalar, 2, z, w)
    second = deck_sum_kernel(twisted, 2, z, w)
    for group in (scalar, twisted):
        mats, dets = group.float_stack
        assert np.array_equal(mats, [g.to_numpy() for g in group])
        assert np.array_equal(dets, [to_complex(g.det()) for g in group])
        with pytest.raises(ValueError):
            mats[0, 0, 0] = 0  # the cache is read-only
    assert scalar.float_stack[0] is not twisted.float_stack[0]
    assert abs(first - second) > 1e-3
    assert deck_sum_kernel(scalar, 2, z, w) == first
    # a separately generated equal group builds its own stack
    again = generate_group([UnitaryMatrix.scalar(2, i_unit)])
    assert again == scalar and again.float_stack[0] is not scalar.float_stack[0]
    assert deck_sum_kernel(again, 2, z, w) == first
