import math
from fractions import Fraction

import numpy as np
import pytest

from berg.cyclotomic import CyclotomicField
from berg.groups import exact_rref
from berg.hartogs import (
    BoundaryContactError,
    ChartSingularityError,
    DivergentIntegralError,
    NonConvergentError,
    factorial_moment,
    kernel_series,
    monomial_norm,
    omega_closed_kernel,
    omega_rational_kernel,
    square_integrable,
    u_domain_contains,
    u_kernel,
)
from berg.invariants import find_syzygies
from berg.polynomials import HermitianPolynomial, HoloPolynomial
from berg.scalars import ExactComplex, to_complex

TWO_PI3 = (2 * math.pi) ** 3


def _binomial_poly(j: int) -> list[Fraction]:
    """Coefficients (ascending in m) of C(m+j, j) as a polynomial in m."""
    coeffs = [Fraction(1)]
    for i in range(1, j + 1):
        # multiply by (m + i)
        new = [Fraction(0)] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            new[k] += c * i
            new[k + 1] += c
        coeffs = new
    return [c / math.factorial(j) for c in coeffs]


def resum_polynomial_series(poly_coeffs) -> tuple[Fraction, ...]:
    """Write a polynomial p(m) in the basis {C(m+j, j)}: returns (a_0..a_d)
    with sum_m p(m) x^m = sum_j a_j (1-x)^(-(j+1)).  This derives the
    closed form of Omega's kernel from its series, so it is the oracle for
    ``omega_closed_kernel``.

    The expansion is solved and then re-verified exactly as a polynomial
    identity; a nonzero remainder is a hard error.
    """
    coeffs = [Fraction(c) for c in poly_coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        return (Fraction(0),)
    d = len(coeffs) - 1

    def p_at(m: int) -> Fraction:
        return sum(c * m**k for k, c in enumerate(coeffs))

    # evaluate at m = 0..d and solve the exact linear system; the binomial
    # matrix is invertible, so the reduced augmented matrix is [I | a]
    rows = [
        [Fraction(math.comb(m + j, j)) for j in range(d + 1)] + [p_at(m)] for m in range(d + 1)
    ]
    a = [row[-1] for row in exact_rref(rows)[0]]

    # exact polynomial identity check: p(m) - sum a_j C(m+j, j) == 0
    remainder = list(coeffs) + [Fraction(0)] * (d + 1)
    for j, aj in enumerate(a):
        for k, c in enumerate(_binomial_poly(j)):
            remainder[k] -= aj * c
    if any(c != 0 for c in remainder):
        raise RuntimeError("binomial-basis resummation failed the exact identity check")
    return tuple(a)


def embed_F(lam, z1, z2) -> tuple:
    """(lam, lam z1, lam z2, lam z1 z2), Omega's embedding in C^4; the image
    satisfies w1 w4 = w2 w3 identically."""
    return (lam, lam * z1, lam * z2, lam * z1 * z2)


# -- moments -------------------------------------------------------------------

def test_factorial_moment_values():
    assert factorial_moment(0, 2) == 1
    assert factorial_moment(1, 4) == Fraction(1, 6)
    assert factorial_moment(3, 9) == Fraction(
        math.factorial(4) * math.factorial(3), math.factorial(8)
    )


def test_factorial_moment_divergence():
    with pytest.raises(DivergentIntegralError):
        factorial_moment(2, 3)
    with pytest.raises(DivergentIntegralError):
        factorial_moment(0, 1)


def test_factorial_moment_quadrature_oracle():
    nodes, weights = np.polynomial.legendre.leggauss(400)
    t = 0.5 * (nodes + 1)
    w = 0.5 * weights
    r = t / (1 - t)
    jac = 1 / (1 - t) ** 2
    for p, q in [(0, 2), (1, 4), (2, 5), (0, 3)]:
        numeric = float(np.sum(w * jac * r**p / (1 + r) ** q))
        assert numeric == pytest.approx(float(factorial_moment(p, q)), rel=1e-8)


def test_monomial_norms_exact():
    assert monomial_norm(1, (0, 0)) == ExactComplex(4, 0, 3)  # (2pi)^3 / 2
    assert monomial_norm(2, (1, 1)) == ExactComplex(Fraction(8, 12), 0, 3)
    assert monomial_norm(1, (1, 0)) == math.inf
    assert monomial_norm(3, (3, 0)) == math.inf
    assert square_integrable(3, (2, 0)) and not square_integrable(3, (3, 0))


def test_monomial_norm_quadrature_oracle():
    # ||lam^m z^alpha||^2 = 8 pi^3/(m+1) * the integral of r1^a1 r2^a2 h^-(m+1)
    # over [0, inf)^2: the fiber disk {|lam|^2 < 1/h} gives pi/(m+1) h^-(m+1),
    # each base plane pi dr_i, and the top form 8.  After r = t/(1-t) the
    # integrand is a polynomial in t, so tensor Gauss-Legendre is exact.
    nodes, weights = np.polynomial.legendre.leggauss(64)
    t = 0.5 * (nodes + 1)
    r = t / (1 - t)
    w = 0.5 * weights / (1 - t) ** 2
    r1, r2 = np.meshgrid(r, r, indexing="ij")
    h = (1 + r1) * (1 + r2)
    for m, alpha in [(1, (0, 0)), (2, (1, 1)), (3, (2, 0)), (2, (0, 1))]:
        integral = np.sum(np.outer(w, w) * r1 ** alpha[0] * r2 ** alpha[1] * h ** -(m + 1.0))
        numeric = 8 * math.pi**3 / (m + 1) * integral
        assert to_complex(monomial_norm(m, alpha)).real == pytest.approx(numeric, rel=1e-12)


def test_monomial_norm_exact_value_and_float():
    exact = monomial_norm(2, (1, 1))
    assert exact == ExactComplex(Fraction(8, 12), 0, 3)
    assert to_complex(exact).real == pytest.approx(TWO_PI3 / 12)


def test_moment_symmetry_in_exponents():
    for m in (2, 3, 4):
        for alpha in [(0, 1), (1, 2), (0, 2)]:
            assert monomial_norm(m, alpha) == monomial_norm(m, alpha[::-1])


# -- series and closed form ------------------------------------------------------

def test_series_zero_fiber():
    assert kernel_series((0.3, 0.1), 0.0, (0.3, 0.1), 0.0, truncation=50).value == 0


def test_series_center_formula():
    # at z = w = 0 the series is sum (m+1) m^2 x^m / (2pi)^3; compare with
    # the classical closed sums for sum m^2 x^m and sum m^3 x^m
    x = 0.25
    got = kernel_series((0, 0), 0.5, (0, 0), 0.5, truncation=400).value
    s2 = x * (1 + x) / (1 - x) ** 3
    s3 = x * (1 + 4 * x + x * x) / (1 - x) ** 4
    assert got.real == pytest.approx((s2 + s3) / TWO_PI3, rel=1e-14)
    assert got.imag == 0


def test_series_matches_closed_form():
    value = kernel_series((0, 0), 0.5, (0, 0), 0.5, truncation=300)
    closed = to_complex(omega_closed_kernel((0, 0), 0.5, (0, 0), 0.5))
    assert abs(value.value - closed) <= 1e-10 * abs(closed)
    assert value.tail_bound < 1e-30


def test_series_divergence_guard():
    with pytest.raises(NonConvergentError):
        kernel_series((1.0, 1.0), 0.9, (1.0, 1.0), 0.9)


def test_series_refuses_a_negative_truncation():
    for truncation in (-1, -3):
        with pytest.raises(ValueError, match=f"truncation must be at least 0, got {truncation}"):
            kernel_series((0.1, 0.2), 0.3, (0.1, 0.2), 0.3, truncation=truncation)
    # truncation 0 is the empty sum, with the whole series as its tail
    empty = kernel_series((0.1, 0.2), 0.3, (0.1, 0.2), 0.3, truncation=0)
    assert empty.value == 0 and empty.terms == 0
    assert empty.tail_bound >= abs(kernel_series((0.1, 0.2), 0.3, (0.1, 0.2), 0.3).value)


def test_series_at_an_overflowing_point_does_not_converge():
    # x overflows to NaN, which compares False against 1 either way
    with pytest.raises(NonConvergentError, match="series does not converge"):
        kernel_series((1e308, 1e308), 0.1, (1e308, 1e308), 0.1, truncation=2)


def test_series_tail_shrinks_geometrically():
    z = (0.0, 0.0)
    lam = tau = 0.9  # x = 0.81
    closed = to_complex(omega_closed_kernel(z, lam, z, tau))
    err40 = abs(kernel_series(z, lam, z, tau, truncation=40).value - closed)
    err80 = abs(kernel_series(z, lam, z, tau, truncation=80).value - closed)
    assert err80 <= err40 * (0.81**40) * 20


def test_series_tail_bound_is_honest():
    z, w = (0.2 + 0.1j, -0.1j), (0.1, 0.3 - 0.2j)
    lam, tau = 0.4, 0.5
    closed = to_complex(omega_closed_kernel(z, lam, w, tau))
    for m in (20, 40, 80):
        res = kernel_series(z, lam, w, tau, truncation=m)
        assert abs(res.value - closed) <= res.tail_bound * 1.01 + 1e-15


def test_closed_kernel_exact_value():
    value = omega_closed_kernel(
        (Fraction(0), Fraction(0)), Fraction(1, 2), (Fraction(0), Fraction(0)), Fraction(1, 2)
    )
    assert value == ExactComplex(Fraction(8, 27), 0, -3)


def test_closed_kernel_is_exact_at_a_point_written_in_q_zeta4():
    # the same Gaussian-rational point as Cyclotomic and as ExactComplex
    q4 = CyclotomicField(4)
    i = q4.root(1)
    as_cyclotomic = (
        (i * Fraction(1, 4), q4.from_rational(Fraction(1, 5))),
        i * Fraction(1, 3),
        (q4.from_rational(Fraction(1, 3)), i * Fraction(1, 7)),
        q4.from_rational(Fraction(1, 2)),
    )
    as_gaussian = (
        (ExactComplex(0, Fraction(1, 4)), Fraction(1, 5)),
        ExactComplex(0, Fraction(1, 3)),
        (Fraction(1, 3), ExactComplex(0, Fraction(1, 7))),
        Fraction(1, 2),
    )
    got, want = omega_closed_kernel(*as_cyclotomic), omega_closed_kernel(*as_gaussian)
    assert isinstance(got, ExactComplex) and got == want and repr(got) == repr(want)
    # a coordinate outside Q(i) keeps the float path
    zeta5 = CyclotomicField(5).root(1) * Fraction(1, 3)
    assert type(omega_closed_kernel((zeta5, Fraction(1, 5)), *as_gaussian[1:])) is complex


def test_closed_kernel_zero_fiber():
    assert to_complex(omega_closed_kernel((0.3, 0.2), 0.0, (0.1, 0.4), 0.0)) == 0


def test_closed_kernel_hermitian_swap():
    rng = np.random.default_rng(3)
    for _ in range(10):
        z = tuple(complex(*rng.uniform(-0.6, 0.6, 2)) for _ in range(2))
        w = tuple(complex(*rng.uniform(-0.6, 0.6, 2)) for _ in range(2))
        lam, tau = (complex(*rng.uniform(-0.4, 0.4, 2)) for _ in range(2))
        a = to_complex(omega_closed_kernel(z, lam, w, tau))
        b = to_complex(omega_closed_kernel(w, tau, z, lam))
        assert abs(a - b.conjugate()) < 1e-14


def test_closed_kernel_positive_on_diagonal():
    rng = np.random.default_rng(4)
    for _ in range(20):
        z = tuple(complex(*rng.uniform(-1.5, 1.5, 2)) for _ in range(2))
        h = (1 + abs(z[0]) ** 2) * (1 + abs(z[1]) ** 2)
        lam = rng.uniform(0.05, 0.95) / math.sqrt(h) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        value = to_complex(omega_closed_kernel(z, lam, z, lam))
        assert abs(value.imag) < 1e-16 * abs(value) + 1e-300
        assert value.real > 0


def test_closed_kernel_boundary_contact():
    with pytest.raises(BoundaryContactError):
        omega_closed_kernel((0.0, 0.0), 1.0, (0.0, 0.0), 1.0)
    with pytest.raises(BoundaryContactError):
        omega_closed_kernel(
            (Fraction(0), Fraction(0)), Fraction(1), (Fraction(0), Fraction(0)), Fraction(1)
        )
    # a batch is checked at every point: one contact point among interior ones
    z = (np.zeros(3), np.zeros(3))
    with pytest.raises(BoundaryContactError):
        omega_closed_kernel(z, np.array([0.5, 1.0, 0.2]), z, np.array([0.5, 1.0, 0.2]))


# -- resummation -------------------------------------------------------------------

def test_resum_fiber_counting_polynomial():
    # p(m) = (m+2)(m+1)^2 = 2 + 5m + 4m^2 + m^3
    assert resum_polynomial_series([2, 5, 4, 1]) == (
        Fraction(0),
        Fraction(0),
        Fraction(-4),
        Fraction(6),
    )


def test_resum_trivial_cases():
    assert resum_polynomial_series([1]) == (Fraction(1),)
    assert resum_polynomial_series([1, 1]) == (Fraction(0), Fraction(1))


def test_resum_generating_function_oracle():
    # sum_m p(m) x^m must equal sum_j a_j (1-x)^-(j+1) numerically
    rng = np.random.default_rng(5)
    for _ in range(5):
        coeffs = [int(c) for c in rng.integers(-4, 5, size=4)]
        if not any(coeffs):
            coeffs[0] = 1
        a = resum_polynomial_series(coeffs)
        x = 0.37
        lhs = sum(
            sum(c * m**k for k, c in enumerate(coeffs)) * x**m for m in range(400)
        )
        rhs = sum(float(aj) * (1 - x) ** -(j + 1) for j, aj in enumerate(a))
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_resum_exact_remainder_is_zero():
    # the solver re-verifies the polynomial identity internally; a direct
    # spot check of the binomial expansion for the headline case
    a = resum_polynomial_series([2, 5, 4, 1])
    for m in range(10):
        lhs = (m + 2) * (m + 1) ** 2
        rhs = sum(int(aj) * math.comb(m + j, j) for j, aj in enumerate(a))
        assert lhs == rhs


# -- embedding and the projected domain ------------------------------------------

def test_embedding_satisfies_quadric_exactly():
    rng = np.random.default_rng(6)
    for _ in range(25):
        nums = [Fraction(int(a), int(b)) for a, b in rng.integers(1, 23, size=(3, 2))]
        w = embed_F(*nums)
        assert w[0] * w[3] - w[1] * w[2] == 0
    w = embed_F(0.3 + 0.2j, -1.5j, 2.0 + 1.0j)
    assert abs(w[0] * w[3] - w[1] * w[2]) < 1e-15  # float path: rounding only


def test_embedding_zero_fiber_collapses():
    assert embed_F(Fraction(0), Fraction(7), Fraction(-3)) == (0, 0, 0, 0)


def test_embedding_boundary_to_boundary():
    w = embed_F(0.5, 1.0, 1.0)
    assert w == (0.5, 0.5, 0.5, 0.5)
    assert sum(abs(x) ** 2 for x in w) == pytest.approx(1.0)
    h = (1 + 1.0) * (1 + 1.0)
    assert 0.5**2 * h == pytest.approx(1.0)


def test_embedding_lands_inside_unit_ball():
    rng = np.random.default_rng(7)
    for _ in range(30):
        z = tuple(complex(*rng.uniform(-1.4, 1.4, 2)) for _ in range(2))
        h = (1 + abs(z[0]) ** 2) * (1 + abs(z[1]) ** 2)
        lam = rng.uniform(0.05, 0.95) / math.sqrt(h)
        w = embed_F(lam, *z)
        assert sum(abs(x) ** 2 for x in w) < 1.0


def test_embedding_image_on_computed_syzygy_variety():
    lam, z1, z2 = (HoloPolynomial.coordinate(3, i) for i in range(3))
    relations = find_syzygies((lam, lam * z1, lam * z2, lam * z1 * z2), degree_bound=2)
    assert len(relations) == 1
    point = embed_F(Fraction(1, 3), Fraction(2, 5), Fraction(-1, 7))
    assert relations[0].relation.eval(point) == 0


def test_u_membership():
    assert u_domain_contains((0.5, 0.0, 0.0))
    assert not u_domain_contains((0.0, 0.5, 0.0))
    assert not u_domain_contains((1.0, 0.0, 0.0))
    inside = u_domain_contains((np.array([0.5, 0.0, 1.0]), 0.0, np.zeros((2, 1))))
    assert inside.tolist() == [[True, False, False]] * 2


def test_hartogs_points_of_the_wrong_dimension_are_rejected():
    third, fifth = Fraction(1, 3), Fraction(1, 5)
    for z, w in [((0.1, 0.2, 0.3), (0.1, 0.2)), ((0.1,), (0.1, 0.2)), ((0.1, 0.2), (0.1,)),
                 ((third, fifth, third), (third, fifth))]:
        with pytest.raises(ValueError, match=r"expected points in C\^2"):
            omega_closed_kernel(z, 0.5, w, 0.5)
        with pytest.raises(ValueError, match=r"expected points in C\^2"):
            kernel_series(z, 0.5, w, 0.5)
    for x in [(0.5, 0.0), (0.5, 0.0, 0.0, 0.0)]:
        with pytest.raises(ValueError, match=r"expected points in C\^3"):
            u_domain_contains(x)
        with pytest.raises(ValueError, match=r"expected points in C\^3"):
            u_kernel(x, (0.5, 0.0, 0.0))
    # coordinate arrays, one row per coordinate, keep working
    pts = np.array([[0.3, 0.1j, 0.4], [0.2j, -0.5, 0.3], [0.1, 0.2, 0.3j]])
    values = omega_closed_kernel(pts.T[:2], pts[:, 2], pts.T[:2], pts[:, 2])
    assert values.shape == (3,)
    assert values[1] == omega_closed_kernel(tuple(pts[1, :2]), pts[1, 2], tuple(pts[1, :2]), pts[1, 2])
    assert u_domain_contains(pts.T).shape == (3,)


def test_u_kernel_reference_point():
    got = to_complex(u_kernel((0.5, 0.0, 0.0), (0.5, 0.0, 0.0)))
    omega_value = to_complex(omega_closed_kernel((0, 0), 0.5, (0, 0), 0.5))
    assert got == pytest.approx(omega_value / 0.5**4, rel=1e-14)


def test_u_kernel_exact_mode():
    x = (Fraction(1, 2), Fraction(0), Fraction(0))
    value = u_kernel(x, x)
    assert value == ExactComplex(Fraction(8, 27) * 16, 0, -3)


def _random_u_points(rng, count):
    pts = []
    while len(pts) < count:
        z = tuple(complex(*rng.uniform(-1.2, 1.2, 2)) for _ in range(2))
        h = (1 + abs(z[0]) ** 2) * (1 + abs(z[1]) ** 2)
        lam = rng.uniform(0.1, 0.9) / math.sqrt(h) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        x = (lam, lam * z[0], lam * z[1])
        if u_domain_contains(x):
            pts.append(x)
    return pts


def test_u_kernel_hermitian_and_positive():
    rng = np.random.default_rng(8)
    pts = _random_u_points(rng, 20)
    for x, y in zip(pts[:10], pts[10:]):
        a = to_complex(u_kernel(x, y))
        b = to_complex(u_kernel(y, x))
        assert abs(a - b.conjugate()) <= 1e-12 * max(1.0, abs(a))
    for x in pts:
        value = to_complex(u_kernel(x, x))
        assert value.real > 0
        assert abs(value.imag) <= 1e-14 * value.real


def test_u_kernel_chart_singularity():
    with pytest.raises(ChartSingularityError):
        u_kernel((0.0, 0.0, 0.0), (0.5, 0.0, 0.0))
    with pytest.raises(ValueError):
        u_kernel((0.9, 0.5, 0.5), (0.5, 0.0, 0.0))  # outside the domain
    # a batch is checked at every point
    x = (np.array([0.5, 0.0]), np.zeros(2), np.zeros(2))
    with pytest.raises(ChartSingularityError):
        u_kernel(x, (0.5, 0.0, 0.0))
    with pytest.raises(ValueError):
        u_kernel((np.array([0.5, 0.9]), 0.5, 0.5), (0.5, 0.0, 0.0))


# -- rational form ------------------------------------------------------------------

def test_rational_kernel_structure():
    rk = omega_rational_kernel()
    assert rk.is_hermitian()
    rng = np.random.default_rng(9)
    for _ in range(5):
        z = tuple(complex(*rng.uniform(-0.5, 0.5, 2)) for _ in range(2))
        w = tuple(complex(*rng.uniform(-0.5, 0.5, 2)) for _ in range(2))
        lam, tau = (complex(*rng.uniform(-0.3, 0.3, 2)) for _ in range(2))
        direct = to_complex(omega_closed_kernel(z, lam, w, tau))
        rational = to_complex(rk.eval((z[0], z[1], lam), (w[0], w[1], tau)))
        assert abs(direct - rational) <= 1e-14 * max(1.0, abs(direct))


def test_rational_kernel_builds_its_complex_copies_once(monkeypatch):
    rk = omega_rational_kernel()
    calls = []
    convert = HermitianPolynomial.to_complex_coeffs
    monkeypatch.setattr(HermitianPolynomial, "to_complex_coeffs", lambda p: calls.append(p) or convert(p))
    x, y = (0.1 + 0.2j, -0.1j, 0.3), (0.2, 0.1, 0.25 - 0.1j)
    values = [rk.eval(x, y) for _ in range(3)]
    assert len(calls) == 2 and values[0] == values[1] == values[2]
    # an exact point takes the exact path and converts nothing
    rk.eval((Fraction(0), Fraction(0), Fraction(1, 2)), (Fraction(0), Fraction(0), Fraction(1, 2)))
    assert len(calls) == 2


def test_rational_kernel_exact_eval():
    rk = omega_rational_kernel()
    x = (Fraction(0), Fraction(0), Fraction(1, 2))
    assert rk.eval(x, x) == ExactComplex(Fraction(8, 27), 0, -3)


def test_rational_kernel_is_exact_at_a_point_written_in_q_zeta4():
    # x = (i/4, 1/5, i/3), y = (1/3, i/7, 1/2) as Cyclotomic and as ExactComplex
    rk = omega_rational_kernel()
    q4 = CyclotomicField(4)
    i = q4.root(1)
    x = (i * Fraction(1, 4), q4.from_rational(Fraction(1, 5)), i * Fraction(1, 3))
    y = (q4.from_rational(Fraction(1, 3)), i * Fraction(1, 7), q4.from_rational(Fraction(1, 2)))
    gx = (ExactComplex(0, Fraction(1, 4)), Fraction(1, 5), ExactComplex(0, Fraction(1, 3)))
    gy = (Fraction(1, 3), ExactComplex(0, Fraction(1, 7)), Fraction(1, 2))
    got, want = rk.eval(x, y), rk.eval(gx, gy)
    assert isinstance(got, ExactComplex) and got == want and repr(got) == repr(want)
    assert want == omega_closed_kernel(gx[:2], gx[2], gy[:2], gy[2])
    # a coordinate outside Q(i) takes the float path
    zeta5 = CyclotomicField(5).root(1) * Fraction(1, 3)
    value = rk.eval((zeta5,) + x[1:], y)
    assert type(value) is complex
    assert value == rk.eval((to_complex(zeta5),) + tuple(map(to_complex, x[1:])), tuple(map(to_complex, y)))
