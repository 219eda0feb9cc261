import math
from fractions import Fraction

import numpy as np
import pytest

from berg.ball import (
    DefiningFunction,
    SingularKernelError,
    ball_kernel,
    levi_form,
    sphere_defining_function,
    u_domain_defining_function,
)
from berg.polynomials import HermitianPolynomial
from berg.scalars import ExactComplex, to_complex


def siegel_model_defining_function() -> DefiningFunction:
    """rho = 2 Re(z_2) - |z_1|^2, a sign-flipped unbounded model in C^2."""
    rho = HermitianPolynomial(2, {
        ((0, 1), (0, 0)): Fraction(1),
        ((0, 0), (0, 1)): Fraction(1),
        ((1, 0), (1, 0)): Fraction(-1),
    })
    return DefiningFunction(rho)


def _series_oracle(n: int, z, w, terms: int = 100) -> complex:
    """Independent kernel route: n!/pi^n sum_k C(k+n, n) <z, w>^k."""
    u = sum(a * complex(b).conjugate() for a, b in zip(z, w))
    total = sum(math.comb(k + n, n) * u**k for k in range(terms))
    return math.factorial(n) / math.pi**n * total


def test_center_values_exact():
    assert ball_kernel(2, (Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))) == ExactComplex(2, 0, -2)
    assert ball_kernel(1, (Fraction(0),), (Fraction(0),)) == ExactComplex(1, 0, -1)


def test_center_values_float():
    assert to_complex(ball_kernel(2, (0j, 0j), (0j, 0j))).real == pytest.approx(2 / math.pi**2)


def test_half_radius_against_series_oracle():
    z = (0.5 + 0j, 0j)
    value = to_complex(ball_kernel(2, z, z))
    assert value.real == pytest.approx(2 / math.pi**2 * (3 / 4) ** -3, rel=1e-12)
    assert value == pytest.approx(_series_oracle(2, z, z), rel=1e-12)


def test_disk_series_oracle():
    z, w = 0.3 + 0.1j, -0.2 + 0.4j
    assert to_complex(ball_kernel(1, (z,), (w,))) == pytest.approx(_series_oracle(1, (z,), (w,)), rel=1e-12)


def test_exact_half_radius():
    z = (Fraction(1, 2), Fraction(0))
    value = ball_kernel(2, z, z)
    assert value == ExactComplex(Fraction(2) * Fraction(64, 27), 0, -2)


def test_hermitian_symmetry_and_diagonal_positivity():
    rng = np.random.default_rng(0)
    for _ in range(10):
        z = tuple(complex(*rng.uniform(-0.5, 0.5, 2)) for _ in range(2))
        w = tuple(complex(*rng.uniform(-0.5, 0.5, 2)) for _ in range(2))
        a = to_complex(ball_kernel(2, z, w))
        b = to_complex(ball_kernel(2, w, z))
        assert abs(a - b.conjugate()) < 1e-13
        assert to_complex(ball_kernel(2, z, z)).real > 0


def test_gram_positivity():
    rng = np.random.default_rng(7)
    pts = [tuple(complex(*rng.uniform(-0.55, 0.55, 2)) for _ in range(2)) for _ in range(12)]
    gram = np.array([[to_complex(ball_kernel(2, zi, zj)) for zj in pts] for zi in pts])
    eigs = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
    assert eigs.min() >= -1e-10


def test_unitary_invariance_exact():
    # a rational orthogonal matrix keeps everything in exact arithmetic
    u = [
        [Fraction(3, 5), Fraction(4, 5)],
        [Fraction(-4, 5), Fraction(3, 5)],
    ]
    z = (ExactComplex(Fraction(1, 3), Fraction(1, 7)), ExactComplex(Fraction(-1, 4)))
    w = (ExactComplex(Fraction(1, 5)), ExactComplex(Fraction(2, 7), Fraction(-1, 9)))

    def apply(m, v):
        return tuple(
            sum((m[i][j] * v[j] for j in range(2)), start=ExactComplex(0))
            for i in range(2)
        )

    assert ball_kernel(2, apply(u, z), apply(u, w)) == ball_kernel(2, z, w)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_boundary_contact_error():
    with pytest.raises(SingularKernelError):
        ball_kernel(1, (1.0,), (1.0,))
    with pytest.raises(SingularKernelError):
        ball_kernel(2, (Fraction(1), Fraction(0)), (Fraction(1), Fraction(0)))


def _random_points(rng, shape, n, radius=0.45):
    """Points of C^n drawn one after another, as an (n, *shape) coordinate batch."""
    rows = (rng.uniform(-radius, radius, (*shape, n)) + 1j * rng.uniform(-radius, radius, (*shape, n))) / n
    return np.moveaxis(rows, -1, 0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_batched_kernel_equals_scalar_rows_bit_for_bit(n):
    rng = np.random.default_rng(20 + n)
    z, w = _random_points(rng, (40,), n), _random_points(rng, (40,), n)
    batch = ball_kernel(n, z, w)
    assert batch.shape == (40,)
    one_w = ball_kernel(n, z, w[:, 0])
    for i in range(40):
        row = ball_kernel(n, tuple(z[:, i]), tuple(w[:, i]))
        assert type(row) is complex
        assert (row.real, row.imag) == (batch[i].real, batch[i].imag)
        assert ball_kernel(n, list(z[:, i]), w[:, 0]) == one_w[i]


def test_batched_kernel_broadcasts_leading_axes():
    rng = np.random.default_rng(30)
    z, w = _random_points(rng, (3, 1), 2), _random_points(rng, (5,), 2)
    grid = ball_kernel(2, z, w)
    assert grid.shape == (3, 5)
    assert grid[2, 4] == ball_kernel(2, z[:, 2, 0], w[:, 4])
    assert abs(grid[1, 3] - _series_oracle(2, z[:, 1, 0], w[:, 3], terms=200)) < 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_batched_kernel_errors_match_scalar():
    # the points (0.1, 0.2j) and (0.6, 0.8), given as coordinates
    z = np.array([[0.1, 0.6], [0.2j, 0.8]])
    with pytest.raises(SingularKernelError, match="singular"):
        ball_kernel(2, z, np.array([0.6, 0.8]))
    for bad in (np.zeros((3, 4)), (0.1,), (0.1, 0.2, 0.3)):
        with pytest.raises(ValueError, match=r"expected points in C\^2"):
            ball_kernel(2, bad, (0.0, 0.0))
        with pytest.raises(ValueError, match=r"expected points in C\^2"):
            ball_kernel(2, np.zeros((2, 4)), bad)


# -- Levi form ----------------------------------------------------------------

def test_levi_sphere():
    report = levi_form(sphere_defining_function(2), (1.0, 0.0))
    assert report.smooth
    assert report.eigenvalues == (1.0,)
    assert report.strictly_pseudoconvex


def test_levi_rejects_a_polynomial_that_is_not_real_valued():
    # |z1|^2 + |z2|^2 + z1 conj(z2)/2 - 1 has no real values off the diagonal
    rho = sphere_defining_function(2).rho + HermitianPolynomial.term(2, (1, 0), (0, 1), Fraction(1, 2))
    with pytest.raises(ValueError, match="real-valued"):
        levi_form(rho, (0.0, 1.0))
    assert levi_form(sphere_defining_function(2).rho, (0.0, 1.0)).strictly_pseudoconvex


def test_levi_model_negative():
    report = levi_form(siegel_model_defining_function(), (0.0, 0.0))
    assert report.eigenvalues == (-1.0,)
    assert not report.strictly_pseudoconvex


def _finite_difference_levi(rho_poly, p, h=1e-4):
    """Independent oracle: nested central Wirtinger differences plus the
    numpy eigensolver."""
    n = rho_poly.dim

    def rho(z):
        return to_complex(rho_poly.eval(z, z)).real

    def d_zbar(j, z):
        zp, zm, zpi, zmi = list(z), list(z), list(z), list(z)
        zp[j] += h
        zm[j] -= h
        zpi[j] += 1j * h
        zmi[j] -= 1j * h
        return ((rho(zp) - rho(zm)) + 1j * (rho(zpi) - rho(zmi))) / (4 * h)

    def d_z_of(f, i, z):
        zp, zm, zpi, zmi = list(z), list(z), list(z), list(z)
        zp[i] += h
        zm[i] -= h
        zpi[i] += 1j * h
        zmi[i] -= 1j * h
        return ((f(zp) - f(zm)) - 1j * (f(zpi) - f(zmi))) / (4 * h)

    grad = np.array([complex(d_zbar(i, p)).conjugate() for i in range(n)])
    h_matrix = np.array(
        [[d_z_of(lambda z: d_zbar(j, z), i, p) for j in range(n)] for i in range(n)]
    )
    g = grad / np.linalg.norm(grad)
    basis = []
    for i in range(n):
        v = np.zeros(n, dtype=complex)
        v[i] = 1.0
        for b in [g] + basis:
            v = v - np.vdot(b, v) * b
        if np.linalg.norm(v) > 1e-8:
            basis.append(v / np.linalg.norm(v))
    b_matrix = np.column_stack(basis)
    restricted = b_matrix.conj().T @ h_matrix @ b_matrix / np.linalg.norm(grad)
    return sorted(np.linalg.eigvalsh((restricted + restricted.conj().T) / 2))


def test_levi_projected_domain_boundary():
    rho = u_domain_defining_function()
    report = levi_form(rho, (1.0, 0.0, 0.0))
    assert report.smooth
    assert report.strictly_pseudoconvex
    oracle = _finite_difference_levi(rho.rho, [1.0 + 0j, 0j, 0j])
    assert np.allclose(sorted(report.eigenvalues), oracle, atol=1e-6)


def _levi_loop(rho, p):
    """The Gram-Schmidt tangent basis and triple sum the numpy Levi form
    replaced, kept as its oracle."""
    n = rho.dim
    grad = [to_complex(rho.d_z(i).eval(p)) for i in range(n)]
    gnorm = math.sqrt(sum(abs(g) ** 2 for g in grad))
    hess = [[to_complex(rho.d_z(i).d_zbar(j).eval(p)) for j in range(n)] for i in range(n)]
    basis = [[g / gnorm for g in grad]]
    for i in range(n):
        v = [1.0 + 0j if k == i else 0j for k in range(n)]
        for b in basis:
            overlap = sum(b[k].conjugate() * v[k] for k in range(n))
            v = [v[k] - overlap * b[k] for k in range(n)]
        norm = math.sqrt(sum(abs(x) ** 2 for x in v))
        if norm > 1e-10:
            basis.append([x / norm for x in v])
        if len(basis) == n:
            break
    basis = basis[1:]
    restricted = [
        [
            sum(a[i].conjugate() * hess[i][j] * b[j] for i in range(n) for j in range(n)) / gnorm
            for b in basis
        ]
        for a in basis
    ]
    return np.linalg.eigvalsh(np.array(restricted, dtype=complex).reshape(len(basis), len(basis)))


def _u_domain_boundary_point(rng):
    # (lam, lam z1, lam z2) with |lam|^2 (1 + |z1|^2)(1 + |z2|^2) = 1
    z1, z2 = rng.normal(size=2) + 1j * rng.normal(size=2)
    lam = np.exp(2j * math.pi * rng.uniform()) / math.sqrt((1 + abs(z1) ** 2) * (1 + abs(z2) ** 2))
    return (complex(lam), complex(lam * z1), complex(lam * z2))


def test_levi_eigenvalues_match_the_tangent_basis_loop():
    rng = np.random.default_rng(11)
    cases = []
    for n in (2, 3, 4):
        for _ in range(20):
            v = rng.normal(size=2 * n)
            v /= np.linalg.norm(v)
            cases.append((sphere_defining_function(n), tuple(v[:n] + 1j * v[n:])))
    cases += [(u_domain_defining_function(), _u_domain_boundary_point(rng)) for _ in range(50)]
    for rho, p in cases:
        report = levi_form(rho, p)
        want = _levi_loop(rho.rho, p)
        assert report.smooth and len(report.eigenvalues) == len(want) == rho.dim - 1
        assert np.abs(np.array(report.eigenvalues) - want).max() <= 1e-14
    # the stock points give their exact values
    assert levi_form(sphere_defining_function(2), (0.6, 0.8)).eigenvalues == (1.0,)
    assert levi_form(siegel_model_defining_function(), (0.0, 0.0)).eigenvalues == (-1.0,)
    assert levi_form(u_domain_defining_function(), (1.0, 0.0, 0.0)).eigenvalues == (1.0, 1.0)


def test_levi_non_smooth_slice():
    report = levi_form(u_domain_defining_function(), (0.0, 0.5, 0.0))
    assert not report.smooth
    assert report.eigenvalues is None


def test_levi_scaling_invariance():
    rho = u_domain_defining_function().rho
    scaled = rho.scale(Fraction(7, 2))
    a = levi_form(rho, (1.0, 0.0, 0.0)).eigenvalues
    b = levi_form(scaled, (1.0, 0.0, 0.0)).eigenvalues
    assert np.allclose(a, b, atol=1e-12)


def test_levi_preconditions():
    with pytest.raises(ValueError):
        levi_form(sphere_defining_function(2), (0.5, 0.0))  # not on the zero set
    # a NaN rho compares false against any tolerance: it is off the zero set too
    for point in ((math.nan, 0.0), (complex(0, math.nan), 1.0), (math.inf, 0.0)):
        with pytest.raises(ValueError, match="not on the zero set"):
            levi_form(sphere_defining_function(2), point)


def test_levi_on_the_circle_is_vacuously_strictly_pseudoconvex():
    # in C^1 the complex tangent space is {0}: no eigenvalues, nothing to fail
    for point in ((1.0,), (-0.6 + 0.8j,)):
        report = levi_form(sphere_defining_function(1), point)
        assert report.smooth and report.eigenvalues == () and report.strictly_pseudoconvex
