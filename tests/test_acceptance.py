"""Acceptance suite: one test per exit criterion, at the stated tolerance.

Each criterion prints a single [PASS]/[FAIL] line (run pytest with -s to
see them inline).  Tolerances are pinned here and nowhere else.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from berg.algebraic import (
    annulus_surface,
    ball_kernel_dbar_at_zero,
    best_relation_residual,
    boundary_leading_coefficient,
    disk_surface,
    fit_surface_relation,
    linear_map_coefficients,
    omega_diagonal_surface,
    recover_map_from_kernel,
)
from berg.ball import (
    ball_kernel,
    levi_form,
    sphere_defining_function,
    u_domain_defining_function,
)
from berg.cyclotomic import root_of_unity
from berg.groups import UnitaryMatrix, generate_group, is_fixed_point_free
from berg.hartogs import (
    factorial_moment,
    kernel_series,
    monomial_norm,
    omega_closed_kernel,
)
from berg.invariants import compute_basic_map, find_syzygies
from berg.polynomials import HoloPolynomial
from berg.scalars import ExactComplex, to_complex
from berg.verify import (
    IntegrationSpec,
    check_deck_symmetry,
    check_orthogonality,
    check_pullback_isometry,
    check_reproducing,
    check_transformation_law,
    integrate,
)
from test_hartogs import embed_F, resum_polynomial_series

N_MC = 1_000_000


def _criterion(number: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


# -----------------------------------------------------------------------------
# 1. closed-form kernel equals its series at 100 random pairs, fast
# -----------------------------------------------------------------------------

def test_criterion_01_series_matches_closed_form():
    rng = np.random.default_rng(101)
    start = time.time()
    worst = 0.0
    checked = 0
    while checked < 100:
        z = tuple(complex(*rng.uniform(-0.4, 0.4, 2)) for _ in range(2))
        w = tuple(complex(*rng.uniform(-0.4, 0.4, 2)) for _ in range(2))
        lam, tau = (complex(*rng.uniform(-0.5, 0.5, 2)) for _ in range(2))
        rho = lam * tau.conjugate() * (1 + z[0] * w[0].conjugate()) * (
            1 + z[1] * w[1].conjugate()
        ) - 1
        if abs(rho) < 0.2:
            continue
        closed = to_complex(omega_closed_kernel(z, lam, w, tau))
        series = kernel_series(z, lam, w, tau, truncation=300).value
        if abs(closed) > 0:
            worst = max(worst, abs(series - closed) / abs(closed))
        checked += 1
    elapsed = time.time() - start
    _criterion(
        "1",
        worst <= 1e-10 and elapsed < 2.0,
        f"max relative error {worst:.2e} over 100 pairs in {elapsed:.2f}s",
    )


# -----------------------------------------------------------------------------
# 2. binomial-basis resummation of the fiber counting polynomial
# -----------------------------------------------------------------------------

def test_criterion_02_resummation_coefficients():
    coeffs = resum_polynomial_series([2, 5, 4, 1])  # (m+2)(m+1)^2
    exact_match = coeffs == (Fraction(0), Fraction(0), Fraction(-4), Fraction(6))

    # independent exact remainder: expand sum a_j C(m+j, j) as a
    # polynomial in m with Fraction convolutions and subtract
    def binom_poly(j):
        poly = [Fraction(1)]
        for i in range(1, j + 1):
            poly = [Fraction(0)] + poly
            for k in range(len(poly) - 1):
                poly[k] += poly[k + 1] * i
        return [c / math.factorial(j) for c in poly]

    remainder = [Fraction(c) for c in (2, 5, 4, 1)]
    for j, aj in enumerate(coeffs):
        for k, c in enumerate(binom_poly(j)):
            remainder[k] -= aj * c
    zero_remainder = all(c == 0 for c in remainder)
    _criterion(
        "2",
        exact_match and zero_remainder,
        f"coefficients {tuple(map(int, coeffs))}, remainder {remainder}",
    )


# -----------------------------------------------------------------------------
# 3. transformation law and dual-sum symmetry at 1e-12
# -----------------------------------------------------------------------------

def test_criterion_03_transformation_law():
    worst = 0.0
    names = []
    for cover in ("disk-2", "disk-3", "disk-4", "disk-5", "minus-identity", "scalar-i"):
        report = check_transformation_law(cover, count=50, seed=103)
        worst = max(worst, report.residual)
        names.append(f"{cover}:{report.residual:.1e}")
        sym = check_deck_symmetry(cover, count=20, seed=103)
        worst = max(worst, sym.residual)
    _criterion("3", worst <= 1e-12, f"max residual {worst:.2e} ({', '.join(names)})")


# -----------------------------------------------------------------------------
# 4. pullback isometry, exact rational arithmetic
# -----------------------------------------------------------------------------

def test_criterion_04_pullback_isometry():
    ok = True
    for d in range(6):
        chk = check_pullback_isometry(2, d)
        expected = ExactComplex(Fraction(2, d + 1), 0, 1)  # 2 pi/(d+1)
        ok = ok and chk.equal and chk.pullback_norm == expected
    _criterion("4", ok, "||f^* (w^d dw)||^2 = 2 ||w^d dw||^2 exactly for d = 0..5")


# -----------------------------------------------------------------------------
# 5. basic maps and the embedding quadric
# -----------------------------------------------------------------------------

def test_criterion_05_basic_maps_and_embedding():
    def mono(alpha):
        return HoloPolynomial.monomial(2, alpha, Fraction(1))

    minus = generate_group([UnitaryMatrix.scalar(2, root_of_unity(2))])
    basic2 = compute_basic_map(minus)
    gens_ok = list(basic2.generators) == [mono((2, 0)), mono((1, 1)), mono((0, 2))]
    syz = find_syzygies(basic2, 2)
    expected_syzygy = HoloPolynomial(3, {(1, 0, 1): Fraction(1), (0, 2, 0): Fraction(-1)})
    syzygy_ok = (
        len(syz) == 1
        and syz[0].relation == expected_syzygy
        and syz[0].substitute(basic2.generators).is_zero()
    )

    omega_group = generate_group([UnitaryMatrix.scalar(2, root_of_unity(3))])
    basic3 = compute_basic_map(omega_group)
    cubic_ok = basic3.degrees == (3, 3, 3, 3)

    trivial = compute_basic_map(generate_group([UnitaryMatrix.identity(2)]))
    trivial_ok = list(trivial.generators) == [
        HoloPolynomial.coordinate(2, 0),
        HoloPolynomial.coordinate(2, 1),
    ]

    embed_ok = True
    rng = np.random.default_rng(105)
    for _ in range(20):
        a, b, c, d, e, f = (int(x) for x in rng.integers(1, 40, 6))
        w = embed_F(Fraction(a, b), Fraction(c, d), Fraction(-e, f))
        embed_ok = embed_ok and (w[0] * w[3] - w[1] * w[2] == 0)

    _criterion(
        "5",
        gens_ok and syzygy_ok and cubic_ok and trivial_ok and embed_ok,
        "degree-2 triple with quadric relation, four cubics, coordinates, "
        "and the fiber embedding quadric, all exact",
    )


# -----------------------------------------------------------------------------
# 6. algebraic-relation fitting (positive and negative controls)
# -----------------------------------------------------------------------------

def test_criterion_06_algebraicity_fits():
    disk = disk_surface()
    disk_rel = fit_surface_relation(disk, 4, 1, seed=106)
    boundary = boundary_leading_coefficient(
        disk_rel, disk.boundary_features(50, seed=106)
    )
    omega_rel = fit_surface_relation(omega_diagonal_surface(), 12, 1, seed=106)
    ok = (
        disk_rel.residual <= 1e-10
        and boundary <= 1e-8
        and omega_rel.residual <= 1e-8
    )
    _criterion(
        "6",
        ok,
        f"disk residual {disk_rel.residual:.1e}, boundary {boundary:.1e}, "
        f"fiber-domain residual {omega_rel.residual:.1e}",
    )


def test_criterion_06_annulus_negative_control():
    # The annulus kernel is not algebraic (double poles at |z|^2 = r0^(2m)
    # for every integer m), but on the sampled band the poles at the two
    # boundary circles dominate and a degree-(8, 2) relation clears them to
    # about 1e-8.  The negative statement the fitter can make is "no relation
    # below the certification tolerance at the searched degrees": the same
    # 1e-10 that certifies the disk relation above.  The twin with truncation
    # 1 is the rational function A + B t + C / t (t = |z|^2), exactly
    # algebraic at feature degree 4; the identical search must certify it,
    # so this check fails whenever the kernel under test is algebraic.
    best = best_relation_residual(annulus_surface(), 8, 2, seed=106)
    twin = best_relation_residual(annulus_surface(truncation=1), 8, 2, seed=106)
    _criterion(
        "6 (annulus)",
        best > 1e-10 and twin <= 1e-10,
        f"best residual {best:.2e} over k-degree <= 2, feature degree <= 8 "
        f"(required > 1e-10); rational twin (truncation 1) {twin:.2e} "
        "(required <= 1e-10)",
    )


# -----------------------------------------------------------------------------
# 7. recovering the identity map from ball kernels
# -----------------------------------------------------------------------------

def test_criterion_07_map_recovery():
    results = {}
    for n in (1, 2):
        kernel = lambda z, w, n=n: to_complex(ball_kernel(n, z, w))
        exact = recover_map_from_kernel(
            kernel, n, dbar_kernel=lambda z, j, n=n: ball_kernel_dbar_at_zero(n, z, j)
        )
        a = linear_map_coefficients(exact, n, seed=107)
        results[f"exact-{n}"] = float(np.max(np.abs(a - np.eye(n))))
        fd = recover_map_from_kernel(kernel, n, step=1e-5)
        b = linear_map_coefficients(fd, n, seed=107)
        results[f"fd-{n}"] = float(np.max(np.abs(b - np.eye(n))))
    ok = (
        results["exact-1"] <= 1e-10
        and results["exact-2"] <= 1e-10
        and results["fd-1"] <= 1e-6
        and results["fd-2"] <= 1e-6
    )
    _criterion(
        "7",
        ok,
        "coefficient errors "
        + ", ".join(f"{k}={v:.1e}" for k, v in sorted(results.items())),
    )


# -----------------------------------------------------------------------------
# 8. moments: exact values against Monte Carlo at N = 10^6
# -----------------------------------------------------------------------------

def test_criterion_08_moments():
    cases = [(1, (0, 0)), (2, (1, 1)), (3, (2, 0))]
    details = []
    ok = factorial_moment(1, 4) == Fraction(1, 6)
    details.append("radial moment 1/6 exact")
    spec = IntegrationSpec(domain="omega", n_samples=N_MC, seed=108)
    for m, alpha in cases:
        exact = to_complex(monomial_norm(m, alpha)).real

        def integrand(pts, m=m, alpha=alpha):
            return (
                8.0
                * np.abs(pts[2]) ** (2 * m)
                * np.abs(pts[0]) ** (2 * alpha[0])
                * np.abs(pts[1]) ** (2 * alpha[1])
            )

        est, se = integrate(spec, integrand)
        within = abs(est.real - exact) <= 3 * se
        tight = se <= 0.02 * exact
        ok = ok and within and tight
        details.append(
            f"({m},{alpha}): {est.real:.4f} vs {exact:.4f} "
            f"({abs(est.real - exact) / se:.2f} sigma, rel se {se / exact:.2%})"
        )
    _criterion("8", ok, "; ".join(details))


# -----------------------------------------------------------------------------
# 9. reproducing property and fiber-degree orthogonality at N = 10^6
# -----------------------------------------------------------------------------

def test_criterion_09_reproducing_property():
    disk = check_reproducing(
        "disk", 1, 0.3, IntegrationSpec(domain="disk", n_samples=N_MC, seed=109)
    )
    omega = check_reproducing(
        "omega",
        (1, (0, 0)),
        (0.0, 0.0, 0.4),
        IntegrationSpec(domain="omega", n_samples=N_MC, seed=109),
    )
    orth_spec = IntegrationSpec(domain="omega", n_samples=N_MC, seed=109)
    orth1 = check_orthogonality((1, (0, 0)), (2, (0, 0)), orth_spec)
    orth2 = check_orthogonality((1, (0, 0)), (2, (1, 0)), orth_spec)
    ok = disk.passed and omega.passed and orth1.passed and orth2.passed
    _criterion(
        "9",
        ok,
        f"disk {disk.estimate.real:.5f} (target 0.3, se {disk.stderr:.1e}); "
        f"fiber domain {omega.estimate.real:.5f} (target 0.4, se {omega.stderr:.1e}); "
        f"orthogonality |{abs(orth1.estimate):.2e}|, |{abs(orth2.estimate):.2e}|",
    )


# -----------------------------------------------------------------------------
# 10. boundary geometry and fixed-point detection
# -----------------------------------------------------------------------------

def test_criterion_10_geometry():
    sphere = levi_form(sphere_defining_function(2), (1.0, 0.0))
    u_smooth = levi_form(u_domain_defining_function(), (1.0, 0.0, 0.0))
    u_flagged = levi_form(u_domain_defining_function(), (0.0, 0.5, 0.0))
    geo_ok = (
        sphere.strictly_pseudoconvex
        and u_smooth.strictly_pseudoconvex
        and not u_flagged.smooth
        and u_flagged.eigenvalues is None
    )

    scalar_i = generate_group([UnitaryMatrix.scalar(2, root_of_unity(4))])
    reflect = generate_group(
        [UnitaryMatrix.diagonal([root_of_unity(2), root_of_unity(1)])]
    )
    trivial = generate_group([UnitaryMatrix.identity(2)])
    fpf_i = is_fixed_point_free(scalar_i)
    fpf_r = is_fixed_point_free(reflect)
    fpf_t = is_fixed_point_free(trivial)
    witness_ok = (
        not fpf_r.free
        and fpf_r.witness is not None
        and abs(abs(fpf_r.witness[1][1]) - 1) < 1e-12
    )
    group_ok = fpf_i.free and witness_ok and fpf_t.free
    _criterion(
        "10",
        geo_ok and group_ok,
        f"sphere eigs {sphere.eigenvalues}, boundary eigs {u_smooth.eigenvalues}, "
        "singular slice flagged, fixed-point reports correct",
    )
