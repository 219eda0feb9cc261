"""Weighted Bergman analysis on the Hartogs domain

    Omega = {|lambda|^2 h(z) < 1},  h(z) = (1+|z1|^2)(1+|z2|^2).

Everything here is exact: monomial norms are rationals times (2pi)^3, the
kernel is a geometric-type series in

    x = lambda conj(tau) (1 + z1 conj(w1)) (1 + z2 conj(w2)),

and resummation in the binomial basis {C(m+j, j)} turns the series into
the closed rational form

    K = ((2pi)^-3) * (4 lambda conj(tau) / rho^3 + 6 lambda conj(tau) / rho^4),
    rho = x - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence

import numpy as np

from .ball import check_finite_values, complex_coordinates
from .polynomials import HermitianPolynomial, MultiIndex
from .scalars import ExactComplex, check_lengths, read_points

TWO_PI_CUBED = (2.0 * math.pi) ** 3


class DivergentIntegralError(ValueError):
    """The requested moment integral diverges."""


class BoundaryContactError(ArithmeticError):
    """Closed-form kernel evaluated where the complexified defining
    function vanishes."""


class NonConvergentError(ValueError):
    """Series kernel evaluated outside its region of geometric convergence."""


class ChartSingularityError(ValueError):
    """Kernel requested on the chart-singular slice (first coordinate zero)."""


# ---------------------------------------------------------------------------
# exact moments
# ---------------------------------------------------------------------------

def factorial_moment(p: int, q: int) -> Fraction:
    """The radial integral of r^p (1+r)^(-q) over (0, inf):
    (q-p-2)! p! / (q-1)!, requiring q >= p + 2."""
    if p < 0 or q < 0:
        raise ValueError("p and q must be nonnegative")
    if q < p + 2:
        raise DivergentIntegralError(
            f"integral of r^{p} (1+r)^-{q} diverges (needs q >= p + 2)"
        )
    return Fraction(
        math.factorial(q - p - 2) * math.factorial(p), math.factorial(q - 1)
    )


def monomial_norm(m: int, alpha: Sequence[int]):
    """Squared norm of lambda^m z^alpha on Omega, exactly:
        (2pi)^3/(m+1) * (m-a1-1)! (m-a2-1)! a1! a2! / (m!)^2
    when both a_i <= m-1, and +inf otherwise (the monomial is not
    square-integrable).  Returned as an ExactComplex carrying pi^3, or
    math.inf for the divergent branch.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    alpha = MultiIndex(alpha)
    if len(alpha) != 2:
        raise ValueError("alpha length must match the base dimension 2")
    if any(a >= m for a in alpha):
        return math.inf
    value = Fraction(8, m + 1)  # (2 pi)^3 = 8 pi^3
    for a in alpha:
        value *= factorial_moment(a, m + 1)
    return ExactComplex(value, 0, 3)


def square_integrable(m: int, alpha: Sequence[int]) -> bool:
    return monomial_norm(m, alpha) != math.inf


# ---------------------------------------------------------------------------
# series and closed-form kernels for the standard domain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeriesValue:
    value: complex
    tail_bound: float
    terms: int


def _series_factor(z, w) -> complex:
    return (1.0 + complex(z) * complex(w).conjugate())


def kernel_series(
    z: Sequence,
    lam: complex,
    w: Sequence,
    tau: complex,
    truncation: int = 300,
) -> SeriesValue:
    """Partial sum of the fiber kernels:

        sum_{m=1}^{M} (m+1) m^2 / (2pi)^3 * (lam conj(tau))^m
                      * prod_i (1 + z_i conj(w_i))^(m-1)

    Requires M >= 0 and |lam conj(tau)| prod |1 + z_i conj(w_i)| < 1 and
    reports a geometric bound on the discarded tail.  Exact coordinates
    are read by value and computed as Python complex.
    """
    if truncation < 0:
        raise ValueError(f"truncation must be at least 0, got {truncation}")
    exact = read_points(2, z, w)
    if exact is not None:
        z, w = exact
    lt = complex(lam) * complex(tau).conjugate()
    factor = _series_factor(z[0], w[0]) * _series_factor(z[1], w[1])
    x = lt * factor
    q = abs(x)
    if not q < 1.0:  # a NaN from overflow does not converge either
        raise NonConvergentError(f"|x| = {q} is not below 1: series does not converge")
    total = 0j
    xpow = 1.0 + 0j  # x^(m-1)
    for m in range(1, truncation + 1):
        total += (m + 1) * m * m * lt * xpow
        xpow *= x
    total /= TWO_PI_CUBED
    m1 = truncation + 1
    first_tail = (m1 + 1) * m1 * m1 * abs(lt) * q ** (truncation)
    ratio = q * (m1 + 2) * (m1 + 1) ** 2 / ((m1 + 1) * m1 * m1)
    tail = first_tail / (1.0 - ratio) / TWO_PI_CUBED if ratio < 1.0 else math.inf
    return SeriesValue(value=total, tail_bound=tail, terms=truncation)


def _times_conj(a, b):
    """a conj(b); for float arrays each part from two separately rounded real
    products, so swapping a and b conjugates it exactly and a conj(a) is
    exactly real (numpy's complex multiply may fuse a product into a sum)."""
    if not isinstance(a, np.ndarray):
        return a * b.conjugate()
    out = a.real * b.real + a.imag * b.imag + 0j
    out.imag = a.imag * b.real - a.real * b.imag
    return out


def omega_closed_kernel(z: Sequence, lam, w: Sequence, tau):
    """Closed rational form of the kernel of the standard Hartogs domain,
    K = (4 lt / rho^3 + 6 lt / rho^4) / (2pi)^3 with lt = lam conj(tau),
    evaluated as lt (4 rho + 6) / (rho^4 (2pi)^3) with no complex power,
    in the arithmetic the inputs carry.

    Gaussian-rational inputs give an ExactComplex (rational times pi^-3),
    whether a coordinate is written as a rational, an ExactComplex or a
    ``Cyclotomic`` whose value lies in Q(i).  Other points (z, lam) and
    (w, tau) are read by ``complex_coordinates``; each a conj(b) is formed
    by ``_times_conj``, so the float diagonal is exactly real and swapping
    the points conjugates the value exactly.  Raises ValueError unless z
    and w have two coordinates or where a float value is not finite, and
    BoundaryContactError where rho vanishes at any of the points.
    """
    check_lengths(2, (z, w))
    x, y = (*z, lam), (*w, tau)
    exact = read_points(3, x, y)
    ((z1, z2, lam), (w1, w2, tau)), single = (exact, False) if exact else complex_coordinates(3, x, y)
    two_pi_cubed = ExactComplex(8, 0, 3) if exact else TWO_PI_CUBED
    lt = _times_conj(lam, tau)
    rho = lt * (1 + _times_conj(z1, w1)) * (1 + _times_conj(z2, w2)) - 1
    if exact and not rho:
        raise BoundaryContactError("rho = 0: boundary contact")
    if not exact and np.any(np.abs(rho) < 1e-13):
        raise BoundaryContactError(f"|rho| = {np.min(np.abs(rho))}: boundary contact")
    rho2 = rho * rho
    value = lt * (4 * rho + 6) / (rho2 * rho2 * two_pi_cubed)
    if not exact:
        check_finite_values(value)
    return complex(value[0]) if single else value


# ---------------------------------------------------------------------------
# the bounded projected domain
# ---------------------------------------------------------------------------

def u_domain_contains(x: Sequence):
    """Membership in {|w1|^4 + |w1|^2(|w2|^2+|w3|^2) + |w2 w3|^2 < |w1|^2}:
    a bool for a point, a bool array for coordinates given as arrays that
    broadcast, exact ones read by value.  ValueError unless x is in C^3."""
    (x,), single = complex_coordinates(3, x)
    a1, a2, a3 = np.abs(x) ** 2
    inside = a1 * a1 + a1 * (a2 + a3) + a2 * a3 < a1
    return bool(inside[0]) if single else inside


def u_kernel(x: Sequence, y: Sequence):
    """Kernel of the bounded projected domain in chart coordinates.

    The chart (lam, z1, z2) -> (lam, lam z1, lam z2) has Jacobian lam^2,
    so the kernel is the closed-form Hartogs kernel composed with the
    inverse chart divided by x1^2 conj(y1^2), formed by ``_times_conj``.
    The first coordinates must be nonzero.  Points are read as for
    ``omega_closed_kernel``, and every point is checked.
    """
    exact = read_points(3, x, y)
    (x, y), single = (exact, False) if exact else complex_coordinates(3, x, y)
    if np.any(x[0] == 0) or np.any(y[0] == 0):
        raise ChartSingularityError("first coordinate vanishes: chart singular slice")
    if not (np.all(u_domain_contains(x)) and np.all(u_domain_contains(y))):
        raise ValueError("points must lie inside the bounded domain")
    zx, zy = (x[1] / x[0], x[2] / x[0]), (y[1] / y[0], y[2] / y[0])
    value = omega_closed_kernel(zx, x[0], zy, y[0]) / _times_conj(x[0] * x[0], y[0] * y[0])
    return complex(value[0]) if single else value


# ---------------------------------------------------------------------------
# the closed form as explicit rational data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalKernel:
    """A kernel given as a ratio of Hermitian polynomials in
    ((z1, z2, lam), conj((w1, w2, tau)))."""

    numerator: HermitianPolynomial
    denominator: HermitianPolynomial

    @cached_property
    def complex_polys(self) -> tuple[HermitianPolynomial, HermitianPolynomial]:
        """Numerator and denominator with complex coefficients, built once
        for the float path."""
        return self.numerator.to_complex_coeffs(), self.denominator.to_complex_coeffs()

    def eval(self, x: Sequence, y: Sequence):
        """Exact at Gaussian-rational points, whatever field a coordinate
        is written in; complex otherwise."""
        num_poly, den_poly = self.numerator, self.denominator
        points = read_points(num_poly.dim, x, y)
        if points is not None:
            return num_poly.eval(*points) / den_poly.eval(*points)
        points, single = complex_coordinates(num_poly.dim, x, y)
        num_poly, den_poly = self.complex_polys
        value = num_poly.eval(*points) / den_poly.eval(*points)
        return complex(value[0]) if single else value

    def is_hermitian(self) -> bool:
        return (
            self.numerator.conj_swap() == self.numerator
            and self.denominator.conj_swap() == self.denominator
        )


def omega_rational_kernel() -> RationalKernel:
    """The closed form as numerator/denominator polynomial data, variables
    ordered (z1, z2, lam)."""
    lam = HermitianPolynomial.term(3, (0, 0, 1), (0, 0, 1), Fraction(1))
    one = HermitianPolynomial.constant(3, Fraction(1))
    f1 = one + HermitianPolynomial.term(3, (1, 0, 0), (1, 0, 0), Fraction(1))
    f2 = one + HermitianPolynomial.term(3, (0, 1, 0), (0, 1, 0), Fraction(1))
    rho = lam * f1 * f2 - one
    numerator = lam * (rho.scale(Fraction(4)) + one.scale(Fraction(6)))
    denominator = (rho**4).scale(ExactComplex(8, 0, 3))  # (2 pi)^3 rho^4
    return RationalKernel(numerator=numerator, denominator=denominator)
