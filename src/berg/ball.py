"""Unit ball kernels, uniform ball and shell samples, and Levi-form checks.

The kernel here is the reproducing kernel of square-integrable holomorphic
functions with respect to Lebesgue measure on C^n:

    K_n(z, w) = n! / pi^n * (1 - <z, w>)^(-(n+1)),   <z, w> = sum z_i conj(w_i).

Evaluation is exact (Gaussian rational times pi^-n) when inputs are exact,
floating otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .polynomials import HermitianPolynomial
from .scalars import ExactComplex, check_lengths, read_points

BOUNDARY_TOL = 1e-9
GRADIENT_TOL = 1e-9


class SingularKernelError(ArithmeticError):
    """Kernel evaluated at boundary contact <z, w> = 1."""


def hermitian_inner(z: Sequence, w: Sequence):
    """<z, w> = sum z_i * conj(w_i) over the coordinates: exact when both
    points are exact, an array when coordinates are arrays."""
    total = None
    for a, b in zip(z, w):
        term = a * b.conjugate()
        total = term if total is None else total + term
    return 0 if total is None else total


def ball_kernel(n: int, z, w):
    """Bergman kernel of the unit ball in C^n at (z, w).

    Points are read by ``read_points``.  Returns an ExactComplex (rational
    times pi^-n) for Gaussian-rational points, ``Cyclotomic`` coordinates
    that lie in Q(i) included; other points are read by
    ``complex_coordinates``.  Raises SingularKernelError at boundary
    contact <z, w> = 1, and ValueError where a float value is not finite
    (a NaN coordinate, or one whose products overflow).
    """
    exact = read_points(n, z, w)
    if exact is not None:
        return kernel_term(n, hermitian_inner(*exact), ExactComplex(math.factorial(n), 0, -n))
    (z, w), single = complex_coordinates(n, z, w)
    values = kernel_term(n, hermitian_inner(z, w), math.factorial(n) / math.pi**n)
    return complex(values[0]) if single else values


def check_finite_values(values) -> None:
    """ValueError naming the first of an array of kernel values that is not finite."""
    finite = np.isfinite(values)
    if not finite.all():
        raise ValueError(f"kernel value {complex(values[~finite][0])} is not finite")


def kernel_term(n: int, u, scale):
    """scale / (1 - u)^(n+1), the ball kernel's one formula, for an exact
    inner product u = <z, w> or an array of float ones; the kernel is the
    term with scale n!/pi^n.  Raises SingularKernelError at boundary
    contact u = 1 (|1 - u| < 1e-14 for floats), and ValueError where a
    float value is not finite.

    The power is formed by products, not an elementwise complex power; not
    in place, since numpy's in-place complex multiply can round differently
    and a batch of one would then miss its batched row.  One test after the
    division costs what a contact test before it would: NaN, infinity and
    values near contact all fail it, and only then is |1 - u| tested (exact
    float contact divides by zero first, quietly).
    """
    one_minus = 1 - u
    exact = isinstance(one_minus, ExactComplex)
    if exact and not one_minus:
        raise SingularKernelError("kernel singular at <z, w> = 1")
    power = one_minus * one_minus
    for _ in range(n - 1):
        power = power * one_minus
    values = scale / power if exact else _quiet_divide(scale, power)
    # scale 1e14^2 is at most a value's size at |1 - u| = 1e-14, for every n >= 1
    if not exact and not np.abs(values).max(initial=0.0) <= scale * 1e28:  # NaN fails it too
        if (np.abs(one_minus) < 1e-14).any():
            raise SingularKernelError("kernel singular at <z, w> = 1")
        check_finite_values(values)
    return values


# division without numpy's warnings, for kernel_term (errstate costs less as a decorator)
_quiet_divide = np.errstate(divide="ignore", invalid="ignore")(np.divide)


def complex_coordinates(n: int, *points) -> tuple[list[np.ndarray], bool]:
    """The one reader of points that are not exact: each point in C^n as a
    complex array of its coordinates, broadcast to (n, ...), and whether
    every point is single.  A single point becomes an (n, 1) batch of one:
    a kernel runs one formula and unwraps a pair's one value, equal to its
    batched row bit for bit.  ValueError as for ``read_points``.
    """
    check_lengths(n, points)
    arrays, single = [], True
    for p in points:
        try:
            p = np.asarray(p, dtype=complex)
        except ValueError:  # coordinates of different shapes that broadcast
            p = np.array(np.broadcast_arrays(*p), dtype=complex)
        single = single and p.ndim == 1
        arrays.append(p[:, None] if p.ndim == 1 else p)
    return arrays, single


def _unit_disk_points(
    rng, count: int, dim: int = 1, r_min: float = 0.0, r_max: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """The coordinates of ``count`` uniform points p of the shell
    r_min < |p| < r_max in C^dim, a (dim, count) array, and their |p|^2,
    by rejection from the cube [-1, 1]^(2 dim); accepted candidates keep
    their draw order."""
    points, modsq, filled = [], [], 0
    while filled < count:
        need = count - filled
        # pi/4 of the unit-disk candidates land in the disk; the margin
        # makes a second round rare there
        cand = rng.uniform(-1.0, 1.0, 2 * dim * (need + need // 3 + 64))
        square = cand * cand
        sq = square[0::2] + square[1::2]
        if dim > 1:
            sq = sq.reshape(-1, dim).sum(axis=1)  # over each point's coordinates
        inside = sq < r_max * r_max
        if r_min > 0.0:
            inside &= sq > r_min * r_min
        keep = inside.nonzero()[0][:need]
        points.append(cand.view(complex).reshape(-1, dim).T.take(keep, axis=1))
        modsq.append(sq.take(keep))
        filled += len(keep)
    if len(points) == 1:
        return points[0], modsq[0]
    return np.concatenate(points, axis=1), np.concatenate(modsq)


# ---------------------------------------------------------------------------
# Levi form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DefiningFunction:
    """A real-valued defining polynomial rho for a real hypersurface."""

    rho: HermitianPolynomial

    def __post_init__(self):
        if not self.rho.is_real_valued(tol=1e-12):
            raise ValueError("defining function must be real-valued")

    @property
    def dim(self) -> int:
        return self.rho.dim


@dataclass(frozen=True)
class LeviReport:
    """Levi form at a boundary point, or a non-smooth flag."""

    point: tuple[complex, ...]
    smooth: bool
    eigenvalues: tuple[float, ...] | None
    gradient_norm: float
    strictly_pseudoconvex: bool = field(init=False)

    def __post_init__(self):
        # in C^1 the complex tangent space is {0}: no eigenvalues, and the
        # condition holds vacuously
        spc = self.smooth and self.eigenvalues is not None and all(e > 0 for e in self.eigenvalues)
        object.__setattr__(self, "strictly_pseudoconvex", spc)


def levi_form(rho: DefiningFunction | HermitianPolynomial, point: Sequence[complex]) -> LeviReport:
    """Eigenvalues of the complex Hessian of rho restricted to the
    complex tangent space at a boundary point.

    The point must satisfy rho = 0 within tolerance.  A vanishing complex
    gradient flags the point as non-smooth and no eigenvalues are
    returned.  Second derivatives come from the polynomial itself, so the
    only floating steps are the small SVD that spans the tangent space
    and the eigenvalue problem.  A bare
    polynomial is checked as a DefiningFunction: it must be real-valued.
    """
    poly = (rho if isinstance(rho, DefiningFunction) else DefiningFunction(rho)).rho
    n = poly.dim
    p = tuple(complex(x) for x in point)
    if len(p) != n:
        raise ValueError(f"point dimension {len(p)} does not match rho dimension {n}")

    value = complex(poly.eval(p))
    if not abs(value) <= BOUNDARY_TOL:  # a NaN rho is not on the zero set either
        raise ValueError(f"point is not on the zero set: rho = {value}")

    grad = [complex(poly.d_z(i).eval(p)) for i in range(n)]
    gnorm = math.sqrt(sum(abs(g) ** 2 for g in grad))
    if gnorm <= GRADIENT_TOL:
        return LeviReport(point=p, smooth=False, eigenvalues=None, gradient_norm=gnorm)

    hess = np.array(
        [[complex(poly.d_z(i).d_zbar(j).eval(p)) for j in range(n)] for i in range(n)]
    )
    # the rows of Vh after the first are orthonormal and orthogonal to
    # grad, so their conjugates span the complex tangent space
    # {v : sum grad_i v_i = 0}
    r = np.linalg.svd(np.array([grad]))[2][1:]
    # normalized by the gradient norm so rho and c*rho (c > 0) agree
    restricted = r.conj() @ hess @ r.T / gnorm
    eigs = np.linalg.eigvalsh(restricted)
    return LeviReport(point=p, smooth=True, eigenvalues=tuple(eigs.tolist()), gradient_norm=gnorm)


# ---------------------------------------------------------------------------
# stock defining functions
# ---------------------------------------------------------------------------

def sphere_defining_function(n: int) -> DefiningFunction:
    """rho = |z|^2 - 1 for the unit sphere in C^n."""
    rho = HermitianPolynomial.constant(n, Fraction(-1))
    for i in range(n):
        rho = rho + HermitianPolynomial.modulus_squared(n, i)
    return DefiningFunction(rho)


def u_domain_defining_function() -> DefiningFunction:
    """rho = |w1|^4 + |w1|^2(|w2|^2 + |w3|^2) + |w2 w3|^2 - |w1|^2 in C^3."""
    rho = HermitianPolynomial(3, {
        ((2, 0, 0), (2, 0, 0)): Fraction(1),
        ((1, 1, 0), (1, 1, 0)): Fraction(1),
        ((1, 0, 1), (1, 0, 1)): Fraction(1),
        ((0, 1, 1), (0, 1, 1)): Fraction(1),
        ((1, 0, 0), (1, 0, 0)): Fraction(-1),
    })
    return DefiningFunction(rho)
