"""Unit ball kernels and Levi-form positivity checks.

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
from .scalars import ExactComplex, conj_scalar, gaussian_points, to_complex

BOUNDARY_TOL = 1e-9
GRADIENT_TOL = 1e-9


class SingularKernelError(ArithmeticError):
    """Kernel evaluated at boundary contact <z, w> = 1."""


def hermitian_inner(z: Sequence, w: Sequence):
    """<z, w> = sum z_i * conj(w_i), exact when both inputs are exact."""
    total = None
    for a, b in zip(z, w):
        term = a * conj_scalar(b)
        total = term if total is None else total + term
    return 0 if total is None else total


def ball_kernel(n: int, z, w):
    """Bergman kernel of the unit ball in C^n at (z, w).

    Returns an ExactComplex (rational times pi^-n) for Gaussian-rational
    inputs, ``Cyclotomic`` coordinates that lie in Q(i) included, and a
    Python complex otherwise.  Float points may also be arrays of shape
    (..., n); their leading axes broadcast and the values come back as an
    array over them.  Raises SingularKernelError at boundary contact
    <z, w> = 1.
    """
    check_points(n, z, w)
    batched = _is_batch(z) or _is_batch(w)
    exact = None if batched else gaussian_points(z, w)
    if exact is not None:
        u = ExactComplex.coerce(hermitian_inner(*exact))
        return kernel_term(n, u, ExactComplex(math.factorial(n), 0, -n))
    # a single point pair runs as a batch of one, so it matches a batched row bit for bit
    zf = np.atleast_2d(float_point(z))
    wf = np.atleast_2d(float_point(w))
    if n == 1:  # no reduction over a length-1 axis
        u = zf[..., 0] * wf[..., 0].conj()
    else:
        u = (zf * wf.conj()).sum(axis=-1)
    values = kernel_term(n, u, math.factorial(n) / math.pi**n)
    return values if batched else complex(values[0])


def kernel_term(n: int, u, scale):
    """scale / (1 - u)^(n+1), the ball kernel's one formula, for an exact
    inner product u = <z, w> or an array of float ones; the kernel is the
    term with scale n!/pi^n.  Raises SingularKernelError at boundary
    contact u = 1 (|1 - u| < 1e-14 for floats).

    The power is formed by products, not an elementwise complex power; not
    in place, since numpy's in-place complex multiply can round differently
    and a batch of one would then miss its batched row.
    """
    one_minus = 1 - u
    if isinstance(one_minus, ExactComplex):
        singular = one_minus.is_zero
    else:
        singular = (np.abs(one_minus) < 1e-14).any()
    if singular:
        raise SingularKernelError("kernel singular at <z, w> = 1")
    power = one_minus * one_minus
    for _ in range(n - 1):
        power = power * one_minus
    return scale / power


def _is_batch(p) -> bool:
    return isinstance(p, np.ndarray) and p.ndim > 1


def float_point(p) -> np.ndarray:
    """A point, or an (..., n) array of points, as a complex numpy array;
    a plain tuple of Python complex or float coordinates goes to numpy
    directly."""
    if isinstance(p, np.ndarray):
        return p.astype(complex, copy=False)
    if all(isinstance(x, (complex, float)) for x in p):
        return np.array(p, dtype=complex)
    return np.array([to_complex(x) for x in p], dtype=complex)


def check_points(n: int, *points) -> None:
    """Raise ValueError unless every point (or array of points) lies in C^n."""
    for p in points:
        size = p.shape[-1] if isinstance(p, np.ndarray) and p.ndim else len(p)
        if size != n:
            raise ValueError(f"expected points in C^{n}")


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
        spc = bool(self.smooth and self.eigenvalues and all(e > 0 for e in self.eigenvalues))
        object.__setattr__(self, "strictly_pseudoconvex", spc)


def levi_form(rho: DefiningFunction | HermitianPolynomial, point: Sequence[complex]) -> LeviReport:
    """Eigenvalues of the complex Hessian of rho restricted to the
    complex tangent space at a boundary point.

    The point must satisfy rho = 0 within tolerance.  A vanishing complex
    gradient flags the point as non-smooth and no eigenvalues are
    returned.  Second derivatives come from the polynomial itself, so the
    only floating step is the final small eigenvalue problem.  A bare
    polynomial is checked as a DefiningFunction: it must be real-valued.
    """
    poly = (rho if isinstance(rho, DefiningFunction) else DefiningFunction(rho)).rho
    n = poly.dim
    p = tuple(complex(x) for x in point)
    if len(p) != n:
        raise ValueError(f"point dimension {len(p)} does not match rho dimension {n}")

    value = to_complex(poly.eval(p))
    if abs(value) > BOUNDARY_TOL:
        raise ValueError(f"point is not on the zero set: rho = {value}")

    grad = [to_complex(poly.d_z(i).eval(p)) for i in range(n)]
    gnorm = math.sqrt(sum(abs(g) ** 2 for g in grad))
    if gnorm <= GRADIENT_TOL:
        return LeviReport(point=p, smooth=False, eigenvalues=None, gradient_norm=gnorm)

    hess = [[to_complex(poly.d_z(i).d_zbar(j).eval(p)) for j in range(n)] for i in range(n)]

    basis = _tangent_basis(grad)
    m = len(basis)
    # normalized by the gradient norm so rho and c*rho (c > 0) agree
    restricted = [
        [
            sum(
                basis[a][i].conjugate() * hess[i][j] * basis[b][j]
                for i in range(n)
                for j in range(n)
            )
            / gnorm
            for b in range(m)
        ]
        for a in range(m)
    ]
    eigs = np.linalg.eigvalsh(np.array(restricted, dtype=complex).reshape(m, m))
    return LeviReport(point=p, smooth=True, eigenvalues=tuple(eigs.tolist()), gradient_norm=gnorm)


def _tangent_basis(grad: Sequence[complex]) -> list[list[complex]]:
    """Orthonormal basis of the orthogonal complement of the gradient."""
    n = len(grad)
    g = [x / math.sqrt(sum(abs(y) ** 2 for y in grad)) for x in grad]
    basis: list[list[complex]] = [g]
    for i in range(n):
        v = [0j] * n
        v[i] = 1.0 + 0j
        for b in basis:
            overlap = sum(b[k].conjugate() * v[k] for k in range(n))
            v = [v[k] - overlap * b[k] for k in range(n)]
        norm = math.sqrt(sum(abs(x) ** 2 for x in v))
        if norm > 1e-10:
            basis.append([x / norm for x in v])
        if len(basis) == n:
            break
    return basis[1:]


# ---------------------------------------------------------------------------
# stock defining functions
# ---------------------------------------------------------------------------

def sphere_defining_function(n: int) -> DefiningFunction:
    """rho = |z|^2 - 1 for the unit sphere in C^n."""
    rho = HermitianPolynomial.constant(n, Fraction(-1))
    for i in range(n):
        rho = rho + HermitianPolynomial.modulus_squared(n, i)
    return DefiningFunction(rho)


def siegel_model_defining_function() -> DefiningFunction:
    """rho = 2 Re(z_2) - |z_1|^2, a sign-flipped unbounded model in C^2."""
    rho = HermitianPolynomial(2, {
        ((0, 1), (0, 0)): Fraction(1),
        ((0, 0), (0, 1)): Fraction(1),
        ((1, 0), (1, 0)): Fraction(-1),
    })
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
