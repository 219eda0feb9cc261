"""Detecting algebraic structure of sampled kernels.

Given diagonal samples (z, K(z, conj(z))) of a kernel surface, we look
for a polynomial relation

    a_q(z, conj(z)) K^q + ... + a_1(z, conj(z)) K + a_0(z, conj(z)) = 0

by extracting the minimal singular direction of the evaluation matrix of
monomials (features^beta * K^j), with per-column scaling to tame the
conditioning: the matrix is reduced to the square R of its QR
decomposition, R^-1 comes from a blocked triangular solve of R X = I,
and inverse iteration with it finds the direction without a full SVD.
Coefficients are normalized to a unit vector and the reported residual
is the max absolute value of the relation over the samples.  For a kernel with an exact relation at the searched degrees the
residual sits at rounding level; "no relation found below tolerance at
the searched degrees" is the only negative statement this module makes.

Feature coordinates are chosen per domain: real coordinates (x_i, y_i)
for disk-like domains, radial invariants (|lambda|^2, |z_1|^2, |z_2|^2)
for the rotation-invariant Hartogs diagonal (any polynomial in the radial
features expands to a genuine polynomial in (z, conj(z)) of twice the
degree).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .ball import ball_kernel, complex_coordinates
from .hartogs import omega_closed_kernel, u_kernel
from .polynomials import HermitianPolynomial, HoloPolynomial, MultiIndex, monomials_up_to_degree
from .verify import _unit_disk_points

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# the annulus kernel (the non-algebraic control)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _laurent_coefficients(r0: float, truncation: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Coefficient tables of the truncated Laurent series sum_k u^k / ||z^k||^2,
    highest power first as ``np.polyval`` takes them.

    The k >= 0 half is sum_k c_k u^k with c_k = (k+1) / (pi (1 - r0^(2k+2))).
    The k <= -2 half is rewritten to keep the r0 powers bounded,
        (k+1) u^k / (pi (1 - r0^(2k+2))) = d_j v^j,  v = r0^2/u,  j = -k,
        d_j = (j-1) / (r0^2 pi (1 - r0^(2j-2))),
    and |v| < 1 on the annulus.  The tables are (c_M, ..., c_0) and
    (d_M, ..., d_2).  With r0 = 0 the negative powers have infinite norm
    and the second table is empty.
    """
    pos = tuple(
        (k + 1) / (math.pi * (1.0 - r0 ** (2 * k + 2))) for k in range(truncation, -1, -1)
    )
    if r0 == 0.0:
        return pos, ()
    neg = tuple(
        (j - 1) / (r0**2 * math.pi * (1.0 - r0 ** (2 * j - 2))) for j in range(truncation, 1, -1)
    )
    return pos, neg


def _laurent_series(r0: float, z: np.ndarray, w: np.ndarray, truncation: int) -> np.ndarray:
    """sum over |k| <= truncation of z^k conj(w)^k / ||z^k||^2 on the
    annulus {r0 < |z| < 1} (r0 = 0: the punctured disk), for complex arrays
    of points that broadcast."""
    u = z * np.conj(w)
    pos, neg = _laurent_coefficients(r0, truncation)
    total = np.polyval(pos, u)
    if r0 > 0.0 and truncation >= 1:
        total = total + 1.0 / (u * 2.0 * math.pi * math.log(1.0 / r0))
    if neg:
        v = r0**2 / u
        total = total + v * v * np.polyval(neg, v)
    return total


def annulus_kernel(inner_radius: float, z, w, truncation: int = 200):
    """Truncated Laurent-series kernel of the annulus {r0 < |z| < 1}:
    sum over |k| <= M of z^k conj(w)^k / ||z^k||^2.

    Points of C^1 are read by ``complex_coordinates``, as for
    ``ball_kernel(1, ...)``: a pair of points gives a Python complex,
    coordinates given as arrays that broadcast an array of values.
    """
    r0 = float(inner_radius)
    if not 0.0 < r0 < 1.0:
        raise ValueError("inner radius must lie in (0, 1)")
    ((z,), (w,)), single = complex_coordinates(1, z, w)
    for p in (z, w):
        m = np.abs(p)
        outside = ~((r0 < m) & (m < 1.0))
        if outside.any():
            raise ValueError(f"point with |z| = {m[outside].flat[0]} outside the open annulus")
    values = _laurent_series(r0, z, w, truncation)
    return complex(values[0]) if single else values


# ---------------------------------------------------------------------------
# kernel surfaces (named diagonal samplers with feature coordinates)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelSurface:
    """A named diagonal kernel with sampling and feature structure.

    ``sample`` and ``boundary_sample`` draw the (n, m) coordinates of m
    points; ``diag`` maps them to the m values K(z, conj(z)) and
    ``features`` to the real coordinates used for relation fitting, one
    array per feature; ``feature_polys`` expresses each feature as a
    Hermitian polynomial so fitted coefficients expand back into (z, conj(z)).
    """

    name: str
    diag: Callable[[np.ndarray], np.ndarray]
    features: Callable[[np.ndarray], Sequence[np.ndarray]]
    feature_polys: tuple[HermitianPolynomial, ...]
    sample: Callable[[np.random.Generator, int], np.ndarray]
    boundary_sample: Callable[[np.random.Generator, int], np.ndarray] | None = None

    def samples(self, count: int, seed: int = 0) -> list[tuple[tuple, float]]:
        x = self.sample(np.random.default_rng(seed), count)
        features = zip(*(f.tolist() for f in self.features(x)))
        return list(zip(features, self.diag(x).tolist()))

    def boundary_features(self, count: int, seed: int = 0) -> Sequence[np.ndarray]:
        if self.boundary_sample is None:
            raise ValueError(f"surface {self.name} has no boundary sampler")
        return self.features(self.boundary_sample(np.random.default_rng(seed), count))


def _real_coordinate_polys(n: int) -> tuple[HermitianPolynomial, ...]:
    """x_i = (z_i + conj(z_i))/2 and y_i = (z_i - conj(z_i))/(2i)."""
    out = []
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        zero = (0,) * n
        x = HermitianPolynomial(n, {(e, zero): complex(0.5), (zero, e): complex(0.5)})
        y = HermitianPolynomial(n, {(e, zero): -0.5j, (zero, e): 0.5j})
        out.extend([x, y])
    return tuple(out)


def _real_coordinates(x: np.ndarray) -> list[np.ndarray]:
    """x_1, y_1, x_2, y_2, ... as ``_real_coordinate_polys`` orders them."""
    return [part for coordinate in x for part in (coordinate.real, coordinate.imag)]


def _moduli_squared(x: np.ndarray) -> np.ndarray:
    """|x|^2 per coordinate, rounded as Python's abs(x) ** 2 (hypot, then
    pow): the Omega 12/1 fit's null space has more than one direction, and
    numpy's complex abs would move its coefficient vector to another."""
    return np.float_power(np.hypot(x.real, x.imag), 2)


def disk_surface() -> KernelSurface:
    """The disk kernel, sampled at |z| < 0.9."""
    return KernelSurface(
        name="disk",
        diag=lambda x: ball_kernel(1, x, x).real,
        features=_real_coordinates,
        feature_polys=_real_coordinate_polys(1),
        sample=lambda rng, n: _unit_disk_points(rng, n, 1, 0.0, 0.9)[0],
        boundary_sample=lambda rng, n: np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, (1, n))),
    )


def ball2_surface() -> KernelSurface:
    """The kernel of the unit ball in C^2, sampled at |z| < 0.8."""

    def boundary(rng, count):
        # one row of four normals per point, scaled by its own dot product
        v = rng.normal(size=(count, 4))
        v /= np.sqrt(v[:, None] @ v[..., None])[..., 0]
        return v.view(complex).T

    return KernelSurface(
        name="ball2",
        diag=lambda x: ball_kernel(2, x, x).real,
        features=_real_coordinates,
        feature_polys=_real_coordinate_polys(2),
        sample=lambda rng, n: _unit_disk_points(rng, n, 2, 0.0, 0.8)[0],
        boundary_sample=boundary,
    )


def _uniform_rows(rng, count: int, low, high) -> np.ndarray:
    """One row of uniforms per point, mapped as rng.uniform maps them, so
    each point draws what drawing its coordinates in turn would; one array
    per column."""
    low, high = np.asarray(low), np.asarray(high)
    return (low + (high - low) * rng.random((count, len(low)))).T


def omega_diagonal_surface() -> KernelSurface:
    """Diagonal kernel of the standard Hartogs domain in radial features
    (|lambda|^2, |z1|^2, |z2|^2); points are (z1, z2, lam) triples with
    |z_i|^2 < 2.5, sampled with |lambda|^2 (1 + |z1|^2)(1 + |z2|^2) in
    [0.05, 0.95)."""

    def points(r1, r2, t, angles):
        """(z1, z2, lam) from |z1|^2, |z2|^2, |lam|^2 and three angles."""
        return np.sqrt([r1, r2, t]) * (np.cos(angles) + 1j * np.sin(angles))

    def sample(rng, count):
        low, high = [0, 0, 0.05, 0, 0, 0], [2.5, 2.5, 0.95, TWO_PI, TWO_PI, TWO_PI]
        r1, r2, s, *angles = _uniform_rows(rng, count, low, high)
        return points(r1, r2, s / ((1.0 + r1) * (1.0 + r2)), angles)

    def boundary(rng, count):
        r1, r2, *angles = _uniform_rows(rng, count, [0] * 5, [2.5, 2.5, TWO_PI, TWO_PI, TWO_PI])
        return points(r1, r2, 1.0 / ((1.0 + r1) * (1.0 + r2)), angles)

    return KernelSurface(
        name="omega",
        diag=lambda x: omega_closed_kernel(x[:2], x[2], x[:2], x[2]).real,
        features=lambda x: _moduli_squared(x[[2, 0, 1]]),
        feature_polys=(
            HermitianPolynomial.modulus_squared(3, 2),
            HermitianPolynomial.modulus_squared(3, 0),
            HermitianPolynomial.modulus_squared(3, 1),
        ),
        sample=sample,
        boundary_sample=boundary,
    )


def u_surface() -> KernelSurface:
    """Diagonal kernel of the bounded projected domain in radial features
    (|x1|^2, |x2|^2, |x3|^2); points are sampled through the fiber chart,
    at |z_i|^2 < 1.5 and |lambda|^2 (1 + |z1|^2)(1 + |z2|^2) < 0.95."""

    def sample(rng, count):
        low, high = [0, 0, 0, 0, 0.05, 0], [1.5, 1.5, TWO_PI, TWO_PI, 0.95, TWO_PI]
        r1, r2, t1, t2, s, t3 = _uniform_rows(rng, count, low, high)
        z1, z2 = np.sqrt([r1, r2]) * np.exp(1j * np.array([t1, t2]))
        h = (1 + _moduli_squared(z1)) * (1 + _moduli_squared(z2))
        lam = np.sqrt(s / h) * np.exp(1j * t3)
        return np.array([lam, lam * z1, lam * z2])

    return KernelSurface(
        name="u",
        diag=lambda x: u_kernel(x, x).real,
        features=_moduli_squared,
        feature_polys=(
            HermitianPolynomial.modulus_squared(3, 0),
            HermitianPolynomial.modulus_squared(3, 1),
            HermitianPolynomial.modulus_squared(3, 2),
        ),
        sample=sample,
        boundary_sample=None,
    )


def annulus_surface(truncation: int = 2000) -> KernelSurface:
    """The kernel of the annulus 0.5 < |z| < 1, sampled 0.01 away from both
    circles."""
    return KernelSurface(
        name="annulus",
        diag=lambda x: annulus_kernel(0.5, x, x, truncation).real,
        features=_real_coordinates,
        feature_polys=_real_coordinate_polys(1),
        sample=lambda rng, n: _unit_disk_points(rng, n, 1, 0.51, 0.99)[0],
        boundary_sample=None,
    )


SURFACES: dict[str, Callable[[], KernelSurface]] = {
    "disk": disk_surface,
    "ball2": ball2_surface,
    "omega": omega_diagonal_surface,
    "annulus": annulus_surface,
    "u": u_surface,
}


# ---------------------------------------------------------------------------
# relation fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlgebraicRelation:
    """A fitted polynomial relation P(features, K) with unit coefficient
    vector, its max-abs residual over the fitting samples, and the
    Hermitian expansions of the feature coordinates."""

    k_degree: int
    feature_degree: int
    nfeatures: int
    coefficients: dict[tuple[MultiIndex, int], float]
    residual: float
    feature_polys: tuple[HermitianPolynomial, ...] | None = None

    def coefficient_terms(self, j: int) -> dict[MultiIndex, float]:
        return {b: c for (b, jj), c in self.coefficients.items() if jj == j}

    def eval_coefficient(self, j: int, features: Sequence[float]) -> float:
        total = 0.0
        for beta, c in self.coefficient_terms(j).items():
            term = c
            for x, e in zip(features, beta):
                term *= x**e
            total += term
        return total

    def eval(self, features: Sequence[float], k_value: float) -> float:
        return sum(
            self.eval_coefficient(j, features) * k_value**j
            for j in range(self.k_degree + 1)
        )

    def coefficient_hermitian(self, j: int) -> HermitianPolynomial:
        """Expand a_j back into a polynomial in (z, conj(z))."""
        if self.feature_polys is None:
            raise ValueError("relation carries no feature expansion data")
        coefficient = HoloPolynomial(
            len(self.feature_polys),
            {beta: complex(c) for beta, c in self.coefficient_terms(j).items()},
        )
        features = [p.to_complex_coeffs() for p in self.feature_polys]
        return HermitianPolynomial(self.feature_polys[0].dim) + coefficient.eval(features)


NULL_VECTOR_STEPS = 64  # inverse-iteration cap; exact relations settle in a few


TRIANGULAR_BLOCK = 64  # rows per block row of the triangular solve

# the largest evaluation matrix a fit allocates: 2^26 float64 cells, 512 MiB,
# about 40 times the Omega 12/1 fit's 1.7M
MAX_FIT_CELLS = 2**26


def _triangular_inverse(r: np.ndarray) -> np.ndarray:
    """R^-1 for a square upper-triangular R with non-zero pivots, by
    blocked back-substitution of R X = I (LAPACK's dtrtri/dtrsm order;
    Higham, Accuracy and Stability of Numerical Algorithms, ch. 8).

    Block rows are solved from the bottom up: one matrix product against
    the rows of X already solved gives a block row its right-hand side,
    and the diagonal block is then solved, never inverted (multiplying by
    inverted blocks costs digits on ill-conditioned R).  About n^3/3
    flops against about 2 n^3 for a general inverse.
    """
    n = r.shape[0]
    x = np.eye(n)
    for stop in range(n, 0, -TRIANGULAR_BLOCK):
        start = max(stop - TRIANGULAR_BLOCK, 0)
        rows = slice(start, stop)
        # columns start:stop of the right-hand side are already I's block
        x[rows, stop:] = -(r[rows, stop:] @ x[stop:, stop:])
        x[rows, start:] = np.linalg.solve(r[rows, rows], x[rows, start:])
    return x


def _smallest_right_singular_vector(r: np.ndarray) -> np.ndarray:
    """Unit x minimizing ||R x|| for a square upper-triangular R, by
    inverse iteration x <- R^-1 R^-T x from a fixed pseudo-random start
    (no relation is orthogonal to it by structure).

    Pivots below eps * max|R_ii| are raised to that floor before R is
    inverted, so an exactly singular R (a zero or repeated feature
    column) still gives a null vector.  The iteration stops when ||R x||
    stops falling, or after ``NULL_VECTOR_STEPS`` steps.
    """
    pivots = np.diagonal(r)
    floor = np.finfo(float).eps * np.abs(pivots).max()
    floored = r.copy()
    np.fill_diagonal(floored, np.where(np.abs(pivots) < floor, floor, pivots))
    r_inv = _triangular_inverse(floored)
    x = np.random.default_rng(0).standard_normal(r.shape[0])
    x /= np.linalg.norm(x)
    best = math.inf
    for _ in range(NULL_VECTOR_STEPS):
        y = r_inv @ (x @ r_inv)
        y /= np.linalg.norm(y)
        size = np.linalg.norm(r @ y)
        if not size < best:
            break
        x, best = y, size
    return x


def _evaluation_matrix(
    samples: Sequence[tuple[Sequence[float], float]], feature_degree: int, k_degree: int
) -> tuple[list[tuple[MultiIndex, int]], np.ndarray]:
    """The keys (beta, j) and the matrix of features^beta * K^j, one row
    per sample and one column per key."""
    feats = np.array([list(s[0]) for s in samples], dtype=float)
    kvals = np.array([s[1] for s in samples], dtype=float)
    _check_fit_size(len(samples), _fit_unknowns(feats.shape[1], feature_degree, k_degree))
    if np.allclose(kvals, 0.0):
        raise ValueError("all kernel samples vanish")
    betas = list(monomials_up_to_degree(feats.shape[1], feature_degree))
    keys = [(beta, j) for j in range(k_degree + 1) for beta in betas]
    if len(samples) < 2 * len(keys):
        raise ValueError(
            f"underdetermined fit: {len(samples)} samples for {len(keys)} unknowns "
            f"(need at least {2 * len(keys)})"
        )
    k_powers = [kvals**j for j in range(k_degree + 1)]
    feature_powers = [[x**e for e in range(feature_degree + 1)] for x in feats.T]
    matrix = np.empty((len(keys), len(samples))).T  # columns contiguous
    for column, (beta, j) in enumerate(keys):
        col = k_powers[j]
        for powers, e in zip(feature_powers, beta):
            if e:
                col = col * powers[e]
        matrix[:, column] = col
    return keys, matrix


def _fit_unknowns(nfeatures: int, feature_degree: int, k_degree: int) -> int:
    """The coefficients of a relation: one per feature monomial of degree
    at most feature_degree and power K^0 .. K^k_degree."""
    return math.comb(nfeatures + feature_degree, feature_degree) * (k_degree + 1)


def _check_fit_size(rows: int, unknowns: int) -> None:
    """ValueError, before anything is allocated, for an evaluation matrix
    above MAX_FIT_CELLS."""
    if rows * unknowns > MAX_FIT_CELLS:
        raise ValueError(
            f"fit too large: {rows} samples x {unknowns} unknowns is {rows * unknowns} cells, "
            f"above the limit of {MAX_FIT_CELLS}"
        )


def _check_degrees(feature_degree: int, k_degree: int) -> None:
    if k_degree < 1:
        raise ValueError("k_degree must be at least 1")
    if feature_degree < 0:
        raise ValueError(f"feature_degree must be at least 0, got {feature_degree}")


def fit_relation(
    samples: Sequence[tuple[Sequence[float], float]],
    feature_degree: int,
    k_degree: int,
    feature_polys: tuple[HermitianPolynomial, ...] | None = None,
) -> AlgebraicRelation:
    """Least-squares nullspace fit of a relation among the monomials
    features^beta * K^j.

    Requires at least twice as many samples as unknown coefficients.
    Columns are scaled to unit norm in place (raw monomial matrices are
    badly conditioned at higher degree), the scaled matrix is reduced to the
    square R of its QR decomposition, R is inverted by a blocked
    triangular solve, and inverse iteration with that inverse gives the
    minimal right singular direction.  That direction, unscaled and
    renormalized to a unit coefficient vector, is returned with its
    max-abs residual over the samples.  A column norm, residual or
    coefficient that is not finite is a ValueError.

    The residual is in the kernel's own units: unit-norm coefficients on
    unscaled monomials make it change under K -> cK (the annulus 8/2 fit
    gives 1.1e-8 as is, 3.4e-8 for pi*K, 4.3e-12 for 0.01*K).  Residual
    tolerances therefore refer to kernels in their canonical Bergman
    normalization.
    """
    _check_degrees(feature_degree, k_degree)
    if not samples:
        raise ValueError("no samples given")
    keys, matrix = _evaluation_matrix(samples, feature_degree, k_degree)
    scale = np.linalg.norm(matrix, axis=0)
    if not np.isfinite(scale).all():
        raise ValueError("fit is not finite: a column norm overflows")
    scale[scale == 0] = 1.0
    matrix /= scale  # in place: no second copy of the evaluation matrix
    # the square R of a QR has the right singular vectors of the tall matrix
    x = _smallest_right_singular_vector(np.linalg.qr(matrix, mode="r"))
    coeff = x / scale
    norm = np.linalg.norm(coeff)
    coeff /= norm
    # the unscaled matrix times coeff is the scaled one times x / norm
    residual = float(np.max(np.abs(matrix @ x)) / norm)
    if not (math.isfinite(residual) and np.isfinite(coeff).all()):
        raise ValueError(f"fit is not finite: residual {residual}")
    coefficients = {
        key: float(c) for key, c in zip(keys, coeff) if c != 0.0
    }
    return AlgebraicRelation(
        k_degree=k_degree,
        feature_degree=feature_degree,
        nfeatures=len(samples[0][0]),
        coefficients=coefficients,
        residual=residual,
        feature_polys=feature_polys,
    )


def fit_surface_relation(
    surface: KernelSurface,
    feature_degree: int,
    k_degree: int,
    count: int | None = None,
    seed: int = 0,
) -> AlgebraicRelation:
    """Sample a named surface and fit; sample count defaults to twice the
    number of unknown coefficients.  A fit above MAX_FIT_CELLS is a
    ValueError before anything is sampled."""
    _check_degrees(feature_degree, k_degree)
    unknowns = _fit_unknowns(len(surface.feature_polys), feature_degree, k_degree)
    if count is None:
        count = 2 * unknowns
    elif count < 1:
        raise ValueError(f"sample count must be at least 1, got {count}")
    _check_fit_size(count, unknowns)
    samples = surface.samples(count, seed=seed)
    return fit_relation(
        samples, feature_degree, k_degree, feature_polys=surface.feature_polys
    )


def boundary_leading_coefficient(
    relation: AlgebraicRelation, boundary_features: Sequence[np.ndarray]
) -> float:
    """Max |a_q| over boundary samples, one array per feature; an honest
    algebraic kernel relation has a leading coefficient vanishing on the boundary."""
    features = np.asarray(boundary_features, dtype=float)
    if features.ndim != 2 or len(features) != relation.nfeatures or not features.size:
        raise ValueError(f"expected {relation.nfeatures} boundary feature arrays, one value per point")
    return float(np.max(np.abs(relation.eval_coefficient(relation.k_degree, features))))


def best_relation_residual(
    surface: KernelSurface,
    max_feature_degree: int,
    max_k_degree: int,
    seed: int = 0,
) -> float:
    """Smallest fit residual at feature degree ``max_feature_degree`` over
    k-degrees 1..``max_k_degree``; non-algebraicity evidence when this
    stays large.

    Only the k-degree varies.  Fixing the feature degree at its maximum
    loses no candidate: the degree-(d, q) monomial space contains every
    relation of feature degree <= d and k-degree <= q.
    """
    best = math.inf
    for q in range(1, max_k_degree + 1):
        rel = fit_surface_relation(surface, max_feature_degree, q, seed=seed)
        best = min(best, rel.residual)
    return best


# ---------------------------------------------------------------------------
# recovering the biholomorphism from the kernel
# ---------------------------------------------------------------------------

def ball_kernel_dbar_at_zero(n: int, z: Sequence[complex], j: int) -> complex:
    """Exact d/d(conj(w_j)) of the ball kernel at w = 0."""
    return math.factorial(n) / math.pi**n * (n + 1) * complex(z[j])


def recover_map_from_kernel(
    kernel: Callable[[Sequence[complex], Sequence[complex]], complex],
    n: int,
    dbar_kernel: Callable[[Sequence[complex], int], complex] | None = None,
    step: float = 1e-5,
):
    """Reconstruct conj(Jf(0))^T f from a kernel with base point at 0.

    Solves, componentwise,

        g_j(z) = 1/(n+1) [ K(z,0)^{-1} d_[conj w_j] K(z,0)
                           - K(0,0)^{-1} d_[conj w_j] K(0,0) ],

    using the supplied exact derivative when available and otherwise
    central differences in conj(w_j) with the given step (K(z, conj(w))
    is holomorphic in conj(w_j), so real steps in w_j suffice).  For the
    ball kernel itself the result is the identity map; rescaling the
    kernel by a positive constant does not change g.
    """
    zero = tuple(0j for _ in range(n))

    def dbar(z: Sequence[complex], j: int) -> complex:
        if dbar_kernel is not None:
            return dbar_kernel(z, j)
        wp = list(zero)
        wm = list(zero)
        wp[j] = complex(step)
        wm[j] = complex(-step)
        return (kernel(z, wp) - kernel(z, wm)) / (2.0 * step)

    k00 = kernel(zero, zero)
    base = [dbar(zero, j) / k00 for j in range(n)]

    def g(z: Sequence[complex]) -> tuple[complex, ...]:
        z = tuple(complex(x) for x in z)
        kz0 = kernel(z, zero)
        if abs(kz0) == 0:
            raise ZeroDivisionError("kernel vanishes at (z, 0)")
        return tuple(
            (dbar(z, j) / kz0 - base[j]) / (n + 1) for j in range(n)
        )

    return g


def linear_map_coefficients(
    g: Callable[[Sequence[complex]], Sequence[complex]],
    n: int,
    seed: int = 0,
) -> np.ndarray:
    """Least-squares linear coefficients A with g(z) ~ A z on 40 points with
    real and imaginary parts in [-0.3, 0.3]."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-0.3, 0.3, (40, 2 * n))
    zs = pts[:, :n] + 1j * pts[:, n:]
    vals = np.array([list(g(tuple(row))) for row in zs])
    a, *_ = np.linalg.lstsq(zs, vals, rcond=None)
    return a.T
