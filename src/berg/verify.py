"""Monte Carlo integration over the supported domains and the identity
checks that tie the package together: reproducing property, pullback
isometry, deck-sum symmetry, and the covering transformation law.

Conventions.  Ball and disk kernels reproduce with respect to Lebesgue
measure.  Hartogs-domain norms carry the top-form inner product, which on
C^3 is 2^3 times Lebesgue measure; the factor 8 appears once, here.

Sampling.  The two domains are ``disk`` and ``omega``, and every draw
is a map of uniform unit-disk points, so every point lies inside its
domain and every weight is positive.  The disk takes the points as they
are, with inverse density pi.  The unbounded Hartogs domain is sampled
exactly: the fiber disk in lambda is sampled uniformly (its area is known
per base point) and each base radius r_i = |z_i|^2 is drawn from the
heavy-tailed density (1+r)^-2, giving an unbiased estimator with no domain
truncation and bounded weights for every square-integrable fiber
monomial.  The disk points are drawn by rejection, so the samplers need no
trigonometry.  That disk sampler is ``ball._unit_disk_points``; the
relation fits in ``algebraic`` draw their disk, annulus and ball interiors
from it too, without this module.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .ball import _unit_disk_points, ball_kernel
from .hartogs import monomial_norm, omega_closed_kernel, square_integrable
from .quotient import (
    CoveringSpec,
    check_deck_sum_symmetry,
    deck_sum_kernel,
    disk_power_cover,
    minus_identity_cover,
    scalar_rotation_cover,
    translates,
)
from .scalars import ExactComplex

FORM_FACTOR_C3 = 8.0  # top-form inner product on C^3 vs Lebesgue measure
STDERR_REL_CAP = 0.02
# the deck-sum checks pass at this float residual; their sample points have
# every real and imaginary part in [-r, r], inside the ball for n <= 2
DECK_TOLERANCE = 1e-12
DECK_SAMPLE_RADIUS = 0.35


@dataclass(frozen=True)
class IntegrationSpec:
    """What to integrate over and how; fixing the seed fixes the output."""

    domain: str
    n_samples: int = 1_000_000
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.n_samples, bool) or not isinstance(self.n_samples, int):
            raise ValueError(f"n_samples must be an integer, got {self.n_samples!r}")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed: expected non-negative integer, got {self.seed!r}")


@dataclass(frozen=True)
class VerificationReport:
    """One named check with everything needed to recompute the verdict."""

    name: str
    passed: bool
    residual: float | None = None
    tolerance: float | None = None
    estimate: complex | None = None
    stderr: float | None = None
    target: complex | None = None
    inputs: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "name": self.name,
            "passed": bool(self.passed),
            "residual": self.residual,
            "tolerance": self.tolerance,
            "estimate": None
            if self.estimate is None
            else [self.estimate.real, self.estimate.imag],
            "stderr": self.stderr,
            "target": None
            if self.target is None
            else [self.target.real, self.target.imag],
            "inputs": self.inputs,
        }
        return json.dumps(payload, sort_keys=True)


# ---------------------------------------------------------------------------
# samplers: (k coordinates of N points, a (k, N) array; inverse density weights)
#
# ``integrate`` draws one block of at most BLOCK points at a time, so no
# whole draw is ever held, and between blocks keeps only a count, a mean
# and an M2 per integrand, so its memory does not grow with N.  ``_draw``
# fills a draw block by block from one sampler per domain, each a map of
# uniform disk points, so a draw of N points is its BLOCK-sized draws in
# turn, and the points of every draw depend on BLOCK.
#
# A block is small enough that its working set (under 1 MiB for the
# Hartogs checks) stays in cache, and that a one-coordinate array of it
# (64 KiB complex) stays under glibc's default 128 KiB mmap threshold.
# Memory one block frees is then reused by the next from the heap, where
# an array above the threshold is handed back to the system when freed
# and faulted in again when the next block allocates it (about 10 MB per
# block at 2^16 points).  So the Hartogs sampler makes one disk draw per
# coordinate and stacks no temporaries; the (3, m) output of ``_draw``,
# freed once, lifts glibc's dynamic threshold above its own size, and
# ``integrate`` frees each block before it draws the next.  glibc can
# still trim the heap's top after a block whose peak reached past its trim
# threshold; whether it does depends on the heap layout of the process.
# ---------------------------------------------------------------------------

# points drawn, and integrands evaluated, per block: 2^13 and above fault
# pages in per block, and below 2^12 the Python cost per block dominates
BLOCK = 1 << 12
RADIUS_SQ_CAP = 1.0 - 1e-12  # keeps the Hartogs weights finite


def _blocks(count: int):
    return (slice(i, min(i + BLOCK, count)) for i in range(0, count, BLOCK))


def _sample_disk(rng, points: np.ndarray, inv: np.ndarray) -> None:
    """Uniform points of the unit disk, of area pi."""
    points[:] = _unit_disk_points(rng, len(inv))[0]
    inv[:] = math.pi


def _sample_omega(rng, points: np.ndarray, inv: np.ndarray) -> None:
    """z_1, z_2 and lambda each come from a uniform point p of the unit
    disk: z_i = p_i / sqrt(1 - |p_i|^2), so r_i = |z_i|^2 has density
    (1+r)^-2 and a uniform argument, and lambda = p_3 / sqrt(h) with
    h = (1+r_1)(1+r_2) is uniform on its fiber disk {|lambda|^2 < 1/h},
    of area pi/h; the inverse density is pi^3 h."""
    m = len(inv)
    # one disk draw per coordinate keeps the temporaries small
    ((p1,), q1), ((p2,), q2), ((p3,), _) = (_unit_disk_points(rng, m) for _ in range(3))
    q1, q2 = np.minimum(q1, RADIUS_SQ_CAP), np.minimum(q2, RADIUS_SQ_CAP)
    grow1, grow2 = 1.0 / (1.0 - q1), 1.0 / (1.0 - q2)  # 1 + r_i
    np.multiply(p1, np.sqrt(grow1), out=points[0])
    np.multiply(p2, np.sqrt(grow2), out=points[1])
    h = grow1 * grow2
    np.divide(p3, np.sqrt(h), out=points[2])
    np.multiply(h, math.pi**3, out=inv)


# domain name -> (coordinates per point, sampler filling one block in place)
_SAMPLERS = {"disk": (1, _sample_disk), "omega": (3, _sample_omega)}


def _draw(spec: IntegrationSpec, rng, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Points of ``disk`` or ``omega``, with their inverse densities."""
    try:
        dim, sample = _SAMPLERS[spec.domain]
    except KeyError:
        raise ValueError(f"unknown domain {spec.domain}") from None
    points = np.empty((dim, count), dtype=complex)
    inv = np.empty(count)
    for b in _blocks(count):
        sample(rng, points[:, b], inv[b])
    return points, inv


Integrand = Callable[[np.ndarray], np.ndarray]


def integrate(
    spec: IntegrationSpec, integrand: Integrand | Sequence[Integrand]
) -> tuple[complex, float] | list[tuple[complex, float]]:
    """Unbiased Monte Carlo estimate of the Lebesgue integral of a
    vectorized integrand over the domain, with its standard error.

    Points are drawn, and the integrand evaluated, per block of at most
    ``BLOCK`` points (the ``(k, m)`` coordinates of m points in, ``m``
    values out), so each output entry must depend only on its own point.
    Between blocks only the count, the mean and M2 = sum |w - mean|^2 of
    each integrand's weighted values w are kept, so memory grows with
    ``BLOCK`` and the number of integrands but not with N; the estimate is
    the mean and the stderr sqrt(M2 / ((N - 1) N)).  ``BLOCK`` is 2^12 so
    that a block's working set stays in cache and each of its 64 KiB
    coordinate arrays under glibc's 128 KiB mmap threshold: the next block
    reuses the heap memory it frees instead of faulting pages in again.
    Every point drawn lies inside the domain with a positive weight, so
    the integrand is evaluated only there.  Each block is a map of fresh
    uniform disk points, so every draw, and so every estimate, depends on
    ``BLOCK``.  Given a sequence of integrands, one draw serves them all
    and one (estimate, stderr) pair is returned for each, in order; an
    empty sequence is a ValueError.
    """
    several = not callable(integrand)
    integrands = list(integrand) if several else [integrand]
    if not integrands:
        raise ValueError("integrate needs at least one integrand")
    rng = np.random.default_rng(spec.seed)
    n = spec.n_samples
    # per integrand: the mean of the weighted values seen so far and their
    # M2 = sum |w - mean|^2, merged block by block (Chan, Golub and LeVeque)
    moments = [(0j, 0.0)] * len(integrands)
    seen = 0
    for b in _blocks(n):
        m = b.stop - b.start
        for i, (block_mean, block_m2) in enumerate(_block_moments(spec, rng, m, integrands)):
            mean, m2 = moments[i]
            delta = block_mean - mean
            share = m / (seen + m)
            moments[i] = (mean + delta * share, m2 + block_m2 + abs(delta) ** 2 * seen * share)
        seen += m
    # one sample has no spread to estimate: its standard error is unbounded
    out = [(mean, math.sqrt(m2 / ((n - 1) * n)) if n > 1 else math.inf) for mean, m2 in moments]
    return out if several else out[0]


def _block_moments(spec: IntegrationSpec, rng, m: int, integrands) -> list[tuple[complex, float]]:
    """The mean and M2 = sum |w - mean|^2 of each integrand's weighted
    values w over one fresh draw of m points.  Every array of the block is
    freed by the time this returns, so the next block's draw reuses the
    same heap memory instead of being placed beside a block still held."""
    points, inv = _draw(spec, rng, m)
    out = []
    for f in integrands:
        w = np.asarray(f(points), dtype=complex) * inv
        mean = complex(w.sum() / m)  # np.mean's sum and division
        w -= mean
        # |w - mean|^2 summed as the interleaved squares of the real and
        # imaginary parts, in place
        parts = w.view(float)
        out.append((mean, float(np.multiply(parts, parts, out=parts).sum())))
    return out


def _is_exponent(e) -> bool:
    return isinstance(e, int) and not isinstance(e, bool) and e >= 0


Monomial = tuple[int, tuple[int, int]]


def _fiber_exponents(f) -> Monomial:
    """(m, (a1, a2)) of the monomial lambda^m z^alpha given as a pair
    (m, alpha); a ValueError unless every exponent is an integer >= 0."""
    try:
        m, alpha = f
        alpha = tuple(alpha)
    except (TypeError, ValueError):
        raise ValueError(f"a fiber monomial is a pair (m, (a1, a2)), got {f!r}") from None
    if len(alpha) != 2 or not all(map(_is_exponent, (m, *alpha))):
        raise ValueError(f"fiber monomial exponents must be integers >= 0, got {f!r}")
    return m, alpha


def _fiber_monomial(pts: np.ndarray, m: int, alpha: Sequence[int]) -> np.ndarray:
    """lambda^m z_1^a z_2^b at each point of the (z_1, z_2, lambda)
    coordinates ``pts``, with no power taken for a zero exponent."""
    value = None
    for coordinate, e in ((2, m), (0, alpha[0]), (1, alpha[1])):
        if e:
            power = pts[coordinate] ** e
            value = power if value is None else value * power
    return np.ones(pts.shape[1], dtype=complex) if value is None else value


def _stochastic_pass(estimate: complex, stderr: float, target: complex, scale: float) -> bool:
    return abs(estimate - target) <= 3.0 * stderr and stderr <= STDERR_REL_CAP * scale


# ---------------------------------------------------------------------------
# reproducing property
# ---------------------------------------------------------------------------

def check_reproducing(
    domain: str,
    f,
    z0,
    spec: IntegrationSpec | None = None,
) -> VerificationReport:
    """Monte Carlo test that integrating a Bergman-space monomial against
    the kernel returns its value at the base point.

    For the disk, ``f`` is an integer power d >= 0 (the monomial z^d) and
    z0 a complex point with |z0| < 1.  For the Hartogs domain, ``f`` is a
    pair (m, alpha) (the monomial lambda^m z^alpha, its exponents integers
    >= 0, which must be square-integrable) and z0 a triple (z1, z2,
    lambda0) with |lambda0|^2 (1 + |z1|^2)(1 + |z2|^2) < 1.  Input the
    check cannot hold for is a ValueError, raised before anything is drawn.
    """
    spec = spec or IntegrationSpec(domain=domain)
    if spec.domain != domain:
        raise ValueError(f"spec domain {spec.domain!r} does not match {domain!r}")
    if domain == "disk":
        if not _is_exponent(f):
            raise ValueError(f"disk power must be an integer >= 0, got {f!r}")
        d = f
        z0 = complex(z0)
        if not abs(z0) < 1.0:
            raise ValueError(f"base point {z0} is not inside the disk")

        def integrand(pts):
            return pts[0] ** d * ball_kernel(1, (z0,), pts)

        target = z0**d
        name = f"reproducing:disk:z^{d}"
    elif domain == "omega":
        m, alpha = _fiber_exponents(f)
        if not square_integrable(m, alpha):
            raise ValueError(
                f"monomial lambda^{m} z^{alpha} is not square-integrable on the domain"
            )
        zy = (complex(z0[0]), complex(z0[1]))
        lam_y = complex(z0[2])
        if not abs(lam_y) ** 2 * (1.0 + abs(zy[0]) ** 2) * (1.0 + abs(zy[1]) ** 2) < 1.0:
            raise ValueError(f"base point {(*zy, lam_y)} is not inside the domain")

        def integrand(pts):
            kernel = omega_closed_kernel(zy, lam_y, pts[:2], pts[2])
            return FORM_FACTOR_C3 * kernel * _fiber_monomial(pts, m, alpha)

        target = lam_y**m * zy[0] ** alpha[0] * zy[1] ** alpha[1]
        name = f"reproducing:omega:lam^{m}z^{alpha}"
    else:
        raise ValueError(f"no reproducing check for domain {domain}")

    estimate, stderr = integrate(spec, integrand)
    scale = abs(target) if abs(target) > 0 else 1.0
    passed = _stochastic_pass(estimate, stderr, target, scale)
    return VerificationReport(
        name=name,
        passed=passed,
        estimate=estimate,
        stderr=stderr,
        target=complex(target),
        inputs={"domain": domain, "seed": spec.seed, "n": spec.n_samples},
    )


def check_orthogonality(
    first: Monomial,
    second: Monomial,
    spec: IntegrationSpec | None = None,
) -> VerificationReport:
    """Inner product of two fiber monomials with distinct fiber degrees is
    zero; the Monte Carlo estimate must sit within 3 standard errors.  Each
    monomial is a pair (m, alpha) as for ``check_reproducing``; exponents
    that are not integers >= 0 are a ValueError, raised before any draw."""
    return _orthogonality_reports([(first, second)], spec or IntegrationSpec(domain="omega"))[0]


def _orthogonality_reports(
    pairs: Sequence[tuple[Monomial, Monomial]], spec: IntegrationSpec
) -> list[VerificationReport]:
    """``check_orthogonality`` for several pairs over one draw of ``spec``."""
    if spec.domain != "omega":
        raise ValueError(f"no orthogonality check for domain {spec.domain}")
    pairs = [(_fiber_exponents(first), _fiber_exponents(second)) for first, second in pairs]
    integrands, scales = [], []
    for (m1, a1), (m2, a2) in pairs:
        if m1 == m2:
            raise ValueError("orthogonality check needs distinct fiber degrees")
        n1 = monomial_norm(m1, a1)
        n2 = monomial_norm(m2, a2)
        if math.inf in (n1, n2):
            raise ValueError("orthogonality check needs square-integrable monomials")
        scales.append(math.sqrt(complex(n1).real * complex(n2).real))

        def integrand(pts, m1=m1, a1=a1, m2=m2, a2=a2):
            f = _fiber_monomial(pts, m1, a1)
            return FORM_FACTOR_C3 * f * np.conj(_fiber_monomial(pts, m2, a2))

        integrands.append(integrand)
    results = integrate(spec, integrands)
    return [
        VerificationReport(
            name=f"orthogonality:lam^{m1}z^{a1}|lam^{m2}z^{a2}",
            passed=_stochastic_pass(estimate, stderr, 0j, scale),
            estimate=estimate,
            stderr=stderr,
            target=0j,
            inputs={"domain": spec.domain, "seed": spec.seed, "n": spec.n_samples},
        )
        for ((m1, a1), (m2, a2)), scale, (estimate, stderr) in zip(pairs, scales, results)
    ]


# ---------------------------------------------------------------------------
# pullback isometry for the disk self-cover
# ---------------------------------------------------------------------------

def disk_monomial_norm(j: int) -> ExactComplex:
    """||z^j||^2 = pi/(j+1) on the disk (Lebesgue measure), exactly."""
    if j < 0:
        raise ValueError("negative powers are not square-integrable on the disk")
    return ExactComplex(Fraction(1, j + 1), 0, 1)


@dataclass(frozen=True)
class IsometryCheck:
    pullback_norm: ExactComplex
    scaled_norm: ExactComplex

    @property
    def equal(self) -> bool:
        return self.pullback_norm == self.scaled_norm


def check_pullback_isometry(k: int, d: int) -> IsometryCheck:
    """Exact identity ||(z^k)^* (w^d dw)||^2 = k ||w^d dw||^2.

    The pullback of w^d dw under z -> z^k is k z^(kd+k-1) dz, so both
    sides are rational multiples of pi and compare exactly.
    """
    if k < 1:
        raise ValueError("cover exponent must be >= 1")
    if d < 0:
        raise ValueError("monomial degree must be >= 0")
    lhs = ExactComplex(k * k) * disk_monomial_norm(k * d + k - 1)
    rhs = ExactComplex(k) * disk_monomial_norm(d)
    return IsometryCheck(pullback_norm=lhs, scaled_norm=rhs)


# ---------------------------------------------------------------------------
# transformation law
# ---------------------------------------------------------------------------

def _closed_deck_sum_minus_identity(z, w) -> complex:
    """Independent closed form for the {I, -I} deck sum in dimension 2."""
    u = z[0] * np.conj(w[0]) + z[1] * np.conj(w[1])
    return 2.0 / math.pi**2 * ((1.0 - u) ** -3 + (1.0 + u) ** -3)


def _closed_deck_sum_scalar_rotation(z, w) -> complex:
    """Independent closed form for the deck sum of the scalar group
    generated by i*I in dimension 2 (det(i^k I) = (-1)^k)."""
    u = z[0] * np.conj(w[0]) + z[1] * np.conj(w[1])
    total = 0j
    for k in range(4):
        total += (-1) ** k * (1.0 - (1j**k) * u) ** -3
    return 2.0 / math.pi**2 * total


_CLOSED_DECK_SUMS = {
    "minus-identity": _closed_deck_sum_minus_identity,
    "scalar-i": _closed_deck_sum_scalar_rotation,
}


@functools.cache
def _named_cover(cover: str) -> CoveringSpec:
    """The stock covers by name: disk-<k>, minus-identity, scalar-i; each
    is built once per process."""
    if cover == "minus-identity":
        return minus_identity_cover()
    if cover == "scalar-i":
        return scalar_rotation_cover()
    if cover.startswith("disk-"):
        return disk_power_cover(int(cover.split("-", 1)[1]))
    raise ValueError(f"unknown cover {cover}")


def _random_ball_pairs(rng, count: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` pairs of points of C^n as two (n, count) coordinate batches z, w;
    each point is 2n uniforms in [-r, r] (real parts, then imaginary parts), z first.
    A count below 1 is a ValueError: a check over no pairs certifies nothing."""
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    r = DECK_SAMPLE_RADIUS
    parts = rng.uniform(-r, r, (count, 2, 2 * n))  # one row of 4n uniforms per pair
    return tuple((parts[..., :n] + 1j * parts[..., n:]).transpose(1, 2, 0))


def check_transformation_law(
    cover: str,
    count: int = 50,
    seed: int = 0,
) -> VerificationReport:
    """Max residual between the deck-transformation sum and an independent
    evaluation of the base kernel pulled back through the covering map.

    Named covers: ``disk-k`` for the one-variable self-cover z -> z^k
    (base kernel given by the disk kernel in base coordinates) and
    ``minus-identity`` / ``scalar-i`` for the two scalar ball quotients
    (independent hand-expanded deck sums, plus well-definedness of the
    push-forward under group translates on either argument).
    """
    rng = np.random.default_rng(seed)
    spec = _named_cover(cover)
    group = spec.group
    n = group.dim
    z, w = _random_ball_pairs(rng, count, n)
    deck = deck_sum_kernel(group, n, z, w)

    if cover.startswith("disk-"):
        k = spec.sheets
        zk, wk = z[0] ** k, w[0] ** k
        base = 1.0 / (math.pi * (1.0 - zk * np.conj(wk)) ** 2)
        jac = k * z[0] ** (k - 1)
        jac_w = k * w[0] ** (k - 1)
        errors = [deck - base * jac * np.conj(jac_w)]
        name = f"transformation:disk-z^{k}"
    else:
        dets = group.float_stack[1]
        errors = [
            deck - _CLOSED_DECK_SUMS[cover](z, w),
            # pullback invariance of the deck sum on either argument, at
            # every element's translate of every pair
            deck_sum_kernel(group, n, translates(group, z), w[..., None]) * dets - deck[:, None],
            deck_sum_kernel(group, n, z[..., None], translates(group, w)) * dets.conj() - deck[:, None],
        ]
        name = f"transformation:{cover}"
    worst = max(float(np.max(np.abs(e), initial=0.0)) for e in errors)

    return VerificationReport(
        name=name,
        passed=worst <= DECK_TOLERANCE,
        residual=worst,
        tolerance=DECK_TOLERANCE,
        inputs={"count": count, "seed": seed, "radius": DECK_SAMPLE_RADIUS},
    )


def check_deck_symmetry(
    cover: str,
    count: int = 20,
    seed: int = 0,
) -> VerificationReport:
    """Row-sum versus column-sum presentation of the deck sum; ``cover``
    names a cover as for ``check_transformation_law``."""
    rng = np.random.default_rng(seed)
    spec = _named_cover(cover)
    n = spec.group.dim
    worst = check_deck_sum_symmetry(spec.group, n, *_random_ball_pairs(rng, count, n))
    return VerificationReport(
        name=f"deck-symmetry:{cover}",
        passed=worst <= DECK_TOLERANCE,
        residual=worst,
        tolerance=DECK_TOLERANCE,
        inputs={"count": count, "seed": seed},
    )


# ---------------------------------------------------------------------------
# suites (used by the CLI; acceptance tests call the checks directly)
# ---------------------------------------------------------------------------

def suite_repro(seed: int = 0, n_samples: int = 1_000_000) -> list[VerificationReport]:
    return [
        check_reproducing(
            "disk", 1, 0.3, IntegrationSpec(domain="disk", n_samples=n_samples, seed=seed)
        ),
        check_reproducing(
            "omega",
            (1, (0, 0)),
            (0.0, 0.0, 0.4),
            IntegrationSpec(domain="omega", n_samples=n_samples, seed=seed),
        ),
    ]


def suite_orthogonality(seed: int = 0, n_samples: int = 1_000_000) -> list[VerificationReport]:
    """Both checks integrate over one shared draw."""
    spec = IntegrationSpec(domain="omega", n_samples=n_samples, seed=seed)
    return _orthogonality_reports([((1, (0, 0)), (2, (0, 0))), ((1, (0, 0)), (2, (1, 0)))], spec)


def suite_transform(seed: int = 0, count: int = 50) -> list[VerificationReport]:
    names = [f"disk-{k}" for k in range(2, 6)] + ["minus-identity", "scalar-i"]
    out = [check_transformation_law(name, count=count, seed=seed) for name in names]
    for name in ("disk-2", "minus-identity", "scalar-i"):
        out.append(check_deck_symmetry(name, seed=seed))
    return out


def suite_isometry() -> list[VerificationReport]:
    out = []
    for k, d in [(1, 0), (2, 0), (2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 2)]:
        chk = check_pullback_isometry(k, d)
        out.append(
            VerificationReport(
                name=f"isometry:z^{k}:w^{d}",
                passed=chk.equal,
                residual=abs(complex(chk.pullback_norm - chk.scaled_norm)),
                tolerance=0.0,
                inputs={
                    "pullback": repr(chk.pullback_norm),
                    "scaled": repr(chk.scaled_norm),
                },
            )
        )
    return out
