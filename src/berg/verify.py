"""Monte Carlo integration over the supported domains and the identity
checks that tie the package together: reproducing property, pullback
isometry, deck-sum symmetry, and the covering transformation law.

Conventions.  Ball and disk kernels reproduce with respect to Lebesgue
measure.  Hartogs-domain norms carry the top-form inner product, which on
C^3 is 2^3 times Lebesgue measure; the factor 8 appears once, here.

Sampling.  Disk, balls and the annulus are rejection-sampled from
bounding boxes.  The unbounded Hartogs domain is sampled exactly: the
fiber disk in lambda is sampled uniformly (its area is known per base
point) and each base radius r_i = |z_i|^2 is drawn from the heavy-tailed
density (1+r)^-2, giving an unbiased estimator with no domain truncation
and bounded weights for every square-integrable fiber monomial.  All
three coordinates are maps of uniform disk points drawn by rejection, so
the sampler needs no trigonometry.  The relation fits in ``algebraic``
draw their disk, annulus and ball interiors through the same rejection
sampler.
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .ball import ball_kernel
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
ANNULUS_INNER_RADIUS = 0.5


@dataclass(frozen=True)
class IntegrationSpec:
    """What to integrate over and how; fixing the seed fixes the output."""

    domain: str
    n_samples: int = 1_000_000
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")


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
# whole draw is ever held.  Both samplers consume their RNG streams in
# sequence, so consecutive block draws give the points one draw of the
# whole count gives: the box sampler takes a fixed number of uniforms per
# point, and the Hartogs sampler draws block by block itself (its stream,
# and so its points, depend on BLOCK).
# ---------------------------------------------------------------------------

BLOCK = 1 << 16  # points drawn, and integrands evaluated, per block
RADIUS_SQ_CAP = 1.0 - 1e-12  # keeps the Hartogs weights finite


def _blocks(count: int):
    return (slice(i, min(i + BLOCK, count)) for i in range(0, count, BLOCK))


def _sample_box_domain(rng, count: int, n: int, keep) -> tuple[np.ndarray, np.ndarray]:
    # one row of 2n uniforms per point: real parts, then imaginary parts
    parts = rng.uniform(-1.0, 1.0, (count, 2 * n)).T
    z = parts[:n] + 1j * parts[n:]
    return z, np.where(keep(z), float(4**n), 0.0)


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
        sq = sq.reshape(-1, dim).sum(axis=1)  # over each point's coordinates
        inside = sq < r_max * r_max
        if r_min > 0.0:
            inside &= sq > r_min * r_min
        keep = np.flatnonzero(inside)[:need]
        points.append(cand.view(complex).reshape(-1, dim).T.take(keep, axis=1))
        modsq.append(sq.take(keep))
        filled += len(keep)
    if len(points) == 1:
        return points[0], modsq[0]
    return np.concatenate(points, axis=1), np.concatenate(modsq)


def _sample_omega(rng, count: int) -> tuple[np.ndarray, np.ndarray]:
    """z_1, z_2 and lambda each come from a uniform point p of the unit
    disk: z_i = p_i / sqrt(1 - |p_i|^2), so r_i = |z_i|^2 has density
    (1+r)^-2 and a uniform argument, and lambda = p_3 / sqrt(h) with
    h = (1+r_1)(1+r_2) is uniform on its fiber disk {|lambda|^2 < 1/h},
    of area pi/h; the inverse density is pi^3 h."""
    points = np.empty((3, count), dtype=complex)
    inv = np.empty(count)
    for b in _blocks(count):
        m = b.stop - b.start
        # one disk draw per coordinate keeps the temporaries small
        ((p1,), q1), ((p2,), q2), ((p3,), _) = (_unit_disk_points(rng, m) for _ in range(3))
        q1, q2 = np.minimum(q1, RADIUS_SQ_CAP), np.minimum(q2, RADIUS_SQ_CAP)
        grow1, grow2 = 1.0 / (1.0 - q1), 1.0 / (1.0 - q2)  # 1 + r_i
        np.multiply(p1, np.sqrt(grow1), out=points[0, b])
        np.multiply(p2, np.sqrt(grow2), out=points[1, b])
        h = grow1 * grow2
        np.divide(p3, np.sqrt(h), out=points[2, b])
        inv[b] = math.pi**3 * h
    return points, inv


def _draw(spec: IntegrationSpec, rng, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Points of ``disk``, ``annulus``, ``omega`` or ``ball-<n>`` (n >= 1),
    with their inverse densities."""
    d = spec.domain
    if d == "disk":
        return _sample_box_domain(rng, count, 1, lambda z: np.abs(z[0]) < 1.0)
    ball = re.fullmatch(r"ball-([1-9][0-9]*)", d)
    if ball:
        return _sample_box_domain(
            rng, count, int(ball[1]), lambda z: np.sum(np.abs(z) ** 2, axis=0) < 1.0
        )
    if d == "annulus":
        r0 = ANNULUS_INNER_RADIUS
        return _sample_box_domain(
            rng, count, 1, lambda z: (np.abs(z[0]) > r0) & (np.abs(z[0]) < 1.0)
        )
    if d == "omega":
        return _sample_omega(rng, count)
    raise ValueError(f"unknown domain {d}")


Integrand = Callable[[np.ndarray], np.ndarray]


def integrate(
    spec: IntegrationSpec, integrand: Integrand | Sequence[Integrand]
) -> tuple[complex, float] | list[tuple[complex, float]]:
    """Unbiased Monte Carlo estimate of the Lebesgue integral of a
    vectorized integrand over the domain, with its standard error.

    Points are drawn, and the integrand evaluated, per block of at most
    ``BLOCK`` points (the ``(k, m)`` coordinates of m points in, ``m``
    values out), so each output entry must depend only on its own point.
    Given a sequence of integrands, one draw serves them all and one
    (estimate, stderr) pair is returned for each, in order.
    """
    several = not callable(integrand)
    integrands = list(integrand) if several else [integrand]
    rng = np.random.default_rng(spec.seed)
    n = spec.n_samples
    weighted = np.empty((len(integrands), n), dtype=complex)
    for b in _blocks(n):
        points, inv = _draw(spec, rng, b.stop - b.start)
        for row, f in zip(weighted, integrands):
            values = np.asarray(f(points), dtype=complex)
            row[b] = np.where(inv > 0, values, 0.0) * inv
    out = []
    for row in weighted:
        # one sample has no spread to estimate: its standard error is unbounded
        var = np.var(row.real, ddof=1) + np.var(row.imag, ddof=1) if n > 1 else math.inf
        out.append((complex(np.mean(row)), math.sqrt(var / n)))
    return out if several else out[0]


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

    For the disk, ``f`` is an integer power d (the monomial z^d) and z0 a
    complex point.  For the Hartogs domain, ``f`` is a pair (m, alpha)
    (the monomial lambda^m z^alpha, which must be square-integrable) and
    z0 a triple (z1, z2, lambda0).
    """
    spec = spec or IntegrationSpec(domain=domain)
    if spec.domain != domain:
        raise ValueError(f"spec domain {spec.domain!r} does not match {domain!r}")
    if domain == "disk":
        d = int(f)
        z0 = complex(z0)

        def integrand(pts):
            return pts[0] ** d * ball_kernel(1, (z0,), pts)

        target = z0**d
        name = f"reproducing:disk:z^{d}"
    elif domain == "omega":
        m, alpha = int(f[0]), tuple(f[1])
        if not square_integrable(m, alpha):
            raise ValueError(
                f"monomial lambda^{m} z^{alpha} is not square-integrable on the domain"
            )
        zy = (complex(z0[0]), complex(z0[1]))
        lam_y = complex(z0[2])

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


Monomial = tuple[int, tuple[int, int]]


def check_orthogonality(
    first: Monomial,
    second: Monomial,
    spec: IntegrationSpec | None = None,
) -> VerificationReport:
    """Inner product of two fiber monomials with distinct fiber degrees is
    zero; the Monte Carlo estimate must sit within 3 standard errors."""
    return _orthogonality_reports([(first, second)], spec or IntegrationSpec(domain="omega"))[0]


def _orthogonality_reports(
    pairs: Sequence[tuple[Monomial, Monomial]], spec: IntegrationSpec
) -> list[VerificationReport]:
    """``check_orthogonality`` for several pairs over one draw of ``spec``."""
    if spec.domain != "omega":
        raise ValueError(f"no orthogonality check for domain {spec.domain}")
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
    cover_exponent: int
    monomial_degree: int
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
    return IsometryCheck(
        cover_exponent=k, monomial_degree=d, pullback_norm=lhs, scaled_norm=rhs
    )


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
                residual=0.0 if chk.equal else math.inf,
                tolerance=0.0,
                inputs={
                    "pullback": repr(chk.pullback_norm),
                    "scaled": repr(chk.scaled_norm),
                },
            )
        )
    return out
