import hashlib
import math

import numpy as np
import pytest

from berg import verify
from berg.hartogs import monomial_norm
from berg.scalars import ExactComplex
from berg.verify import (
    ANNULUS_INNER_RADIUS,
    BLOCK,
    STDERR_REL_CAP,
    IntegrationSpec,
    _draw,
    check_deck_symmetry,
    check_orthogonality,
    check_pullback_isometry,
    check_reproducing,
    check_transformation_law,
    disk_monomial_norm,
    integrate,
    suite_isometry,
    suite_orthogonality,
    suite_transform,
)

N_FAST = 200_000


def test_disk_area():
    est, se = integrate(IntegrationSpec("disk", N_FAST, seed=1), lambda p: np.ones(p.shape[1]))
    assert abs(est.real - math.pi) <= 3 * se
    assert se < 0.02 * math.pi


def test_ball2_volume():
    est, se = integrate(IntegrationSpec("ball-2", N_FAST, seed=1), lambda p: np.ones(p.shape[1]))
    assert abs(est.real - math.pi**2 / 2) <= 3 * se


def test_annulus_area():
    spec = IntegrationSpec("annulus", N_FAST, seed=2)
    est, se = integrate(spec, lambda p: np.ones(p.shape[1]))
    assert abs(est.real - math.pi * (1 - ANNULUS_INNER_RADIUS**2)) <= 3 * se


def test_omega_fiber_norm_mc():
    # || lambda ||^2 in the top-form inner product (factor 8 wrt Lebesgue)
    spec = IntegrationSpec("omega", N_FAST, seed=3)
    est, se = integrate(spec, lambda p: 8.0 * np.abs(p[2]) ** 2)
    target = (2 * math.pi) ** 3 / 2
    assert abs(est.real - target) <= 3 * se
    assert se <= 0.02 * target


def test_unknown_domain_and_bad_spec():
    with pytest.raises(ValueError):
        integrate(IntegrationSpec("torus", 10), lambda p: p)
    with pytest.raises(ValueError):
        IntegrationSpec("disk", 0)


@pytest.mark.parametrize(
    "domain", ["ball", "ballistic", "ball-0", "ball3", "ball-", "ball-x", "ball--2", "ball-01", "hartogs"]
)
def test_draw_accepts_only_the_documented_domain_names(domain):
    with pytest.raises(ValueError, match="unknown domain"):
        _draw(IntegrationSpec(domain, 10), np.random.default_rng(0), 10)


@pytest.mark.parametrize("n", [1, 3, 12])
def test_draw_accepts_every_ball_dimension(n):
    points, inv = _draw(IntegrationSpec(f"ball-{n}", 10), np.random.default_rng(0), 10)
    assert points.shape == (n, 10) and inv.shape == (10,)


def test_hartogs_is_not_a_domain_name():
    # Omega is the one Hartogs domain, and "omega" its one name
    spec = IntegrationSpec("hartogs", 1000)
    with pytest.raises(ValueError, match="unknown domain"):
        integrate(spec, lambda p: p[0])
    with pytest.raises(ValueError, match="no reproducing check"):
        check_reproducing("hartogs", (1, (0, 0)), (0.0, 0.0, 0.4), spec)
    with pytest.raises(ValueError, match="no orthogonality check"):
        check_orthogonality((1, (0, 0)), (2, (0, 0)), spec)


def test_stderr_scaling():
    ses = []
    for n in (10_000, 100_000, 1_000_000):
        _, se = integrate(IntegrationSpec("disk", n, seed=4), lambda p: np.ones(p.shape[1]))
        ses.append(se)
    for a, b in ((0, 1), (1, 2)):
        ratio = ses[a] / ses[b]
        assert math.sqrt(10) / 2 <= ratio <= math.sqrt(10) * 2


def test_reproducing_disk():
    report = check_reproducing("disk", 1, 0.3, IntegrationSpec("disk", N_FAST, seed=5))
    assert report.passed
    assert abs(report.estimate - 0.3) <= 3 * report.stderr


def test_reproducing_omega():
    report = check_reproducing(
        "omega", (1, (0, 0)), (0.0, 0.0, 0.4), IntegrationSpec("omega", N_FAST, seed=5)
    )
    assert report.passed
    assert abs(report.estimate - 0.4) <= 3 * report.stderr


@pytest.mark.parametrize(
    "domain, kernel, f, z0",
    [
        ("disk", "ball_kernel", 1, 0.3),
        ("omega", "omega_closed_kernel", (1, (0, 0)), (0.0, 0.0, 0.4)),
    ],
)
def test_reproducing_fails_for_a_doubled_kernel(monkeypatch, domain, kernel, f, z0):
    # negative control for test_reproducing_disk / _omega at the same draw:
    # the check integrates the kernel berg ships, so doubling it must fail
    shipped = getattr(verify, kernel)
    monkeypatch.setattr(verify, kernel, lambda *args: 2 * shipped(*args))
    report = check_reproducing(domain, f, z0, IntegrationSpec(domain, N_FAST, seed=5))
    assert not report.passed
    assert abs(report.estimate - 2 * report.target) <= 3 * report.stderr


def test_reproducing_rejects_divergent_monomial():
    with pytest.raises(ValueError):
        check_reproducing("omega", (1, (1, 0)), (0.0, 0.0, 0.4))


def test_orthogonality_distinct_fiber_degrees():
    spec = IntegrationSpec("omega", N_FAST, seed=6)
    report = check_orthogonality((1, (0, 0)), (2, (0, 0)), spec)
    assert report.passed
    assert abs(report.estimate) <= 3 * report.stderr
    with pytest.raises(ValueError):
        check_orthogonality((1, (0, 0)), (1, (0, 0)), spec)


def test_orthogonality_rejects_a_domain_without_fibers():
    for domain in ("disk", "ball-2", "annulus"):
        with pytest.raises(ValueError, match="no orthogonality check"):
            check_orthogonality((1, (0, 0)), (2, (0, 0)), IntegrationSpec(domain, 1000))


def test_orthogonality_fails_when_the_stderr_is_above_the_cap():
    # negative control for the cap: at N = 2000 the estimate sits inside 3
    # standard errors, but the standard error is above STDERR_REL_CAP times
    # the norms' scale, so the check must fail; ten times the samples pass
    scale = math.sqrt((monomial_norm(1, (0, 0)) * monomial_norm(2, (0, 0))).to_complex().real)
    report = check_orthogonality((1, (0, 0)), (2, (0, 0)), IntegrationSpec("omega", 2000, seed=2))
    assert report.inputs["domain"] == "omega"
    assert abs(report.estimate) <= 3 * report.stderr
    assert report.stderr > STDERR_REL_CAP * scale
    assert not report.passed
    more = IntegrationSpec("omega", 20_000, seed=2)
    assert check_orthogonality((1, (0, 0)), (2, (0, 0)), more).passed


def test_deterministic_replay():
    spec = IntegrationSpec("omega", 50_000, seed=7)
    a = check_reproducing("omega", (1, (0, 0)), (0.0, 0.0, 0.4), spec)
    b = check_reproducing("omega", (1, (0, 0)), (0.0, 0.0, 0.4), spec)
    assert a.to_json() == b.to_json()


def test_isometry_exact_values():
    chk = check_pullback_isometry(2, 0)
    assert chk.equal
    assert chk.pullback_norm == ExactComplex(2, 0, 1)  # 4 pi / 2
    chk = check_pullback_isometry(2, 3)
    assert chk.pullback_norm == disk_monomial_norm(7) * ExactComplex(4)
    assert chk.scaled_norm == disk_monomial_norm(3) * ExactComplex(2)
    assert chk.equal
    assert check_pullback_isometry(1, 4).equal  # trivial cover, factor 1
    assert all(r.passed for r in suite_isometry())


def test_transformation_disk_covers():
    for k in (2, 3, 4, 5):
        report = check_transformation_law(f"disk-{k}", count=50, seed=8)
        assert report.passed, report
        assert report.residual <= 1e-12


def test_transformation_ball_quotients():
    for cover in ("minus-identity", "scalar-i"):
        report = check_transformation_law(cover, count=25, seed=8)
        assert report.passed
        assert report.residual <= 1e-12


def test_trivial_cover_transformation_is_exact():
    report = check_transformation_law("disk-1", count=10, seed=9)
    assert report.residual <= 1e-15  # float route: two roundings of one formula
    # on exact inputs the trivial deck sum IS the kernel, identically
    from fractions import Fraction

    from berg.ball import ball_kernel
    from berg.quotient import deck_sum_kernel, disk_power_cover

    group = disk_power_cover(1).group
    z, w = (Fraction(1, 3),), (Fraction(1, 5),)
    assert deck_sum_kernel(group, 1, z, w) == ball_kernel(1, z, w)


def test_deck_symmetry_reports():
    for cover in ("disk-2", "minus-identity", "scalar-i"):
        report = check_deck_symmetry(cover, seed=10)
        assert report.passed
        assert report.residual <= 1e-12


@pytest.mark.parametrize("count", [0, -3])
@pytest.mark.parametrize("check", [check_transformation_law, check_deck_symmetry])
def test_pair_checks_refuse_a_count_below_one(check, count):
    # a check over no pairs certifies nothing
    with pytest.raises(ValueError, match=f"count must be at least 1, got {count}"):
        check("scalar-i", count=count)


def test_suite_transform_builds_each_cover_once():
    verify._named_cover.cache_clear()
    reports = suite_transform(seed=0, count=2)
    assert len(reports) == 9 and all(r.passed for r in reports)
    assert verify._named_cover.cache_info().misses == 6


def _fiber_weight(p):
    return 8.0 * np.abs(p[2]) ** 2


def _fiber_product(p):
    return 8.0 * p[2] * np.conj(p[2] ** 2) * p[0]


@pytest.mark.parametrize("domain", ["disk", "ball-2", "annulus", "omega"])
def test_blockwise_integrate_equals_one_shot(domain):
    # blocks change only where integrands are evaluated, not the values or
    # the reductions: estimate and stderr equal a whole-array evaluation
    spec = IntegrationSpec(domain, 3 * BLOCK + 17, seed=12)
    f = _fiber_weight if domain == "omega" else (lambda p: p[0] * np.conj(p[0]) ** 2)
    points, inv = _draw(spec, np.random.default_rng(spec.seed), spec.n_samples)
    weighted = np.where(inv > 0, np.asarray(f(points), dtype=complex), 0.0) * inv
    var = np.var(weighted.real, ddof=1) + np.var(weighted.imag, ddof=1)
    want = (complex(np.mean(weighted)), math.sqrt(var / spec.n_samples))
    assert integrate(spec, f) == want


def test_one_sample_has_an_unbounded_standard_error():
    # ddof=1 has nothing to divide by; the check then fails on its stderr cap
    estimate, stderr = integrate(IntegrationSpec("disk", 1, seed=3), lambda p: p[0])
    assert math.isfinite(abs(estimate)) and stderr == math.inf
    report = check_reproducing("disk", 1, 0.3, IntegrationSpec("disk", 1, seed=3))
    assert report.stderr == math.inf and not report.passed


@pytest.mark.parametrize("domain", ["disk", "omega"])
def test_integrate_draws_one_block_at_a_time(domain, monkeypatch):
    counts = []

    def recording(spec, rng, count):
        counts.append(count)
        return _draw(spec, rng, count)

    monkeypatch.setattr(verify, "_draw", recording)
    spec = IntegrationSpec(domain, 2 * BLOCK + 5, seed=15)
    integrate(spec, [_fiber_weight, _fiber_product] if domain == "omega" else lambda p: p[0])
    assert max(counts) <= BLOCK and sum(counts) == spec.n_samples


def test_several_integrands_share_one_draw():
    spec = IntegrationSpec("omega", 2 * BLOCK + 5, seed=13)
    together = integrate(spec, [_fiber_weight, _fiber_product])
    assert together == [integrate(spec, _fiber_weight), integrate(spec, _fiber_product)]


def test_suite_orthogonality_equals_standalone_checks():
    spec = IntegrationSpec("omega", 50_000, seed=14)
    suite = suite_orthogonality(seed=14, n_samples=50_000)
    alone = [
        check_orthogonality((1, (0, 0)), (2, (0, 0)), spec),
        check_orthogonality((1, (0, 0)), (2, (1, 0)), spec),
    ]
    assert [r.to_json() for r in suite] == [r.to_json() for r in alone]


def _uniform_bins_close(values, low, high, bins=20, rel=0.06):
    counts, _ = np.histogram(values, bins=bins, range=(low, high))
    expected = len(values) / bins
    return counts.sum() == len(values) and np.all(np.abs(counts - expected) <= rel * expected)


def test_omega_sampler_law():
    # u_i = r_i / (1 + r_i) and |lambda|^2 h are uniform on [0, 1] for
    # h = (1+r_1)(1+r_2), every argument is uniform, and the weight is pi^3 h
    spec = IntegrationSpec("omega", 200_000, seed=21)
    points, inv = _draw(spec, np.random.default_rng(spec.seed), spec.n_samples)
    r = np.abs(points[:2]) ** 2
    h = (1.0 + r[0]) * (1.0 + r[1])
    for u in (r[0] / (1.0 + r[0]), r[1] / (1.0 + r[1]), np.abs(points[2]) ** 2 * h):
        assert _uniform_bins_close(u, 0.0, 1.0)
    for coordinate in points:
        assert _uniform_bins_close(np.angle(coordinate), -math.pi, math.pi)
    np.testing.assert_allclose(inv, math.pi**3 * h, rtol=1e-12)


@pytest.mark.parametrize("domain", ["disk", "omega"])
@pytest.mark.parametrize("count", [1, BLOCK, 3 * BLOCK + 17])
def test_draw_count_and_byte_replay(domain, count):
    spec = IntegrationSpec(domain, count)
    for seed in (0, 1, 2):
        first = _draw(spec, np.random.default_rng(seed), count)
        again = _draw(spec, np.random.default_rng(seed), count)
        assert first[0].shape == (3 if domain == "omega" else 1, count)
        assert first[1].shape == (count,)
        assert [a.tobytes() for a in first] == [a.tobytes() for a in again]


# sha256 prefixes of the draws (points, then weights) at seed 7, taken from
# the (count, k) rows the draws came in before they became coordinates and
# transposed: the layout changed, the points did not
DRAW_DIGESTS = {
    ("disk", 70000): "c9fc99b7836a1d12",
    ("annulus", 70000): "4632f96ab5a60d8f",
    ("ball-2", 70000): "e3af85ea23faa57e",
    ("ball-3", 1000): "4259edff1f9b597d",
    ("omega", 70000): "8bf6cc79d413edd0",
    ("omega", 1): "c365c864a9e7c4db",
}


@pytest.mark.parametrize("domain, count", sorted(DRAW_DIGESTS))
def test_draws_are_the_row_layout_draws_as_coordinates(domain, count):
    points, inv = _draw(IntegrationSpec(domain, count), np.random.default_rng(7), count)
    assert points.shape[1] == count
    digest = hashlib.sha256(np.ascontiguousarray(points).tobytes() + inv.tobytes()).hexdigest()
    assert digest[:16] == DRAW_DIGESTS[domain, count]


def test_disk_points_keep_draw_order_across_rounds():
    # a first round with every candidate outside the disk forces a second
    class FirstRoundOutside:
        def __init__(self, seed):
            self.rng, self.drawn = np.random.default_rng(seed), []

        def uniform(self, low, high, size):
            first = not self.drawn
            self.drawn.append(np.full(size, 0.9) if first else self.rng.uniform(low, high, size))
            return self.drawn[-1]

    stub = FirstRoundOutside(8)
    points, modsq = verify._unit_disk_points(stub, 1000)
    assert len(stub.drawn) == 2
    cand = stub.drawn[1].view(complex)
    assert np.array_equal(points, [cand[np.abs(cand) < 1.0][:1000]])
    np.testing.assert_allclose(modsq, np.abs(points[0]) ** 2, rtol=1e-15)


def _random_ball_pairs_loop(rng, count, n):
    # the per-pair draw the single uniform draw replaced, kept as its oracle
    r = verify.DECK_SAMPLE_RADIUS
    pairs = []
    for _ in range(count):
        z = rng.uniform(-r, r, 2 * n)
        w = rng.uniform(-r, r, 2 * n)
        pairs.append(
            (
                tuple(complex(z[i], z[n + i]) for i in range(n)),
                tuple(complex(w[i], w[n + i]) for i in range(n)),
            )
        )
    return pairs


@pytest.mark.parametrize("n", [1, 2])
def test_random_ball_pairs_equal_the_per_pair_loop(n):
    for seed in range(20):
        z, w = verify._random_ball_pairs(np.random.default_rng(seed), 50, n)
        want = _random_ball_pairs_loop(np.random.default_rng(seed), 50, n)
        assert z.shape == w.shape == (n, 50) and z.dtype == w.dtype == complex
        got = list(zip(z.T.tolist(), w.T.tolist()))
        bits = [[(x.real.hex(), x.imag.hex()) for z, w in pairs for x in (*z, *w)] for pairs in (got, want)]
        assert bits[0] == bits[1]


@pytest.mark.parametrize("m, alpha", [(0, (0, 0)), (1, (0, 0)), (2, (1, 0)), (0, (2, 3)), (3, (1, 2))])
def test_fiber_monomial(m, alpha):
    pts = np.random.default_rng(9).normal(size=(50, 6)).view(complex).T
    want = pts[2] ** m * pts[0] ** alpha[0] * pts[1] ** alpha[1]
    np.testing.assert_allclose(verify._fiber_monomial(pts, m, alpha), want, rtol=1e-14)
