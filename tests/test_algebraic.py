import dataclasses
import math

import numpy as np
import pytest

from berg import algebraic
from berg.algebraic import (
    TRIANGULAR_BLOCK,
    AlgebraicRelation,
    _evaluation_matrix,
    _laurent_series,
    _smallest_right_singular_vector,
    _triangular_inverse,
    annulus_surface,
    annulus_kernel,
    ball2_surface,
    ball_kernel_dbar_at_zero,
    best_relation_residual,
    boundary_leading_coefficient,
    disk_surface,
    fit_relation,
    fit_surface_relation,
    linear_map_coefficients,
    omega_diagonal_surface,
    recover_map_from_kernel,
    u_surface,
)
from berg.ball import ball_kernel, complex_coordinates
from berg.hartogs import omega_closed_kernel, u_kernel
from berg.polynomials import HoloPolynomial, monomials_up_to_degree
from berg.scalars import to_complex


# -- Laurent norms and annulus kernel --------------------------------------------

def laurent_norm(k: int, inner_radius: float) -> float:
    """Squared Lebesgue norm of z^k on the annulus {r0 < |z| < 1}.

    With r0 = 0 (punctured disk) the negative powers are not integrable
    and get norm +inf, so they drop out of any kernel sum; removing the
    puncture does not change the kernel.
    """
    r0 = float(inner_radius)
    if not 0.0 <= r0 < 1.0:
        raise ValueError("inner radius must lie in [0, 1)")
    if r0 == 0.0:
        if k < 0:
            return math.inf
        return math.pi / (k + 1)
    if k == -1:
        return 2.0 * math.pi * math.log(1.0 / r0)
    return math.pi * (1.0 - r0 ** (2 * k + 2)) / (k + 1)


def punctured_disk_kernel(z, w, truncation: int = 200):
    """Kernel of the punctured disk: the annulus series with r0 = 0, whose
    negative powers have infinite norm and drop out; points of C^1 are
    read as ``annulus_kernel`` reads them, from their one coordinate."""
    ((z,), (w,)), single = complex_coordinates(1, (z,), (w,))
    values = _laurent_series(0.0, z, w, truncation)
    return complex(values[0]) if single else values


def test_laurent_norms():
    assert laurent_norm(0, 0.5) == pytest.approx(math.pi * (1 - 0.25))
    assert laurent_norm(-1, 0.5) == pytest.approx(2 * math.pi * math.log(2))
    assert laurent_norm(2, 0.0) == pytest.approx(math.pi / 3)
    assert laurent_norm(-1, 0.0) == math.inf
    assert laurent_norm(-3, 0.0) == math.inf
    with pytest.raises(ValueError):
        laurent_norm(0, 1.0)


def test_annulus_negative_term_formula():
    # the k = -1 contribution is z^-1 conj(w)^-1 / (2 pi log(1/r0)):
    # difference of the |k| <= 1 and |k| = 0 partial sums minus the k = 1 term
    z, w = 0.7 + 0.1j, 0.6 - 0.2j
    u = z * w.conjugate()
    upto1 = annulus_kernel(0.5, (z,), (w,), truncation=1)
    upto0 = annulus_kernel(0.5, (z,), (w,), truncation=0)
    k1 = 2 * u / (math.pi * (1 - 0.5**4))
    km1 = 1 / (u * 2 * math.pi * math.log(2))
    assert abs((upto1 - upto0 - k1) - km1) < 1e-15


def test_annulus_hermitian_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(8):
        r1, r2 = rng.uniform(0.55, 0.95, 2)
        t1, t2 = rng.uniform(0, 2 * math.pi, 2)
        z = r1 * complex(math.cos(t1), math.sin(t1))
        w = r2 * complex(math.cos(t2), math.sin(t2))
        a = annulus_kernel(0.5, (z,), (w,), truncation=300)
        b = annulus_kernel(0.5, (w,), (z,), truncation=300)
        assert abs(a - b.conjugate()) < 1e-12


def test_annulus_truncation_stability():
    value_a = annulus_kernel(0.5, (0.75,), (0.75,), truncation=200)
    value_b = annulus_kernel(0.5, (0.75,), (0.75,), truncation=400)
    assert abs(value_a - value_b) <= 1e-10 * abs(value_a)


def test_annulus_domain_check():
    with pytest.raises(ValueError, match="outside the open annulus"):
        annulus_kernel(0.5, (0.4,), (0.7,))
    with pytest.raises(ValueError, match="outside the open annulus"):
        annulus_kernel(0.5, (0.7,), (1.1,))


def test_annulus_refuses_a_negative_truncation():
    for truncation in (-1, -3):
        with pytest.raises(ValueError, match=f"truncation must be at least 0, got {truncation}"):
            annulus_kernel(0.5, (0.7,), (0.6,), truncation=truncation)
    # truncation 0 keeps the k = 0 term alone
    assert annulus_kernel(0.5, (0.7,), (0.6,), truncation=0) == pytest.approx(1 / (math.pi * 0.75))


def _annulus_loop(r0, z, w, truncation):
    """The term-by-term Laurent sum the coefficient tables replaced."""
    u = complex(z) * complex(w).conjugate()
    total = 0j
    for k in range(0, truncation + 1):
        total += (k + 1) * u**k / (math.pi * (1.0 - r0 ** (2 * k + 2)))
    if truncation >= 1:
        total += 1.0 / (u * 2.0 * math.pi * math.log(1.0 / r0))
    for k in range(-truncation, -1):
        s = -(2 * k + 2)
        total += -(k + 1) * (u / r0**2) ** k / (r0**2 * math.pi * (1.0 - r0**s))
    return total


@pytest.mark.parametrize("truncation", [0, 1, 2, 200, 2000])
def test_annulus_arrays_match_the_term_loop(truncation):
    # off the diagonal the series cancels, so the scale of the comparison is
    # the sum of the terms' moduli: the same series at (|z|, |w|)
    rng = np.random.default_rng(truncation)
    radii = rng.uniform(0.505, 0.995, (2, 40))
    angles = rng.uniform(0.0, 2.0 * math.pi, (2, 40))
    z, w = radii * np.exp(1j * angles)
    w[:10] = z[:10]  # diagonal values, where the scale is the value itself
    want = np.array([_annulus_loop(0.5, a, b, truncation) for a, b in zip(z, w)])
    scale = np.array([_annulus_loop(0.5, abs(a), abs(b), truncation).real for a, b in zip(z, w)])
    batched = annulus_kernel(0.5, (z,), (w,), truncation)
    assert batched.shape == (40,)
    assert np.all(np.abs(batched - want) <= 1e-13 * scale)
    for a, b, ref, sc in zip(z[:8], w[:8], want, scale):
        value = annulus_kernel(0.5, (complex(a),), (complex(b),), truncation)
        assert isinstance(value, complex) and abs(value - ref) <= 1e-13 * sc
    # broadcasting one point against an array
    row = annulus_kernel(0.5, (z[0],), (w,), truncation)
    ref = np.array([_annulus_loop(0.5, z[0], b, truncation) for b in w])
    ref_scale = np.array([_annulus_loop(0.5, abs(z[0]), abs(b), truncation).real for b in w])
    assert np.all(np.abs(row - ref) <= 1e-13 * ref_scale)


def test_annulus_array_domain_check():
    inside = (np.array([0.6, 0.7j, -0.8]),)
    with pytest.raises(ValueError, match="outside the open annulus"):
        annulus_kernel(0.5, (np.array([0.6, 0.45j, -0.8]),), inside)
    with pytest.raises(ValueError, match="outside the open annulus"):
        annulus_kernel(0.5, inside, (np.array([0.6, 0.7j, 1.0]),))
    assert annulus_kernel(0.5, inside, inside).shape == (3,)


def test_ball_surfaces_sample_the_single_pair_kernel():
    # the diagonal runs as one batched ball_kernel call; each value is the
    # single-pair value bit for bit
    for surface, n in ((disk_surface(), 1), (ball2_surface(), 2)):
        rng = np.random.default_rng(4)
        points = surface.sample(rng, 25)
        samples = surface.samples(25, seed=4)
        assert [k for _, k in samples] == [to_complex(ball_kernel(n, p, p)).real for p in points.T]


@pytest.mark.parametrize(
    "surface, kernel",
    [
        (omega_diagonal_surface, lambda x, y: omega_closed_kernel(x[:2], x[2], y[:2], y[2])),
        (u_surface, u_kernel),
    ],
    ids=["omega", "u"],
)
def test_hartogs_batches_match_single_pair_calls(surface, kernel):
    # a single pair runs as a batch of one, so rows agree bit for bit;
    # 1,820 points is the size of the Omega 12/1 fit
    points = surface().sample(np.random.default_rng(6), 1820)
    for x, y in ((points, points), (points, np.roll(points, 1, axis=1))):
        rows = kernel(x, y)
        single = np.array([kernel(p, q) for p, q in zip(x.T.tolist(), y.T.tolist())])
        assert rows.shape == (1820,)
        assert np.array_equal(rows.real, single.real) and np.array_equal(rows.imag, single.imag)


def test_punctured_disk_equals_disk():
    z, w = 0.5 + 0.2j, -0.3 + 0.4j
    assert abs(
        punctured_disk_kernel(z, w, 400) - to_complex(ball_kernel(1, (z,), (w,)))
    ) < 1e-13


# -- fitting -----------------------------------------------------------------------

def test_fit_disk_relation():
    surface = disk_surface()
    relation = fit_surface_relation(surface, 4, 1, seed=3)
    assert relation.residual <= 1e-10
    # held-out generalization: the same relation stays tiny off the fit set
    fresh = surface.samples(100, seed=99)
    worst = max(abs(relation.relation.eval((*f, k))) for f, k in fresh)
    assert worst <= 1e-10
    boundary = surface.boundary_features(50, seed=1)
    assert boundary_leading_coefficient(relation, boundary) <= 1e-8


def test_fit_disk_against_known_relation():
    # the fitted direction is proportional to pi (1 - x^2 - y^2)^2 K - 1:
    # normalize on the K-constant coefficient and compare coefficient-wise
    relation = fit_surface_relation(disk_surface(), 4, 1, seed=3)
    coeffs = relation.relation.terms
    scale = coeffs[(0, 0, 1)] / math.pi
    expected = {
        (0, 0, 1): math.pi,
        (2, 0, 1): -2 * math.pi,
        (0, 2, 1): -2 * math.pi,
        (4, 0, 1): math.pi,
        (0, 4, 1): math.pi,
        (2, 2, 1): 2 * math.pi,
        (0, 0, 0): -1.0,
    }
    for key, want in expected.items():
        assert coeffs.get(key, 0.0) / scale == pytest.approx(want, abs=1e-9)
    for key, value in coeffs.items():
        if key not in expected:
            assert abs(value / scale) < 1e-9


def test_fit_ball2_relation():
    relation = fit_surface_relation(ball2_surface(), 6, 1, seed=5)
    assert relation.residual <= 1e-9


def test_fit_u_domain_relation():
    # radial features s_i = |x_i|^2; clearing denominators in the chart
    # kernel gives a relation with leading coefficient of feature degree 8
    relation = fit_surface_relation(u_surface(), 8, 1, seed=5)
    assert relation.residual <= 1e-8


def test_fit_constant_surface():
    c = 2.5
    samples = [((float(x),), c) for x in np.linspace(-1, 1, 40)]
    relation = fit_relation(samples, 0, 1)
    assert relation.residual <= 1e-14
    a1 = relation.coefficient(1).eval((0.0,))
    a0 = relation.coefficient(0).eval((0.0,))
    assert a0 / a1 == pytest.approx(-c, rel=1e-12)


EPS = np.finfo(float).eps
BENCH_FIT_SEED, BENCH_CONTROL_SEED = 506456969, 2127877499  # perfbench verify-suites, seed 1


@pytest.mark.parametrize(
    "make, feature_degree, k_degree, seed",
    [
        (disk_surface, 4, 1, 3),
        (ball2_surface, 6, 1, 5),
        (u_surface, 8, 1, 5),
        (omega_diagonal_surface, 12, 1, BENCH_FIT_SEED),
        (omega_diagonal_surface, 12, 1, 106),
        (annulus_surface, 8, 2, 106),
        (annulus_surface, 8, 2, BENCH_CONTROL_SEED),
        (lambda: annulus_surface(truncation=1), 8, 2, 106),
    ],
    ids=["disk", "ball2", "u", "omega-bench", "omega-106", "annulus-106", "annulus-bench", "twin"],
)
def test_fit_direction_is_the_smallest_singular_direction(make, feature_degree, k_degree, seed):
    # the fitted unit direction x of the column-scaled matrix A = QR meets
    # ||R x|| = ||A x|| <= sigma_min up to rounding, checked by a full SVD
    surface = make()
    betas = sum(1 for _ in monomials_up_to_degree(len(surface.feature_polys), feature_degree))
    samples = surface.samples(2 * betas * (k_degree + 1), seed=seed)
    relation = fit_relation(samples, feature_degree, k_degree)
    keys, matrix = _evaluation_matrix(samples, feature_degree, k_degree)
    scale = np.linalg.norm(matrix, axis=0)
    scale[scale == 0] = 1.0
    x = np.array([relation.relation.terms.get(key, 0.0) for key in keys]) * scale
    x /= np.linalg.norm(x)
    scaled = matrix / scale
    sigma = np.linalg.svd(scaled, compute_uv=False)
    assert np.linalg.norm(scaled @ x) <= (1 + 1e-6) * sigma[-1] + 8 * EPS * sigma[0]


@pytest.mark.parametrize("n", [1, TRIANGULAR_BLOCK - 1, TRIANGULAR_BLOCK, TRIANGULAR_BLOCK + 1, 200])
def test_triangular_inverse_matches_a_general_inverse(n):
    # well conditioned: unit-size pivots of either sign, small off-diagonal part
    rng = np.random.default_rng(n)
    pivots = rng.uniform(1.0, 2.0, n) * rng.choice([-1.0, 1.0], n)
    r = np.triu(rng.standard_normal((n, n))) / math.sqrt(n) + np.diag(pivots)
    x = _triangular_inverse(r)
    want = np.linalg.inv(r)
    assert np.abs(x - want).max() <= 1e-13 * np.abs(want).max()
    assert not np.tril(x, -1).any()


def test_floored_zero_pivot_still_gives_a_null_vector():
    # R_kk = 0 with the rows below zero in column k: column k is a
    # combination of the columns before it, so R has a null vector
    rng = np.random.default_rng(7)
    n, k = 90, 70
    r = np.triu(rng.standard_normal((n, n))) + 3.0 * np.eye(n)
    r[k, k] = 0.0
    x = _smallest_right_singular_vector(r)
    assert np.linalg.norm(x) == pytest.approx(1.0)
    assert np.linalg.norm(r @ x) <= 1e-12 * np.linalg.norm(r)


def _omega_sample_loop(rng, count, radial_max=2.5, fiber_low=0.05, fiber_high=0.95):
    # the per-point sampler the vectorized one replaced, kept as its oracle
    pts = []
    for _ in range(count):
        r1, r2 = rng.uniform(0.0, radial_max, 2)
        h = (1.0 + r1) * (1.0 + r2)
        t = rng.uniform(fiber_low, fiber_high) / h
        th = rng.uniform(0.0, 2.0 * math.pi, 3)
        pts.append(
            (
                math.sqrt(r1) * complex(math.cos(th[0]), math.sin(th[0])),
                math.sqrt(r2) * complex(math.cos(th[1]), math.sin(th[1])),
                math.sqrt(t) * complex(math.cos(th[2]), math.sin(th[2])),
            )
        )
    return pts


def _omega_boundary_loop(rng, count, radial_max=2.5):
    pts = []
    for _ in range(count):
        r1, r2 = rng.uniform(0.0, radial_max, 2)
        h = (1.0 + r1) * (1.0 + r2)
        th = rng.uniform(0.0, 2.0 * math.pi, 3)
        pts.append(
            (
                math.sqrt(r1) * complex(math.cos(th[0]), math.sin(th[0])),
                math.sqrt(r2) * complex(math.cos(th[1]), math.sin(th[1])),
                math.sqrt(1.0 / h) * complex(math.cos(th[2]), math.sin(th[2])),
            )
        )
    return pts


def _bits(points):
    return [(z.real.hex(), z.imag.hex()) for p in points for z in p]


def _point_list(coordinates, dim):
    """A coordinate batch as a list of points, each a list of Python complex."""
    assert coordinates.dtype == complex and coordinates.shape[0] == dim
    return coordinates.T.tolist()


@pytest.mark.parametrize("seed", [0, 106, BENCH_FIT_SEED])
def test_omega_samplers_equal_the_per_point_loop_bit_for_bit(seed):
    surface = omega_diagonal_surface()
    got = _point_list(surface.sample(np.random.default_rng(seed), 1820), 3)
    assert _bits(got) == _bits(_omega_sample_loop(np.random.default_rng(seed), 1820))
    got = _point_list(surface.boundary_sample(np.random.default_rng(seed), 50), 3)
    assert _bits(got) == _bits(_omega_boundary_loop(np.random.default_rng(seed), 50))


def _shell_sample_loop(rng, count, r_min, r_max):
    # the per-point disk and annulus sampler the shared rejection sampler
    # replaced, kept as its oracle
    pts = []
    while len(pts) < count:
        x, y = rng.uniform(-1, 1, 2)
        if r_min < math.hypot(x, y) < r_max:
            pts.append((complex(x, y),))
    return pts


def _ball2_sample_loop(rng, count):
    pts = []
    while len(pts) < count:
        v = rng.uniform(-1, 1, 4)
        if v @ v < 0.8**2:
            pts.append((complex(v[0], v[1]), complex(v[2], v[3])))
    return pts


@pytest.mark.parametrize("seed", [0, 3, 5, 106, BENCH_FIT_SEED, BENCH_CONTROL_SEED])
def test_shell_samplers_equal_the_per_point_loops_bit_for_bit(seed):
    # counts above a first round's yield, so later rounds are covered too
    for surface, count, want in [
        (disk_surface(), 600, lambda rng: _shell_sample_loop(rng, 600, 0.0, 0.9)),
        (annulus_surface(), 1000, lambda rng: _shell_sample_loop(rng, 1000, 0.51, 0.99)),
        (ball2_surface(), 840, lambda rng: _ball2_sample_loop(rng, 840)),
    ]:
        got = _point_list(surface.sample(np.random.default_rng(seed), count), len(surface.feature_polys) // 2)
        assert _bits(got) == _bits(want(np.random.default_rng(seed)))


def _ball2_boundary_loop(rng, count):
    # the per-point sphere sampler the vectorized one replaced, kept as its oracle
    pts = []
    for _ in range(count):
        v = rng.normal(size=4)
        v = v / math.sqrt(v @ v)
        pts.append((complex(v[0], v[1]), complex(v[2], v[3])))
    return pts


def _disk_boundary_loop(rng, count):
    return [(complex(math.cos(t), math.sin(t)),) for t in rng.uniform(0.0, 2.0 * math.pi, count)]


def _u_sample_loop(rng, count):
    # the per-point chart sampler the vectorized one replaced, kept as its oracle
    pts = []
    while len(pts) < count:
        z1, z2 = (
            math.sqrt(r) * np.exp(1j * t)
            for r, t in zip(rng.uniform(0.0, 1.5, 2), rng.uniform(0, 2 * math.pi, 2))
        )
        h = (1 + abs(z1) ** 2) * (1 + abs(z2) ** 2)
        lam = math.sqrt(rng.uniform(0.05, 0.95) / h) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        pts.append((lam, lam * z1, lam * z2))
    return pts


@pytest.mark.parametrize("seed", [0, 1, 5, 106])
def test_boundary_samplers_equal_the_per_point_loops_bit_for_bit(seed):
    for surface, dim, loop in ((disk_surface(), 1, _disk_boundary_loop), (ball2_surface(), 2, _ball2_boundary_loop)):
        got = _point_list(surface.boundary_sample(np.random.default_rng(seed), 50), dim)
        assert _bits(got) == _bits(loop(np.random.default_rng(seed), 50))


@pytest.mark.parametrize("seed", [0, 5, 106])
def test_u_sampler_draws_the_per_point_stream(seed):
    # the same uniforms, mapped as the loop maps them; numpy's array abs and
    # complex product may round the last bit otherwise than the scalar path
    got = u_surface().sample(np.random.default_rng(seed), 1000)
    want = np.array(_u_sample_loop(np.random.default_rng(seed), 1000)).T
    assert got.shape == (3, 1000) and got.dtype == complex
    assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))


@pytest.mark.parametrize("make", [omega_diagonal_surface, u_surface], ids=["omega", "u"])
def test_radial_features_follow_the_scalar_path(make):
    surface = make()
    x = surface.sample(np.random.default_rng(3), 1000)
    order = [2, 0, 1] if surface.name == "omega" else [0, 1, 2]
    want = np.array([[abs(p[i]) ** 2 for i in order] for p in x.T.tolist()]).T
    got = np.array(surface.features(x))
    assert got.shape == (3, 1000)
    assert np.all(np.abs(got - want) <= 1e-15 * want)
    # the samples pair each point's features with its diagonal value
    samples = surface.samples(1000, seed=3)
    assert [f for f, _ in samples] == [tuple(f) for f in got.T.tolist()]
    assert [k for _, k in samples] == surface.diag(x).tolist()


def test_boundary_leading_coefficient_takes_the_feature_batch():
    # a_q, evaluated point by point, on the disk 4/1 and Omega 12/1 fits
    for make, feature_degree, seed in ((disk_surface, 4, 3), (omega_diagonal_surface, 12, 106)):
        relation = fit_surface_relation(make(), feature_degree, 1, seed=seed)
        features = make().boundary_features(50, seed=1)
        assert len(features) == relation.nfeatures and all(f.shape == (50,) for f in features)
        leading = relation.coefficient(relation.k_degree)
        per_point = max(abs(leading.eval(f)) for f in zip(*(f.tolist() for f in features)))
        assert boundary_leading_coefficient(relation, features) == pytest.approx(per_point, rel=1e-12, abs=1e-15)


def test_annulus_scalar_equals_its_batched_row_bit_for_bit():
    rng = np.random.default_rng(2)
    z, w = rng.uniform(0.51, 0.99, (2, 30)) * np.exp(2j * math.pi * rng.uniform(size=(2, 30)))
    z = np.append(z, 0.6 + 0.2j)
    w = np.append(w, 0.7 - 0.1j)
    for truncation in (0, 1, 2, 200, 2000):
        batched = annulus_kernel(0.5, (z,), (w,), truncation)
        punctured = punctured_disk_kernel(z, w, truncation)
        for a, b, row, punctured_row in zip(z.tolist(), w.tolist(), batched, punctured):
            value = annulus_kernel(0.5, (a,), (b,), truncation)
            assert type(value) is complex and _bits([(value,)]) == _bits([(row,)])
            value = punctured_disk_kernel(a, b, truncation)
            assert type(value) is complex and _bits([(value,)]) == _bits([(punctured_row,)])


def _with_degenerate_feature(kind):
    # annulus samples have no relation at degree (3, 1) (residual ~0.7);
    # the extra feature makes some columns vanish or repeat
    samples = annulus_surface().samples(200, seed=4)
    extra = {"zero": lambda x: 0.0, "duplicate": lambda x: x}[kind]
    return [((x, y, extra(x)), k) for (x, y), k in samples]


@pytest.mark.parametrize("kind", ["zero", "duplicate"])
def test_fit_finds_the_null_vector_of_a_degenerate_feature(kind):
    assert fit_relation(annulus_surface().samples(200, seed=4), 3, 1).residual > 0.1
    assert fit_relation(_with_degenerate_feature(kind), 3, 1).residual <= 1e-12


def test_fit_rescaling_invariance():
    surface = disk_surface()
    samples = surface.samples(240, seed=11)
    base = fit_relation(samples, 4, 1)
    scaled = fit_relation([(f, 3.7 * k) for f, k in samples], 4, 1)
    assert scaled.residual == pytest.approx(base.residual, abs=1e-12)


def test_fits_above_the_cell_limit_are_refused_before_allocating(monkeypatch):
    monkeypatch.setattr(algebraic, "MAX_FIT_CELLS", 71)
    monkeypatch.setattr(algebraic.np, "empty", None)  # an allocation would raise TypeError
    unsampled = dataclasses.replace(disk_surface(), sample=None)  # so would a draw
    # disk 1/1: 3 monomials times K^0, K^1 is 6 unknowns, and 12 samples by default
    with pytest.raises(ValueError, match="12 samples x 6 unknowns is 72 cells, above the limit of 71"):
        fit_surface_relation(unsampled, 1, 1)
    with pytest.raises(ValueError, match="17 samples x 6 unknowns is 102 cells"):
        fit_relation([((0.1, 0.2), 1.0)] * 17, 1, 1)
    monkeypatch.undo()
    # an Omega 40/3 fit would ask for 36.3 GiB; its size is counted, not listed
    unsampled = dataclasses.replace(omega_diagonal_surface(), sample=None)
    with pytest.raises(ValueError, match="98728 samples x 49364 unknowns"):
        fit_surface_relation(unsampled, 40, 3)


def test_default_sample_count_is_twice_the_unknowns():
    for surface, dz, dk in ((disk_surface(), 4, 1), (omega_diagonal_surface(), 12, 1), (annulus_surface(), 8, 2)):
        betas = sum(1 for _ in monomials_up_to_degree(len(surface.feature_polys), dz))
        assert algebraic._fit_unknowns(len(surface.feature_polys), dz, dk) == betas * (dk + 1)


def test_fit_errors():
    with pytest.raises(ValueError):
        fit_relation([((0.1,), 1.0)], 4, 1)  # underdetermined
    with pytest.raises(ValueError):
        fit_relation([((0.1,), 0.0)] * 100, 1, 1)  # all-zero kernel samples
    with pytest.raises(ValueError):
        fit_relation([((0.1,), 1.0)] * 100, 1, 0)  # k-degree must be >= 1


def test_fit_refuses_samples_that_overflow_the_evaluation_matrix():
    samples = [((x / 10,), k) for x, k in zip(range(1, 9), [1.0, 1.0, 1e308, 1.0, 1.0, 1.0, 1.0, 1.0])]
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="fit is not finite: a column norm overflows"):
        fit_relation(samples, 1, 1)


def test_fit_omega_diagonal_small_degree_sanity():
    # at feature degree 3 and q = 1 there is no relation; residual stays large
    surface = omega_diagonal_surface()
    relation = fit_surface_relation(surface, 3, 1, seed=2)
    assert relation.residual > 1e-6


def test_relation_hermitian_expansion():
    relation = fit_surface_relation(disk_surface(), 4, 1, seed=3)
    a1 = relation.coefficient_hermitian(1)
    rng = np.random.default_rng(0)
    for _ in range(5):
        z = complex(*rng.uniform(-0.7, 0.7, 2))
        direct = relation.coefficient(1).eval((z.real, z.imag))
        herm = to_complex(a1.eval((z,), (z,)))
        assert herm.real == pytest.approx(direct, abs=1e-12)
        assert abs(herm.imag) < 1e-12


def test_corrupted_relation_flagged_on_boundary():
    # a_q == 1 never vanishes on the boundary: the check reports max 1
    corrupted = AlgebraicRelation(
        k_degree=1,
        feature_degree=0,
        relation=HoloPolynomial(3, {(0, 0, 1): 1.0}),
        residual=0.0,
    )
    boundary = disk_surface().boundary_features(50, seed=1)
    assert boundary_leading_coefficient(corrupted, boundary) == pytest.approx(1.0)


@pytest.fixture(scope="module", params=[(disk_surface, 4, 1, 3), (omega_diagonal_surface, 12, 1, 106)], ids=["disk", "omega"])
def fitted(request):
    make, feature_degree, k_degree, seed = request.param
    surface = make()
    count = 2 * algebraic._fit_unknowns(len(surface.feature_polys), feature_degree, k_degree)
    samples = surface.samples(count, seed=seed)
    return samples, fit_relation(samples, feature_degree, k_degree, surface.feature_polys)


def test_relation_at_its_own_samples_reproduces_the_residual(fitted):
    # both sides are rounding noise of an exact relation, summed in other
    # orders; they agree within the rounding bound of summing the terms
    samples, relation = fitted
    columns = list(np.array([(*f, k) for f, k in samples]).T)
    values = np.abs(relation.relation.eval(columns))
    sizes = HoloPolynomial(relation.relation.dim, {a: abs(c) for a, c in relation.relation.terms.items()})
    steps = len(relation.relation.terms) + relation.relation.degree()
    bound = steps * EPS * sizes.eval([np.abs(c) for c in columns]).max()
    assert abs(values.max() - relation.residual) <= bound
    assert bound < 1e-10


def test_fitted_relation_terms(fitted):
    _, relation = fitted
    terms = relation.relation.terms
    assert terms and all(c != 0.0 for c in terms.values())
    assert max(a[-1] for a in terms) == relation.k_degree
    assert max(a.degree - a[-1] for a in terms) <= relation.feature_degree
    # the coefficients a_j split the relation's terms between them
    split = sum(len(relation.coefficient(j).terms) for j in range(relation.k_degree + 1))
    assert split == len(terms)
    assert math.isclose(math.fsum(c * c for c in terms.values()), 1.0, rel_tol=1e-12)


@pytest.mark.slow
def test_annulus_control_separates_from_exact_relations():
    # low-degree rational fits capture the annulus kernel's double poles
    # down to about 1e-8 on this sampler, but never to the rounding floor
    # an exact relation reaches; the disk fit sits orders of magnitude lower
    best = best_relation_residual(annulus_surface(), 8, 2, seed=0)
    disk = fit_surface_relation(disk_surface(), 4, 1, seed=0).residual
    assert best > 1e-10
    assert disk < best * 1e-3


# -- map recovery --------------------------------------------------------------------

def _disk_kernel(z, w):
    return to_complex(ball_kernel(1, z, w))


def _ball2_kernel(z, w):
    return to_complex(ball_kernel(2, z, w))


def test_recover_disk_exact_derivative():
    g = recover_map_from_kernel(
        _disk_kernel, 1, dbar_kernel=lambda z, j: ball_kernel_dbar_at_zero(1, z, j)
    )
    a = linear_map_coefficients(g, 1)
    assert abs(a[0, 0] - 1) <= 1e-10
    assert g((0j,)) == (0j,)


def test_recover_disk_finite_difference():
    g = recover_map_from_kernel(_disk_kernel, 1)
    a = linear_map_coefficients(g, 1)
    assert abs(a[0, 0] - 1) <= 1e-6


def test_recover_ball2_both_paths():
    exact = recover_map_from_kernel(
        _ball2_kernel, 2, dbar_kernel=lambda z, j: ball_kernel_dbar_at_zero(2, z, j)
    )
    a = linear_map_coefficients(exact, 2)
    assert np.max(np.abs(a - np.eye(2))) <= 1e-10
    fd = recover_map_from_kernel(_ball2_kernel, 2)
    b = linear_map_coefficients(fd, 2)
    assert np.max(np.abs(b - np.eye(2))) <= 1e-6


def test_recover_scale_invariance():
    g = recover_map_from_kernel(lambda z, w: 11.0 * _disk_kernel(z, w), 1)
    a = linear_map_coefficients(g, 1)
    assert abs(a[0, 0] - 1) <= 1e-6


def test_recover_step_halving_consistency():
    g1 = recover_map_from_kernel(_disk_kernel, 1, step=1e-5)
    g2 = recover_map_from_kernel(_disk_kernel, 1, step=5e-6)
    for z in (0.2 + 0.1j, -0.4j, 0.5):
        assert abs(g1((z,))[0] - g2((z,))[0]) < 1e-9
