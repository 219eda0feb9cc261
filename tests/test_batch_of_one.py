"""Every float kernel evaluates a single point as a batch of one, so a pair
of points equals its row of the batched call bit for bit, and the Hartogs
kernels are exactly Hermitian."""

import numpy as np
import pytest

from berg.algebraic import annulus_kernel, omega_diagonal_surface, u_surface
from berg.ball import ball_kernel
from berg.hartogs import omega_closed_kernel, omega_rational_kernel, u_domain_contains, u_kernel
from berg.quotient import (
    BRANCH_TOL,
    BranchPointError,
    deck_sum_kernel,
    dual_deck_sum_kernel,
    minus_identity_cover,
    pushforward_kernel,
    scalar_rotation_cover,
)
from test_quotient import _binary_dihedral_12

COUNT = 1000


def _box(rng, n, radius):
    """COUNT points of C^n with parts uniform in [-radius, radius], as (n, COUNT) coordinates."""
    return rng.uniform(-radius, radius, (n, COUNT)) + 1j * rng.uniform(-radius, radius, (n, COUNT))


def _omega_pairs(rng):
    x = omega_diagonal_surface().sample(rng, COUNT)
    return x, np.roll(x, 1, axis=1)


def _ball(n):
    return lambda rng: (lambda z, w: ball_kernel(n, z, w), (_box(rng, n, 0.6 / n), _box(rng, n, 0.6 / n)))


def _annulus(rng):
    z, w = rng.uniform(0.51, 0.99, (2, 1, COUNT)) * np.exp(2j * np.pi * rng.uniform(size=(2, 1, COUNT)))
    return (lambda z, w: annulus_kernel(0.5, z, w), (z, w))


def _deck(kernel):
    group = _binary_dihedral_12()
    return lambda rng: (lambda z, w: kernel(group, 2, z, w), (_box(rng, 2, 0.3), _box(rng, 2, 0.3)))


def _pushforward(rng):
    cover = scalar_rotation_cover()
    z, w = _box(rng, 2, 0.3), _box(rng, 2, 0.3)
    off_branch = (np.abs(cover.jacobian(z)) > BRANCH_TOL) & (np.abs(cover.jacobian(w)) > BRANCH_TOL)
    assert off_branch.sum() >= 998
    return (lambda z, w: pushforward_kernel(cover, z, w), (z[:, off_branch], w[:, off_branch]))


def _omega(rng):
    return (lambda x, y: omega_closed_kernel(x[:2], x[2], y[:2], y[2]), _omega_pairs(rng))


def _u(rng):
    x = u_surface().sample(rng, COUNT)
    return (u_kernel, (x, np.roll(x, 1, axis=1)))


def _u_membership(rng):
    # scaled surface points: some inside, some outside
    return (u_domain_contains, (u_surface().sample(rng, COUNT) * rng.uniform(0.6, 1.4, COUNT),))


def _rational(rng):
    return (omega_rational_kernel().eval, _omega_pairs(rng))


KERNELS = {
    "ball-1": _ball(1),
    "ball-2": _ball(2),
    "annulus": _annulus,
    "deck-BD12": _deck(deck_sum_kernel),
    "dual-deck-BD12": _deck(dual_deck_sum_kernel),
    "pushforward-scalar-i": _pushforward,
    "omega": _omega,
    "u": _u,
    "u-membership": _u_membership,
    "omega-rational": _rational,
}


def _bits(value):
    return (value.real.hex(), value.imag.hex())


@pytest.mark.parametrize("name", list(KERNELS))
def test_a_single_point_equals_its_batched_row_bit_for_bit(name):
    kernel, points = KERNELS[name](np.random.default_rng(26))
    batch = kernel(*points)
    assert batch.shape == points[0].shape[1:] and batch.size >= 998
    kind = bool if batch.dtype == bool else complex
    for i in range(batch.size):
        one = kernel(*(tuple(p[:, i].tolist()) for p in points))
        assert type(one) is kind
        if kind is bool:
            assert one == batch[i], i
        else:
            assert _bits(one) == _bits(batch[i]), i


@pytest.mark.parametrize(
    "surface, kernel",
    [
        (omega_diagonal_surface, lambda x, y: omega_closed_kernel(x[:2], x[2], y[:2], y[2])),
        (u_surface, u_kernel),
    ],
    ids=["omega", "u"],
)
def test_hartogs_kernels_are_exactly_hermitian(surface, kernel):
    # 1,820 points is the size of the Omega 12/1 fit
    x = surface().sample(np.random.default_rng(0), 1820)
    y = np.roll(x, 1, axis=1)
    assert np.all(kernel(x, x).imag == 0)
    forward, backward = kernel(x, y), kernel(y, x)
    assert np.array_equal(forward.real, backward.real) and np.array_equal(forward.imag, -backward.imag)


def test_branch_point_error_names_only_the_first_point():
    cover = minus_identity_cover()
    z, w = _box(np.random.default_rng(27), 2, 0.3), _box(np.random.default_rng(28), 2, 0.3)
    z[0, [300, 700]] = 0.0  # two points on the branch locus z1 = 0
    with pytest.raises(BranchPointError) as err:
        pushforward_kernel(cover, z, w)
    assert err.value.point == (0j, complex(z[1, 300]))
    assert all(type(x) is complex for x in err.value.point)
    assert len(str(err.value)) < 200
    # z's points come first, then w's
    z[0, [300, 700]], w[0, 5] = 0.1, 0.0
    with pytest.raises(BranchPointError) as err:
        pushforward_kernel(cover, z, w)
    assert err.value.point == (0j, complex(w[1, 5]))
