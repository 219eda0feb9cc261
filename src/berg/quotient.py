"""Deck-transformation kernel sums and push-forward to quotient kernels.

For a finite unitary group acting on the ball, the kernel downstairs is
computed from the kernel upstairs by summing over deck transformations
with holomorphic Jacobian factors (for a unitary map the Jacobian is its
determinant):

    deck_sum(z, w) = sum_g K_ball(g z, w) det(g)

and, off the branch locus of an invariant covering map F,

    K_base(F(z), F(w)) = deck_sum(z, w) / (J_F(z) conj(J_F(w))).

The base kernel is always reported in pulled-back chart coordinates;
charts are a choice of dim-many components of F with generically
nonvanishing Jacobian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .ball import ball_kernel, complex_coordinates, kernel_term
from .cyclotomic import Cyclotomic, CyclotomicField
from .groups import FiniteUnitaryGroup, UnitaryMatrix, determinant, generate_group
from .invariants import compute_basic_map, is_invariant
from .polynomials import HoloPolynomial
from .scalars import ExactComplex, conj_scalar, read_points, to_complex

BRANCH_TOL = 1e-12


class BranchPointError(ArithmeticError):
    """Evaluation at (or too close to) a branch point of the covering map."""

    def __init__(self, point):
        # scalar coordinates as Python complex, array ones as given
        self.point = tuple(x if np.ndim(x) else to_complex(x) for x in point)
        super().__init__(f"Jacobian vanishes at {self.point} (|J| <= {BRANCH_TOL})")


def _deck_sum(group: FiniteUnitaryGroup, n: int, z: Sequence, w: Sequence, dual: bool):
    """The deck sum moving z by each group element, or w when ``dual``.

    Exact over the group's cached Gaussian-rational elements when the
    points are Gaussian rationals (``Cyclotomic`` coordinates by value)
    and the group embeds in Q(i); otherwise one batched kernel evaluation
    over the group's cached float stack, with the group on the last axis.
    """
    if group.dim != n:
        raise ValueError("group dimension does not match n")
    exact = read_points(n, z, w)
    gaussian = group.gaussian_stack if exact is not None else None
    if gaussian is None:
        dets = group.float_stack[1]
        z, w = complex_coordinates(z), complex_coordinates(w)
        if dual:
            terms = ball_kernel(n, z[..., None], translates(group, w)) * dets.conj()
        else:
            terms = ball_kernel(n, translates(group, z), w[..., None]) * dets
        total = terms.sum(axis=-1)
        return complex(total) if total.ndim == 0 else total
    # products[l][j] = z_l conj(w_j), formed once: <g z, w> is the sum of
    # g_jl products[l][j] and <z, g w> the sum of conj(g_jl) products[j][l],
    # over the non-zero entries g_jl only
    z, w = exact
    w_bar = [x.conjugate() for x in w]
    products = [[x * y for y in w_bar] for x in z]
    total = ExactComplex(0)
    for entries, det in gaussian:
        u = None
        for j, l, x in entries:
            term = x.conjugate() * products[j][l] if dual else x * products[l][j]
            u = term if u is None else u + term
        total += kernel_term(n, u, det.conjugate() if dual else det)
    return ExactComplex(math.factorial(n), 0, -n) * total  # n!/pi^n


def translates(group: FiniteUnitaryGroup, p: np.ndarray) -> np.ndarray:
    """g p for every element g, by the group's float stack: the (n, ...)
    complex coordinates p become (n, ..., |G|) ones.  Each is one
    matrix-vector product, as for a single point, so a batch row equals its
    single point bit for bit."""
    mats = group.float_stack[0]
    if p.ndim == 1:
        return (mats @ p).T
    # the stack acts on axis 0 of (n, ..., 1, 1) arrays, and each moved coordinate lands on axis 0
    return np.matmul(mats, p[..., None, None], axes=[(-2, -1), (0, -1), (0, -1)])[..., 0]


def deck_sum_kernel(group: FiniteUnitaryGroup, n: int, z: Sequence, w: Sequence):
    """sum over the group of K_ball(g z, w) det(g).

    Exact (Gaussian rational times pi^-n) when the group embeds in the
    Gaussian rationals and the points are exact; floating otherwise.
    """
    return _deck_sum(group, n, z, w, dual=False)


def dual_deck_sum_kernel(group: FiniteUnitaryGroup, n: int, z: Sequence, w: Sequence):
    """sum over the group of K_ball(z, g w) conj(det(g)); equal to
    deck_sum_kernel by the two pullback presentations of the same form."""
    return _deck_sum(group, n, z, w, dual=True)


def check_deck_sum_symmetry(group: FiniteUnitaryGroup, n: int, z: Sequence, w: Sequence) -> float:
    """Max of |row-sum minus column-sum| for the two equivalent deck-sum
    presentations, over the pairs (z, w) of two coordinate batches, or at
    one pair of points."""
    difference = np.asarray(deck_sum_kernel(group, n, z, w) - dual_deck_sum_kernel(group, n, z, w), dtype=complex)
    # hypot, as Python's abs of one complex: numpy's complex abs can round the last bit otherwise
    return float(np.max(np.hypot(difference.real, difference.imag), initial=0.0))


# ---------------------------------------------------------------------------
# covering specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoveringSpec:
    """A finite covering of a quotient by the ball (or disk).

    ``cover_map`` lists the components of an invariant polynomial map;
    ``chart`` picks dim-many components to act as local coordinates on
    the base (default: the first dim components).
    """

    group: FiniteUnitaryGroup
    cover_map: tuple[HoloPolynomial, ...]
    chart: tuple[int, ...] = field(default=())

    def __post_init__(self):
        n = self.group.dim
        for p in self.cover_map:
            if p.dim != n:
                raise ValueError("cover map components must live in the group dimension")
        chart = self.chart or tuple(range(n))
        if len(chart) != n:
            raise ValueError(f"chart must select exactly {n} components")
        if not all(isinstance(i, int) and 0 <= i < len(self.cover_map) for i in chart):
            raise ValueError("chart entries must index components of the cover map")
        object.__setattr__(self, "chart", chart)
        self._check_invariance()

    @property
    def sheets(self) -> int:
        return self.group.order

    def _check_invariance(self):
        exact_coeffs = all(
            isinstance(c, (int, Fraction, Cyclotomic))
            for p in self.cover_map
            for c in p.terms.values()
        )
        if self.group.exact and exact_coeffs:
            if not all(is_invariant(p, self.group) for p in self.cover_map):
                raise ValueError("cover map is not invariant under the group")
            return
        n = self.group.dim
        parts = np.random.default_rng(0).uniform(-0.5, 0.5, (8, 2 * n)).T
        z = parts[:n] + 1j * parts[n:]  # eight points, as coordinates
        moved = translates(self.group, z)  # each moved by every element
        for p in self.cover_map:
            p = p.to_complex_coeffs()
            if np.any(np.abs(p.eval(moved) - p.eval(z)[:, None]) > 1e-10):
                raise ValueError("cover map is not invariant under the group")

    def chart_components(self) -> list[HoloPolynomial]:
        return [self.cover_map[i] for i in self.chart]

    @cached_property
    def jacobian_polynomial(self) -> HoloPolynomial:
        """det of the chart's partial derivatives, built once per spec."""
        comps = self.chart_components()
        n = self.group.dim
        partials = [[comps[i].partial(j) for j in range(n)] for i in range(n)]
        return determinant(partials)

    @cached_property
    def gaussian_jacobian(self) -> HoloPolynomial | None:
        """The Jacobian over Q(i), built once per spec for exact points: its
        coefficients read as one exact point (``Cyclotomic`` ones by value);
        None when a coefficient is not a Gaussian rational."""
        terms = self.jacobian_polynomial.terms
        coefficients = read_points(len(terms), tuple(terms.values()))
        if coefficients is None:
            return None
        return HoloPolynomial(self.group.dim, dict(zip(terms, coefficients[0])))

    @cached_property
    def complex_jacobian(self) -> HoloPolynomial:
        """The Jacobian with Python complex coefficients, built once per spec."""
        return self.jacobian_polynomial.to_complex_coeffs()

    def jacobian(self, z: Sequence):
        """J(z); an exact value at Gaussian-rational points (``Cyclotomic``
        coordinates by value) when the coefficients lie in Q(i), else a
        complex one, or an array of them for coordinates given as arrays."""
        exact = read_points(self.group.dim, z)
        if exact is not None and self.gaussian_jacobian is not None:
            return self.gaussian_jacobian.eval(exact[0])
        if exact is not None:  # exact points outside the Jacobian's field
            z = [x.to_complex() for x in exact[0]]
        return self.complex_jacobian.eval(z)


def pushforward_kernel(spec: CoveringSpec, z: Sequence, w: Sequence):
    """Quotient kernel in pulled-back chart coordinates:
    deck_sum(z, w) / (J(z) conj(J(w))).  Well-defined on the base: the
    value is unchanged when z or w is replaced by a group translate.
    Coordinates given as arrays broadcast, as for ``deck_sum_kernel``."""
    n = spec.group.dim
    exact = read_points(n, z, w)
    if exact is not None:
        z, w = exact
    jz = spec.jacobian(z)
    jw = spec.jacobian(w)
    for point, jac in ((z, jz), (w, jw)):
        if np.any(np.abs(np.asarray(jac, dtype=complex)) <= BRANCH_TOL):
            raise BranchPointError(point)
    deck = deck_sum_kernel(spec.group, n, z, w)
    return deck / (jz * conj_scalar(jw))


# ---------------------------------------------------------------------------
# stock covers
# ---------------------------------------------------------------------------

def disk_power_cover(k: int) -> CoveringSpec:
    """The branched self-cover of the disk z -> z^k with cyclic deck group."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        group = FiniteUnitaryGroup(
            elements=(UnitaryMatrix.identity(1),), dim=1
        )
    else:
        zeta = CyclotomicField(k).root(1)
        group = generate_group([UnitaryMatrix([[zeta]])], max_order=k)
    zk = HoloPolynomial.monomial(1, (k,))
    return CoveringSpec(group=group, cover_map=(zk,), chart=(0,))


def minus_identity_cover() -> CoveringSpec:
    """The ball quotient by {I, -I} via its degree-2 basic map, charted on
    the first two components (z1^2, z1 z2)."""
    minus_one = CyclotomicField(2).root(1)
    group = generate_group([UnitaryMatrix.scalar(2, minus_one)], max_order=2)
    basic = compute_basic_map(group, verify=False)
    return CoveringSpec(group=group, cover_map=basic.generators, chart=(0, 1))


def scalar_rotation_cover() -> CoveringSpec:
    """The ball quotient by the scalar group generated by i*I in dimension 2."""
    i_unit = CyclotomicField(4).root(1)
    group = generate_group([UnitaryMatrix.scalar(2, i_unit)], max_order=4)
    basic = compute_basic_map(group, verify=False)
    return CoveringSpec(group=group, cover_map=basic.generators, chart=(0, 1))
