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

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .ball import _exact_constant, _exact_power, ball_kernel, check_points, float_point
from .cyclotomic import CyclotomicField
from .groups import FiniteUnitaryGroup, UnitaryMatrix, determinant, generate_group
from .invariants import compute_basic_map, is_invariant
from .polynomials import HoloPolynomial
from .scalars import ExactComplex, conj_scalar, gaussian_points, to_complex

BRANCH_TOL = 1e-12


class BranchPointError(ArithmeticError):
    """Evaluation at (or too close to) a branch point of the covering map."""

    def __init__(self, point):
        self.point = tuple(point)
        super().__init__(f"Jacobian vanishes at {self.point} (|J| <= {BRANCH_TOL})")


def _deck_sum(group: FiniteUnitaryGroup, n: int, z: Sequence, w: Sequence, dual: bool):
    """The deck sum moving z by each group element, or w when ``dual``.

    Exact over the group's cached Gaussian-rational elements when the
    points are Gaussian rationals (``Cyclotomic`` coordinates by value)
    and the group embeds in Q(i); otherwise one batched
    kernel evaluation over the group's cached float stack.
    """
    if group.dim != n:
        raise ValueError("group dimension does not match n")
    check_points(n, z, w)
    exact = gaussian_points(z, w)
    gaussian = group.gaussian_stack if exact is not None else None
    if gaussian is None:
        mats, dets = group.float_stack
        z, w = float_point(z), float_point(w)
        if dual:
            terms = ball_kernel(n, z, mats @ w) * dets.conj()
        else:
            terms = ball_kernel(n, mats @ z, w) * dets
        return complex(terms.sum())
    # products[l][j] = z_l conj(w_j), formed once: <g z, w> is the sum of
    # g_jl products[l][j] and <z, g w> the sum of conj(g_jl) products[j][l],
    # over the non-zero entries g_jl only
    z, w = exact
    w_bar = [ExactComplex.coerce(x).conjugate() for x in w]
    products = [[ExactComplex.coerce(x) * y for y in w_bar] for x in z]
    total = ExactComplex(0)
    for entries, det in gaussian:
        u = None
        for j, l, x in entries:
            term = x.conjugate() * products[j][l] if dual else x * products[l][j]
            u = term if u is None else u + term
        total += _exact_power(n, u) * (det.conjugate() if dual else det)
    return _exact_constant(n) * total


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


def check_deck_sum_symmetry(
    group: FiniteUnitaryGroup, n: int, pairs: Sequence[tuple]
) -> float:
    """Max over sample pairs of |row-sum minus column-sum| for the two
    equivalent deck-sum presentations."""
    worst = 0.0
    for z, w in pairs:
        a = to_complex(deck_sum_kernel(group, n, z, w))
        b = to_complex(dual_deck_sum_kernel(group, n, z, w))
        worst = max(worst, abs(a - b))
    return worst


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
        from .cyclotomic import Cyclotomic

        exact_coeffs = all(
            isinstance(c, (int, Fraction, Cyclotomic))
            for p in self.cover_map
            for c in p.terms.values()
        )
        if self.group.exact and exact_coeffs:
            if not all(is_invariant(p, self.group) for p in self.cover_map):
                raise ValueError("cover map is not invariant under the group")
            return
        import numpy as np

        rng = np.random.default_rng(0)
        n = self.group.dim
        pts = rng.uniform(-0.5, 0.5, (8, 2 * n))
        samples = [tuple(complex(r[i], r[n + i]) for i in range(n)) for r in pts]
        floats = [p.to_complex_coeffs() for p in self.cover_map]
        for gm in self.group.float_stack[0]:
            for z in samples:
                gz = tuple(gm @ np.array(z))
                for p in floats:
                    if abs(p.eval(gz) - p.eval(z)) > 1e-10:
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

    def jacobian(self, z: Sequence):
        return _eval_holo(self.jacobian_polynomial, z)


def _eval_holo(p: HoloPolynomial, z: Sequence):
    """Evaluate with whatever arithmetic the inputs support; fall back to
    complex coefficients when the coefficient field cannot act on them."""
    try:
        return p.eval(z)
    except TypeError:
        return p.to_complex_coeffs().eval([to_complex(x) for x in z])


def pushforward_kernel(spec: CoveringSpec, z: Sequence, w: Sequence):
    """Quotient kernel in pulled-back chart coordinates:
    deck_sum(z, w) / (J(z) conj(J(w))).  Well-defined on the base: the
    value is unchanged when z or w is replaced by a group translate."""
    n = spec.group.dim
    exact = gaussian_points(z, w)
    if exact is not None:
        z, w = exact
    jz = spec.jacobian(z)
    jw = spec.jacobian(w)
    if abs(to_complex(jz)) <= BRANCH_TOL:
        raise BranchPointError(tuple(to_complex(x) for x in z))
    if abs(to_complex(jw)) <= BRANCH_TOL:
        raise BranchPointError(tuple(to_complex(x) for x in w))
    # float points are converted once, here, and reach the deck sum as arrays
    points = (z, w) if exact is not None else (float_point(z), float_point(w))
    deck = deck_sum_kernel(spec.group, n, *points)
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
