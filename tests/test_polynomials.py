import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from berg.ball import u_domain_defining_function
from berg.cyclotomic import CyclotomicField, root_of_unity
from berg.hartogs import standard_omega_weight
from berg.polynomials import (
    HermitianPolynomial,
    HoloPolynomial,
    MultiIndex,
    minimal_poly_check,
    monomials_of_degree,
)
from berg.scalars import ExactComplex, to_complex


def test_multi_index_validation():
    assert MultiIndex((1, 2)).degree == 3
    assert MultiIndex((1, 0)) + MultiIndex((0, 3)) == MultiIndex((1, 3))
    with pytest.raises(ValueError):
        MultiIndex((1, -1))


def test_graded_lex_order():
    degree2 = list(monomials_of_degree(2, 2))
    assert degree2 == [MultiIndex((2, 0)), MultiIndex((1, 1)), MultiIndex((0, 2))]


def test_eval_modulus_squared():
    p = HermitianPolynomial.term(1, (1,), (1,))
    assert p.eval((2 + 0j,), (2 + 0j,)) == 4 + 0j


def test_eval_polarized_cross_term():
    p = HermitianPolynomial(2, {((1, 0), (0, 1)): 1})
    assert p.eval((1 + 0j, 0j), (0j, 1 + 0j)) == 1 + 0j


def test_boundary_point_of_projected_domain():
    rho = u_domain_defining_function().rho
    val = rho.eval((1.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    assert val == 0


def test_poly_mul_simple():
    z = HermitianPolynomial.term(1, (1,), (0,))
    zbar = HermitianPolynomial.term(1, (0,), (1,))
    assert z * zbar == HermitianPolynomial.term(1, (1,), (1,))


def test_poly_mul_builds_standard_weight():
    one = HermitianPolynomial.constant(2, Fraction(1))
    f1 = one + HermitianPolynomial.modulus_squared(2, 0)
    f2 = one + HermitianPolynomial.modulus_squared(2, 1)
    h = f1 * f2
    assert h == standard_omega_weight()
    assert h.terms[(MultiIndex((1, 1)), MultiIndex((1, 1)))] == 1
    assert len(h.terms) == 4


def test_poly_mul_by_zero():
    z = HermitianPolynomial.term(2, (1, 0), (0, 0))
    assert (z * HermitianPolynomial(2)).is_zero()


def test_equal_polynomials_hash_equal():
    one = CyclotomicField(4).one()
    p = HoloPolynomial(2, {(1, 0): Fraction(1), (0, 2): root_of_unity(4, 2)})
    q = HoloPolynomial(2, {(1, 0): one, (0, 2): -1})
    assert p == q and hash(p) == hash(q)
    h = HermitianPolynomial(1, {((1,), (1,)): Fraction(1)})
    k = HermitianPolynomial(1, {((1,), (1,)): one})
    assert h == k and hash(h) == hash(k)


def test_mul_degree_adds():
    p = HermitianPolynomial.term(2, (1, 0), (0, 1))
    q = HermitianPolynomial.term(2, (0, 2), (1, 0))
    assert (p * q).bidegree() == (3, 2)


exact_points = st.tuples(
    st.fractions(min_value=-2, max_value=2, max_denominator=8),
    st.fractions(min_value=-2, max_value=2, max_denominator=8),
)


@given(exact_points, exact_points)
@settings(max_examples=40)
def test_real_valued_diagonal_exactly_real(p1, p2):
    z = (ExactComplex(*p1), ExactComplex(*p2))
    rho = standard_omega_weight()
    value = rho.eval(z, z)
    assert ExactComplex.coerce(value).im == 0


@given(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
    st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False),
)
@settings(max_examples=40)
def test_conj_swap_symmetry(a, b, coeff):
    p = HermitianPolynomial(1, {((a,), (b,)): coeff})
    rng = np.random.default_rng(1)
    for _ in range(5):
        z = tuple(complex(*rng.uniform(-1, 1, 2)) for _ in range(1))
        w = tuple(complex(*rng.uniform(-1, 1, 2)) for _ in range(1))
        left = to_complex(p.eval(z, w))
        right = complex(to_complex(p.conj_swap().eval(w, z))).conjugate()
        assert abs(left - right) < 1e-12


def test_real_valued_flag():
    good = HermitianPolynomial(1, {((1,), (0,)): 1 + 2j, ((0,), (1,)): 1 - 2j})
    assert good.is_real_valued()
    bad = HermitianPolynomial(1, {((1,), (0,)): 1 + 2j})
    assert not bad.is_real_valued()


def test_derivatives():
    p = HermitianPolynomial.term(2, (2, 0), (1, 0), Fraction(3))
    dz = p.d_z(0)
    assert dz == HermitianPolynomial.term(2, (1, 0), (1, 0), Fraction(6))
    dzbar = p.d_zbar(0)
    assert dzbar == HermitianPolynomial.term(2, (2, 0), (0, 0), Fraction(3))
    assert p.d_zbar(1).is_zero()


def test_json_round_trip():
    p = HermitianPolynomial(2, {((1, 0), (0, 1)): 0.5 - 0.25j, ((0, 0), (0, 0)): 2.0})
    q = HermitianPolynomial.from_json_dict(p.to_json_dict())
    assert q == p


def test_dimension_mismatch_errors():
    p = HermitianPolynomial.term(2, (1, 0), (0, 0))
    with pytest.raises(ValueError):
        p.eval((1 + 0j,), (1 + 0j,))
    q = HermitianPolynomial.term(1, (1,), (0,))
    with pytest.raises(ValueError):
        p * q


# -- minimal_poly_check ------------------------------------------------------

def test_minimal_poly_parabola():
    # y = x^2 against P = y - x^2 in variables (x, y)
    p = HoloPolynomial(2, {(0, 1): Fraction(1), (2, 0): Fraction(-1)})
    samples = [((x / 10,), (x / 10) ** 2) for x in range(11)]
    assert minimal_poly_check(samples, p) == 0


def test_minimal_poly_sqrt_relation():
    # y = sqrt(1+x^2) against P = y^2 - 1 - x^2
    p = HoloPolynomial(
        2, {(0, 2): Fraction(1), (0, 0): Fraction(-1), (2, 0): Fraction(-1)}
    )
    samples = [((x / 7,), math.sqrt(1 + (x / 7) ** 2)) for x in range(8)]
    assert minimal_poly_check(samples, p) < 1e-15


def _best_bidegree_candidate(xs, ys, dx, dy):
    cols, keys = [], []
    for i in range(dx + 1):
        for j in range(dy + 1):
            cols.append(xs**i * ys**j)
            keys.append((i, j))
    m = np.column_stack(cols)
    scale = np.linalg.norm(m, axis=0)
    _, _, vt = np.linalg.svd(m / scale, full_matrices=False)
    v = vt[-1] / scale
    v = v / np.linalg.norm(v)
    return HoloPolynomial(2, {(i, j): float(c) for (i, j), c in zip(keys, v)})


def test_minimal_poly_exp_least_squares_oracle():
    # The exhaustive least-squares oracle at bidegree (3, 3) on [0, 1]:
    # exp admits no exact relation, but the best numerical candidate fits
    # far below any fixed threshold (the approximant error at this
    # bidegree is at rounding level), so the check can only certify
    # exactness for genuinely polynomial data, never non-algebraicity.
    xs = np.linspace(0.0, 1.0, 50)
    ys = np.exp(xs)
    candidate = _best_bidegree_candidate(xs, ys, 3, 3)
    samples = [((float(x),), float(y)) for x, y in zip(xs, ys)]
    residual = minimal_poly_check(samples, candidate)
    assert 0 < residual < 1e-10


def test_minimal_poly_errors():
    p = HoloPolynomial(2, {(0, 1): 1})
    with pytest.raises(ValueError):
        minimal_poly_check([], p)
    with pytest.raises(ValueError):
        minimal_poly_check([((0.0,), 0.0)], HoloPolynomial(2))
