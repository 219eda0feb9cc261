import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from berg.ball import u_domain_defining_function
from berg.cyclotomic import CyclotomicField, root_of_unity
from berg.polynomials import (
    HermitianPolynomial,
    HoloPolynomial,
    MultiIndex,
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


def _monomials_of_degree_recursive(nvars, degree):
    # the recursive generator itertools replaced, kept as its oracle
    if nvars == 0:
        if degree == 0:
            yield MultiIndex(())
        return
    if nvars == 1:
        yield MultiIndex((degree,))
        return
    for first in range(degree, -1, -1):
        for rest in _monomials_of_degree_recursive(nvars - 1, degree - first):
            yield MultiIndex((first,) + tuple(rest))


def test_monomial_order_matches_the_recursive_generator():
    for nvars in range(7):
        for degree in range(13):
            got = list(monomials_of_degree(nvars, degree))
            assert got == list(_monomials_of_degree_recursive(nvars, degree))
            assert all(type(alpha) is MultiIndex for alpha in got)


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


def standard_omega_weight() -> HermitianPolynomial:
    """h(z) = (1 + |z1|^2)(1 + |z2|^2), Omega's defining weight, by its four terms."""
    return HermitianPolynomial(2, {(u, u): Fraction(1) for u in ((0, 0), (1, 0), (0, 1), (1, 1))})


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


def test_negative_powers_are_refused():
    # 1 / (z + 1) is no polynomial
    p = HoloPolynomial.coordinate(2, 0) + 1
    assert p**0 == HoloPolynomial.constant(2, 1) and p**2 == p * p
    h = HermitianPolynomial.modulus_squared(2, 0) + 1
    for q in (p, h):
        with pytest.raises(ValueError, match="no negative power"):
            q**-1


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
    assert (ExactComplex(0) + value).im == 0


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


# -- relation polynomials at samples ------------------------------------------

def _worst_at_samples(samples, candidate) -> float:
    """Max |P(x_1, ..., x_k, y)| over samples (x, y)."""
    return max(abs(to_complex(candidate.eval([*x, y]))) for x, y in samples)


def test_minimal_poly_parabola():
    # y = x^2 against P = y - x^2 in variables (x, y)
    p = HoloPolynomial(2, {(0, 1): Fraction(1), (2, 0): Fraction(-1)})
    samples = [((x / 10,), (x / 10) ** 2) for x in range(11)]
    assert _worst_at_samples(samples, p) == 0


def test_minimal_poly_sqrt_relation():
    # y = sqrt(1+x^2) against P = y^2 - 1 - x^2
    p = HoloPolynomial(
        2, {(0, 2): Fraction(1), (0, 0): Fraction(-1), (2, 0): Fraction(-1)}
    )
    samples = [((x / 7,), math.sqrt(1 + (x / 7) ** 2)) for x in range(8)]
    assert _worst_at_samples(samples, p) < 1e-15


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
    residual = _worst_at_samples(samples, candidate)
    assert 0 < residual < 1e-10


# -- constants of every scalar kind ------------------------------------------

@pytest.mark.parametrize("c", [root_of_unity(4), 0.5], ids=["zeta4", "float"])
def test_constants_add_and_subtract_in_both_orders(c):
    for p, const in [
        (HoloPolynomial.coordinate(2, 0), HoloPolynomial.constant(2, c)),
        (HermitianPolynomial.modulus_squared(2, 0), HermitianPolynomial.constant(2, c)),
    ]:
        assert p + c == c + p == p + const
        assert p - c == p - const and c - p == const - p
        assert (p + c) - p == const and (c - p) + p == const


# -- the pair-keyed Hermitian arithmetic, kept as an oracle --------------------

class PairHermitian:
    """Terms keyed by (holomorphic, antiholomorphic) index pairs, with the
    arithmetic HermitianPolynomial had before it became a view of one
    HoloPolynomial in (z, conj(w))."""

    def __init__(self, dim, terms=()):
        self.dim = dim
        self.terms = {}
        for (a, b), c in dict(terms).items():
            if c:
                self.terms[(MultiIndex(a), MultiIndex(b))] = c

    def _combine(self, other, sign):
        out = dict(self.terms)
        for key, c in other.terms.items():
            cur = out.get(key)
            new = (c if sign > 0 else -c) if cur is None else (cur + c if sign > 0 else cur - c)
            if not new:
                out.pop(key, None)
            else:
                out[key] = new
        return PairHermitian(self.dim, out)

    def __add__(self, other):
        return self._combine(other, +1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __mul__(self, other):
        out = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                key = (a1 + a2, b1 + b2)
                cur = out.get(key)
                new = c1 * c2 if cur is None else cur + c1 * c2
                if not new:
                    out.pop(key, None)
                else:
                    out[key] = new
        return PairHermitian(self.dim, out)

    def _derive(self, i, holo):
        out = {}
        for (a, b), c in self.terms.items():
            e = (a if holo else b)[i]
            if e:
                lower = MultiIndex(x - (j == i) for j, x in enumerate(a if holo else b))
                out[(lower, b) if holo else (a, lower)] = c * e
        return PairHermitian(self.dim, out)

    def conj_swap(self):
        return PairHermitian(self.dim, {(b, a): c.conjugate() for (a, b), c in self.terms.items()})

    def is_real_valued(self):
        return not (self - self.conj_swap()).terms

    def eval(self, z, w):
        def monomial(point, alpha):  # x^e for each variable, then their product
            out = None
            for x, e in zip(point, alpha):
                if e:
                    power = x
                    for _ in range(e - 1):
                        power = power * x
                    out = power if out is None else out * power
            return out

        wbar = [x.conjugate() for x in w]
        total = None
        for (a, b), c in self.terms.items():
            val = c
            for mono in (monomial(z, a), monomial(wbar, b)):
                if mono is not None:
                    val = val * mono
            total = val if total is None else total + val
        return 0 if total is None else total

    def repr_and_json(self):
        parts, rows = [], []
        for a, b in sorted(self.terms, key=lambda k: (tuple(k[0]), tuple(k[1]))):
            c = self.terms[(a, b)]
            holo = "*".join(f"z{i+1}^{e}" if e > 1 else f"z{i+1}" for i, e in enumerate(a) if e)
            anti = "*".join(f"w{i+1}b^{e}" if e > 1 else f"w{i+1}b" for i, e in enumerate(b) if e)
            mono = "*".join(x for x in (holo, anti) if x)
            parts.append(f"({c})" + (f"*{mono}" if mono else ""))
            rows.append([list(a), list(b), to_complex(c).real, to_complex(c).imag])
        return " + ".join(parts) or "0", {"dim": self.dim, "terms": rows}


def _agree(new, old):
    assert dict(new.terms) == old.terms
    assert list(new.terms) == list(old.terms)  # same term order, so eval sums alike
    assert (repr(new), new.to_json_dict()) == old.repr_and_json()


_exponents = st.tuples(st.integers(0, 2), st.integers(0, 2))
_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_float_coeffs = st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False)
# coefficient kinds that mix with one another
_coeff_kinds = [
    st.one_of(_rationals, st.builds(ExactComplex, _rationals, _rationals)),
    st.one_of(_rationals, st.builds(lambda k, r: root_of_unity(8, k) * r, st.integers(0, 7), _rationals)),
    _float_coeffs,
]


def _pair_terms(coeffs):
    return st.dictionaries(st.tuples(_exponents, _exponents), coeffs, max_size=5)


@given(st.sampled_from(_coeff_kinds).flatmap(lambda c: st.tuples(_pair_terms(c), _pair_terms(c))))
@settings(max_examples=60, deadline=None)
def test_hermitian_arithmetic_agrees_with_the_pair_keyed_oracle(terms):
    p_terms, q_terms = terms
    p, q = HermitianPolynomial(2, p_terms), HermitianPolynomial(2, q_terms)
    op, oq = PairHermitian(2, p_terms), PairHermitian(2, q_terms)
    _agree(p, op)
    for new, old in [(p + q, op + oq), (p - q, op - oq), (p * q, op * oq), (p.conj_swap(), op.conj_swap())]:
        _agree(new, old)
    for i in range(2):
        _agree(p.d_z(i), op._derive(i, True))
        _agree(p.d_zbar(i), op._derive(i, False))
    assert p.is_real_valued() == op.is_real_valued()
    assert (p + p.conj_swap()).is_real_valued() and (op + op.conj_swap()).is_real_valued()


@given(
    _pair_terms(_float_coeffs),
    _pair_terms(_float_coeffs),
    st.lists(_float_coeffs, min_size=4, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_float_hermitian_eval_is_bit_identical_to_the_oracle(p_terms, q_terms, coords):
    z, w = coords[:2], coords[2:]
    p, q = HermitianPolynomial(2, p_terms), HermitianPolynomial(2, q_terms)
    op, oq = PairHermitian(2, p_terms), PairHermitian(2, q_terms)
    for new, old in [(p, op), (p * q, op * oq), (p + q, op + oq), (p.d_z(0), op._derive(0, True))]:
        got, want = new.eval(z, w), old.eval(z, w)
        assert type(got) is type(want) and repr(got) == repr(want)
