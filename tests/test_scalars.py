import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from berg.cyclotomic import CyclotomicField, root_of_unity
from berg.scalars import ExactComplex, PiGradeError, exact, to_complex

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=12
)


def exact_numbers(pi_pow=st.integers(min_value=-2, max_value=2)):
    return st.builds(ExactComplex, rationals, rationals, pi_pow)


def test_basic_arithmetic():
    a = exact(Fraction(1, 2), Fraction(1, 3))
    b = exact(2, -1)
    assert a + b == exact(Fraction(5, 2), Fraction(-2, 3))
    assert a - a == exact(0)
    assert (a * b).re == Fraction(1, 2) * 2 - Fraction(1, 3) * -1


def test_division_round_trip():
    a = exact(Fraction(3, 7), Fraction(-2, 5), 1)
    b = exact(Fraction(1, 3), Fraction(4, 9), -2)
    assert (a / b) * b == a
    with pytest.raises(ZeroDivisionError):
        a / exact(0)


def test_pi_grading():
    one_pi = exact(1, 0, 1)
    plain = exact(1)
    with pytest.raises(PiGradeError):
        one_pi + plain
    assert (one_pi * plain).pi_pow == 1
    assert (one_pi / one_pi).pi_pow == 0
    # zero absorbs into any grade
    assert exact(0) + one_pi == one_pi
    assert exact(0, 0, 5) == exact(0, 0, -3)


def test_power_and_conjugate():
    a = exact(1, 1)
    assert a**2 == exact(0, 2)
    assert a ** (-1) == exact(Fraction(1, 2), Fraction(-1, 2))
    assert a.conjugate() == exact(1, -1)
    assert a.abs_squared() == exact(2)


def test_to_complex():
    v = exact(Fraction(1, 2), 0, 2).to_complex()
    assert v == pytest.approx(math.pi**2 / 2)


@given(exact_numbers(), exact_numbers(), exact_numbers(st.just(0)))
def test_ring_axioms(a, b, c):
    # keep a and b in the same grade so addition is defined
    b = ExactComplex(b.re, b.im, a.pi_pow if not b.is_zero else 0)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)


@given(exact_numbers())
def test_multiplicative_inverse(a):
    if not a.is_zero:
        assert a * (ExactComplex(1) / a) == ExactComplex(1)


def test_equal_scalars_hash_equal_known_cases():
    assert hash(root_of_unity(2)) == hash(root_of_unity(4, 2))
    assert hash(CyclotomicField(4).one()) == hash(1)
    assert len({exact(1), Fraction(1)}) == 1
    assert not exact(1) == exact(1, 0, 1)


FIELDS = (1, 2, 3, 4, 6, 8, 12)


@st.composite
def cyclotomic_values(draw):
    field = CyclotomicField(draw(st.sampled_from(FIELDS)))
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=4))
    return sum((field.root(k) * c for k, c in enumerate(coeffs)), field.zero())


def representations(x):
    """x as every scalar kind that can hold it, and in larger fields."""
    if isinstance(x, Fraction):
        out = [x, exact(x)] + [CyclotomicField(n).from_rational(x) for n in FIELDS]
        return out + [int(x)] if x.denominator == 1 else out
    return [CyclotomicField(x.field.n * k).zero() + x for k in (1, 2, 3)]


scalar_values = st.one_of(rationals, cyclotomic_values())


@given(scalar_values, scalar_values, st.data())
def test_equal_scalars_hash_equal(x, y, data):
    a = data.draw(st.sampled_from(representations(x)))
    b = data.draw(st.sampled_from(representations(x) + representations(y)))
    if a == b:
        assert hash(a) == hash(b)
