import cmath
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from berg.cyclotomic import (
    CyclotomicField,
    _poly_divmod,
    _poly_mul,
    cyclotomic_polynomial,
    root_of_unity,
)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (Fraction(-1), Fraction(1))
    assert cyclotomic_polynomial(2) == (Fraction(1), Fraction(1))
    assert cyclotomic_polynomial(4) == (Fraction(1), Fraction(0), Fraction(1))
    assert cyclotomic_polynomial(3) == (Fraction(1), Fraction(1), Fraction(1))
    # phi_12 = x^4 - x^2 + 1
    assert cyclotomic_polynomial(12) == tuple(
        Fraction(c) for c in (1, 0, -1, 0, 1)
    )


def _phi_by_division(n, cache={}):
    """Phi_n as x^n - 1 divided by Phi_d of every proper divisor d."""
    if n not in cache:
        num = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
        for d in range(1, n):
            if n % d == 0:
                num, rem = _poly_divmod(num, list(_phi_by_division(d)))
                assert not rem
        cache[n] = tuple(num)
    return cache[n]


def _powers_by_division(n):
    """zeta^k for k < n, each reduced by a long division."""
    phi = list(_phi_by_division(n))
    degree = len(phi) - 1
    table, cur = [], [Fraction(1)]
    for _ in range(n):
        table.append(tuple(cur + [Fraction(0)] * (degree - len(cur))))
        cur = _poly_mul(cur, [Fraction(0), Fraction(1)])
        _, cur = _poly_divmod(cur, phi)
        cur = cur or [Fraction(0)]
    return table


@pytest.mark.parametrize("n", [1, 2, 3, 4, 12, 20, 105, 360])
def test_tables_match_long_division(n):
    assert cyclotomic_polynomial(n) == _phi_by_division(n)
    assert all(isinstance(c, Fraction) for c in cyclotomic_polynomial(n))
    field = CyclotomicField(n)
    assert field.modulus == list(_phi_by_division(n))
    assert field.zeta_powers == _powers_by_division(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8, 12])
def test_root_has_order_n(n):
    z = root_of_unity(n)
    acc = CyclotomicField(n).one()
    for k in range(1, n + 1):
        acc = acc * z
        if k < n:
            assert not acc == 1
    assert acc == 1


@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_conjugate_is_inverse_on_units(n):
    z = root_of_unity(n, 1)
    assert z * z.conjugate() == 1


def test_numeric_value():
    z = root_of_unity(3)
    expected = cmath.exp(2j * cmath.pi / 3)
    assert abs(z.to_complex() - expected) < 1e-14


def test_embedding_across_fields():
    i = root_of_unity(4)
    w = root_of_unity(3)
    prod = i * w  # lands in Q(zeta_12)
    assert prod.field.n == 12
    assert abs(prod.to_complex() - i.to_complex() * w.to_complex()) < 1e-13
    assert prod / w == i


def test_gaussian_export():
    i = root_of_unity(4)
    assert i.to_exact_complex().im == 1
    minus1 = root_of_unity(2)
    assert minus1.to_exact_complex().re == -1
    with pytest.raises(ValueError):
        root_of_unity(3).to_exact_complex()


small_elements = st.builds(
    lambda a, b: CyclotomicField(6).element([a, b]),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)


@given(small_elements, small_elements, small_elements)
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@given(small_elements)
def test_inverse_round_trip(a):
    if not a.is_zero():
        assert a * a.inverse() == 1
        assert (1 / a) * a == 1
