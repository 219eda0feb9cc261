import cmath
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from berg.cyclotomic import CyclotomicField, cyclotomic_polynomial, root_of_unity
from berg.scalars import ExactComplex, read_points


# -- reference arithmetic: dense polynomials over Fraction, long division -----

def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _poly_trim(out)


def _poly_divmod(a, b):
    a = list(a)
    b = _poly_trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = _poly_trim(a)
    while len(r) >= len(b):
        shift = len(r) - len(b)
        c = r[-1] / b[-1]
        q[shift] = c
        for i, bi in enumerate(b):
            r[shift + i] -= c * bi
        r = _poly_trim(r)
    return q, r


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


def _gaussian(x):
    """The field element as the Gaussian rational ``read_points`` reads, or
    None outside Q(i)."""
    read = read_points(1, (x,))
    return None if read is None else read[0][0]


def test_gaussian_export():
    i = _gaussian(root_of_unity(4))
    assert type(i) is ExactComplex and i.im == 1
    assert _gaussian(root_of_unity(2)).re == -1
    assert _gaussian(root_of_unity(3)) is None


def test_gaussian_export_is_decided_by_value():
    i = _gaussian(root_of_unity(4))
    assert _gaussian(root_of_unity(8, 2)) == i
    assert _gaussian(root_of_unity(12, 3)) == i
    assert _gaussian(CyclotomicField(20).root(15)) == i.conjugate()
    half = CyclotomicField(6).element([Fraction(1, 3), Fraction(1, 2)])  # 1/3 + zeta_6 / 2
    assert _gaussian(half + half.conjugate()) == Fraction(7, 6)
    for x in (root_of_unity(8), root_of_unity(3), root_of_unity(12), half):
        assert _gaussian(x) is None


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
    if a:
        assert a * a.inverse() == 1
        assert (1 / a) * a == 1


# -- the field against the long-division reference -----------------------------

FIELDS = [1, 2, 3, 4, 5, 7, 8, 9, 12, 13, 15, 20, 24]
rationals = st.just(Fraction(0)) | st.fractions(min_value=-4, max_value=4, max_denominator=12)


def _coefficients(n):
    degree = len(_phi_by_division(n)) - 1
    return st.lists(rationals, min_size=degree, max_size=degree)


def _reduce(poly, n):
    """poly(zeta_n) in the basis 1, zeta, ..., zeta^(phi(n)-1), by long division."""
    phi = list(_phi_by_division(n))
    _, rem = _poly_divmod(list(poly), phi)
    return tuple(rem + [Fraction(0)] * (len(phi) - 1 - len(rem)))


def _substitute(coeffs, step, n):
    """sum_k coeffs[k] zeta_n^(k*step), reduced."""
    poly = [Fraction(0)] * n
    for k, c in enumerate(coeffs):
        poly[k * step % n] += c
    return _reduce(poly, n)


def _reference_repr(coeffs, n):
    parts = [
        f"{c}" if i == 0 else f"{c}*z{n}" if i == 1 else f"{c}*z{n}^{i}"
        for i, c in enumerate(coeffs)
        if c != 0
    ]
    return " + ".join(parts) if parts else "0"


def _reference_complex(coeffs, n):
    z = cmath.exp(2j * cmath.pi / n)
    total = 0j
    for i, c in enumerate(coeffs):
        if c != 0:
            total += float(c) * z**i
    return total


@given(st.data())
def test_field_matches_long_division(data):
    n = data.draw(st.sampled_from(FIELDS))
    field = CyclotomicField(n)
    a_c, b_c = data.draw(_coefficients(n)), data.draw(_coefficients(n))
    a, b = field.element(a_c), field.element(b_c)
    assert a.coeffs == _reduce(a_c, n)
    assert (a * b).coeffs == _reduce(_poly_mul(a_c, b_c), n)
    assert a.conjugate().coeffs == _substitute(a_c, -1, n)
    assert repr(a) == _reference_repr(a_c, n)
    assert a.to_complex() == _reference_complex(a_c, n)
    one = _reduce([Fraction(1)], n)
    if any(b_c):
        assert _reduce(_poly_mul(list(b.inverse().coeffs), b_c), n) == one
        quotient = (a * b) / b
        assert quotient == a and hash(quotient) == hash(a)
    assert (a == b) == (a_c == b_c)
    if a == b:
        assert hash(a) == hash(b)
    if not any(a_c[1:]):
        assert a == a_c[0] and hash(a) == hash(a_c[0])


@given(_coefficients(4), _coefficients(3), _coefficients(5))
def test_cross_field_matches_long_division(i_c, w_c, f_c):
    i, w = CyclotomicField(4).element(i_c), CyclotomicField(3).element(w_c)
    prod = i * w
    assert prod.field.n == 12
    i_12, w_12 = _substitute(i_c, 3, 12), _substitute(w_c, 4, 12)
    assert prod.coeffs == _reduce(_poly_mul(list(i_12), list(w_12)), 12)
    x = CyclotomicField(5).element(f_c)
    big = CyclotomicField(20).zero() + x
    assert big.coeffs == _substitute(f_c, 4, 20)
    assert big == x and x == big and hash(big) == hash(x)
