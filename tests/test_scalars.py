import functools
import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from berg.algebraic import annulus_kernel
from berg.ball import ball_kernel
from berg.cyclotomic import Cyclotomic, CyclotomicField, root_of_unity
from berg.hartogs import kernel_series, omega_closed_kernel, omega_rational_kernel, u_domain_contains, u_kernel
from berg.polynomials import HermitianPolynomial, HoloPolynomial
from berg.quotient import deck_sum_kernel, dual_deck_sum_kernel, pushforward_kernel, scalar_rotation_cover
from berg.scalars import ExactComplex, PiGradeError, exact, read_points, to_complex
from test_quotient import _binary_dihedral_12


# -- reference arithmetic: a Gaussian rational as two Fractions ---------------

class RefComplex:
    """(re + im i) * pi^pi_pow on two Fractions, zero at pi-power 0."""

    def __init__(self, re, im=0, pi_pow=0):
        self.re, self.im = Fraction(re), Fraction(im)
        self.pi_pow = pi_pow if self.re or self.im else 0

    @property
    def is_zero(self):
        return self.re == 0 and self.im == 0

    def __add__(self, o):
        if self.is_zero:
            return o
        if o.is_zero:
            return self
        if self.pi_pow != o.pi_pow:
            raise PiGradeError("mixed grades")
        return RefComplex(self.re + o.re, self.im + o.im, self.pi_pow)

    def __neg__(self):
        return RefComplex(-self.re, -self.im, self.pi_pow)

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, o):
        return RefComplex(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re, self.pi_pow + o.pi_pow
        )

    def __truediv__(self, o):
        if o.is_zero:
            raise ZeroDivisionError("division by exact zero")
        den = o.re * o.re + o.im * o.im
        return RefComplex(
            (self.re * o.re + self.im * o.im) / den,
            (self.im * o.re - self.re * o.im) / den,
            self.pi_pow - o.pi_pow,
        )

    def __pow__(self, n):
        if n < 0:
            return (RefComplex(1) / self) ** -n
        out = RefComplex(1)
        for _ in range(n):
            out = out * self
        return out

    def conjugate(self):
        return RefComplex(self.re, -self.im, self.pi_pow)

    def to_complex(self):
        scale = math.pi**self.pi_pow
        return complex(float(self.re) * scale, float(self.im) * scale)

    def __repr__(self):
        body = f"{self.re}" if self.im == 0 else f"({self.re}{'+' if self.im >= 0 else ''}{self.im}i)"
        return body if self.pi_pow == 0 else f"{body}*pi^{self.pi_pow}"


def _fields(x):
    return (x.re, x.im, x.pi_pow)


def _bits(z: complex):
    return (z.real.hex(), z.imag.hex())


def _outcome(fn, *args):
    """The value of fn(*args), or the type of the exception it raised."""
    try:
        return fn(*args)
    except (ZeroDivisionError, PiGradeError) as err:
        return type(err)


wide_rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)
gaussian_pairs = st.tuples(
    st.one_of(wide_rationals, st.integers(-5, 5).map(Fraction)),
    st.one_of(wide_rationals, st.just(Fraction(0))),
    st.integers(min_value=-1, max_value=1),
)


@given(gaussian_pairs, gaussian_pairs)
def test_integer_representation_matches_the_fraction_reference(p, q):
    x, y = ExactComplex(*p), ExactComplex(*q)
    rx, ry = RefComplex(*p), RefComplex(*q)
    for op in (
        lambda u, v: u + v,
        lambda u, v: u - v,
        lambda u, v: u * v,
        lambda u, v: u / v,
    ):
        got, want = _outcome(op, x, y), _outcome(op, rx, ry)
        if isinstance(want, type):
            assert got is want
        else:
            assert _fields(got) == _fields(want)
    for n in range(-4, 5):
        got, want = _outcome(pow, x, n), _outcome(pow, rx, n)
        assert got is want if isinstance(want, type) else _fields(got) == _fields(want)
    assert _fields(x.conjugate()) == _fields(rx.conjugate())
    assert _fields(x) == _fields(rx)
    assert repr(x) == repr(rx)
    assert _bits(x.to_complex()) == _bits(rx.to_complex())
    # grade 0 hashes as its real part; equal values built another way hash equal
    if x.pi_pow == 0:
        assert hash(x) == hash(rx.re)
    assert hash(x) == hash(ExactComplex(rx.re, rx.im, rx.pi_pow)) == hash(x.conjugate().conjugate())
    # zero drops its pi grade
    zero = x - x
    assert zero == ExactComplex(0) and zero.pi_pow == 0 and (x * 0).pi_pow == 0


def test_constructor_accepts_ints_and_fractions_only():
    assert ExactComplex(3) == 3 and ExactComplex(Fraction(6, 4), 1) == exact(Fraction(3, 2), 1)
    assert ExactComplex(0, 0, 7).pi_pow == 0
    with pytest.raises(TypeError):
        ExactComplex(Fraction(1, 2), 0, 1.5)
    with pytest.raises(TypeError):
        ExactComplex(Fraction(1, 2), 0, Fraction(3))
    with pytest.raises(TypeError):
        ExactComplex(0.5)


def test_exact_complex_is_immutable():
    x = exact(Fraction(1, 2), 3, 1)
    for name, value in [("re", Fraction(2)), ("im", 0), ("pi_pow", 0), ("_a", 7), ("_d", 5)]:
        with pytest.raises(AttributeError):
            setattr(x, name, value)
    assert x == exact(Fraction(1, 2), 3, 1) and x._a == 1 and x._d == 2


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


def test_to_complex():
    v = exact(Fraction(1, 2), 0, 2).to_complex()
    assert v == pytest.approx(math.pi**2 / 2)


@given(exact_numbers(), exact_numbers(), exact_numbers(st.just(0)))
def test_ring_axioms(a, b, c):
    # keep a and b in the same grade so addition is defined
    b = ExactComplex(b.re, b.im, a.pi_pow if b else 0)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)


@given(exact_numbers())
def test_multiplicative_inverse(a):
    if a:
        assert a * (ExactComplex(1) / a) == ExactComplex(1)


def test_equal_scalars_hash_equal_known_cases():
    assert hash(root_of_unity(2)) == hash(root_of_unity(4, 2))
    assert hash(CyclotomicField(4).one()) == hash(1)
    assert len({exact(1), Fraction(1)}) == 1
    assert not exact(1) == exact(1, 0, 1)
    # equality is transitive across kinds: int, ExactComplex and Cyclotomic
    assert exact(1) == CyclotomicField(4).one() == 1
    assert exact(0, 1) == CyclotomicField(4).root(1) == CyclotomicField(8).root(2)
    assert hash(exact(0, 1)) == hash(CyclotomicField(8).root(2))
    assert exact(0, 1) != root_of_unity(8) and exact(1, 0, 1) != CyclotomicField(4).one()


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
    out = [CyclotomicField(x.field.n * k).zero() + x for k in (1, 2, 3)]
    try:
        return out + [x.to_exact_complex()]
    except ValueError:  # not in Q(i)
        return out


scalar_values = st.one_of(rationals, cyclotomic_values())


@given(scalar_values, scalar_values, st.data())
def test_equal_scalars_hash_equal(x, y, data):
    a = data.draw(st.sampled_from(representations(x)))
    b = data.draw(st.sampled_from(representations(x) + representations(y)))
    if a == b:
        assert hash(a) == hash(b)


@given(scalar_values, st.data())
def test_representations_of_one_value_are_equal(x, data):
    a = data.draw(st.sampled_from(representations(x)))
    b = data.draw(st.sampled_from(representations(x)))
    assert a == b and b == a and hash(a) == hash(b)


@pytest.mark.parametrize("y", [0.5, 1 + 1j], ids=["float", "complex"])
@pytest.mark.parametrize(
    "x", [exact(1, 1), exact(1, 0, -2), root_of_unity(5)], ids=["1+i", "pi^-2", "zeta5"]
)
def test_float_operands_promote_to_complex(x, y):
    """As with Fraction, the exact value meets a float as a complex, in
    either order."""
    c = x.to_complex()
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        assert op(x, y) == op(c, y) and type(op(x, y)) is complex
        assert op(y, x) == op(y, c) and type(op(y, x)) is complex


def test_exact_and_complex_coefficients_add():
    p = HermitianPolynomial.term(1, (1,), (0,), ExactComplex(1, 1))
    q = HermitianPolynomial.term(1, (1,), (0,), 1 + 1j)
    assert p + q == HermitianPolynomial.term(1, (1,), (0,), 2 + 2j)
    assert q + p == p + q


# -- the number protocol every scalar kind answers ------------------------------

PROTOCOL_FIELDS = (3, 4, 5, 8, 12)


@st.composite
def field_elements(draw):
    """An element of one of PROTOCOL_FIELDS, zero included."""
    field = CyclotomicField(draw(st.sampled_from(PROTOCOL_FIELDS)))
    return field.element(draw(st.lists(rationals, max_size=field.degree)))


protocol_scalars = st.one_of(
    st.integers(-5, 5),
    rationals,
    st.floats(-4, 4),
    st.complex_numbers(max_magnitude=4),
    exact_numbers(),
    field_elements(),
)


def _ladder_complex(x) -> complex:
    """The float value by the isinstance ladder scalars were once converted by."""
    if isinstance(x, (ExactComplex, Cyclotomic)):
        return x.to_complex()
    if isinstance(x, (int, float, Fraction)):
        return complex(float(x))
    return x


def _own_inverse(x):
    """The exact inverse each kind computes itself: the Galois-conjugate
    product of a field element, the power -1 of any other."""
    if isinstance(x, Cyclotomic):
        return x.inverse()
    return (x if isinstance(x, ExactComplex) else Fraction(x)) ** -1


@given(protocol_scalars)
def test_every_scalar_kind_answers_the_number_protocol(x):
    assert bool(x) == (x != 0)
    assert _bits(complex(x)) == _bits(_ladder_complex(x)) == _bits(to_complex(x))
    assert _bits(np.asarray([x, 0.5], dtype=complex)[0]) == _bits(complex(x))
    if x and isinstance(x, (int, Fraction, ExactComplex, Cyclotomic)):
        got, want = Fraction(1) / x, _own_inverse(x)
        assert type(got) is type(want) and repr(got) == repr(want)


def _in_field(g: ExactComplex, n: int) -> Cyclotomic:
    """A Gaussian rational written in Q(zeta_n), 4 | n: i = zeta_n^(n/4)."""
    field = CyclotomicField(n)
    return field.from_rational(g.re) + field.root(n // 4) * g.im


ARITHMETIC = (operator.add, operator.sub, operator.mul, operator.truediv)


@given(exact_numbers(st.just(0)), exact_numbers(), st.sampled_from((4, 8, 12)))
def test_a_gaussian_field_element_computes_with_exact_complex_by_value(g, e, n):
    c = _in_field(g, n)
    for op in ARITHMETIC:
        for got, want in ((_outcome(op, e, c), _outcome(op, e, g)), (_outcome(op, c, e), _outcome(op, g, e))):
            if isinstance(want, type):
                assert got is want
            else:
                assert type(got) is ExactComplex and _fields(got) == _fields(want)


@pytest.mark.parametrize("op", ARITHMETIC, ids=lambda op: op.__name__)
def test_a_field_element_outside_q_i_does_not_compute_with_exact_complex(op):
    for e in (exact(1, 1), exact(1, 1, 1)):
        for a, b in ((e, root_of_unity(8)), (root_of_unity(8), e)):
            with pytest.raises(TypeError):
                op(a, b)


def test_polynomials_with_mixed_exact_coefficients_add_and_multiply():
    i4, i8 = root_of_unity(4), CyclotomicField(8).root(2)
    p = HoloPolynomial(2, {(1, 0): exact(1, 1), (0, 1): i4 * Fraction(1, 2)})
    # the (1, 0) coefficients cancel in p + q
    q = HoloPolynomial(2, {(1, 0): -1 - i8, (0, 0): exact(Fraction(1, 3), -2)})

    def as_exact(f):
        return HoloPolynomial(2, {a: ExactComplex(0) + c for a, c in f.terms.items()})

    for op in (operator.add, operator.mul):
        want = op(as_exact(p), as_exact(q))
        for got in (op(p, q), op(q, p)):
            assert got == want and got.terms.keys() == want.terms.keys()
    assert (1, 0) not in (p + q).terms


def test_numpy_reads_exact_coordinates():
    zeta = CyclotomicField(5)
    assert _bits(np.asarray([zeta.root(1), 0.5], dtype=complex)[0]) == _bits(zeta.root(1).to_complex())
    z = (zeta.root(1) * Fraction(1, 4), Fraction(1, 3))
    w = (zeta.root(2) * Fraction(1, 5), zeta.root(3) * Fraction(-2, 7))
    group = _binary_dihedral_12()
    calls = (lambda p, q: ball_kernel(2, p, q), lambda p, q: deck_sum_kernel(group, 2, p, q))
    for call in calls:
        got, want = call(z, w), call(tuple(map(complex, z)), tuple(map(complex, w)))
        assert type(got) is complex and _bits(got) == _bits(want)
        # an array beside an exact coordinate broadcasts against it
        batch = (np.array([0.1, 0.2j]), z[0])
        got, want = call(batch, w), call((batch[0], complex(z[0])), tuple(map(complex, w)))
        assert [_bits(v) for v in got] == [_bits(v) for v in want]


# -- the one point reader -------------------------------------------------------


def test_read_points_returns_exact_coordinates_or_none():
    third, i = Fraction(1, 3), CyclotomicField(4).root(1)
    read = read_points(2, (third, 2), (exact(0, 1), i * Fraction(1, 5)))
    assert read == [(exact(third), exact(2)), (exact(0, 1), exact(0, Fraction(1, 5)))]
    assert all(type(x) is ExactComplex for p in read for x in p)
    # a float, an array or a field element outside Q(i) is not converted
    assert read_points(2, (third, 0.5), (1, 2)) is None
    assert read_points(2, (third, np.zeros(3))) is None
    assert read_points(2, (third, root_of_unity(5))) is None
    with pytest.raises(ValueError, match=r"expected points in C\^2"):
        read_points(2, (third, 2), (0.5,))


@functools.cache
def _rotation_cover():
    return scalar_rotation_cover()


_HALF, _THIRD = Fraction(1, 2), Fraction(1, 3)
# every entry point that reads points: (n, call), where call takes a point
# pair and a single-point entry point ignores the second point
ENTRY_POINTS = {
    "ball_kernel": (2, lambda p, q: ball_kernel(2, p, q)),
    "deck_sum_kernel": (2, lambda p, q: deck_sum_kernel(_rotation_cover().group, 2, p, q)),
    "dual_deck_sum_kernel": (2, lambda p, q: dual_deck_sum_kernel(_rotation_cover().group, 2, p, q)),
    "pushforward_kernel": (2, lambda p, q: pushforward_kernel(_rotation_cover(), p, q)),
    "CoveringSpec.jacobian": (2, lambda p, q: _rotation_cover().jacobian(p)),
    "kernel_series": (2, lambda p, q: kernel_series(p, _HALF, q, _THIRD).value),
    "omega_closed_kernel": (2, lambda p, q: omega_closed_kernel(p, _HALF, q, _THIRD)),
    "u_domain_contains": (3, lambda p, q: u_domain_contains(p)),
    "u_kernel": (3, lambda p, q: u_kernel(p, q)),
    "RationalKernel.eval": (3, lambda p, q: omega_rational_kernel().eval(p, q)),
    # P and Q lie in the annulus 1/4 < |z| < 1 in their first coordinate
    "annulus_kernel": (1, lambda p, q: annulus_kernel(0.25, p, q)),
}
# points of the bounded domain U in C^3, and of the ball in their first two coordinates
P = (exact(Fraction(1, 2)), exact(0, Fraction(1, 8)), exact(Fraction(1, 8)))
Q = (exact(Fraction(1, 3)), exact(0, Fraction(1, 10)), exact(Fraction(1, 9)))


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_every_entry_point_refuses_points_of_the_wrong_length(name):
    n, call = ENTRY_POINTS[name]
    good = (0.1,) * n
    # a bare scalar is no point, not even in C^1
    for bad in ((0.1,) * (n - 1), (0.1,) * (n + 1), P[: n - 1], 0.1, P[0], np.float64(0.1)):
        for p, q in ((bad, good), (good, bad)):
            if p is good and name in ("CoveringSpec.jacobian", "u_domain_contains"):
                continue  # a single-point entry point reads only p
            with pytest.raises(ValueError, match=rf"expected points in C\^{n}"):
                call(p, q)


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_a_cyclotomic_coordinate_reads_as_its_gaussian_value(name):
    n, call = ENTRY_POINTS[name]
    # P's second coordinate i/8, written in Q(zeta_4)
    written = (P[0], CyclotomicField(4).root(1) * Fraction(1, 8), P[2])
    got, want = call(written[:n], Q[:n]), call(P[:n], Q[:n])
    assert type(got) is type(want) and got == want and repr(got) == repr(want)


@pytest.mark.parametrize(
    "call",
    [
        lambda: ball_kernel(2, (1e200, 0.0), (1e200, 0.0)),
        lambda: ball_kernel(2, (math.nan, 0.0), (0.0, 0.0)),
        lambda: omega_closed_kernel((math.nan, 0.0), 0.5, (0.0, 0.0), 0.5),
        lambda: pushforward_kernel(_rotation_cover(), (math.nan, 0.1), (0.2, 0.1)),
        lambda: ball_kernel(2, (np.array([0.1, math.nan]), 0.0), (0.0, 0.0)),
        lambda: omega_closed_kernel((np.array([0.1, math.nan]), 0.0), 0.5, (0.0, 0.0), 0.5),
    ],
    ids=["ball-overflow", "ball-nan", "omega-nan", "pushforward-nan", "ball-batch-nan", "omega-batch-nan"],
)
def test_float_kernels_refuse_values_that_are_not_finite(call):
    with np.errstate(all="ignore"), pytest.raises(ValueError, match=r"kernel value \(nan\+nanj\) is not finite"):
        call()
