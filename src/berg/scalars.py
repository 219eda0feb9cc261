"""Exact complex scalars: Gaussian rationals carrying a symbolic power of pi.

Every exact quantity in this package is a number of the form
``(a + b*i) / d * pi**k`` with integers ``a, b``, a positive integer ``d``
and an integer ``k``.  Each value is stored that way, reduced so that
``gcd(a, b, d) == 1`` (one ``math.gcd`` per result, as ``Cyclotomic`` does;
see Cohen, GTM 138, section 4.2), which makes every operation a few
integer products: a quotient multiplies by the conjugate and divides by
the norm.  ``re`` and ``im`` read the parts back as ``Fraction``.  Keeping
pi symbolic lets weighted norms, kernel constants, and isometry identities
evaluate to exact rationals times a pi power instead of floats.

Mixed pi powers cannot be added (the results in scope never require it);
attempting to do so raises :class:`PiGradeError` rather than silently
degrading to floats.  With a float or complex operand, the exact value is
converted and the result is a complex, as with ``Fraction``.

Both exact kinds, this one and ``Cyclotomic``, answer Python's number
protocol as int and Fraction do, so every module asks any scalar the same
questions: ``bool(x)`` is the zero test, ``complex(x)`` the float value,
``x.conjugate()`` the conjugate and ``Fraction(1) / x`` an exact inverse.
A ``Cyclotomic`` whose value lies in Q(i) is read by value, so it meets an
ExactComplex in arithmetic and comparison, in either operand order, and
the result is an ExactComplex.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .cyclotomic import INEXACT, Cyclotomic

RationalLike = Union[int, Fraction]


class PiGradeError(ArithmeticError):
    """Raised when adding exact scalars with different powers of pi."""


_new = object.__new__


def _make(a: int, b: int, d: int, k: int) -> "ExactComplex":
    """(a + b i) / d * pi^k from integers already reduced, with d > 0."""
    x = _new(ExactComplex)
    _set_a(x, a)
    _set_b(x, b)
    _set_d(x, d)
    _set_k(x, k)
    return x


def _reduced(a: int, b: int, d: int, k: int) -> "ExactComplex":
    """(a + b i) / d * pi^k for integers with d > 0, reduced by one gcd."""
    g = math.gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _make(a, b, d, k if a or b else 0)


class ExactComplex:
    """A Gaussian rational times an integer power of pi: (a + b i)/d * pi^k.

    Closed under +, -, * and division by nonzero values.  The integers
    ``_a, _b, _d`` share no common factor and ``_d > 0``; zero is
    normalized to ``0/1`` at pi-power 0 so that it is the additive identity
    for every grade.  Values are immutable: the fields are written once,
    through their slot descriptors, and ``re``, ``im`` and ``pi_pow`` are
    read-only.
    """

    __slots__ = ("_a", "_b", "_d", "_k")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0, pi_pow: int = 0):
        if not isinstance(pi_pow, int):
            raise TypeError(f"pi power must be an int, got {type(pi_pow).__name__}")
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            if not (isinstance(re, (int, Fraction)) and isinstance(im, (int, Fraction))):
                kinds = f"{type(re).__name__}, {type(im).__name__}"
                raise TypeError(f"expected int or Fraction parts, got {kinds}")
            p, q = re.denominator, im.denominator
            # both parts are in lowest terms, so gcd(a, b, lcm(p, q)) == 1
            d = math.lcm(p, q)
            a, b = re.numerator * (d // p), im.numerator * (d // q)
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)
        _set_k(self, pi_pow if a or b else 0)

    def __setattr__(self, name, value):
        raise AttributeError("ExactComplex is immutable")

    # -- parts -----------------------------------------------------------
    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @property
    def pi_pow(self) -> int:
        return self._k

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        o = _coerce(other)
        if o is None:
            return self.to_complex() + other if isinstance(other, INEXACT) else NotImplemented
        return _add(self, o._a, o._b, o._d, o._k)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self._a, -self._b, self._d, self._k)

    def __sub__(self, other):
        o = _coerce(other)
        if o is None:
            return self.to_complex() - other if isinstance(other, INEXACT) else NotImplemented
        return _add(self, -o._a, -o._b, o._d, o._k)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return other - self.to_complex() if isinstance(other, INEXACT) else NotImplemented
        return _add(o, -self._a, -self._b, self._d, self._k)

    def __mul__(self, other):
        o = _coerce(other)
        if o is None:
            return self.to_complex() * other if isinstance(other, INEXACT) else NotImplemented
        a1, b1, a2, b2 = self._a, self._b, o._a, o._b
        return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self._d * o._d, self._k + o._k)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other)
        if o is None:
            return self.to_complex() / other if isinstance(other, INEXACT) else NotImplemented
        a1, b1, a2, b2 = self._a, self._b, o._a, o._b
        norm = a2 * a2 + b2 * b2
        if not norm:
            raise ZeroDivisionError("division by exact zero")
        d2 = o._d
        return _reduced(
            (a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2, self._d * norm, self._k - o._k
        )

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return other / self.to_complex() if isinstance(other, INEXACT) else NotImplemented
        return o / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        a, b, d, k = self._a, self._b, self._d, self._k
        if n < 0:
            norm = a * a + b * b
            if not norm:
                raise ZeroDivisionError("division by exact zero")
            a, b, d, k, n = a * d, -b * d, norm, -k, -n
        # square and multiply on the integers, reduced once at the end
        ra, rb, rd = 1, 0, 1
        k *= n
        while n:
            if n & 1:
                ra, rb, rd = ra * a - rb * b, ra * b + rb * a, rd * d
            n >>= 1
            if n:
                a, b, d = a * a - b * b, 2 * a * b, d * d
        return _reduced(ra, rb, rd, k)

    def conjugate(self) -> "ExactComplex":
        return _make(self._a, -self._b, self._d, self._k)

    # -- comparisons / conversion ---------------------------------------
    def __eq__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        # values are reduced, so the fields determine the value
        return (self._a, self._b, self._d, self._k) == (o._a, o._b, o._d, o._k)

    def __hash__(self):
        if not self._k:
            # the real part, as int, Fraction and Cyclotomic (its normalized
            # trace) hash a value of Q(i)
            return hash(Fraction(self._a, self._d))
        return hash((self._a, self._b, self._d, self._k))

    def to_complex(self) -> complex:
        # int true division rounds correctly, as float(Fraction) does
        scale = math.pi ** self._k
        return complex(self._a / self._d * scale, self._b / self._d * scale)

    __complex__ = to_complex

    def __repr__(self) -> str:
        re, im = self.re, self.im
        body = f"{re}" if im == 0 else f"({re}{'+' if im >= 0 else ''}{im}i)"
        if self._k == 0:
            return body
        return f"{body}*pi^{self._k}"


_set_a, _set_b, _set_d, _set_k = (
    ExactComplex.__dict__[name].__set__ for name in ExactComplex.__slots__
)


def _add(x: ExactComplex, a: int, b: int, d: int, k: int) -> ExactComplex:
    """x + (a + b i) / d * pi^k for a reduced right-hand side."""
    if not (a or b):
        return x
    if not (x._a or x._b):
        return _make(a, b, d, k)
    if x._k != k:
        raise PiGradeError(f"cannot add pi^{x._k} and pi^{k} terms exactly")
    return _reduced(x._a * d + a * x._d, x._b * d + b * x._d, x._d * d, k)


def _coerce(x) -> ExactComplex | None:
    """x as an ExactComplex, or None unless it is a Gaussian rational: an
    int, a Fraction, or a ``Cyclotomic`` read by value."""
    if isinstance(x, ExactComplex):
        return x
    if type(x) is int:
        return _make(x, 0, 1, 0)
    if isinstance(x, (int, Fraction)):
        return ExactComplex(x)
    if isinstance(x, Cyclotomic):
        try:
            return x.to_exact_complex()
        except ValueError:  # not in Q(i)
            return None
    return None


def exact(re: RationalLike = 0, im: RationalLike = 0, pi_pow: int = 0) -> ExactComplex:
    """Shorthand constructor used throughout the test suite."""
    return ExactComplex(re, im, pi_pow)


def check_lengths(n: int, points) -> None:
    """ValueError unless every point has n coordinates."""
    try:
        for p in points:
            if len(p) != n:
                raise ValueError(f"expected points in C^{n}")
    except TypeError:  # a bare scalar has no length: it is no point
        raise ValueError(f"expected points in C^{n}") from None


def read_points(n: int, *points) -> list[tuple] | None:
    """The one reader of points in C^n, each a sequence of its n coordinates
    (scalars, or arrays that broadcast).  ValueError unless every point has
    n coordinates; the points with ``ExactComplex`` coordinates when every
    coordinate is a Gaussian-rational scalar (a ``Cyclotomic`` by value),
    else None.  Float and array coordinates are never converted."""
    check_lengths(n, points)
    out = []
    for p in points:
        coords = []
        for x in p:
            o = _coerce(x)
            if o is None:
                return None
            coords.append(o)
        out.append(tuple(coords))
    return out


def to_complex(x) -> complex:
    """``complex(x)``, which every scalar kind answers; the name stays
    because the benchmark and the tests import it."""
    return complex(x)
