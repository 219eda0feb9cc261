"""Exact complex scalars: Gaussian rationals carrying a symbolic power of pi.

Every exact quantity in this package is a number of the form
``(a + b*i) * pi**k`` with ``a, b`` rational and ``k`` an integer.  Keeping
pi symbolic lets weighted norms, kernel constants, and isometry identities
evaluate to exact rationals times a pi power instead of floats.

Mixed pi powers cannot be added (the results in scope never require it);
attempting to do so raises :class:`PiGradeError` rather than silently
degrading to floats.

This module is also the one scalar protocol of the package: the zero test,
inverse, conjugate and Gaussian-rational predicate below accept every
coefficient kind (int, Fraction, float, complex, ExactComplex and
cyclotomic field elements).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .cyclotomic import Cyclotomic

RationalLike = Union[int, Fraction]


class PiGradeError(ArithmeticError):
    """Raised when adding exact scalars with different powers of pi."""


def _as_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class ExactComplex:
    """A Gaussian rational times an integer power of pi.

    Closed under +, -, * and division by nonzero values.  Zero is
    normalized to pi-power 0 so that it is the additive identity for
    every grade.
    """

    __slots__ = ("re", "im", "pi_pow")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0, pi_pow: int = 0):
        re = _as_fraction(re)
        im = _as_fraction(im)
        if re == 0 and im == 0:
            pi_pow = 0
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)
        object.__setattr__(self, "pi_pow", pi_pow)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("ExactComplex is immutable")

    # -- constructors -------------------------------------------------
    @staticmethod
    def coerce(x: "ExactComplex | RationalLike") -> "ExactComplex":
        if isinstance(x, ExactComplex):
            return x
        return ExactComplex(_as_fraction(x))

    # -- predicates ----------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        try:
            other = ExactComplex.coerce(other)
        except TypeError:
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.pi_pow != other.pi_pow:
            raise PiGradeError(
                f"cannot add pi^{self.pi_pow} and pi^{other.pi_pow} terms exactly"
            )
        return ExactComplex(self.re + other.re, self.im + other.im, self.pi_pow)

    __radd__ = __add__

    def __neg__(self):
        return ExactComplex(-self.re, -self.im, self.pi_pow)

    def __sub__(self, other):
        try:
            other = ExactComplex.coerce(other)
        except TypeError:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        try:
            other = ExactComplex.coerce(other)
        except TypeError:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        try:
            other = ExactComplex.coerce(other)
        except TypeError:
            return NotImplemented
        return ExactComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
            self.pi_pow + other.pi_pow,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        try:
            other = ExactComplex.coerce(other)
        except TypeError:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by exact zero")
        den = other.re * other.re + other.im * other.im
        return ExactComplex(
            (self.re * other.re + self.im * other.im) / den,
            (self.im * other.re - self.re * other.im) / den,
            self.pi_pow - other.pi_pow,
        )

    def __rtruediv__(self, other):
        try:
            other = ExactComplex.coerce(other)
        except TypeError:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return (ExactComplex(1) / self) ** (-n)
        out = ExactComplex(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "ExactComplex":
        return ExactComplex(self.re, -self.im, self.pi_pow)

    def abs_squared(self) -> "ExactComplex":
        return ExactComplex(self.re * self.re + self.im * self.im, 0, 2 * self.pi_pow)

    # -- comparisons / conversion ---------------------------------------
    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ExactComplex(other)
        if not isinstance(other, ExactComplex):
            return NotImplemented
        # zero is normalized to pi-power 0, so the fields determine the value
        return (self.re, self.im, self.pi_pow) == (other.re, other.im, other.pi_pow)

    def __hash__(self):
        if self.im == 0 and self.pi_pow == 0:
            return hash(self.re)  # equal to the int or Fraction of that value
        return hash((self.re, self.im, self.pi_pow))

    def to_complex(self) -> complex:
        scale = math.pi ** self.pi_pow
        return complex(float(self.re) * scale, float(self.im) * scale)

    def __complex__(self) -> complex:
        return self.to_complex()

    def __repr__(self) -> str:
        body = f"{self.re}" if self.im == 0 else f"({self.re}{'+' if self.im >= 0 else ''}{self.im}i)"
        if self.pi_pow == 0:
            return body
        return f"{body}*pi^{self.pi_pow}"


EXACT_ZERO = ExactComplex(0)
EXACT_ONE = ExactComplex(1)


def exact(re: RationalLike = 0, im: RationalLike = 0, pi_pow: int = 0) -> ExactComplex:
    """Shorthand constructor used throughout the test suite."""
    return ExactComplex(re, im, pi_pow)


def is_exact_scalar(x) -> bool:
    """True for Gaussian-rational scalars: int, Fraction and ExactComplex."""
    return isinstance(x, (int, Fraction, ExactComplex))


def conj_scalar(x):
    """Conjugate a coefficient of any supported scalar kind."""
    if isinstance(x, (int, Fraction)):
        return x
    return x.conjugate()


def scalar_is_zero(x) -> bool:
    """Zero test for every supported scalar kind."""
    if isinstance(x, Cyclotomic):
        return x.is_zero()
    if isinstance(x, ExactComplex):
        return x.is_zero
    return x == 0


def inv_scalar(x):
    """Multiplicative inverse; exact for exact kinds."""
    if isinstance(x, Cyclotomic):
        return x.inverse()
    return Fraction(1) / x


def to_complex(x) -> complex:
    """Convert any supported scalar to a Python complex."""
    if isinstance(x, ExactComplex):
        return x.to_complex()
    if isinstance(x, (int, float, Fraction)):
        return complex(float(x))
    if isinstance(x, complex):
        return x
    if hasattr(x, "to_complex"):
        return x.to_complex()
    return complex(x)
