"""Exact arithmetic in cyclotomic fields Q(zeta_N).

An element is a polynomial of degree below phi(N) in a primitive N-th
root of unity zeta, stored as integer numerators over one positive common
denominator that shares no factor with all of them.  The N-th cyclotomic
polynomial is monic over the integers, so every power of zeta has integer
coordinates; one table of them reduces products, complex conjugates,
embeddings into larger fields and the Galois conjugates behind inverses.
This is a genuine field: addition, multiplication, conjugation and
division are all exact, which is what the invariant-theory linear algebra
requires.  Matrix entries of every root-of-unity unitary group live here.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

# the operand kinds exact arithmetic promotes to complex, as Fraction does
INEXACT = (float, complex)


def _mobius(m: int) -> int:
    """The Moebius function, by trial division."""
    mu, p = 1, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if m > 1 else mu


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[Fraction, ...]:
    """Coefficients (ascending) of the n-th cyclotomic polynomial,
    computed over the integers as prod_{d | n} (x^d - 1)^mu(n/d)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    poly = [1]
    # multiply first, so that every division by x^d - 1 below is exact
    for d in divisors:
        if _mobius(n // d) == 1:
            poly = [0] * d + poly  # x^d * poly
            for i in range(len(poly) - d):
                poly[i] -= poly[i + d]
    for d in divisors:
        if _mobius(n // d) == -1:
            # q (x^d - 1) = poly  gives  q_i = q_{i-d} - poly_i
            q = [0] * (len(poly) - d)
            for i in range(len(q)):
                q[i] = (q[i - d] if i >= d else 0) - poly[i]
            assert poly[len(q):] == ([0] * d + q)[len(q):], "inexact division by x^d - 1"
            poly = q
    return tuple(Fraction(c) for c in poly)


class CyclotomicField:
    """The field Q(zeta_N) with cached power-reduction tables."""

    _cache: dict[int, "CyclotomicField"] = {}

    def __new__(cls, n: int):
        if n in cls._cache:
            return cls._cache[n]
        self = super().__new__(cls)
        self.n = n
        phi = list(cyclotomic_polynomial(n))
        self.degree = len(phi) - 1
        # zeta^k reduced modulo the monic integral cyclotomic polynomial, for
        # k = 0..n-1, by zeta^(k+1) = x zeta^k - lead(zeta^k) Phi_n
        low = [int(c) for c in phi[:-1]]
        cur = [1] + [0] * (self.degree - 1)
        table: list[tuple[int, ...]] = []
        for _ in range(n):
            table.append(tuple(cur))
            lead = cur[-1]
            cur = [0] + cur[:-1]
            if lead:
                cur = [c - lead * m for c, m in zip(cur, low)]
        self.zeta_powers = table
        self._power_terms = [[(j, x) for j, x in enumerate(row) if x] for row in table]
        # normalized trace of zeta^i, a primitive m-th root of unity: mu(m)/phi(m),
        # read off Phi_m (mu(m) is minus its second-highest coefficient), kept
        # as integers over one denominator
        weights = []
        for i in range(self.degree):
            phi_m = cyclotomic_polynomial(n // math.gcd(n, i))
            weights.append(-phi_m[-2] / (len(phi_m) - 1))
        self._trace_den = math.lcm(*(w.denominator for w in weights))
        self._trace_nums = [int(w * self._trace_den) for w in weights]
        # exponents k of the Galois conjugates zeta -> zeta^k other than the identity
        self._galois = [k for k in range(2, n) if math.gcd(k, n) == 1]
        z = cmath.exp(2j * cmath.pi / n)
        self._zeta_floats = [z**i for i in range(self.degree)]
        cls._cache[n] = self
        return self

    def _combine(self, nums: Sequence[int], step: int, den: int) -> "Cyclotomic":
        """(sum_k nums[k] zeta^(k*step)) / den for integers nums[k] and den != 0,
        reduced through the power table."""
        out = [0] * self.degree
        for k, c in enumerate(nums):
            if c:
                for j, x in self._power_terms[k * step % self.n]:
                    out[j] += c * x
        return _reduced(self, out, den)

    def element(self, coeffs: Sequence[Fraction]) -> "Cyclotomic":
        """sum_k coeffs[k] zeta^k for rational coefficients, any number of them."""
        fracs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(f.denominator for f in fracs))
        return self._combine([f.numerator * (den // f.denominator) for f in fracs], 1, den)

    def zero(self) -> "Cyclotomic":
        return self.from_rational(0)

    def one(self) -> "Cyclotomic":
        return self.from_rational(1)

    def root(self, power: int = 1) -> "Cyclotomic":
        """zeta_N ** power as a field element."""
        return Cyclotomic(self, self.zeta_powers[power % self.n], 1)

    def from_rational(self, x) -> "Cyclotomic":
        x = Fraction(x)
        return Cyclotomic(self, (x.numerator,) + (0,) * (self.degree - 1), x.denominator)

    def __repr__(self):
        return f"Q(zeta_{self.n})"


def _reduced(field: CyclotomicField, nums: Sequence[int], den: int) -> "Cyclotomic":
    """The element nums / den with a positive denominator coprime to the numerators."""
    g = math.gcd(den, *nums)
    if den < 0:
        g = -g
    return Cyclotomic(field, tuple(c // g for c in nums), den // g)


class Cyclotomic:
    """An element of Q(zeta_N): (sum_k nums[k] zeta^k) / den."""

    __slots__ = ("field", "nums", "den")

    def __init__(self, field: CyclotomicField, nums: tuple[int, ...], den: int):
        self.field = field
        self.nums = nums
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational coefficients of 1, zeta, ..., zeta^(phi(N)-1)."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    # -- coercion -------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            if other.field is self.field:
                return other
            return other._in(CyclotomicField(math.lcm(self.field.n, other.field.n)))
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def _in(self, field: CyclotomicField) -> "Cyclotomic":
        """This element in a field Q(zeta_M) with N dividing M: zeta_N = zeta_M^(M/N)."""
        if field is self.field:
            return self
        return field._combine(self.nums, field.n // self.field.n, self.den)

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return self.to_complex() + other if isinstance(other, INEXACT) else NotImplemented
        a = self._in(o.field)
        den = math.lcm(a.den, o.den)
        sa, so = den // a.den, den // o.den
        return _reduced(a.field, [x * sa + y * so for x, y in zip(a.nums, o.nums)], den)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.field, tuple(-x for x in self.nums), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return self.to_complex() - other if isinstance(other, INEXACT) else NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return other - self.to_complex() if isinstance(other, INEXACT) else NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return self.to_complex() * other if isinstance(other, INEXACT) else NotImplemented
        a = self._in(o.field)
        prod = [0] * (2 * a.field.degree - 1)
        for i, x in enumerate(a.nums):
            if x:
                for j, y in enumerate(o.nums):
                    prod[i + j] += x * y
        return a.field._combine(prod, 1, a.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse: the product of the other Galois conjugates
        divided by the norm, which is that product times this element and
        is rational."""
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        field = self.field
        rest = field.one()
        for k in field._galois:
            rest = rest * self.galois(k)
        norm = self * rest
        return _reduced(field, [c * norm.den for c in rest.nums], rest.den * norm.nums[0])

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return self.to_complex() / other if isinstance(other, INEXACT) else NotImplemented
        a = self._in(o.field)
        return a * o.inverse()

    def __rtruediv__(self, other):
        # a field element on the left divides by its own __truediv__
        if not isinstance(other, (int, Fraction)):
            return other / self.to_complex() if isinstance(other, INEXACT) else NotImplemented
        q, inv = Fraction(other), self.inverse()
        return _reduced(inv.field, [c * q.numerator for c in inv.nums], inv.den * q.denominator)

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation: zeta -> zeta^{-1}."""
        return self.galois(-1)

    def galois(self, k: int) -> "Cyclotomic":
        """The Galois conjugate zeta -> zeta^k, for k coprime to N."""
        return self.field._combine(self.nums, k, self.den)

    def normalized_trace(self) -> Fraction:
        """Tr(x)/[Q(zeta_N):Q]: the same in every field containing x, equal
        for Galois conjugates, and x itself for rational x."""
        f = self.field
        trace = sum(c * t for c, t in zip(self.nums, f._trace_nums))
        return Fraction(trace, self.den * f._trace_den)

    # -- predicates / conversion -----------------------------------------
    def __bool__(self) -> bool:
        return any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.nums[0], self.den)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a = self._in(o.field)
        return a.den == o.den and a.nums == o.nums

    def __hash__(self):
        # equal elements written in different fields share a normalized trace
        return hash(self.normalized_trace())

    def to_complex(self) -> complex:
        total = 0j
        for c, z in zip(self.nums, self.field._zeta_floats):
            if c:
                total += c / self.den * z
        return total

    __complex__ = to_complex

    def to_exact_complex(self) -> "ExactComplex":
        """The exact Gaussian-rational value, decided by value: raises
        ValueError unless this element lies in Q(i), whichever field it is
        written in."""
        from .scalars import ExactComplex  # scalars builds on this module

        # in Q(zeta_L), L = lcm(N, 4): 2 re = x + conj x, 2 im = -i (x - conj x)
        field = CyclotomicField(math.lcm(self.field.n, 4))
        x = self._in(field)
        c = x.conjugate()
        re2, im2 = x + c, (c - x) * field.root(field.n // 4)
        if not (re2.is_rational() and im2.is_rational()):
            raise ValueError(f"{self} is not a Gaussian rational")
        return ExactComplex(
            Fraction(re2.nums[0], 2 * re2.den), Fraction(im2.nums[0], 2 * im2.den)
        )

    def __repr__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(f"{c}")
            elif i == 1:
                parts.append(f"{c}*z{self.field.n}")
            else:
                parts.append(f"{c}*z{self.field.n}^{i}")
        return " + ".join(parts) if parts else "0"


def root_of_unity(n: int, power: int = 1) -> Cyclotomic:
    """Convenience constructor for zeta_n ** power."""
    return CyclotomicField(n).root(power)
