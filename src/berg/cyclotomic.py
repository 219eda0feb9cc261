"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are stored as polynomials in a primitive N-th root of unity,
reduced modulo the N-th cyclotomic polynomial, with rational coefficients.
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


# ---------------------------------------------------------------------------
# dense univariate polynomial helpers over Fraction (internal)
# ---------------------------------------------------------------------------

def _poly_trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _poly_trim(out)


def _poly_divmod(a: Sequence[Fraction], b: Sequence[Fraction]):
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
        self.modulus = phi
        self.degree = len(phi) - 1
        # zeta^k reduced modulo the monic integral cyclotomic polynomial, for
        # k = 0..n-1, by zeta^(k+1) = x zeta^k - lead(zeta^k) Phi_n
        low = [int(c) for c in phi[:-1]]
        cur = [1] + [0] * (self.degree - 1)
        table: list[tuple[Fraction, ...]] = []
        for _ in range(n):
            table.append(tuple(Fraction(c) for c in cur))
            lead = cur[-1]
            cur = [0] + cur[:-1]
            if lead:
                cur = [c - lead * m for c, m in zip(cur, low)]
        self.zeta_powers = table
        # normalized trace of zeta^i, a primitive m-th root of unity: mu(m)/phi(m),
        # read off Phi_m (mu(m) is minus its second-highest coefficient)
        self.trace_weights = []
        for i in range(self.degree):
            phi_m = cyclotomic_polynomial(n // math.gcd(n, i))
            self.trace_weights.append(-phi_m[-2] / (len(phi_m) - 1))
        cls._cache[n] = self
        return self

    def element(self, coeffs: Sequence[Fraction]) -> "Cyclotomic":
        c = list(coeffs) + [Fraction(0)] * (self.degree - len(coeffs))
        if len(c) > self.degree:
            _, c = _poly_divmod(c, self.modulus)
            c = c + [Fraction(0)] * (self.degree - len(c))
        return Cyclotomic(self, tuple(Fraction(x) for x in c))

    def zero(self) -> "Cyclotomic":
        return self.element([])

    def one(self) -> "Cyclotomic":
        return self.element([Fraction(1)])

    def root(self, power: int = 1) -> "Cyclotomic":
        """zeta_N ** power as a field element."""
        return Cyclotomic(self, self.zeta_powers[power % self.n])

    def from_rational(self, x) -> "Cyclotomic":
        return self.element([Fraction(x)])

    def __repr__(self):
        return f"Q(zeta_{self.n})"


class Cyclotomic:
    """An element of Q(zeta_N)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: CyclotomicField, coeffs: tuple[Fraction, ...]):
        self.field = field
        self.coeffs = coeffs

    # -- coercion -------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            if other.field is self.field:
                return other
            n = math.lcm(self.field.n, other.field.n)
            big = CyclotomicField(n)
            return _embed(other, big)
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def _self_in(self, field: CyclotomicField) -> "Cyclotomic":
        if field is self.field:
            return self
        return _embed(self, field)

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a = self._self_in(o.field)
        return Cyclotomic(a.field, tuple(x + y for x, y in zip(a.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.field, tuple(-x for x in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a = self._self_in(o.field)
        prod = _poly_mul(list(a.coeffs), list(o.coeffs))
        _, red = _poly_divmod(prod, a.field.modulus)
        red = red + [Fraction(0)] * (a.field.degree - len(red))
        return Cyclotomic(a.field, tuple(red))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse via the extended Euclidean algorithm."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        # gcd(self, modulus) = 1 since the modulus is irreducible over Q
        r0, r1 = list(self.field.modulus), _poly_trim(list(self.coeffs))
        s0, s1 = [], [Fraction(1)]
        while r1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            qs = _poly_mul(q, s1)
            news = [Fraction(0)] * max(len(s0), len(qs))
            for i, x in enumerate(s0):
                news[i] += x
            for i, x in enumerate(qs):
                news[i] -= x
            s0, s1 = s1, _poly_trim(news)
        # r0 = gcd (a nonzero constant), s0 solves self * s0 = r0 (mod modulus)
        c = r0[0]
        inv = [x / c for x in s0]
        return self.field.element(inv)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a = self._self_in(o.field)
        return a * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation: zeta -> zeta^{-1}."""
        n = self.field.n
        out = [Fraction(0)] * self.field.degree
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            for j, x in enumerate(self.field.zeta_powers[(n - i) % n]):
                out[j] += c * x
        return Cyclotomic(self.field, tuple(out))

    # -- predicates / conversion -----------------------------------------
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).is_zero()

    def __hash__(self):
        # the normalized trace Tr(x)/[Q(zeta_N):Q] is the same in every field
        # containing x, and is x itself for rational x
        return hash(sum(c * t for c, t in zip(self.coeffs, self.field.trace_weights)))

    def to_complex(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.field.n)
        total = 0j
        for i, c in enumerate(self.coeffs):
            if c != 0:
                total += float(c) * z**i
        return total

    def to_exact_complex(self) -> "ExactComplex":
        """Exact Gaussian-rational value; only possible when N divides 4."""
        from .scalars import ExactComplex  # scalars builds on this module

        n = self.field.n
        if n not in (1, 2, 4):
            raise ValueError(f"Q(zeta_{n}) does not embed in the Gaussian rationals")
        re = Fraction(0)
        im = Fraction(0)
        # zeta_1 = 1, zeta_2 = -1, zeta_4 = i
        unit_re = {1: Fraction(1), 2: Fraction(-1), 4: Fraction(0)}[n]
        unit_im = {1: Fraction(0), 2: Fraction(0), 4: Fraction(1)}[n]
        cur_re, cur_im = Fraction(1), Fraction(0)
        for c in self.coeffs:
            re += c * cur_re
            im += c * cur_im
            cur_re, cur_im = (
                cur_re * unit_re - cur_im * unit_im,
                cur_re * unit_im + cur_im * unit_re,
            )
        return ExactComplex(re, im)

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


def _embed(x: Cyclotomic, big: CyclotomicField) -> Cyclotomic:
    step = big.n // x.field.n
    if big.n % x.field.n:
        raise ValueError("target field does not contain the source field")
    out = [Fraction(0)] * big.degree
    for i, c in enumerate(x.coeffs):
        if c == 0:
            continue
        for j, v in enumerate(big.zeta_powers[(i * step) % big.n]):
            out[j] += c * v
    return Cyclotomic(big, tuple(out))


def root_of_unity(n: int, power: int = 1) -> Cyclotomic:
    """Convenience constructor for zeta_n ** power."""
    return CyclotomicField(n).root(power)
