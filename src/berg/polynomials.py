"""Sparse multivariate polynomial algebra in z and conj(z).

One arithmetic, :class:`HoloPolynomial`, holomorphic polynomials in z,
covers everything in this package: invariant theory, covering maps and
their Jacobians.  Substituting polynomials into a polynomial (a linear
change of variables, a relation among invariants) is its ``eval`` at
polynomial arguments.

:class:`HermitianPolynomial` - defining functions and fitted relation
coefficients - is a polarized view of it: a HoloPolynomial in the 2n
variables (z, conj(w)), shown keyed by (holomorphic, antiholomorphic)
index pairs and evaluated as p(z, conj(w)).

Coefficients are any scalars of Python's number protocol: int, Fraction,
float, complex, ExactComplex and Cyclotomic.  A falsy coefficient is a
zero term and is dropped, and exact kinds stay exact through every
operation.
Storage is sparse (exponent tuples to coefficients): invariant-theory
degrees grow with the group order and dense storage would be wasteful.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .cyclotomic import Cyclotomic
from .scalars import ExactComplex

# the scalar kinds a polynomial adds as a constant
_SCALARS = (int, Fraction, float, complex, ExactComplex, Cyclotomic)


class MultiIndex(tuple):
    """An exponent vector: a tuple of nonnegative integers."""

    def __new__(cls, entries: Iterable[int]):
        t = tuple(int(e) for e in entries)
        if any(e < 0 for e in t):
            raise ValueError(f"multi-index entries must be nonnegative, got {t}")
        return super().__new__(cls, t)

    @property
    def degree(self) -> int:
        return sum(self)

    def __add__(self, other: "MultiIndex") -> "MultiIndex":
        if len(self) != len(other):
            raise ValueError("multi-index length mismatch")
        # both are nonnegative, so their sum needs no scan
        return tuple.__new__(MultiIndex, [a + b for a, b in zip(self, other)])


def zero_index(n: int) -> MultiIndex:
    return MultiIndex((0,) * n)


def unit_index(n: int, i: int) -> MultiIndex:
    return MultiIndex(tuple(1 if j == i else 0 for j in range(n)))


def monomials_of_degree(nvars: int, degree: int) -> Iterator[MultiIndex]:
    """All exponent vectors of the given total degree, graded-lex order.

    Graded-lex with z_1 > z_2 > ...: within a degree, larger exponent on
    earlier variables comes first, e.g. (2,0), (1,1), (0,2).  That is the
    order of the sorted variable multisets, so each one is counted into
    its exponent vector.
    """
    for variables in itertools.combinations_with_replacement(range(nvars), degree):
        alpha = [0] * nvars
        for i in variables:
            alpha[i] += 1
        yield tuple.__new__(MultiIndex, alpha)


def monomials_up_to_degree(nvars: int, degree: int) -> Iterator[MultiIndex]:
    for d in range(degree + 1):
        yield from monomials_of_degree(nvars, d)


def _eval_power(base, exponent: int):
    out = None
    for _ in range(exponent):
        out = base if out is None else out * base
    return out


def _monomial_text(alpha: Sequence[int], name: str = "z{}") -> str:
    """The monomial as text, e.g. z1^2*z3 for (2, 0, 1)."""
    return "*".join(
        name.format(i + 1) + (f"^{e}" if e > 1 else "") for i, e in enumerate(alpha) if e
    )


def _eval_monomial(point: Sequence, alpha: MultiIndex):
    """point ** alpha, None meaning the empty product (exact one)."""
    out = None
    for x, e in zip(point, alpha):
        if e == 0:
            continue
        p = _eval_power(x, e)
        out = p if out is None else out * p
    return out


class HoloPolynomial:
    """Sparse holomorphic polynomial in n complex variables."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Mapping[MultiIndex, object] | None = None):
        self.dim = dim
        clean: dict[MultiIndex, object] = {}
        if terms:
            for idx, c in terms.items():
                if not isinstance(idx, MultiIndex):
                    idx = MultiIndex(idx)
                if len(idx) != dim:
                    raise ValueError("exponent length does not match dimension")
                if c:
                    clean[idx] = c
        self.terms = clean

    # -- constructors ---------------------------------------------------
    @staticmethod
    def monomial(dim: int, alpha: Iterable[int], coeff=1) -> "HoloPolynomial":
        return HoloPolynomial(dim, {MultiIndex(alpha): coeff})

    @staticmethod
    def coordinate(dim: int, i: int) -> "HoloPolynomial":
        return HoloPolynomial.monomial(dim, unit_index(dim, i))

    @staticmethod
    def constant(dim: int, c) -> "HoloPolynomial":
        return HoloPolynomial(dim, {zero_index(dim): c})

    # -- structure ------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((a.degree for a in self.terms), default=0)

    # -- arithmetic -------------------------------------------------------
    def _binop(self, other, sign: int) -> "HoloPolynomial":
        if isinstance(other, _SCALARS):
            other = HoloPolynomial.constant(self.dim, other)
        if not isinstance(other, HoloPolynomial):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError("polynomial dimension mismatch")
        out = dict(self.terms)
        for idx, c in other.terms.items():
            cur = out.get(idx)
            new = (c if sign > 0 else -c) if cur is None else (cur + c if sign > 0 else cur - c)
            if not new:
                out.pop(idx, None)
            else:
                out[idx] = new
        return HoloPolynomial(self.dim, out)

    def __add__(self, other):
        return self._binop(other, +1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, -1)

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return HoloPolynomial(self.dim, {a: -c for a, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, HoloPolynomial):
            if other.dim != self.dim:
                raise ValueError("polynomial dimension mismatch")
            out: dict[MultiIndex, object] = {}
            for a, ca in self.terms.items():
                for b, cb in other.terms.items():
                    idx = a + b
                    c = ca * cb
                    cur = out.get(idx)
                    new = c if cur is None else cur + c
                    if not new:
                        out.pop(idx, None)
                    else:
                        out[idx] = new
            return HoloPolynomial(self.dim, out)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c) -> "HoloPolynomial":
        if not c:
            return HoloPolynomial(self.dim)
        return HoloPolynomial(self.dim, {a: v * c for a, v in self.terms.items()})

    def __pow__(self, n: int) -> "HoloPolynomial":
        if n < 0:
            raise ValueError(f"a polynomial has no negative power, got exponent {n}")
        out = HoloPolynomial.constant(self.dim, 1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, HoloPolynomial):
            return NotImplemented
        return self.dim == other.dim and (self - other).is_zero()

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    # -- calculus / composition -----------------------------------------
    def partial(self, i: int) -> "HoloPolynomial":
        out: dict[MultiIndex, object] = {}
        for a, c in self.terms.items():
            if a[i] == 0:
                continue
            idx = MultiIndex(tuple(e - 1 if j == i else e for j, e in enumerate(a)))
            out[idx] = c * a[i]
        return HoloPolynomial(self.dim, out)

    def compose_linear(self, matrix: Sequence[Sequence]) -> "HoloPolynomial":
        """f(Az) for a square matrix A acting on the variables."""
        n = self.dim
        linear_forms = [
            HoloPolynomial(n, {unit_index(n, j): matrix[i][j] for j in range(n)})
            for i in range(n)
        ]
        return HoloPolynomial(n) + self.eval(linear_forms)

    def eval(self, point: Sequence):
        """The value at a point; its coordinates may be polynomials, and a
        constant result then comes back as a scalar."""
        if len(point) != self.dim:
            raise ValueError(
                f"point dimension mismatch: polynomial has dim {self.dim}, got {len(point)}"
            )
        total = None
        for a, c in self.terms.items():
            mono = _eval_monomial(point, a)
            val = c if mono is None else c * mono
            total = val if total is None else total + val
        if total is None:
            return 0
        return total

    def leading_monomial(self) -> MultiIndex:
        """Largest monomial in graded-lex order."""
        if self.is_zero():
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=lambda a: (a.degree, a))

    def to_complex_coeffs(self) -> "HoloPolynomial":
        return HoloPolynomial(self.dim, {a: complex(c) for a, c in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for a in sorted(self.terms, key=lambda t: (t.degree, tuple(-e for e in t))):
            mono = _monomial_text(a)
            c = self.terms[a]
            parts.append(f"({c})" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)


class SymmetricPowerTable:
    """Group averages of the images (gz)^alpha of the monomials, grown one
    degree at a time.

    The matrices are one element r of each coset rH of a diagonal subgroup
    H of a group G, and ``fixed``, a predicate on exponent vectors, tells
    whether H fixes z^beta.  The degree-d images come from the degree-(d-1)
    ones by one product with a linear form, (rz)^alpha = (rz)^(alpha - e_i)
    * (rz)_i, where i is the last variable alpha uses.  Per matrix only the
    images at the highest degree reached are kept; the averages are kept
    for every degree.

    A diagonal h multiplies z^beta by a root of unity, so the average of
    (rhz)^alpha over H keeps exactly the fixed terms of (rz)^alpha: the
    group average is the average over the representatives with the other
    terms dropped, and it vanishes in a degree with no fixed monomial.
    """

    def __init__(self, dim: int, matrices: Sequence[Sequence[Sequence]], fixed):
        self.dim = dim
        self._forms = [
            [HoloPolynomial.coordinate(dim, i).compose_linear(m) for i in range(dim)]
            for m in matrices
        ]
        one = HoloPolynomial.constant(dim, 1)
        self._images = [{zero_index(dim): one} for _ in matrices]
        self._weight = Fraction(1, len(matrices))
        self._fixed = fixed
        self._kept: dict[int, frozenset] = {}
        self._averages = {zero_index(dim): one}
        self.degree = 0

    def _kept_terms(self, degree: int) -> frozenset:
        """The fixed monomials of a degree."""
        if degree not in self._kept:
            self._kept[degree] = frozenset(
                b for b in monomials_of_degree(self.dim, degree) if self._fixed(b)
            )
        return self._kept[degree]

    def average(self, alpha: MultiIndex) -> HoloPolynomial:
        """The group average of (Az)^alpha; do not modify it."""
        if self._kept_terms(alpha.degree) == frozenset():
            return HoloPolynomial(self.dim)
        while self.degree < alpha.degree:
            self._grow()
        return self._averages[alpha]

    def _grow(self) -> None:
        steps = []
        for alpha in monomials_of_degree(self.dim, self.degree + 1):
            i = max(k for k, e in enumerate(alpha) if e)
            steps.append((alpha, MultiIndex(e - (k == i) for k, e in enumerate(alpha)), i))
        self._images = [
            {alpha: images[prev] * forms[i] for alpha, prev, i in steps}
            for forms, images in zip(self._forms, self._images)
        ]
        self.degree += 1
        kept = self._kept_terms(self.degree)
        if kept == frozenset():
            return
        for alpha, _, _ in steps:
            total = HoloPolynomial(self.dim)
            for images in self._images:
                total = total + images[alpha]
            total = HoloPolynomial(self.dim, {b: c for b, c in total.terms.items() if b in kept})
            self._averages[alpha] = total.scale(self._weight)


class HermitianPolynomial:
    """Sparse polynomial in (z, conj(z)) with polarized evaluation p(z, conj(w)).

    A polarized view of one :class:`HoloPolynomial` ``poly`` in the 2n
    variables (z_1..z_n, conj(w)_1..conj(w)_n): every operation is that
    polynomial's.  :attr:`terms` shows it keyed by (holomorphic index,
    antiholomorphic index) pairs.  A real-valued polynomial satisfies
    coeff(a, b) == conj(coeff(b, a)); :meth:`is_real_valued` checks this
    exactly for exact coefficients.
    """

    __slots__ = ("dim", "poly")

    def __init__(self, dim: int, terms: Mapping[tuple, object] | None = None):
        joined = {}
        for (a, b), c in (terms or {}).items():
            if len(a) != dim or len(b) != dim:
                raise ValueError("exponent length does not match dimension")
            joined[tuple(a) + tuple(b)] = c
        self.dim = dim
        self.poly = HoloPolynomial(2 * dim, joined)

    @staticmethod
    def _of(dim: int, poly) -> "HermitianPolynomial":
        """Wrap a HoloPolynomial in the 2 dim variables (z, conj(w));
        NotImplemented from its operators passes through."""
        if poly is NotImplemented:
            return poly
        out = object.__new__(HermitianPolynomial)
        out.dim, out.poly = dim, poly
        return out

    @staticmethod
    def _operand(other):
        """What an operand is to ``poly``: a Hermitian polynomial its own
        ``poly``, a scalar itself; None for a holomorphic polynomial."""
        if isinstance(other, HermitianPolynomial):
            return other.poly
        return None if isinstance(other, HoloPolynomial) else other

    @property
    def terms(self) -> dict[tuple[MultiIndex, MultiIndex], object]:
        """The terms keyed by (holomorphic, antiholomorphic) index: a fresh
        snapshot, so changing it does not change the polynomial."""
        n = self.dim
        return {(MultiIndex(k[:n]), MultiIndex(k[n:])): c for k, c in self.poly.terms.items()}

    # -- constructors ----------------------------------------------------
    @staticmethod
    def term(dim: int, holo: Iterable[int], anti: Iterable[int], coeff=1) -> "HermitianPolynomial":
        return HermitianPolynomial(dim, {(tuple(holo), tuple(anti)): coeff})

    @staticmethod
    def constant(dim: int, c) -> "HermitianPolynomial":
        return HermitianPolynomial._of(dim, HoloPolynomial.constant(2 * dim, c))

    @staticmethod
    def modulus_squared(dim: int, i: int) -> "HermitianPolynomial":
        """|z_i|^2 as a Hermitian polynomial."""
        u = unit_index(dim, i)
        return HermitianPolynomial(dim, {(u, u): 1})

    # -- arithmetic: the HoloPolynomial's ---------------------------------
    def __add__(self, other):
        return self._of(self.dim, self.poly._binop(self._operand(other), +1))

    __radd__ = __add__

    def __sub__(self, other):
        return self._of(self.dim, self.poly._binop(self._operand(other), -1))

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return self._of(self.dim, -self.poly)

    def __mul__(self, other):
        other = self._operand(other)
        return NotImplemented if other is None else self._of(self.dim, self.poly * other)

    __rmul__ = __mul__

    def scale(self, c) -> "HermitianPolynomial":
        return self._of(self.dim, self.poly.scale(c))

    def __pow__(self, n: int) -> "HermitianPolynomial":
        return self._of(self.dim, self.poly**n)

    def __eq__(self, other):
        if not isinstance(other, HermitianPolynomial):
            return NotImplemented
        return self.poly == other.poly

    def __hash__(self):
        return hash(self.poly)

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    # -- structure ----------------------------------------------------------
    def conj_swap(self) -> "HermitianPolynomial":
        """Exchange holomorphic and antiholomorphic indices and conjugate."""
        n = self.dim
        return self._of(n, HoloPolynomial(
            2 * n, {k[n:] + k[:n]: c.conjugate() for k, c in self.poly.terms.items()}
        ))

    def is_real_valued(self, tol: float = 0.0) -> bool:
        diff = (self - self.conj_swap()).poly.terms
        if not diff:
            return True
        if tol > 0:
            return all(abs(complex(c)) <= tol for c in diff.values())
        return False

    # -- calculus -------------------------------------------------------------
    def d_z(self, i: int) -> "HermitianPolynomial":
        return self._of(self.dim, self.poly.partial(i))

    def d_zbar(self, i: int) -> "HermitianPolynomial":
        return self._of(self.dim, self.poly.partial(self.dim + i))

    # -- evaluation -------------------------------------------------------------
    def eval(self, z: Sequence, w: Sequence | None = None):
        """Polarized value sum of (coeff * z^a) * conj(w)^b; w defaults to z."""
        if w is None:
            w = z
        if len(z) != self.dim or len(w) != self.dim:
            raise ValueError(
                f"point dimension mismatch: polynomial has dim {self.dim}, "
                f"got {len(z)} and {len(w)}"
            )
        n = self.dim
        wbar = [x.conjugate() for x in w]
        total = None
        for k, val in self.poly.terms.items():
            for mono in (_eval_monomial(z, k[:n]), _eval_monomial(wbar, k[n:])):
                if mono is not None:
                    val = val * mono
            total = val if total is None else total + val
        if total is None:
            return 0
        return total

    def to_complex_coeffs(self) -> "HermitianPolynomial":
        return self._of(self.dim, self.poly.to_complex_coeffs())

    # -- serialization ------------------------------------------------------------
    def to_json_dict(self) -> dict:
        rows = []
        for (a, b), c in sorted(self.terms.items()):
            c = complex(c)
            rows.append([list(a), list(b), c.real, c.imag])
        return {"dim": self.dim, "terms": rows}

    @staticmethod
    def from_json_dict(data: Mapping) -> "HermitianPolynomial":
        dim = int(data["dim"])
        terms = {}
        for a, b, re, im in data["terms"]:
            terms[(MultiIndex(a), MultiIndex(b))] = complex(re, im)
        return HermitianPolynomial(dim, terms)

    def __repr__(self):
        if not self.poly.terms:
            return "0"
        parts = []
        for (a, b), c in sorted(self.terms.items()):
            holo, anti = _monomial_text(a), _monomial_text(b, "w{}b")
            mono = "*".join(x for x in (holo, anti) if x)
            parts.append(f"({c})" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)

