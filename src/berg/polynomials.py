"""Sparse multivariate polynomial algebra in z and conj(z).

Two polynomial flavors cover everything in this package:

* :class:`HoloPolynomial` - holomorphic polynomials in z, used for
  invariant theory, covering maps and their Jacobians;
* :class:`HermitianPolynomial` - polynomials in (z, conj(z)) evaluated in
  polarized form p(z, conj(w)), used for defining functions and fitted
  relation coefficients.

Coefficients are duck-typed: Python complex, Fraction, ExactComplex and
Cyclotomic all work, and exact kinds stay exact through every operation.
Storage is sparse (exponent tuples to coefficients): invariant-theory
degrees grow with the group order and dense storage would be wasteful.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .scalars import ExactComplex, conj_scalar, scalar_is_zero, to_complex


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

    def factorial(self) -> int:
        out = 1
        for e in self:
            f = 1
            for k in range(2, e + 1):
                f *= k
            out *= f
        return out


def zero_index(n: int) -> MultiIndex:
    return MultiIndex((0,) * n)


def unit_index(n: int, i: int) -> MultiIndex:
    return MultiIndex(tuple(1 if j == i else 0 for j in range(n)))


def monomials_of_degree(nvars: int, degree: int) -> Iterator[MultiIndex]:
    """All exponent vectors of the given total degree, graded-lex order.

    Graded-lex with z_1 > z_2 > ...: within a degree, larger exponent on
    earlier variables comes first, e.g. (2,0), (1,1), (0,2).
    """
    if nvars == 0:
        if degree == 0:
            yield MultiIndex(())
        return
    if nvars == 1:
        yield MultiIndex((degree,))
        return
    for first in range(degree, -1, -1):
        for rest in monomials_of_degree(nvars - 1, degree - first):
            yield MultiIndex((first,) + tuple(rest))


def monomials_up_to_degree(nvars: int, degree: int) -> Iterator[MultiIndex]:
    for d in range(degree + 1):
        yield from monomials_of_degree(nvars, d)


def _eval_power(base, exponent: int):
    out = None
    for _ in range(exponent):
        out = base if out is None else out * base
    return out


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
                if not scalar_is_zero(c):
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
        if isinstance(other, (int, Fraction, complex, ExactComplex)):
            other = HoloPolynomial.constant(self.dim, other)
        if not isinstance(other, HoloPolynomial):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError("polynomial dimension mismatch")
        out = dict(self.terms)
        for idx, c in other.terms.items():
            cur = out.get(idx)
            new = (c if sign > 0 else -c) if cur is None else (cur + c if sign > 0 else cur - c)
            if scalar_is_zero(new):
                out.pop(idx, None)
            else:
                out[idx] = new
        return HoloPolynomial(self.dim, out)

    def __add__(self, other):
        return self._binop(other, +1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, -1)

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
                    if scalar_is_zero(new):
                        out.pop(idx, None)
                    else:
                        out[idx] = new
            return HoloPolynomial(self.dim, out)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c) -> "HoloPolynomial":
        if scalar_is_zero(c):
            return HoloPolynomial(self.dim)
        return HoloPolynomial(self.dim, {a: v * c for a, v in self.terms.items()})

    def __pow__(self, n: int) -> "HoloPolynomial":
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
        out = HoloPolynomial(n)
        for a, c in self.terms.items():
            term = HoloPolynomial.constant(n, c)
            for i, e in enumerate(a):
                for _ in range(e):
                    term = term * linear_forms[i]
            out = out + term
        return out

    def eval(self, point: Sequence):
        total = None
        for a, c in self.terms.items():
            mono = _eval_monomial(point, a)
            val = c if mono is None else c * mono
            total = val if total is None else total + val
        if total is None:
            return 0
        return total

    def __call__(self, point: Sequence):
        return self.eval(point)

    def leading_monomial(self) -> MultiIndex:
        """Largest monomial in graded-lex order."""
        if self.is_zero():
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=lambda a: (a.degree, a))

    def to_complex_coeffs(self) -> "HoloPolynomial":
        return HoloPolynomial(self.dim, {a: to_complex(c) for a, c in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for a in sorted(self.terms, key=lambda t: (t.degree, tuple(-e for e in t))):
            mono = "*".join(f"z{i+1}^{e}" if e > 1 else f"z{i+1}" for i, e in enumerate(a) if e)
            c = self.terms[a]
            parts.append(f"({c})" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)


class SymmetricPowerTable:
    """Images (Az)^alpha of the monomials under a list of square matrices,
    averaged over the list, grown one degree at a time.

    The degree-d images come from the degree-(d-1) ones by one product with
    a linear form, (Az)^alpha = (Az)^(alpha - e_i) * (Az)_i, where i is the
    last variable alpha uses.  Per matrix only the images at the highest
    degree reached are kept; the averages are kept for every degree.

    With ``fixed``, a predicate on exponent vectors, the list holds one
    element r of each coset rH of a diagonal subgroup H of a group G, and
    ``fixed(beta)`` tells whether H fixes z^beta.  A diagonal h multiplies
    z^beta by a root of unity, so the average of (rhz)^alpha over H keeps
    exactly the fixed terms of (rz)^alpha: the group average is the
    average over the representatives with the other terms dropped, and it
    vanishes in a degree with no fixed monomial.
    """

    def __init__(self, dim: int, matrices: Sequence[Sequence[Sequence]], fixed=None):
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

    def _kept_terms(self, degree: int) -> frozenset | None:
        """The fixed monomials of a degree, or None when all of them are."""
        if self._fixed is None:
            return None
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
            if kept is not None:
                total = HoloPolynomial(self.dim, {b: c for b, c in total.terms.items() if b in kept})
            self._averages[alpha] = total.scale(self._weight)


class HermitianPolynomial:
    """Sparse polynomial in (z, conj(z)) with polarized evaluation p(z, conj(w)).

    Terms map (holomorphic index, antiholomorphic index) pairs to
    coefficients.  A real-valued polynomial satisfies
    coeff(a, b) == conj(coeff(b, a)); :meth:`is_real_valued` checks this
    exactly for exact coefficients.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Mapping[tuple, object] | None = None):
        self.dim = dim
        clean: dict[tuple[MultiIndex, MultiIndex], object] = {}
        if terms:
            for (a, b), c in terms.items():
                if not isinstance(a, MultiIndex) or not isinstance(b, MultiIndex):
                    a, b = MultiIndex(a), MultiIndex(b)
                if len(a) != dim or len(b) != dim:
                    raise ValueError("exponent length does not match dimension")
                if not scalar_is_zero(c):
                    clean[(a, b)] = c
        self.terms = clean

    # -- constructors ----------------------------------------------------
    @staticmethod
    def term(dim: int, holo: Iterable[int], anti: Iterable[int], coeff=1) -> "HermitianPolynomial":
        return HermitianPolynomial(dim, {(MultiIndex(holo), MultiIndex(anti)): coeff})

    @staticmethod
    def constant(dim: int, c) -> "HermitianPolynomial":
        z = zero_index(dim)
        return HermitianPolynomial(dim, {(z, z): c})

    @staticmethod
    def modulus_squared(dim: int, i: int) -> "HermitianPolynomial":
        """|z_i|^2 as a Hermitian polynomial."""
        u = unit_index(dim, i)
        return HermitianPolynomial(dim, {(u, u): 1})

    # -- arithmetic --------------------------------------------------------
    def _binop(self, other, sign: int):
        if isinstance(other, (int, Fraction, complex, ExactComplex)):
            other = HermitianPolynomial.constant(self.dim, other)
        if not isinstance(other, HermitianPolynomial):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError("polynomial dimension mismatch")
        out = dict(self.terms)
        for key, c in other.terms.items():
            cur = out.get(key)
            new = (c if sign > 0 else -c) if cur is None else (cur + c if sign > 0 else cur - c)
            if scalar_is_zero(new):
                out.pop(key, None)
            else:
                out[key] = new
        return HermitianPolynomial(self.dim, out)

    def __add__(self, other):
        return self._binop(other, +1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, -1)

    def __neg__(self):
        return HermitianPolynomial(self.dim, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, HermitianPolynomial):
            if other.dim != self.dim:
                raise ValueError("polynomial dimension mismatch")
            out: dict[tuple, object] = {}
            for (a1, b1), c1 in self.terms.items():
                for (a2, b2), c2 in other.terms.items():
                    key = (a1 + a2, b1 + b2)
                    c = c1 * c2
                    cur = out.get(key)
                    new = c if cur is None else cur + c
                    if scalar_is_zero(new):
                        out.pop(key, None)
                    else:
                        out[key] = new
            return HermitianPolynomial(self.dim, out)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c) -> "HermitianPolynomial":
        if scalar_is_zero(c):
            return HermitianPolynomial(self.dim)
        return HermitianPolynomial(self.dim, {k: v * c for k, v in self.terms.items()})

    def __pow__(self, n: int) -> "HermitianPolynomial":
        out = HermitianPolynomial.constant(self.dim, 1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, HermitianPolynomial):
            return NotImplemented
        return self.dim == other.dim and (self - other).is_zero()

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    # -- structure ----------------------------------------------------------
    def conj_swap(self) -> "HermitianPolynomial":
        """Exchange holomorphic and antiholomorphic indices and conjugate."""
        return HermitianPolynomial(
            self.dim, {(b, a): conj_scalar(c) for (a, b), c in self.terms.items()}
        )

    def is_real_valued(self, tol: float = 0.0) -> bool:
        diff = self - self.conj_swap()
        if not diff.terms:
            return True
        if tol > 0:
            return all(abs(to_complex(c)) <= tol for c in diff.terms.values())
        return False

    def bidegree(self) -> tuple[int, int]:
        dh = max((a.degree for a, _ in self.terms), default=0)
        da = max((b.degree for _, b in self.terms), default=0)
        return dh, da

    # -- calculus -------------------------------------------------------------
    def d_z(self, i: int) -> "HermitianPolynomial":
        out: dict[tuple, object] = {}
        for (a, b), c in self.terms.items():
            if a[i] == 0:
                continue
            na = MultiIndex(tuple(e - 1 if j == i else e for j, e in enumerate(a)))
            out[(na, b)] = c * a[i]
        return HermitianPolynomial(self.dim, out)

    def d_zbar(self, i: int) -> "HermitianPolynomial":
        out: dict[tuple, object] = {}
        for (a, b), c in self.terms.items():
            if b[i] == 0:
                continue
            nb = MultiIndex(tuple(e - 1 if j == i else e for j, e in enumerate(b)))
            out[(a, nb)] = c * b[i]
        return HermitianPolynomial(self.dim, out)

    # -- evaluation -------------------------------------------------------------
    def eval(self, z: Sequence, w: Sequence | None = None):
        """Polarized value sum of coeff * z^a * conj(w)^b; w defaults to z."""
        if w is None:
            w = z
        if len(z) != self.dim or len(w) != self.dim:
            raise ValueError(
                f"point dimension mismatch: polynomial has dim {self.dim}, "
                f"got {len(z)} and {len(w)}"
            )
        wbar = [conj_scalar(x) for x in w]
        total = None
        for (a, b), c in self.terms.items():
            mono_a = _eval_monomial(z, a)
            mono_b = _eval_monomial(wbar, b)
            val = c
            if mono_a is not None:
                val = val * mono_a
            if mono_b is not None:
                val = val * mono_b
            total = val if total is None else total + val
        if total is None:
            return 0
        return total

    def __call__(self, z, w=None):
        return self.eval(z, w)

    def to_complex_coeffs(self) -> "HermitianPolynomial":
        return HermitianPolynomial(
            self.dim, {k: to_complex(c) for k, c in self.terms.items()}
        )

    # -- serialization ------------------------------------------------------------
    def to_json_dict(self) -> dict:
        rows = []
        for (a, b) in sorted(self.terms, key=lambda k: (tuple(k[0]), tuple(k[1]))):
            c = to_complex(self.terms[(a, b)])
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
        if not self.terms:
            return "0"
        parts = []
        for (a, b) in sorted(self.terms, key=lambda k: (tuple(k[0]), tuple(k[1]))):
            holo = "*".join(f"z{i+1}^{e}" if e > 1 else f"z{i+1}" for i, e in enumerate(a) if e)
            anti = "*".join(f"w{i+1}b^{e}" if e > 1 else f"w{i+1}b" for i, e in enumerate(b) if e)
            mono = "*".join(x for x in (holo, anti) if x)
            c = self.terms[(a, b)]
            parts.append(f"({c})" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)


def minimal_poly_check(samples: Sequence[tuple], candidate) -> float:
    """Max |P(x_i, y_i)| over samples for a candidate polynomial relation.

    ``candidate`` is a polynomial in k+1 variables, evaluated at the point
    (x_1, ..., x_k, y) for each sample (x, y).  A zero candidate or an
    empty sample list is rejected.
    """
    if not samples:
        raise ValueError("empty sample list")
    if candidate.is_zero():
        raise ValueError("candidate polynomial must be nonzero")
    worst = 0.0
    for x, y in samples:
        xs = list(x) if isinstance(x, (tuple, list)) else [x]
        point = xs + [y]
        val = candidate.eval(point)
        worst = max(worst, abs(to_complex(val)))
    return worst
