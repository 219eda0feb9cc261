"""Finite unitary matrix groups: closure, fixed points, reflections.

Matrices carry either exact cyclotomic entries (preferred, all test
groups are monomial with root-of-unity entries) or floating complex
entries.  Closure, determinants, eigenvalue-1 detection and rank are all
exact in exact mode.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .cyclotomic import Cyclotomic, CyclotomicField
from .polynomials import SymmetricPowerTable
from .scalars import ExactComplex

UNITARITY_TOL = 1e-12
DEDUP_DECIMALS = 12
MAX_ZETA = 1024  # building Q(zeta_N) stores N * phi(N) integers
# bounds on exact coefficient texts in group files: Fraction("1e3000000")
# would build a three-million-digit integer before any check could run
MAX_COEFF_CHARS = 100
MAX_COEFF_EXPONENT = 400  # every float repr fits
_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)")


class NonUnitaryError(ValueError):
    """A generator failed the unitarity check."""


class ClosureOverflowError(RuntimeError):
    """Group closure exceeded the requested order bound."""


def _is_exact_entry(x) -> bool:
    return isinstance(x, (int, Fraction, Cyclotomic, ExactComplex))


def _gaussian_entry(x: ExactComplex) -> Cyclotomic:
    """A Gaussian-rational entry read by value into Q(zeta_4); a pi-graded
    one is a ValueError."""
    if x.pi_pow:
        raise ValueError(f"matrix entry {x!r} carries pi^{x.pi_pow}")
    return CyclotomicField(4).element((x.re, x.im))


class UnitaryMatrix:
    """A square unitary matrix with exact or floating entries."""

    __slots__ = ("entries", "n", "exact")

    def __init__(self, entries: Sequence[Sequence], check: bool = True):
        rows = tuple(
            tuple(_gaussian_entry(x) if isinstance(x, ExactComplex) else x for x in row)
            for row in entries
        )
        n = len(rows)
        if n == 0:
            raise ValueError("matrix must have at least one row")
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        exact = all(_is_exact_entry(x) for r in rows for x in r)
        if not exact:
            rows = tuple(tuple(complex(x) for x in r) for r in rows)
        self.entries = rows
        self.n = n
        self.exact = exact
        if check and not self.is_unitary():
            raise NonUnitaryError(f"matrix is not unitary within {UNITARITY_TOL}")

    # -- constructors -----------------------------------------------------
    @staticmethod
    def identity(n: int, exact: bool = True) -> "UnitaryMatrix":
        one: object = Fraction(1) if exact else 1.0 + 0j
        zero: object = Fraction(0) if exact else 0j
        return UnitaryMatrix(
            [[one if i == j else zero for j in range(n)] for i in range(n)], check=False
        )

    @staticmethod
    def diagonal(values: Sequence) -> "UnitaryMatrix":
        n = len(values)
        exact = all(_is_exact_entry(v) for v in values)
        zero: object = Fraction(0) if exact else 0j
        return UnitaryMatrix(
            [[values[i] if i == j else zero for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def scalar(n: int, value) -> "UnitaryMatrix":
        return UnitaryMatrix.diagonal([value] * n)

    # -- structure ---------------------------------------------------------
    def is_unitary(self) -> bool:
        if self.exact:
            return (self.conj_transpose() @ self).is_identity()
        m = self.to_numpy()
        return bool(np.max(np.abs(m.conj().T @ m - np.eye(self.n))) <= UNITARITY_TOL)

    def __matmul__(self, other: "UnitaryMatrix") -> "UnitaryMatrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        n = self.n
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                s = None
                for k in range(n):
                    t = self.entries[i][k] * other.entries[k][j]
                    s = t if s is None else s + t
                row.append(s)
            out.append(row)
        return UnitaryMatrix(out, check=False)

    def conj_transpose(self) -> "UnitaryMatrix":
        return UnitaryMatrix(
            [[self.entries[j][i].conjugate() for j in range(self.n)] for i in range(self.n)],
            check=False,
        )

    def det(self):
        """Determinant by Laplace expansion (n is small here)."""
        return determinant(self.entries)

    def is_identity(self) -> bool:
        for i in range(self.n):
            for j in range(self.n):
                want = 1 if i == j else 0
                x = self.entries[i][j]
                if self.exact:
                    if not x == want:
                        return False
                elif abs(x - want) > 1e-10:
                    return False
        return True

    def dedup_key(self):
        """A key for the matrices of one group: exact entries by their
        representation, which is sound inside the group's common field;
        float entries rounded to DEDUP_DECIMALS places."""
        if self.exact:
            return tuple(
                (x.field.n, x.nums, x.den) if isinstance(x, Cyclotomic) else ("q", Fraction(x))
                for row in self.entries
                for x in row
            )
        return tuple(
            (round(x.real, DEDUP_DECIMALS) + 0.0, round(x.imag, DEDUP_DECIMALS) + 0.0)
            for row in self.entries
            for x in row
        )

    def to_numpy(self) -> np.ndarray:
        return np.array(
            [[complex(x) for x in row] for row in self.entries], dtype=complex
        )

    def to_exact_complex(self) -> list[list[ExactComplex]]:
        """Entries as Gaussian rationals; raises ValueError unless every
        entry lies in Q(i), whichever field it is written in."""
        out = []
        for row in self.entries:
            new = []
            for x in row:
                if isinstance(x, Cyclotomic):
                    new.append(x.to_exact_complex())
                else:
                    new.append(ExactComplex(Fraction(x)))
            out.append(new)
        return out

    def __eq__(self, other):
        """Exact matrices compare entry by entry, by value, whatever field
        an entry is written in; float matrices by their rounded key."""
        if not isinstance(other, UnitaryMatrix):
            return NotImplemented
        if self.exact and other.exact:
            return self.entries == other.entries
        return self.dedup_key() == other.dedup_key()

    def __hash__(self):
        return hash(self.entries if self.exact else self.dedup_key())

    def __repr__(self):
        return f"UnitaryMatrix({self.entries!r})"


def _is_diagonal(g: UnitaryMatrix) -> bool:
    """Whether an exact matrix is diagonal."""
    return all(x == 0 for i, row in enumerate(g.entries) for j, x in enumerate(row) if i != j)


def _fixed_by(diagonal: list[UnitaryMatrix]):
    """Predicate on exponent vectors beta: whether every element of a
    finite group of exact diagonal matrices fixes z^beta.

    A diagonal entry has finite order and lies in some Q(zeta_N), so it is
    an M-th root of unity zeta_M^k, M = lcm(2, N) over all entries; k is
    read off its argument, which keeps the M-th roots 2 pi / M apart, and
    h fixes z^beta when sum_i beta_i k_i is divisible by M.
    """
    m = 2
    for h in diagonal:
        for i in range(h.n):
            x = h.entries[i][i]
            if isinstance(x, Cyclotomic):
                m = math.lcm(m, x.field.n)
    exponents = []
    for h in diagonal:
        ks = []
        for i in range(h.n):
            turns = cmath.phase(complex(h.entries[i][i])) * m / (2 * math.pi)
            k = round(turns)
            if abs(turns - k) > 1e-6:
                raise ValueError(f"diagonal entry {h.entries[i][i]} is not an {m}-th root of unity")
            ks.append(k % m)
        if any(ks):
            exponents.append(ks)

    def fixed(beta) -> bool:
        return all(sum(b * k for b, k in zip(beta, ks)) % m == 0 for ks in exponents)

    return fixed


def determinant(entries) -> object:
    """Laplace expansion along the first row; entries may be scalars of any
    kind or polynomials (n is small here)."""
    n = len(entries)
    if n == 1:
        return entries[0][0]
    total = None
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in entries[1:]]
        term = entries[0][j] * determinant(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


@dataclass(frozen=True)
class FiniteUnitaryGroup:
    """A finite unitary group given by its full element list (identity first)."""

    elements: tuple[UnitaryMatrix, ...]
    dim: int

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def exact(self) -> bool:
        return all(g.exact for g in self.elements)

    def identity(self) -> UnitaryMatrix:
        return self.elements[0]

    # The stacks and the symmetric-power table are filled on first use and
    # kept on this instance (the elements are immutable), so no other group
    # can ever read them.
    @cached_property
    def float_stack(self) -> tuple[np.ndarray, np.ndarray]:
        """The elements as one read-only (|G|, n, n) complex array, with the
        (|G|,) array of their determinants."""
        mats = np.array([g.to_numpy() for g in self.elements])
        dets = np.array([complex(g.det()) for g in self.elements], dtype=complex)
        mats.flags.writeable = dets.flags.writeable = False
        return mats, dets

    @cached_property
    def gaussian_stack(self) -> tuple[tuple[tuple, ExactComplex], ...] | None:
        """Per element, its non-zero entries as (row, column, Gaussian
        rational) triples with its exact determinant, or None when the
        group does not embed in Q(i)."""
        if not self.exact:
            return None
        try:
            elements = [g.to_exact_complex() for g in self.elements]
        except ValueError:
            return None
        return tuple(
            (
                tuple((j, l, x) for j, row in enumerate(m) for l, x in enumerate(row) if x),
                determinant(m),
            )
            for m in elements
        )

    @cached_property
    def symmetric_powers(self) -> SymmetricPowerTable:
        """Group averages of the images (gz)^alpha of every monomial, grown
        on demand: the table behind ``invariants.reynolds``.  It runs over
        one element of each coset gH of the diagonal subgroup H, which
        holds the scalar subgroup, and keeps the terms H fixes.  Raises
        ValueError for a float group: invariant theory is exact only."""
        if not self.exact:
            raise ValueError("invariant theory requires an exact group")
        diagonal = [g for g in self.elements if _is_diagonal(g)]
        covered, reps = set(), []
        for g in self.elements:
            if g.dedup_key() not in covered:
                reps.append(g)
                covered.update((g @ h).dedup_key() for h in diagonal)
        if len(reps) * len(diagonal) != self.order:
            raise RuntimeError("the diagonal elements do not split the group into cosets")
        return SymmetricPowerTable(self.dim, [g.entries for g in reps], _fixed_by(diagonal))

    def __iter__(self):
        return iter(self.elements)

    def verify_axioms(self) -> bool:
        """Closure under products and inverses, identity present."""
        keys = {g.dedup_key() for g in self.elements}
        if not self.elements[0].is_identity():
            return False
        for a in self.elements:
            if a.conj_transpose().dedup_key() not in keys:
                return False
            for b in self.elements:
                if (a @ b).dedup_key() not in keys:
                    return False
        return True


def _common_field(gens: list[UnitaryMatrix]) -> CyclotomicField:
    n = 1
    for g in gens:
        for row in g.entries:
            for x in row:
                if isinstance(x, Cyclotomic):
                    n = math.lcm(n, x.field.n)
    return CyclotomicField(n)


def _promote_matrix(g: UnitaryMatrix, field: CyclotomicField) -> UnitaryMatrix:
    rows = []
    for row in g.entries:
        new = []
        for x in row:
            if isinstance(x, Cyclotomic):
                new.append(field.zero() + x)  # embeds into the common field
            else:
                new.append(field.from_rational(Fraction(x)))
        rows.append(new)
    return UnitaryMatrix(rows, check=False)


def generate_group(
    generators: Iterable[UnitaryMatrix], max_order: int = 4096
) -> FiniteUnitaryGroup:
    """Closure of the generators under multiplication.

    For unitary generators the finite multiplicative closure is a group
    (each element has finite order, so inverses appear as powers).  Raises
    ClosureOverflowError if the closure grows past ``max_order``.

    Exact generators are first promoted into one common cyclotomic field
    so that element deduplication keys are representation-independent.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("at least one generator required")
    n = gens[0].n
    for g in gens:
        if g.n != n:
            raise ValueError("generators must share a dimension")
        if not g.is_unitary():
            raise NonUnitaryError("non-unitary generator")
    exact = all(g.exact for g in gens)
    if exact:
        field = _common_field(gens)
        gens = [_promote_matrix(g, field) for g in gens]
        identity = _promote_matrix(UnitaryMatrix.identity(n), field)
    else:
        identity = UnitaryMatrix.identity(n, exact=False)
    seen = {identity.dedup_key(): identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = a @ g
                key = b.dedup_key()
                if key not in seen:
                    if len(seen) >= max_order:
                        raise ClosureOverflowError(
                            f"closure exceeded max_order={max_order}; group may be infinite"
                        )
                    seen[key] = b
                    nxt.append(b)
        frontier = nxt
    elements = [identity] + [m for k, m in seen.items() if k != identity.dedup_key()]
    return FiniteUnitaryGroup(elements=tuple(elements), dim=n)


# ---------------------------------------------------------------------------
# exact linear algebra over a field (entries: Fraction or Cyclotomic)
# ---------------------------------------------------------------------------

def exact_rref(rows: list[list]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form over an exact field, and its pivot columns.

    Columns are scanned left to right, so the pivot columns are exactly the
    columns independent of the columns before them.  Entries may mix
    rationals and cyclotomic elements.
    """
    mat = [list(r) for r in rows]
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(mat):
            break
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        pivot = mat[r]
        inv = Fraction(1) / pivot[c]
        # earlier columns of the pivot row are already zero
        support = [k for k in range(c, ncols) if pivot[k]]
        for k in support:
            pivot[k] = pivot[k] * inv
        for i, row in enumerate(mat):
            f = row[c]
            if i != r and f:
                for k in support:
                    row[k] = row[k] - f * pivot[k]
        pivots.append(c)
    return mat, pivots


def exact_nullspace(rows: list[list]) -> list[list]:
    """Basis of the right nullspace of a matrix over an exact field: one
    vector per free column of the reduced row echelon form, with 1 there
    and 0 at the other free columns."""
    if not rows:
        return []
    mat, pivots = exact_rref(rows)
    ncols = len(rows[0])
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -mat[i][fc]
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedPointReport:
    free: bool
    witness: tuple[UnitaryMatrix, tuple[complex, ...]] | None

    def __bool__(self):
        return self.free


def _fixed_space(g: UnitaryMatrix) -> list[list]:
    """A basis of the vectors g fixes: exactly, the nullspace of g - I; in
    floats, the eigenvectors whose eigenvalue lies within 1e-9 of 1,
    nearest first."""
    if g.exact:
        return exact_nullspace(
            [[x - 1 if i == j else x for j, x in enumerate(row)] for i, row in enumerate(g.entries)]
        )
    vals, vecs = np.linalg.eig(g.to_numpy())
    gaps = np.abs(vals - 1.0)
    return [list(vecs[:, k]) for k in np.argsort(gaps, kind="stable") if gaps[k] <= 1e-9]


def is_fixed_point_free(group: FiniteUnitaryGroup) -> FixedPointReport:
    """True iff no non-identity element has eigenvalue 1.

    Geometrically: the group acts without fixed points on the unit
    sphere, so the quotient has smooth boundary.  On failure the witness
    is the offending element together with a fixed unit vector.
    """
    for g in group:
        if g.is_identity():
            continue
        fixed = _fixed_space(g)
        if fixed:
            vec = [complex(x) for x in fixed[0]]
            norm = sum(abs(x) ** 2 for x in vec) ** 0.5
            return FixedPointReport(free=False, witness=(g, tuple(x / norm for x in vec)))
    return FixedPointReport(free=True, witness=None)


def matrix_order(g: UnitaryMatrix, bound: int = 4096) -> int:
    """Multiplicative order of g, checked up to a bound."""
    acc = g
    for k in range(1, bound + 1):
        if acc.is_identity():
            return k
        acc = acc @ g
    raise ClosureOverflowError(f"element order exceeds bound {bound}")


def is_reflection(g: UnitaryMatrix) -> bool:
    """True iff g is a non-identity finite-order element fixing a complex
    hyperplane (eigenvalue 1 with multiplicity exactly n-1)."""
    matrix_order(g)
    return len(_fixed_space(g)) == g.n - 1


# ---------------------------------------------------------------------------
# JSON group files
# ---------------------------------------------------------------------------

def _exact_coefficient(value) -> Fraction:
    """Parse an exact coefficient ("p/q", a decimal or a JSON number),
    refusing texts long or scaled enough to build huge integers."""
    text = str(value)
    exponent = _EXPONENT.search(text)
    if len(text) > MAX_COEFF_CHARS or (exponent and abs(int(exponent.group(1))) > MAX_COEFF_EXPONENT):
        raise ValueError(
            f"exact coefficient {text[:24]!r} exceeds {MAX_COEFF_CHARS} characters "
            f"or exponent {MAX_COEFF_EXPONENT}"
        )
    return Fraction(text)


def matrix_from_json(data) -> UnitaryMatrix:
    """Decode one matrix.

    Entries are either ``[re, im]`` numeric pairs or exact objects
    ``{"zeta": N, "terms": [[power, "p/q"], ...]}`` meaning a rational
    combination of powers of the N-th root of unity, 1 <= N <= MAX_ZETA,
    with coefficient texts of at most MAX_COEFF_CHARS characters and
    decimal exponents of at most MAX_COEFF_EXPONENT.
    If any entry is exact, the numeric pairs are read as exact decimals
    too, so the whole matrix stays in exact arithmetic.
    """
    any_exact = any(isinstance(e, dict) for row in data for e in row)
    rows = []
    for row in data:
        new = []
        for entry in row:
            if isinstance(entry, dict):
                order = int(entry["zeta"])
                if not 1 <= order <= MAX_ZETA:
                    raise ValueError(f"zeta order {order} is outside 1..{MAX_ZETA}")
                field = CyclotomicField(order)
                val = field.zero()
                for power, coeff in entry["terms"]:
                    val = val + field.root(int(power)) * _exact_coefficient(coeff)
                new.append(val)
            elif any_exact:
                real, imag = _exact_coefficient(entry[0]), _exact_coefficient(entry[1])
                if imag == 0:
                    new.append(real)
                else:
                    gauss = CyclotomicField(4)
                    new.append(gauss.from_rational(real) + gauss.root(1) * imag)
            else:
                real, imag = entry
                new.append(complex(float(real), float(imag)))
        rows.append(new)
    return UnitaryMatrix(rows)


def matrices_from_json(data) -> list[UnitaryMatrix]:
    return [matrix_from_json(m) for m in data]
