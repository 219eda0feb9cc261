"""Invariant theory of finite unitary groups: Reynolds averaging, minimal
homogeneous generators of the invariant algebra, and the polynomial
relations cutting out the image variety.

Groups must be exact, and all linear algebra here is exact (rational or
cyclotomic): a relation among generators is only reported after an exact
substitution check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from .cyclotomic import Cyclotomic
from .groups import FiniteUnitaryGroup, determinant, exact_nullspace, exact_rref
from .polynomials import (
    HoloPolynomial,
    monomials_of_degree,
    monomials_up_to_degree,
)


def reynolds(f: HoloPolynomial, group: FiniteUnitaryGroup) -> HoloPolynomial:
    """Group average (1/|G|) sum of f(gz); a projection onto invariants.

    Read off the group's symmetric-power table as sum c_alpha R(z^alpha),
    so each monomial image is built once per group.  Raises ValueError for
    a float group.
    """
    if f.dim != group.dim:
        raise ValueError("polynomial dimension does not match the group")
    table = group.symmetric_powers
    total = HoloPolynomial(f.dim)
    for a, c in f.terms.items():
        image = table.average(a)
        total = total + (image if c == 1 else image.scale(c))
    return total


def is_invariant(f: HoloPolynomial, group: FiniteUnitaryGroup) -> bool:
    return all(f.compose_linear(g.entries) == f for g in group)


# ---------------------------------------------------------------------------
# exact span arithmetic
# ---------------------------------------------------------------------------

def _pivot_columns(polys: list[HoloPolynomial]) -> list[int]:
    """Indices of the polynomials independent of the ones before them: the
    pivot columns of their coefficient matrix."""
    monomials = sorted({a for p in polys for a in p.terms})
    return exact_rref([[p.terms.get(a, 0) for p in polys] for a in monomials])[1]


def _reynolds_images(group: FiniteUnitaryGroup, degree: int) -> list[HoloPolynomial]:
    n = group.dim
    return [reynolds(HoloPolynomial.monomial(n, a), group) for a in monomials_of_degree(n, degree)]


# ---------------------------------------------------------------------------
# basic map
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BasicMap:
    """Minimal homogeneous generators of the invariant polynomial algebra."""

    generators: tuple[HoloPolynomial, ...]
    degrees: tuple[int, ...]
    dim: int
    group_order: int

    def __len__(self):
        return len(self.generators)

    def to_json_dict(self) -> dict:
        gens = [{"terms": _json_terms(p)} for p in self.generators]
        return {"dim": self.dim, "degrees": list(self.degrees), "generators": gens}


def _json_terms(p: HoloPolynomial) -> list[list]:
    """The terms as JSON rows [exponent, re, im], sorted by exponent."""
    rows = []
    for a, c in sorted(p.terms.items()):
        c = complex(c)
        rows.append([list(a), c.real, c.imag])
    return rows


def _products_of_degree(gens: list[HoloPolynomial], degrees: list[int], total: int):
    """All products of generators (multisets, size >= 1) of exact total degree."""
    usable = [(g, d) for g, d in zip(gens, degrees) if d <= total]
    out = []
    for size in range(1, total + 1):
        if usable and size * min(d for _, d in usable) > total:
            break
        for combo in combinations_with_replacement(range(len(usable)), size):
            if sum(usable[i][1] for i in combo) != total:
                continue
            prod = usable[combo[0]][0]
            for i in combo[1:]:
                prod = prod * usable[i][0]
            out.append(prod)
    return out


def _monic(p: HoloPolynomial) -> HoloPolynomial:
    lead = p.leading_monomial()
    return _rationalize(p.scale(Fraction(1) / p.terms[lead]))


def _rationalize(p: HoloPolynomial) -> HoloPolynomial:
    """Collapse cyclotomic coefficients that happen to be rational."""
    out = {}
    for a, c in p.terms.items():
        if isinstance(c, Cyclotomic) and c.is_rational():
            c = c.as_rational()
        out[a] = c
    return HoloPolynomial(p.dim, out)


def compute_basic_map(group: FiniteUnitaryGroup, verify: bool = True) -> BasicMap:
    """Minimal homogeneous generators of the invariant algebra.

    The exact Molien counts m_d (``molien_counts``) give the dimension of
    the degree-d invariants.  In each degree d up to the group order (the
    Noether bound), the rank of the products of the generators found so
    far is compared with m_d; only where it falls short can a generator
    appear.  There the Reynolds images of the monomials are scanned in
    graded-lex order and kept when independent of the products and of the
    images before them, which makes the output deterministic.  The images
    are read from the group's symmetric-power table
    (``group.symmetric_powers``), kept on the group and grown only to the
    highest degree scanned.  A product rank above m_d, or a scan that
    does not end at rank m_d, raises.

    The result is certified without ``verify``: the products span every
    invariant of degree at most |G|, and by Noether's bound those
    generate the algebra.  ``verify`` re-checks spanning up to twice the
    group order by "product rank = m_d" in every degree, with no Reynolds
    image, and checks minimality by deleting each generator.  A float
    group raises ValueError (from ``molien_counts``).
    """
    counts = molien_counts(group, 2 * group.order if verify else group.order)
    gens: list[HoloPolynomial] = []
    degrees: list[int] = []
    for d in range(1, len(counts)):
        # every generator so far has degree < d
        products = _products_of_degree(gens, degrees, d)
        # fewer products than m_d cannot span, so their rank is not needed
        if len(products) >= counts[d]:
            rank = len(_pivot_columns(products)) if products else 0
            if rank > counts[d]:
                raise RuntimeError(
                    f"generator products of degree {d} have rank {rank}, "
                    f"above the Molien count {counts[d]}"
                )
            if rank == counts[d]:
                continue
        if d > group.order:
            raise RuntimeError(f"generator set fails to span invariants at degree {d}")
        images = _reynolds_images(group, d)
        pivots = _pivot_columns(products + images)
        if len(pivots) != counts[d]:
            raise RuntimeError(
                f"invariants of degree {d} have rank {len(pivots)}, "
                f"not the Molien count {counts[d]}"
            )
        for k in pivots:
            if k >= len(products):
                gens.append(_monic(images[k - len(products)]))
                degrees.append(d)
    result = BasicMap(
        generators=tuple(gens), degrees=tuple(degrees), dim=group.dim, group_order=group.order
    )
    if verify:
        _verify_minimality(result)
    return result


def _verify_minimality(basic: BasicMap) -> None:
    gens, degs = list(basic.generators), list(basic.degrees)
    for i, (g, d) in enumerate(zip(gens, degs)):
        products = _products_of_degree(gens[:i] + gens[i + 1:], degs[:i] + degs[i + 1:], d)
        if len(products) not in _pivot_columns(products + [g]):
            raise RuntimeError(f"generator {i} of degree {d} is redundant")


# ---------------------------------------------------------------------------
# Molien series
# ---------------------------------------------------------------------------

def _elementary_sums(entries) -> tuple:
    """e_1..e_n of a matrix: the sums of its principal k x k minors."""
    n = len(entries)
    return tuple(
        sum(determinant([[entries[i][j] for j in m] for i in m]) for m in combinations(range(n), k))
        for k in range(1, n + 1)
    )


def _galois_orbit(key: tuple) -> set[tuple]:
    """The Galois conjugates of a tuple of elements of one cyclotomic field,
    itself included; any other tuple is its own orbit."""
    fields = {x.field for x in key if isinstance(x, Cyclotomic)}
    if len(fields) != 1 or not all(isinstance(x, Cyclotomic) for x in key):
        return {key}
    n = fields.pop().n
    return {tuple(x.galois(k) for x in key) for k in range(1, max(n, 2)) if math.gcd(k, n) == 1}


def molien_counts(group: FiniteUnitaryGroup, top: int) -> tuple[int, ...]:
    """Dimensions m_0..m_top of the invariant polynomials of each degree, by
    Molien's formula, in one pass.

    The trace of g on degree-d polynomials is the complete homogeneous sum
    h_d of its eigenvalues.  Newton's identity h_d = sum_k (-1)^(k+1) e_k
    h_(d-k) builds it from the elementary sums e_k, the sums of the
    principal k x k minors of g, so no eigenvalue is computed, and
    elements with equal (e_1..e_n) share one series.  The average m_d is
    rational, so it equals the average of the normalized traces of the
    h_d, and Galois-conjugate sums give equal traces: one series runs per
    Galois orbit of sums, in the group's own arithmetic, so the counts are
    exact.  Raises ValueError for a float group.
    """
    if not group.exact:
        raise ValueError("invariant theory requires an exact group")
    n = group.dim
    keys: dict[tuple, int] = {}
    for g in group:
        key = _elementary_sums(g.entries)
        keys[key] = keys.get(key, 0) + 1
    totals = [0] * (top + 1)
    seen: set[tuple] = set()
    for key in keys:
        if key in seen:
            continue
        orbit = _galois_orbit(key)
        seen |= orbit
        weight = sum(keys.get(k, 0) for k in orbit)
        h = [1]
        for d in range(1, top + 1):
            acc = None
            for k in range(1, min(d, n) + 1):
                term = key[k - 1] * h[d - k]
                acc = term if acc is None else (acc + term if k % 2 else acc - term)
            h.append(acc)
        for d, value in enumerate(h):
            value = value.normalized_trace() if isinstance(value, Cyclotomic) else Fraction(value)
            totals[d] += weight * value
    counts = [Fraction(t, group.order) for t in totals]
    if any(c.denominator != 1 for c in counts):
        raise RuntimeError("trace average is not an integer")
    return tuple(int(c) for c in counts)


def trace_average_dimension(group: FiniteUnitaryGroup, degree: int) -> int:
    """The number of degree-d invariants, ``molien_counts(group, degree)[degree]``:
    not an independent count, but the benchmark oracle's entry point.
    Raises ValueError for a float group."""
    return molien_counts(group, degree)[degree]


# ---------------------------------------------------------------------------
# syzygies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Syzygy:
    """A polynomial relation q with q(p_1(z), ..., p_N(z)) identically zero."""

    relation: HoloPolynomial  # polynomial in the N image variables

    def substitute(self, generators) -> HoloPolynomial:
        gens = list(generators)
        return HoloPolynomial(gens[0].dim) + self.relation.eval(gens)

    def to_json_dict(self) -> dict:
        return {"terms": _json_terms(self.relation)}


def find_syzygies(basic, degree_bound: int = 2) -> list[Syzygy]:
    """Basis of polynomial relations among the generators up to a degree.

    The coefficient matrix of all monomials in the generators (expanded
    in the source variables) is assembled exactly and its nullspace gives
    the relations; every relation is re-verified by exact substitution.
    """
    if degree_bound < 1:
        raise ValueError("degree bound must be at least 1")
    gens = list(basic.generators) if isinstance(basic, BasicMap) else list(basic)
    if not gens:
        return []
    nvars = len(gens)
    betas = list(monomials_up_to_degree(nvars, degree_bound))
    expansions = [
        HoloPolynomial(gens[0].dim) + HoloPolynomial.monomial(nvars, beta).eval(gens)
        for beta in betas
    ]
    basis_monomials = sorted(
        {a for p in expansions for a in p.terms}, key=lambda a: (a.degree, a)
    )
    rows = [
        [p.terms.get(a, Fraction(0)) for p in expansions] for a in basis_monomials
    ]
    nullvecs = exact_nullspace(rows)
    out = []
    for vec in nullvecs:
        rel = _canonical_relation(HoloPolynomial(nvars, {b: c for b, c in zip(betas, vec)}))
        syz = Syzygy(relation=rel)
        if not syz.substitute(gens).is_zero():
            raise RuntimeError("nullspace produced a relation failing substitution")
        out.append(syz)
    return out


def _canonical_relation(rel: HoloPolynomial) -> HoloPolynomial:
    rel = _rationalize(_monic(rel))
    coeffs = list(rel.terms.values())
    if all(isinstance(c, (int, Fraction)) for c in coeffs):
        fracs = [Fraction(c) for c in coeffs]
        denom_lcm = math.lcm(*(f.denominator for f in fracs))
        num_gcd = math.gcd(*(int(f * denom_lcm) for f in fracs))
        rel = rel.scale(Fraction(denom_lcm, num_gcd if num_gcd else 1))
    return rel
