"""Independent known-answer oracles for the benchmark's workloads.

Each oracle takes plain data (integers, tuples, complex numpy arrays,
decoded report JSON) and returns a list of failure messages, empty when
the answer is right.  None of them calls ``berg``: the answers they check
against are classical or recomputed here with numpy.
"""

from __future__ import annotations

import math

import numpy as np

# ---------------------------------------------------------------------------
# cyclic quotient singularities 1/p(1, q)
# ---------------------------------------------------------------------------


def hilbert_basis(p: int, q: int) -> set[tuple[int, int]]:
    """Minimal generators of the monoid {(a, b) >= 0 : a + q b = 0 mod p},
    by brute force.  Every minimal element lies in the box [0, p]^2 because
    (p, 0) and (0, p) belong to the monoid."""
    members = [
        (a, b)
        for a in range(p + 1)
        for b in range(p + 1)
        if (a, b) != (0, 0) and (a + q * b) % p == 0
    ]
    member_set = set(members)
    reducible = set()
    for s in members:
        for t in members:
            u = (s[0] + t[0], s[1] + t[1])
            if u in member_set:
                reducible.add(u)
    return member_set - reducible


def invariant_monomial_count(p: int, q: int, degree: int) -> int:
    """Number of invariant monomials x^a y^b of a given degree; for a
    diagonal group it equals the Molien series coefficient."""
    return sum(1 for a in range(degree + 1) if (a + q * (degree - a)) % p == 0)


def relation_count_up_to_two(generators) -> int:
    """Relations of degree <= 2 among monomial generators: the monomials
    of degree <= 2 in the generator variables minus the distinct
    exponent vectors their products give."""
    gens = [tuple(g) for g in generators]
    n = len(gens)
    zero = tuple(0 for _ in gens[0]) if gens else ()
    products = {zero, *gens}
    for i in range(n):
        for j in range(i, n):
            products.add(tuple(x + y for x, y in zip(gens[i], gens[j])))
    return 1 + n + n * (n + 1) // 2 - len(products)


def check_cyclic(
    p: int, q: int, leading, n_relations: int, molien: dict[int, int]
) -> list[str]:
    """Leading monomials equal the Hilbert basis, the Molien counts equal
    the monomial counts, and the quadratic relation count matches."""
    out = []
    expected = hilbert_basis(p, q)
    got = {tuple(a) for a in leading}
    if got != expected or len(leading) != len(expected):
        out.append(f"1/{p}(1,{q}): generators {sorted(got)} != Hilbert basis {sorted(expected)}")
    for d, count in molien.items():
        want = invariant_monomial_count(p, q, d)
        if count != want:
            out.append(f"1/{p}(1,{q}): Molien count {count} != {want} at degree {d}")
    want = relation_count_up_to_two(expected)
    if n_relations != want:
        out.append(f"1/{p}(1,{q}): {n_relations} relations of degree <= 2, expected {want}")
    return out


# ---------------------------------------------------------------------------
# binary dihedral groups BD_4m
# ---------------------------------------------------------------------------


def check_binary_dihedral(m: int, degrees, n_relations: int) -> list[str]:
    """Invariant degrees (4, 2m, 2m+2) and exactly one relation (the D_{m+2}
    surface equation, of degree m+1 in the generators)."""
    out = []
    want = sorted((4, 2 * m, 2 * m + 2))
    if sorted(degrees) != want:
        out.append(f"BD{4 * m}: degrees {sorted(degrees)} != {want}")
    if n_relations != 1:
        out.append(f"BD{4 * m}: {n_relations} relations up to degree {m + 1}, expected 1")
    return out


def binary_dihedral_matrices(m: int, conjugator: np.ndarray) -> list[np.ndarray]:
    """All 4m elements of BD_4m = <a, b>, a = diag(e^{i pi/m}, e^{-i pi/m}),
    b = [[0, i], [i, 0]], conjugated by a signed permutation P as P^-1 g P."""
    zeta = np.exp(1j * math.pi / m)
    a = np.diag([zeta, zeta.conjugate()])
    b = np.array([[0, 1j], [1j, 0]])
    p_inv = conjugator.conj().T
    out = []
    for j in range(2):
        for k in range(2 * m):
            g = np.linalg.matrix_power(a, k) @ np.linalg.matrix_power(b, j)
            out.append(p_inv @ g @ conjugator)
    return out


# ---------------------------------------------------------------------------
# polynomials evaluated at float points
# ---------------------------------------------------------------------------


def eval_terms(terms, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Value and absolute term sum of sum_c c * x^alpha at each row of
    ``points``; ``terms`` is a list of (alpha, complex coefficient)."""
    value = np.zeros(len(points), dtype=complex)
    scale = np.zeros(len(points))
    for alpha, c in terms:
        mono = np.ones(len(points), dtype=complex)
        for i, e in enumerate(alpha):
            if e:
                mono = mono * points[:, i] ** e
        value += c * mono
        scale += abs(c) * np.abs(mono)
    return value, scale


def relation_failures(label: str, relations, generators, points, tol: float = 1e-9) -> list[str]:
    """Every relation must vanish on the generator values, relative to the
    size of its terms."""
    gen_values = np.column_stack([eval_terms(g, points)[0] for g in generators])
    out = []
    for k, rel in enumerate(relations):
        value, scale = eval_terms(rel, gen_values)
        worst = float(np.max(np.abs(value) / np.maximum(scale, 1e-300)))
        if not worst <= tol:
            out.append(f"{label}: relation {k} leaves {worst:.1e} at sample points")
    return out


def invariance_failures(label: str, generators, matrices, points, tol: float = 1e-9) -> list[str]:
    """p(g z) = p(z) for every generator p and group element g."""
    out = []
    for k, gen in enumerate(generators):
        base, scale = eval_terms(gen, points)
        for g in matrices:
            moved, _ = eval_terms(gen, points @ g.T)
            worst = float(np.max(np.abs(moved - base) / np.maximum(scale, 1.0)))
            if not worst <= tol:
                out.append(f"{label}: generator {k} moves by {worst:.1e} under the group")
                break
    return out


# ---------------------------------------------------------------------------
# deck sums
# ---------------------------------------------------------------------------


def numpy_deck_sum(matrices, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_g K(g z, w) det g for the unit ball of C^2, K = 2/pi^2 (1-<z,w>)^-3,
    at rows of z and w."""
    total = np.zeros(len(z), dtype=complex)
    for g in matrices:
        gz = z @ g.T
        u = np.sum(gz * np.conj(w), axis=1)
        total += 2.0 / math.pi**2 * (1.0 - u) ** -3 * np.linalg.det(g)
    return total


def mismatches(got, want, tol: float) -> list[int]:
    """Indices where |got - want| exceeds tol relative to |want|."""
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    bad = ~(np.abs(got - want) <= tol * np.maximum(np.abs(want), 1e-300))
    return [int(i) for i in np.flatnonzero(bad)]


# ---------------------------------------------------------------------------
# verification reports
# ---------------------------------------------------------------------------


def report_failures(reports: list[dict], sigmas: float = 5.0) -> list[str]:
    """Deterministic reports (a residual, no estimate) must pass.  A Monte
    Carlo report must sit within ``sigmas`` standard errors of its target;
    the report's own 3-sigma verdict is counted, not gated, because it
    fails about 0.3% of the time by design."""
    out = []
    for rep in reports:
        if rep["estimate"] is None:
            if not rep["passed"]:
                out.append(f"{rep['name']}: residual {rep['residual']} > {rep['tolerance']}")
            continue
        est = complex(*rep["estimate"])
        target = complex(*rep["target"])
        if not abs(est - target) <= sigmas * rep["stderr"]:
            out.append(
                f"{rep['name']}: estimate {est} is {abs(est - target) / rep['stderr']:.1f} "
                f"standard errors from {target}"
            )
    return out


def fit_failures(name: str, residual: float, bound: float) -> list[str]:
    if not residual <= bound:
        return [f"{name}: fit residual {residual:.2e} > {bound:.0e}"]
    return []
