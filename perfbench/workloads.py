"""The benchmark's four workloads.

Each workload builds its inputs from the benchmark seed in ``__init__``
(that is the set-up a pass pays), lists its jobs, and checks their outputs
against the independent oracles in ``oracles``.  A job is one closed-loop
request to ``berg``: the next one starts only when the previous returned.

``check`` returns (op id, message) pairs, one per failing operation.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import oracles
from berg.algebraic import annulus_surface, disk_surface, fit_surface_relation, omega_diagonal_surface
from berg.cyclotomic import CyclotomicField
from berg.groups import UnitaryMatrix, generate_group
from berg.invariants import compute_basic_map, find_syzygies, trace_average_dimension
from berg.quotient import deck_sum_kernel, dual_deck_sum_kernel, pushforward_kernel, scalar_rotation_cover
from berg.scalars import ExactComplex, to_complex
from berg.verify import suite_orthogonality, suite_repro, suite_transform

BOX = 0.35  # pairs are drawn from the box [-BOX, BOX]^4 inside the unit ball of C^2


@dataclass
class Job:
    name: str
    ops: int
    run: Callable[[], object]


def _complex_terms(poly) -> list:
    return [(tuple(a), complex(c)) for a, c in poly.to_complex_coeffs().terms.items()]


def _signed_permutations() -> list[tuple[list, np.ndarray]]:
    out = []
    for swap in (False, True):
        for s1 in (1, -1):
            for s2 in (1, -1):
                rows = [[0, s1], [s2, 0]] if swap else [[s1, 0], [0, s2]]
                exact = [[Fraction(x) for x in r] for r in rows]
                out.append((exact, np.array(rows, dtype=complex)))
    return out


def binary_dihedral(m: int, conjugator=None):
    """BD_4m = <a, b>, a = diag(zeta_2m, zeta_2m^-1), b = [[0, i], [i, 0]],
    conjugated as P^-1 g P by an exact signed permutation P."""
    zeta = CyclotomicField(2 * m).root(1)
    i_unit = CyclotomicField(4).root(1)
    gens = [UnitaryMatrix.diagonal([zeta, zeta.conjugate()]), UnitaryMatrix([[0, i_unit], [i_unit, 0]])]
    if conjugator is not None:
        p = UnitaryMatrix(conjugator)
        gens = [p.conj_transpose() @ g @ p for g in gens]
    return generate_group(gens)


def _np_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed & (2**64 - 1))  # numpy takes no negative seeds


def _float_points(rng: np.random.Generator, count: int, radius: float = 0.5) -> np.ndarray:
    v = rng.uniform(-radius, radius, (count, 4))
    return v[:, :2] + 1j * v[:, 2:]


# ---------------------------------------------------------------------------
# invariants-cyclic
# ---------------------------------------------------------------------------


def unit_classes(p: int) -> list[tuple[int, ...]]:
    """Units mod p other than +-1, grouped as {q, q^-1}: the lens quotients
    1/p(1, q) and 1/p(1, q^-1) are isomorphic by swapping coordinates."""
    classes = []
    seen = set()
    for q in range(2, p - 1):
        if math.gcd(p, q) != 1 or q in seen:
            continue
        cls = tuple(sorted({q, pow(q, -1, p)}))
        seen.update(cls)
        classes.append(cls)
    return classes


class InvariantsCyclic:
    """Lens groups 1/p(1, q) acting by diag(zeta_p, zeta_p^q).

    The seed picks, for each p, a starting class of q and one member of
    every class.  Pass k uses the class k steps on, so the passes of a run
    spread over the classes and its median does not hinge on one q.
    """

    def __init__(self, seed: int, pass_index: int, smoke: bool):
        self.orders = (5,) if smoke else (5, 9, 11)
        rng = random.Random(seed)
        self.groups = {}
        self.molien_degrees = {}
        for p in self.orders:
            classes = unit_classes(p)
            picks = [rng.choice(cls) for cls in classes]
            q = picks[(rng.randrange(len(classes)) + pass_index) % len(classes)]
            field = CyclotomicField(p)
            group = generate_group([UnitaryMatrix.diagonal([field.root(1), field.root(q)])])
            self.groups[p] = (q, group)
            self.molien_degrees[p] = sorted(rng.sample(range(2, p + 1), 3))
        self.points = _float_points(_np_rng(seed), 8)
        self.largest = f"Z{self.orders[-1]}"

    def jobs(self) -> list[Job]:
        def job(p, group):
            basic = compute_basic_map(group, verify=(p == 5))
            return basic, find_syzygies(basic, 2)

        return [Job(f"Z{p}", 2, lambda p=p, g=g: job(p, g)) for p, (_, g) in self.groups.items()]

    def check(self, outputs: dict) -> list[tuple[str, str]]:
        out = []
        for p, (q, group) in self.groups.items():
            name = f"Z{p}"
            if name not in outputs:
                continue
            basic, syzygies = outputs[name]
            leading = [g.leading_monomial() for g in basic.generators]
            molien = {d: trace_average_dimension(group, d) for d in self.molien_degrees[p]}
            for msg in oracles.check_cyclic(p, q, leading, len(syzygies), molien):
                out.append((f"{name}:basic", msg))
            gens = [_complex_terms(g) for g in basic.generators]
            rels = [_complex_terms(s.relation) for s in syzygies]
            for msg in oracles.relation_failures(name, rels, gens, self.points):
                out.append((f"{name}:syzygies", msg))
        return out

    def extras(self, outputs: dict, times: dict) -> dict:
        return {"q": {str(p): q for p, (q, _) in self.groups.items()}}


# ---------------------------------------------------------------------------
# invariants-polyhedral
# ---------------------------------------------------------------------------


class InvariantsPolyhedral:
    """Binary dihedral groups BD8 (= Q8, verified) and BD12, conjugated by a
    seeded signed permutation, with syzygies up to degree m + 1."""

    def __init__(self, seed: int, pass_index: int, smoke: bool):
        rng = random.Random(seed)
        exact, self.conjugator = rng.choice(_signed_permutations())
        self.cases = [(2, True)] if smoke else [(2, True), (3, False)]
        self.groups = {m: binary_dihedral(m, exact) for m, _ in self.cases}
        self.points = _float_points(_np_rng(seed), 8)
        self.largest = f"BD{4 * self.cases[-1][0]}"

    def jobs(self) -> list[Job]:
        def job(m, verify):
            basic = compute_basic_map(self.groups[m], verify=verify)
            return basic, find_syzygies(basic, m + 1)

        return [Job(f"BD{4 * m}", 2, lambda m=m, v=v: job(m, v)) for m, v in self.cases]

    def check(self, outputs: dict) -> list[tuple[str, str]]:
        out = []
        for m, _ in self.cases:
            name = f"BD{4 * m}"
            if name not in outputs:
                continue
            basic, syzygies = outputs[name]
            for msg in oracles.check_binary_dihedral(m, basic.degrees, len(syzygies)):
                out.append((f"{name}:basic", msg))
            gens = [_complex_terms(g) for g in basic.generators]
            matrices = oracles.binary_dihedral_matrices(m, self.conjugator)
            for msg in oracles.invariance_failures(name, gens, matrices, self.points):
                out.append((f"{name}:basic", msg))
            rels = [_complex_terms(s.relation) for s in syzygies]
            for msg in oracles.relation_failures(name, rels, gens, self.points):
                out.append((f"{name}:syzygies", msg))
        return out

    def extras(self, outputs: dict, times: dict) -> dict:
        return {}


# ---------------------------------------------------------------------------
# quotient-pairs
# ---------------------------------------------------------------------------


def _off_branch_pairs(rng: np.random.Generator, count: int) -> np.ndarray:
    """(count, 2, 2) complex pairs in the box with |z1|, |w1| >= 0.05, which
    keeps them off the branch locus z1 = 0 of the scalar-rotation cover."""
    out = []
    while len(out) < count:
        v = rng.uniform(-BOX, BOX, 8)
        z = np.array([complex(v[0], v[1]), complex(v[2], v[3])])
        w = np.array([complex(v[4], v[5]), complex(v[6], v[7])])
        if abs(z[0]) >= 0.05 and abs(w[0]) >= 0.05:
            out.append((z, w))
    return np.array(out)


def _gaussian(a: int, b: int) -> ExactComplex:
    return ExactComplex(Fraction(a, 64), Fraction(b, 64))


class QuotientPairs:
    """Float deck sums on BD12, float push-forwards and exact Gaussian-
    rational deck sums and push-forwards on the scalar-i cover."""

    largest = "deck-BD12"

    def __init__(self, seed: int, pass_index: int, smoke: bool):
        n_float, n_exact = (20, 20) if smoke else (400, 100)
        rng = _np_rng(seed)
        self.bd12 = binary_dihedral(3)
        self.cover = scalar_rotation_cover()
        self.deck_pairs = rng.uniform(-BOX, BOX, (n_float, 2, 4))
        self.deck_pairs = self.deck_pairs[..., :2] + 1j * self.deck_pairs[..., 2:]
        self.push_pairs = _off_branch_pairs(rng, n_float)
        limit = int(BOX * 64)
        ints = []
        while len(ints) < n_exact:
            a = [int(x) for x in rng.integers(-limit, limit + 1, 8)]
            if math.hypot(*a[0:2]) >= 4 and math.hypot(*a[4:6]) >= 4:
                ints.append(a)
        self.exact_pairs = [
            ((_gaussian(a[0], a[1]), _gaussian(a[2], a[3])), (_gaussian(a[4], a[5]), _gaussian(a[6], a[7])))
            for a in ints
        ]
        self.latencies: list[float] = []

    def jobs(self) -> list[Job]:
        clock = time.perf_counter
        lat = self.latencies
        group, cover = self.bd12, self.cover

        def deck():
            decks, duals = [], []
            for z, w in self.deck_pairs:
                z, w = tuple(z), tuple(w)
                t0 = clock()
                decks.append(deck_sum_kernel(group, 2, z, w))
                t1 = clock()
                duals.append(dual_deck_sum_kernel(group, 2, z, w))
                lat.extend((t1 - t0, clock() - t1))
            return decks, duals

        def push():
            out = []
            for z, w in self.push_pairs:
                t0 = clock()
                out.append(pushforward_kernel(cover, tuple(z), tuple(w)))
                lat.append(clock() - t0)
            return out

        def exact():
            return [
                (deck_sum_kernel(cover.group, 2, z, w), pushforward_kernel(cover, z, w))
                for z, w in self.exact_pairs
            ]

        n, e = len(self.deck_pairs), len(self.exact_pairs)
        return [Job("deck-BD12", 2 * n, deck), Job("push-scalar-i", n, push), Job("exact-scalar-i", 2 * e, exact)]

    def check(self, outputs: dict) -> list[tuple[str, str]]:
        out = []
        if "deck-BD12" in outputs:
            decks, duals = outputs["deck-BD12"]
            want = oracles.numpy_deck_sum(
                oracles.binary_dihedral_matrices(3, np.eye(2)), self.deck_pairs[:, 0], self.deck_pairs[:, 1]
            )
            for i in oracles.mismatches(decks, want, 1e-10):
                out.append((f"deck:{i}", f"deck sum {decks[i]} != numpy {want[i]}"))
            for i in oracles.mismatches(duals, decks, 1e-10):
                out.append((f"dual:{i}", f"dual deck sum {duals[i]} != deck sum {decks[i]}"))
        rotations = [1j**k * np.eye(2) for k in range(4)]
        if "push-scalar-i" in outputs:
            values = outputs["push-scalar-i"]
            for i, (z, w) in enumerate(self.push_pairs[:8]):
                moved = [pushforward_kernel(self.cover, tuple(g @ z), tuple(w)) for g in rotations]
                moved += [pushforward_kernel(self.cover, tuple(z), tuple(g @ w)) for g in rotations]
                if oracles.mismatches(moved, [values[i]] * len(moved), 1e-9):
                    out.append((f"push:{i}", "push-forward changes under a group translate"))
        if "exact-scalar-i" in outputs:
            results = outputs["exact-scalar-i"]
            got, want = [], []
            for (ze, we), result in zip(self.exact_pairs, results):
                z = tuple(to_complex(x) for x in ze)
                w = tuple(to_complex(x) for x in we)
                want.extend((deck_sum_kernel(self.cover.group, 2, z, w), pushforward_kernel(self.cover, z, w)))
                # a result that left exact arithmetic counts as wrong
                got.extend(to_complex(v) if isinstance(v, ExactComplex) else complex("nan") for v in result)
            for i in oracles.mismatches(got, want, 1e-10):
                out.append((f"exact:{i}", f"exact result {got[i]} != float path {want[i]}"))
        return out

    def extras(self, outputs: dict, times: dict) -> dict:
        n_float = 3 * len(self.deck_pairs)
        n_exact = 2 * len(self.exact_pairs)
        return {
            "float_pairs_per_s": n_float / (times["deck-BD12"] + times["push-scalar-i"]),
            "exact_pairs_per_s": n_exact / times["exact-scalar-i"],
            "latencies": self.latencies,
        }


# ---------------------------------------------------------------------------
# verify-suites
# ---------------------------------------------------------------------------


class VerifySuites:
    """Monte Carlo suites, the transformation-law suite and two
    algebraicity fits; every check gets its own seed drawn from the
    benchmark seed, identically in every pass, so reports must replay."""

    largest = "transform"

    def __init__(self, seed: int, pass_index: int, smoke: bool):
        rng = random.Random(seed)
        self.seeds = {k: rng.randrange(2**31) for k in ("repro", "orth", "transform", "fit", "control")}
        self.n_samples = 10_000 if smoke else 1_000_000
        self.transform_count = 5 if smoke else 50
        # the gated fit is exactly algebraic; the annulus control is reported only
        self.fits = {
            "fit": (disk_surface, 4, 1) if smoke else (omega_diagonal_surface, 12, 1),
            "control": (annulus_surface, 2, 1) if smoke else (annulus_surface, 8, 2),
        }

    def jobs(self) -> list[Job]:
        s, n = self.seeds, self.n_samples

        def fit(key):
            make, fd, kd = self.fits[key]
            return fit_surface_relation(make(), fd, kd, seed=s[key])

        return [
            Job("repro", 2, lambda: suite_repro(s["repro"], n)),
            Job("orthogonality", 2, lambda: suite_orthogonality(s["orth"], n)),
            Job("transform", 9, lambda: suite_transform(s["transform"], self.transform_count)),
            Job("fit", 1, lambda: fit("fit")),
            Job("control", 1, lambda: fit("control")),
        ]

    def check(self, outputs: dict) -> list[tuple[str, str]]:
        out = []
        for name in ("repro", "orthogonality", "transform"):
            if name in outputs:
                reports = [json.loads(r.to_json()) for r in outputs[name]]
                out += [(f"{name}:{i}", msg) for i, msg in enumerate(oracles.report_failures(reports))]
        if "fit" in outputs:
            out += [("fit", msg) for msg in oracles.fit_failures("fit", outputs["fit"].residual, 1e-10)]
        return out

    def extras(self, outputs: dict, times: dict) -> dict:
        reports = [r for k in ("repro", "orthogonality", "transform") for r in outputs.get(k, [])]
        digest = hashlib.sha256("\n".join(r.to_json() for r in reports).encode()).hexdigest()
        return {
            "mc_samples_per_s": 4 * self.n_samples / (times["repro"] + times["orthogonality"]),
            "fit_s": times["fit"] + times["control"],
            "verdicts_passed": sum(bool(r.passed) for r in reports),
            "verdicts": len(reports),
            "report_digest": digest,
            "fit_residual": outputs["fit"].residual if "fit" in outputs else None,
            "control_residual": outputs["control"].residual if "control" in outputs else None,
        }


WORKLOADS = {
    "invariants-cyclic": InvariantsCyclic,
    "invariants-polyhedral": InvariantsPolyhedral,
    "quotient-pairs": QuotientPairs,
    "verify-suites": VerifySuites,
}
