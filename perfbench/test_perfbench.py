"""The benchmark's own test: smoke-size runs of every workload, traced and
untraced, and a check that each oracle rejects a corrupted answer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _smoke(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_the_declared_metrics(workload, trace):
    result = _smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}


def test_declared_names_match_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


def test_without_sources_the_runner_refuses(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "quotient-pairs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


# ---------------------------------------------------------------------------
# each oracle rejects a corrupted answer
# ---------------------------------------------------------------------------


def test_cyclic_oracle():
    basis = oracles.hilbert_basis(5, 2)
    assert basis == {(5, 0), (3, 1), (1, 2), (0, 5)}  # Riemenschneider: 5/2 = [3, 2]
    relations = oracles.relation_count_up_to_two(basis)
    molien = {d: oracles.invariant_monomial_count(5, 2, d) for d in (3, 4, 5)}
    assert oracles.check_cyclic(5, 2, sorted(basis), relations, molien) == []
    wrong_basis = sorted(basis - {(0, 5)}) + [(0, 10)]
    assert oracles.check_cyclic(5, 2, wrong_basis, relations, molien)
    assert oracles.check_cyclic(5, 2, sorted(basis), relations + 1, molien)
    assert oracles.check_cyclic(5, 2, sorted(basis), relations, {**molien, 5: molien[5] + 1})


def test_binary_dihedral_oracle():
    assert oracles.check_binary_dihedral(3, (4, 6, 8), 1) == []
    assert oracles.check_binary_dihedral(3, (4, 6, 6), 1)
    assert oracles.check_binary_dihedral(3, (4, 6, 8), 2)
    assert len(oracles.binary_dihedral_matrices(3, np.eye(2))) == 12


def test_relation_and_invariance_oracles():
    points = np.random.default_rng(0).uniform(-0.5, 0.5, (6, 2)) + 0j
    gens = [[((2, 0), 1)], [((1, 1), 1)], [((0, 2), 1)]]  # x^2, xy, y^2 for {I, -I}
    relation = [((1, 0, 1), 1), ((0, 2, 0), -1)]
    assert oracles.relation_failures("t", [relation], gens, points) == []
    assert oracles.relation_failures("t", [[((1, 0, 1), 1), ((0, 2, 0), -1.000001)]], gens, points)
    minus = [np.eye(2), -np.eye(2)]
    assert oracles.invariance_failures("t", gens, minus, points) == []
    assert oracles.invariance_failures("t", gens + [[((1, 0), 1)]], minus, points)


def test_deck_sum_oracles():
    rng = np.random.default_rng(1)
    z, w = (rng.uniform(-0.3, 0.3, (5, 2)) + 1j * rng.uniform(-0.3, 0.3, (5, 2)) for _ in range(2))
    mats = oracles.binary_dihedral_matrices(3, np.eye(2))
    want = oracles.numpy_deck_sum(mats, z, w)
    assert oracles.mismatches(want.copy(), want, 1e-10) == []
    bad = want.copy()
    bad[2] *= 1 + 1e-6
    bad[4] = np.nan
    assert oracles.mismatches(bad, want, 1e-10) == [2, 4]


def test_report_oracles():
    det = {"name": "transformation:x", "passed": True, "residual": 1e-15, "tolerance": 1e-12,
           "estimate": None, "stderr": None, "target": None}
    mc = {"name": "reproducing:x", "passed": False, "residual": None, "tolerance": None,
          "estimate": [1.0035, 0.0], "stderr": 0.001, "target": [1.0, 0.0]}
    assert oracles.report_failures([det, mc]) == []  # a 3.5-sigma miss is counted, not gated
    assert oracles.report_failures([dict(det, passed=False)])
    assert oracles.report_failures([dict(mc, estimate=[1.006, 0.0])])
    assert oracles.fit_failures("fit", 1e-15, 1e-10) == []
    assert oracles.fit_failures("fit", 1e-6, 1e-10)
    passes = [{"extras": {"report_digest": d}} for d in ("a", "a", "b")]
    assert run.replays(passes[:2]) and not run.replays(passes)


# ---------------------------------------------------------------------------
# the same, through each workload's own check at smoke size
# ---------------------------------------------------------------------------


def _run_jobs(wl) -> dict:
    return {job.name: job.run() for job in wl.jobs()}


def test_cyclic_workload_rejects_a_dropped_generator():
    import workloads
    from berg.invariants import BasicMap

    wl = workloads.InvariantsCyclic(3, 0, smoke=True)
    outputs = _run_jobs(wl)
    assert wl.check(outputs) == []
    basic, syz = outputs["Z5"]
    dropped = BasicMap(basic.generators[:-1], basic.degrees[:-1], basic.dim, basic.group_order)
    assert wl.check({"Z5": (dropped, syz)})


def test_polyhedral_workload_rejects_a_wrong_generator():
    import workloads
    from berg.invariants import BasicMap
    from berg.polynomials import HoloPolynomial

    wl = workloads.InvariantsPolyhedral(3, 0, smoke=True)
    outputs = _run_jobs(wl)
    assert wl.check(outputs) == []
    basic, syz = outputs["BD8"]
    gens = basic.generators[:-1] + (basic.generators[-1] + HoloPolynomial.monomial(2, (6, 0)),)
    assert wl.check({"BD8": (BasicMap(gens, basic.degrees, basic.dim, basic.group_order), syz)})


def test_quotient_workload_rejects_corrupted_kernels():
    import workloads
    from berg.scalars import ExactComplex

    wl = workloads.QuotientPairs(3, 0, smoke=True)
    outputs = _run_jobs(wl)
    assert wl.check(outputs) == []
    decks, duals = outputs["deck-BD12"]
    exact = outputs["exact-scalar-i"]
    corrupted = {
        "deck-BD12": (decks, duals[:3] + [duals[3] * (1 + 1e-6)] + duals[4:]),
        "push-scalar-i": [v * 1.001 for v in outputs["push-scalar-i"]],
        "exact-scalar-i": [(exact[0][0] + ExactComplex(1, 0, -2), exact[0][1])] + exact[1:],
    }
    keys = {key.split(":")[0] for key, _ in wl.check(corrupted)}
    assert keys == {"dual", "push", "exact"}


def test_verify_workload_rejects_a_failed_report_and_a_bad_fit():
    import dataclasses

    import workloads

    wl = workloads.VerifySuites(3, 0, smoke=True)
    outputs = _run_jobs(wl)
    assert wl.check(outputs) == []
    transform = outputs["transform"]
    outputs["transform"] = [dataclasses.replace(transform[0], passed=False)] + transform[1:]
    outputs["fit"] = dataclasses.replace(outputs["fit"], residual=1e-6)
    keys = {key.split(":")[0] for key, _ in wl.check(outputs)}
    assert keys == {"transform", "fit"}
