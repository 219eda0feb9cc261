"""berg's benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout that holds ``src/berg``.  Every pass
runs in a fresh interpreter (``worker.py``), one at a time, for about S
seconds (whole passes, at least three).  With ``--trace 0`` the
end-to-end metrics are medians over those passes.  With ``--trace 1`` the run makes one untraced
pass and two traced passes of identical inputs, checks that their counts
agree exactly, and prints the per-layer metrics.  ``--smoke`` shrinks every
workload to a few seconds for the benchmark's own test.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record,
with per-pass numbers and the machine, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("invariants-cyclic", "invariants-polyhedral", "quotient-pairs", "verify-suites")
MIN_PASSES = 3
RUN_LIMIT_S = 170.0  # every run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
}

# layer functions, reported as <name>.calls and <name>.self_s
LAYER_FUNCTIONS = (
    "scalars.mul", "scalars.div",
    "cyclotomic.mul", "cyclotomic.add", "cyclotomic.inverse", "cyclotomic.to_complex",
    "polynomials.mul", "polynomials.compose_linear", "polynomials.eval",
    "groups.generate_group", "groups.exact_nullspace", "groups.det", "groups.to_numpy",
    "groups.to_exact_complex",
    "invariants.compute_basic_map", "invariants.reynolds", "invariants.find_syzygies",
    "ball.ball_kernel",
    "quotient.deck_sum_kernel", "quotient.dual_deck_sum_kernel", "quotient.pushforward_kernel",
    "quotient.jacobian",
    "hartogs.omega_closed_kernel",
    "algebraic.fit_relation", "algebraic.annulus_kernel", "algebraic.samples",
    "verify.integrate", "verify.check_transformation_law",
)
PER_LAYER = {
    **{f"{fn}.{kind}": unit for fn in LAYER_FUNCTIONS for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "groups.exact_nullspace.cells": "count",
    "invariants.reynolds.useful_frac": "ratio",
    "invariants.reynolds.zero_frac": "ratio",
    "quotient.deck_terms": "count",
    "algebraic.fit_relation.flops_computed": "flop",
    "algebraic.omega_residual": "max_abs",
    "algebraic.annulus_residual": "max_abs",
    "verify.integrate.samples": "count",
    "verify.integrate.accept_frac": "ratio",
    "trace_overhead_frac": "ratio",
}

# per-layer metrics that must be non-zero on each workload (the traced
# run fails otherwise): the rows each layer metric is meant to explain
_INVARIANT_LAYERS = (
    "cyclotomic.mul.calls", "cyclotomic.add.calls", "polynomials.mul.calls",
    "polynomials.compose_linear.calls", "invariants.compute_basic_map.calls",
    "invariants.reynolds.calls", "invariants.find_syzygies.calls",
    "invariants.reynolds.useful_frac", "invariants.reynolds.zero_frac", "groups.generate_group.calls",
)
REQUIRED_NONZERO = {
    "invariants-cyclic": _INVARIANT_LAYERS,
    "invariants-polyhedral": _INVARIANT_LAYERS + (
        "cyclotomic.inverse.calls", "groups.exact_nullspace.calls", "groups.exact_nullspace.cells",
    ),
    "quotient-pairs": (
        "scalars.mul.calls", "scalars.div.calls", "cyclotomic.to_complex.calls", "polynomials.eval.calls",
        "groups.generate_group.calls", "groups.det.calls", "groups.to_numpy.calls",
        "groups.to_exact_complex.calls", "ball.ball_kernel.calls", "quotient.deck_sum_kernel.calls",
        "quotient.dual_deck_sum_kernel.calls", "quotient.deck_terms", "quotient.pushforward_kernel.calls",
        "quotient.jacobian.calls",
    ),
    "verify-suites": (
        "groups.generate_group.calls", "ball.ball_kernel.calls", "quotient.deck_sum_kernel.calls",
        "quotient.dual_deck_sum_kernel.calls", "quotient.deck_terms", "hartogs.omega_closed_kernel.calls",
        "algebraic.fit_relation.calls", "algebraic.fit_relation.flops_computed",
        "algebraic.annulus_kernel.calls", "algebraic.samples.calls", "algebraic.omega_residual",
        "algebraic.annulus_residual", "verify.integrate.calls", "verify.integrate.samples",
        "verify.integrate.accept_frac", "verify.check_transformation_law.calls",
    ),
}
# at smoke size the omega fit, the one caller of the Hartogs layer, is replaced by a disk fit
SMOKE_EXEMPT = ("hartogs.omega_closed_kernel.calls",)


class PassFailed(RuntimeError):
    pass


def _machine() -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "git_sha": _git_sha()}


def _git_sha() -> str | None:
    """HEAD of a git checkout at ROOT, read without running git; None in an
    exported tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _run_pass(spec: dict, deadline: float) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    spec = dict(spec, spawned_at=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise PassFailed(f"pass {spec['pass_index']} ran past the time limit") from exc
    if proc.returncode != 0:
        raise PassFailed(f"pass {spec['pass_index']} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest of p50/p90/p99/p99.9/p99.99 with at least ten samples above
    it: (percentile, value, sample count)."""
    ordered = sorted(latencies)
    n = len(ordered)
    best = (50.0, statistics.median(ordered), n)
    for pct in (90.0, 99.0, 99.9, 99.99):
        if n * (1 - pct / 100) >= 10:
            best = (pct, ordered[min(n - 1, int(pct / 100 * n))], n)
    return best


def _workload_extras(workload: str, passes: list[dict]) -> list[tuple[str, float, str, str]]:
    """Workload-specific figures printed beside the gated metrics:
    (name, value, unit, note)."""
    med = lambda key: statistics.median(p["extras"][key] for p in passes)  # noqa: E731
    largest = passes[0]["largest"]
    out = [("largest_group_s", statistics.median(p["jobs"][largest] for p in passes), "s", f"job {largest}")]
    if workload == "quotient-pairs":
        lat = [x for p in passes for x in p["extras"]["latencies"]]
        pct, tail, n = _tail(lat)
        out += [
            ("float_pairs_per_s", med("float_pairs_per_s"), "pairs/s", ""),
            ("exact_pairs_per_s", med("exact_pairs_per_s"), "pairs/s", ""),
            ("pair_p50_ms", statistics.median(lat) * 1e3, "ms", f"of {n} float evaluations"),
            ("pair_tail_ms", tail * 1e3, "ms", f"p{pct:g} of {n} float evaluations"),
        ]
    elif workload == "verify-suites":
        out += [
            ("mc_samples_per_s", med("mc_samples_per_s"), "samples/s", ""),
            ("fit_s", med("fit_s"), "s", ""),
        ]
    return out


def _measure(args) -> tuple[dict, dict, list[dict]]:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    passes = []
    base = {"workload": args.workload, "seed": args.seed, "smoke": args.smoke, "trace": False}
    while True:
        passes.append(_run_pass(dict(base, pass_index=len(passes)), deadline))
        elapsed = time.monotonic() - start
        per_pass = elapsed / len(passes)
        # stop at the pass boundary nearest the requested length, or when
        # another pass might not finish before the run's time limit
        if len(passes) >= MIN_PASSES and (
            elapsed + per_pass / 2 >= args.seconds or start + elapsed + 1.5 * per_pass > deadline
        ):
            break
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    checks = {}
    if args.workload == "verify-suites":
        checks["reports replay byte-identically across passes"] = replays(passes)
    return metrics, checks, passes


def replays(passes: list[dict]) -> bool:
    """Every pass saw the same seeds, so every report's JSON must match."""
    return len({p["extras"]["report_digest"] for p in passes}) == 1


def _traced(args) -> tuple[dict, dict, list[dict]]:
    deadline = time.monotonic() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    base = {"workload": args.workload, "seed": args.seed, "smoke": args.smoke, "pass_index": 0}
    untraced = _run_pass(dict(base, trace=False), deadline)
    traced = [
        _run_pass(
            dict(base, trace=True, spans=str(OUT / f"spans-{args.workload}-seed{args.seed}-{k}.jsonl")),
            deadline,
        )
        for k in range(2)
    ]
    a, b = (p["trace"] for p in traced)
    metrics = {}
    for fn in LAYER_FUNCTIONS:
        metrics[f"{fn}.calls"] = a["calls"][fn]
        metrics[f"{fn}.self_s"] = (a["self_s"][fn] + b["self_s"][fn]) / 2
    c = a["counters"]
    reynolds = a["calls"]["invariants.reynolds"]
    metrics["groups.exact_nullspace.cells"] = c["groups.exact_nullspace.cells"]
    metrics["invariants.reynolds.useful_frac"] = (
        c["invariants.compute_basic_map.generators"] / reynolds if reynolds else 0.0
    )
    metrics["invariants.reynolds.zero_frac"] = c["invariants.reynolds.zero_images"] / reynolds if reynolds else 0.0
    metrics["quotient.deck_terms"] = c["quotient.deck_terms"]
    metrics["algebraic.fit_relation.flops_computed"] = c["algebraic.fit_relation.flops_computed"]
    extras = traced[0]["extras"]
    metrics["algebraic.omega_residual"] = extras.get("fit_residual") or 0.0
    metrics["algebraic.annulus_residual"] = extras.get("control_residual") or 0.0
    samples = c["verify.integrate.samples"]
    metrics["verify.integrate.samples"] = samples
    metrics["verify.integrate.accept_frac"] = c["verify.integrate.accepted"] / samples if samples else 0.0
    traced_wall = statistics.mean(p["wall_s"] for p in traced)
    metrics["trace_overhead_frac"] = traced_wall / untraced["wall_s"] - 1.0

    checks = {"counts repeat exactly across two traced passes": (a["calls"], a["counters"]) == (b["calls"], b["counters"])}
    required = [k for k in REQUIRED_NONZERO[args.workload] if not (args.smoke and k in SMOKE_EXEMPT)]
    zero = [k for k in required if not metrics[k]]
    checks["every counter named for this workload is non-zero" + (f" (zero: {zero})" if zero else "")] = not zero
    return metrics, checks, [untraced, *traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes for the benchmark's own test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "berg" / "__init__.py").is_file():
        print(f"perfbench: no berg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        metrics, checks, passes = _traced(args) if args.trace else _measure(args)
    except PassFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    units = PER_LAYER if args.trace else END_TO_END
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = failed == 0 and all(checks.values())
    extras = [] if args.trace else _workload_extras(args.workload, passes)
    extras.append(("failed_frac", failed / attempted, "ratio", f"{failed} of {attempted} operations"))

    env = dict(passes[0]["env"], **_machine(), seed=args.seed)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} passes={len(passes)}")
    print(f"  env {json.dumps(env, sort_keys=True)}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    for name, value, unit, note in extras:
        print(f"  {name:<44} {value:>14.6g} {unit}  {note}".rstrip())
    for name, ok in checks.items():
        print(f"  check: {name}: {'ok' if ok else 'FAILED'}")
    for p in passes:
        for msg in p["failures"]:
            print(f"  failure: {msg.strip()}")

    OUT.mkdir(exist_ok=True)
    record = {
        "env": env,
        "args": vars(args),
        "metrics": metrics,
        "extras": {name: value for name, value, _, _ in extras},
        "checks": checks,
        "passes": [
            dict(p, extras={k: v for k, v in p["extras"].items() if k != "latencies"}) for p in passes
        ],
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
