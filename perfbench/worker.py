"""One pass of one workload in a fresh interpreter.

Usage: python3 perfbench/worker.py '<json spec>'

The spec names the workload, seed, pass index, size, whether to trace,
and the monotonic clock reading taken just before this process was
started.  Prints one JSON object as its last line of output.
"""

from __future__ import annotations

import os

# single-threaded BLAS and OpenMP, set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def run_pass(spec: dict) -> dict:
    import workloads

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install([workloads])
        tracer.enabled = True

    wl = workloads.WORKLOADS[spec["workload"]](spec["seed"], spec["pass_index"], spec["smoke"])
    setup_s = time.monotonic() - spec["spawned_at"]

    outputs, times, failures = {}, {}, []
    attempted = 0
    clock = time.perf_counter
    start = clock()
    for job in wl.jobs():
        attempted += job.ops
        if tracer is not None:
            tracer.job = job.name
        t0 = clock()
        try:
            outputs[job.name] = job.run()
        except Exception:  # a failed request is counted, and the loop goes on
            failures += [(f"{job.name}:{k}", traceback.format_exc(limit=3)) for k in range(job.ops)]
        times[job.name] = clock() - t0
    wall_s = clock() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.enabled = False
        trace = tracer.snapshot()
        tracer.write_spans(spec["spans"])
    else:
        trace = None

    try:
        failures += wl.check(outputs)
    except Exception:  # an answer the oracles cannot even read fails every operation
        failures += [(f"check:{k}", traceback.format_exc(limit=3)) for k in range(attempted)]
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "jobs": times,
        "largest": wl.largest,
        "attempted": attempted,
        "failed": len({key for key, _ in failures}),
        "failures": [msg for _, msg in failures[:20]],
        "peak_rss_mb": peak_rss_mb,
        "extras": wl.extras(outputs, times),
        "trace": trace,
        "env": _environment(),
    }


if __name__ == "__main__":
    print(json.dumps(run_pass(json.loads(sys.argv[1]))))
