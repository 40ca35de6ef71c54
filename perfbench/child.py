"""One workload process: set up, measure, print one JSON line.

Started by ``run.py``. The process imports noetherlab from the checkout's
``src/`` and records when its set-up ended on CLOCK_MONOTONIC, so the parent
can subtract the time it started the process. With ``--setup-only`` it
exits as soon as it is ready, so the parent can time several cold starts.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# Sibling modules: sys.path[0] is this file's directory.
from run import THREAD_VARS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_OPS = 3
MAX_ERRORS_KEPT = 5


def measure(workload, seconds: float, first_k: int = 0, min_ops: int = MIN_OPS) -> dict:
    """Run operations until ``seconds`` have passed and at least ``min_ops`` ran."""
    ops, errors = [], []
    attempted = failed = 0
    start = time.perf_counter()
    k = first_k
    while len(ops) < min_ops or time.perf_counter() - start < seconds:
        times, checks = workload.op(k)
        ops.append(times)
        if len(ops) == min_ops:
            # The peak after a fixed amount of work, not after however many
            # operations the run had time for: fragmentation grows with each.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted += len(checks)
        for problem in checks:
            if problem is not None:
                failed += 1
                if len(errors) < MAX_ERRORS_KEPT:
                    errors.append(f"op {k}: {problem}")
        k += 1
    return {"ops": ops, "attempted": attempted, "failed": failed, "errors": errors, "next_k": k,
            "peak_rss_mb": peak_rss_mb}


def median_op_s(ops: list[dict]) -> float:
    return statistics.median(sum(times.values()) for times in ops)


def median_phases(ops: list[dict]) -> dict:
    return {phase: statistics.median(times[phase] for times in ops) for phase in ops[0]}


def versions() -> dict:
    from importlib.metadata import PackageNotFoundError, version

    import numpy as np

    try:
        scipy_version = version("scipy")
    except PackageNotFoundError:
        scipy_version = None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "scipy": scipy_version,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True, help="scratch directory for output files")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, Path(args.workdir))
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    workload.setup()
    ready_at = time.clock_gettime(time.CLOCK_MONOTONIC)

    import noetherlab

    if Path(noetherlab.__file__).resolve().parent != ROOT / "src" / "noetherlab":
        print(f"error: imported {noetherlab.__file__}, not the checkout's src/",
              file=sys.stderr)
        return 2
    result = {"ready_at": ready_at}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    if tracer is not None:
        setup_rec = tracer.collect()
        tracer.uninstall()
    workload.prepare()
    # One checked operation, untimed, so caches fill and lazy set-up ends first.
    _, warm_checks = workload.op(0)
    half = args.seconds / 2 if tracer is not None else args.seconds
    run = measure(workload, half, first_k=1)
    result.update(
        attempted=run["attempted"] + len(warm_checks),
        failed=run["failed"] + sum(c is not None for c in warm_checks),
        errors=[f"op 0: {c}" for c in warm_checks if c is not None] + run["errors"],
        ops=run["ops"],
        op_s=median_op_s(run["ops"]),
        peak_rss_mb=run["peak_rss_mb"],
        details={name: list(v) for name, v in
                 workload.details(median_phases(run["ops"])).items()},
    )
    if tracer is not None:
        from tracer import layer_metrics

        tracer.reset()
        tracer.install()
        traced = measure(workload, half, first_k=run["next_k"])
        loop_rec = tracer.collect()
        result["spans"] = tracer.span_table()
        tracer.uninstall()
        layers = layer_metrics(setup_rec, loop_rec, len(traced["ops"]), tracer)
        layers["trace.untraced_op_s"] = result["op_s"]
        layers["trace.traced_op_s"] = median_op_s(traced["ops"])
        layers["trace.overhead"] = layers["trace.traced_op_s"] / result["op_s"] - 1.0
        result["layers"] = layers
        result["attempted"] += traced["attempted"]
        result["failed"] += traced["failed"]
        result["errors"] += traced["errors"]
    result["versions"] = versions()
    result["thread_env"] = {v: os.environ[v] for v in THREAD_VARS if v in os.environ}
    print(json.dumps(result))
    return 0

if __name__ == "__main__":
    sys.exit(main())
