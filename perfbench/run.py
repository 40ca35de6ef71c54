"""noetherlab benchmark: run one workload, or all of them, and print the metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``sweep``, ``verify`` and ``spin``. This
process stays single-threaded and imports neither numpy nor noetherlab. Each
workload runs in fresh processes that import noetherlab from ``src/`` with
the thread variables below removed, so the program runs with its defaults
(its sweep pool takes min(8, cpu count) workers; BLAS takes its own default).

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: process start to ready, the median of SETUP_SAMPLES fresh
  processes: the import, plus for ``spin`` the cold Clebsch-Gordan, ITO
  basis and projector build.
* ``op_s``: the median wall time of one workload operation, over every
  operation that fits in ``--seconds`` (at least three), after one untimed
  warm-up operation.
* ``peak_rss_mb``: the peak resident set of the measuring process after its
  set-up, the warm-up and the first three timed operations.

``--trace 1`` runs untraced for half of ``--seconds``, then with every layer
wrapped for the other half, and prints the per-layer metrics (``tracer.py``)
with the tracing overhead between the two halves.

Every checked operation counts in ``attempted``; a wrong output counts in
``failed``. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Lines before it give
each metric with its unit, the workload's own figures (``fail_frac``, rows
per second, phase times) and the provenance of the run. ``--out`` also writes
everything, per-operation samples and the span table included, as JSON.

Exit codes: 0 correct, 1 a check failed, 2 the checkout has no ``src/``
or the arguments are wrong, 3 a workload process failed or timed out.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep", "verify", "spin")
THREAD_VARS = ("NOETHERLAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 3
TIME_LIMIT_S = 170.0
END_TO_END = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB"}


class WorkloadError(RuntimeError):
    pass


def _monotonic() -> float:
    # CLOCK_MONOTONIC is one clock for every process on the host, so a child's
    # ready time can be subtracted from the parent's spawn time.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> tuple[dict, list[str]]:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env, sorted(v for v in THREAD_VARS if v in os.environ)


def spawn(argv: list[str], env: dict, deadline: float) -> dict:
    """Run one workload process to its end; return its JSON line plus ``setup_s``."""
    spawned_at = _monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - _monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkloadError(f"{argv[2:]} did not finish in time") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkloadError(f"{argv[2:]} exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise WorkloadError(f"{argv[2:]} printed no result: {lines[-1][:200]}") from None
    result["setup_s"] = result["ready_at"] - spawned_at
    return result


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    env, removed = child_env()
    workdir = ROOT / ".perfbench_tmp" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    argv = [sys.executable, str(ROOT / "perfbench" / "child.py"), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--workdir", str(workdir)]
    try:
        # Cold starts only: the measuring process is the last sample.
        setups = [] if trace else [spawn(argv + ["--setup-only"], env, deadline)["setup_s"]
                                   for _ in range(SETUP_SAMPLES - 1)]
        res = spawn(argv, env, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    setups.append(res["setup_s"])
    if trace:
        metrics = {k: {"value": res["layers"][k], "unit": unit} for k, unit in PER_LAYER.items()}
    else:
        values = {"setup_s": statistics.median(setups), "op_s": res["op_s"],
                  "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    details = {"fail_frac": [res["failed"] / res["attempted"], "ratio"], **res["details"]}
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": res["failed"] == 0, "attempted": res["attempted"], "failed": res["failed"],
        "metrics": metrics, "details": details, "errors": res["errors"],
        "samples": {"setup_s": setups, "ops": res["ops"]}, "spans": res.get("spans"),
        "provenance": provenance(res, removed),
    }


def provenance(res: dict, removed: list[str]) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **res["versions"],
        "thread_env": res["thread_env"],
        "thread_env_removed": removed,
        "git_commit": git_commit(),
        "loc_src": sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py")),
    }


def git_commit() -> str | None:
    """HEAD's commit, read from ``.git`` without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def print_report(result: dict) -> None:
    print(f"# {result['workload']} seed={result['seed']} seconds={result['seconds']} "
          f"trace={result['trace']}: {len(result['samples']['ops'])} timed ops, "
          f"{result['failed']} of {result['attempted']} checked operations failed")
    for name, m in result["metrics"].items():
        print(f"{result['workload']:7s} {name:42s} {m['value']:.6g} {m['unit']}")
    for name, (value, unit) in result["details"].items():
        print(f"{result['workload']:7s} {name:42s} {value:.6g} {unit}")
    for problem in result["errors"]:
        print(f"{result['workload']}: {problem}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write the full results here as JSON")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through spawn(), which kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "noetherlab" / "__init__.py").is_file():
        print(f"error: no noetherlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = _monotonic() + TIME_LIMIT_S * len(names)
    try:
        results = [run_workload(n, args.seed, args.seconds, args.trace, deadline) for n in names]
    except WorkloadError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    for result in results:
        print_report(result)
    print(json.dumps({"provenance": results[0]["provenance"]}))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results if len(results) > 1 else results[0], fh, indent=1)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in results for k, m in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({"correct": correct, "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
