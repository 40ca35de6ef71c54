#!/usr/bin/env python3
"""Peak RSS and seconds of four sweep commands, each in a fresh process.

    python scripts/sweep_memory.py

Runs the two sweeps the benchmark times, ``su2 tradeoff --two-j 4 --grid
0.05`` and ``u1 tradeoff --levels 0,1 --grid 0.01``, and two large ones: the
125,751-row ``su2 tradeoff --two-j 2 --grid 0.002``, where the spin sweep's
per-row path shows at scale, and the 251,001-row ``u1 tradeoff --levels 0,1
--grid 0.002 --format json``.  Each goes through
``cli.main`` in its own interpreter, with ``--out`` on the null device so no
disk is involved.  Prints a Markdown table: the seconds of ``main`` and the
peak RSS of the process, import included.  It reports; it gates nothing.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

COMMANDS = (
    ["su2", "tradeoff", "--two-j", "4", "--grid", "0.05"],
    ["u1", "tradeoff", "--levels", "0,1", "--grid", "0.01"],
    ["su2", "tradeoff", "--two-j", "2", "--grid", "0.002"],
    ["u1", "tradeoff", "--levels", "0,1", "--grid", "0.002", "--format", "json"],
)

# the child prints one JSON line on stdout, which --out leaves free
CHILD = """
import json, resource, sys, time
from noetherlab.cli import main
t0 = time.perf_counter()
code = main(sys.argv[1:])
seconds = time.perf_counter() - t0
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"code": code, "seconds": seconds, "rss_mb": rss_mb}))
"""


def measure(argv: list) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv, "--out", os.devnull],
                          capture_output=True, text=True, env=env, check=False)
    if proc.returncode != 0:
        return f"| `{' '.join(argv)}` | failed: exit {proc.returncode} | |"
    got = json.loads(proc.stdout.splitlines()[-1])
    status = "" if got["code"] == 0 else f" (exit {got['code']})"
    return f"| `{' '.join(argv)}`{status} | {got['seconds']:.2f} | {got['rss_mb']:.1f} |"


if __name__ == "__main__":
    print("| sweep command | seconds | peak RSS (MB) |")
    print("|---|---|---|")
    for argv in COMMANDS:
        print(measure(argv))
