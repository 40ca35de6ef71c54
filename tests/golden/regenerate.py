"""Regenerate the golden corpus that tests/test_golden.py compares against.

    python tests/golden/regenerate.py

Runs each case below as ``python -m noetherlab.cli <argv>`` with the package
from this checkout's ``src/`` and writes its stdout xz-compressed to
``<name>.stdout.xz`` (which keeps the corpus under 200 kB), its stderr to
``<name>.stderr`` and every case's argv and exit code to ``cases.json``, all
next to this script. A change that regenerates the corpus lists every file it
changed in CHANGES.md.
"""

from __future__ import annotations

import json
import lzma
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"

SU2 = ["su2", "tradeoff", "--two-j", "2", "--grid", "0.1"]
U1 = ["u1", "tradeoff", "--levels", "0,1", "--grid", "0.05"]
CASES = {
    "su2_two_j2_grid0.1_csv": SU2 + ["--format", "csv"],
    "su2_two_j2_grid0.1_json": SU2 + ["--format", "json"],
    "u1_levels0-1_grid0.05_csv": U1 + ["--format", "csv"],
    "u1_levels0-1_grid0.05_json": U1 + ["--format", "json"],
}


def main() -> None:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    manifest = {}
    for name, argv in CASES.items():
        proc = subprocess.run([sys.executable, "-m", "noetherlab.cli", *argv],
                              capture_output=True, env=env)
        (HERE / f"{name}.stdout.xz").write_bytes(lzma.compress(proc.stdout))
        (HERE / f"{name}.stderr").write_bytes(proc.stderr)
        manifest[name] = {"argv": argv, "exit_code": proc.returncode}
    (HERE / "cases.json").write_text(json.dumps(manifest, indent=1) + "\n")


if __name__ == "__main__":
    main()
