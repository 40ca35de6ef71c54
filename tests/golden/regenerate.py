"""Regenerate the golden corpus that tests/test_golden.py compares against.

    python tests/golden/regenerate.py

Runs each case below as ``python -m noetherlab.cli <argv>`` with the package
from this checkout's ``src/`` and writes its stdout xz-compressed to
``<name>.stdout.xz`` (which keeps the corpus under 200 kB), its stderr to
``<name>.stderr`` and every case's argv and exit code to ``cases.json``, all
next to this script. In an argv, ``<golden>`` stands for this directory (the
``u1 build`` spec lives here) and ``<out>`` for a scratch ``--out`` path, whose
file is kept xz-compressed as ``<name>.out.xz``. A change that regenerates the
corpus lists every file it changed in CHANGES.md.
"""

from __future__ import annotations

import json
import lzma
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"

SU2 = ["su2", "tradeoff", "--two-j", "2", "--grid", "0.1"]
U1 = ["u1", "tradeoff", "--levels", "0,1", "--grid", "0.05"]
CHANNEL = ["su2", "channel", "--two-jA", "2", "--two-jB", "3", "--two-L", "3", "--repr"]
CASES = {
    "su2_two_j2_grid0.1_csv": SU2 + ["--format", "csv"],
    "su2_two_j2_grid0.1_json": SU2 + ["--format", "json"],
    "u1_levels0-1_grid0.05_csv": U1 + ["--format", "csv"],
    "u1_levels0-1_grid0.05_json": U1 + ["--format", "json"],
    "verify_all_seed42_samples100000": ["verify", "all", "--seed", "42", "--samples", "100000"],
    **{f"su2_channel_2-3-3_{r}": CHANNEL + [r] for r in ("kraus", "liouville", "jamiolkowski")},
    **{f"su2_kappa_{a}-{b}": ["su2", "kappa", "--two-jA", a, "--two-jB", b]
       for a, b in (("1", "1"), ("1", "2"), ("2", "1"), ("4", "2"))},
    # the README's example spec
    "u1_build_readme_spec": ["u1", "build", "--json", "<golden>/u1_build_readme_spec.json",
                             "--out", "<out>"],
}


def expand(argv: list[str], out_path: Path) -> list[str]:
    """``argv`` with its ``<golden>`` and ``<out>`` placeholders filled in."""
    return [a.replace("<golden>", str(HERE)).replace("<out>", str(out_path)) for a in argv]


def main() -> None:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    manifest = {}
    with tempfile.TemporaryDirectory() as scratch:
        for name, argv in CASES.items():
            out_path = Path(scratch) / name
            proc = subprocess.run([sys.executable, "-m", "noetherlab.cli", *expand(argv, out_path)],
                                  capture_output=True, env=env)
            (HERE / f"{name}.stdout.xz").write_bytes(lzma.compress(proc.stdout))
            (HERE / f"{name}.stderr").write_bytes(proc.stderr)
            if "<out>" in argv:
                (HERE / f"{name}.out.xz").write_bytes(lzma.compress(out_path.read_bytes()))
            manifest[name] = {"argv": argv, "exit_code": proc.returncode}
    (HERE / "cases.json").write_text(json.dumps(manifest, indent=1) + "\n")


if __name__ == "__main__":
    main()
