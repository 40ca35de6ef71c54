"""The CLI against the golden corpus in tests/golden/ (regenerate it with
``python tests/golden/regenerate.py``): stdout, stderr and any ``--out`` file.
Text tokens and exit codes must match exactly, numbers to 1e-12, since the
installed numpy may round differently."""

import json
import lzma
import re
from pathlib import Path

import pytest

from noetherlab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())
NUMBER = re.compile(r"(-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")
NUMBER_TOL = 1e-12


def token_mismatch(got: str, expected: str) -> str | None:
    """The first token that differs, or ``None``: the odd pieces of the split are
    numbers, the even pieces the text between them."""
    got_pieces, exp_pieces = NUMBER.split(got), NUMBER.split(expected)
    for i, (g, e) in enumerate(zip(got_pieces, exp_pieces)):
        if g != e and not (i % 2 and abs(float(g) - float(e)) <= NUMBER_TOL):
            context = "".join(exp_pieces[max(0, i - 6):i])
            return f"token {i // 2}: {g!r} vs golden {e!r} after {context!r}"
    if len(got_pieces) != len(exp_pieces):
        return f"{len(got_pieces) // 2} numbers, golden has {len(exp_pieces) // 2}"
    return None


def golden_xz(file_name: str) -> str:
    return lzma.decompress((GOLDEN / file_name).read_bytes()).decode()


@pytest.mark.parametrize("name", CASES)
def test_matches_golden(capsys, tmp_path, name):
    case = CASES[name]
    out_path = tmp_path / "out"
    argv = [a.replace("<golden>", str(GOLDEN)).replace("<out>", str(out_path))
            for a in case["argv"]]
    assert main(argv) == case["exit_code"]
    out, err = capsys.readouterr()
    assert token_mismatch(out, golden_xz(f"{name}.stdout.xz")) is None
    assert token_mismatch(err, (GOLDEN / f"{name}.stderr").read_text()) is None
    if "<out>" in case["argv"]:
        assert token_mismatch(out_path.read_text(), golden_xz(f"{name}.out.xz")) is None


@pytest.mark.parametrize("got, expected, differs", [
    ("a,0.5\r\n", "a,0.5\r\n", False),
    ("a,0.5000000000001\r\n", "a,0.5\r\n", False),
    ("a,0.500000001\r\n", "a,0.5\r\n", True),
    ("a,0.5\n", "a,0.5\r\n", True),
    ("NaN", "Infinity", True),
    ("p_2,p_1", "p_1,p_2", True),
    ("1,2", "1,2,3", True),
    ("1e-09", "1.0e-09", False),
], ids=["same", "within_tol", "moved_1e-9", "line_end", "text", "swapped", "short", "same_value"])
def test_token_comparison(got, expected, differs):
    assert (token_mismatch(got, expected) is not None) == differs
