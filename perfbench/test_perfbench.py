"""Tests of the benchmark itself: its checks catch wrong outputs, and its
tracer wraps every namespace and names pool-thread parents.

Run from the repository root with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import csv
import io
import lzma
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from child import measure
from tracer import PER_LAYER, Tracer, layer_metrics
from workloads import REF_DIR, Sweep, SweepReference, Verify

HERE = Path(__file__).resolve().parent


def _rows(text: str):
    return csv.reader(io.StringIO(text))


REF_TEXT = "a,x,ok\n0;1,0.5,True\n0;1,0.25,True\n"


class TestSweepComparison:
    def check(self, got: str):
        return SweepReference("unused", 2)._compare(_rows(REF_TEXT), _rows(got))

    def test_identical_passes(self):
        assert self.check(REF_TEXT) is None

    def test_within_tolerance_passes(self):
        assert self.check(REF_TEXT.replace("0.25", "0.2500000000000005")) is None

    @pytest.mark.parametrize("got", [
        REF_TEXT.replace("0.25", "0.250000001"),
        REF_TEXT.replace("0.25,True", "0.25,False"),
        REF_TEXT.replace("0;1,0.25", "0;2,0.25"),
        REF_TEXT.replace("a,x", "a,y"),
        REF_TEXT + "0;1,0.125,True\n",
        "a,x,ok\n0;1,0.5,True\n",
        REF_TEXT.replace("0.25", "nan"),
    ])
    def test_difference_is_reported(self, got):
        assert self.check(got) is not None


def test_perturbed_reference_counts_as_failed(tmp_path):
    """Negative control: a sweep compared against a reference moved by 1e-9."""
    phase, _, ref_name, n_rows = Sweep.COMMANDS[0]
    with lzma.open(REF_DIR / ref_name, "rt", newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("unitarity")
    rows[500][col] = repr(float(rows[500][col]) + 1e-9)
    bad = tmp_path / "perturbed.csv.xz"
    with lzma.open(bad, "wt", newline="") as fh:
        csv.writer(fh).writerows(rows)
    refs = {p: SweepReference(r, n) for p, _, r, n in Sweep.COMMANDS}
    refs[phase] = SweepReference(str(bad), n_rows)
    workload = Sweep(0, tmp_path, references=refs)
    workload.setup()
    workload.prepare()
    run = measure(workload, 0.0, min_ops=1)
    assert run["attempted"] == 2
    assert run["failed"] == 1
    assert "row 500 unitarity" in run["errors"][0]


def test_corrupt_verification_counts_as_failed(tmp_path):
    """Negative control: ``inject_corrupt=True`` fails every verification."""
    workload = Verify(3, tmp_path, inject_corrupt=True)
    workload.setup()
    workload.prepare()
    run = measure(workload, 0.0, min_ops=2)
    assert run["failed"] == run["attempted"] == 2
    assert "channel_representation_roundtrip" in run["errors"][0]
    clean = Verify(3, tmp_path)
    clean.setup()
    clean.prepare()
    assert clean.op(0)[1] == [None]


class TestTracer:
    def test_self_time_excludes_children(self):
        tracer = Tracer()

        def inner():
            return sum(range(20_000))

        def outer():
            return tracer.call("inner", inner, (), {})

        tracer.call("outer", outer, (), {})
        spans = tracer.snapshot()
        calls, total, own = spans[("outer", "root")]
        assert calls == 1
        assert own == pytest.approx(total - spans[("inner", "outer")][1])

    def test_install_rebinds_every_namespace_and_restores(self):
        from noetherlab import bounds, cli, mcoracle, metrics, su2cov

        before = (cli.parallel_map, bounds.unitarity_jamiolkowski, su2cov.ito_basis,
                  mcoracle.delta_generators)
        tracer = Tracer()
        bindings = tracer.install()
        try:
            expected = {
                "numkit.parallel_map": "cli.parallel_map",
                "chan.random_channel": "cli.random_channel",
                "chan.max_action_deviation": "cli.max_action_deviation",
                "metrics.unitarity_jamiolkowski": "bounds.unitarity_jamiolkowski",
                "metrics.deviation_avg": "bounds.deviation_avg",
                "metrics.unitarity_su2_closed": "bounds.unitarity_su2_closed",
                "metrics.deviation_su2_closed": "bounds.deviation_su2_closed",
                "u1cov.u1_deviation": "bounds.u1_deviation",
                "u1cov.u1_structure_stats": "bounds.u1_structure_stats",
                "metrics.delta_generators": "mcoracle.delta_generators",
                "su2rep.ito_basis": "su2cov.ito_basis",
            }
            for span, binding in expected.items():
                assert binding in bindings[span], span
            assert metrics.unitarity_jamiolkowski is bounds.unitarity_jamiolkowski
            assert mcoracle.delta_generators is metrics.delta_generators is not before[3]
        finally:
            tracer.uninstall()
        assert (cli.parallel_map, bounds.unitarity_jamiolkowski, su2cov.ito_basis,
                mcoracle.delta_generators) == before

    def test_pool_spans_name_their_parallel_map_parent(self, monkeypatch):
        monkeypatch.setenv("NOETHERLAB_THREADS", "2")
        from noetherlab import cli

        tracer = Tracer()
        tracer.install()
        try:
            records = cli.su2_tradeoff_records(2, 0.25)
        finally:
            tracer.uninstall()
        spans = tracer.snapshot()
        assert spans[("cli.su2_tradeoff_records.task", "numkit.parallel_map")][0] == len(records)
        assert spans[("su2cov.CovariantMixture", "cli.su2_tradeoff_records.task")][0] == len(records)
        assert ("numkit.parallel_map", "cli.su2_tradeoff_records") in spans
        layers = layer_metrics(tracer.collect(), tracer.collect(), 1, tracer)
        assert layers["su2cov.CovariantMixture.calls"] == 2 * len(records)
        assert layers["numkit.parallel_map.wall_s"] > 0
        assert set(layers) <= set(PER_LAYER)


def test_refuses_a_directory_without_sources(tmp_path):
    """Run with only the benchmark present, it fails without printing a result."""
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
