"""The sweep writer against the standard-library writers it replaced, as byte
oracles: ``csv.writer`` over ``.tolist()`` rows, and
``json.dumps(records(), indent=1, sort_keys=True)``."""

import csv
import gc
import io
import json
import tracemalloc

import numpy as np
import pytest

from noetherlab import cli
from noetherlab.bounds import BoundCheck
from noetherlab.cli import main, su2_tradeoff_records, u1_tradeoff_records

TAIL = ["delta", "sqrt_delta", "unitarity", "one_minus_u", "bound_lower", "bound_upper", "ok"]


def stdlib_text(sweep, fmt):
    """The sweep as the stdlib writers write it."""
    if fmt == "json":
        return json.dumps(sweep.records(), indent=1, sort_keys=True) + "\n"
    columns = (*sweep.params.values(), sweep.delta, np.sqrt(sweep.delta), sweep.unitarity,
               1.0 - sweep.unitarity, sweep.bound_lower, sweep.bound_upper, sweep.ok)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([*sweep.params, *TAIL])
    writer.writerows(zip(*(c.tolist() for c in columns)))
    return buf.getvalue()


SWEEPS = {
    **{f"su2_{two_j}": (["su2", "tradeoff", "--two-j", str(two_j), "--grid", str(grid)],
                        lambda two_j=two_j, grid=grid: su2_tradeoff_records(two_j, grid))
       # two_j = 11 has p_10, which sorted JSON keys put before p_2
       for two_j, grid in ((1, 0.1), (2, 0.1), (3, 0.2), (4, 0.25), (11, 0.5))},
    **{f"u1_{label}": (["u1", "tradeoff", f"--levels={levels}", "--grid", "0.1"],
                       lambda levels=levels: u1_tradeoff_records(
                           [int(x) for x in levels.split(",")], 0.1))
       for label, levels in (("-3_12", "-3,12"), ("0_1", "0,1"))},
    # the benchmarked sweeps, several write blocks each and a partial last one
    "su2_4_grid0.05": (["su2", "tradeoff", "--two-j", "4", "--grid", "0.05"],
                       lambda: su2_tradeoff_records(4, 0.05)),
    "u1_0_1_grid0.01": (["u1", "tradeoff", "--levels", "0,1", "--grid", "0.01"],
                        lambda: u1_tradeoff_records([0, 1], 0.01)),
}


class TestSameBytesAsStdlib:
    @pytest.mark.parametrize("dest", ["stdout", "out"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name", SWEEPS)
    def test_cli_output(self, tmp_path, capsys, name, fmt, dest):
        argv, build = SWEEPS[name]
        argv = [*argv, "--format", fmt]
        if dest == "out":
            path = tmp_path / "sweep"
            assert main([*argv, "--out", str(path)]) == 0
            got = path.read_bytes()
            assert capsys.readouterr().out == ""
        else:
            assert main(argv) == 0
            got = capsys.readouterr().out.encode()
        assert got == stdlib_text(build(), fmt).encode()

    @pytest.mark.parametrize("name", ["su2_4_grid0.05", "u1_0_1_grid0.01"])
    def test_large_sweeps_span_blocks(self, name):
        rows = len(SWEEPS[name][1]())
        assert rows > 2 * cli._BLOCK_ROWS and rows % cli._BLOCK_ROWS != 0


class TestWriterMemory:
    """The writer holds one block of text, not the whole output: the tracemalloc
    peak of one call stays below 2.25x the bytes written (1.89x CSV and 1.08x JSON
    when streamed, 3.50x and 2.70x when the whole text and its encoding were held)."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_peak_below_bytes_written(self, tmp_path, fmt):
        sweep = su2_tradeoff_records(4, 0.05)
        path = tmp_path / "sweep"
        gc.collect()
        tracemalloc.start()
        try:
            cli._write_records(sweep, fmt, str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * path.stat().st_size


# every float that formats differently from its neighbours or from its value:
# signed zeros, NaN, both infinities, the exponent forms and the smallest subnormal
EDGES = [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1e-05, 1e16, 5e-324]


def edge_column():
    return np.random.default_rng(0).permutation(np.repeat(EDGES, 3))


class TestEdgeTokens:
    def test_csv_tokens_are_csv_writers(self):
        x = edge_column()
        buf = io.StringIO()
        csv.writer(buf).writerow(x.tolist())
        assert cli._tokens(x, "csv", "") == buf.getvalue().rstrip("\r\n").split(",")

    def test_json_tokens_are_json_dumps(self):
        x = edge_column()
        assert cli._tokens(x, "json", "") == [json.dumps(v) for v in x.tolist()]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_whole_sweep(self, tmp_path, fmt):
        period, block = len(edge_column()), cli._BLOCK_ROWS
        x = np.resize(edge_column(), 2 * block + period + 1)
        n = len(x)
        # every edge token within one period on both sides of each block boundary
        edge_bits = set(np.array(EDGES).view(np.int64).tolist())
        for b in (block, 2 * block):
            for side in (x[b - period:b], x[b:b + period]):
                assert set(side.view(np.int64).tolist()) == edge_bits
        sweep = cli.TradeoffSweep(
            {"levels": np.broadcast_to("-1;0", n), "x": x, "y": x[::-1]},
            delta=np.abs(x), unitarity=x, bound_lower=x[::-1], bound_upper=-x,
            checks=(BoundCheck("edge", x, np.zeros(n)),))
        path = tmp_path / "sweep"
        cli._write_records(sweep, fmt, str(path))
        assert path.read_bytes() == stdlib_text(sweep, fmt).encode()
