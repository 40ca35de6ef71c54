"""End-to-end checks of the command-line surface (exit codes, formats)."""

import csv
import gc
import io
import itertools
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from noetherlab import bounds as bnd
from noetherlab import chan, cli, metrics, u1cov
from noetherlab.chan import QuantumChannel, max_action_deviation
from noetherlab.cli import (
    MAX_SWEEP_CELLS,
    main,
    simplex_grid,
    su2_tradeoff_records,
    u1_tradeoff_records,
)
from noetherlab.numkit import TOL
from noetherlab.su2cov import CovariantMixture, extremal_channel
from noetherlab.su2rep import SpinJ
from support import peak_bytes

SCHEMA = json.loads((Path(__file__).resolve().parent.parent
                     / "docs" / "tradeoff_record.schema.json").read_text())


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "noetherlab.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def assert_usage_error(code, out, err):
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def simplex_tuples(n_parts, n_steps):
    """The simplex grid one tuple at a time: per placement of n_parts - 1 bars in
    n_steps + n_parts - 1 slots, entry k is the count of free slots between bars k - 1
    and k, over n_steps, with bars at -1 and n_steps + n_parts - 1 at the ends."""
    for bars in itertools.combinations(range(n_steps + n_parts - 1), n_parts - 1):
        edges = (-1, *bars, n_steps + n_parts - 1)
        yield tuple((b - a - 1) / n_steps for a, b in zip(edges, edges[1:]))


class TestSimplexGrid:
    def test_vertices_at_unit_step(self):
        assert sorted(simplex_grid(2, 1).tolist()) == [[0.0, 1.0], [1.0, 0.0]]

    def test_counts(self):
        # compositions of 4 into 3 parts: C(6, 2) = 15
        assert simplex_grid(3, 4).shape == (15, 3)

    @pytest.mark.parametrize("n_parts, n_steps", [(1, 1), (1, 7), (2, 1), (3, 4), (5, 20), (9, 4)])
    def test_bit_identical_to_tuple_rows(self, n_parts, n_steps):
        expected = np.array(list(simplex_tuples(n_parts, n_steps))).reshape(-1, n_parts)
        grid = simplex_grid(n_parts, n_steps)
        assert grid.dtype == np.float64 and grid.shape == expected.shape
        assert grid.tobytes() == expected.tobytes()

    def test_rows_sum_to_one(self):
        for w in simplex_grid(4, 5):
            assert abs(sum(w) - 1) < 1e-12

    @pytest.mark.parametrize("n_parts, n_steps", [(2, 0), (0, 3), (-1, 3), (3, -2)])
    def test_rejects_a_count_below_one(self, n_parts, n_steps):
        message = rf"n_parts and n_steps must be >= 1, got {n_parts} and {n_steps}$"
        with pytest.raises(ValueError, match=message):
            simplex_grid(n_parts, n_steps)

    @pytest.mark.parametrize("n_parts, n_steps", [(5, 20), (3, 500)])
    def test_peak_below_two_and_a_half_results(self, n_parts, n_steps):
        # the grids of su2 tradeoff --two-j 4 --grid 0.05 and --two-j 2 --grid 0.002
        result = simplex_grid(n_parts, n_steps).nbytes
        assert peak_bytes(lambda: simplex_grid(n_parts, n_steps)) < 2.5 * result


class TestSu2Tradeoff:
    def test_qubit_curve_satisfies_identity(self):
        records = su2_tradeoff_records(1, 0.01).records()
        for r in records:
            sd = r["sqrt_delta"]
            assert abs(r["unitarity"] - (1 - 4 * sd * (1 - sd))) < 1e-10
            assert r["ok"]

    def test_spin1_cloud_within_lines(self):
        sweep = su2_tradeoff_records(2, 0.05)
        assert len(sweep) == 231  # compositions of 20 into 3 parts
        assert all(sweep.ok)

    def test_cli_csv_output(self, tmp_path):
        out = tmp_path / "rows.csv"
        code, _, err = run_cli("su2", "tradeoff", "--two-j", "1", "--grid", "0.5",
                               "--out", str(out))
        assert code == 0
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["two_j", "p_0", "p_1", "delta", "sqrt_delta", "unitarity",
                           "one_minus_u", "bound_lower", "bound_upper", "ok"]
        assert len(rows) == 4  # header + three grid points

    def test_cli_json_validates_against_schema(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        out = tmp_path / "rows.json"
        code, _, _ = run_cli("su2", "tradeoff", "--two-j", "2", "--grid", "0.5",
                             "--format", "json", "--out", str(out))
        assert code == 0
        jsonschema.validate(json.loads(out.read_text()), SCHEMA)

    def test_bad_flags_exit_2(self):
        # argparse's own error (no --grid) is one line too
        assert_usage_error(*run_cli("su2", "tradeoff", "--two-j", "1"))
        code, _, _ = run_cli("su2", "tradeoff", "--two-j", "0", "--grid", "0.5")
        assert code == 2

    def test_grid_not_one_over_n_exit_2(self):
        assert_usage_error(*run_cli("su2", "tradeoff", "--two-j", "1", "--grid", "0.3"))


class TestSu2Kappa:
    def test_json_payload(self):
        code, out, _ = run_cli("su2", "kappa", "--two-jA", "1", "--two-jB", "2")
        assert code == 0
        obj = json.loads(out)
        assert obj == {"kappa_minus": -2 / 3, "kappa_plus": 4 / 3,
                       "two_L_minus": 3, "two_L_plus": 1}

    def test_invalid_spin_exit_2(self):
        code, _, err = run_cli("su2", "kappa", "--two-jA", "0", "--two-jB", "2")
        assert code == 2 and "error" in err


class TestSu2ChannelExport:
    def test_export_and_reload(self, tmp_path):
        out = tmp_path / "e.json"
        code, _, _ = run_cli("su2", "channel", "--two-jA", "1", "--two-jB", "2",
                             "--two-L", "3", "--out", str(out))
        assert code == 0
        loaded = QuantumChannel.load_json(out)
        direct = extremal_channel(SpinJ(1), SpinJ(2), 3)
        assert max_action_deviation(loaded, direct) < 1e-12

    def test_bad_ladder_exit_2(self):
        code, _, _ = run_cli("su2", "channel", "--two-jA", "1", "--two-jB", "1",
                             "--two-L", "5")
        assert code == 2


class TestU1Tradeoff:
    def test_grid_one_gives_corners(self):
        records = u1_tradeoff_records([0, 1], 1.0).records()
        assert len(records) == 4
        corners = {(r["params"]["p00"], r["params"]["p11"]) for r in records}
        assert corners == {(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)}

    def test_no_record_above_the_bound(self):
        for r in u1_tradeoff_records([0, 1], 0.02).records():
            assert r["unitarity"] <= r["bound_upper"] + 1e-9
            assert r["ok"]

    def test_width_rescaling(self):
        def by_populations(levels):
            return {(r["params"]["p00"], r["params"]["p11"]): r
                    for r in u1_tradeoff_records(levels, 0.5).records()}

        narrow, wide = by_populations([0, 1]), by_populations([0, 2])
        for key, n in narrow.items():
            w = wide[key]
            # same populations: deviation grows by width^2, the bound column
            # keeps the same value because sqrt(delta)/width is invariant
            assert abs(w["delta"] - 4 * n["delta"]) < 1e-12
            assert abs(w["bound_upper"] - n["bound_upper"]) < 1e-12

    def test_nonincreasing_levels_exit_2(self):
        code, _, _ = run_cli("u1", "tradeoff", "--levels", "1,0", "--grid", "0.5")
        assert code == 2

    def test_grid_not_one_over_n_exit_2(self):
        assert_usage_error(*run_cli("u1", "tradeoff", "--levels", "0,1", "--grid", "0.3"))

    def test_help_names_the_negative_levels_form(self, capsys):
        # argparse reads a bare "-3,12" as an option, so "--levels -3,12" exits 2
        with pytest.raises(SystemExit) as exc:
            main(["u1", "tradeoff", "--help"])
        assert exc.value.code == 0
        assert "--levels=-3,12" in capsys.readouterr().out

    def test_cli_runs_clean(self, tmp_path):
        out = tmp_path / "u1.csv"
        code, _, err = run_cli("u1", "tradeoff", "--levels", "0,1", "--grid", "0.1",
                               "--out", str(out))
        assert code == 0
        assert "0 bound violations" in err


class TestU1Build:
    def test_build_from_json(self, tmp_path):
        spec_file = tmp_path / "in.json"
        spec_file.write_text(json.dumps({
            "levels": [0, 1],
            "gamma": [[0.0, 1.0], [1.0, 0.0]],
            "phases": [[1, 1, 0.0]],
        }))
        out = tmp_path / "chan.json"
        code, stdout, _ = run_cli("u1", "build", "--json", str(spec_file),
                                  "--out", str(out))
        assert code == 0
        summary = json.loads(stdout)
        assert abs(summary["unitarity"] - 1 / 3) < 1e-10
        assert abs(summary["deviation"] - 1 / 3) < 1e-12
        assert summary["bound_satisfied"]
        loaded = QuantumChannel.load_json(out)
        assert loaded.d_in == 2

    def test_bad_gamma_exit_2(self, tmp_path):
        spec_file = tmp_path / "in.json"
        spec_file.write_text(json.dumps({"levels": [0, 1], "gamma": [[0.5, 0.5], [0.2, 0.5]]}))
        code, _, _ = run_cli("u1", "build", "--json", str(spec_file))
        assert code == 2

    @pytest.mark.parametrize("spec", [
        '{"levels": [0, 1], "gamma": [[NaN, 1], [1, 0]]}',
        '{"levels": [0, 1], "gamma": [[1, 0], [0, 1]], "phases": [[1, 5, 0.1]]}',
        '{"levels": [0, 1], "gamma": [[1, 0], [0, 1]], "phases": [[1, 1]]}',
        '{"levels": [0, 1.5], "gamma": [[1, 0], [0, 1]]}',
        '{"levels": ["0", "1"], "gamma": [[1, 0], [0, 1]]}',
        '{"levels": [true, 2], "gamma": [[1, 0], [0, 1]]}',
        '{"levels": [0], "gamma": [[1]]}',
        '{"levels": [0, 1], "gamma": [[true, false], [false, true]]}',
        '{"levels": [0, 1], "gamma": [[1, 0], [0, 1]], "phases": [[true, true, 0.5]]}',
        '{"levels": [0, 1], "gamma": [[1, 0], [0, 1]], "phases": [[0, false, 0.5]]}',
        '{"levels": [0, 1], "gamma": [["1", "0"], ["0", "1"]]}',
    ], ids=["nan_gamma", "absent_pair_phase", "short_phase", "non_integral_level",
            "string_levels", "bool_level", "one_level", "bool_gamma", "bool_phase_pair",
            "bool_phase_index", "string_gamma"])
    def test_malformed_spec_exit_2(self, tmp_path, spec):
        spec_file = tmp_path / "in.json"
        spec_file.write_text(spec)
        assert_usage_error(*run_cli("u1", "build", "--json", str(spec_file)))

    def test_round_off_negative_population_builds_clean(self, tmp_path):
        # assert_stochastic accepts entries down to -tol_eq; none may reach np.sqrt
        spec_file = tmp_path / "in.json"
        spec_file.write_text('{"levels":[0,1],"gamma":[[1,-1e-13],[0,1.0000000000001]]}')
        code, stdout, err = run_cli("u1", "build", "--json", str(spec_file))
        assert (code, err) == (0, "")
        assert json.loads(stdout)["bound_satisfied"]

    @pytest.mark.parametrize("key,value", [("levels", 5), ("phases", 5), ("phases", {"abc": 1})],
                             ids=["int_levels", "int_phases", "object_phases"])
    def test_wrong_json_type_names_the_key(self, tmp_path, key, value):
        spec_file = tmp_path / "in.json"
        spec_file.write_text(json.dumps({"levels": [0, 1], "gamma": [[1, 0], [0, 1]], key: value}))
        code, stdout, err = run_cli("u1", "build", "--json", str(spec_file))
        assert_usage_error(code, stdout, err)
        assert err == f"error: spec {spec_file}: {key!r} must be a JSON array\n"

    def test_null_phases_are_no_phases(self, tmp_path):
        spec = {"levels": [0, 1], "gamma": [[0.0, 1.0], [1.0, 0.0]]}
        outputs = []
        for extra in ({}, {"phases": None}):
            spec_file = tmp_path / "in.json"
            spec_file.write_text(json.dumps({**spec, **extra}))
            outputs.append(run_cli("u1", "build", "--json", str(spec_file)))
        assert outputs[0] == outputs[1] and outputs[0][0] == 0

    @pytest.mark.parametrize("key", ["levels", "gamma"])
    def test_missing_key_names_spec_and_key(self, tmp_path, key):
        spec = {"levels": [0, 1], "gamma": [[1, 0], [0, 1]]}
        del spec[key]
        spec_file = tmp_path / "in.json"
        spec_file.write_text(json.dumps(spec))
        code, stdout, err = run_cli("u1", "build", "--json", str(spec_file))
        assert_usage_error(code, stdout, err)
        assert err == f"error: spec {spec_file} has no {key!r}\n"


class TestSweepSizeCap:
    @pytest.mark.parametrize("argv", [
        ["su2", "tradeoff", "--two-j", "1", "--grid", "1e-300"],
        ["su2", "tradeoff", "--two-j", "200", "--grid", "0.5"],
        ["su2", "tradeoff", "--two-j", str(10**24), "--grid", "0.5"],
        ["su2", "tradeoff", "--two-j", str(10**24), "--grid", "1e-300"],
        ["u1", "tradeoff", "--levels", "0,1", "--grid", "1e-6"],
        ["u1", "tradeoff", "--levels", "0,1", "--grid", "0.001"],
    ], ids=["su2_tiny_grid", "su2_wide_simplex", "su2_huge_two_j", "su2_both_huge",
            "u1_tiny_grid", "u1_just_above"])
    def test_refused_before_allocation(self, argv, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("the sweep grid was built")

        monkeypatch.setattr(cli, "simplex_grid", refuse)
        monkeypatch.setattr(cli.np, "meshgrid", refuse)
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: sweep exceeds {MAX_SWEEP_CELLS} weight cells; use a coarser --grid\n"

    def test_cap_is_inclusive(self):
        cli._check_sweep_size(MAX_SWEEP_CELLS // 4, 4)
        with pytest.raises(ValueError, match="sweep exceeds"):
            cli._check_sweep_size(MAX_SWEEP_CELLS // 4 + 1, 4)

    @pytest.mark.parametrize("grid", [5e-324, float("nan"), float("inf"), 0.0, -0.5, 2.0])
    def test_library_rejects_grid_outside_0_1(self, grid):
        for records in (lambda: su2_tradeoff_records(1, grid),
                        lambda: u1_tradeoff_records([0, 1], grid)):
            with pytest.raises(ValueError, match="grid must be 1/n"):
                records()


class TestUnwritableOut:
    @pytest.mark.parametrize("command", [
        ["su2", "tradeoff", "--two-j", "1", "--grid", "0.5"],
        ["u1", "tradeoff", "--levels", "0,1", "--grid", "0.5"],
        ["su2", "channel", "--two-jA", "1", "--two-jB", "1", "--two-L", "2"],
        ["u1", "build", "--json", "{spec}"],
    ], ids=["su2_tradeoff", "u1_tradeoff", "su2_channel", "u1_build"])
    def test_exit_2_with_one_line(self, tmp_path, command):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"levels": [0, 1], "gamma": [[1.0, 0.0], [0.0, 1.0]]}))
        out = tmp_path / "missing" / "out"
        argv = [arg.format(spec=spec) for arg in command]
        code, stdout, err = run_cli(*argv, "--out", str(out))
        assert_usage_error(code, stdout, err)
        assert str(out) in err


class TestClosedPipe:
    """A reader that leaves after one line, as ``| head -1`` does, truncates the
    rows and nothing else: exit 0 and the same summary lines, with no error at exit."""

    @pytest.mark.parametrize("fmt, first", [("csv", "levels,p00,p11,"), ("json", "[")])
    def test_summary_and_exit_code_kept(self, fmt, first):
        # 10,201 rows, several write blocks, far more than a pipe holds
        proc = subprocess.Popen([sys.executable, "-m", "noetherlab.cli", "u1", "tradeoff",
                                 "--levels", "0,1", "--grid", "0.01", "--format", fmt],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
        proc.stderr.close()
        golden = Path(__file__).resolve().parent / "golden" / "u1_levels0-1_grid0.01_stderr.stderr"
        assert line.startswith(first)
        assert (code, err) == (0, golden.read_text())


class TestVerify:
    @pytest.mark.parametrize("flags", [["--samples", "50"], ["--samples=-5"], ["--seed=-1"]],
                             ids=["samples_50", "samples_negative", "seed_negative"])
    def test_bad_seed_or_samples_exit_2(self, flags):
        code, out, err = run_cli("verify", "all", *flags)
        assert_usage_error(code, out, err)
        assert "--samples >= 100" in err

    def test_default_run_passes(self):
        code, out, _ = run_cli("verify", "all", "--seed", "3", "--samples", "1000")
        assert code == 0
        report = json.loads(out)
        assert report["all_passed"]
        assert {c["name"] for c in report["checks"]} == {
            "channel_representation_roundtrip",
            "monte_carlo_vs_closed_form",
            "su2_tradeoff_bounds",
            "u1_tradeoff_bound",
            "inversion_closed_forms",
            "angular_momentum_conservation_split",
        }

    def test_injected_corruption_fails_named_check(self):
        code, out, _ = run_cli("verify", "all", "--seed", "3", "--samples", "1000",
                               "--inject-corrupt")
        assert code == 1
        report = json.loads(out)
        bad = [c for c in report["checks"] if not c["passed"]]
        assert [c["name"] for c in bad] == ["channel_representation_roundtrip"]
        assert "rejected" in bad[0]["detail"]

    def test_conjugated_kraus_fails_roundtrip(self, monkeypatch):
        # conjugated eigen-Kraus operators form a different channel (the transpose
        # of E), so the round trip must see a nonzero action deviation
        derive = chan._kraus_from_blocks
        monkeypatch.setattr(chan, "_kraus_from_blocks",
                            lambda *args: [k.conj() for k in derive(*args)])
        checks = {c["name"]: c for c in cli.run_verification(42, 1000)["checks"]}
        assert not checks["channel_representation_roundtrip"]["passed"]

    def test_transposing_reshuffle_fails_roundtrip(self, monkeypatch):
        # this index order turns a Liouville matrix into J^T instead of J: a
        # valid channel, but not E, so the Liouville leg must see a deviation
        monkeypatch.setattr(chan, "_jamiolkowski_from_liouville", lambda m, d_out, d_in: m.reshape(
            d_out, d_out, d_in, d_in).transpose(1, 3, 0, 2).reshape(d_out * d_in, -1) / d_in)
        checks = {c["name"]: c for c in cli.run_verification(42, 1000)["checks"]}
        assert not checks["channel_representation_roundtrip"]["passed"]

    def test_report_bytes_deterministic(self):
        _, a, _ = run_cli("verify", "all", "--seed", "42", "--samples", "1000")
        _, b, _ = run_cli("verify", "all", "--seed", "42", "--samples", "1000")
        assert a == b


class TestMainEntry:
    def test_in_process_invocation(self, capsys):
        assert main(["su2", "kappa", "--two-jA", "1", "--two-jB", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["kappa_minus"] + 1 / 3) < 1e-12

    def test_unknown_subcommand_exit_2(self):
        code, out, err = run_cli("su3", "tradeoff")
        assert_usage_error(code, out, err)
        assert "invalid choice: 'su3'" in err

    @pytest.mark.parametrize("argv, message", [
        ("su2 tradeoff --two-j 0 --grid 0.5", "need --two-j >= 1 and 0 < --grid <= 1"),
        ("su2 tradeoff --two-j 1 --grid 0", "need --two-j >= 1 and 0 < --grid <= 1"),
        ("su2 tradeoff --two-j 1 --grid 0.3", "grid must be 1/n for an integer n, got 0.3"),
        ("u1 tradeoff --levels 0,1 --grid 2", "need 0 < --grid <= 1"),
        ("u1 tradeoff --levels 1,0 --grid 0.5",
         "levels must be two or more strictly increasing integers"),
        ("u1 tradeoff --levels a,1 --grid 0.5",
         "--levels must be comma-separated integers, got 'a,1'"),
        ("u1 tradeoff --levels 0,1,2 --grid 0.5",
         "the population-grid sweep is defined for two-level spectra"),
        ("su2 kappa --two-jA 0 --two-jB 1", "polarization scaling needs both spins nonzero"),
        ("su2 channel --two-jA 1 --two-jB 1 --two-L 9", "two_l=9 outside the admissible ladder"),
        ("verify all --samples 5", "need --seed >= 0 and --samples >= 100"),
    ])
    def test_usage_error_is_one_exact_line(self, capsys, argv, message):
        assert main(argv.split()) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    def test_type_error_outside_a_spec_is_not_a_usage_error(self, monkeypatch):
        def broken(*args):
            raise TypeError("a bug, not a usage error")
        monkeypatch.setattr(cli.su2cov, "kappa_extrema", broken)
        with pytest.raises(TypeError, match="a bug"):
            main(["su2", "kappa", "--two-jA", "1", "--two-jB", "1"])

    def test_invalid_channel_in_verify_is_not_a_usage_error(self, monkeypatch, capsys):
        def broken(*args):
            raise chan.ChannelValidationError("not completely positive")
        monkeypatch.setattr(cli, "_check_roundtrip", broken)
        with pytest.raises(RuntimeError) as excinfo:
            main(["verify", "all", "--samples", "100"])
        assert isinstance(excinfo.value.__cause__, chan.ChannelValidationError)
        assert "error:" not in capsys.readouterr().err

    @pytest.mark.parametrize("text, line", [
        ("Unable to allocate 931. GiB for an array", "Unable to allocate 931. GiB for an array"),
        ("", "out of memory"),
    ], ids=["numpy_message", "no_message"])
    def test_input_too_large_to_allocate_is_a_usage_error(self, monkeypatch, capsys, tmp_path,
                                                         text, line):
        # the builders raise as numpy does on a too large input; nothing is allocated
        def too_large(*args, **kwargs):
            raise MemoryError(text)
        monkeypatch.setattr(cli.su2cov, "extremal_channel", too_large)
        monkeypatch.setattr(cli.u1cov, "build_extremal", too_large)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"levels": [0, 1], "gamma": [[1, 0], [0, 1]]}))
        for argv in (["su2", "channel", "--two-jA", "200", "--two-jB", "200", "--two-L", "0"],
                     ["u1", "build", "--json", str(spec)]):
            assert main(argv) == 2
            assert capsys.readouterr() == ("", f"error: {line}\n")


class TestExecutionOrder:
    def test_rows_independent_of_execution_order(self, monkeypatch):
        from noetherlab import cli

        def reverse_map(fn, items):
            # evaluate the rows one by one from the last grid point back
            return [fn(x) for x in reversed(list(items))][::-1]

        reference = su2_tradeoff_records(2, 0.2).records()
        monkeypatch.setattr(cli, "parallel_map", reverse_map)
        assert su2_tradeoff_records(2, 0.2).records() == reference

    def test_rows_independent_of_grid_order(self, monkeypatch):
        # the array pass must treat each grid point on its own: fed the grid
        # backwards, it gives the same rows backwards
        from noetherlab import cli

        reference = su2_tradeoff_records(3, 0.2).records()
        forward = cli.simplex_grid
        monkeypatch.setattr(cli, "simplex_grid", lambda n, steps: forward(n, steps)[::-1])
        assert su2_tradeoff_records(3, 0.2).records() == reference[::-1]


def su2_rows_one_by_one(two_j, grid):
    """The su2 sweep rebuilt from the scalar functions, one grid point at a time."""
    spin = SpinJ(two_j)
    rows = []
    for weights in simplex_tuples(two_j + 1, round(1 / grid)):
        mix = CovariantMixture(spin, spin, weights)
        lo, up = bnd.su2_bounds(mix)
        params = {"two_j": two_j, **{f"p_{i}": w for i, w in enumerate(weights)}}
        rows.append((params, metrics.deviation_su2_closed(mix), metrics.unitarity_su2_closed(mix),
                     lo.lhs, up.rhs, lo.satisfied and up.satisfied))
    return rows


def u1_rows_one_by_one(levels, grid):
    spec = u1cov.EnergySpectrum(tuple(levels))
    n_steps = round(1 / grid)
    values = [k / n_steps for k in range(n_steps + 1)]
    rows = []
    for p00 in values:
        for p11 in values:
            pop = np.array([[p00, 1.0 - p11], [1.0 - p00, p11]])
            delta = u1cov.u1_deviation(spec, pop)
            u = u1cov.optimal_unitarity_for_population(spec, pop)
            cap = bnd.u1_cap(spec.d, spec.degeneracy(), spec.width, delta, u)
            params = {"levels": ";".join(map(str, levels)), "p00": p00, "p11": p11}
            rows.append((params, delta, u, 0.0, cap.rhs, cap.satisfied))
    return rows


class TestSweepsMatchScalarRows:
    @pytest.mark.parametrize("sweep, reference, arg, grid", [
        *[(su2_tradeoff_records, su2_rows_one_by_one, two_j, 0.1) for two_j in (1, 2, 3, 4)],
        (u1_tradeoff_records, u1_rows_one_by_one, [0, 1], 0.02),
        (u1_tradeoff_records, u1_rows_one_by_one, [0, 2], 0.05),
    ], ids=["su2_1", "su2_2", "su2_3", "su2_4", "u1_01", "u1_02"])
    def test_same_rows_in_the_same_order(self, sweep, reference, arg, grid):
        records = sweep(arg, grid).records()
        expected = reference(arg, grid)
        assert len(records) == len(expected)
        for r, (params, delta, u, lower, upper, ok) in zip(records, expected):
            assert r["params"] == params
            assert r["ok"] is ok
            got = np.array([r["delta"], r["unitarity"], r["bound_lower"], r["bound_upper"]])
            assert np.max(np.abs(got - [delta, u, lower, upper])) <= 1e-12


class TestColumnarSweep:
    @pytest.mark.parametrize("build, arg, grid", [
        (su2_tradeoff_records, 4, 0.05),
        (u1_tradeoff_records, [0, 1], 0.01),
    ], ids=["su2", "u1"])
    def test_at_most_100_bytes_held_per_row(self, build, arg, grid):
        build(arg, grid)  # fill the caches of the spin and spectrum helpers first
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sweep = build(arg, grid)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held / len(sweep) <= 100


class TestNearMissReport:
    @pytest.mark.parametrize("argv, fn, arg, sides", [
        (["su2", "tradeoff", "--two-j", "2", "--grid", "0.1"], su2_tradeoff_records, 2,
         {"su2_sqrt_deviation_lower": lambda r: r["sqrt_delta"] - r["bound_lower"],
          "su2_sqrt_deviation_upper": lambda r: r["bound_upper"] - r["sqrt_delta"]}),
        (["u1", "tradeoff", "--levels", "0,2", "--grid", "0.1"], u1_tradeoff_records, [0, 2],
         {"u1_unitarity_upper": lambda r: r["bound_upper"] - r["unitarity"]}),
    ], ids=["su2", "u1"])
    def test_one_stderr_line_per_bound(self, tmp_path, argv, fn, arg, sides):
        out = tmp_path / "rows.csv"
        code, stdout, err = run_cli(*argv, "--out", str(out))
        assert code == 0 and stdout == ""
        summary, *lines = err.splitlines()
        assert "0 bound violations" in summary
        assert len(lines) == len(sides)
        records = fn(arg, 0.1).records()
        for line, (name, slack_of) in zip(lines, sides.items()):
            slacks = np.array([slack_of(r) for r in records])
            i = int(np.argmin(slacks))
            where = " ".join(f"{k}={v}" for k, v in records[i]["params"].items())
            n_close = int(np.sum(slacks < TOL.tol_eq))
            assert line == (f"# {name}: min slack {slacks[i]:.3e} at {where}; "
                            f"{n_close} of {len(records)} points with slack < {TOL.tol_eq:g}")

    def test_csv_bytes_unchanged_by_report(self, tmp_path):
        out = tmp_path / "rows.csv"
        run_cli("u1", "tradeoff", "--levels", "0,1", "--grid", "0.5", "--out", str(out))
        _, stdout, _ = run_cli("u1", "tradeoff", "--levels", "0,1", "--grid", "0.5")
        assert out.read_text() == stdout
