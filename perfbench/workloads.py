"""The benchmark's workloads: what each one runs, times and checks.

A workload has three steps. ``setup`` is the program's own cold start and is
timed as ``setup_s``. ``prepare`` loads the benchmark's references and draws
the inputs from the seed, untimed. ``op(k)`` runs one operation and returns
the wall time of each of its phases, timed around the calls into noetherlab
only, plus one entry per checked result: ``None`` if it passed, else a
one-line reason. Only public functions of noetherlab are called.

* ``sweep``: the two sweep commands users run, through ``cli.main``. The
  per-row Python path does nearly all the work. The grids are fixed, so the
  seed is unused.
* ``verify``: ``cli.run_verification(seed + k, 100000)``, the third command.
* ``spin``: the library path at growing spin (d = 5 .. 21).
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import lzma
import math
from pathlib import Path
from time import perf_counter

REF_DIR = Path(__file__).resolve().parent / "ref"

# Numeric sweep columns must match the reference to this absolute tolerance.
SWEEP_ABS_TOL = 1e-12

VERIFY_SAMPLES = 100_000

SPIN_PAIRS = ((4, 4), (8, 8), (7, 9), (12, 12), (16, 16), (15, 17), (20, 20))
# unitarity_complementary costs O(d^9) time and O(d^6) memory: 34 s at
# two_j=16 and 209 s at two_j=20 on a 2-core host, so the crosscheck stops here.
CROSSCHECK_MAX_DIM = 10
MC_SAMPLES = 100_000
# Six Monte Carlo checks per run; at 3 sigma about 1.6 % of seeds would fail
# by chance. At 5 sigma the chance is below 1e-5 per run.
MC_SIGMAS = 5.0
DIRICHLET_ALPHA = 0.7


class SweepReference:
    """A sweep CSV recorded before any optimisation, compared row by row.

    Both files are streamed, so the comparison adds little to the measured
    process's peak memory.
    """

    def __init__(self, filename: str, n_rows: int):
        self.path = REF_DIR / filename
        self.n_rows = n_rows

    def compare(self, path: Path) -> str | None:
        """``None`` if the CSV at ``path`` matches row for row, else the first difference."""
        with lzma.open(self.path, "rt", newline="") as ref_fh, open(path, newline="") as got_fh:
            return self._compare(csv.reader(ref_fh), csv.reader(got_fh))

    def _compare(self, ref_rows, got_rows) -> str | None:
        header = next(ref_rows)
        if next(got_rows, None) != header:
            return "CSV header differs from the reference"
        ok_col = header.index("ok")
        n = 0
        for ref, got in itertools.zip_longest(ref_rows, got_rows):
            if got is None:
                break
            n += 1
            if ref is None:
                continue  # surplus rows only count
            if len(got) != len(ref):
                return f"row {n}: {len(got)} fields, reference has {len(ref)}"
            if got[ok_col] != "True":
                return f"row {n}: ok is {got[ok_col]}"
            for col, (g, r) in enumerate(zip(got, ref)):
                if g != r and not (_is_float(r) and _is_float(g)
                                   and abs(float(g) - float(r)) <= SWEEP_ABS_TOL):
                    return f"row {n} {header[col]}: {g!r} vs reference {r!r}"
        if n != self.n_rows:
            return f"{n} rows, expected {self.n_rows}"
        return None


def _is_float(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


class Sweep:
    name = "sweep"
    # (phase, argv, reference file, row count)
    COMMANDS = (
        ("su2", ["su2", "tradeoff", "--two-j", "4", "--grid", "0.05"],
         "su2_tradeoff_two_j4_grid0.05.csv.xz", 10_626),
        ("u1", ["u1", "tradeoff", "--levels", "0,1", "--grid", "0.01"],
         "u1_tradeoff_levels0-1_grid0.01.csv.xz", 10_201),
    )

    def __init__(self, seed: int, workdir: Path, references: dict | None = None):
        self.workdir = Path(workdir)
        self.references = references

    def setup(self) -> None:
        from noetherlab import cli

        self.cli = cli

    def prepare(self) -> None:
        if self.references is None:
            self.references = {phase: SweepReference(ref, n_rows)
                               for phase, _, ref, n_rows in self.COMMANDS}

    def op(self, k: int):
        times, checks = {}, []
        for phase, argv, _, _ in self.COMMANDS:
            out = self.workdir / f"{phase}.csv"
            stderr = io.StringIO()
            t0 = perf_counter()
            with contextlib.redirect_stderr(stderr):
                code = self.cli.main(argv + ["--out", str(out)])
            times[phase] = perf_counter() - t0
            if code != 0:
                checks.append(f"{phase}: exit code {code}: {stderr.getvalue().strip()}")
            else:
                problem = self.references[phase].compare(out)
                checks.append(problem and f"{phase}: {problem}")
            out.unlink(missing_ok=True)
        return times, checks

    def details(self, median_times: dict) -> dict:
        return {f"{phase}_rows_per_s": (n_rows / median_times[phase], "rows/s")
                for phase, _, _, n_rows in self.COMMANDS}


class Verify:
    name = "verify"

    def __init__(self, seed: int, workdir: Path, inject_corrupt: bool = False):
        self.seed = seed
        self.inject_corrupt = inject_corrupt

    def setup(self) -> None:
        from noetherlab import cli

        self.cli = cli

    def prepare(self) -> None:
        self.expected = set(json.loads((REF_DIR / "verify_checks.json").read_text()))

    def op(self, k: int):
        t0 = perf_counter()
        report = self.cli.run_verification(self.seed + k, VERIFY_SAMPLES,
                                           inject_corrupt=self.inject_corrupt)
        elapsed = perf_counter() - t0
        names = {c["name"] for c in report["checks"]}
        if names != self.expected:
            problem = f"check names differ: {sorted(names ^ self.expected)}"
        elif report["all_passed"] is not True:
            problem = "failed: " + ", ".join(c["name"] for c in report["checks"] if not c["passed"])
        else:
            problem = None
        return {"verify": elapsed}, [problem]

    def details(self, median_times: dict) -> dict:
        return {"verify_s": (median_times["verify"], "s")}


class Spin:
    name = "spin"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        """Cold exact CG, ITO bases and every irrep projector for every pair."""
        from noetherlab import mcoracle, metrics, su2cov
        from noetherlab.numkit import TOL
        from noetherlab.su2rep import SpinJ, ito_basis

        self.su2cov, self.metrics, self.mcoracle, self.tol = su2cov, metrics, mcoracle, TOL.tol_eq
        self.spins = [(SpinJ(a), SpinJ(b)) for a, b in SPIN_PAIRS]
        for s_in, s_out in self.spins:
            ito_basis(s_in, s_out)
            for two_l in su2cov.coupled_labels(s_in, s_out):
                su2cov.irrep_projector(s_in, s_out, two_l)

    def prepare(self) -> None:
        import numpy as np

        rng = np.random.default_rng(self.seed)
        self.batch = []  # one mixture per pair, the same in every operation
        for s_in, s_out in self.spins:
            n = len(self.su2cov.coupled_labels(s_in, s_out))
            mix = self.su2cov.CovariantMixture(s_in, s_out, tuple(rng.dirichlet([DIRICHLET_ALPHA] * n)))
            cross = max(s_in.dim, s_out.dim) <= CROSSCHECK_MAX_DIM
            seeds = tuple(int(x) for x in rng.integers(2**62, size=2))
            self.batch.append((mix, cross, seeds))

    def op(self, k: int):
        su2cov, metrics, mcoracle = self.su2cov, self.metrics, self.mcoracle
        t0 = perf_counter()
        analyzed = []
        for mix, _, _ in self.batch:
            ch = su2cov.covariant_channel(mix)
            back = su2cov.decompose(ch, mix.spin_in, mix.spin_out)
            tw = su2cov.twirl(ch, mix.spin_in, mix.spin_out)
            analyzed.append((ch, back, tw, metrics.unitarity_jamiolkowski(ch),
                             metrics.unitarity_su2_closed(mix)))
        t1 = perf_counter()
        crossed = []
        for (mix, cross, (seed_u, seed_d)), (ch, *_rest) in zip(self.batch, analyzed):
            if cross:
                gens = metrics.su2_generators(mix.spin_in, mix.spin_out)
                crossed.append((metrics.unitarity_complementary(ch),
                                mcoracle.mc_unitarity(ch, MC_SAMPLES, seed_u),
                                mcoracle.mc_deviation(ch, gens, MC_SAMPLES, seed_d),
                                metrics.deviation_su2_closed(mix)))
            else:
                crossed.append(None)
        t2 = perf_counter()
        checks = []
        for (mix, _, _), (ch, back, tw, u, u_closed), cross in zip(self.batch, analyzed, crossed):
            checks.append(self._check_analysis(mix, ch, back, tw, u, u_closed))
            if cross is not None:
                checks.append(self._check_cross(mix, u_closed, *cross))
        return {"analyze": t1 - t0, "crosscheck": t2 - t1}, checks

    def _check_analysis(self, mix, ch, back, tw, u, u_closed) -> str | None:
        import numpy as np

        label = f"{mix.spin_in.two_j},{mix.spin_out.two_j}"
        weight_err = max(abs(a - b) for a, b in zip(back.weights, mix.weights))
        if not weight_err <= self.tol:
            return f"({label}) decomposed weights off by {weight_err:.2e}"
        fixed_err = float(np.max(np.abs(tw.jamiolkowski - ch.jamiolkowski)))
        if not fixed_err <= self.tol:
            return f"({label}) twirl moved a covariant channel by {fixed_err:.2e}"
        if not abs(u - u_closed) <= self.tol:
            return f"({label}) unitarity routes differ by {abs(u - u_closed):.2e}"
        return None

    def _check_cross(self, mix, u_closed, u_comp, mc_u, mc_d, d_closed) -> str | None:
        label = f"{mix.spin_in.two_j},{mix.spin_out.two_j}"
        if not abs(u_comp - u_closed) <= self.tol:
            return f"({label}) complementary unitarity off by {abs(u_comp - u_closed):.2e}"
        if not mc_u.within(u_closed, n_sigma=MC_SIGMAS):
            return f"({label}) MC unitarity {mc_u.mean:.6f} +- {mc_u.std_error:.1e} vs {u_closed:.6f}"
        if not mc_d.within(d_closed, n_sigma=MC_SIGMAS):
            return f"({label}) MC deviation {mc_d.mean:.6f} +- {mc_d.std_error:.1e} vs {d_closed:.6f}"
        return None

    def details(self, median_times: dict) -> dict:
        return {"spin_analyze_s": (median_times["analyze"], "s"),
                "spin_crosscheck_s": (median_times["crosscheck"], "s")}


WORKLOADS = {w.name: w for w in (Sweep, Verify, Spin)}
