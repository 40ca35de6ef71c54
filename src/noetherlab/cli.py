"""Command-line surface: channel construction, trade-off sweeps, verification.

Exit codes: 0 success, 1 invariant or bound failure, 2 usage error; an input too
large to allocate is a usage error too ("out of memory" if its MemoryError has no text).
Sweep rows are emitted in deterministic parameter order.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from itertools import chain, combinations_with_replacement

import numpy as np

from . import bounds as bnd
from . import mcoracle
from . import metrics
from . import su2cov
from . import u1cov
from .chan import ChannelValidationError, QuantumChannel, max_action_deviation, random_channel
from .numkit import TOL, haar_pure_batch, parallel_map
from .su2rep import SpinJ

__all__ = ["MAX_SWEEP_CELLS", "TradeoffSweep", "main", "simplex_grid", "su2_tradeoff_records",
           "u1_tradeoff_records"]

_CSV_TAIL = ["delta", "sqrt_delta", "unitarity", "one_minus_u", "bound_lower", "bound_upper", "ok"]


def simplex_grid(n_parts: int, n_steps: int) -> np.ndarray:
    """All probability vectors with n_parts entries on a 1/n_steps grid, one per row, in a fixed
    lexicographic order; their running sums are the sorted n_parts-tuples of 0..n_steps from 0."""
    if n_parts < 1 or n_steps < 1:
        raise ValueError(f"n_parts and n_steps must be >= 1, got {n_parts} and {n_steps}")
    sums = chain.from_iterable(combinations_with_replacement(range(n_steps + 1), n_parts))
    w = np.fromiter(sums, float, n_parts * math.comb(n_steps + n_parts - 1, n_steps))
    w = w.reshape(-1, n_parts)  # running sums, differenced in place into the weights
    w[:, :-1] = w[:, 1:] - w[:, :-1]
    w[:, -1] = n_steps - w[:, -1]
    w /= n_steps
    return w


def _grid_steps(grid: float) -> int:
    """The step count n of a sweep grid 1/n."""
    steps = 1.0 / grid if 0.0 < grid <= 1.0 else 0.0
    n_steps = round(steps) if math.isfinite(steps) else 0  # 1 / 5e-324 is inf
    if n_steps < 1 or abs(steps - n_steps) > TOL.tol_eq:
        raise ValueError(f"grid must be 1/n for an integer n, got {grid}")
    return n_steps


# Cells (rows x weights per row) of the largest weight array a sweep may hold,
# 32 MB of float64; a larger sweep is refused before anything is allocated.
MAX_SWEEP_CELLS = 4_000_000


def _check_sweep_size(rows: int, columns: int) -> None:
    if rows * columns > MAX_SWEEP_CELLS:
        raise ValueError(f"sweep exceeds {MAX_SWEEP_CELLS} weight cells; use a coarser --grid")


@dataclass(frozen=True, eq=False)
class TradeoffSweep:
    """One sweep in grid order, held as columns: ``params`` maps each parameter
    name to its column, in CSV order; ``checks`` holds each bound evaluated
    over the whole sweep."""

    params: dict
    delta: np.ndarray
    unitarity: np.ndarray
    bound_lower: np.ndarray
    bound_upper: np.ndarray
    checks: tuple[bnd.BoundCheck, ...]

    def __len__(self) -> int:
        return len(self.delta)

    @property
    def ok(self) -> np.ndarray:
        """Per point: whether every bound holds."""
        return np.logical_and.reduce([check.satisfied for check in self.checks])

    def columns(self) -> dict:
        """Every output column by name in CSV order: the params, then ``_CSV_TAIL``."""
        tail = (self.delta, np.sqrt(self.delta), self.unitarity, 1.0 - self.unitarity,
                self.bound_lower, self.bound_upper, self.ok)
        return {**self.params, **dict(zip(_CSV_TAIL, tail))}

    def records(self) -> list[dict]:
        """The JSON records of ``docs/tradeoff_record.schema.json``, one per point."""
        k = len(self.params)
        return [{"params": dict(zip(self.params, row[:k])), **dict(zip(_CSV_TAIL, row[k:]))}
                for row in zip(*(c.tolist() for c in self.columns().values()))]

    def near_miss_lines(self) -> list[str]:
        """Per bound: the smallest slack, the params where it occurs, and how
        many points come within TOL.tol_eq of failing."""
        lines = []
        for check in self.checks:
            slack = check.slack
            i = int(np.argmin(slack))
            where = " ".join(f"{k}={col[i].item()}" for k, col in self.params.items())
            lines.append(f"# {check.name}: min slack {slack[i]:.3e} at {where}; "
                         f"{int(np.count_nonzero(slack < TOL.tol_eq))} of {len(slack)} points "
                         f"with slack < {TOL.tol_eq:g}")
        return lines


def su2_tradeoff_records(two_j: int, grid: float) -> TradeoffSweep:
    spin = SpinJ(two_j)
    n_steps = _grid_steps(grid)
    # C(n_steps + two_j, two_j) >= n_steps + two_j rows; checking that first keeps comb small
    _check_sweep_size(n_steps + two_j, two_j + 1)
    _check_sweep_size(math.comb(n_steps + two_j, two_j), two_j + 1)
    weights = simplex_grid(two_j + 1, n_steps)
    u, delta = metrics.su2_closed_forms(weights, spin, spin)
    lower, upper = bnd.su2_bound_checks(spin.j, u, delta)

    # one CovariantMixture per row, pinned by perfbench: ~3 us a row, over half of this call
    parallel_map(lambda w: su2cov.CovariantMixture(spin, spin, w) and None, weights)
    params = {"two_j": np.broadcast_to(two_j, len(u)),
              **{f"p_{i}": p for i, p in enumerate(weights.T)}}
    return TradeoffSweep(params, delta, u, lower.lhs, upper.rhs, (lower, upper))


def u1_tradeoff_records(levels, grid: float) -> TradeoffSweep:
    spec = u1cov.EnergySpectrum(tuple(levels))
    if spec.d != 2:
        raise ValueError("the population-grid sweep is defined for two-level spectra")
    n_steps = _grid_steps(grid)
    _check_sweep_size((n_steps + 1) ** 2, 4)
    values = np.arange(n_steps + 1) / n_steps
    p00, p11 = (a.ravel() for a in np.meshgrid(values, values, indexing="ij"))
    pops = np.stack([p00, 1.0 - p11, 1.0 - p00, p11], axis=-1).reshape(-1, 2, 2)
    delta = u1cov.u1_deviation(spec, pops)
    u = u1cov.optimal_unitarity_for_population(spec, pops)
    cap = bnd.u1_cap(spec.d, spec.degeneracy(), spec.width, delta, u)
    label = ";".join(str(x) for x in spec.levels)
    params = {"levels": np.broadcast_to(label, len(u)), "p00": p00, "p11": p11}
    return TradeoffSweep(params, delta, u, np.zeros(len(u)), cap.rhs, (cap,))


def _tokens(column: np.ndarray, fmt: str, pre: str) -> list[str]:
    """``pre + token`` per entry, formatting each distinct value once as its CSV (``str``) or
    JSON (``json.dumps``) token; distinct means distinct bits, so -0.0 is not 0.0."""
    keys = column.view(np.int64) if column.dtype == np.float64 else column
    distinct, inverse = np.unique(keys, return_inverse=True)
    values = distinct.view(column.dtype).tolist()
    # one json.dumps call for all: no number or label token holds ", " or needs CSV quoting
    tokens = json.dumps(values)[1:-1].split(", ") if fmt == "json" else map(str, values)
    return np.array([pre + t for t in tokens], dtype=object)[inverse].tolist()


_BLOCK_ROWS = 2048  # rows joined per write: the writer never holds the whole text


def _write_records(sweep: TradeoffSweep, fmt: str, out_path: str | None) -> None:
    """Write what ``csv.writer`` or ``json.dumps(records(), indent=1, sort_keys=True)`` would."""
    columns = sweep.columns()
    if fmt == "json":
        # json.dumps lays out two records of "<name>" placeholders; split there, the
        # second gives the key order and the text before each value, the first the head
        rec = {"params": {n: f"<{n}>" for n in sweep.params}, **{n: f"<{n}>" for n in _CSV_TAIL}}
        parts = re.split(r'"<(\w+)>"', json.dumps([rec, rec], indent=1, sort_keys=True) + "\n")
        half = len(parts) // 2
        head, pres, names, foot = parts[0], parts[half:-1:2], parts[half + 1::2], parts[-1]
    else:
        names, foot = list(columns), "\r\n"
        head, pres = ",".join(names) + foot, [foot, *[","] * (len(names) - 1)]
    cells = [_tokens(columns[n], fmt, pre) for pre, n in zip(pres, names)]
    cells[0][0] = head + cells[0][0][len(pres[0]):]  # the head in place of a row break
    with open(out_path, "w", newline="") if out_path else contextlib.nullcontext(sys.stdout) as fh:
        for i in range(0, len(sweep), _BLOCK_ROWS):
            fh.write("".join(chain.from_iterable(zip(*(c[i:i + _BLOCK_ROWS] for c in cells)))))
        fh.write(foot)


# -- verification suite ------------------------------------------------------


def _check_roundtrip(rng: np.random.Generator, inject_corrupt: bool) -> dict:
    worst = 0.0
    failure = None
    fixtures = []
    for _ in range(30):
        d_in = int(rng.integers(2, 5))
        d_out = int(rng.integers(2, 5))
        rank = int(rng.integers(1, 4))
        if d_out * rank < d_in:
            rank = int(np.ceil(d_in / d_out))
        e = random_channel(d_in, d_out, rank, rng)
        fixtures.append((d_in, d_out, e.jamiolkowski))
    if inject_corrupt:
        d_in, d_out, j = fixtures[0]
        w, v = np.linalg.eigh(j)
        w[0] -= 1e-6
        fixtures.append((d_in, d_out, (v * w) @ v.conj().T))
    for d_in, d_out, j in fixtures:
        try:
            e = QuantumChannel(d_in, d_out, jamiolkowski=j)
        except ChannelValidationError as err:
            failure = f"fixture rejected: {err}"
            break
        for form in ("kraus", "stinespring"):
            other = QuantumChannel(e.d_in, e.d_out, **{form: getattr(e, form)})
            worst = max(worst, max_action_deviation(e, other))
        # e's Liouville matrix is derived from J: reshuffled back, it must give J
        via_liouville = QuantumChannel(e.d_in, e.d_out, liouville=e.liouville)
        worst = max(worst, float(np.max(np.abs(via_liouville.jamiolkowski - e.jamiolkowski))))
    passed = failure is None and worst < 1e-9
    return {"name": "channel_representation_roundtrip", "passed": passed,
            "detail": failure or f"max action deviation {worst:.3e}"}


def _check_mc_agreement(rng: np.random.Generator, samples: int) -> dict:
    half = SpinJ(1)
    e1 = su2cov.extremal_channel(half, half, 2)
    gens = metrics.su2_generators(half)
    seed = int(rng.integers(2**63))
    est_u = mcoracle.mc_unitarity(e1, samples, seed)
    est_d = mcoracle.mc_deviation(e1, gens, samples, seed + 1)
    ok_u = est_u.within(1.0 / 9.0)
    ok_d = est_d.within(4.0 / 9.0)
    e = random_channel(3, 2, 2, rng)
    exact = metrics.unitarity_jamiolkowski(e)
    dual = abs(exact - metrics.unitarity_complementary(e))
    est_r = mcoracle.mc_unitarity(e, samples, seed + 2)
    ok_r = est_r.within(exact) and dual < 1e-10
    return {"name": "monte_carlo_vs_closed_form", "passed": bool(ok_u and ok_d and ok_r),
            "detail": f"u_hat={est_u.mean:.6f} delta_hat={est_d.mean:.6f} dual_gap={dual:.2e}"}


def _check_su2_sweep(rng: np.random.Generator) -> dict:
    violations = 0
    total = 0
    for two_j in (1, 2, 3, 4):
        spin = SpinJ(two_j)
        weights = rng.dirichlet([0.7] * (two_j + 1), size=500)
        u, delta = metrics.su2_closed_forms(weights, spin, spin)
        lower, upper = bnd.su2_bound_checks(spin.j, u, delta)
        total += len(u)
        violations += int(np.count_nonzero(~(lower.satisfied & upper.satisfied)))
    return {"name": "su2_tradeoff_bounds", "passed": violations == 0,
            "detail": f"{violations} violations over {total} mixtures"}


def _check_u1_sweep() -> dict:
    spec = u1cov.EnergySpectrum((0, 1))
    bad = 0
    for p00 in np.linspace(0, 1, 21):
        for p11 in np.linspace(0, 1, 21):
            pop = np.array([[p00, 1 - p11], [1 - p00, p11]])
            ch = u1cov.build_extremal(spec, pop)
            if not bnd.u1_bound(ch).satisfied:
                bad += 1
    return {"name": "u1_tradeoff_bound", "passed": bad == 0, "detail": f"{bad} violations on the grid"}


def _check_closed_forms() -> dict:
    errs = []
    for two_j in range(1, 5):
        spin = SpinJ(two_j)
        f1 = su2cov.scaling_coefficient(two_j, two_j, 2 * two_j, 2)
        errs.append(abs(f1 + spin.j / (spin.j + 1)))
        direct = su2cov.extremal_channel(spin, spin, 2 * two_j)
        rho = np.zeros((spin.dim, spin.dim), dtype=complex)
        rho[0, 0] = 1.0
        got = float(np.real(direct.apply(rho)[-1, -1]))
        errs.append(abs(got - su2cov.time_reversal_fidelity(spin)))
    worst = max(errs)
    return {"name": "inversion_closed_forms", "passed": worst < 1e-10,
            "detail": f"max closed-form residual {worst:.3e}"}


def _check_conservation_split(rng: np.random.Generator) -> dict:
    spin = SpinJ(2)
    worst = 0.0
    for two_l in (0, 2, 4):
        ch = su2cov.extremal_channel(spin, spin, two_l)
        comp = ch.complementary()
        envs = su2cov.environment_spin_generators(two_l)
        for _ in range(5):
            v = haar_pure_batch(spin.dim, 1, rng)[0]
            rho = np.outer(v, v.conj())
            p_in = su2cov.spin_polarization(rho, spin)
            p_out = su2cov.spin_polarization(ch.apply(rho), spin)
            sigma = comp.apply(rho)
            p_env = np.array([float(np.real(np.trace(g @ sigma))) for g in envs])
            worst = max(worst, float(np.max(np.abs(p_in - p_out - p_env))))
    return {"name": "angular_momentum_conservation_split", "passed": worst < 1e-9,
            "detail": f"max split residual {worst:.3e}"}


def run_verification(seed: int, samples: int, inject_corrupt: bool = False) -> dict:
    # one stream per check by position (3 and 4 draw nothing), so no check's stream moves
    children = np.random.SeedSequence(seed).spawn(6)
    checks = [
        _check_roundtrip(np.random.default_rng(children[0]), inject_corrupt),
        _check_mc_agreement(np.random.default_rng(children[1]), samples),
        _check_su2_sweep(np.random.default_rng(children[2])),
        _check_u1_sweep(),
        _check_closed_forms(),
        _check_conservation_split(np.random.default_rng(children[5])),
    ]
    return {
        "seed": seed,
        "samples": samples,
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
    }


# -- argument parsing ---------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's own usage errors: one line, exit 2
        self.exit(2, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="noetherlab")
    sub = parser.add_subparsers(dest="group", required=True)

    su2 = sub.add_parser("su2", help="rotation-covariant channels")
    su2_sub = su2.add_subparsers(dest="command", required=True)

    tr = su2_sub.add_parser("tradeoff", help="sweep the covariant simplex")
    tr.add_argument("--two-j", type=int, required=True)
    tr.add_argument("--grid", type=float, required=True)
    tr.add_argument("--out", default=None)
    tr.add_argument("--format", choices=("csv", "json"), default="csv")
    tr.set_defaults(func=_cmd_su2_tradeoff)

    ka = su2_sub.add_parser("kappa", help="optimal inversion/amplification factors")
    ka.add_argument("--two-jA", type=int, required=True)
    ka.add_argument("--two-jB", type=int, required=True)
    ka.set_defaults(func=_cmd_su2_kappa)

    ex = su2_sub.add_parser("channel", help="export an extremal channel")
    ex.add_argument("--two-jA", type=int, required=True)
    ex.add_argument("--two-jB", type=int, required=True)
    ex.add_argument("--two-L", type=int, required=True)
    ex.add_argument("--out", default=None)
    ex.add_argument("--repr", dest="representation",
                    choices=("kraus", "liouville", "jamiolkowski"), default="kraus")
    ex.set_defaults(func=_cmd_su2_channel)

    u1 = sub.add_parser("u1", help="time-translation covariant channels")
    u1_sub = u1.add_subparsers(dest="command", required=True)

    ut = u1_sub.add_parser("tradeoff", help="population-grid sweep with optimal unitarity")
    ut.add_argument("--levels", required=True,
                    help="comma-separated integers; a negative first one needs --levels=-3,12")
    ut.add_argument("--grid", type=float, required=True)
    ut.add_argument("--out", default=None)
    ut.add_argument("--format", choices=("csv", "json"), default="csv")
    ut.set_defaults(func=_cmd_u1_tradeoff)

    ub = u1_sub.add_parser("build", help="build an extremal channel from JSON spec")
    ub.add_argument("--json", dest="json_path", required=True)
    ub.add_argument("--out", default=None)
    ub.set_defaults(func=_cmd_u1_build)

    ver = sub.add_parser("verify", help="verification suite")
    ver_sub = ver.add_subparsers(dest="command", required=True)
    va = ver_sub.add_parser("all", help="run every invariant check")
    va.add_argument("--seed", type=int, default=0)
    va.add_argument("--samples", type=int, default=20_000)
    va.add_argument("--inject-corrupt", action="store_true",
                    help="corrupt one channel fixture to exercise failure reporting")
    va.set_defaults(func=_cmd_verify_all)

    return parser


def _run_sweep(args, title: str, sweep: TradeoffSweep) -> int:
    """Tail of both sweep commands: write the records, then print the summary
    and near-miss lines. Exit 1 on any bound violation."""
    try:
        _write_records(sweep, args.format, args.out)
    except BrokenPipeError:  # a reader gone early (`| head`): drop the rest, flush to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    n_bad = int(np.count_nonzero(~sweep.ok))
    print(f"# {title}: {len(sweep)} records, {n_bad} bound violations", file=sys.stderr)
    print("\n".join(sweep.near_miss_lines()), file=sys.stderr)
    return 0 if n_bad == 0 else 1


def _cmd_su2_tradeoff(args) -> int:
    if not (args.two_j >= 1 and 0.0 < args.grid <= 1.0):
        raise ValueError("need --two-j >= 1 and 0 < --grid <= 1")
    return _run_sweep(args, f"su2 tradeoff two_j={args.two_j} grid={args.grid}",
                      su2_tradeoff_records(args.two_j, args.grid))


def _cmd_su2_kappa(args) -> int:
    print(json.dumps(su2cov.kappa_extrema(SpinJ(args.two_jA), SpinJ(args.two_jB)), sort_keys=True))
    return 0


def _cmd_su2_channel(args) -> int:
    channel = su2cov.extremal_channel(SpinJ(args.two_jA), SpinJ(args.two_jB), args.two_L)
    if args.out:
        channel.save_json(args.out, args.representation)
    else:
        print(json.dumps(channel.to_json_dict(args.representation)))
    return 0


def _cmd_u1_tradeoff(args) -> int:
    if not 0.0 < args.grid <= 1.0:
        raise ValueError("need 0 < --grid <= 1")
    try:
        levels = [int(x) for x in args.levels.split(",")]
    except ValueError:
        raise ValueError(f"--levels must be comma-separated integers, got {args.levels!r}") from None
    return _run_sweep(args, f"u1 tradeoff levels={args.levels} grid={args.grid}",
                      u1_tradeoff_records(levels, args.grid))


def _cmd_u1_build(args) -> int:
    with open(args.json_path) as fh:
        obj = json.load(fh)
    for key in ("levels", "gamma", "phases"):  # phases may be absent or null
        if key != "phases" and not (isinstance(obj, dict) and key in obj):
            raise ValueError(f"spec {args.json_path} has no {key!r}")
        if not isinstance(obj.get(key, []), list) and (key != "phases" or obj[key] is not None):
            raise ValueError(f"spec {args.json_path}: {key!r} must be a JSON array")
    spec = u1cov.EnergySpectrum(tuple(obj["levels"]))
    ch = u1cov.build_extremal(spec, obj["gamma"], phases=obj.get("phases"))
    if args.out:
        ch.save_json(args.out, "jamiolkowski")
    check = bnd.u1_bound(ch)
    summary = {
        "levels": list(spec.levels),
        "unitarity": check.lhs,
        "deviation": u1cov.u1_deviation(spec, ch.population_matrix()),
        "bound_upper": check.rhs,
        "bound_satisfied": check.satisfied,
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


def _cmd_verify_all(args) -> int:
    if args.seed < 0 or args.samples < 100:
        raise ValueError("need --seed >= 0 and --samples >= 100")
    try:
        report = run_verification(args.seed, args.samples, inject_corrupt=args.inject_corrupt)
    except ChannelValidationError as err:  # a failed invariant, not a usage error: exit 1
        raise RuntimeError("a verification check built an invalid channel") from err
    print(json.dumps(report, sort_keys=True, indent=1))
    return 0 if report["all_passed"] else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as err:  # a usage error, an unreadable input,
        # an unwritable --out or an input too large to allocate
        print(f"error: {str(err) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
