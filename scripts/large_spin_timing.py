#!/usr/bin/env python3
"""Time the covariant SU(2) pipeline, the U(1) builder and a channel file at one large size;
print three lines.

    python scripts/large_spin_timing.py [--two-j 40] [--seed 1]

Draws one Dirichlet(0.7) mixture between two spin-j systems, then times
``covariant_channel`` + ``twirl`` + ``unitarity_complementary`` together in a
warm process (the ITO basis is built first and not timed), and ``decompose``,
``unitarity_jamiolkowski`` and ``deviation_avg`` of the twirled channel, each on
its own, and ``extremal_channel(j, j, 2j)`` from its Kraus operators.  Prints the
five times, the residual of the complementary unitarity against
``unitarity_su2_closed``, the peak RSS after ``covariant_channel`` + ``twirl``,
after ``decompose`` + ``unitarity_jamiolkowski``, after ``deviation_avg`` and after
``extremal_channel`` (all read before ``unitarity_complementary`` builds its Kraus
stack), and the process's peak RSS.  The second line comes from a fresh Python
process, started first: ``build_extremal`` + ``u1_bound`` + ``deviation_avg`` on the
levels 0..two_j with Dirichlet(0.5) populations, their time and that process's peak
RSS.  The third comes from another fresh process: ``save_json`` and then ``load_json`` of
``extremal_channel(j, j, 2j)`` as Kraus operators, their times, the loaded channel's block
count and that process's peak RSS.  It reports; it gates nothing.
"""

import argparse
import pathlib
import resource
import subprocess
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from noetherlab import bounds, chan, metrics, su2cov, u1cov  # noqa: E402
from noetherlab.su2rep import SpinJ, coupled_labels, ito_basis  # noqa: E402


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run(two_j: int, seed: int) -> str:
    spin = SpinJ(two_j)
    ito_basis(spin, spin)
    n = len(coupled_labels(spin, spin))
    weights = np.random.default_rng(seed).dirichlet([0.7] * n)
    mix = su2cov.CovariantMixture(spin, spin, tuple(weights))
    t0 = time.perf_counter()
    channel = su2cov.twirl(su2cov.covariant_channel(mix), spin, spin)
    seconds = time.perf_counter() - t0
    twirl_rss_mb = peak_rss_mb()
    t0 = time.perf_counter()
    su2cov.decompose(channel, spin, spin)
    decompose_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    metrics.unitarity_jamiolkowski(channel)
    jamiolkowski_s = time.perf_counter() - t0
    analysis_rss_mb = peak_rss_mb()
    t0 = time.perf_counter()
    metrics.deviation_avg(channel, metrics.su2_generators(spin))
    deviation_s = time.perf_counter() - t0
    deviation_rss_mb = peak_rss_mb()
    t0 = time.perf_counter()
    su2cov.extremal_channel(spin, spin, 2 * two_j)
    extremal_s = time.perf_counter() - t0
    extremal_rss_mb = peak_rss_mb()
    t0 = time.perf_counter()
    u = metrics.unitarity_complementary(channel)
    seconds += time.perf_counter() - t0
    residual = abs(u - metrics.unitarity_su2_closed(mix))
    return (f"two_j={two_j}: covariant_channel + twirl + unitarity_complementary "
            f"{seconds:.2f} s, decompose {decompose_s:.3f} s, "
            f"unitarity_jamiolkowski {jamiolkowski_s:.3f} s, deviation_avg {deviation_s:.3f} s, "
            f"extremal_channel(j, j, 2j) {extremal_s:.2f} s, "
            f"residual {residual:.1e} against unitarity_su2_closed, "
            f"peak RSS {twirl_rss_mb:.0f} MB after covariant_channel + twirl, "
            f"{analysis_rss_mb:.0f} MB after decompose + unitarity_jamiolkowski, "
            f"{deviation_rss_mb:.0f} MB after deviation_avg, "
            f"{extremal_rss_mb:.0f} MB after extremal_channel, {peak_rss_mb():.0f} MB in all")


def run_u1(two_j: int, seed: int) -> str:
    spec = u1cov.EnergySpectrum(tuple(range(two_j + 1)))
    pop = np.random.default_rng(seed).dirichlet([0.5] * spec.d, size=spec.d).T
    gens = metrics.u1_generators(spec.levels)
    t0 = time.perf_counter()
    channel = u1cov.build_extremal(spec, pop)
    bounds.u1_bound(channel)
    metrics.deviation_avg(channel, gens)
    seconds = time.perf_counter() - t0
    return (f"U(1) levels 0..{two_j} (d={spec.d}): build_extremal + u1_bound + deviation_avg "
            f"{seconds:.3f} s, peak RSS {peak_rss_mb():.0f} MB in all")


def run_file(two_j: int) -> str:
    spin = SpinJ(two_j)
    channel = su2cov.extremal_channel(spin, spin, 2 * two_j)
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "channel.json"
        t0 = time.perf_counter()
        channel.save_json(path)
        save_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        loaded = chan.QuantumChannel.load_json(path)
        load_s = time.perf_counter() - t0
    return (f"channel file of extremal_channel(j, j, 2j), two_j={two_j}: save_json {save_s:.2f} s, "
            f"load_json {load_s:.2f} s, {len(loaded.blocks)} blocks, "
            f"peak RSS {peak_rss_mb():.0f} MB in all")


def fresh(call: str) -> str:
    """The line ``call`` returns, run in a fresh Python process."""
    code = (f"import sys; sys.path.insert(0, {str(pathlib.Path(__file__).parent)!r}); "
            f"from large_spin_timing import *; print({call})")
    return subprocess.run([sys.executable, "-c", code],
                          check=True, capture_output=True, text=True).stdout


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--two-j", type=int, default=40)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    # the fresh processes run first: a child starts from its parent's peak RSS
    u1_line = fresh(f"run_u1({args.two_j}, {args.seed})")
    file_line = fresh(f"run_file({args.two_j})")
    print(run(args.two_j, args.seed))
    print(u1_line + file_line, end="")
