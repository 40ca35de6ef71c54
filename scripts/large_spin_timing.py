#!/usr/bin/env python3
"""Time the covariant SU(2) pipeline at one large spin and print one report line.

    python scripts/large_spin_timing.py [--two-j 40] [--seed 1]

Draws one Dirichlet(0.7) mixture between two spin-j systems, then times
``covariant_channel`` + ``twirl`` + ``unitarity_complementary`` together in a
warm process (the ITO basis is built first and not timed).  Prints those
seconds, the residual of the complementary unitarity against
``unitarity_su2_closed`` and the process's peak RSS.  It reports; it gates
nothing.
"""

import argparse
import pathlib
import resource
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from noetherlab import metrics, su2cov  # noqa: E402
from noetherlab.su2rep import SpinJ, ito_basis  # noqa: E402


def run(two_j: int, seed: int) -> str:
    spin = SpinJ(two_j)
    ito_basis(spin, spin)
    n = len(su2cov.coupled_labels(spin, spin))
    weights = np.random.default_rng(seed).dirichlet([0.7] * n)
    mix = su2cov.CovariantMixture(spin, spin, tuple(weights))
    t0 = time.perf_counter()
    channel = su2cov.twirl(su2cov.covariant_channel(mix), spin, spin)
    u = metrics.unitarity_complementary(channel)
    seconds = time.perf_counter() - t0
    residual = abs(u - metrics.unitarity_su2_closed(mix))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return (f"two_j={two_j}: covariant_channel + twirl + unitarity_complementary "
            f"{seconds:.2f} s, residual {residual:.1e} against unitarity_su2_closed, "
            f"peak RSS {rss_mb:.0f} MB")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--two-j", type=int, default=40)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    print(run(args.two_j, args.seed))
