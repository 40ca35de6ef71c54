"""Acceptance suite: the shipping criteria, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Everything here finishes in well under five minutes.
"""

import csv
import io
import subprocess
import sys
import time

import numpy as np

from noetherlab.bounds import lower_bound_multiplicity_free, su2_bounds, upper_bound_general
from noetherlab.chan import QuantumChannel, random_channel
from noetherlab.mcoracle import mc_unitarity
from noetherlab.metrics import (
    deviation_su2_closed,
    su2_generators,
    unitarity_complementary,
    unitarity_jamiolkowski,
    unitarity_su2_closed,
)
from noetherlab.su2cov import (
    CovariantMixture,
    covariant_channel,
    environment_spin_generators,
    extremal_channel,
    extremal_kraus,
    kappa_extrema,
    polarization_factor,
    scaling_coefficient,
    spin_polarization,
    time_reversal_fidelity,
)
from noetherlab.su2rep import SpinJ, cg, coupled_labels, spin_operators
from noetherlab.u1cov import EnergySpectrum
from support import dephasing_channel, pure_mixture


def report(num: int, passed: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, detail


def test_criterion_01_universal_not_factor():
    t0 = time.monotonic()
    half = SpinJ(1)
    e = extremal_channel(half, half, 2)
    worst = max(
        float(np.max(np.abs(e.apply_adjoint(op) + op / 3.0)))
        for op in spin_operators(half)
    )
    elapsed = time.monotonic() - t0
    report(1, worst < 1e-12 and elapsed < 1.0,
           f"adjoint spin factor -1/3 within {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_optimal_inversion_factor():
    worst = 0.0
    for two_j in range(1, 9):
        j = two_j / 2
        f1 = scaling_coefficient(two_j, two_j, 2 * two_j, 2)
        worst = max(worst, abs(f1 + j / (j + 1)))
    report(2, worst < 1e-12, f"f1 of the maximal-environment channel = -j/(j+1) within {worst:.2e}")


def test_criterion_03_amplification_branches():
    t0 = time.monotonic()
    ok = True
    worst = 0.0
    for two_ja in range(1, 9):
        for two_jb in range(1, 9):
            ja, jb = two_ja / 2, two_jb / 2
            expect = jb / ja if two_ja >= two_jb else (jb + 1) / (ja + 1)
            rep = kappa_extrema(SpinJ(two_ja), SpinJ(two_jb))
            worst = max(worst, abs(rep["kappa_plus"] - expect))
            ok = ok and rep["two_L_plus"] == abs(two_ja - two_jb)
    elapsed = time.monotonic() - t0
    report(3, ok and worst < 1e-12 and elapsed < 10.0,
           f"both branches at L=|jA-jB| within {worst:.2e}, {elapsed:.2f}s")


def test_criterion_04_time_reversal_fidelity():
    worst = 0.0
    for two_j in range(1, 9):
        s = SpinJ(two_j)
        e = extremal_channel(s, s, 2 * two_j)
        rho = np.zeros((s.dim, s.dim), dtype=complex)
        rho[0, 0] = 1.0
        direct = float(np.real(e.apply(rho)[-1, -1]))
        worst = max(worst, abs(direct - time_reversal_fidelity(s)))
    value_half = time_reversal_fidelity(SpinJ(1))
    # large-spin trend, with the channel matrix element evaluated directly
    # through the canonical Kraus family (exact coupling coefficients)
    two_j = 40
    two_l = 2 * two_j
    d = two_j + 1
    direct_40 = d / (two_l + 1) * sum(
        cg(two_j, -two_j, two_j, -two_j, two_l, two_m) ** 2
        for two_m in range(-two_l, two_l + 2, 2)
    )
    trend_ok = abs(direct_40 - 0.5) < 0.02
    report(4, worst < 1e-10 and abs(value_half - 2 / 3) < 1e-15 and trend_ok,
           f"closed form within {worst:.2e}; j=1/2 gives 2/3; value at two_j=40 is {direct_40:.4f}")


def test_criterion_05_unitarity_triple_agreement():
    t0 = time.monotonic()
    rng = np.random.default_rng(20260810)
    worst_exact = 0.0
    mc_fail = 0
    for i in range(50):
        d_in = int(rng.integers(2, 5))
        d_out = int(rng.integers(2, 5))
        rank = int(rng.integers(1, 4))
        if d_out * rank < d_in:
            rank = -(-d_in // d_out)
        e = random_channel(d_in, d_out, rank, rng)
        u_j = unitarity_jamiolkowski(e)
        u_c = unitarity_complementary(e)
        worst_exact = max(worst_exact, abs(u_j - u_c))
        if not mc_unitarity(e, 100_000, 1000 + i).within(u_j):
            mc_fail += 1
    elapsed = time.monotonic() - t0
    report(5, worst_exact < 1e-10 and mc_fail == 0 and elapsed < 120.0,
           f"exact routes within {worst_exact:.2e}, {mc_fail} MC misses, {elapsed:.1f}s")


def test_criterion_06_qubit_tradeoff_identity():
    half = SpinJ(1)
    worst = 0.0
    for p0 in np.arange(0.0, 1.0 + 1e-9, 1e-3):
        mix = CovariantMixture(half, half, (p0, 1.0 - p0))
        u = unitarity_su2_closed(mix)
        sd = np.sqrt(deviation_su2_closed(mix))
        worst = max(worst, abs(u - (1 - 4 * sd * (1 - sd))))
    report(6, worst < 1e-10, f"u = 1 - 4 sqrt(D)(1 - sqrt(D)) within {worst:.2e}")


def test_criterion_07_su2_bound_envelope():
    rng = np.random.default_rng(20260811)
    violations = 0
    for two_j in (1, 2, 3, 4):
        s = SpinJ(two_j)
        for _ in range(10_000):
            mix = CovariantMixture(s, s, tuple(rng.dirichlet([0.8] * (two_j + 1))))
            lo, up = su2_bounds(mix)
            if not (lo.satisfied and up.satisfied):
                violations += 1
    half = SpinJ(1)
    _, up = su2_bounds(pure_mixture(half, half, 2))
    tight = abs(up.lhs - up.rhs)
    report(7, violations == 0 and tight < 1e-12,
           f"{violations} violations in 40000 mixtures; upper bound tight to {tight:.2e}")


def test_criterion_08_general_bounds():
    rng = np.random.default_rng(20260812)
    bad = 0
    total = 0
    for two_j in (1, 2, 3, 4):
        s = SpinJ(two_j)
        gens = su2_generators(s)
        f_table = {tl: polarization_factor(s, s, tl) for tl in coupled_labels(s, s)}
        for _ in range(1000):
            mix = CovariantMixture(s, s, tuple(rng.dirichlet([0.8] * (two_j + 1))))
            e = covariant_channel(mix)
            up = upper_bound_general(e, gens)
            lo = lower_bound_multiplicity_free(e, gens, f_table)
            total += 1
            if not (up.satisfied and up.applicable and lo.satisfied):
                bad += 1
    half = SpinJ(1)
    e = extremal_channel(half, half, 2)
    table = {tl: polarization_factor(half, half, tl) for tl in coupled_labels(half, half)}
    lo = lower_bound_multiplicity_free(e, su2_generators(half), table)
    const_err = abs(lo.lhs - 2 / 9)
    report(8, bad == 0 and const_err < 1e-12,
           f"{bad}/{total} violations; qubit lower-bound value 2/9 within {const_err:.2e}")


def test_criterion_09_u1_figure_reproduction():
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "noetherlab.cli", "u1", "tradeoff",
         "--levels", "0,1", "--grid", "0.02"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    above = sum(float(r["unitarity"]) > float(r["bound_upper"]) + 1e-9 for r in rows)
    deph_err = max(
        abs(unitarity_jamiolkowski(dephasing_channel(EnergySpectrum(levels), 1.0))
            - 1.0 / (len(levels) + 1))
        for levels in ((0, 1), (0, 1, 2), (0, 1, 3, 6))
    )
    elapsed = time.monotonic() - t0
    report(9, len(rows) == 2601 and above == 0 and deph_err < 1e-12 and elapsed < 30.0,
           f"{len(rows)} records, {above} above the bound; dephasing endpoint within "
           f"{deph_err:.2e}; {elapsed:.1f}s")


def test_criterion_10_conservation_split():
    spin = SpinJ(2)
    rng = np.random.default_rng(20260813)
    worst = 0.0
    for two_l in coupled_labels(spin, spin):
        e = extremal_channel(spin, spin, two_l)
        comp = QuantumChannel(spin.dim, spin.dim,
                              kraus=extremal_kraus(spin, spin, two_l)).complementary()
        envs = environment_spin_generators(two_l)
        for _ in range(20):
            v = rng.standard_normal(spin.dim) + 1j * rng.standard_normal(spin.dim)
            v /= np.linalg.norm(v)
            rho = np.outer(v, v.conj())
            p_in = spin_polarization(rho, spin)
            p_out = spin_polarization(e.apply(rho), spin)
            sigma = comp.apply(rho)
            p_env = np.array([float(np.real(np.trace(g @ sigma))) for g in envs])
            worst = max(worst, float(np.max(np.abs(p_in - p_out - p_env))))
    report(10, worst < 1e-9, f"polarization split across system+environment within {worst:.2e}")
