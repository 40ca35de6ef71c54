import numpy as np
import pytest

from noetherlab.chan import random_channel
from noetherlab.mcoracle import _CHUNK, mc_deviation, mc_unitarity
from noetherlab.metrics import (
    delta_generators,
    deviation_avg,
    su2_generators,
    u1_generators,
    unitarity_jamiolkowski,
)
from noetherlab.numkit import haar_pure_batch
from noetherlab.su2cov import CovariantMixture, covariant_channel, extremal_channel
from noetherlab.su2rep import SpinJ, coupled_labels
from noetherlab.u1cov import EnergySpectrum, build_extremal
from support import depolarizing_channel, identity_channel


class TestUnitarityEstimator:
    def test_identity_exact(self):
        est = mc_unitarity(identity_channel(2), 10_000, 0)
        assert est.mean == pytest.approx(1.0, abs=1e-12)
        assert est.std_error < 1e-12

    def test_depolarizing_qutrit(self):
        est = mc_unitarity(depolarizing_channel(3), 10_000, 1)
        assert est.within(0.0)

    def test_extremal_qubit(self):
        est = mc_unitarity(extremal_channel(SpinJ(1), SpinJ(1), 2), 100_000, 2)
        assert est.within(1 / 9)

    def test_random_channel_vs_exact(self):
        e = random_channel(3, 3, 2, 3)
        est = mc_unitarity(e, 100_000, 4)
        assert est.within(unitarity_jamiolkowski(e))

    def test_seed_determinism(self):
        e = random_channel(2, 2, 2, 5)
        a = mc_unitarity(e, 5_000, 77)
        b = mc_unitarity(e, 5_000, 77)
        assert a == b

    def test_error_shrinks_with_samples(self):
        e = random_channel(3, 2, 2, 6)
        small = mc_unitarity(e, 10_000, 8)
        large = mc_unitarity(e, 40_000, 8)
        # quadrupling the sample count roughly halves the error bar
        assert large.std_error < 0.65 * small.std_error

    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            mc_unitarity(identity_channel(2), 50, 0)


class TestDeviationEstimator:
    def test_identity_exact_zero(self):
        est = mc_deviation(identity_channel(2), su2_generators(SpinJ(1)), 1_000, 0)
        assert est.mean == 0.0 and est.std_error == 0.0

    def test_extremal_qubit(self):
        est = mc_deviation(extremal_channel(SpinJ(1), SpinJ(1), 2),
                           su2_generators(SpinJ(1)), 100_000, 1)
        assert est.within(4 / 9)

    def test_u1_full_flip(self):
        spec = EnergySpectrum((0, 1))
        ch = build_extremal(spec, np.array([[0.0, 1.0], [1.0, 0.0]]))
        est = mc_deviation(ch, u1_generators(spec.levels), 100_000, 2)
        assert est.within(1 / 3)

    def test_generic_channel_vs_closed_route(self):
        e = random_channel(3, 3, 2, 9)
        gens = su2_generators(SpinJ(2))
        est = mc_deviation(e, gens, 200_000, 10)
        exact = deviation_avg(e, gens)
        assert est.within(exact)


def _dense_reference(d: int, values_fn, samples: int, seed: int) -> tuple:
    """(mean, std_error) of values_fn over the oracle's draws, reduced as the oracle does."""
    seq = np.random.SeedSequence(seed)
    sizes = [_CHUNK] * (samples // _CHUNK) + ([samples % _CHUNK] if samples % _CHUNK else [])
    total = total_sq = 0.0
    for child, size in zip(seq.spawn(len(sizes)), sizes):
        values = values_fn(haar_pure_batch(d, size, np.random.default_rng(child)))
        total += float(np.sum(values))
        total_sq += float(np.sum(values * values))
    mean = total / samples
    var = max(0.0, (total_sq - samples * mean * mean) / (samples - 1))
    return mean, float(np.sqrt(var / samples))


def _dense_unitarity(channel):
    """Output purity of E(psi - I/d) from the full complex Liouville matrix."""
    d, lv = channel.d_in, channel.liouville
    mixed_vec = (np.eye(d) / d).reshape(-1)

    def values(psi):
        rows = np.einsum("ni,nj->nij", psi, psi.conj()).reshape(len(psi), d * d) - mixed_vec
        return d / (d - 1) * np.sum(np.abs(rows @ lv.T) ** 2, axis=1)

    return values


def _dense_deviation(channel, gens):
    """sum_k |<psi| dJ_k |psi>|^2, one three-operand einsum per generator."""
    deltas = delta_generators(channel, gens)

    def values(psi):
        return sum(np.abs(np.einsum("ni,ij,nj->n", psi.conj(), dj, psi)) ** 2 for dj in deltas)

    return values


def _su2_mixture(two_j_in, two_j_out):
    s_in, s_out = SpinJ(two_j_in), SpinJ(two_j_out)
    n = len(coupled_labels(s_in, s_out))
    weights = np.random.default_rng(two_j_in * 100 + two_j_out).dirichlet([0.7] * n)
    return covariant_channel(CovariantMixture(s_in, s_out, tuple(weights))), su2_generators(s_in, s_out)


def _u1_three_level():
    spec = EnergySpectrum((0, 1, 2))
    gamma = np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.2, 0.2, 0.6]])
    return build_extremal(spec, gamma), u1_generators(spec.levels)


REFERENCE_CASES = {
    "identity-2": lambda: (identity_channel(2), su2_generators(SpinJ(1))),
    "random-3to2": lambda: (random_channel(3, 2, 2, 11), su2_generators(SpinJ(2), SpinJ(1))),
    "su2-1to3": lambda: _su2_mixture(1, 3),
    "su2-3to1": lambda: _su2_mixture(3, 1),
    "su2-7to9": lambda: _su2_mixture(7, 9),
    "u1-three-level": _u1_three_level,
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_same_draws_same_estimate_as_dense_reference(case):
    """The oracles reproduce the dense complex estimators on the same draws."""
    channel, gens = REFERENCE_CASES[case]()
    samples = 45_000  # two full chunks and a partial one, each several row blocks
    assert samples % _CHUNK
    pairs = [(mc_unitarity(channel, samples, 21), _dense_unitarity(channel)),
             (mc_deviation(channel, gens, samples, 22), _dense_deviation(channel, gens))]
    for est, values_fn in pairs:
        mean, std_error = _dense_reference(channel.d_in, values_fn, samples, est.seed)
        assert abs(est.mean - mean) <= 1e-12 * max(1.0, abs(mean))
        assert abs(est.std_error - std_error) <= 1e-9 * std_error + 1e-12
