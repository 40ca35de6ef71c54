import numpy as np
import pytest

from noetherlab.chan import depolarizing_channel, identity_channel, random_channel
from noetherlab.mcoracle import mc_deviation, mc_unitarity
from noetherlab.metrics import (
    deviation_avg,
    su2_generators,
    u1_generators,
    unitarity_jamiolkowski,
)
from noetherlab.su2cov import extremal_channel
from noetherlab.su2rep import SpinJ
from noetherlab.u1cov import EnergySpectrum, build_extremal


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
        exact = deviation_avg(e, gens).delta_total
        assert est.within(exact)
