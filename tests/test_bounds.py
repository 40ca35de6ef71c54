import re

import numpy as np
import pytest

from noetherlab.bounds import (
    diamond_bound_given_value,
    lower_bound_multiplicity_free,
    su2_bounds,
    u1_bound,
    u1_cap,
    upper_bound_general,
)
from noetherlab.chan import (
    QuantumChannel,
    covariance_residual,
    random_channel,
)
from noetherlab.metrics import su2_generators, unitarity_su2_closed, deviation_su2_closed
from noetherlab.numkit import TOL, haar_isometry
from noetherlab.su2cov import (
    CovariantMixture,
    covariant_channel,
    decompose,
    extremal_channel,
    polarization_factor,
    twirl,
)
from noetherlab.su2rep import SpinJ, coupled_labels, spin_operators
from noetherlab.u1cov import EnergySpectrum, build_extremal, u1_deviation
from support import dephasing_channel, identity_channel, pure_mixture, unitary_channel


def qubit_f_table():
    half = SpinJ(1)
    return {tl: polarization_factor(half, half, tl) for tl in coupled_labels(half, half)}


class TestUpperBoundGeneral:
    def test_qubit_extremal_with_spec_constant(self):
        e = extremal_channel(SpinJ(1), SpinJ(1), 2)
        chk = upper_bound_general(e, su2_generators(SpinJ(1)))
        # n=3, d=2, ||J_k||_1 = 1 per side: constant 2*3*2*1*(1+1)^2 = 48
        assert abs(chk.lhs - 4 / 9) < 1e-12
        assert abs(chk.rhs - 48 * (8 / 9)) < 1e-9
        assert chk.satisfied and chk.applicable

    def test_identity_both_sides_vanish(self):
        chk = upper_bound_general(identity_channel(2), su2_generators(SpinJ(1)))
        assert chk.lhs < 1e-14 and abs(chk.rhs) < 1e-9 and chk.satisfied

    def test_random_covariant_sweep(self):
        rng = np.random.default_rng(0)
        for two_j in (1, 2):
            s = SpinJ(two_j)
            gens = su2_generators(s)
            for _ in range(100):
                mix = CovariantMixture(s, s, tuple(rng.dirichlet([1] * (two_j + 1))))
                chk = upper_bound_general(covariant_channel(mix), gens)
                assert chk.satisfied

    def test_rejects_non_covariant(self):
        with pytest.raises(ValueError, match="not covariant"):
            upper_bound_general(unitary_channel(haar_isometry(2, 2, 1)), su2_generators(SpinJ(1)))

    def test_same_covariance_threshold_as_decompose(self):
        # a CPTP channel 1e-8 away from covariance: outside tol_eq = 1e-9 for both rules,
        # the commutator of upper_bound_general and the twirl residual of decompose
        s = SpinJ(1)
        gens = spin_operators(s)
        cov = covariant_channel(CovariantMixture(s, s, (0.5, 0.5)))
        other = random_channel(2, 2, 2, seed=3)
        eps = 1e-8 / covariance_residual(other, gens, gens)
        near = QuantumChannel(2, 2, jamiolkowski=(1 - eps) * cov.jamiolkowski
                              + eps * other.jamiolkowski)
        assert 0.9e-8 < covariance_residual(near, gens, gens) < 1.1e-8
        with pytest.raises(ValueError, match="not covariant: commutator residual 1.00e-08"):
            upper_bound_general(near, su2_generators(s))
        res = np.max(np.abs(near.jamiolkowski - twirl(near, s, s).jamiolkowski))
        assert TOL.tol_eq < res < 1e-8
        with pytest.raises(ValueError, match=re.escape(f"not covariant: twirl residual {res:.2e}")):
            decompose(near, s, s)

    def test_not_applicable_when_output_larger_and_condition_fails(self):
        e = extremal_channel(SpinJ(1), SpinJ(2), 1)
        chk = upper_bound_general(e, su2_generators(SpinJ(1), SpinJ(2)))
        assert not chk.applicable

    def test_applicable_for_isometry_into_larger_space(self):
        # an embedding isometry is covariant for trivial-in-both generators;
        # use the spin embedding (L = j_B - j_A gives Kraus rank 1? no: use
        # identity-like check instead on equal dims) -- covered above; here we
        # only exercise the flag path for d_out > d_in with purity holding.
        from noetherlab.metrics import purity_condition_holds
        from noetherlab.chan import random_channel

        iso = random_channel(2, 4, 1, 2)
        assert purity_condition_holds(iso)


class TestLowerBoundMultiplicityFree:
    def test_qubit_constant(self):
        e = extremal_channel(SpinJ(1), SpinJ(1), 2)
        chk = lower_bound_multiplicity_free(e, su2_generators(SpinJ(1)), qubit_f_table())
        # K = |1 - (-1/3)| = 4/3; bound value 2/9 against sqrt(delta) = 2/3
        assert abs(chk.lhs - 2 / 9) < 1e-12
        assert abs(chk.rhs - 2 / 3) < 1e-12
        assert chk.satisfied

    def test_identity_trivial(self):
        chk = lower_bound_multiplicity_free(identity_channel(2), su2_generators(SpinJ(1)),
                                            qubit_f_table())
        assert chk.lhs < 1e-12 and chk.rhs < 1e-12 and chk.satisfied

    def test_spin1_simplex_grid(self):
        s = SpinJ(2)
        gens = su2_generators(s)
        table = {tl: polarization_factor(s, s, tl) for tl in coupled_labels(s, s)}
        steps = np.arange(0.0, 1.0001, 0.05)
        for p0 in steps:
            for p1 in steps:
                if p0 + p1 > 1 + 1e-12:
                    continue
                mix = CovariantMixture(s, s, (p0, p1, 1 - p0 - p1))
                chk = lower_bound_multiplicity_free(covariant_channel(mix), gens, table)
                assert chk.satisfied

    def test_requires_equal_dims(self):
        e = extremal_channel(SpinJ(1), SpinJ(2), 1)
        with pytest.raises(ValueError):
            lower_bound_multiplicity_free(e, su2_generators(SpinJ(1), SpinJ(2)), qubit_f_table())


class TestSu2Bounds:
    def test_qubit_extremal_upper_tight(self):
        half = SpinJ(1)
        lo, up = su2_bounds(pure_mixture(half, half, 2))
        assert abs(lo.lhs - 2 / 9) < 1e-12 and lo.satisfied
        assert abs(up.lhs - 2 / 3) < 1e-12
        assert abs(up.rhs - up.lhs) < 1e-12  # equality at the inversion vertex

    def test_identity_degenerate(self):
        half = SpinJ(1)
        lo, up = su2_bounds(pure_mixture(half, half, 0))
        assert lo.lhs == 0.0 and up.lhs == 0.0 and lo.satisfied and up.satisfied

    def test_spin_one_coefficients(self):
        one = SpinJ(2)
        mix = CovariantMixture(one, one, (0.2, 0.5, 0.3))
        u = unitarity_su2_closed(mix)
        lo, up = su2_bounds(mix)
        assert abs(lo.lhs / (1 - u) - np.sqrt(2) / 9) < 1e-12
        assert abs(up.rhs / (1 - u) - np.sqrt(2)) < 1e-12

    def test_qubit_display_coefficients(self):
        half = SpinJ(1)
        mix = CovariantMixture(half, half, (0.4, 0.6))
        u = unitarity_su2_closed(mix)
        lo, up = su2_bounds(mix)
        assert abs(lo.lhs - 0.25 * (1 - u)) < 1e-12
        assert abs(up.rhs - 0.75 * (1 - u)) < 1e-12

    def test_envelope_monte_carlo(self):
        rng = np.random.default_rng(3)
        for two_j in (1, 2, 3, 4):
            s = SpinJ(two_j)
            for _ in range(1000):
                mix = CovariantMixture(s, s, tuple(rng.dirichlet([0.7] * (two_j + 1))))
                lo, up = su2_bounds(mix)
                assert lo.satisfied and up.satisfied

    def test_unequal_spins_rejected(self):
        with pytest.raises(ValueError):
            su2_bounds(pure_mixture(SpinJ(1), SpinJ(2), 1))


class TestU1Bound:
    def test_dephasing_trivial(self):
        chk = u1_bound(dephasing_channel(EnergySpectrum((0, 1)), 1.0))
        assert abs(chk.lhs - 1 / 3) < 1e-12 and abs(chk.rhs - 1.0) < 1e-12 and chk.satisfied

    def test_qubit_full_flip(self):
        spec = EnergySpectrum((0, 1))
        chk = u1_bound(build_extremal(spec, np.array([[0.0, 1.0], [1.0, 0.0]])))
        assert abs(chk.lhs - 1 / 3) < 1e-10
        assert abs(chk.rhs - 2 / 3) < 1e-12
        assert chk.satisfied

    def test_width_rescales_bound(self):
        flip = np.array([[0.0, 1.0], [1.0, 0.0]])
        narrow = u1_bound(build_extremal(EnergySpectrum((0, 1)), flip))
        wide = u1_bound(build_extremal(EnergySpectrum((0, 2)), flip))
        # deviation scales with width^2, the bound term sqrt(delta)/width is
        # width-invariant here, so both upper bounds coincide
        assert abs(narrow.rhs - wide.rhs) < 1e-12
        assert wide.satisfied

    def test_never_contradicts_unitarity_cap(self):
        rng = np.random.default_rng(4)
        spec = EnergySpectrum((0, 1, 2))
        for _ in range(50):
            pop = rng.dirichlet([1] * 3, size=3).T
            chk = u1_bound(build_extremal(spec, pop))
            assert chk.rhs <= 1.0 + 1e-12
            assert chk.lhs <= 1.0 + 1e-12
            assert chk.satisfied


    def test_cap_matches_channel_bound(self):
        spec = EnergySpectrum((0, 1, 3))
        ch = build_extremal(spec, np.full((3, 3), 1 / 3))
        delta = u1_deviation(spec, ch.population_matrix())
        chk = u1_bound(ch)
        cap = u1_cap(spec.d, spec.degeneracy(), spec.width, delta, chk.lhs)
        assert (cap.name, cap.lhs, cap.rhs, cap.applicable) == (
            chk.name, chk.lhs, chk.rhs, chk.applicable)


class TestDiamondBound:
    def test_zero_distance_identity(self):
        chk = diamond_bound_given_value(identity_channel(2), su2_generators(SpinJ(1)), 0.0)
        assert chk.lhs < 1e-14 and chk.rhs == 0.0 and chk.satisfied

    def test_maximal_distance_always_satisfied(self):
        e = extremal_channel(SpinJ(1), SpinJ(1), 2)
        chk = diamond_bound_given_value(e, su2_generators(SpinJ(1)), 2.0)
        assert abs(chk.rhs - 4 * 3 * 0.25) < 1e-12  # 4 * sum ||J_k||_inf^2 = 3
        assert abs(chk.lhs - 4 / 9) < 1e-12
        assert chk.satisfied

    def test_hand_fed_conservative_value(self):
        e = extremal_channel(SpinJ(1), SpinJ(1), 2)
        chk = diamond_bound_given_value(e, su2_generators(SpinJ(1)), 2.0)
        assert chk.satisfied

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            diamond_bound_given_value(identity_channel(2), su2_generators(SpinJ(1)), -0.1)
