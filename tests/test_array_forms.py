"""The array forms used by the sweeps against the scalar forms, one input at a time.

The SU(2) references are the per-label loops the closed forms were first
written as, so a stack evaluation is checked against code it does not share.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noetherlab.bounds import su2_bound_checks, su2_bounds, u1_cap
from noetherlab.metrics import deviation_su2_closed, su2_closed_forms, unitarity_su2_closed
from noetherlab.su2cov import CovariantMixture, check_weights
from noetherlab.su2rep import SpinJ, coupled_labels
from noetherlab.u1cov import (
    EnergySpectrum,
    assert_stochastic,
    optimal_unitarity_for_population,
    u1_deviation,
)

TOL = 1e-12


def unitarity_loop(mix: CovariantMixture) -> float:
    d_in, d_out = mix.spin_in.dim, mix.spin_out.dim
    labels = coupled_labels(mix.spin_in, mix.spin_out)
    s = sum(p * p / (two_l + 1) for two_l, p in zip(labels, mix.weights))
    return (d_in**2 * s - d_in / d_out) / (d_in**2 - 1)


def deviation_loop(mix: CovariantMixture) -> float:
    ja, jb = mix.spin_in.j, mix.spin_out.j
    beta = jb * (jb + 1) - ja * (ja + 1)
    labels = coupled_labels(mix.spin_in, mix.spin_out)
    drift = beta - sum(p * (two_l / 2) * (two_l / 2 + 1) for two_l, p in zip(labels, mix.weights))
    return drift**2 / (8 * ja * (ja + 1) ** 2)


def weight_stack(spin_in, spin_out, rows, seed):
    """Dirichlet rows plus the simplex vertices, where the bounds are tight."""
    n = len(coupled_labels(spin_in, spin_out))
    rng = np.random.default_rng(seed)
    return np.vstack([rng.dirichlet([0.7] * n, size=rows), np.eye(n)])


class TestSu2ArrayForms:
    @given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_closed_forms_match_scalar_forms(self, two_ja, two_jb, rows, seed):
        sa, sb = SpinJ(two_ja), SpinJ(two_jb)
        weights = weight_stack(sa, sb, rows, seed)
        u, delta = su2_closed_forms(weights, sa, sb)
        assert u.shape == delta.shape == (len(weights),)
        for w, u_row, d_row in zip(weights, u, delta):
            mix = CovariantMixture(sa, sb, tuple(w))
            assert abs(u_row - unitarity_su2_closed(mix)) <= TOL
            assert abs(d_row - deviation_su2_closed(mix)) <= TOL
            assert abs(u_row - unitarity_loop(mix)) <= TOL
            assert abs(d_row - deviation_loop(mix)) <= TOL

    @given(st.integers(1, 8), st.integers(1, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_bound_sides_match_su2_bounds(self, two_j, rows, seed):
        spin = SpinJ(two_j)
        weights = weight_stack(spin, spin, rows, seed)
        sides = su2_bound_checks(spin.j, *su2_closed_forms(weights, spin, spin))
        for k, w in enumerate(weights):
            checks = su2_bounds(CovariantMixture(spin, spin, tuple(w)))
            for many, check in zip(sides, checks):
                assert many.name == check.name
                assert abs(many.lhs[k] - check.lhs) <= TOL
                assert abs(many.rhs[k] - check.rhs) <= TOL
                assert bool(many.satisfied[k]) is check.satisfied

    def test_single_vector_gives_scalars(self):
        spin = SpinJ(2)
        u, delta = su2_closed_forms((0.2, 0.5, 0.3), spin, spin)
        assert np.ndim(u) == np.ndim(delta) == 0

    def test_spin_zero_input_rejected(self):
        with pytest.raises(ValueError, match="spin_in"):
            su2_closed_forms([1.0], SpinJ(0), SpinJ(0))

    def test_one_bad_row_rejects_the_stack(self):
        spin = SpinJ(2)
        good = np.full((4, 3), 1 / 3)
        check_weights(good, spin, spin)
        for bad_row in ([0.5, 0.6, -0.1], [0.5, 0.5, 0.1], [np.nan, 0.5, 0.5]):
            stack = good.copy()
            stack[2] = bad_row
            with pytest.raises(ValueError, match="probability"):
                su2_closed_forms(stack, spin, spin)
        with pytest.raises(ValueError, match="expected 3 weights"):
            check_weights(np.full((4, 2), 0.5), spin, spin)


def stochastic_stack(d, rows, seed):
    """Random column-stochastic matrices plus the identity and a permutation."""
    rng = np.random.default_rng(seed)
    mats = np.swapaxes(rng.dirichlet([0.9] * d, size=(rows, d)), -1, -2)
    return np.concatenate([mats, [np.eye(d), np.roll(np.eye(d), 1, axis=0)]])


class TestU1ArrayForms:
    @given(st.sampled_from([(0, 1), (0, 2), (0, 1, 2), (0, 1, 3), (0, 2, 3, 7)]),
           st.integers(1, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_stack_matches_single_matrices(self, levels, rows, seed):
        spec = EnergySpectrum(levels)
        pops = stochastic_stack(spec.d, rows, seed)
        delta = u1_deviation(spec, pops)
        u = optimal_unitarity_for_population(spec, pops)
        assert delta.shape == u.shape == (len(pops),)
        g = spec.degeneracy()
        many = u1_cap(spec.d, g, spec.width, delta, u)
        for k, pop in enumerate(pops):
            d_one = u1_deviation(spec, pop)
            u_one = optimal_unitarity_for_population(spec, pop)
            assert isinstance(d_one, float) and isinstance(u_one, float)
            assert abs(delta[k] - d_one) <= TOL
            assert abs(u[k] - u_one) <= TOL
            check = u1_cap(spec.d, g, spec.width, d_one, u_one)
            assert many.name == check.name
            assert abs(many.lhs[k] - check.lhs) <= TOL and abs(many.rhs[k] - check.rhs) <= TOL
            assert bool(many.satisfied[k]) is check.satisfied

    @pytest.mark.parametrize("entry, value, match", [
        ((1, 0, 0), -0.1, "negative"),
        ((1, 0, 0), 0.9, "sum to 1"),
        ((2, 1, 1), np.inf, "non-finite"),
        ((1, 0, 0), 2.0, "above 1"),  # checked before the sums, which could overflow
    ])
    def test_one_bad_matrix_rejects_the_stack(self, entry, value, match):
        pops = np.tile(np.eye(2), (3, 1, 1))
        pops[entry] = value
        with pytest.raises(ValueError, match=match):
            assert_stochastic(pops)
        with pytest.raises(ValueError, match=match):
            u1_deviation(EnergySpectrum((0, 1)), pops)

    def test_non_square_trailing_axes_rejected(self):
        with pytest.raises(ValueError, match="square"):
            assert_stochastic(np.ones((3, 2, 3)) / 2)
        with pytest.raises(ValueError, match="square"):
            assert_stochastic(np.array([0.5, 0.5]))
