import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noetherlab.chan import (
    ChannelValidationError,
    QuantumChannel,
    max_action_deviation,
)
from noetherlab.metrics import deviation_avg, u1_generators, unitarity_jamiolkowski
from noetherlab.numkit import TOL
from noetherlab.u1cov import (
    EnergySpectrum,
    U1BlockChannel,
    _real,
    assert_stochastic,
    build_extremal,
    optimal_unitarity_for_population,
    u1_deviation,
    u1_structure_stats,
)
from support import dephasing_channel, identity_channel


def random_stochastic(d, rng):
    return rng.dirichlet([0.9] * d, size=d).T


def block_assembly(levels, gamma, phases):
    """J assembled one Bohr-frequency block at a time over explicit pair lists."""
    d = len(levels)
    j = np.zeros((d * d, d * d), dtype=complex)
    for bohr in sorted({a - b for a in levels for b in levels}):
        pairs = [(m, levels.index(levels[m] - bohr)) for m in range(d)
                 if levels[m] - bohr in levels]
        amp = np.array([np.exp(1j * phases.get((bohr, m), 0.0)) * np.sqrt(gamma[m, n] / d)
                        for m, n in pairs])
        idx = [m * d + n for m, n in pairs]
        j[np.ix_(idx, idx)] += np.outer(amp, amp.conj())
    return j


class TestSpectrum:
    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            EnergySpectrum((0, 0, 1))
        with pytest.raises(ValueError):
            EnergySpectrum((3, 1))

    @pytest.mark.parametrize("levels", [(0,), ()], ids=["one_level", "empty"])
    def test_rejects_fewer_than_two_levels(self, levels):
        with pytest.raises(ValueError, match="two or more"):
            EnergySpectrum(levels)

    @pytest.mark.parametrize("levels,bad", [
        ((0, 1.5), "1.5"),
        (("0", "1"), "'0'"),
        ((True, 2), "True"),
        ((0, np.bool_(True)), "np.True_"),
        ((0, float("nan")), "nan"),
        ((0, float("inf")), "inf"),
        ((0, None), "None"),
        ((0, 2**53), str(2**53)),
        ((0, 1e300), "1e+300"),
    ], ids=["non_integral", "strings", "bool", "numpy_bool", "nan", "inf", "none", "2**53", "huge"])
    def test_rejects_non_integer_levels_by_name(self, levels, bad):
        # no level is silently changed: int(1.5), int("0") and int(True) would be
        with pytest.raises(ValueError, match=rf"energy level {re.escape(bad)} is not an integer"):
            EnergySpectrum(levels)

    def test_accepts_numpy_integers_and_integral_floats(self):
        spec = EnergySpectrum((np.int64(0), 2.0, np.float64(5.0), 2**53 - 1))
        assert spec.levels == (0, 2, 5, 2**53 - 1)
        assert EnergySpectrum(iter([0, 1])).levels == (0, 1)
        assert all(type(x) is int for x in spec.levels)

    def test_width_and_degeneracy(self):
        spec = EnergySpectrum((0, 1, 2, 3))
        assert spec.width == 3
        assert spec.degeneracy() == 3  # equidistant spectrum maximizes it
        assert EnergySpectrum((0, 1)).degeneracy() == 1
        assert EnergySpectrum((0, 1, 3)).degeneracy() == 1
        assert EnergySpectrum((0, 1, 2, 4)).degeneracy() == 2
        assert EnergySpectrum((0, 2, 4, 6, 7)).degeneracy() == 3
        assert EnergySpectrum((-5, 0, 5, 10, 15, 20)).degeneracy() == 5

    def test_bohr_tally_matches_a_count_per_frequency(self):
        rng = np.random.default_rng(12)
        for _ in range(120):
            d = int(rng.integers(2, 65))
            span = int(rng.choice([d, 2 * d, 10**6]))  # dense levels share frequencies
            spec = EnergySpectrum(np.sort(rng.choice(span, size=d, replace=False)).tolist())
            labels = spec.bohr_labels().tolist()
            frequencies = sorted(set(labels))
            assert spec.bohr_frequencies() == frequencies
            assert all(type(b) is int for b in spec.bohr_frequencies())
            g = spec.degeneracy()
            assert type(g) is int and g == max(labels.count(b) for b in frequencies if b != 0)

    def test_block_members(self):
        # output levels m of the pairs with each Bohr frequency
        spec = EnergySpectrum((0, 1, 3))
        labels = spec.bohr_labels()
        assert labels.tolist() == [0, -1, -3, 1, 0, -2, 3, 2, 0]
        assert (np.flatnonzero(labels == 0) // 3).tolist() == [0, 1, 2]
        assert (np.flatnonzero(labels == 1) // 3).tolist() == [1]
        assert (np.flatnonzero(labels == 2) // 3).tolist() == [2]
        assert (np.flatnonzero(labels == 3) // 3).tolist() == [2]
        assert spec.bohr_frequencies() == [-3, -2, -1, 0, 1, 2, 3]

    def test_bohr_labels_are_one_read_only_array(self):
        spec = EnergySpectrum((0, 1, 3))
        assert spec.bohr_labels() is spec.bohr_labels()
        with pytest.raises(ValueError, match="read-only"):
            spec.bohr_labels()[0] = 7

    def test_frequencies_are_a_fresh_list(self):
        spec = EnergySpectrum((0, 1, 3))
        spec.bohr_frequencies().append(99)
        assert spec.bohr_frequencies() == [-3, -2, -1, 0, 1, 2, 3]
        assert spec.bohr_frequencies() is not spec.bohr_frequencies()

    def test_equality_and_hash_read_the_levels_only(self):
        a, b = EnergySpectrum((0, 1, 3)), EnergySpectrum([0, 1.0, np.int64(3)])
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != EnergySpectrum((0, 1, 4))
        assert repr(a) == "EnergySpectrum(levels=(0, 1, 3))"


class TestPopulationSize:
    @pytest.mark.parametrize("fn", [build_extremal, u1_deviation, optimal_unitarity_for_population])
    @pytest.mark.parametrize("levels,pop", [
        ((0, 1, 2), np.eye(2)),
        ((0, 1), np.eye(3)),
        ((0, 1, 2), np.stack([np.eye(2)] * 4)),
        ((0, 1), np.stack([np.eye(3)] * 4)),
    ], ids=["smaller", "larger", "stack_smaller", "stack_larger"])
    def test_mismatch_names_both_sizes(self, fn, levels, pop):
        n = pop.shape[-1]
        with pytest.raises(ValueError, match=rf"is {n}x{n}, but the spectrum has {len(levels)} levels"):
            fn(EnergySpectrum(levels), pop)

    def test_build_extremal_rejects_a_stack(self):
        with pytest.raises(ValueError, match=r"one population matrix, got shape \(3, 2, 2\)"):
            build_extremal(EnergySpectrum((0, 1)), np.stack([np.eye(2)] * 3))


def reference_assert_stochastic(p) -> None:
    """Every check of a population matrix in its order, one reduction each: the oracle of the
    messages assert_stochastic gives after its one-pass test fails."""
    p = np.asarray(p)
    if p.ndim < 2 or p.shape[-1] != p.shape[-2]:
        raise ValueError("population matrix must be square")
    if not np.isfinite(p).all():
        raise ValueError("population matrix has non-finite entries")
    if (p < -TOL.tol_eq).any():
        raise ValueError("population matrix has negative entries")
    if (p > 1.0 + TOL.tol_eq).any():
        raise ValueError("population matrix has entries above 1")
    if (abs(p.sum(axis=-2) - 1.0) > TOL.tol_eq).any():
        raise ValueError("population matrix columns must sum to 1")


def reference_build_check(gamma) -> None:
    """build_extremal's checks of gamma with every entry scanned as an object first."""
    bad = [x for x in np.asarray(gamma, dtype=object).ravel() if not _real(x)]
    if bad:
        raise ValueError(f"population matrix entry {bad[0]!r} is not a real number below 2**53")
    reference_assert_stochastic(np.asarray(gamma, dtype=float))


def outcome(fn, *args):
    """(type, message) of what ``fn(*args)`` raises, or None."""
    try:
        fn(*args)
    except Exception as err:  # any type: the type and message are what is compared
        return type(err), str(err)
    return None


STRANGER = object()
POPULATIONS = {
    "nan": [[np.nan, 0.5], [1.0, 0.5]],
    "inf": [[np.inf, 0.5], [0.0, 0.5]],
    "minus_inf": [[-np.inf, 0.5], [1.0, 0.5]],
    "1e300": [[1e300, 0.5], [0.0, 0.5]],
    "minus_tol_eq": [[-TOL.tol_eq, 0.5], [1.0 + TOL.tol_eq, 0.5]],
    "below_minus_tol_eq": [[-2 * TOL.tol_eq, 0.5], [1.0 + 2 * TOL.tol_eq, 0.5]],
    "negative_and_above_1": [[1.5, 0.5], [-0.5, 0.5]],
    "bad_sum": [[0.7, 0.5], [0.2, 0.5]],
    "bool": [[True, 0.5], [False, 0.5]],
    "string": [["0.5", 0.5], ["0.5", 0.5]],
    "none": [[None, 0.5], [1.0, 0.5]],
    "object": [[STRANGER, 0.5], [1.0, 0.5]],
    "2**53": [[2**53, 0.5], [0, 0.5]],
    "stochastic": [[0.25, 0.5], [0.75, 0.5]],
}
CONTAINERS = {"list": lambda m: m, "array": np.array,
              "object_array": lambda m: np.array(m, dtype=object)}


class TestCheckMessages:
    """The one-pass tests of build_extremal and assert_stochastic keep every message."""

    @pytest.mark.parametrize("container", CONTAINERS)
    @pytest.mark.parametrize("name", POPULATIONS)
    def test_build_extremal_as_before(self, name, container):
        gamma = CONTAINERS[container](POPULATIONS[name])
        want = outcome(reference_build_check, gamma)
        assert outcome(build_extremal, EnergySpectrum((0, 1)), gamma) == want

    @pytest.mark.parametrize("container", CONTAINERS)
    @pytest.mark.parametrize("name", POPULATIONS)
    def test_assert_stochastic_as_before(self, name, container):
        p = CONTAINERS[container](POPULATIONS[name])
        assert outcome(assert_stochastic, p) == outcome(reference_assert_stochastic, p)

    @pytest.mark.parametrize("p", [
        np.zeros((0, 2, 2)), np.stack([np.eye(2), [[0.5, 1.0], [0.5, 0.0]]]),
        np.stack([np.eye(2), [[0.5, 1.0], [0.5, -1e-8]]]), np.eye(3, dtype=int), np.eye(2) + 0j,
        np.ones((2, 3)), np.array([0.5, 0.5])])
    def test_stacks_and_dtypes_as_before(self, p):
        assert outcome(assert_stochastic, p) == outcome(reference_assert_stochastic, p)


class TestBuildExtremal:
    def test_identity_population(self):
        spec = EnergySpectrum((0, 1))
        ch = build_extremal(spec, np.eye(2))
        assert max_action_deviation(ch, identity_channel(2)) < 1e-12

    def test_population_readback(self):
        rng = np.random.default_rng(0)
        # 81 rows from nine levels on: J is held as one block per Bohr frequency
        for levels in [(0, 1), (0, 1, 3), (0, 2, 3, 7), (0, 1, 2, 4, 5, 7, 8, 9, 12)]:
            spec = EnergySpectrum(levels)
            gamma = random_stochastic(spec.d, rng)
            ch = build_extremal(spec, gamma)
            assert np.max(np.abs(ch.population_matrix() - gamma)) < 1e-12

    def test_rejects_non_stochastic(self):
        spec = EnergySpectrum((0, 1))
        with pytest.raises(ValueError):
            build_extremal(spec, np.array([[0.5, 0.2], [0.2, 0.5]]))

    @pytest.mark.parametrize("gamma", [
        [[True, False], [False, True]],
        [[1.0, 0.0], [0.0, True]],
        [["1", "0"], ["0", "1"]],
        [[1.0, 0.0], [None, 1.0]],
        [[np.nan, 1.0], [1.0, 0.0]],
        np.eye(2, dtype=bool),
    ], ids=["bools", "one_bool", "strings", "none", "nan", "bool_array"])
    def test_rejects_non_numeric_population(self, gamma):
        with pytest.raises(ValueError, match="is not a real number"):
            build_extremal(EnergySpectrum((0, 1)), gamma)

    def test_rejects_non_finite_population(self):
        with pytest.raises(ValueError, match="non-finite"):
            assert_stochastic(np.array([[np.nan, 1.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("phases", [[(1, 0, 0.3)], [(2, 1, 0.3)], [(1, 1)], [5],
                                        [(1, 1, np.nan)], [(1, 1, np.inf)], [(1, 1, "0.5")],
                                        [(1, 1, True)], [(True, True, 0.5)], [(0, False, 0.5)],
                                        {(1, 1): 0.3}, {}, 5])
    def test_rejects_malformed_phases(self, phases):
        # on a qubit the only pair with Bohr frequency 1 has output index 1; an
        # angle must be a finite number (numpy would warn on nan and inf)
        with pytest.raises(ValueError, match="phase"):
            build_extremal(EnergySpectrum((0, 1)), np.eye(2), phases=phases)

    def test_blocks_are_rank_one(self):
        rng = np.random.default_rng(1)
        spec = EnergySpectrum((0, 1, 2))
        labels = spec.bohr_labels()
        for _ in range(20):
            ch = build_extremal(spec, random_stochastic(3, rng))
            for bohr in spec.bohr_frequencies():
                idx = np.flatnonzero(labels == bohr)
                blk = ch.jamiolkowski[np.ix_(idx, idx)]
                if np.any(blk):
                    assert np.sum(np.linalg.eigvalsh(blk) > 1e-12) == 1

    @given(st.integers(2, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_block_assembly(self, d, seed):
        rng = np.random.default_rng(seed)
        levels = sorted(rng.choice(12, size=d, replace=False).tolist())
        gamma = random_stochastic(d, rng)
        gamma[:, 0] = np.eye(d)[:, -1]  # zero amplitudes, whose phases must not leave -0.0
        pairs = [(a - b, m) for m, a in enumerate(levels) for b in levels]
        phases = {pair: float(rng.uniform(-4, 4)) for pair in pairs if rng.random() < 0.5}
        triples = [(bohr, m, value) for (bohr, m), value in phases.items()]
        j = build_extremal(EnergySpectrum(tuple(levels)), gamma, phases=triples).jamiolkowski
        assert np.max(np.abs(j - block_assembly(levels, gamma, phases))) <= 1e-15
        parts = j.view(float)
        assert not np.any(np.signbit(parts[parts == 0]))

    def test_block_support_is_exact(self):
        # entries of J connecting pairs with different Bohr frequencies vanish
        rng = np.random.default_rng(2)
        for _ in range(100):
            levels = sorted(rng.choice(range(9), size=3, replace=False))
            spec = EnergySpectrum(tuple(int(x) for x in levels))
            ch = build_extremal(spec, random_stochastic(3, rng))
            j = ch.jamiolkowski
            d = spec.d
            for r in range(d * d):
                for c in range(d * d):
                    br = spec.levels[r // d] - spec.levels[r % d]
                    bc = spec.levels[c // d] - spec.levels[c % d]
                    if br != bc:
                        assert abs(j[r, c]) < 1e-12

    def test_covariance_under_time_translation(self):
        rng = np.random.default_rng(3)
        spec = EnergySpectrum((0, 1, 4))
        ch = build_extremal(spec, random_stochastic(3, rng),
                            phases=[(1, 1, 0.3), (4, 2, 1.9)])
        j = ch.jamiolkowski
        e = np.array(spec.levels, dtype=float)
        for t in rng.uniform(0, 2 * np.pi, 10):
            u_out = np.diag(np.exp(-1j * t * e))
            u = np.kron(u_out, u_out.conj())
            assert np.max(np.abs(u @ j - j @ u)) < 1e-9

    def test_phases_change_coherences_not_populations(self):
        spec = EnergySpectrum((0, 1))
        gamma = np.array([[0.3, 0.6], [0.7, 0.4]])
        plain = build_extremal(spec, gamma)
        phased = build_extremal(spec, gamma, phases=[(0, 1, 1.2)])
        assert np.allclose(plain.population_matrix(), phased.population_matrix())
        assert max_action_deviation(plain, phased) > 1e-3


class TestU1BlockChannel:
    def test_rejects_coupling_of_different_frequencies(self):
        spec = EnergySpectrum((0, 1))
        u = np.array([[np.cos(1e-4), -np.sin(1e-4)], [np.sin(1e-4), np.cos(1e-4)]])
        with pytest.raises(ChannelValidationError, match=(
                r"^not time-translation covariant: residual 5\.00e-05$")):
            U1BlockChannel(spec, [u])  # a unitary: J's entries between frequencies are ~1e-4 / 2
        k = np.eye(2)
        k[0, 1] = 1e-300  # in J it couples frequencies 0 and -1 by 5e-301, far below tol_eq
        assert U1BlockChannel(spec, [k]).tp_residual < 1e-15

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="Kraus operators must be d_out x d_in"):
            U1BlockChannel(EnergySpectrum((0, 1)), [np.eye(3)])

    def test_rejects_operators_that_do_not_preserve_trace(self):
        spec = EnergySpectrum((0, 1))
        # each operator carries one Bohr frequency, but sum K^dag K = diag(1.5, 1)
        ks = [np.eye(2), np.sqrt(0.5) * np.array([[0.0, 0.0], [1.0, 0.0]])]
        with pytest.raises(ChannelValidationError, match="not trace preserving"):
            U1BlockChannel(spec, ks)

    def test_is_a_validated_quantum_channel(self):
        ch = build_extremal(EnergySpectrum((0, 1, 3)), np.eye(3), phases=[(0, 1, 0.4)])
        assert isinstance(ch, QuantumChannel)
        assert (ch.d_in, ch.d_out) == (3, 3)
        assert ch.cp_min_eig > -1e-12 and ch.tp_residual < 1e-12

    def test_state_is_read_only(self):
        ch = dephasing_channel(EnergySpectrum((0, 1, 3)), 0.5)
        with pytest.raises(ValueError):
            ch.jamiolkowski[0, 0] = 1.0


class TestDephasing:
    def test_endpoints(self):
        spec = EnergySpectrum((0, 1))
        assert max_action_deviation(dephasing_channel(spec, 0.0),
                                    identity_channel(2)) < 1e-12
        assert abs(unitarity_jamiolkowski(dephasing_channel(spec, 1.0)) - 1 / 3) < 1e-12

    @pytest.mark.parametrize("levels", [(0, 1), (0, 1, 2), (0, 2, 3, 7)])
    def test_full_dephasing_unitarity(self, levels):
        spec = EnergySpectrum(levels)
        u = unitarity_jamiolkowski(dephasing_channel(spec, 1.0))
        assert abs(u - 1 / (spec.d + 1)) < 1e-12

    def test_monotone_in_strength(self):
        spec = EnergySpectrum((0, 1, 3))
        us = [unitarity_jamiolkowski(dephasing_channel(spec, p))
              for p in np.linspace(0, 1, 11)]
        assert all(a >= b - 1e-12 for a, b in zip(us, us[1:]))

    def test_zero_deviation(self):
        spec = EnergySpectrum((0, 2, 5))
        for p in (0.0, 0.4, 1.0):
            ch = dephasing_channel(spec, p)
            assert u1_deviation(spec, ch.population_matrix()) == 0.0
            assert deviation_avg(ch, u1_generators(spec.levels)) < 1e-20


class TestStructureStats:
    def test_identity_channel(self):
        spec = EnergySpectrum((0, 1, 2))
        st = u1_structure_stats(build_extremal(spec, np.eye(3)))
        assert st.q[0] == 3.0
        assert all(v == 0.0 for b, v in st.q.items() if b != 0)
        assert abs(st.b - 1.0) < 1e-12

    def test_q_sums_to_dimension(self):
        rng = np.random.default_rng(4)
        spec = EnergySpectrum((0, 1, 2, 3))
        st = u1_structure_stats(build_extremal(spec, random_stochastic(4, rng)))
        assert abs(sum(st.q.values()) - 4.0) < 1e-12
        assert all(v <= st.g + 1e-12 for b, v in st.q.items() if b != 0)

    def test_b_exceeds_one_unless_bistochastic(self):
        spec = EnergySpectrum((0, 1))
        st = u1_structure_stats(build_extremal(spec, np.array([[1.0, 1.0], [0.0, 0.0]])))
        assert st.b > 1.0
        bis = u1_structure_stats(build_extremal(spec, np.array([[0.3, 0.7], [0.7, 0.3]])))
        assert abs(bis.b - 1.0) < 1e-12


class TestOptimalUnitarity:
    def test_qubit_corner_cases(self):
        spec = EnergySpectrum((0, 1))
        cases = {(1.0, 1.0): 1.0, (0.0, 0.0): 1 / 3, (1.0, 0.0): 0.0}
        for (p00, p11), expect in cases.items():
            pop = np.array([[p00, 1 - p11], [1 - p00, p11]])
            assert abs(optimal_unitarity_for_population(spec, pop) - expect) < 1e-12

    def test_matches_direct_jamiolkowski_purity(self):
        rng = np.random.default_rng(5)
        for levels in [(0, 1), (0, 1, 2), (0, 1, 3)]:
            spec = EnergySpectrum(levels)
            for _ in range(15):
                pop = random_stochastic(spec.d, rng)
                closed = optimal_unitarity_for_population(spec, pop)
                direct = unitarity_jamiolkowski(build_extremal(spec, pop))
                assert abs(closed - direct) < 1e-10


class TestDeviationClosedForm:
    def test_matches_generator_route(self):
        rng = np.random.default_rng(6)
        for levels in [(0, 1), (0, 2), (0, 1, 3)]:
            spec = EnergySpectrum(levels)
            for _ in range(10):
                pop = random_stochastic(spec.d, rng)
                ch = build_extremal(spec, pop)
                closed = u1_deviation(spec, pop)
                direct = deviation_avg(ch, u1_generators(spec.levels))
                assert abs(closed - direct) < 1e-12

    def test_qubit_formula(self):
        spec = EnergySpectrum((0, 1))
        pop = np.array([[0.4, 0.9], [0.6, 0.1]])
        p00, p11 = 0.4, 0.1
        expect = ((p00 - p11) ** 2 + (1 - p00) ** 2 + (1 - p11) ** 2) / 6
        assert abs(u1_deviation(spec, pop) - expect) < 1e-12
