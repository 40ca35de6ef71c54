"""Channels given as label blocks (``QuantumChannel(..., blocks=...)``) against the dense
route: the same Jamiolkowski state given whole, with no labels.

Covariant SU(2) channels and twirls are given as one block per M = m_out - m_in; the dense
twin stores J and is one block.  Every form, metric and covariant operation must agree, and
both routes of the action agree with products by the Liouville matrix of Kraus operators."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noetherlab.chan import (
    ChannelValidationError,
    QuantumChannel,
    _jamiolkowski_from_liouville,
    random_channel,
)
from noetherlab.metrics import (
    deviation_avg,
    su2_generators,
    unitarity_complementary,
    unitarity_jamiolkowski,
)
from noetherlab.numkit import ginibre, pair_labels
from noetherlab.su2cov import CovariantMixture, covariant_channel, decompose, twirl
from noetherlab.su2rep import SpinJ, coupled_labels, ito_basis
from noetherlab.u1cov import EnergySpectrum, build_extremal
from support import (
    kron_liouville,
    largest_held_array,
    liouville_apply,
    liouville_apply_adjoint,
    peak_bytes,
)

TOL = 1e-12

# equal and unequal spins up to (20, 20) and (18, 20): d <= 21
spin_pairs = st.integers(1, 20).flatmap(
    lambda a: st.tuples(st.just(a), st.integers(max(1, a - 2), min(20, a + 2))))


def dense_twin(channel: QuantumChannel) -> QuantumChannel:
    return QuantumChannel(channel.d_in, channel.d_out, jamiolkowski=channel.jamiolkowski)


def gap(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def assert_blocked_matches_dense(blocked: QuantumChannel, spin_in: SpinJ, spin_out: SpinJ,
                                 seed: int):
    dense = dense_twin(blocked)
    assert len(blocked.blocks) == len(ito_basis(spin_in, spin_out).blocks)
    assert len(dense.blocks) == 1
    assert gap(blocked.jamiolkowski, dense.jamiolkowski) <= TOL
    assert gap(blocked.liouville, dense.liouville) <= TOL
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(spin_in.dim) + 1j * rng.standard_normal(spin_in.dim)
    rho = np.outer(v, v.conj()) / np.vdot(v, v)
    y = rng.standard_normal((spin_out.dim,) * 2)
    assert gap(blocked.apply(rho), dense.apply(rho)) <= TOL
    assert gap(blocked.apply_adjoint(y + y.T), dense.apply_adjoint(y + y.T)) <= TOL
    assert gap(kron_liouville(blocked.kraus), dense.liouville) <= TOL
    for metric in (unitarity_jamiolkowski, unitarity_complementary):
        assert abs(metric(blocked) - metric(dense)) <= TOL
    gens = su2_generators(spin_in, spin_out)
    assert abs(deviation_avg(blocked, gens) - deviation_avg(dense, gens)) <= TOL
    assert gap(decompose(blocked, spin_in, spin_out).weights,
               decompose(dense, spin_in, spin_out).weights) <= TOL
    assert gap(twirl(blocked, spin_in, spin_out).jamiolkowski,
               twirl(dense, spin_in, spin_out).jamiolkowski) <= TOL


@given(spin_pairs, st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_covariant_channel_matches_dense(pair, seed):
    spin_in, spin_out = SpinJ(pair[0]), SpinJ(pair[1])
    weights = np.random.default_rng(seed).dirichlet([0.7] * len(coupled_labels(spin_in, spin_out)))
    channel = covariant_channel(CovariantMixture(spin_in, spin_out, tuple(weights)))
    assert_blocked_matches_dense(channel, spin_in, spin_out, seed)


@given(spin_pairs, st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_twirl_of_a_random_channel_matches_dense(pair, seed):
    spin_in, spin_out = SpinJ(pair[0]), SpinJ(pair[1])
    rank = -(-spin_in.dim // spin_out.dim)
    channel = twirl(random_channel(spin_in.dim, spin_out.dim, rank, seed), spin_in, spin_out)
    assert_blocked_matches_dense(channel, spin_in, spin_out, seed)


# (d_in, d_out, rank, split): a Kraus-given channel, d_in, d_out <= 5, one of whose operators is
# split in two when ``split``, so that the set is linearly dependent; or (spin pair, twirled)
# for a covariant channel or a twirl given as label blocks, d <= 21
kraus_specs = st.integers(1, 5).flatmap(lambda d_in: st.integers(1, 5).flatmap(
    lambda d_out: st.tuples(st.just(d_in), st.just(d_out),
                            st.integers(-(-d_in // d_out), 4 + (d_out == 1)), st.booleans())))
oracle_specs = st.one_of(kraus_specs, st.tuples(spin_pairs, st.booleans()))


def oracle_channel(spec, seed: int):
    """The channel of a spec drawn from ``oracle_specs`` and its Kraus operators: the given
    ones, or for a blocks-given channel those derived from its blocks."""
    if len(spec) == 4:
        d_in, d_out, rank, split = spec
        ks = list(random_channel(d_in, d_out, rank, seed).kraus)
        if split:
            ks[:1] = [0.6 * ks[0], 0.8 * ks[0]]
        return QuantumChannel(d_in, d_out, kraus=ks), ks
    (two_j_in, two_j_out), twirled = spec
    spin_in, spin_out = SpinJ(two_j_in), SpinJ(two_j_out)
    if twirled:
        rank = -(-spin_in.dim // spin_out.dim)
        channel = twirl(random_channel(spin_in.dim, spin_out.dim, rank, seed), spin_in, spin_out)
    else:
        n = len(coupled_labels(spin_in, spin_out))
        weights = np.random.default_rng(seed).dirichlet([0.7] * n)
        channel = covariant_channel(CovariantMixture(spin_in, spin_out, tuple(weights)))
    return channel, channel.kraus


@given(oracle_specs, st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_actions_and_trace_check_match_the_liouville_oracle(spec, seed):
    channel, ks = oracle_channel(spec, seed)
    d_in, d_out = channel.d_in, channel.d_out
    lv = kron_liouville(ks)
    from_kraus = QuantumChannel(d_in, d_out, kraus=ks)
    assert gap(from_kraus.jamiolkowski, _jamiolkowski_from_liouville(lv, d_out, d_in)) <= 1e-15
    rng = np.random.default_rng(seed)
    rho, y = ginibre(d_in, d_in, rng), ginibre(d_out, d_out, rng)  # not Hermitian
    for e in (channel, from_kraus):  # J as blocks or whole
        assert gap(e.apply(rho), liouville_apply(lv, rho)) <= TOL
        assert gap(e.apply_adjoint(y), liouville_apply_adjoint(lv, y)) <= TOL
        j = e.jamiolkowski.reshape(d_out, d_in, d_out, d_in)
        tr_out = sum(j[a, :, a, :] for a in range(d_out))
        assert abs(e.tp_residual - gap(tr_out, np.eye(d_in) / d_in)) <= 1e-15


def decompose_outcome(channel: QuantumChannel, spin: SpinJ):
    try:
        return np.array(decompose(channel, spin, spin).weights)
    except ValueError as err:
        return str(err)


@pytest.mark.parametrize("gaps", [(1,) * 7, (1, 2, 1, 3, 1, 2, 5), (2, 1, 1, 4, 3, 1, 1)])
@pytest.mark.parametrize("seed", [0, 1])
def test_twirl_and_decompose_read_blocks_that_cut_across_the_m_labels(gaps, seed):
    # a U(1) channel on 8 levels given as its Bohr blocks; with unequal gaps those split
    # some M blocks and join others, so the twirl gathers one M block from several channel
    # blocks, and decompose meets entries between different M
    spec = EnergySpectrum(tuple(int(x) for x in np.cumsum((0,) + gaps)))
    rng = np.random.default_rng(seed)
    phases = [[int(label), k // 8, float(rng.uniform(0, 6))]
              for k, label in enumerate(spec.bohr_labels())]
    dense = build_extremal(spec, rng.dirichlet([0.5] * 8, size=8).T, phases=phases)
    labels = spec.bohr_labels()
    index = [np.flatnonzero(labels == label) for label in np.unique(labels)]
    blocked = QuantumChannel(8, 8, blocks=[(i, dense.jamiolkowski[np.ix_(i, i)]) for i in index])
    spin = SpinJ(7)
    assert gap(twirl(blocked, spin, spin).jamiolkowski,
               twirl(dense, spin, spin).jamiolkowski) <= TOL
    outcome, expected = decompose_outcome(blocked, spin), decompose_outcome(dense, spin)
    assert outcome == expected if isinstance(expected, str) else gap(outcome, expected) <= TOL


def covariance_error(channel: QuantumChannel, spin_in: SpinJ, spin_out: SpinJ) -> str:
    with pytest.raises(ValueError, match="^channel is not covariant: twirl residual ") as err:
        decompose(channel, spin_in, spin_out)
    return str(err.value)


@pytest.mark.parametrize("pair", [(1, 1), (4, 6), (20, 20)])
def test_decompose_rejects_a_random_dense_channel(pair):
    spin_in, spin_out = SpinJ(pair[0]), SpinJ(pair[1])
    covariance_error(random_channel(spin_in.dim, spin_out.dim, 2, 11), spin_in, spin_out)


@pytest.mark.parametrize("pair", [(3, 3), (7, 7), (4, 6), (20, 20)])
def test_decompose_rejects_one_off_label_entry(pair):
    # uniform weights keep every eigenvalue of J >= 1e-3, so J stays CPTP; the two entries
    # sit on different output rows, where tr_out J does not read them
    spin_in, spin_out = SpinJ(pair[0]), SpinJ(pair[1])
    n = len(coupled_labels(spin_in, spin_out))
    j = covariant_channel(CovariantMixture(spin_in, spin_out, (1 / n,) * n)).jamiolkowski.copy()
    labels = pair_labels(spin_out.m_values(), spin_in.m_values())
    b = int(np.flatnonzero((labels != labels[0]) & (np.arange(len(labels)) >= spin_in.dim))[0])
    j[0, b] = j[b, 0] = 1e-6
    message = covariance_error(QuantumChannel(spin_in.dim, spin_out.dim, jamiolkowski=j),
                               spin_in, spin_out)
    assert message == "channel is not covariant: twirl residual 1.00e-06"


def covariant_blocks(two_j: int = 2):
    spin = SpinJ(two_j)
    blocks = covariant_channel(CovariantMixture(spin, spin, (0.2, 0.3, 0.5))).blocks
    return spin.dim, [(np.array(i), np.array(b)) for i, b in blocks]


def test_blocks_round_trip():
    d, blocks = covariant_blocks()
    channel = QuantumChannel(d, d, blocks=blocks)
    assert all(np.array_equal(i, j) and np.array_equal(a, b)
               for (i, a), (j, b) in zip(channel.blocks, blocks))
    assert not any(a.flags.writeable for pair in channel.blocks for a in pair)
    blocks[0][1][0, 0] += 1.0  # the channel holds copies
    assert channel.blocks[0][1][0, 0] != blocks[0][1][0, 0]


def malformed(edit):
    d, blocks = covariant_blocks()
    edit(blocks)
    return d, blocks


def swap_in(k, entry):
    return lambda blocks: blocks.__setitem__(k, entry)


@pytest.mark.parametrize("edit, error, message", [
    # the indices: overlapping, out of range (blocks M = 2 .. -2 have 1, 2, 3, 2, 1)
    (lambda b: b.__setitem__(0, b[1]), ValueError, "cover 0..8 once each"),
    (swap_in(0, (np.array([9]), np.eye(1))), ValueError, "cover 0..8 once each"),
    (swap_in(0, (np.array([-1]), np.eye(1))), ValueError, "cover 0..8 once each"),
    # the block's shape, and its index's type
    (swap_in(2, (np.array([1, 3]), np.ones((2, 3)))), ValueError, "block 2 is not an m x m"),
    (swap_in(2, (np.array([1, 3]), np.eye(3))), ValueError, "block 2 is not an m x m"),
    (swap_in(2, (np.array([1, 3]), np.ones(2))), ValueError, "block 2 is not an m x m"),
    (swap_in(2, (np.array([1.0, 3.0]), np.eye(2))), ValueError, "block 2 is not an m x m"),
    (lambda b: b.append((np.array([], dtype=int), np.zeros((0, 0)))), ValueError,
     "block 5 is not an m x m"),
    (swap_in(0, (np.array(0), np.array(0.1))), ValueError, "block 0 is not an m x m"),
    (swap_in(2, (np.array([[2, 3], [4, 5]]), np.eye(4))), ValueError, "block 2 is not an m x m"),
    # the values: finite, Hermitian, positive, trace preserving
    (lambda b: b[4][1].__setitem__((0, 0), np.nan), ChannelValidationError, "non-finite"),
    (lambda b: b[4][1].__setitem__((0, 0), np.inf), ChannelValidationError, "non-finite"),
    (lambda b: b[2][1].__setitem__((0, 1), 1e-3), ChannelValidationError, "not Hermitian"),
    (lambda b: b[0][1].__imul__(-1), ChannelValidationError, "not completely positive"),
    (lambda b: b[4][1].__imul__(0.5), ChannelValidationError, "not trace preserving"),
])
def test_malformed_blocks_give_one_line_errors(edit, error, message):
    d, blocks = malformed(edit)
    with pytest.raises(error, match=re.escape(message)) as err:
        QuantumChannel(d, d, blocks=blocks)
    assert "\n" not in str(err.value)
    if error is ValueError:
        assert not isinstance(err.value, ChannelValidationError)


def test_an_index_in_no_block_is_a_zero_row():
    # E^1 between spins 1 vanishes on index 4 (m_out = m_in = 0, up to round-off) and on the
    # blocks M = +-2, indices 2 and 6: given without them, or with them padded with zeros,
    # its blocks give one channel
    spin = SpinJ(2)
    blocks = covariant_channel(CovariantMixture(spin, spin, (0.0, 1.0, 0.0))).blocks
    cut = [(i[keep], b[np.ix_(keep, keep)]) for i, b in blocks
           for keep in [np.flatnonzero(np.max(np.abs(b), axis=1) > 1e-12)] if keep.size]
    assert sorted(np.concatenate([i for i, _ in cut]).tolist()) == [0, 1, 3, 5, 7, 8]
    short = QuantumChannel(spin.dim, spin.dim, blocks=cut)
    j = short.jamiolkowski
    padded = QuantumChannel(spin.dim, spin.dim, blocks=[(i, j[np.ix_(i, i)]) for i, _ in blocks])
    assert np.array_equal(short.jamiolkowski, padded.jamiolkowski)
    assert short.tp_residual == padded.tp_residual
    assert abs(short.cp_min_eig - padded.cp_min_eig) <= TOL and short.cp_min_eig <= 0.0
    rho = ginibre(spin.dim, spin.dim, 5)
    assert gap(short.apply(rho), padded.apply(rho)) <= TOL
    assert gap(short.apply_adjoint(rho), padded.apply_adjoint(rho)) <= TOL
    assert abs(unitarity_jamiolkowski(short) - unitarity_jamiolkowski(padded)) <= TOL
    assert gap(kron_liouville(short.kraus), padded.liouville) <= TOL
    with pytest.raises(ValueError, match="^block indices must cover 0..8 once each at most$"):
        QuantumChannel(spin.dim, spin.dim, blocks=cut + cut[:1])


def test_covariant_pipeline_peaks_below_a_quarter_of_j():
    # two_j = 20: a dense J is 441 x 441 complex, 3.1 MB; its label blocks hold 6,181 entries
    spin = SpinJ(20)
    n = len(coupled_labels(spin, spin))
    mix = CovariantMixture(spin, spin, tuple(np.random.default_rng(12).dirichlet([0.7] * n)))
    covariant_channel(mix)  # warms the ITO basis cache

    def pipeline():
        channel = covariant_channel(mix)
        decompose(channel, spin, spin)
        unitarity_jamiolkowski(twirl(channel, spin, spin))

    assert peak_bytes(pipeline) < 0.25 * spin.dim**4 * 16


def test_block_given_channel_stores_no_dense_j():
    spin = SpinJ(20)
    n = len(coupled_labels(spin, spin))
    channel = covariant_channel(CovariantMixture(spin, spin, (1 / n,) * n))
    first, second = channel.jamiolkowski, channel.jamiolkowski
    assert first is not second and np.array_equal(first, second)
    assert not first.flags.writeable
    assert largest_held_array(channel) < spin.dim**4


@pytest.mark.parametrize("action", ["deviation_avg", "apply"])
def test_actions_on_blocks_peak_below_a_quarter_of_j_and_store_nothing(action):
    # two_j = 20: a dense J (or Liouville matrix) is 441 x 441 complex, 3.1 MB
    spin = SpinJ(20)
    n = len(coupled_labels(spin, spin))
    mix = CovariantMixture(spin, spin, tuple(np.random.default_rng(13).dirichlet([0.7] * n)))
    channel, gens = covariant_channel(mix), su2_generators(spin)
    rho = ginibre(spin.dim, spin.dim, 13)
    call = {"deviation_avg": lambda: deviation_avg(channel, gens),
            "apply": lambda: channel.apply(rho)}[action]
    assert peak_bytes(call) < 0.25 * spin.dim**4 * 16
    assert largest_held_array(channel) < spin.dim**4
