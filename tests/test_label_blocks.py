"""Labelled channels (one eigenproblem per label block of J) against the dense
route: an unlabelled QuantumChannel built from the same Jamiolkowski state.

Sizes straddle the 64-row rule below which a labelled J stays one block."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noetherlab import numkit
from noetherlab.chan import ChannelValidationError, QuantumChannel, random_channel
from noetherlab.metrics import unitarity_complementary, unitarity_jamiolkowski
from noetherlab.numkit import pair_labels
from noetherlab.su2cov import CovariantMixture, covariant_channel, extremal_channel, twirl
from noetherlab.su2rep import SpinJ, coupled_labels, ito_basis
from noetherlab.u1cov import EnergySpectrum, U1BlockChannel, build_extremal
from support import dephasing_channel, peak_bytes

TOL = 1e-12


def jz_labels(spin_in: SpinJ, spin_out: SpinJ) -> np.ndarray:
    return pair_labels(spin_out.m_values(), spin_in.m_values())


def kraus_state(channel: QuantumChannel) -> np.ndarray:
    """sum_k vec K_k vec K_k^dag / d_in: J rebuilt from the Kraus operators."""
    vecs = np.stack(channel.kraus).reshape(channel.kraus_rank, -1)
    return vecs.T @ vecs.conj() / channel.d_in


def assert_matches_dense(labelled: QuantumChannel):
    """Same Kraus form as the dense route, and exactly the documented rule: the Kraus
    operators keep the eigenpairs of J above tol_psd, so adding back the ones at or
    below it, taken from an independent eigh of J, gives J."""
    dense = QuantumChannel(labelled.d_in, labelled.d_out, jamiolkowski=labelled.jamiolkowski)
    assert abs(labelled.cp_min_eig - dense.cp_min_eig) <= TOL
    assert labelled.kraus_rank == dense.kraus_rank
    rebuilt = kraus_state(labelled)
    assert np.max(np.abs(rebuilt - kraus_state(dense))) <= TOL
    w, v = np.linalg.eigh(labelled.jamiolkowski)
    dropped = w <= numkit.TOL.tol_psd
    rest = (v[:, dropped] * w[dropped]) @ v[:, dropped].conj().T
    assert np.max(np.abs(rebuilt + rest - labelled.jamiolkowski)) <= TOL
    assert abs(unitarity_complementary(labelled) - unitarity_jamiolkowski(labelled)) <= TOL


def mixture(spin_in: SpinJ, spin_out: SpinJ, seed: int, sparse: bool) -> CovariantMixture:
    """Dirichlet(0.7) weights; ``sparse`` zeroes about half of them (lower Kraus rank)."""
    rng = np.random.default_rng(seed)
    w = rng.dirichlet([0.7] * len(coupled_labels(spin_in, spin_out)))
    if sparse:
        w[rng.random(len(w)) < 0.5] = 0.0
        w = w / w.sum() if w.sum() > 0 else np.eye(len(w))[0]
    return CovariantMixture(spin_in, spin_out, tuple(w))


# equal and unequal spins up to (20, 20) and (15, 17): J has 4 to 441 rows
spin_pairs = st.integers(1, 20).flatmap(
    lambda a: st.tuples(st.just(a), st.integers(max(1, a - 2), min(20, a + 2))))


@given(spin_pairs, st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=25, deadline=None)
def test_su2_covariant_channel_matches_dense(pair, seed, sparse):
    spin_in, spin_out = SpinJ(pair[0]), SpinJ(pair[1])
    assert_matches_dense(covariant_channel(mixture(spin_in, spin_out, seed, sparse)))


@given(spin_pairs, st.integers(1, 3), st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_su2_twirl_matches_dense(pair, rank, seed):
    spin_in, spin_out = SpinJ(pair[0]), SpinJ(pair[1])
    rank = max(rank, -(-spin_in.dim // spin_out.dim))
    assert_matches_dense(twirl(random_channel(spin_in.dim, spin_out.dim, rank, seed),
                               spin_in, spin_out))


@pytest.mark.parametrize("pair", [(20, 20), (15, 17), (7, 7), (4, 4)])
def test_su2_largest_pairs_match_dense(pair):
    spin_in, spin_out = SpinJ(pair[0]), SpinJ(pair[1])
    assert_matches_dense(covariant_channel(mixture(spin_in, spin_out, 1, False)))
    extremal = extremal_channel(spin_in, spin_out, coupled_labels(spin_in, spin_out)[-2])
    assert abs(extremal.cp_min_eig - QuantumChannel(
        spin_in.dim, spin_out.dim, jamiolkowski=extremal.jamiolkowski).cp_min_eig) <= TOL


@st.composite
def u1_channels(draw):
    d = draw(st.integers(2, 10))
    gaps = draw(st.lists(st.integers(1, 3), min_size=d - 1, max_size=d - 1))
    spec = EnergySpectrum(tuple(int(x) for x in np.cumsum([0] + gaps)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pop = rng.dirichlet([0.5] * d, size=d).T
    labels = spec.bohr_labels().tolist()
    phases = [[labels[k], k // d, float(rng.uniform(0, 2 * np.pi))] for k in range(0, d * d, 3)]
    return build_extremal(spec, pop, phases=phases)


@given(u1_channels())
@settings(max_examples=30, deadline=None)
def test_u1_build_extremal_matches_dense(channel):
    assert_matches_dense(channel)


def test_u1_kraus_form_drops_a_block_below_tol_psd():
    # the single-pair Bohr block of levels 1 <- 0 holds gamma / d = 5e-10 < tol_psd
    gamma = np.array([[1 - 1.5e-9, 0, 0], [1.5e-9, 1, 0], [0, 0, 1]])
    channel = build_extremal(EnergySpectrum((0, 1, 3)), gamma)
    missed = np.max(np.abs(kraus_state(channel) - channel.jamiolkowski))
    assert missed == pytest.approx(5e-10, rel=1e-6)
    assert_matches_dense(channel)


@pytest.mark.parametrize("d", [3, 8, 10])
def test_u1_dephasing_matches_dense(d):
    assert_matches_dense(dephasing_channel(EnergySpectrum(tuple(range(d))), 0.3))


def test_jz_labels_are_the_ito_block_labels():
    for two_j_in, two_j_out in ((2, 2), (3, 5), (6, 1)):
        spin_in, spin_out = SpinJ(two_j_in), SpinJ(two_j_out)
        labels = jz_labels(spin_in, spin_out)
        for two_m, index, _ in ito_basis(spin_in, spin_out).blocks:
            assert set(labels[index].tolist()) == {two_m}
            assert np.count_nonzero(labels == two_m) == len(index)


def test_bohr_labels_are_pair_labels():
    spec = EnergySpectrum((0, 1, 3))
    assert spec.bohr_labels().tolist() == [0, -1, -3, 1, 0, -2, 3, 2, 0]
    assert pair_labels([5, 3], [0, 1, 2]).tolist() == [5, 4, 3, 3, 2, 1]


# spin (7, 7) gives J 64 rows (per-label blocks), spin (4, 4) 25 rows (one block)
@pytest.mark.parametrize("two_j", [7, 4])
def test_rejects_tiny_off_label_entry(two_j):
    spin = SpinJ(two_j)
    j = covariant_channel(mixture(spin, spin, 3, False)).jamiolkowski.copy()
    labels = jz_labels(spin, spin)
    a, b = 0, int(np.flatnonzero(labels != labels[0])[0])
    j[a, b] = j[b, a] = 1e-300
    with pytest.raises(ChannelValidationError, match="couples different labels"):
        QuantumChannel(spin.dim, spin.dim, jamiolkowski=j, labels=labels)
    assert QuantumChannel(spin.dim, spin.dim, jamiolkowski=j).cp_min_eig > -1e-12


def test_rejects_negative_eigenvalue_in_every_block():
    spin = SpinJ(7)
    labels = jz_labels(spin, spin)
    j = covariant_channel(mixture(spin, spin, 4, False)).jamiolkowski
    assert len(labels) >= 64
    for label in np.unique(labels):
        index = np.flatnonzero(labels == label)
        w, v = np.linalg.eigh(j[np.ix_(index, index)])
        vec = np.zeros(len(labels), dtype=complex)
        vec[index] = v[:, 0]
        bad = j - (w[0] + 1e-6) * np.outer(vec, vec.conj())  # one eigenvalue -1e-6, in this block
        with pytest.raises(ChannelValidationError, match="not completely positive"):
            QuantumChannel(spin.dim, spin.dim, jamiolkowski=bad, labels=labels)


@pytest.mark.parametrize("length", [63, 65, 0])
def test_rejects_labels_of_wrong_length(length):
    spin = SpinJ(7)
    j = covariant_channel(mixture(spin, spin, 5, False)).jamiolkowski
    with pytest.raises(ValueError, match="labels must be 64 integers"):
        QuantumChannel(spin.dim, spin.dim, jamiolkowski=j, labels=np.zeros(length, dtype=int))


def hermiticity_error(spin: SpinJ, j: np.ndarray, labels=None) -> str:
    with pytest.raises(ChannelValidationError, match="not Hermitian") as err:
        QuantumChannel(spin.dim, spin.dim, jamiolkowski=j, labels=labels)
    return str(err.value)


def test_asymmetric_entry_in_any_block_reports_the_dense_residual():
    # J has 64 rows, so Hermiticity is checked one label block at a time, the last one too
    spin = SpinJ(7)
    labels = jz_labels(spin, spin)
    base = covariant_channel(mixture(spin, spin, 7, False)).jamiolkowski
    assert len(labels) >= 64
    for label in np.unique(labels):
        index = np.flatnonzero(labels == label)
        j = base.copy()
        j[index[0], index[-1]] += 3e-7j  # on the diagonal when the block has one index
        message = hermiticity_error(spin, j, labels)
        assert message == hermiticity_error(spin, j)
        assert message.endswith(f"(residual {6e-7 if len(index) == 1 else 3e-7:.2e})")


# spin (7, 7) gives J 64 rows (per-label blocks), spin (4, 4) 25 rows (one block)
@pytest.mark.parametrize("two_j", [7, 4])
def test_off_label_and_non_hermitian_reports_hermiticity_first(two_j):
    spin = SpinJ(two_j)
    labels = jz_labels(spin, spin)
    j = covariant_channel(mixture(spin, spin, 8, False)).jamiolkowski.copy()
    j[0, int(np.flatnonzero(labels != labels[0])[0])] = 1e-3  # its transpose entry stays 0
    assert hermiticity_error(spin, j, labels) == hermiticity_error(spin, j)


def test_labelled_channel_from_j_peaks_below_one_and_a_half_j():
    # two_j = 20: J is 441 x 441 complex, 3.1 MB; the stored copy alone is 1.0 J
    spin = SpinJ(20)
    labels = jz_labels(spin, spin)
    j = covariant_channel(mixture(spin, spin, 9, False)).jamiolkowski
    peak = peak_bytes(lambda: QuantumChannel(spin.dim, spin.dim, jamiolkowski=j, labels=labels))
    assert peak < 1.5 * j.nbytes


def test_u1_channel_checks_labels_before_positivity():
    spec = EnergySpectrum((0, 1))
    j = dephasing_channel(spec, 0.0).jamiolkowski.copy()
    j[0, 1] = j[1, 0] = 1.0  # off-label and not positive
    with pytest.raises(ChannelValidationError, match="couples different labels"):
        U1BlockChannel(spec, j)


def test_kraus_operators_come_in_ascending_eigenvalue_order():
    spin = SpinJ(8)
    ch = covariant_channel(mixture(spin, spin, 6, False))
    norms = np.array([np.sum(np.abs(k) ** 2) for k in ch.kraus])  # d_in times the eigenvalue
    assert np.all(np.diff(norms) >= -TOL)
    assert ch.kraus_rank == ch.d_in * ch.d_out
