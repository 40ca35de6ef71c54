"""Labelled channels: Kraus operators given with ``labels``, the charge of each operator,
against the same operators without labels and the same Jamiolkowski state given whole;
and blocks-given channels, whose Kraus operators come from one eigenproblem per block of J,
against the dense route.

Sizes straddle the 64-row rule: from 64 rows on a labelled channel stores only J's label
blocks, below it J whole."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noetherlab import numkit
from noetherlab.chan import ChannelValidationError, QuantumChannel, random_channel
from noetherlab.metrics import (
    deviation_avg,
    su2_generators,
    u1_generators,
    unitarity_complementary,
    unitarity_jamiolkowski,
)
from noetherlab.numkit import ginibre, pair_labels
from noetherlab.su2cov import (
    CovariantMixture,
    covariant_channel,
    extremal_channel,
    extremal_kraus,
    twirl,
)
from noetherlab.su2rep import SpinJ, coupled_labels, ito_basis
from noetherlab.u1cov import EnergySpectrum, U1BlockChannel, build_extremal
from support import dephasing_channel, largest_held_array, peak_bytes

TOL = 1e-12


def jz_labels(spin_in: SpinJ, spin_out: SpinJ) -> np.ndarray:
    return pair_labels(spin_out.m_values(), spin_in.m_values())


def gap(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def kraus_state(channel: QuantumChannel) -> np.ndarray:
    """sum_k vec K_k vec K_k^dag / d_in: J rebuilt from the Kraus operators."""
    vecs = np.stack(channel.kraus).reshape(channel.kraus_rank, -1)
    return vecs.T @ vecs.conj() / channel.d_in


def label_blocks(j: np.ndarray, labels: np.ndarray) -> list:
    """J's (index, block) pairs, one per label."""
    index = [np.flatnonzero(labels == label) for label in np.unique(labels)]
    return [(i, j[np.ix_(i, i)]) for i in index]


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


def assert_three_ways(labelled: QuantumChannel, labels: np.ndarray, gens, seed: int):
    """The labelled channel against its operators without labels and against its J given
    whole: every form, action and metric to 1e-12; from 64 rows on it holds label blocks."""
    d_in, d_out = labelled.d_in, labelled.d_out
    plain = QuantumChannel(d_in, d_out, kraus=labelled.kraus)
    dense = QuantumChannel(d_in, d_out, jamiolkowski=plain.jamiolkowski)
    n = d_in * d_out
    assert len(labelled.blocks) == (len(np.unique(labels)) if n >= 64 else 1)
    rng = np.random.default_rng(seed)
    rho, y = ginibre(d_in, d_in, rng), ginibre(d_out, d_out, rng)  # not Hermitian
    for e in (plain, dense):
        assert gap(labelled.jamiolkowski, e.jamiolkowski) <= TOL
        assert gap(labelled.liouville, e.liouville) <= TOL
        assert gap(labelled.apply(rho), e.apply(rho)) <= TOL
        assert gap(labelled.apply_adjoint(y), e.apply_adjoint(y)) <= TOL
        assert abs(labelled.tp_residual - e.tp_residual) <= TOL
        for metric in (unitarity_jamiolkowski, unitarity_complementary):
            assert abs(metric(labelled) - metric(e)) <= TOL
        assert abs(deviation_avg(labelled, gens) - deviation_avg(e, gens)) <= TOL
    if isinstance(labelled, U1BlockChannel):  # the populations, read off J's diagonal
        populations = np.real(np.diagonal(dense.jamiolkowski)).reshape(d_in, d_in) * d_in
        assert gap(labelled.population_matrix(), populations) <= TOL


def mixture(spin_in: SpinJ, spin_out: SpinJ, seed: int, sparse: bool) -> CovariantMixture:
    """Dirichlet(0.7) weights; ``sparse`` zeroes about half of them (lower Kraus rank)."""
    rng = np.random.default_rng(seed)
    w = rng.dirichlet([0.7] * len(coupled_labels(spin_in, spin_out)))
    if sparse:
        w[rng.random(len(w)) < 0.5] = 0.0
        w = w / w.sum() if w.sum() > 0 else np.eye(len(w))[0]
    return CovariantMixture(spin_in, spin_out, tuple(w))


def mixture_kraus(mix: CovariantMixture) -> list:
    """sqrt(p_L) times the extremal Kraus family of each E^L: the mixture as operators that
    each carry one J_z label."""
    return [np.sqrt(p) * k for two_l, p in zip(coupled_labels(mix.spin_in, mix.spin_out),
                                               mix.weights)
            for k in extremal_kraus(mix.spin_in, mix.spin_out, two_l)]


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


def dense_eigenvector_kraus(blocks, d_out: int, d_in: int) -> list:
    """The construction through one n x n array of the blocks' eigenvectors, each on its
    block's indices: sqrt(d_in w) unvec(v) for w > tol_psd, by ascending w."""
    n = d_out * d_in
    w, vecs, pos = np.empty(n), np.zeros((n, n), dtype=complex), 0
    for index, block in blocks:
        w[pos:pos + len(block)], vecs[index, pos:pos + len(block)] = np.linalg.eigh(block)
        pos += len(block)
    return [np.sqrt(d_in * w[i]) * vecs[:, i].reshape(d_out, d_in)
            for i in np.argsort(w, kind="stable") if w[i] > numkit.TOL.tol_psd]


@given(spin_pairs, st.integers(0, 2**32 - 1), st.sampled_from(["mixture", "twirl", "dense"]))
@settings(max_examples=20, deadline=None)
def test_derived_kraus_operators_are_bit_identical_to_the_dense_eigenvector_construction(
        pair, seed, kind):
    spin_in, spin_out = SpinJ(pair[0]), SpinJ(pair[1])
    channel = covariant_channel(mixture(spin_in, spin_out, seed, seed % 2 == 0))
    if kind == "twirl":
        channel = twirl(random_channel(spin_in.dim, spin_out.dim, 2 + spin_in.dim, seed),
                        spin_in, spin_out)
    if kind == "dense":
        channel = QuantumChannel(spin_in.dim, spin_out.dim, jamiolkowski=channel.jamiolkowski)
    expected = dense_eigenvector_kraus(channel.blocks, spin_out.dim, spin_in.dim)
    assert len(channel.kraus) == len(expected)
    assert all(k.tobytes() == e.tobytes() for k, e in zip(channel.kraus, expected))


@st.composite
def u1_spectra(draw, d_max: int = 21):
    d = draw(st.integers(2, d_max))
    gaps = draw(st.lists(st.integers(1, 3), min_size=d - 1, max_size=d - 1))
    return EnergySpectrum(tuple(int(x) for x in np.cumsum([0] + gaps)))


@st.composite
def u1_channels(draw, d_max: int = 10):
    spec = draw(u1_spectra(d_max))
    d = spec.d
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pop = rng.dirichlet([0.5] * d, size=d).T
    labels = spec.bohr_labels().tolist()
    phases = [[labels[k], k // d, float(rng.uniform(0, 2 * np.pi))] for k in range(0, d * d, 3)]
    return build_extremal(spec, pop, phases=phases)


@given(u1_channels(), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_u1_build_extremal_matches_dense(channel, seed):
    spec = channel.spectrum
    assert_three_ways(channel, spec.bohr_labels(), u1_generators(spec.levels), seed)


@st.composite
def labelled_kraus_channels(draw):
    """(labelled channel, its labels, generators) for d <= 21: an SU(2) covariant mixture
    given as its extremal Kraus families, a phased ``build_extremal`` channel, or partial
    dephasing."""
    kind = draw(st.sampled_from(["su2", "u1", "dephasing"]))
    if kind == "su2":
        spin_in, spin_out = (SpinJ(x) for x in draw(spin_pairs))
        mix = mixture(spin_in, spin_out, draw(st.integers(0, 2**32 - 1)), draw(st.booleans()))
        labels = jz_labels(spin_in, spin_out)
        channel = QuantumChannel(spin_in.dim, spin_out.dim, kraus=mixture_kraus(mix),
                                 labels=labels)
        return channel, labels, su2_generators(spin_in, spin_out)
    channel = (draw(u1_channels(21)) if kind == "u1" else
               dephasing_channel(draw(u1_spectra()), draw(st.floats(0, 1))))
    return channel, channel.spectrum.bohr_labels(), u1_generators(channel.spectrum.levels)


@given(labelled_kraus_channels(), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_labelled_kraus_matches_unlabelled_and_dense(case, seed):
    assert_three_ways(*case, seed)


def test_u1_kraus_form_drops_a_block_below_tol_psd():
    # the single-pair Bohr block of levels 1 <- 0 holds gamma / d = 5e-10 < tol_psd:
    # build_extremal keeps its operator, the Kraus form derived from J's blocks drops it
    gamma = np.array([[1 - 1.5e-9, 0, 0], [1.5e-9, 1, 0], [0, 0, 1]])
    spec = EnergySpectrum((0, 1, 3))
    channel = build_extremal(spec, gamma)
    assert channel.kraus_rank == 2
    assert gap(kraus_state(channel), channel.jamiolkowski) <= 1e-15
    blocked = QuantumChannel(3, 3, blocks=label_blocks(channel.jamiolkowski, spec.bohr_labels()))
    assert blocked.kraus_rank == 1
    assert gap(kraus_state(blocked), blocked.jamiolkowski) == pytest.approx(5e-10, rel=1e-6)
    assert_matches_dense(blocked)


@pytest.mark.parametrize("d", [3, 8, 10])
def test_u1_dephasing_matches_dense(d):
    spec = EnergySpectrum(tuple(range(d)))
    assert_three_ways(dephasing_channel(spec, 0.3), spec.bohr_labels(),
                      u1_generators(spec.levels), d)


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


def spanning_error(spin: SpinJ, ks, labels) -> str:
    with pytest.raises(ChannelValidationError, match="spans different labels$") as err:
        QuantumChannel(spin.dim, spin.dim, kraus=ks, labels=labels)
    assert "\n" not in str(err.value)
    return str(err.value)


# spin (7, 7) gives J 64 rows (label blocks), spin (4, 4) 25 rows (J whole)
@pytest.mark.parametrize("two_j", [7, 4])
def test_rejects_tiny_off_label_entry(two_j):
    spin = SpinJ(two_j)
    ks = [k.copy() for k in extremal_kraus(spin, spin, 2)]
    labels = jz_labels(spin, spin)
    k = 1
    a = int(np.flatnonzero(ks[k].ravel())[0])
    b = int(np.flatnonzero(labels != labels[a])[0])
    ks[k].ravel()[b] = 1e-300  # its square underflows: J and the trace check see nothing
    assert spanning_error(spin, ks, labels) == f"Kraus operator {k} spans different labels"
    assert QuantumChannel(spin.dim, spin.dim, kraus=ks).tp_residual < 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("two_j", [7, 4])
def test_non_finite_entry_off_its_label_is_reported_as_non_finite(two_j, bad):
    spin = SpinJ(two_j)
    ks = [k.copy() for k in extremal_kraus(spin, spin, 2)]
    labels = jz_labels(spin, spin)
    b = int(np.flatnonzero(labels != labels[np.flatnonzero(ks[1].ravel())[0]])[0])
    ks[1].ravel()[b] = bad
    with pytest.raises(ChannelValidationError, match="^channel representation has non-finite"):
        QuantumChannel(spin.dim, spin.dim, kraus=ks, labels=labels)


@pytest.mark.parametrize("two_j", [7, 4])
def test_spanning_parts_that_cancel_in_j_are_rejected(two_j):
    # (K_a +- K_b) / sqrt 2 for K_a, K_b on different labels give the same J as K_a, K_b:
    # without labels the pair is the same channel, with labels each operator spans two
    spin = SpinJ(two_j)
    ks = list(mixture_kraus(mixture(spin, spin, 5, False)))
    labels = jz_labels(spin, spin)
    a, b = 0, len(ks) - 1
    assert labels[np.flatnonzero(ks[a])[0]] != labels[np.flatnonzero(ks[b])[0]]
    ks[a], ks[b] = (ks[a] + ks[b]) / np.sqrt(2), (ks[a] - ks[b]) / np.sqrt(2)
    reference = QuantumChannel(spin.dim, spin.dim, kraus=mixture_kraus(mixture(spin, spin, 5,
                                                                               False)))
    assert gap(QuantumChannel(spin.dim, spin.dim, kraus=ks).jamiolkowski,
               reference.jamiolkowski) <= TOL
    assert spanning_error(spin, ks, labels) == f"Kraus operator {a} spans different labels"


@pytest.mark.parametrize("form", ["jamiolkowski", "liouville", "blocks"])
def test_labels_go_only_with_kraus_operators(form):
    spin = SpinJ(4)
    channel = extremal_channel(spin, spin, 4)
    labels = jz_labels(spin, spin)
    given = {"jamiolkowski": channel.jamiolkowski, "liouville": channel.liouville,
             "blocks": label_blocks(channel.jamiolkowski, labels)}[form]
    with pytest.raises(ValueError, match=re.escape(
            "labels go only with Kraus operators or a Stinespring isometry")) as err:
        QuantumChannel(spin.dim, spin.dim, labels=labels, **{form: given})
    assert "\n" not in str(err.value) and not isinstance(err.value, ChannelValidationError)


@pytest.mark.parametrize("two_j", [7, 4])
def test_stinespring_takes_the_labels_of_its_kraus_operators(two_j):
    spin = SpinJ(two_j)
    ks = extremal_kraus(spin, spin, 2)
    labels = jz_labels(spin, spin)
    from_kraus = QuantumChannel(spin.dim, spin.dim, kraus=ks, labels=labels)
    dilation = np.stack(ks, axis=1).reshape(-1, spin.dim)
    from_dilation = QuantumChannel(spin.dim, spin.dim, stinespring=dilation, labels=labels)
    assert len(from_dilation.blocks) == len(from_kraus.blocks)
    assert all(np.array_equal(i, j) and np.array_equal(a, b) for (i, a), (j, b)
               in zip(from_dilation.blocks, from_kraus.blocks))


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
            QuantumChannel(spin.dim, spin.dim, blocks=label_blocks(bad, labels))


@pytest.mark.parametrize("length", [63, 65, 0])
def test_rejects_labels_of_wrong_length(length):
    spin = SpinJ(7)
    with pytest.raises(ValueError, match="^labels must be 64 integers, one per Jamiolkowski"):
        QuantumChannel(spin.dim, spin.dim, kraus=extremal_kraus(spin, spin, 2),
                       labels=np.zeros(length, dtype=int))


def hermiticity_error(spin: SpinJ, **form) -> str:
    with pytest.raises(ChannelValidationError, match="not Hermitian") as err:
        QuantumChannel(spin.dim, spin.dim, **form)
    return str(err.value)


def test_asymmetric_entry_in_any_block_reports_the_dense_residual():
    # J is given as 64 rows of label blocks, each checked for Hermiticity, the last one too
    spin = SpinJ(7)
    labels = jz_labels(spin, spin)
    base = covariant_channel(mixture(spin, spin, 7, False)).jamiolkowski
    assert len(labels) >= 64
    for label in np.unique(labels):
        index = np.flatnonzero(labels == label)
        j = base.copy()
        j[index[0], index[-1]] += 3e-7j  # on the diagonal when the block has one index
        message = hermiticity_error(spin, blocks=label_blocks(j, labels))
        assert message == hermiticity_error(spin, jamiolkowski=j)
        assert message.endswith(f"(residual {6e-7 if len(index) == 1 else 3e-7:.2e})")


def test_labelled_channel_from_j_peaks_below_one_and_a_half_j():
    # two_j = 20: a dense J is 441 x 441 complex, 3.1 MB; the labelled channel from the 41
    # operators of E^20 builds and keeps only its label blocks, 6,181 entries
    spin = SpinJ(20)
    ks, labels = extremal_kraus(spin, spin, 40), jz_labels(spin, spin)
    channel = []
    peak = peak_bytes(lambda: channel.append(
        QuantumChannel(spin.dim, spin.dim, kraus=ks, labels=labels)))
    assert peak < 0.25 * spin.dim**4 * 16
    assert largest_held_array(channel[0]) < spin.dim**4


def test_u1_channel_checks_labels_before_trace_preservation():
    spec = EnergySpectrum((0, 1))
    k = np.array([[1.0, 1.0], [0.0, 0.0]])  # Bohr labels 0 and -1, and not trace preserving
    with pytest.raises(ChannelValidationError, match="^Kraus operator 0 spans different labels$"):
        U1BlockChannel(spec, [k])
    with pytest.raises(ChannelValidationError, match="not trace preserving"):
        QuantumChannel(2, 2, kraus=[k])


def test_kraus_operators_come_in_ascending_eigenvalue_order():
    spin = SpinJ(8)
    ch = covariant_channel(mixture(spin, spin, 6, False))
    norms = np.array([np.sum(np.abs(k) ** 2) for k in ch.kraus])  # d_in times the eigenvalue
    assert np.all(np.diff(norms) >= -TOL)
    assert ch.kraus_rank == ch.d_in * ch.d_out
