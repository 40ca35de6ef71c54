"""Support blocks: a Kraus-given channel of 64 rows or more stores J as the blocks of the
connected components of its operators' (operator, index) support graph, against the same
Jamiolkowski state given whole and against a union-find over the supports; and blocks-given
channels, whose Kraus operators come from one eigenproblem per block of J, against the
dense route.

Sizes straddle the 64-row rule: below it a Kraus-given J stays whole.  The covariant
families carry charges, "labels": each of their operators is nonzero on one label of
``pair_labels`` only, so their components lie inside the labels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noetherlab import numkit
from noetherlab.chan import ChannelValidationError, QuantumChannel, random_channel
from noetherlab.metrics import (
    GeneratorSet,
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
    decompose,
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


def support_components(kraus, n: int) -> list:
    """The index lists a Kraus-given channel stores its blocks on, by union-find: the
    components of the indices each operator touches; [0..n-1] below 64 rows or when one
    operator touches every index."""
    supports = [np.flatnonzero(np.ravel(k)).tolist() for k in kraus]
    if n < 64 or any(len(s) == n for s in supports):
        return [list(range(n))]
    parent = list(range(n))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for s in supports:
        for i in s[1:]:
            parent[root(i)] = root(s[0])
    groups = {}
    for i in sorted({i for s in supports for i in s}):
        groups.setdefault(root(i), []).append(i)
    return sorted(groups.values())


def block_index(channel: QuantumChannel) -> list:
    return sorted(i.tolist() for i, _ in channel.blocks)


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


def assert_three_ways(channel: QuantumChannel, gens, seed: int):
    """A Kraus-given channel against its J as the dense product of its operators and against
    that J given whole: every form, action and metric to 1e-12; its blocks lie on the support
    components, and J is zero off them."""
    d_in, d_out = channel.d_in, channel.d_out
    vecs = np.stack(channel.kraus).reshape(channel.kraus_rank, -1)
    product = vecs.T @ vecs.conj() / d_in
    dense = QuantumChannel(d_in, d_out, jamiolkowski=product)
    assert block_index(channel) == support_components(channel.kraus, d_in * d_out)
    assert gap(channel.jamiolkowski, product) <= TOL
    rng = np.random.default_rng(seed)
    rho, y = ginibre(d_in, d_in, rng), ginibre(d_out, d_out, rng)  # not Hermitian
    assert gap(channel.liouville, dense.liouville) <= TOL
    assert gap(channel.apply(rho), dense.apply(rho)) <= TOL
    assert gap(channel.apply_adjoint(y), dense.apply_adjoint(y)) <= TOL
    assert abs(channel.tp_residual - dense.tp_residual) <= TOL
    assert abs(channel.cp_min_eig - dense.cp_min_eig) <= TOL
    for metric in (unitarity_jamiolkowski, unitarity_complementary):
        assert abs(metric(channel) - metric(dense)) <= TOL
    assert abs(deviation_avg(channel, gens) - deviation_avg(dense, gens)) <= TOL
    given = QuantumChannel(d_in, d_out, blocks=channel.blocks)  # the same blocks, as given
    assert gap(given.jamiolkowski, product) <= TOL
    assert gap(given.apply(rho), dense.apply(rho)) <= TOL
    if isinstance(channel, U1BlockChannel):  # the populations, read off J's diagonal
        populations = np.real(np.diagonal(product)).reshape(d_in, d_in) * d_in
        assert gap(channel.population_matrix(), populations) <= TOL


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
    if draw(st.booleans()):  # exact zeros: level pairs no operator touches
        pop[rng.random((d, d)) < 0.4] = 0.0
        pop[np.arange(d), np.arange(d)] += 1.0 - pop.sum(axis=0)
    labels = spec.bohr_labels().tolist()
    phases = [[labels[k], k // d, float(rng.uniform(0, 2 * np.pi))] for k in range(0, d * d, 3)]
    return build_extremal(spec, pop, phases=phases)


@given(u1_channels(), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_u1_build_extremal_matches_dense(channel, seed):
    assert_three_ways(channel, u1_generators(channel.spectrum.levels), seed)


@st.composite
def labelled_kraus_channels(draw):
    """(Kraus-given channel, generators) for d <= 21: an SU(2) covariant mixture given as its
    extremal Kraus families, a phased ``build_extremal`` channel, or partial dephasing."""
    kind = draw(st.sampled_from(["su2", "u1", "dephasing"]))
    if kind == "su2":
        spin_in, spin_out = (SpinJ(x) for x in draw(spin_pairs))
        mix = mixture(spin_in, spin_out, draw(st.integers(0, 2**32 - 1)), draw(st.booleans()))
        channel = QuantumChannel(spin_in.dim, spin_out.dim, kraus=mixture_kraus(mix))
        return channel, su2_generators(spin_in, spin_out)
    channel = (draw(u1_channels(21)) if kind == "u1" else
               dephasing_channel(draw(u1_spectra()), draw(st.floats(0, 1))))
    return channel, u1_generators(channel.spectrum.levels)


@given(labelled_kraus_channels(), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_labelled_kraus_matches_unlabelled_and_dense(case, seed):
    assert_three_ways(*case, seed)


@st.composite
def sparse_kraus_sets(draw):
    """Kraus operators of random sizes d_in, d_out <= 21 with random exact zeros, each nonzero
    at most once per row, so sum K^dag K is diagonal and scaling the columns makes them trace
    preserving; columns no drawn operator touches get operators of their own."""
    d_in, d_out = draw(st.integers(2, 21)), draw(st.integers(2, 21))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank, density = draw(st.integers(1, 6)), draw(st.floats(0.05, 1.0))
    ks = np.zeros((rank, d_out, d_in), dtype=complex)
    for k, r in zip(*np.nonzero(rng.random((rank, d_out)) < density)):
        ks[k, r, rng.integers(d_in)] = complex(*rng.standard_normal(2))
    free = np.flatnonzero(~np.abs(ks).sum(axis=(0, 1)).astype(bool))
    for cols in np.array_split(free, -(-len(free) // d_out)) if len(free) else ():
        extra = np.zeros((1, d_out, d_in), dtype=complex)
        extra[0, rng.permutation(d_out)[:len(cols)], cols] = 1.0
        ks = np.concatenate([ks, extra])
    ks /= np.sqrt(np.sum(np.abs(ks) ** 2, axis=(0, 1)))
    return list(ks)


@given(sparse_kraus_sets(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_random_zero_patterns_match_the_dense_product(ks, seed):
    d_out, d_in = ks[0].shape
    gens = GeneratorSet(j_in=(np.diag(np.arange(d_in) - (d_in - 1) / 2),),
                        j_out=(np.diag(np.arange(d_out) - (d_out - 1) / 2),))
    assert_three_ways(QuantumChannel(d_in, d_out, kraus=ks), gens, seed)


def chain_kraus(chains: list, d: int) -> list:
    """One d x d operator per link (cells[k], cells[k + 1]) of each chain of flat indices
    r * d + c, no link within one row; the columns scaled so that the operators preserve trace."""
    links = [link for cells in chains for link in zip(cells, cells[1:])]
    ks = np.zeros((len(links), d * d))
    for k, (a, b) in enumerate(links):
        assert a // d != b // d
        ks[k, [a, b]] = 1.0
    ks = ks.reshape(-1, d, d)
    return list(ks / np.sqrt(np.sum(ks**2, axis=(0, 1))))


def test_chain_support_needs_more_than_one_pass():
    # 8 x 8, cells in column-major order: the chain through indices 0, 8, .., 56, 1, 9, ..
    # has a local minimum of the index at the top of each column, so one pass of min-label
    # propagation leaves a label per column; columns 0-3 and 4-7 are two chains, and the
    # last cell of columns 0 and 5 is left out of both
    d = 8
    order = [r * d + c for c in range(d) for r in range(d)]
    left = [i for i in order[:32] if i != 56]
    right = [i for i in order[32:] if i != 61]
    channel = QuantumChannel(d, d, kraus=chain_kraus([left, right], d))
    assert block_index(channel) == [sorted(left), sorted(right)]
    spec = EnergySpectrum(tuple(range(d)))
    assert_three_ways(channel, u1_generators(spec.levels), 1)
    whole = QuantumChannel(d, d, kraus=chain_kraus([order], d))
    assert block_index(whole) == [list(range(d * d))]
    assert largest_held_array(whole) == (d * d) ** 2  # one block on every index is J whole
    assert_three_ways(whole, u1_generators(spec.levels), 2)


@pytest.mark.parametrize("kind", ["dephasing", "extremal"])
def test_a_lone_component_short_of_n_is_not_j_whole(kind):
    # one component, but of 8 of 64 indices (dephasing, d = 8) or of 9 of 81 (E^0 at
    # two_j = 8): J is that one block and zero elsewhere
    if kind == "dephasing":
        spec = EnergySpectrum(tuple(range(8)))
        channel, gens = dephasing_channel(spec, 0.3), u1_generators(spec.levels)
    else:
        spin = SpinJ(8)
        channel, gens = extremal_channel(spin, spin, 0), su2_generators(spin)
    (index, _), = channel.blocks
    assert len(index) == channel.d_in < channel.d_in**2
    if kind == "dephasing":  # its block is positive definite; the uncovered rows give 0
        assert channel.cp_min_eig == 0.0
    assert largest_held_array(channel) < channel.d_in**4
    assert_three_ways(channel, gens, 3)


def u1_extremal(d: int, zeros: bool) -> U1BlockChannel:
    """``build_extremal`` on levels 0, 2, .., 2d - 2, Dirichlet(0.5) populations; ``zeros``
    zeroes about 40 % of them (level pairs no operator touches)."""
    rng = np.random.default_rng(d)
    pop = rng.dirichlet([0.5] * d, size=d).T
    if zeros:
        pop[rng.random((d, d)) < 0.4] = 0.0
        pop[np.arange(d), np.arange(d)] += 1.0 - pop.sum(axis=0)
    return build_extremal(EnergySpectrum(tuple(range(0, 2 * d, 2))), pop)


@pytest.mark.parametrize("case", [(7, 7), (9, 7), (10, 10), (8, False), (8, True), (12, False)])
def test_blocks_are_per_label_products(case):
    # a mixture's operators and then extremal_channel of each family, on 64 to 121 rows;
    # build_extremal on 64 and 144 rows. Each block lies inside one label and equals the
    # product over the label's indices and the operators nonzero there, bit for bit when it
    # holds the whole label, as when labels were given; J is zero on every index in no block
    if isinstance(case[1], bool):
        channels, labels = [u1_extremal(*case)], u1_extremal(*case).spectrum.bohr_labels()
    else:
        spin_in, spin_out = SpinJ(case[0]), SpinJ(case[1])
        ks = mixture_kraus(mixture(spin_in, spin_out, 1, True))
        channels = [QuantumChannel(spin_in.dim, spin_out.dim, kraus=ks)] + [
            extremal_channel(spin_in, spin_out, two_l) for two_l in coupled_labels(spin_in, spin_out)]
        labels = jz_labels(spin_in, spin_out)
    for channel in channels:
        v = np.stack(channel.kraus).reshape(channel.kraus_rank, -1)
        held, whole = np.zeros(len(labels), dtype=bool), 0
        for i, block in channel.blocks:
            index = np.flatnonzero(labels == labels[i[0]])
            w = v[np.ix_(np.any(v[:, index] != 0, axis=1), index)]
            product, pos = w.T @ w.conj() / channel.d_in, np.searchsorted(index, i)
            assert np.array_equal(index[pos], i) and gap(block, product[np.ix_(pos, pos)]) <= 1e-15
            if len(i) == len(index):
                whole += 1
                assert block.tobytes() == product.tobytes()
            held[i] = True
        assert not np.any(v[:, ~held])
    if isinstance(channel, U1BlockChannel):  # P[m, n] = sum_k |K_k[m, n]|^2, 0 in no block
        np.full(channel.d_in**2, 7.0)  # freed, this buffer is what a bare np.empty hands back
        assert gap(channel.population_matrix(), np.sum(np.abs(channel.kraus) ** 2, axis=0)) <= TOL
    # the top SU(2) family and full populations touch every index of every label
    assert whole == len(channel.blocks) == len(np.unique(labels)) or case[1] is True


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
    assert_three_ways(dephasing_channel(spec, 0.3), u1_generators(spec.levels), d)


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


def rotated(k: np.ndarray, angle: float) -> np.ndarray:
    """R k for the rotation R by ``angle`` between output levels 0 and 1: the operators stay
    trace preserving, and R k is nonzero off k's labels."""
    r = np.eye(len(k))
    r[:2, :2] = [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
    return r @ k


# spin (7, 7) gives J 64 rows (support blocks), spin (4, 4) 25 rows (J whole)
@pytest.mark.parametrize("two_j", [7, 4])
def test_rejects_tiny_off_label_entry(two_j):
    # one operator of E^2 turned by 1e-6 couples two J_z labels in J by about 1e-7: it merges
    # their components, and decompose rejects the channel as not covariant
    spin = SpinJ(two_j)
    ks = list(extremal_kraus(spin, spin, 2))
    ks[1] = rotated(ks[1], 1e-6)
    channel = QuantumChannel(spin.dim, spin.dim, kraus=ks)
    assert channel.tp_residual < 1e-15
    assert block_index(channel) == support_components(ks, spin.dim**2)
    assert len(channel.blocks) < (2 if two_j == 4 else len(extremal_channel(spin, spin, 2).blocks))
    with pytest.raises(ValueError, match="^channel is not covariant: twirl residual"):
        decompose(channel, spin, spin)
    ks[1] = rotated(extremal_kraus(spin, spin, 2)[1], 1e-300)  # below tol_eq in J
    weights = decompose(QuantumChannel(spin.dim, spin.dim, kraus=ks), spin, spin).weights
    assert weights[1] == pytest.approx(1.0, abs=TOL)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("two_j", [7, 4])
def test_non_finite_entry_off_its_label_is_reported_as_non_finite(two_j, bad):
    spin = SpinJ(two_j)
    ks = [k.copy() for k in extremal_kraus(spin, spin, 2)]
    labels = jz_labels(spin, spin)
    b = int(np.flatnonzero(labels != labels[np.flatnonzero(ks[1].ravel())[0]])[0])
    ks[1].ravel()[b] = bad
    with pytest.raises(ChannelValidationError, match="^channel representation has non-finite"):
        QuantumChannel(spin.dim, spin.dim, kraus=ks)


@pytest.mark.parametrize("two_j", [7, 4])
def test_spanning_parts_that_cancel_in_j_are_accepted(two_j):
    # (K_a +- K_b) / sqrt 2 for K_a, K_b on different labels give the same J as K_a, K_b: the
    # same channel, with the two labels' components merged into one block; covariance is read
    # off J, so U1BlockChannel and decompose accept it too
    spin = SpinJ(two_j)
    ks = list(mixture_kraus(mixture(spin, spin, 5, False)))
    labels = jz_labels(spin, spin)
    a, b = 0, len(ks) - 1
    assert labels[np.flatnonzero(ks[a])[0]] != labels[np.flatnonzero(ks[b])[0]]
    reference = QuantumChannel(spin.dim, spin.dim, kraus=ks)
    ks[a], ks[b] = (ks[a] + ks[b]) / np.sqrt(2), (ks[a] - ks[b]) / np.sqrt(2)
    spanning = QuantumChannel(spin.dim, spin.dim, kraus=ks)
    assert gap(spanning.jamiolkowski, reference.jamiolkowski) <= TOL
    assert len(spanning.blocks) == (1 if two_j == 4 else len(reference.blocks) - 1)
    assert gap(decompose(spanning, spin, spin).weights,
               decompose(reference, spin, spin).weights) <= TOL
    spec = EnergySpectrum(tuple(range(two_j + 1)))
    u1 = list(build_extremal(spec, np.full((spec.d, spec.d), 1 / spec.d)).kraus)
    u1[0], u1[-1] = (u1[0] + u1[-1]) / np.sqrt(2), (u1[0] - u1[-1]) / np.sqrt(2)
    assert gap(U1BlockChannel(spec, u1).population_matrix(), 1 / spec.d) <= TOL


@pytest.mark.parametrize("form", ["jamiolkowski", "liouville", "blocks"])
def test_labels_go_only_with_kraus_operators(form):
    # blocks are read off Kraus operators only: a dense J or Liouville matrix stays whole even
    # when it is block diagonal, and given blocks stay as given
    spin = SpinJ(7)
    channel = extremal_channel(spin, spin, 14)
    assert len(channel.blocks) == len(np.unique(jz_labels(spin, spin)))
    given = {"jamiolkowski": channel.jamiolkowski, "liouville": channel.liouville,
             "blocks": channel.blocks[::-1]}[form]
    other = QuantumChannel(spin.dim, spin.dim, **{form: given})
    expected = [list(range(spin.dim**2))] if form != "blocks" else [
        i.tolist() for i, _ in channel.blocks[::-1]]
    assert [i.tolist() for i, _ in other.blocks] == expected
    assert gap(other.jamiolkowski, channel.jamiolkowski) <= TOL


@pytest.mark.parametrize("two_j", [7, 4])
def test_stinespring_takes_the_labels_of_its_kraus_operators(two_j):
    spin = SpinJ(two_j)
    ks = extremal_kraus(spin, spin, 2)
    from_kraus = QuantumChannel(spin.dim, spin.dim, kraus=ks)
    dilation = np.stack(ks, axis=1).reshape(-1, spin.dim)
    from_dilation = QuantumChannel(spin.dim, spin.dim, stinespring=dilation)
    assert len(from_dilation.blocks) == len(from_kraus.blocks) == (1 if two_j == 4 else 3)
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
    # labels are gone: no form takes them, whatever their length
    spin = SpinJ(7)
    channel = extremal_channel(spin, spin, 2)
    for form in ({"kraus": channel.kraus}, {"blocks": channel.blocks}):
        with pytest.raises(TypeError, match="labels"):
            QuantumChannel(spin.dim, spin.dim, labels=np.zeros(length, dtype=int), **form)


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
    # two_j = 20: a dense J is 441 x 441 complex, 3.1 MB; the channel from the 41 operators
    # of E^20 builds and keeps only its support blocks, 6,181 entries
    spin = SpinJ(20)
    ks = extremal_kraus(spin, spin, 40)
    channel = []
    peak = peak_bytes(lambda: channel.append(QuantumChannel(spin.dim, spin.dim, kraus=ks)))
    assert peak < 0.25 * spin.dim**4 * 16
    assert largest_held_array(channel[0]) < spin.dim**4


def test_u1_channel_checks_covariance_after_trace_preservation():
    spec = EnergySpectrum((0, 1))
    k = np.array([[1.0, 1.0], [0.0, 0.0]])  # Bohr labels 0 and -1, and not trace preserving
    with pytest.raises(ChannelValidationError, match="not trace preserving"):
        U1BlockChannel(spec, [k])
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)  # trace preserving
    with pytest.raises(ChannelValidationError, match=(
            r"^not time-translation covariant: residual 2\.50e-01$")):
        U1BlockChannel(spec, [hadamard])


def test_kraus_operators_come_in_ascending_eigenvalue_order():
    spin = SpinJ(8)
    ch = covariant_channel(mixture(spin, spin, 6, False))
    norms = np.array([np.sum(np.abs(k) ** 2) for k in ch.kraus])  # d_in times the eigenvalue
    assert np.all(np.diff(norms) >= -TOL)
    assert ch.kraus_rank == ch.d_in * ch.d_out
