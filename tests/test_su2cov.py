"""Covariant-simplex structure, checked against oracles built straight from
Clebsch-Gordan sums (no shared code path with the constructions under test)."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from noetherlab.chan import (
    QuantumChannel,
    covariance_residual,
    max_action_deviation,
    random_channel,
)
from noetherlab import su2cov
from noetherlab.numkit import TOL, Tolerances, dagger, haar_isometry, haar_pure_batch
from noetherlab.su2cov import (
    CovariantMixture,
    check_weights,
    covariant_channel,
    decompose,
    environment_spin_generators,
    extremal_channel,
    extremal_kraus,
    irrep_projector,
    kappa_extrema,
    polarization_factor,
    scaling_coefficient,
    spin_polarization,
    time_reversal_fidelity,
    twirl,
)
from noetherlab.su2rep import SpinJ, cg, coupled_labels, ito_basis, spin_operators
from support import (f1_explicit, pure_mixture, random_rotation_vector, rotation_unitary,
                     scaling_vector, spin_norm, unitary_channel)


def extremal_liouville_oracle(spin_in: SpinJ, spin_out: SpinJ, two_l: int) -> np.ndarray:
    """Direct evaluation of the splitting-and-discarding action of E^L on
    every matrix unit, written as a Liouville matrix."""
    d_a, d_b = spin_in.dim, spin_out.dim
    ms_a, ms_b = spin_in.m_values(), spin_out.m_values()
    lv = np.zeros((d_b * d_b, d_a * d_a), dtype=complex)
    for ci, tn in enumerate(ms_a):
        for cj, tm in enumerate(ms_a):
            block = np.zeros((d_b, d_b), dtype=complex)
            for two_k in range(-two_l, two_l + 2, 2):
                tnb, tmb = tn - two_k, tm - two_k
                if abs(tnb) > spin_out.two_j or abs(tmb) > spin_out.two_j:
                    continue
                c1 = cg(spin_out.two_j, tnb, two_l, two_k, spin_in.two_j, tn)
                c2 = cg(spin_out.two_j, tmb, two_l, two_k, spin_in.two_j, tm)
                block[ms_b.index(tnb), ms_b.index(tmb)] += c1 * c2
            lv[:, ci * d_a + cj] = block.reshape(-1)
    return lv


def scaling_coefficient_oracle(two_j_in, two_j_out, two_l_chan, two_l) -> float:
    """f_l(E^L) as a direct Clebsch-Gordan sum, independent of the ITO basis."""
    tja, tjb = two_j_in, two_j_out
    total = 0.0
    for two_s in range(-two_l_chan, two_l_chan + 2, 2):
        two_m = tjb + two_s
        if abs(two_m) <= tja:
            weight = cg(tjb, tjb, two_l_chan, two_s, tja, two_m)
            total += cg(tja, two_m, two_l, 0, tja, two_m) * weight * weight
    return np.sqrt((tjb + 1) / (tja + 1)) * total / cg(tjb, tjb, two_l, 0, tjb, tjb)


def random_mixture(spin_in, spin_out, rng) -> CovariantMixture:
    n = len(coupled_labels(spin_in, spin_out))
    return CovariantMixture(spin_in, spin_out, tuple(rng.dirichlet([0.8] * n)))


class TestExtremalChannels:
    def test_l0_is_identity(self):
        for two_j in (1, 2, 3):
            s = SpinJ(two_j)
            e = extremal_channel(s, s, 0)
            assert np.allclose(e.liouville, np.eye(s.dim**2), atol=1e-12)

    def test_qubit_universal_not_approximant(self):
        half = SpinJ(1)
        e = extremal_channel(half, half, 2)
        for op in spin_operators(half):
            assert np.max(np.abs(e.apply_adjoint(op) + op / 3)) < 1e-12
        out = e.apply(np.diag([1.0, 0.0]).astype(complex))
        assert np.allclose(out, np.diag([1 / 3, 2 / 3]), atol=1e-12)

    def test_kraus_rank(self):
        e = extremal_channel(SpinJ(1), SpinJ(2), 1)
        assert e.kraus_rank == 2
        fresh = QuantumChannel(2, 3, jamiolkowski=e.jamiolkowski)
        assert len(fresh.kraus) == 2

    def test_jamiolkowski_is_scaled_projector(self):
        s = SpinJ(2)
        for two_l in coupled_labels(s, s):
            p = irrep_projector(s, s, two_l)
            j = extremal_channel(s, s, two_l).jamiolkowski
            assert np.allclose(j, p / (two_l + 1), atol=1e-12)

    @pytest.mark.parametrize("two_ja,two_jb", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2), (2, 4)])
    def test_action_matches_direct_coupling_formula(self, two_ja, two_jb):
        sa, sb = SpinJ(two_ja), SpinJ(two_jb)
        for two_l in coupled_labels(sa, sb):
            built = extremal_channel(sa, sb, two_l).liouville
            oracle = extremal_liouville_oracle(sa, sb, two_l)
            assert np.max(np.abs(built - oracle)) < 1e-12

    @pytest.mark.parametrize("build", [
        lambda s_in, s_out, two_l: ito_basis(s_in, s_out).family(two_l),
        irrep_projector,
        extremal_kraus,
        lambda s_in, s_out, two_l: scaling_coefficient(s_in.two_j, s_out.two_j, two_l, 0),
        f1_explicit,
        polarization_factor,
    ], ids=["ito_basis_family", "irrep_projector", "extremal_kraus", "scaling_coefficient",
            "f1_explicit", "polarization_factor"])
    @pytest.mark.parametrize("two_l", [-1, 0, 2, 5, 7])
    def test_label_outside_the_ladder(self, build, two_l):
        # the ladder of j_in = 1/2, j_out = 1 is two_L = 1, 3
        with pytest.raises(ValueError, match=f"two_l={two_l} outside the admissible ladder"):
            build(SpinJ(1), SpinJ(2), two_l)

    def test_invalid_label(self):
        with pytest.raises(ValueError):
            extremal_channel(SpinJ(1), SpinJ(1), 4)


class TestSimplexGeometry:
    def test_random_mixtures_are_valid_covariant_and_recoverable(self):
        rng = np.random.default_rng(31)
        pairs = [(a, b) for a in range(1, 7) for b in range(1, 7)]
        for two_ja, two_jb in pairs:
            sa, sb = SpinJ(two_ja), SpinJ(two_jb)
            for _ in range(200):
                mix = random_mixture(sa, sb, rng)
                e = covariant_channel(mix)  # CPTP enforced on construction
                assert covariance_residual(e, spin_operators(sa), spin_operators(sb)) < 1e-9
                back = decompose(e, sa, sb)
                assert np.max(np.abs(np.array(back.weights) - np.array(mix.weights))) < 1e-10

    def test_decompose_identity(self):
        s = SpinJ(2)
        e = extremal_channel(s, s, 0)
        w = decompose(e, s, s).weights
        assert np.allclose(w, [1.0, 0.0, 0.0], atol=1e-12)

    def test_decompose_extremal_idempotent(self):
        sa, sb = SpinJ(1), SpinJ(2)
        for i, two_l in enumerate(coupled_labels(sa, sb)):
            w = decompose(extremal_channel(sa, sb, two_l), sa, sb).weights
            expect = np.zeros(len(w))
            expect[i] = 1.0
            assert np.allclose(w, expect, atol=1e-12)

    def test_decompose_two_point_mixture(self):
        s = SpinJ(2)
        mix = CovariantMixture(s, s, (0.3, 0.0, 0.7))
        w = decompose(covariant_channel(mix), s, s).weights
        assert np.allclose(w, [0.3, 0.0, 0.7], atol=1e-10)

    def test_decompose_rejects_non_covariant(self):
        u = haar_isometry(2, 2, 5)
        with pytest.raises(ValueError, match="residual"):
            decompose(unitary_channel(u), SpinJ(1), SpinJ(1))

    @staticmethod
    def _channel_with_weights(spin, weights):
        # trace-preserving and covariant, but not CP when a weight is negative
        j = sum(p * irrep_projector(spin, spin, two_l) / (two_l + 1)
                for two_l, p in zip(coupled_labels(spin, spin), weights))
        return QuantumChannel(spin.dim, spin.dim, jamiolkowski=j)

    def test_decompose_rejects_negative_weight(self):
        # p_2 = -4e-9 spreads over five eigenvalues of -8e-10, inside tol_psd, so
        # the channel is accepted; the weight itself is below -tol_psd
        s = SpinJ(2)
        e = self._channel_with_weights(s, (0.5, 0.5 + 4e-9, -4e-9))
        with pytest.raises(ValueError, match="clipping would discard mass 4.00e-09"):
            decompose(e, s, s)

    def test_decompose_clips_round_off(self):
        s = SpinJ(2)
        e = self._channel_with_weights(s, (-1e-12, 0.5, 0.5 + 1e-12))
        w = decompose(e, s, s).weights
        assert w[0] == 0.0
        assert np.allclose(w, [0.0, 0.5, 0.5], atol=1e-10)

    def test_mixture_rejects_nan_and_stacked_weights(self):
        s = SpinJ(1)
        with pytest.raises(ValueError, match="probability"):
            CovariantMixture(s, s, (np.nan, 1.0))
        with pytest.raises(ValueError, match="one weight vector"):
            CovariantMixture(s, s, ((0.5, 0.5), (0.5, 0.5)))


def mixture_weights(weights, spin):
    """The weights CovariantMixture stores, or None if it rejects them."""
    try:
        return CovariantMixture(spin, spin, weights).weights
    except ValueError:
        return None


def stack_weights(weights, spin):
    """check_weights as the tuple a mixture would store, or None if it rejects the
    weights or they are not one vector."""
    try:
        w = check_weights(weights, spin, spin)
    except ValueError:
        return None
    return tuple(float(x) for x in w) if w.ndim == 1 else None


@st.composite
def weight_inputs(draw):
    """(spin, weights) near the simplex in every form callers pass: lists, tuples,
    ndarray rows, int entries, wrong lengths and 2-D stacks, with NaN and inf."""
    spin = SpinJ(draw(st.integers(1, 9)))
    n = draw(st.sampled_from([spin.dim] * 4 + [spin.dim - 1, spin.dim + 1]))
    raw = draw(st.lists(st.floats(0, 1), min_size=n, max_size=n))
    w = [x / sum(raw) for x in raw] if sum(raw) > 0 else [1.0] + [0.0] * (n - 1)
    w[draw(st.integers(0, n - 1))] += draw(st.sampled_from([0.0, -2e-9]) | st.floats(-3e-6, 3e-6))
    if draw(st.integers(0, 9)) == 0:
        w[draw(st.integers(0, n - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    form = draw(st.sampled_from(["list", "tuple", "row", "ints", "stack"]))
    if form == "ints":
        return spin, draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n))
    if form == "row":  # a strided row of a Fortran-ordered array
        return spin, np.asfortranarray([[0.0] * n, w])[1]
    if form == "stack":
        return spin, draw(st.sampled_from([np.array([w, w]), (tuple(w),)]))
    return spin, w if form == "list" else tuple(w)


class TestMixtureMatchesCheckWeights:
    """CovariantMixture checks one vector in Python floats, check_weights in numpy
    reductions; both apply the one simplex rule."""

    @given(weight_inputs())
    @settings(max_examples=300, deadline=None)
    def test_same_verdict_and_same_floats(self, case):
        spin, weights = case
        w = np.asarray(weights, dtype=float)
        if w.ndim == 1 and np.isfinite(w).all():
            # the two sums round differently by a few ulps: keep clear of 1 +- tol_sum
            assume(abs(abs(math.fsum(w.tolist()) - 1.0) - TOL.tol_sum) > 1e-12)
        expected, got = stack_weights(weights, spin), mixture_weights(weights, spin)
        assert (got is None) == (expected is None)
        if got is not None:
            assert [x.hex() for x in got] == [x.hex() for x in expected]

    @pytest.mark.parametrize("weights, accepted", [
        ((-TOL.tol_psd, 0.5, 0.5 + TOL.tol_psd), True),
        ((-TOL.tol_psd - 1e-12, 0.5, 0.5 + TOL.tol_psd + 1e-12), False),
        ((0.5, 0.5, TOL.tol_sum - 1e-9), True),
        ((0.5, 0.5 - TOL.tol_sum + 1e-9, 0.0), True),
        ((0.5, 0.5, TOL.tol_sum + 1e-9), False),
        ((0.5, 0.5 - TOL.tol_sum - 1e-9, 0.0), False),
        ((np.nan, 0.5, 0.5), False),
        ((0.5, 0.5, np.nan), False),
        ((np.inf, 0.0, 0.0), False),
        ((-np.inf, 1.0, 1.0), False),
    ], ids=["min_at_tol", "min_past_tol", "sum_high_in", "sum_low_in", "sum_high_out",
            "sum_low_out", "nan_first", "nan_last", "inf", "minus_inf"])
    def test_rule_edges(self, weights, accepted):
        spin = SpinJ(2)
        assert (mixture_weights(weights, spin) is not None) == accepted
        assert (stack_weights(weights, spin) is not None) == accepted
        stack = np.array([[1.0, 0.0, 0.0], weights])  # the row rule of the stack path
        if accepted:
            check_weights(stack, spin, spin)
        else:
            with pytest.raises(ValueError, match="probability distribution"):
                check_weights(stack, spin, spin)

    @pytest.mark.parametrize("tol_psd, tol_eq, accepted", [(1e-6, 1e-12, True), (1e-12, 1e-6, False)],
                             ids=["psd_wide", "psd_narrow"])
    def test_weight_floor_is_tol_psd(self, monkeypatch, tol_psd, tol_eq, accepted):
        # a weight of -1e-7 lies between the two fields: only tol_psd may decide it
        monkeypatch.setattr(su2cov, "TOL", Tolerances(tol_psd=tol_psd, tol_eq=tol_eq))
        spin, weights = SpinJ(2), (-1e-7, 0.5, 0.5 + 1e-7)
        assert (mixture_weights(weights, spin) is not None) == accepted
        assert (stack_weights(weights, spin) is not None) == accepted


class TestTwirl:
    def test_fixes_covariant_channels(self):
        rng = np.random.default_rng(41)
        s = SpinJ(2)
        e = covariant_channel(random_mixture(s, s, rng))
        assert max_action_deviation(twirl(e, s, s), e) < 1e-10

    def test_idempotent(self):
        s = SpinJ(1)
        e = unitary_channel(haar_isometry(2, 2, 6))
        t1 = twirl(e, s, s)
        assert max_action_deviation(twirl(t1, s, s), t1) < 1e-10

    def test_unequal_dims_lands_on_the_simplex(self):
        from noetherlab.chan import random_channel

        sa, sb = SpinJ(1), SpinJ(2)
        rng = np.random.default_rng(44)
        for _ in range(5):
            e = random_channel(sa.dim, sb.dim, 2, rng)
            t = twirl(e, sa, sb)
            assert covariance_residual(t, spin_operators(sa), spin_operators(sb)) < 1e-10
            decompose(t, sa, sb)  # valid probability weights by construction

    def test_matches_group_quadrature(self):
        # Monte Carlo average over rotations as an independent oracle for
        # the spin-sector coefficient of the twirled channel
        s = SpinJ(1)
        e = unitary_channel(haar_isometry(2, 2, 7))
        t_in = ito_basis(s).family(2)
        exact = np.mean([
            np.trace(dagger(t) @ twirl(e, s, s).apply(t)).real for t in t_in
        ])
        rng = np.random.default_rng(8)
        samples = []
        for _ in range(10_000):
            u = rotation_unitary(s, random_rotation_vector(rng))
            vals = [np.trace(dagger(t) @ (dagger(u) @ e.apply(u @ t @ dagger(u)) @ u)).real
                    for t in t_in]
            samples.append(np.mean(vals))
        samples = np.asarray(samples)
        stderr = samples.std() / np.sqrt(len(samples))
        assert abs(samples.mean() - exact) < 3 * stderr + 1e-12

    def test_preserves_isotropic_scaling_factor(self):
        # a non-covariant channel that still scales polarization isotropically:
        # mix a covariant channel with a replace-by-unpolarized-state map
        s = SpinJ(2)
        rng = np.random.default_rng(9)
        mix = random_mixture(s, s, rng)
        cov = covariant_channel(mix)
        sigma = np.diag([0.5, 0.0, 0.5]).astype(complex)  # zero polarization, not I/d
        q = 0.6
        ks = [np.sqrt(q) * k for k in cov.kraus]
        ks += [np.sqrt(1 - q) * np.sqrt(w) * np.outer(v, b.conj())
               for w, v in zip(*_eig_pairs(sigma))
               for b in np.eye(3)]
        e = QuantumChannel(3, 3, kraus=ks)
        gens = spin_operators(s)
        assert covariance_residual(e, gens, gens) > 1e-3  # genuinely not covariant
        kappa = q * float(scaling_vector(mix)[1])
        f1_twirled = float(scaling_vector(decompose(twirl(e, s, s), s, s))[1])
        assert abs(f1_twirled - kappa) < 1e-10


def casimir_projectors(spin_in: SpinJ, spin_out: SpinJ) -> dict:
    """Pi_L for every label, as eigenprojectors of the Casimir sum_k G_k^2 of
    G_k = J_k^out (x) I - I (x) conj(J_k^in), the generators of U_out (x) U_in^*
    on row-stacked vectors; eigenvalue L(L+1) labels the block."""
    eye_in, eye_out = np.eye(spin_in.dim), np.eye(spin_out.dim)
    gens = [np.kron(a, eye_in) - np.kron(eye_out, b.conj())
            for a, b in zip(spin_operators(spin_out), spin_operators(spin_in))]
    w, v = np.linalg.eigh(sum(g @ g for g in gens))
    out = {}
    for two_l in coupled_labels(spin_in, spin_out):
        cols = v[:, np.rint(4 * w) == two_l * (two_l + 2)]
        out[two_l] = cols @ dagger(cols)
    return out


spins = st.integers(0, 6)


class TestSimplexProperties:
    @given(spins, spins, st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_decompose_inverts_covariant_channel(self, two_ja, two_jb, seed):
        sa, sb = SpinJ(two_ja), SpinJ(two_jb)
        mix = random_mixture(sa, sb, np.random.default_rng(seed))
        back = decompose(covariant_channel(mix), sa, sb)
        assert np.max(np.abs(np.array(back.weights) - mix.weights)) <= 1e-10

    @given(spins, spins, st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_twirl_idempotent_and_fixes_covariant_channels(self, two_ja, two_jb, seed):
        sa, sb = SpinJ(two_ja), SpinJ(two_jb)
        rng = np.random.default_rng(seed)
        once = twirl(random_channel(sa.dim, sb.dim, sa.dim, rng), sa, sb)
        assert np.max(np.abs(twirl(once, sa, sb).jamiolkowski - once.jamiolkowski)) <= 1e-12
        cov = covariant_channel(random_mixture(sa, sb, rng))
        assert np.max(np.abs(twirl(cov, sa, sb).jamiolkowski - cov.jamiolkowski)) <= 1e-12

    @given(spins, spins, st.integers(1, 3), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_match_dense_projector_formula(self, two_ja, two_jb, rank, seed):
        sa, sb = SpinJ(two_ja), SpinJ(two_jb)
        e = random_channel(sa.dim, sb.dim, rank * sa.dim, seed)
        j = e.jamiolkowski
        projectors = casimir_projectors(sa, sb)
        traces = {two_l: np.trace(p @ j).real for two_l, p in projectors.items()}
        dense = sum(traces[two_l] / (two_l + 1) * p for two_l, p in projectors.items())
        assert np.max(np.abs(twirl(e, sa, sb).jamiolkowski - dense)) <= 1e-12
        # the twirl is covariant, so its weights are the block traces of J
        back = decompose(twirl(e, sa, sb), sa, sb)
        assert np.max(np.abs(np.array(back.weights) - list(traces.values()))) <= 1e-12


def dense_twirl_residual(channel, spin_in, spin_out) -> float:
    """max |J - sum_L tr(Pi_L J) Pi_L / (2L+1)| from the Casimir eigenprojectors."""
    j = channel.jamiolkowski
    twirled = sum(np.trace(p @ j).real / (two_l + 1) * p
                  for two_l, p in casimir_projectors(spin_in, spin_out).items())
    return float(np.max(np.abs(j - twirled)))


def mixed_with_random(spin_in, spin_out, eps, rng) -> QuantumChannel:
    """(1 - eps) times a covariant channel plus eps times a random channel."""
    cov = covariant_channel(random_mixture(spin_in, spin_out, rng)).jamiolkowski
    other = random_channel(spin_in.dim, spin_out.dim, spin_in.dim, rng).jamiolkowski
    return QuantumChannel(spin_in.dim, spin_out.dim, jamiolkowski=(1 - eps) * cov + eps * other)


def reported_residual(excinfo) -> float:
    message = str(excinfo.value)
    assert message.startswith("channel is not covariant: twirl residual ")
    return float(message.rsplit(" ", 1)[1])


class TestCovarianceByProjection:
    """decompose's rule, max |J - twirl(J)| <= tol_eq, against the commutator
    residual and against the dense Casimir projectors."""

    @given(st.integers(0, 10), st.integers(1, 10),
           st.one_of(st.just(0.0), st.floats(-10, -2).map(lambda x: 10.0**x)),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_vanishes_with_the_commutator_and_grows_linearly(self, two_ja, two_jb, eps, seed):
        sa, sb = SpinJ(two_ja), SpinJ(two_jb)

        def residuals(weight):
            e = mixed_with_random(sa, sb, weight, np.random.default_rng(seed))
            projection = np.max(np.abs(e.jamiolkowski - twirl(e, sa, sb).jamiolkowski))
            return projection, covariance_residual(e, spin_operators(sa), spin_operators(sb))

        projection, commutator = residuals(eps)
        assert (projection <= 1e-14) == (commutator <= 1e-14)
        for now, full in zip((projection, commutator), residuals(1.0)):
            assert full > 1e-3  # the random channel is far from covariant
            assert abs(now - eps * full) <= 1e-14 + 1e-10 * eps * full

    @given(st.integers(0, 10), st.integers(1, 10), st.sampled_from([0.1, 10.0]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_decompose_rejects_exactly_beyond_tol_eq(self, two_ja, two_jb, scale, seed):
        sa, sb = SpinJ(two_ja), SpinJ(two_jb)
        full = dense_twirl_residual(mixed_with_random(sa, sb, 1.0, np.random.default_rng(seed)),
                                    sa, sb)
        e = mixed_with_random(sa, sb, scale * TOL.tol_eq / full, np.random.default_rng(seed))
        res = dense_twirl_residual(e, sa, sb)
        assert abs(res - scale * TOL.tol_eq) <= 1e-3 * res
        if scale < 1:
            assert abs(sum(decompose(e, sa, sb).weights) - 1) <= 1e-12
            return
        with pytest.raises(ValueError) as excinfo:
            decompose(e, sa, sb)
        assert abs(reported_residual(excinfo) - res) <= 1e-2 * res

    @pytest.mark.parametrize("two_ja, two_jb", [(1, 1), (2, 1), (1, 4), (6, 6)])
    def test_decompose_sees_entries_between_labels(self, two_ja, two_jb):
        # J = C + eps (|a><b| + |b><a|) with a = (m_out, m_in) = (j_out, j_in) and
        # b = (j_out - 1, j_in): different J_z labels, and different m_out, so the
        # trace over the output keeps J trace preserving.  twirl(J) = C, so the
        # residual is eps, all of it between labels.
        sa, sb = SpinJ(two_ja), SpinJ(two_jb)
        n = len(coupled_labels(sa, sb))
        j = covariant_channel(CovariantMixture(sa, sb, (1 / n,) * n)).jamiolkowski.copy()
        eps = 10 * TOL.tol_eq
        j[0, sa.dim] = j[sa.dim, 0] = eps
        e = QuantumChannel(sa.dim, sb.dim, jamiolkowski=j)
        with pytest.raises(ValueError) as excinfo:
            decompose(e, sa, sb)
        assert abs(reported_residual(excinfo) - eps) <= 1e-2 * eps

    @pytest.mark.parametrize("function", [decompose, twirl])
    @pytest.mark.parametrize("d_in, d_out, two_j_in, two_j_out, dims", [
        (4, 4, 1, 1, r"\(4, 4\) does not match the spins' \(2, 2\)"),
        (2, 2, 3, 3, r"\(2, 2\) does not match the spins' \(4, 4\)"),
        (2, 3, 1, 1, r"\(2, 3\) does not match the spins' \(2, 2\)"),
    ])
    def test_rejects_dimensions_other_than_the_spins(self, function, d_in, d_out, two_j_in,
                                                     two_j_out, dims):
        e = random_channel(d_in, d_out, 2, 1)
        with pytest.raises(ValueError, match=r"channel \(d_in, d_out\) = " + dims):
            function(e, SpinJ(two_j_in), SpinJ(two_j_out))


def _eig_pairs(rho):
    w, v = np.linalg.eigh(rho)
    keep = w > 1e-12
    return w[keep], [v[:, i] for i in np.flatnonzero(keep)]


class TestScalingCoefficients:
    def test_f0_fixed_by_trace_preservation(self):
        # the trivial-sector coefficient never depends on the mixture: it is
        # pinned to sqrt(d_in / d_out) by trace preservation (1 for equal dims)
        rng = np.random.default_rng(10)
        for (a, b) in [(1, 1), (2, 2), (1, 3), (3, 1), (4, 2)]:
            mix = random_mixture(SpinJ(a), SpinJ(b), rng)
            expect = np.sqrt((a + 1) / (b + 1))
            assert abs(scaling_vector(mix)[0] - expect) < 1e-12

    def test_identity_scales_nothing(self):
        s = SpinJ(3)
        mix = pure_mixture(s, s, 0)
        assert np.allclose(scaling_vector(mix), 1.0, atol=1e-12)

    def test_equal_spin_closed_form(self):
        # f_1(E^L) = 1 - L(L+1) / (2 j (j+1)), exactly
        for two_j in range(1, 9):
            s = SpinJ(two_j)
            j = s.j
            for two_l in coupled_labels(s, s):
                l = two_l / 2
                expect = 1 - l * (l + 1) / (2 * j * (j + 1))
                assert abs(scaling_coefficient(two_j, two_j, two_l, 2) - expect) < 1e-12

    def test_known_values(self):
        assert abs(scaling_coefficient(1, 1, 2, 2) + 1 / 3) < 1e-12
        assert abs(scaling_coefficient(2, 2, 4, 2) + 1 / 2) < 1e-12

    @pytest.mark.parametrize("two_j_in, two_j_out, two_l", [(2, 2, 1), (2, 1, 4), (1, 3, 4)],
                             ids=["odd", "above_output_spin", "above_input_spin"])
    def test_sector_label_outside_the_range(self, two_j_in, two_j_out, two_l):
        with pytest.raises(ValueError, match=r"tensor sector label must be an integer <= 2 min"):
            scaling_coefficient(two_j_in, two_j_out, abs(two_j_in - two_j_out), two_l)

    def test_matches_channel_action_all_sectors(self):
        for (a, b) in [(2, 2), (1, 3), (3, 1), (3, 3)]:
            sa, sb = SpinJ(a), SpinJ(b)
            t_in = ito_basis(sa)
            s_out = ito_basis(sb)
            for two_l_chan in coupled_labels(sa, sb):
                e = extremal_channel(sa, sb, two_l_chan)
                for two_l in range(0, 2 * min(a, b) + 2, 2):
                    got = np.trace(dagger(s_out.family(two_l)[two_l // 2])
                                   @ e.apply(t_in.family(two_l)[two_l // 2]))
                    expect = scaling_coefficient(a, b, two_l_chan, two_l)
                    assert abs(got.real - expect) < 1e-12 and abs(got.imag) < 1e-12

    @pytest.mark.parametrize("two_j_in", range(7))
    def test_definition_and_cg_sum_every_label_and_sector(self, two_j_in):
        # f_l(E^L) = tr(T^in_{l,0}^dag E^L_adj(T^out_{l,0})), l >= 2 and unequal spins included
        sa = SpinJ(two_j_in)
        for sb in map(SpinJ, range(7)):
            for two_l_chan in coupled_labels(sa, sb):
                e = extremal_channel(sa, sb, two_l_chan)
                for two_l in range(0, 2 * min(sa.two_j, sb.two_j) + 2, 2):
                    t_in = ito_basis(sa).family(two_l)[two_l // 2]
                    t_out = ito_basis(sb).family(two_l)[two_l // 2]
                    expect = np.trace(dagger(t_in) @ e.apply_adjoint(t_out))
                    got = scaling_coefficient(sa.two_j, sb.two_j, two_l_chan, two_l)
                    assert abs(got - expect) < 1e-12
                    oracle = scaling_coefficient_oracle(sa.two_j, sb.two_j, two_l_chan, two_l)
                    assert abs(got - oracle) < 1e-12

    def test_f1_explicit_examples(self):
        assert abs(f1_explicit(SpinJ(1), SpinJ(2), 1) - 2 / 3) < 1e-12
        for two_j in range(1, 9):
            s = SpinJ(two_j)
            j = s.j
            assert abs(f1_explicit(s, s, 2 * two_j) + j / (j + 1)) < 1e-12
            assert abs(f1_explicit(s, s, 0) - 1.0) < 1e-12

    def test_f1_explicit_matches_scaling_vector(self):
        for (a, b) in [(1, 1), (1, 2), (2, 1), (3, 2), (4, 4)]:
            sa, sb = SpinJ(a), SpinJ(b)
            for two_l in coupled_labels(sa, sb):
                mix = pure_mixture(sa, sb, two_l)
                assert abs(scaling_vector(mix)[1] - f1_explicit(sa, sb, two_l)) < 1e-12


class TestPolarization:
    def test_isotropic_scaling(self):
        rng = np.random.default_rng(12)
        for (a, b) in [(2, 2), (1, 3), (4, 2)]:
            sa, sb = SpinJ(a), SpinJ(b)
            mix = random_mixture(sa, sb, rng)
            e = covariant_channel(mix)
            kappa = float(scaling_vector(mix)[1]) * spin_norm(sb) / spin_norm(sa)
            for _ in range(4):
                v = haar_pure_batch(sa.dim, 1, rng)[0]
                rho = np.outer(v, v.conj())
                p_in = spin_polarization(rho, sa)
                p_out = spin_polarization(e.apply(rho), sb)
                assert np.max(np.abs(p_out - kappa * p_in)) < 1e-9

    def test_kappa_examples(self):
        r = kappa_extrema(SpinJ(1), SpinJ(1))
        assert abs(r["kappa_minus"] + 1 / 3) < 1e-12 and r["two_L_minus"] == 2
        r = kappa_extrema(SpinJ(1), SpinJ(2))
        assert abs(r["kappa_plus"] - 4 / 3) < 1e-12 and r["two_L_plus"] == 1
        r = kappa_extrema(SpinJ(2), SpinJ(1))
        assert abs(r["kappa_plus"] - 1 / 2) < 1e-12 and r["two_L_plus"] == 1

    @pytest.mark.parametrize("call", [
        lambda: polarization_factor(SpinJ(0), SpinJ(2), 2),
        lambda: f1_explicit(SpinJ(0), SpinJ(2), 2),
        lambda: f1_explicit(SpinJ(2), SpinJ(0), 2),
        lambda: kappa_extrema(SpinJ(0), SpinJ(1)),
    ], ids=["polarization_factor", "f1_explicit_in", "f1_explicit_out", "kappa_extrema"])
    def test_spin_zero_is_refused(self, call):
        with pytest.raises(ValueError, match="polarization scaling needs both spins nonzero"):
            call()

    def test_argmax_stability(self):
        for a in range(1, 9):
            for b in range(1, 9):
                r = kappa_extrema(SpinJ(a), SpinJ(b))
                assert r["two_L_minus"] == a + b
                assert r["two_L_plus"] == abs(a - b)

    def test_extrema_match_the_full_scan(self):
        # the oracle takes the min and max over every label of the ladder
        for a in range(1, 25):
            for b in range(1, 25):
                sa, sb = SpinJ(a), SpinJ(b)
                kappas = {two_l: polarization_factor(sa, sb, two_l)
                          for two_l in coupled_labels(sa, sb)}
                lo, hi = min(kappas, key=kappas.get), max(kappas, key=kappas.get)
                assert kappa_extrema(sa, sb) == {"kappa_minus": kappas[lo], "two_L_minus": lo,
                                                 "kappa_plus": kappas[hi], "two_L_plus": hi}

    def test_amplification_branches(self):
        for a in range(1, 9):
            for b in range(1, 9):
                ja, jb = a / 2, b / 2
                expect = jb / ja if a >= b else (jb + 1) / (ja + 1)
                assert abs(kappa_extrema(SpinJ(a), SpinJ(b))["kappa_plus"] - expect) < 1e-12

    def test_inversion_complementarity(self):
        # kappa of a channel and of its environment side sum to one
        for (a, b) in [(1, 1), (2, 2), (1, 3)]:
            sa, sb = SpinJ(a), SpinJ(b)
            for two_l in coupled_labels(sa, sb):
                k1 = polarization_factor(sa, sb, two_l)
                k2 = polarization_factor(sa, SpinJ(two_l), b) if two_l > 0 else None
                if two_l > 0:
                    assert abs(k1 + k2 - 1.0) < 1e-12


class TestConservationSplit:
    @pytest.mark.parametrize("two_l", [0, 2, 4])
    def test_split_over_all_labels(self, two_l):
        spin = SpinJ(2)
        rng = np.random.default_rng(13)
        e = extremal_channel(spin, spin, two_l)
        comp = QuantumChannel(spin.dim, spin.dim,
                              kraus=extremal_kraus(spin, spin, two_l)).complementary()
        envs = environment_spin_generators(two_l)
        for _ in range(20):
            v = haar_pure_batch(spin.dim, 1, rng)[0]
            rho = np.outer(v, v.conj())
            p_in = spin_polarization(rho, spin)
            p_out = spin_polarization(e.apply(rho), spin)
            sigma = comp.apply(rho)
            p_env = np.array([np.real(np.trace(g @ sigma)) for g in envs])
            assert np.max(np.abs(p_in - p_out - p_env)) < 1e-9


class TestTimeReversal:
    def test_closed_form_values(self):
        assert abs(time_reversal_fidelity(SpinJ(1)) - 2 / 3) < 1e-15
        assert abs(time_reversal_fidelity(SpinJ(2)) - 3 / 5) < 1e-15

    def test_direct_agreement(self):
        for two_j in range(1, 7):
            s = SpinJ(two_j)
            e = extremal_channel(s, s, 2 * two_j)
            rho = np.zeros((s.dim, s.dim), dtype=complex)
            rho[0, 0] = 1.0  # |j, j>
            direct = float(np.real(e.apply(rho)[-1, -1]))
            assert abs(direct - time_reversal_fidelity(s)) < 1e-10

    def test_spin_zero_is_refused(self):
        with pytest.raises(ValueError, match="needs two_j >= 1"):
            time_reversal_fidelity(SpinJ(0))

    def test_monotone_decreasing_to_half(self):
        values = [time_reversal_fidelity(SpinJ(tj)) for tj in range(1, 41)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert abs(values[-1] - 0.5) < 0.02
