import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noetherlab.chan import (
    ChannelValidationError,
    QuantumChannel,
    covariance_residual,
    depolarizing_channel,
    identity_channel,
    max_action_deviation,
    random_channel,
    unitary_channel,
)
from noetherlab.numkit import assert_density_matrix, dagger, ginibre, haar_unitary, purity
from noetherlab.su2cov import CovariantMixture, covariant_channel, extremal_channel
from noetherlab.su2rep import SpinJ


class TestRepresentations:
    def test_identity_all_forms(self):
        e = identity_channel(2)
        assert np.allclose(e.liouville, np.eye(4))
        omega = np.zeros(4)
        omega[[0, 3]] = 1 / np.sqrt(2)
        assert np.allclose(e.jamiolkowski, np.outer(omega, omega))
        assert len(e.kraus) == 1 and np.allclose(e.kraus[0], np.eye(2))

    def test_depolarizing(self):
        e = depolarizing_channel(2)
        assert np.allclose(e.jamiolkowski, np.eye(4) / 4)
        assert e.kraus_rank == 4

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_random(self, seed):
        rng = np.random.default_rng(seed)
        d_in = int(rng.integers(2, 5))
        d_out = int(rng.integers(2, 5))
        rank = int(rng.integers(1, 4))
        if d_out * rank < d_in:
            rank = -(-d_in // d_out)
        e = random_channel(d_in, d_out, rank, rng)
        for other in (
            QuantumChannel(d_in, d_out, kraus=e.kraus),
            QuantumChannel(d_in, d_out, liouville=e.liouville),
            QuantumChannel(d_in, d_out, jamiolkowski=e.jamiolkowski),
            QuantumChannel(d_in, d_out, stinespring=e.stinespring),
        ):
            assert max_action_deviation(e, other) < 1e-9

    def test_kraus_count_equals_choi_rank(self):
        e = random_channel(3, 2, 2, 5)
        fresh = QuantumChannel(3, 2, jamiolkowski=e.jamiolkowski)
        rank = np.sum(np.linalg.eigvalsh(e.jamiolkowski) > 1e-9)
        assert len(fresh.kraus) == rank

    def test_three_kraus_2_to_3(self):
        e = random_channel(2, 3, 3, 7)
        basis = [np.zeros((2, 2), dtype=complex) for _ in range(4)]
        for i, b in enumerate(basis):
            b[divmod(i, 2)] = 1.0
        j_form = QuantumChannel(2, 3, jamiolkowski=e.jamiolkowski)
        for b in basis:
            assert np.max(np.abs(e.apply(b) - j_form.apply(b))) < 1e-10


class TestStoredFormsReadOnly:
    def test_writes_raise(self):
        with pytest.raises(ValueError):
            depolarizing_channel(2).jamiolkowski[0, 0] = 5.0
        e = random_channel(3, 2, 2, 5)
        with pytest.raises(ValueError):
            e.kraus[0][0, 0] += 1

    @pytest.mark.parametrize("form", ["kraus", "liouville", "jamiolkowski", "stinespring"])
    def test_given_and_derived_forms_read_only(self, form):
        given = getattr(random_channel(3, 2, 2, 5), form)
        e = QuantumChannel(3, 2, **{form: given})
        for stored in (e.jamiolkowski, e.liouville, *e.kraus):
            assert not stored.flags.writeable

    def test_caller_array_keeps_its_flags(self):
        j = np.eye(4, dtype=complex) / 4
        e = QuantumChannel(2, 2, jamiolkowski=j)
        assert np.shares_memory(e.jamiolkowski, j)
        assert j.flags.writeable


READ_FIRST = {
    "kraus": lambda e: e.kraus,
    "stinespring": lambda e: e.stinespring,
    "complementary": lambda e: e.complementary(),
}


def assert_read_order_free(build, read_first):
    """Two copies from ``build()`` give identical numbers, although one had a
    derived form read first."""
    fresh, touched = build(), build()
    rng = np.random.default_rng(5)
    g = ginibre(fresh.d_in, fresh.d_in, rng)
    rho = g @ dagger(g) / np.trace(g @ dagger(g))
    y = ginibre(fresh.d_out, fresh.d_out, rng)
    y = y + dagger(y)

    def observed(e):
        return e.liouville, e.jamiolkowski, e.apply(rho), e.apply_adjoint(y)

    expected = observed(fresh)
    READ_FIRST[read_first](touched)
    for name, a, b in zip(("liouville", "jamiolkowski", "apply", "apply_adjoint"),
                          expected, observed(touched)):
        assert np.array_equal(a, b), name


class TestReadOrder:
    @pytest.mark.parametrize("read_first", sorted(READ_FIRST))
    @pytest.mark.parametrize("form", ["kraus", "liouville", "jamiolkowski", "stinespring"])
    @pytest.mark.parametrize("d_in,d_out,rank", [(3, 2, 2), (2, 4, 3)])
    def test_random_channel(self, d_in, d_out, rank, form, read_first):
        data = getattr(random_channel(d_in, d_out, rank, seed=11), form)
        assert_read_order_free(
            lambda: QuantumChannel(d_in, d_out, **{form: copy.deepcopy(data)}), read_first)

    @pytest.mark.parametrize("read_first", sorted(READ_FIRST))
    def test_near_zero_weight_covariant_channel(self, read_first):
        # J has eigenvalues at or below tol_psd, which the eigen-Kraus form drops
        s = SpinJ(4)
        mix = CovariantMixture(s, s, (0.6, 0.4 - 2e-9, 1e-9, 5e-10, 5e-10))
        assert_read_order_free(lambda: covariant_channel(mix), read_first)


class TestValidation:
    def test_negative_eigenvalue_detected(self):
        j = identity_channel(2).jamiolkowski
        w, v = np.linalg.eigh(j)
        w[0] -= 1e-6
        with pytest.raises(ChannelValidationError, match="completely positive"):
            QuantumChannel(2, 2, jamiolkowski=(v * w) @ dagger(v))

    def test_trace_preservation_detected(self):
        ks = [np.sqrt(0.9) * np.eye(2)]  # deficient Kraus sum
        with pytest.raises(ChannelValidationError, match="trace preserving"):
            QuantumChannel(2, 2, kraus=ks)

    def test_non_finite_kraus_rejected(self):
        k = np.eye(2, dtype=complex)
        k[0, 0] = np.nan
        with pytest.raises(ChannelValidationError, match="non-finite"):
            QuantumChannel(2, 2, kraus=[k])

    def test_non_finite_jamiolkowski_rejected(self):
        j = identity_channel(2).jamiolkowski.copy()
        j[1, 2] = np.inf
        with pytest.raises(ChannelValidationError, match="non-finite"):
            QuantumChannel(2, 2, jamiolkowski=j)

    def test_apply_output_is_density_matrix(self):
        rng = np.random.default_rng(3)
        e = random_channel(3, 4, 2, rng)
        g = ginibre(3, 3, rng)
        rho = g @ dagger(g)
        rho /= np.trace(rho).real
        assert_density_matrix(e.apply(rho))


class TestAdjoint:
    def test_unitary_adjoint_is_inverse(self):
        u = haar_unitary(3, 1)
        e = unitary_channel(u)
        x = ginibre(3, 3, 2)
        assert np.allclose(e.apply_adjoint(x), dagger(u) @ x @ u)

    def test_defining_property_and_unitality(self):
        rng = np.random.default_rng(4)
        e = random_channel(3, 2, 2, rng)
        x = ginibre(3, 3, rng)
        y = ginibre(2, 2, rng)
        assert abs(np.trace(e.apply(x) @ y) - np.trace(x @ e.apply_adjoint(y))) < 1e-10
        assert np.allclose(e.apply_adjoint(np.eye(2)), np.eye(3), atol=1e-10)

    def test_spin_flip_factor(self):
        from noetherlab.su2rep import spin_operators

        e = extremal_channel(SpinJ(1), SpinJ(1), 2)
        for op in spin_operators(SpinJ(1)):
            assert np.max(np.abs(e.apply_adjoint(op) + op / 3)) < 1e-12


class TestComplementary:
    def test_isometry_complement_is_constant(self):
        e = unitary_channel(haar_unitary(3, 2)).complementary()
        assert e.d_out == 1
        rho = np.eye(3) / 3
        assert np.allclose(e.apply(rho), [[1.0]])

    def test_depolarizing_dual_route_consistency(self):
        from noetherlab.metrics import unitarity_complementary, unitarity_jamiolkowski

        e = depolarizing_channel(2)
        assert abs(unitarity_jamiolkowski(e) - unitarity_complementary(e)) < 1e-10

    def test_complement_is_cptp(self):
        e = random_channel(3, 2, 3, 11).complementary()
        assert e.tp_residual < 1e-9 and e.cp_min_eig > -1e-9


class TestCompose:
    def test_identity_neutral(self):
        e = random_channel(2, 2, 2, 13)
        assert max_action_deviation(identity_channel(2).compose(e), e) < 1e-12

    def test_depolarizing_absorbs(self):
        e = random_channel(2, 2, 2, 14)
        c = depolarizing_channel(2).compose(e)
        assert max_action_deviation(c, depolarizing_channel(2)) < 1e-12

    def test_unitary_product(self):
        u1 = haar_unitary(2, 15)
        u2 = haar_unitary(2, 16)
        c = unitary_channel(u2).compose(unitary_channel(u1))
        assert max_action_deviation(c, unitary_channel(u2 @ u1)) < 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            identity_channel(3).compose(identity_channel(2))


class TestChannelFile:
    @pytest.mark.parametrize("representation", ["kraus", "liouville", "jamiolkowski"])
    def test_roundtrip(self, tmp_path, representation):
        e = random_channel(2, 3, 2, 17)
        path = tmp_path / "chan.json"
        e.save_json(path, representation)
        loaded = QuantumChannel.load_json(path)
        assert max_action_deviation(e, loaded) < 1e-12

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**32 - 1),
           st.sampled_from(["kraus", "liouville", "jamiolkowski"]))
    @settings(max_examples=60, deadline=None)
    def test_json_roundtrip_property(self, d_in, d_out, rank, seed, representation):
        rank = max(rank, -(-d_in // d_out))
        e = random_channel(d_in, d_out, rank, seed)
        text = json.dumps(e.to_json_dict(representation))
        loaded = QuantumChannel.from_json_dict(json.loads(text))
        assert (loaded.d_in, loaded.d_out) == (d_in, d_out)
        for name in ("liouville", "jamiolkowski"):
            assert np.max(np.abs(getattr(loaded, name) - getattr(e, name))) < 1e-12
        if representation == "kraus":
            assert all(np.max(np.abs(a - b)) < 1e-12 for a, b in zip(loaded.kraus, e.kraus))

    def test_wire_format(self, tmp_path):
        e = identity_channel(2)
        path = tmp_path / "chan.json"
        e.save_json(path, "kraus")
        obj = json.loads(path.read_text())
        assert set(obj) == {"d_in", "d_out", "repr", "data"}
        assert obj["repr"] == "kraus"
        # entries are [re, im] pairs
        assert obj["data"][0][0][0] == [1.0, 0.0]


def dense_covariance_residual(channel, gens_in, gens_out):
    """max |[J, g_out (x) I - I (x) g_in^*]| with every generator as a dense matrix."""
    j = channel.jamiolkowski
    res = 0.0
    for g_in, g_out in zip(gens_in, gens_out):
        gen = np.kron(g_out, np.eye(channel.d_in)) - np.kron(np.eye(channel.d_out), np.conj(g_in))
        res = max(res, float(np.max(np.abs(j @ gen - gen @ j))))
    return res


class TestCovarianceResidual:
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_generators(self, d_in, d_out, rank, seed):
        rank = max(rank, -(-d_in // d_out))
        e = random_channel(d_in, d_out, rank, seed)
        rng = np.random.default_rng(seed)
        gens_in = [ginibre(d_in, d_in, rng) for _ in range(2)]
        gens_out = [ginibre(d_out, d_out, rng) for _ in range(2)]
        dense = dense_covariance_residual(e, gens_in, gens_out)
        assert abs(covariance_residual(e, gens_in, gens_out) - dense) <= 1e-12 * max(1.0, dense)
