import copy
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noetherlab.chan import (
    ChannelValidationError,
    QuantumChannel,
    _jamiolkowski_from_liouville,
    _liouville_from_jamiolkowski,
    covariance_residual,
    max_action_deviation,
    random_channel,
)
from noetherlab.numkit import dagger, ginibre, haar_isometry, purity
from noetherlab.su2cov import CovariantMixture, covariant_channel, extremal_channel
from noetherlab.su2rep import SpinJ
from support import (
    depolarizing_channel,
    identity_channel,
    kron_liouville,
    peak_bytes,
    unitary_channel,
)


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


class TestReshuffle:
    """The Liouville <-> Jamiolkowski index permutation, in both directions."""

    def test_identity_channel_gives_scaled_bell_projector(self):
        # the identity's Liouville matrix is I: its J is |Omega><Omega|
        omega = np.zeros(4)
        omega[[0, 3]] = 1 / np.sqrt(2)
        assert np.allclose(_jamiolkowski_from_liouville(np.eye(4), 2, 2), np.outer(omega, omega))

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_involution(self, seed):
        m = ginibre(9, 9, seed)
        twice = _jamiolkowski_from_liouville(_jamiolkowski_from_liouville(m, 3, 3), 3, 3)
        assert np.allclose(twice * 9, m)

    def test_matches_choi_from_kraus(self):
        # independent construction of J = (E (x) I)|Om><Om| from Kraus data
        d_in, d_out = 3, 2
        q = haar_isometry(d_out * 2, d_in, 1)
        ks = [q[i * d_out:(i + 1) * d_out, :] for i in range(2)]
        lv = kron_liouville(ks)
        omega = np.zeros(d_in * d_in, dtype=complex)
        omega[:: d_in + 1] = 1 / np.sqrt(d_in)
        ext = sum(np.kron(k, np.eye(d_in)) @ np.outer(omega, omega.conj())
                  @ dagger(np.kron(k, np.eye(d_in))) for k in ks)
        assert np.allclose(_jamiolkowski_from_liouville(lv, d_out, d_in), ext, atol=1e-12)

    @pytest.mark.parametrize("d_in, d_out", [(2, 3), (3, 2), (1, 4), (4, 2)])
    def test_conversions_invert_each_other(self, d_in, d_out):
        e = random_channel(d_in, d_out, 3, d_in * 10 + d_out)
        j, lv = e.jamiolkowski, e.liouville
        assert np.max(np.abs(_liouville_from_jamiolkowski(
            _jamiolkowski_from_liouville(lv, d_out, d_in), d_out, d_in) - lv)) <= 1e-15
        assert np.max(np.abs(_jamiolkowski_from_liouville(
            _liouville_from_jamiolkowski(j, d_out, d_in), d_out, d_in) - j)) <= 1e-15


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
        assert not np.shares_memory(e.jamiolkowski, j)  # the given form is copied
        assert j.flags.writeable

    @pytest.mark.parametrize("form", ["kraus", "liouville", "jamiolkowski"])
    def test_caller_edits_do_not_reach_the_channel(self, form):
        given = getattr(random_channel(3, 2, 2, 5), form)
        given = [np.array(k) for k in given] if form == "kraus" else np.array(given)
        e = QuantumChannel(3, 2, **{form: given})
        before = [np.array(a) for a in (e.jamiolkowski, e.liouville, *e.kraus)]
        (given[0] if form == "kraus" else given)[0, 0] += 5.0
        after = (e.jamiolkowski, e.liouville, *e.kraus)
        assert all(np.array_equal(a, b) for a, b in zip(before, after))
        assert abs(np.trace(e.apply(np.eye(3) / 3)) - 1.0) < 1e-12


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

    def test_trace_preservation_reads_the_input_marginal(self):
        # tr_out J = I/d_in is checked, not tr_in J = E(I)/d_in: a rectangular channel to
        # |0><0| is not unital, and E(X) = <0|X|0> I is unital but does not preserve trace
        to_ket0 = QuantumChannel(3, 2, jamiolkowski=np.kron(np.diag([1.0, 0.0]), np.eye(3) / 3))
        assert to_ket0.tp_residual == 0.0
        ket0, ket1 = np.eye(2)[:, :1], np.eye(2)[:, 1:]
        with pytest.raises(ChannelValidationError, match="not trace preserving"):
            QuantumChannel(2, 2, kraus=[ket0 @ ket0.T, ket1 @ ket0.T])

    def test_non_finite_kraus_rejected(self):
        for bad in (np.nan, np.inf, 1e200):  # inf * 0, 1e200**2 in J: an error, not a RuntimeWarning
            k = np.eye(2, dtype=complex)
            k[0, 0] = bad
            with pytest.raises(ChannelValidationError, match="non-finite"):
                QuantumChannel(2, 2, kraus=[k])

    def test_non_finite_jamiolkowski_rejected(self):
        j = identity_channel(2).jamiolkowski.copy()
        j[1, 2] = np.inf
        with pytest.raises(ChannelValidationError, match="non-finite"):
            QuantumChannel(2, 2, jamiolkowski=j)

    @pytest.mark.parametrize("call, message", [
        (lambda: QuantumChannel(2, 2), "provide exactly one representation"),
        (lambda: QuantumChannel(2, 2, kraus=[np.eye(2)], liouville=np.eye(4)),
         "provide exactly one representation"),
        (lambda: QuantumChannel(2, 2, stinespring=np.ones((3, 2))),
         r"Stinespring isometry must be \(d_out \* d_env\) x d_in"),
        (lambda: QuantumChannel(2, 2, kraus=[np.eye(3)]), "Kraus operators must be d_out x d_in"),
        (lambda: QuantumChannel(2, 2, kraus=[]), "Kraus operators must be d_out x d_in"),
        (lambda: QuantumChannel(2, 2, liouville=np.eye(3)), "Liouville matrix must be 4 x 4"),
        (lambda: QuantumChannel(2, 2, jamiolkowski=np.eye(3) / 3),
         "Jamiolkowski state must be 4 x 4"),
        (lambda: QuantumChannel(2, 2, jamiolkowski=np.eye(4) / 4 + np.triu(np.ones((4, 4)), 1)),
         r"Jamiolkowski state not Hermitian \(residual 1.00e\+00\)"),
        (lambda: identity_channel(2).apply(np.eye(3)), "state must be 2 x 2"),
        (lambda: identity_channel(2).apply_adjoint(np.eye(3)), "observable must be 2 x 2"),
        (lambda: identity_channel(2).to_json_dict("choi"), "unknown representation 'choi'"),
        (lambda: random_channel(4, 1, 3, 0), r"need d_out \* kraus_rank >= d_in"),
    ], ids=["no_form", "two_forms", "stinespring_shape", "kraus_shape", "no_kraus",
            "liouville_shape", "jamiolkowski_shape", "non_hermitian", "apply_shape",
            "apply_adjoint_shape", "to_json_representation", "random_channel_rank"])
    def test_malformed_input_is_a_one_line_value_error(self, call, message):
        with pytest.raises(ValueError, match=message) as err:
            call()
        assert "\n" not in str(err.value)

    def test_apply_output_is_density_matrix(self):
        rng = np.random.default_rng(3)
        e = random_channel(3, 4, 2, rng)
        g = ginibre(3, 3, rng)
        rho = g @ dagger(g)
        rho /= np.trace(rho).real
        out = e.apply(rho)
        assert np.max(np.abs(out - dagger(out))) < 1e-12
        assert abs(np.trace(out) - 1) < 1e-12
        assert np.min(np.linalg.eigvalsh(out)) > -1e-12


class TestTraceResidual:
    """The TP check contracts J with I once; its residual is still the adjoint's marginal gap."""

    @pytest.mark.parametrize("make", [
        lambda: random_channel(3, 2, 2, 7),
        lambda: QuantumChannel(2, 3, jamiolkowski=random_channel(2, 3, 4, 8).jamiolkowski),
        lambda: QuantumChannel(3, 2, liouville=random_channel(3, 2, 3, 9).liouville),
        lambda: extremal_channel(SpinJ(2), SpinJ(2), 2),
        lambda: extremal_channel(SpinJ(7), SpinJ(9), 6),  # 80 rows: support blocks
        lambda: extremal_channel(SpinJ(9), SpinJ(7), 4),
        lambda: covariant_channel(CovariantMixture(SpinJ(3), SpinJ(5), (0.2, 0.3, 0.1, 0.4))),
        lambda: covariant_channel(CovariantMixture(SpinJ(4), SpinJ(4), (0.1, 0.2, 0.3, 0.3, 0.1))),
    ], ids=["dense_kraus", "dense_jamiolkowski", "dense_liouville", "labelled_whole",
            "labelled_blocks", "labelled_blocks_narrowing", "blocks_widening", "blocks_square"])
    def test_is_the_adjoint_marginal_gap_bit_for_bit(self, make):
        ch = make()
        gap = np.max(np.abs(ch.apply_adjoint(np.eye(ch.d_out)) - np.eye(ch.d_in))) / ch.d_in
        assert ch.tp_residual == float(gap)

    def test_liouville_input_is_copied_once(self):
        # the Liouville matrix converts to a new J, which is kept without a second copy
        ch = extremal_channel(SpinJ(20), SpinJ(20), 20)
        j, lv = np.array(ch.jamiolkowski), np.array(ch.liouville)
        from_j = peak_bytes(lambda: QuantumChannel(21, 21, jamiolkowski=j))
        from_lv = peak_bytes(lambda: QuantumChannel(21, 21, liouville=lv))
        assert from_lv <= 1.05 * from_j


class TestAdjoint:
    def test_unitary_adjoint_is_inverse(self):
        u = haar_isometry(3, 3, 1)
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
        e = unitary_channel(haar_isometry(3, 3, 2)).complementary()
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
    """Liouville matrices, given or derived, multiply as the maps compose."""

    @staticmethod
    def compose(second, first):
        return QuantumChannel(first.d_in, second.d_out,
                              liouville=second.liouville @ first.liouville)

    def test_identity_neutral(self):
        e = random_channel(2, 2, 2, 13)
        assert max_action_deviation(self.compose(identity_channel(2), e), e) < 1e-12

    def test_depolarizing_absorbs(self):
        e = random_channel(2, 2, 2, 14)
        c = self.compose(depolarizing_channel(2), e)
        assert max_action_deviation(c, depolarizing_channel(2)) < 1e-12

    def test_unitary_product(self):
        u1 = haar_isometry(2, 2, 15)
        u2 = haar_isometry(2, 2, 16)
        c = self.compose(unitary_channel(u2), unitary_channel(u1))
        assert max_action_deviation(c, unitary_channel(u2 @ u1)) < 1e-12


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

    @pytest.mark.parametrize("changes,message", [
        ({"repr": None}, "no 'repr'"),
        ({"data": None}, "no 'data'"),
        ({"repr": "liouville", "data": 5}, "entry 5 "),
        ({"data": 5}, "entry 5 "),
        ({"data": [1, 2]}, "entry 1 "),
        ({"repr": "jamiolkowski", "data": [[["1", 0]]]}, r"entry \['1', 0\]"),
        ({"data": [[[[1, 0], [0, 0, 0]]]]}, r"entry \[0, 0, 0\]"),
        ({"d_in": True, "d_out": 1, "data": [[[[1.0, 0.0]]]]}, "d_in=True"),
        ({"d_out": 2.0}, "d_out=2.0"),
        ({"repr": "choi"}, "unknown representation 'choi'"),
        ({"repr": "jamiolkowski", "data": [[[10**400, 0]]]},
         r"^channel entry \[1000+, 0\] is not a \[re, im\] pair of numbers$"),
    ], ids=["no_repr", "no_data", "int_liouville", "int_kraus", "kraus_of_numbers",
            "string_entry", "triple_entry", "bool_d_in", "float_d_out", "unknown_repr",
            "int_beyond_float"])
    def test_malformed_file_is_a_value_error(self, tmp_path, changes, message):
        obj = {**identity_channel(2).to_json_dict("kraus"), **changes}
        obj = {key: value for key, value in obj.items() if value is not None}
        path = tmp_path / "chan.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match=message):
            QuantumChannel.load_json(path)

    @pytest.mark.parametrize("obj, message", [
        ({"d_in": 2, "d_out": 2, "repr": "liouville", "data": [[[1, 0]], [[1, 0], [0, 0]]]},
         "channel matrix row 1 has 2 entries, not 1"),
        ({"d_in": 2, "d_out": 2, "repr": "kraus",
          "data": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]], [[[1, 0], [0, 0]], [[0, 0]]]]},
         "channel Kraus operator 1 row 1 has 1 entries, not 2"),
    ], ids=["matrix", "kraus"])
    def test_ragged_row_is_named_on_one_line(self, obj, message):
        with pytest.raises(ValueError) as err:
            QuantumChannel.from_json_dict(obj)
        assert str(err.value) == message

    def test_non_object_is_a_value_error(self):
        with pytest.raises(ValueError, match="not a JSON object"):
            QuantumChannel.from_json_dict([])

    @pytest.mark.parametrize("value, named", [
        (2**1024 - 2**970 - 1, "matrix row 1"),
        (2**1024 - 2**970, "entry"),
        (-(2**1024 - 2**970), "entry"),
    ], ids=["largest_int_to_float", "first_overflow", "first_negative_overflow"])
    def test_int_entries_end_where_float_overflows(self, value, named):
        if named == "entry":
            with pytest.raises(OverflowError):
                float(value)
        else:
            assert float(value) == np.finfo(float).max
        # the ragged row 1 stops the reader after the entry check, before any conversion
        obj = {"d_in": 1, "d_out": 1, "repr": "liouville", "data": [[[value, 0]], [[0, 0], [0, 0]]]}
        with pytest.raises(ValueError, match=f"^channel {named} "):
            QuantumChannel.from_json_dict(obj)


def reference_decode(m) -> np.ndarray:
    """A matrix read entry by entry through ``complex(re, im)``."""
    return np.array([[complex(re, im) for re, im in row] for row in m])


class Decoded(QuantumChannel):
    """Keeps the decoded form as given, unvalidated: ``from_json_dict``'s arrays themselves."""

    def __init__(self, d_in, d_out, **form):
        self.form = form


class TestChannelFileBytes:
    """The one-write encoder and the numpy decoder give what ``json.dump`` and a decoder of
    one ``complex(re, im)`` per entry give, bit for bit."""

    @pytest.mark.parametrize("representation", ["kraus", "liouville", "jamiolkowski"])
    @pytest.mark.parametrize("channel", [
        random_channel(2, 3, 2, 17), unitary_channel(-np.eye(2)), depolarizing_channel(3),
    ], ids=["random", "minus_identity", "depolarizing"])
    def test_save_writes_the_bytes_of_json_dump(self, tmp_path, channel, representation):
        path = tmp_path / "chan.json"
        channel.save_json(path, representation)
        expected = io.StringIO()
        json.dump(channel.to_json_dict(representation), expected)
        assert path.read_text() == expected.getvalue()

    @pytest.mark.parametrize("representation", ["kraus", "liouville", "jamiolkowski"])
    def test_decoded_arrays_are_bit_identical(self, representation):
        entries = [-0.0, 0, 2**1023, -(2**1023) - 12345, 2**1024 - 2**970 - 1, 2**53 + 1,
                   0.1, -5e-324, 1, -3, 1e308, -0.0, 7, 2**63 + 5, -2.5, 0.0]
        matrix = [[[entries[(4 * r + c) % 16], entries[(4 * r + c + 5) % 16]] for c in range(4)]
                  for r in range(4)]
        data = [matrix, matrix[::-1]] if representation == "kraus" else matrix
        form = Decoded.from_json_dict(
            {"d_in": 2, "d_out": 2, "repr": representation, "data": data}).form[representation]
        for got, m in zip(form, data) if representation == "kraus" else [(form, data)]:
            want = reference_decode(m)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()  # -0.0 and 0.0 differ here


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
