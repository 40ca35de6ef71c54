import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noetherlab.numkit import (
    Tolerances,
    ginibre,
    haar_isometry,
    haar_pure_batch,
    partial_trace,
    purity,
    reshuffle,
    vectorize,
)
from support import mat_exp_skew_hermitian


def rand_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestVectorize:
    def test_identity(self):
        assert np.allclose(vectorize(np.eye(2)), [1, 0, 0, 1])

    def test_basis_element(self):
        m = np.zeros((2, 2))
        m[0, 1] = 1.0  # |0><1|
        assert np.allclose(vectorize(m), [0, 1, 0, 0])

    def test_unit_norm_of_identity(self):
        for d in (2, 3, 5):
            assert np.isclose(np.linalg.norm(vectorize(np.eye(d)) / np.sqrt(d)), 1.0)

    def test_trace_inner_product(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rand_complex(rng, 4, 4)
            y = rand_complex(rng, 4, 4)
            lhs = np.vdot(vectorize(x), vectorize(y))
            assert abs(lhs - np.trace(x.conj().T @ y)) < 1e-12


class TestReshuffle:
    def test_identity_channel_gives_scaled_bell_projector(self):
        # reshuffling L(identity) yields the rank-1 maximally entangled
        # operator; with unit-trace normalization it is |Omega><Omega|
        omega = np.zeros(4)
        omega[[0, 3]] = 1 / np.sqrt(2)
        got = reshuffle(np.eye(4), 2, 2) / 2
        assert np.allclose(got, np.outer(omega, omega))

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_involution(self, seed):
        rng = np.random.default_rng(seed)
        m = rand_complex(rng, 9, 9)
        assert np.allclose(reshuffle(reshuffle(m, 3, 3), 3, 3), m)

    def test_matches_choi_from_kraus(self):
        # independent construction of J = (E (x) I)|Om><Om| from Kraus data
        rng = np.random.default_rng(1)
        d_in, d_out = 3, 2
        q, _ = np.linalg.qr(rand_complex(rng, d_out * 2, d_in))
        ks = [q[i * d_out:(i + 1) * d_out, :] for i in range(2)]
        lv = sum(np.kron(k, k.conj()) for k in ks)
        omega = np.zeros(d_in * d_in, dtype=complex)
        omega[:: d_in + 1] = 1 / np.sqrt(d_in)
        ext = sum(np.kron(k, np.eye(d_in)) @ np.outer(omega, omega.conj()) @ np.kron(k, np.eye(d_in)).conj().T
                  for k in ks)
        assert np.allclose(reshuffle(lv, d_out, d_in) / d_in, ext, atol=1e-12)

    def test_shape_check(self):
        with pytest.raises(ValueError):
            reshuffle(np.eye(5), 2, 2)


class TestPartialTrace:
    def test_maximally_entangled(self):
        omega = np.zeros(4)
        omega[[0, 3]] = 1 / np.sqrt(2)
        proj = np.outer(omega, omega)
        assert np.allclose(partial_trace(proj, 2, 2), np.eye(2) / 2)

    def test_product(self):
        rng = np.random.default_rng(2)
        a = rand_complex(rng, 2, 2)
        b = rand_complex(rng, 3, 3)
        m = np.kron(a, b)
        assert np.allclose(partial_trace(m, 2, 3), b * np.trace(a))

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_trace_preserved(self, seed):
        rng = np.random.default_rng(seed)
        m = rand_complex(rng, 6, 6)
        assert np.isclose(np.trace(partial_trace(m, 2, 3)), np.trace(m))

    def test_shape_check(self):
        with pytest.raises(ValueError, match=r"expected shape \(6, 6\), got \(4, 4\)"):
            partial_trace(np.eye(4), 2, 3)

    def test_marginal_of_extremal_channel_state(self):
        from noetherlab.su2cov import extremal_channel
        from noetherlab.su2rep import SpinJ

        j = extremal_channel(SpinJ(1), SpinJ(1), 2).jamiolkowski
        assert np.allclose(partial_trace(j, 2, 2), np.eye(2) / 2, atol=1e-12)


class TestPurityFidelity:
    def test_pure_state_purity(self):
        v = haar_pure_batch(4, 1, 3)[0]
        assert np.isclose(purity(np.outer(v, v.conj())), 1.0)

    def test_maximally_mixed(self):
        assert np.isclose(purity(np.eye(5) / 5), 1 / 5)

    def test_diagonal(self):
        assert np.isclose(purity(np.diag([0.75, 0.25])), 0.625)


class TestHaar:
    def test_first_moment(self):
        n, d = 100_000, 3
        psi = haar_pure_batch(d, n, 7)
        mean = np.einsum("ni,nj->ij", psi, psi.conj()) / n
        # elementwise comparison at 3 standard errors of a bounded variable
        assert np.max(np.abs(mean - np.eye(d) / d)) < 3.0 / np.sqrt(n)

    def test_second_moment(self):
        n, d = 100_000, 2
        psi = haar_pure_batch(d, n, 8)
        # E[(psi psi^dag) (x) (psi psi^dag)] entrywise
        second = np.einsum("ni,nj,nk,nl->ikjl", psi, psi.conj(), psi, psi.conj()) / n
        second = second.reshape(d * d, d * d)
        swap = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                swap[i * 2 + j, j * 2 + i] = 1
        exact = (np.eye(4) + swap) / (d * (d + 1))
        assert np.max(np.abs(second - exact)) < 3.0 / np.sqrt(n)

    # one block of haar_pure_batch's in-place normalisation is 2,048 rows
    @pytest.mark.parametrize("n", [1, 2047, 2048, 2049, 20_000])
    @pytest.mark.parametrize("d", [2, 10, 21])
    def test_bit_identical_to_one_division_of_the_draws(self, n, d):
        rng = np.random.default_rng(n * 100 + d)
        a, b = rng.standard_normal((n, d)), rng.standard_normal((n, d))
        v = a + 1j * b
        expected = v / np.linalg.norm(v, axis=1, keepdims=True)
        assert ginibre(n, d, n * 100 + d).tobytes() == v.tobytes()
        got = haar_pure_batch(d, n, n * 100 + d)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()

    def test_seed_determinism(self):
        assert np.array_equal(haar_pure_batch(5, 1, 123)[0], haar_pure_batch(5, 1, 123)[0])

    def test_unit_norm(self):
        assert np.isclose(np.linalg.norm(haar_pure_batch(7, 1, 321)[0]), 1.0, atol=1e-12)

    def test_haar_unitary_is_unitary(self):
        # a square Haar isometry is unitary: its rows are orthonormal as well as its columns
        u = haar_isometry(4, 4, 11)
        assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-12)
        assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-12)

    def test_haar_isometry_is_isometry(self):
        v = haar_isometry(6, 3, 12)
        assert v.shape == (6, 3)
        assert np.allclose(v.conj().T @ v, np.eye(3), atol=1e-12)


class TestMatExp:
    def test_zero_angle(self):
        h = np.diag([1.0, -1.0]).astype(complex)
        assert np.allclose(mat_exp_skew_hermitian(h, 0.0), np.eye(2))

    def test_full_turn_spin_parity(self):
        # a 2 pi rotation is the identity for integer spin, minus it for half-integer
        from noetherlab.su2rep import SpinJ, spin_operators

        for two_j, sign in ((2, 1.0), (1, -1.0), (3, -1.0), (4, 1.0)):
            jz = spin_operators(SpinJ(two_j))[2]
            u = mat_exp_skew_hermitian(jz, 2 * np.pi)
            assert np.allclose(u, sign * np.eye(two_j + 1), atol=1e-12)

    def test_unitarity(self):
        rng = np.random.default_rng(9)
        g = rand_complex(rng, 4, 4)
        h = (g + g.conj().T) / 2
        u = mat_exp_skew_hermitian(h, 0.37)
        assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            mat_exp_skew_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


class TestValidation:
    def test_tolerances_range(self):
        with pytest.raises(ValueError):
            Tolerances(tol_psd=1e-2)

    def test_tolerance_fields(self):
        assert list(vars(Tolerances())) == ["tol_herm", "tol_psd", "tol_eq", "tol_sum"]
