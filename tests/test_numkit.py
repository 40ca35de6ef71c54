import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noetherlab.chan import ChannelValidationError, QuantumChannel, random_channel
from noetherlab.numkit import Tolerances, ginibre, haar_isometry, haar_pure_batch, purity
from support import mat_exp_skew_hermitian


def rand_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestPartialTrace:
    """tr_out J, which QuantumChannel holds to I/d_in: the output factor of J comes first."""

    def test_maximally_entangled(self):
        omega = np.zeros(4)
        omega[[0, 3]] = 1 / np.sqrt(2)
        assert QuantumChannel(2, 2, jamiolkowski=np.outer(omega, omega)).tp_residual < 1e-15

    def test_product(self):
        # J = rho (x) sigma has tr_out J = sigma: its residual is sigma's, however rho is drawn
        rng = np.random.default_rng(2)
        rho, sigma = (g @ g.conj().T for g in (rand_complex(rng, 2, 2), rand_complex(rng, 3, 3)))
        rho, sigma = rho / np.trace(rho), sigma / np.trace(sigma)
        residual = np.max(np.abs(sigma - np.eye(3) / 3))
        with pytest.raises(ChannelValidationError, match=f"marginal residual {residual:.2e}"):
            QuantumChannel(3, 2, jamiolkowski=np.kron(rho, sigma))
        assert QuantumChannel(3, 2, jamiolkowski=np.kron(rho, np.eye(3) / 3)).tp_residual < 1e-15

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_trace_preserved(self, seed):
        rng = np.random.default_rng(seed)
        d_in, d_out = (int(x) for x in rng.integers(2, 5, size=2))
        assert random_channel(d_in, d_out, 3, seed).tp_residual < 1e-12

    def test_marginal_of_extremal_channel_state(self):
        from noetherlab.su2cov import extremal_channel
        from noetherlab.su2rep import SpinJ

        assert extremal_channel(SpinJ(1), SpinJ(1), 2).tp_residual < 1e-12


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
