"""Fixtures and oracles the tests build from the package's primitives.

The fixtures are channels (identity, unitary, depolarizing, dephasing) and the
simplex vertices as mixtures; ``peak_bytes`` measures a call's traced peak, and
``largest_held_array`` the largest array a channel keeps.
The oracles share no code path with what they check: rotation unitaries and
spin-coherent states by matrix exponential, f_1 = kappa ||J_in|| / ||J_out||
from the rational polarization factor, and a channel's action as products with
its Liouville matrix, the sum of K (x) conj(K) over its Kraus operators.
"""

import gc
import tracemalloc

import numpy as np

from noetherlab.chan import QuantumChannel
from noetherlab.numkit import dagger, is_hermitian
from noetherlab.su2cov import CovariantMixture, polarization_factor, scaling_coefficient
from noetherlab.su2rep import SpinJ, coupled_labels, spin_operators
from noetherlab.u1cov import EnergySpectrum, U1BlockChannel


def identity_channel(d: int) -> QuantumChannel:
    return QuantumChannel(d, d, kraus=[np.eye(d)])


def unitary_channel(u: np.ndarray) -> QuantumChannel:
    u = np.asarray(u, dtype=complex)
    return QuantumChannel(u.shape[1], u.shape[0], kraus=[u])


def depolarizing_channel(d: int) -> QuantumChannel:
    """The channel sending every state to I/d."""
    return QuantumChannel(d, d, jamiolkowski=np.eye(d * d) / (d * d))


def dephasing_channel(spectrum: EnergySpectrum, p: float) -> U1BlockChannel:
    """Partial dephasing: populations untouched, coherences damped by 1 - p.  Its Kraus
    operators sqrt(1 - p) I and sqrt(p) |m><m| all carry Bohr frequency 0."""
    eye = np.eye(spectrum.d)
    return U1BlockChannel(spectrum, [np.sqrt(1.0 - p) * eye]
                          + [np.sqrt(p) * np.diag(row) for row in eye])


def kron_liouville(kraus) -> np.ndarray:
    """The Liouville matrix sum_k K_k (x) conj(K_k) of row-stacked vectors."""
    return sum(np.kron(k, np.conj(k)) for k in kraus)


def liouville_apply(lv: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """E(rho) = unvec(L vec(rho))."""
    d_out = int(round(np.sqrt(lv.shape[0])))
    return (lv @ np.reshape(rho, -1)).reshape(d_out, d_out)


def liouville_apply_adjoint(lv: np.ndarray, y: np.ndarray) -> np.ndarray:
    """E_adj(Y) = unvec(L^dag vec(Y))."""
    d_in = int(round(np.sqrt(lv.shape[1])))
    return (dagger(lv) @ np.reshape(y, -1)).reshape(d_in, d_in)


def pure_mixture(spin_in: SpinJ, spin_out: SpinJ, two_l: int) -> CovariantMixture:
    """The simplex vertex E^L as a mixture."""
    labels = coupled_labels(spin_in, spin_out)
    return CovariantMixture(spin_in, spin_out, tuple(1.0 if l == two_l else 0.0 for l in labels))


def mat_exp_skew_hermitian(h: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(i t H) for Hermitian H, computed by eigendecomposition (unitary)."""
    h = np.asarray(h)
    if not is_hermitian(h):
        raise ValueError("generator is not Hermitian within tolerance")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * t * w)) @ dagger(v)


def rotation_unitary(spin: SpinJ, g: np.ndarray) -> np.ndarray:
    """exp(i (g_x Jx + g_y Jy + g_z Jz)) for a rotation vector g."""
    jx, jy, jz = spin_operators(spin)
    return mat_exp_skew_hermitian(g[0] * jx + g[1] * jy + g[2] * jz)


def random_rotation_vector(seed) -> np.ndarray:
    """Haar-random SU(2) element in axis-angle form (uniform quaternion)."""
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    angle = 2.0 * np.arctan2(np.linalg.norm(q[1:]), q[0])
    norm = np.linalg.norm(q[1:])
    axis = q[1:] / norm if norm > 1e-12 else np.array([0.0, 0.0, 1.0])
    return angle * axis


def coherent_state(spin: SpinJ, theta: float, phi: float) -> np.ndarray:
    """Spin-coherent state: |j, j> rotated so that <J . n> = j along
    n = (sin t cos p, sin t sin p, cos t).  theta = 0 returns |j, j> exactly."""
    jx, jy, _ = spin_operators(spin)
    h = -np.sin(phi) * jx + np.cos(phi) * jy
    u = mat_exp_skew_hermitian(h, -theta)
    return u[:, 0].copy()


def spin_norm(spin: SpinJ) -> float:
    """sqrt(j (j+1) (2j+1)), the Hilbert-Schmidt length of the spin vector."""
    j = spin.j
    return float(np.sqrt(j * (j + 1) * (2 * j + 1)))


def f1_explicit(spin_in: SpinJ, spin_out: SpinJ, two_l: int) -> float:
    """Closed form for f_1(E^L): kappa(E^L) rescaled by ||J_in|| / ||J_out||."""
    return polarization_factor(spin_in, spin_out, two_l) * spin_norm(spin_in) / spin_norm(spin_out)


def scaling_vector(mix: CovariantMixture) -> np.ndarray:
    """f_l of the mixture for l = 0 .. 2 min(j_in, j_out).

    Trace preservation pins f_0 to sqrt(d_in / d_out) (1 for equal spins)
    independently of the weights.
    """
    two_ls = range(0, 2 * min(mix.spin_in.two_j, mix.spin_out.two_j) + 2, 2)
    labels = coupled_labels(mix.spin_in, mix.spin_out)
    return np.array([
        sum(p * scaling_coefficient(mix.spin_in.two_j, mix.spin_out.two_j, two_lc, two_l)
            for two_lc, p in zip(labels, mix.weights))
        for two_l in two_ls
    ])


def largest_held_array(channel: QuantumChannel) -> int:
    """The entries of the largest array the channel's attributes hold, in lists and tuples too."""
    def arrays(x):
        if isinstance(x, np.ndarray):
            yield x
        elif isinstance(x, (list, tuple)):
            for y in x:
                yield from arrays(y)

    return max(a.size for a in arrays(list(vars(channel).values())))


def peak_bytes(fn) -> int:
    """The peak bytes allocated during one call ``fn()``, as tracemalloc (started for it) sees."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
