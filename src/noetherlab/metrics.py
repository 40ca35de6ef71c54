"""Unitarity and conservation-law deviation functionals.

Unitarity is the Haar-average output purity with the identity component
removed; it equals 1 exactly for isometry channels.  The average total
deviation measures how much the expectation values of the symmetry
generators drift between input and output, averaged over Haar-random pure
inputs.  Both are evaluated here through exact closed forms; the Monte
Carlo definitions live in :mod:`noetherlab.mcoracle` as independent oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chan import QuantumChannel
from .numkit import TOL, is_hermitian, purity
from .su2cov import CovariantMixture, check_weights
from .su2rep import SpinJ, coupled_labels, spin_operators

__all__ = [
    "GeneratorSet",
    "su2_generators",
    "u1_generators",
    "unitarity_dim",
    "unitarity_jamiolkowski",
    "unitarity_complementary",
    "su2_closed_forms",
    "unitarity_su2_closed",
    "purity_condition_holds",
    "delta_generators",
    "deviation_avg",
    "deviation_su2_closed",
]


@dataclass(frozen=True)
class GeneratorSet:
    """Matched input/output symmetry generators (Hermitian, traceless)."""

    j_in: tuple
    j_out: tuple

    def __post_init__(self):
        if len(self.j_in) != len(self.j_out):
            raise ValueError("generator lists must have equal length")
        for ops in (self.j_in, self.j_out):
            for g in ops:
                g = np.asarray(g)
                if not is_hermitian(g) or abs(np.trace(g)) > TOL.tol_eq:
                    raise ValueError("generators must be Hermitian and traceless")

    @property
    def n(self) -> int:
        return len(self.j_in)

    def norm_in_sq(self) -> float:
        """sum_k tr(J_in^k^2), the squared length of the generator vector."""
        return float(sum(np.real(np.trace(g @ g)) for g in self.j_in))


def su2_generators(spin_in: SpinJ, spin_out: SpinJ | None = None) -> GeneratorSet:
    spin_out = spin_in if spin_out is None else spin_out
    return GeneratorSet(j_in=spin_operators(spin_in), j_out=spin_operators(spin_out))


def u1_generators(levels) -> GeneratorSet:
    """Single-generator set for time-translation symmetry: the (traceless
    part of the) Hamiltonian with the given integer spectrum."""
    e = np.asarray(levels, dtype=float)
    h = np.diag(e - e.mean()).astype(complex)
    return GeneratorSet(j_in=(h,), j_out=(h,))


def unitarity_dim(channel: QuantumChannel) -> int:
    """The input dimension d_in, which every unitarity route divides by d_in - 1."""
    if channel.d_in < 2:
        raise ValueError(f"unitarity needs d_in >= 2, got d_in = {channel.d_in}")
    return channel.d_in


def _unitarity(channel: QuantumChannel, gamma: float) -> float:
    """The Haar-average unitarity d/(d^2 - 1) (d gamma - tr E(I/d)^2) of Wallman et al.
    (arXiv:1503.07865), for gamma = tr J^2 = tr E_c(I/d)^2 and E(I/d) = tr_in J."""
    d = unitarity_dim(channel)
    return d / (d * d - 1) * (d * gamma - purity(channel._contract_identity(False)))


def unitarity_jamiolkowski(channel: QuantumChannel) -> float:
    """Unitarity from the purity of the Jamiolkowski state, summed over its blocks."""
    return _unitarity(channel, sum(purity(b) for _, b in channel.blocks))


def unitarity_complementary(channel: QuantumChannel) -> float:
    """Unitarity from the output purities of the channel and its complement.

    The complement's output on I/d is the Kraus Gram matrix
    sum_{o,i} K_e[o, i] conj(K_f[o, i]) / d, so the complementary channel
    itself is never built.
    """
    ks = np.stack(channel.kraus).reshape(channel.kraus_rank, -1)
    return _unitarity(channel, purity(ks @ ks.conj().T / channel.d_in))


def su2_closed_forms(weights, spin_in: SpinJ, spin_out: SpinJ) -> tuple:
    """Closed forms ``(u, Delta)`` of rotation-covariant channels between spin
    systems, for one weight vector or an ``(..., n)`` stack over
    ``coupled_labels(spin_in, spin_out)``:

    * ``u = (d_in^2 sum_L p_L^2/(2L+1) - d_in/d_out) / (d_in^2 - 1)``
    * ``Delta = (beta - sum_L p_L L(L+1))^2 / (8 j_in (j_in+1)^2)`` with
      ``beta = j_out(j_out+1) - j_in(j_in+1)``.

    Every operation is elementwise and the label sums run in ladder order, so
    a stack row gives the same floats as that row on its own.
    """
    if spin_in.two_j == 0:
        raise ValueError("the closed forms need spin_in >= 1/2")
    w = check_weights(weights, spin_in, spin_out)
    d_in, d_out = spin_in.dim, spin_out.dim
    ja, jb = spin_in.j, spin_out.j
    s = load = 0.0
    for i, two_l in enumerate(coupled_labels(spin_in, spin_out)):
        p = w[..., i]
        s = s + p * p / (two_l + 1)
        load = load + p * (two_l / 2) * (two_l / 2 + 1)
    u = (d_in**2 * s - d_in / d_out) / (d_in**2 - 1)
    drift = jb * (jb + 1) - ja * (ja + 1) - load
    # drift * drift, not drift ** 2: numpy squares arrays exactly but sends
    # scalars through pow, which can differ in the last bit.
    delta = drift * drift / (8 * ja * (ja + 1) ** 2)
    return u, delta


def unitarity_su2_closed(mix: CovariantMixture) -> float:
    """Closed form for rotation-covariant channels between spin systems."""
    return float(su2_closed_forms(mix.weights, mix.spin_in, mix.spin_out)[0])


def purity_condition_holds(channel: QuantumChannel) -> bool:
    """Whether tr(E(I/d_in)^2) >= 1/d_in (within 1e-12), the side condition under
    which the general unitarity upper bound extends to d_out > d_in."""
    return purity(channel._contract_identity(False)) >= 1.0 / channel.d_in - 1e-12


def delta_generators(channel: QuantumChannel, gens: GeneratorSet) -> list[np.ndarray]:
    """The drift operators dJ_k = E_adj(J_out^k) - J_in^k."""
    deltas = []
    for g_in, g_out in zip(gens.j_in, gens.j_out):
        g_in = np.asarray(g_in)
        g_out = np.asarray(g_out)
        if g_in.shape != (channel.d_in, channel.d_in):
            raise ValueError("input generator dimension mismatch")
        if g_out.shape != (channel.d_out, channel.d_out):
            raise ValueError("output generator dimension mismatch")
        deltas.append(channel.apply_adjoint(g_out) - g_in)
    return deltas


def deviation_avg(channel: QuantumChannel, gens: GeneratorSet) -> float:
    """Average total deviation Delta from the conservation laws of ``gens``,
    ``(sum_k tr(dJ_k)^2 + sum_k tr(dJ_k^2)) / (d (d+1))`` over the drift
    operators dJ_k of :func:`delta_generators`."""
    d = channel.d_in
    djs = delta_generators(channel, gens)
    trace_terms = [float(np.real(np.trace(dj)) ** 2) for dj in djs]
    square_terms = [float(np.real(np.trace(dj @ dj))) for dj in djs]
    return (sum(trace_terms) + sum(square_terms)) / (d * (d + 1))


def deviation_su2_closed(mix: CovariantMixture) -> float:
    """Closed form of the average total deviation for covariant mixtures."""
    return float(su2_closed_forms(mix.weights, mix.spin_in, mix.spin_out)[1])
