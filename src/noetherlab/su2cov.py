"""Rotation-covariant channels between irreducible spin systems.

The convex set of such channels is a simplex whose vertices are channels
``E^L`` with Jamiolkowski state equal to the normalized projector onto the
spin-L irreducible subspace of ``H_out (x) H_in``.  Everything here is
built from the ITO basis of :mod:`su2rep` (held to exact Clebsch-Gordan
data by the tests).  ``Pi_L`` is the sum of ``|T_{L,M}><T_{L,M}|`` over the
vectorized spin-L tensor operators, so block traces and block sums are
contractions with the basis's one real block per M: no dense projector is
stored, and twirling is exact (no group quadrature).  SU(2) on H_out (x) H_in is
multiplicity-free, so the Pi_L span its commutant: J is covariant iff J = twirl(J).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .chan import QuantumChannel, _off_label_residual
from .numkit import TOL, pair_labels
from .su2rep import ItoBasis, SpinJ, check_ladder, coupled_labels, ito_basis, spin_operators

__all__ = [
    "CovariantMixture",
    "check_weights",
    "coupled_labels",
    "irrep_projector",
    "extremal_channel",
    "extremal_kraus",
    "covariant_channel",
    "decompose",
    "twirl",
    "scaling_coefficient",
    "polarization_factor",
    "kappa_extrema",
    "time_reversal_fidelity",
    "spin_polarization",
    "environment_spin_generators",
]


def _in_simplex(lowest, total):
    """No entry below -tol_psd and a sum within tol_sum of 1 (elementwise on arrays)."""
    return (lowest >= -TOL.tol_psd) & (abs(total - 1.0) <= TOL.tol_sum)


def check_weights(weights, spin_in: SpinJ, spin_out: SpinJ) -> np.ndarray:
    """Validate simplex weights over ``coupled_labels(spin_in, spin_out)``.

    ``weights`` is one probability vector or an ``(..., n)`` stack of them, each
    held to ``_in_simplex`` by its minimum and its sum (a NaN fails the sum).
    Returns the weights as a float array of the same shape.
    """
    n = len(coupled_labels(spin_in, spin_out))
    w = np.asarray(weights, dtype=float)
    if w.shape[-1:] != (n,):
        raise ValueError(f"expected {n} weights, got {w.shape}")
    if not _in_simplex(w.min(axis=-1), w.sum(axis=-1)).all():
        raise ValueError("weights must be a probability distribution")
    return w


@dataclass(frozen=True)
class CovariantMixture:
    """Probability weights over the extremal channels E^L.

    ``weights[i]`` belongs to ``coupled_labels(spin_in, spin_out)[i]``.  The vector is
    held to ``_in_simplex`` in Python floats, whose sum (compensated on Python >= 3.12)
    can differ from numpy's by ulps: the two checks may disagree that close to 1 +- tol_sum.
    """

    spin_in: SpinJ
    spin_out: SpinJ
    weights: tuple

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (len(coupled_labels(self.spin_in, self.spin_out)),):
            check_weights(w, self.spin_in, self.spin_out)  # names a wrong length or bad stack
            raise ValueError(f"expected one weight vector, got shape {w.shape}")
        weights = w.tolist()
        if not _in_simplex(min(weights), sum(weights)):
            raise ValueError("weights must be a probability distribution")
        object.__setattr__(self, "weights", tuple(weights))


def irrep_projector(spin_in: SpinJ, spin_out: SpinJ, two_l: int) -> np.ndarray:
    """Projector onto the spin-L irrep of H_out (x) H_in under U_out (x) U_in^*,
    built from the ITO family on each call (the simplex operations never form it)."""
    rows = ito_basis(spin_in, spin_out).family(two_l).reshape(two_l + 1, -1)
    return rows.T @ rows.conj()


def _twirl_state(channel: QuantumChannel, spin_in: SpinJ, spin_out: SpinJ):
    """The weights p_L = tr(Pi_L J), L ascending, the twirl of J and J, as blocks per M."""
    if (channel.d_in, channel.d_out) != (spin_in.dim, spin_out.dim):
        raise ValueError(f"channel (d_in, d_out) = ({channel.d_in}, {channel.d_out}) does not "
                         f"match the spins' ({spin_in.dim}, {spin_out.dim})")
    basis = ito_basis(spin_in, spin_out)
    j_blocks = channel.jamiolkowski_blocks([index for _, index, _ in basis.blocks])
    p = np.zeros(len(basis.labels))
    for (_, _, v), j in zip(basis.blocks, j_blocks):
        p[-v.shape[1]:] += np.sum(v * (j.real @ v), axis=0)
    return p.tolist(), _block_state(basis, p), j_blocks


def _block_state(basis: ItoBasis, weights) -> list:
    """sum_L p_L Pi_L / (2L+1), J with block weights p_L, as an (index, block) pair per M."""
    scaled = np.asarray(weights) / [two_l + 1 for two_l in basis.labels]
    return [(index, (v * scaled[-v.shape[1]:]) @ v.T) for _, index, v in basis.blocks]


def extremal_kraus(spin_in: SpinJ, spin_out: SpinJ, two_l: int) -> list[np.ndarray]:
    """Canonical Kraus family of E^L: rescaled spin-L tensor operators,
    ordered by descending environment quantum number."""
    family = ito_basis(spin_in, spin_out).family(two_l)
    return list(np.sqrt(spin_in.dim / (two_l + 1)) * family)


def extremal_channel(spin_in: SpinJ, spin_out: SpinJ, two_l: int) -> QuantumChannel:
    """The extremal covariant channel E^L (Kraus rank 2L + 1)."""
    return QuantumChannel(spin_in.dim, spin_out.dim, kraus=extremal_kraus(spin_in, spin_out, two_l))


def covariant_channel(mix: CovariantMixture) -> QuantumChannel:
    """Assemble sum_L p_L E^L from its Jamiolkowski block weights, one block per M."""
    blocks = _block_state(ito_basis(mix.spin_in, mix.spin_out), mix.weights)
    return QuantumChannel(mix.spin_in.dim, mix.spin_out.dim, blocks=blocks)


def decompose(channel: QuantumChannel, spin_in: SpinJ, spin_out: SpinJ) -> CovariantMixture:
    """Recover the simplex weights p_L = tr(Pi_L J(E)) of a covariant channel.

    SU(2) on H_out (x) H_in is multiplicity-free, so J is covariant iff J = twirl(J):
    max |J - twirl(J)| > tol_eq, read per label block M and off J's own blocks between
    labels, rejects it.  Round-off negatives down to -tol_psd are clipped to 0; a weight
    below that is an error, reported with the mass clipping would have discarded.
    """
    weights, state, j_blocks = _twirl_state(channel, spin_in, spin_out)
    off = _off_label_residual(channel.blocks, pair_labels(spin_out.m_values(), spin_in.m_values()))
    res = max([off] + [float(np.max(np.abs(t - j))) for (_, t), j in zip(state, j_blocks)])
    if res > TOL.tol_eq:
        raise ValueError(f"channel is not covariant: twirl residual {res:.2e}")
    if min(weights) < -TOL.tol_psd:
        clipped = -sum(w for w in weights if w < 0)
        raise ValueError(f"simplex weight {min(weights):.2e} below -tol_psd={-TOL.tol_psd:.0e}: "
                         f"clipping would discard mass {clipped:.2e}")
    weights = [max(0.0, w) for w in weights]
    return CovariantMixture(spin_in, spin_out, tuple(weights))


def twirl(channel: QuantumChannel, spin_in: SpinJ, spin_out: SpinJ) -> QuantumChannel:
    """Group-average a channel onto the covariant simplex.

    Implemented exactly as a block projection of the Jamiolkowski state: the
    channel given by the label blocks that the block weights of J assemble.
    Idempotent, and the identity on covariant inputs.
    """
    return QuantumChannel(spin_in.dim, spin_out.dim,
                          blocks=_twirl_state(channel, spin_in, spin_out)[1])


def scaling_coefficient(two_j_in: int, two_j_out: int, two_l_chan: int, two_l: int) -> float:
    """The factor f_l(E^L) = tr(T^in_{l,0}^dag E^L_adj(T^out_{l,0})) by which E^L
    rescales the spin-l tensor sector.

    The M = 0 operators are diagonal: this contracts their diagonals with the
    population transfer sum_k |K_k|^2 of the :func:`extremal_kraus` family.
    """
    spin_in, spin_out = SpinJ(two_j_in), SpinJ(two_j_out)
    family = ito_basis(spin_in, spin_out).family(two_l_chan)
    transfer = spin_in.dim / (two_l_chan + 1) * np.sum(np.abs(family) ** 2, axis=0)
    if two_l > 2 * min(two_j_in, two_j_out) or two_l % 2:
        raise ValueError("tensor sector label must be an integer <= 2 min(j_in, j_out)")
    t_in, t_out = (np.diagonal(ito_basis(s).family(two_l)[two_l // 2])
                   for s in (spin_in, spin_out))
    return float(np.real(t_out @ transfer @ t_in))


def polarization_factor(spin_in: SpinJ, spin_out: SpinJ, two_l: int) -> float:
    """kappa(E^L): the isotropic factor multiplying the spin polarization vector.

    Equals ``f_1(E^L) ||J_out|| / ||J_in||``; the value is the rational
    ``(j_in(j_in+1) + j_out(j_out+1) - L(L+1)) / (2 j_in (j_in+1))``,
    computed exactly and rounded once at the interface.
    """
    if spin_in.two_j == 0 or spin_out.two_j == 0:
        raise ValueError("polarization scaling needs both spins nonzero")
    check_ladder(spin_in, spin_out, two_l)
    ta, tb, tl = spin_in.two_j, spin_out.two_j, two_l
    exact = Fraction(ta * (ta + 2) + tb * (tb + 2) - tl * (tl + 2), 2 * ta * (ta + 2))
    return float(exact)


def kappa_extrema(spin_in: SpinJ, spin_out: SpinJ) -> dict:
    """Smallest and largest polarization factors over the extremal channels and
    their labels: ``kappa_minus``, ``kappa_plus``, ``two_L_minus``, ``two_L_plus``.

    The minimum sits at L = j_in + j_out (the most inverted spin) and the
    maximum at L = |j_in - j_out|; amplification (kappa > 1) occurs only
    for j_out > j_in.
    """
    labels = coupled_labels(spin_in, spin_out)  # ascending, and kappa falls strictly as L grows
    lo, hi = labels[-1], labels[0]
    k_lo, k_hi = (polarization_factor(spin_in, spin_out, two_l) for two_l in (lo, hi))
    return {"kappa_minus": k_lo, "kappa_plus": k_hi, "two_L_minus": lo, "two_L_plus": hi}


def time_reversal_fidelity(spin: SpinJ) -> float:
    """Average fidelity between the optimal spin-inversion channel's output
    and the perfectly inverted spin-coherent state: (1 + 2j) / (1 + 4j)."""
    if spin.two_j < 1:
        raise ValueError("needs two_j >= 1")
    return (1 + spin.two_j) / (1 + 2 * spin.two_j)


def spin_polarization(rho: np.ndarray, spin: SpinJ) -> np.ndarray:
    """Expectation values (in x, y, z order) of the spin operators."""
    return np.array([float(np.real(np.trace(op @ rho))) for op in spin_operators(spin)])


def environment_spin_generators(two_l: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spin generators acting on the environment of the canonical dilation
    of E^L (the conjugate spin-L representation): -conj(J_k)."""
    jx, jy, jz = spin_operators(SpinJ(two_l))
    return (-jx.conj(), -jy.conj(), -jz.conj())
