"""Rotation-covariant channels between irreducible spin systems.

The convex set of such channels is a simplex whose vertices are channels
``E^L`` with Jamiolkowski state equal to the normalized projector onto the
spin-L irreducible subspace of ``H_out (x) H_in``.  Everything here is
built from exact Clebsch-Gordan data.  ``Pi_L`` is the sum of
``|T_{L,M}><T_{L,M}|`` over the vectorized spin-L tensor operators, so block
traces and block sums are contractions with the ITO basis: no dense
projector is stored, and twirling is exact (no group quadrature).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .chan import QuantumChannel, assert_covariant
from .numkit import TOL
from .su2rep import ItoBasis, SpinJ, cg, check_ladder, coupled_labels, ito_basis, spin_operators

__all__ = [
    "CovariantMixture",
    "check_weights",
    "KappaReport",
    "coupled_labels",
    "irrep_projector",
    "extremal_channel",
    "extremal_kraus",
    "covariant_channel",
    "decompose",
    "twirl",
    "scaling_coefficient",
    "scaling_vector",
    "f1_explicit",
    "polarization_factor",
    "kappa_extrema",
    "time_reversal_fidelity",
    "spin_polarization",
    "environment_spin_generators",
]


def check_weights(weights, spin_in: SpinJ, spin_out: SpinJ) -> np.ndarray:
    """Validate simplex weights over ``coupled_labels(spin_in, spin_out)``.

    ``weights`` is one probability vector or an ``(..., n)`` stack of them;
    every entry must be >= -tol_eq and every vector must sum to 1 within tol_sum.
    Returns the weights as a float array of the same shape.
    """
    n = len(coupled_labels(spin_in, spin_out))
    w = np.asarray(weights, dtype=float)
    if w.shape[-1:] != (n,):
        raise ValueError(f"expected {n} weights, got {w.shape}")
    if not ((w >= -TOL.tol_eq).all() and (abs(w.sum(axis=-1) - 1.0) <= TOL.tol_sum).all()):
        raise ValueError("weights must be a probability distribution")
    return w


@dataclass(frozen=True)
class CovariantMixture:
    """Probability weights over the extremal channels E^L.

    ``weights[i]`` belongs to ``coupled_labels(spin_in, spin_out)[i]``.
    """

    spin_in: SpinJ
    spin_out: SpinJ
    weights: tuple

    def __post_init__(self):
        w = check_weights(self.weights, self.spin_in, self.spin_out)
        if w.ndim != 1:
            raise ValueError(f"expected one weight vector, got shape {w.shape}")
        object.__setattr__(self, "weights", tuple(float(x) for x in w))

    @property
    def labels(self) -> list[int]:
        return coupled_labels(self.spin_in, self.spin_out)

    def items(self):
        return list(zip(self.labels, self.weights))

    @classmethod
    def pure(cls, spin_in: SpinJ, spin_out: SpinJ, two_l: int) -> "CovariantMixture":
        labels = coupled_labels(spin_in, spin_out)
        return cls(spin_in, spin_out, tuple(1.0 if l == two_l else 0.0 for l in labels))


@dataclass(frozen=True)
class KappaReport:
    """Extremal spin-polarization scaling factors and the channels reaching them."""

    kappa_minus: float
    kappa_plus: float
    two_l_minus: int
    two_l_plus: int

    def as_dict(self) -> dict:
        return {
            "kappa_minus": self.kappa_minus,
            "kappa_plus": self.kappa_plus,
            "two_L_minus": self.two_l_minus,
            "two_L_plus": self.two_l_plus,
        }


def irrep_projector(spin_in: SpinJ, spin_out: SpinJ, two_l: int) -> np.ndarray:
    """Projector onto the spin-L irrep of H_out (x) H_in under U_out (x) U_in^*,
    built on each call (the simplex operations below never form it)."""
    rows = ito_basis(spin_in, spin_out).family(two_l).reshape(two_l + 1, -1)
    return rows.T @ rows.conj()


def _block_weights(basis: ItoBasis, j: np.ndarray) -> np.ndarray:
    """p_L = tr(Pi_L J) = sum_M <T_{L,M}|J|T_{L,M}> per irrep L of ``basis``, ascending."""
    v = basis.vectors
    per_op = np.real(np.sum(v.conj() * (v @ j.T), axis=1))
    sizes = [two_l + 1 for two_l in basis.labels]
    return np.add.reduceat(per_op, np.cumsum([0] + sizes[:-1]))


def _block_state(basis: ItoBasis, weights) -> np.ndarray:
    """sum_L p_L Pi_L / (2L+1): the Jamiolkowski state with block weights p_L."""
    v = basis.vectors
    sizes = [two_l + 1 for two_l in basis.labels]
    return (v.T * np.repeat(np.asarray(weights) / sizes, sizes)) @ v.conj()


def extremal_kraus(spin_in: SpinJ, spin_out: SpinJ, two_l: int) -> list[np.ndarray]:
    """Canonical Kraus family of E^L: rescaled spin-L tensor operators,
    ordered by descending environment quantum number."""
    family = ito_basis(spin_in, spin_out).family(two_l)
    return list(np.sqrt(spin_in.dim / (two_l + 1)) * family)


def extremal_channel(spin_in: SpinJ, spin_out: SpinJ, two_l: int) -> QuantumChannel:
    """The extremal covariant channel E^L (Kraus rank 2L + 1)."""
    return QuantumChannel(spin_in.dim, spin_out.dim,
                          kraus=extremal_kraus(spin_in, spin_out, two_l))


def covariant_channel(mix: CovariantMixture) -> QuantumChannel:
    """Assemble sum_L p_L E^L from its Jamiolkowski block weights."""
    j = _block_state(ito_basis(mix.spin_in, mix.spin_out), mix.weights)
    return QuantumChannel(mix.spin_in.dim, mix.spin_out.dim, jamiolkowski=j)


def decompose(channel: QuantumChannel, spin_in: SpinJ, spin_out: SpinJ) -> CovariantMixture:
    """Recover the simplex weights p_L = tr(Pi_L J(E)) of a covariant channel.

    Round-off negatives down to -tol_psd are clipped to 0; a weight below that
    is an error, reported with the mass clipping would have discarded.
    """
    assert_covariant(channel, spin_operators(spin_in), spin_operators(spin_out))
    weights = _block_weights(ito_basis(spin_in, spin_out), channel.jamiolkowski).tolist()
    if min(weights) < -TOL.tol_psd:
        clipped = -sum(w for w in weights if w < 0)
        raise ValueError(f"simplex weight {min(weights):.2e} below -tol_psd={-TOL.tol_psd:.0e}: "
                         f"clipping would discard mass {clipped:.2e}")
    weights = [max(0.0, w) for w in weights]
    return CovariantMixture(spin_in, spin_out, tuple(weights))


def twirl(channel: QuantumChannel, spin_in: SpinJ, spin_out: SpinJ) -> QuantumChannel:
    """Group-average a channel onto the covariant simplex.

    Implemented exactly as a block projection of the Jamiolkowski state: the
    state assembled from the block weights of J.  Idempotent, and the
    identity on covariant inputs.
    """
    basis = ito_basis(spin_in, spin_out)
    out = _block_state(basis, _block_weights(basis, channel.jamiolkowski))
    return QuantumChannel(spin_in.dim, spin_out.dim, jamiolkowski=out)


@lru_cache(maxsize=1024)
def scaling_coefficient(two_j_in: int, two_j_out: int, two_l_chan: int, two_l: int) -> float:
    """The factor f_l(E^L) by which E^L rescales the spin-l tensor sector.

    Closed Clebsch-Gordan sum; exact up to floating conversion of exact
    square-rooted rationals.
    """
    tja, tjb = two_j_in, two_j_out
    check_ladder(SpinJ(tja), SpinJ(tjb), two_l_chan)
    if two_l > 2 * min(tja, tjb) or two_l % 2:
        raise ValueError("tensor sector label must be an integer <= 2 min(j_in, j_out)")
    ratio = np.sqrt((tjb + 1) / (tja + 1))
    denom = cg(tjb, tjb, two_l, 0, tjb, tjb)
    total = 0.0
    for two_s in range(-two_l_chan, two_l_chan + 2, 2):
        two_m = tjb + two_s
        if abs(two_m) > tja:
            continue
        num = cg(tja, two_m, two_l, 0, tja, two_m)
        weight = cg(tjb, tjb, two_l_chan, two_s, tja, two_m)
        total += (num / denom) * weight * weight
    return float(ratio * total)


def scaling_vector(mix: CovariantMixture) -> np.ndarray:
    """f_l of the mixture for l = 0 .. 2 min(j_in, j_out).

    Trace preservation pins f_0 to sqrt(d_in / d_out) (1 for equal spins)
    independently of the weights.
    """
    two_ls = range(0, 2 * min(mix.spin_in.two_j, mix.spin_out.two_j) + 2, 2)
    return np.array([
        sum(p * scaling_coefficient(mix.spin_in.two_j, mix.spin_out.two_j, two_lc, two_l)
            for two_lc, p in mix.items())
        for two_l in two_ls
    ])


def f1_explicit(spin_in: SpinJ, spin_out: SpinJ, two_l: int) -> float:
    """Closed form for the spin-sector coefficient f_1(E^L)."""
    check_ladder(spin_in, spin_out, two_l)
    ja, jb, l = spin_in.j, spin_out.j, two_l / 2
    pref = np.sqrt(jb * (jb + 1) * (2 * ja + 1) / (ja * (ja + 1) * (2 * jb + 1)))
    return float(pref * (ja * (ja + 1) + jb * (jb + 1) - l * (l + 1)) / (2 * jb * (jb + 1)))


def polarization_factor(spin_in: SpinJ, spin_out: SpinJ, two_l: int) -> float:
    """kappa(E^L): the isotropic factor multiplying the spin polarization vector.

    Equals ``f_1(E^L) ||J_out|| / ||J_in||``; the value is the rational
    ``(j_in(j_in+1) + j_out(j_out+1) - L(L+1)) / (2 j_in (j_in+1))``,
    computed exactly and rounded once at the interface.
    """
    check_ladder(spin_in, spin_out, two_l)
    ta, tb, tl = spin_in.two_j, spin_out.two_j, two_l
    exact = Fraction(ta * (ta + 2) + tb * (tb + 2) - tl * (tl + 2), 2 * ta * (ta + 2))
    return float(exact)


def kappa_extrema(spin_in: SpinJ, spin_out: SpinJ) -> KappaReport:
    """Smallest and largest polarization factors over the extremal channels.

    The minimum sits at L = j_in + j_out (the most inverted spin) and the
    maximum at L = |j_in - j_out|; amplification (kappa > 1) occurs only
    for j_out > j_in.
    """
    if spin_in.two_j == 0 or spin_out.two_j == 0:
        raise ValueError("polarization scaling needs both spins nonzero")
    labels = coupled_labels(spin_in, spin_out)
    kappas = {two_l: polarization_factor(spin_in, spin_out, two_l) for two_l in labels}
    lo = min(kappas, key=kappas.get)
    hi = max(kappas, key=kappas.get)
    return KappaReport(kappa_minus=kappas[lo], kappa_plus=kappas[hi],
                       two_l_minus=lo, two_l_plus=hi)


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
