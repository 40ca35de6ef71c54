"""Time-translation covariant channels on a fixed non-degenerate spectrum.

Energies live on an integer grid, so Bohr frequencies are exact integers.  A
channel is given by Kraus operators that each carry one Bohr frequency E_m - E_n
(the label of level pair (m, n)), so its Jamiolkowski state vanishes between
pairs with different frequencies; the diagonal of the state is the
population-transfer stochastic matrix.

Input and output systems share the same dimension and spectrum.  The
rank-1-block construction below yields extremal channels but is known not
to exhaust the extreme points (some have genuinely mixed blocks); no such
claim is made here.
"""

from __future__ import annotations

import numbers
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .chan import QuantumChannel
from .numkit import TOL, pair_labels

__all__ = [
    "EnergySpectrum",
    "U1BlockChannel",
    "U1Stats",
    "assert_stochastic",
    "build_extremal",
    "u1_structure_stats",
    "optimal_unitarity_for_population",
    "u1_deviation",
]


def _real(x) -> bool:
    """A number, not a bool, below 2**53 in magnitude (so floats hold its integers exactly)."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and abs(x) < 2**53


@dataclass(frozen=True)
class EnergySpectrum:
    """Two or more strictly increasing integer levels of a non-degenerate Hamiltonian; its
    Bohr labels, frequencies and degeneracy are computed once, at construction."""

    levels: tuple

    def __post_init__(self):
        # no level is silently changed, as int(1.5), int("0") or int(True) would
        lv = tuple(self.levels)
        bad = [x for x in lv if not (_real(x) and float(x).is_integer())]
        if bad:
            raise ValueError(f"energy level {bad[0]!r} is not an integer of magnitude < 2**53")
        lv = tuple(int(x) for x in lv)
        if len(lv) < 2 or any(b <= a for a, b in zip(lv, lv[1:])):
            raise ValueError("levels must be two or more strictly increasing integers")
        labels = pair_labels(lv, lv)
        labels.flags.writeable = False
        tally = Counter(labels.tolist())
        # plain attributes, not fields: equality and hash read the levels only
        self.__dict__.update(levels=lv, _labels=labels, _frequencies=sorted(tally),
                             _degeneracy=max(n for b, n in tally.items() if b != 0))

    @property
    def d(self) -> int:
        return len(self.levels)

    @property
    def width(self) -> int:
        return self.levels[-1] - self.levels[0]

    def bohr_labels(self) -> np.ndarray:
        """E_m - E_n for each Jamiolkowski index m * d + n, read-only."""
        return self._labels

    def bohr_frequencies(self) -> list[int]:
        """The distinct Bohr frequencies, ascending, as a new list."""
        return list(self._frequencies)

    def degeneracy(self) -> int:
        """g: the largest number of level pairs sharing one nonzero Bohr frequency."""
        return self._degeneracy


def assert_stochastic(p: np.ndarray) -> None:
    """Check a column-stochastic matrix, or every matrix of a ``(..., d, d)`` stack."""
    p = np.asarray(p)
    if p.ndim < 2 or p.shape[-1] != p.shape[-2]:
        raise ValueError("population matrix must be square")
    if not np.isfinite(p).all():
        raise ValueError("population matrix has non-finite entries")
    if (p < -TOL.tol_eq).any():
        raise ValueError("population matrix has negative entries")
    if (p > 1.0 + TOL.tol_eq).any():  # also keeps the column sums below overflow
        raise ValueError("population matrix has entries above 1")
    if (abs(p.sum(axis=-2) - 1.0) > TOL.tol_eq).any():
        raise ValueError("population matrix columns must sum to 1")


def _population(spectrum: EnergySpectrum, pop) -> np.ndarray:
    """``pop`` (one matrix or a stack) as floats, checked stochastic and sized to ``spectrum``."""
    pop = np.asarray(pop, dtype=float)
    assert_stochastic(pop)
    if pop.shape[-1] != spectrum.d:
        raise ValueError(f"population matrix is {pop.shape[-1]}x{pop.shape[-1]}, "
                         f"but the spectrum has {spectrum.d} levels")
    return pop


class U1BlockChannel(QuantumChannel):
    """A time-translation covariant channel on ``spectrum``, validated on construction: the
    nonzero entries K[m, n] of each Kraus operator share one Bohr frequency E_m - E_n."""

    def __init__(self, spectrum: EnergySpectrum, kraus):
        super().__init__(spectrum.d, spectrum.d, kraus=kraus, labels=spectrum.bohr_labels())
        self.spectrum = spectrum

    def population_matrix(self) -> np.ndarray:
        """P[m, n]: probability of the n-th energy eigenstate mapping to the m-th."""
        diag = np.empty(self.d_in**2)  # d_in = d_out = spectrum.d
        for index, block in self.blocks:
            diag[index] = np.real(np.diagonal(block))
        return self.d_in * diag.reshape(self.d_in, self.d_in)


def build_extremal(spectrum: EnergySpectrum, gamma: np.ndarray,
                   phases=None) -> U1BlockChannel:
    """Coherify a stochastic matrix into a covariant channel with one Kraus operator
    per Bohr frequency b that some gamma[m, n] > 0 carries: K_b[m, n] =
    e^{i phi} sqrt(gamma[m, n]) where E_m - E_n = b, and 0 elsewhere, ascending in b.
    A frequency with no weight gives no operator.  Each J block is rank 1.

    ``phases`` is a list (or tuple) of (bohr, output_index, radians) triples,
    the form a JSON spec gives.  Missing phases are 0; a phase for a pair
    absent from the block basis is an error.
    """
    # as objects, so that True, "0.5" or None are not read as numbers
    bad = [x for x in np.asarray(gamma, dtype=object).ravel() if not _real(x)]
    if bad:
        raise ValueError(f"population matrix entry {bad[0]!r} is not a real number below 2**53")
    gamma = _population(spectrum, gamma)
    if gamma.ndim != 2:
        raise ValueError(f"expected one population matrix, got shape {gamma.shape}")
    if not isinstance(phases, (list, tuple, type(None))):
        raise ValueError(f"phases {phases!r} are not [bohr, output_index, radians] triples")
    phase_map = {}
    for entry in phases or ():
        if not isinstance(entry, (list, tuple)) or len(entry) != 3 or not all(map(_real, entry)):
            raise ValueError(f"phase {entry!r} is not a [bohr, output_index, radians] triple")
        phase_map[tuple(entry[:2])] = float(entry[2])
    d = spectrum.d
    labels = spectrum.bohr_labels()
    # round-off negatives, down to -tol_eq as assert_stochastic allows, are clipped to 0
    amp = np.sqrt(np.maximum(gamma.ravel(), 0.0)).astype(complex)
    if phase_map:  # else every phase is 0, and e^{i 0} sqrt(gamma) is sqrt(gamma) bit for bit
        pair_index = {(bohr, k // d): k for k, bohr in enumerate(labels.tolist())}
        unmatched = [pair for pair in phase_map if pair not in pair_index]
        if unmatched:
            raise ValueError(f"phases name no level pair (bohr, output_index): {unmatched}")
        phi = np.zeros(d * d)
        for pair, value in phase_map.items():
            phi[pair_index[pair]] = value
        amp = np.exp(1j * phi) * amp
    weighted = np.array(sorted(set(labels[amp != 0].tolist())))  # frequencies with weight
    return U1BlockChannel(spectrum, np.where(labels == weighted[:, None], amp, 0).reshape(-1, d, d))


@dataclass(frozen=True)
class U1Stats:
    """Structure data entering the energy-conservation trade-off bound."""

    q: dict
    g: int
    width: int
    b: float


def _transfer_weights(spectrum: EnergySpectrum, pop: np.ndarray) -> tuple[dict, np.ndarray]:
    """Per-frequency transfer weights q_bohr of a population matrix (or of each
    matrix of a stack), and its bistochasticity defect b (= 1 iff bistochastic)."""
    labels = spectrum.bohr_labels()
    flat = pop.reshape(*pop.shape[:-2], -1)
    # Python's sum in ascending index, i.e. ascending output level m
    q = {bohr: sum(flat[..., k] for k in np.flatnonzero(labels == bohr))
         for bohr in spectrum.bohr_frequencies()}
    b = np.sum(pop.sum(axis=-1) ** 2, axis=-1) / spectrum.d
    return q, b


def u1_structure_stats(ch: U1BlockChannel) -> U1Stats:
    """Per-frequency transfer weights q_bohr, the pair degeneracy g, the
    spectral width, and the bistochasticity defect b (= 1 iff bistochastic)."""
    spec = ch.spectrum
    q, b = _transfer_weights(spec, ch.population_matrix())
    return U1Stats(q={k: float(v) for k, v in q.items()}, g=spec.degeneracy(),
                   width=spec.width, b=float(b))


def optimal_unitarity_for_population(spectrum: EnergySpectrum, pop: np.ndarray):
    """Largest unitarity over covariant channels with the given population
    matrix, reached when every block is an unnormalized rank-1 projector.

    A ``(..., d, d)`` stack gives an array of shape ``(...)``; one matrix, a float.
    """
    pop = _population(spectrum, pop)
    q, b = _transfer_weights(spectrum, pop)
    d = spectrum.d
    u = (sum(v * v for v in q.values()) - b) / (d * d - 1)
    return float(u) if pop.ndim == 2 else u


def u1_deviation(spectrum: EnergySpectrum, pop: np.ndarray):
    """Average total deviation from energy conservation, from the population
    matrix alone: (tr dH)^2 + tr(dH^2) over d (d + 1).

    A ``(..., d, d)`` stack gives an array of shape ``(...)``; one matrix, a float.
    """
    return _u1_deviation(spectrum, _population(spectrum, pop))


def _u1_deviation(spectrum: EnergySpectrum, pop: np.ndarray):
    """:func:`u1_deviation` of a population matrix (or stack) known to be stochastic."""
    e = np.asarray(spectrum.levels, dtype=float)
    d = spectrum.d
    # diagonal of dH: sum_m P[m, n] (E_m - E_n) per input level n
    drift = np.swapaxes(pop, -1, -2) @ e - e
    total = drift.sum(axis=-1)
    # total * total, not total ** 2, so one matrix and a stack round alike
    dev = (total * total + np.sum(drift**2, axis=-1)) / (d * (d + 1))
    return float(dev) if pop.ndim == 2 else dev
