"""Time-translation covariant channels on a fixed non-degenerate spectrum.

Energies live on an integer grid, so Bohr frequencies are exact integers
and block membership is exact set arithmetic.  A channel is stored as a
family of Jamiolkowski blocks indexed by Bohr frequency; the diagonal of
the block family is the population-transfer stochastic matrix.

Input and output systems share the same dimension and spectrum.  The
rank-1-block construction below yields extremal channels but is known not
to exhaust the extreme points (some have genuinely mixed blocks); no such
claim is made here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chan import QuantumChannel
from .numkit import TOL, Tolerances

__all__ = [
    "EnergySpectrum",
    "U1BlockChannel",
    "U1Stats",
    "assert_stochastic",
    "build_extremal",
    "build_dephasing",
    "u1_structure_stats",
    "optimal_unitarity_for_population",
    "u1_deviation",
]


@dataclass(frozen=True)
class EnergySpectrum:
    """Strictly increasing integer energy levels of a non-degenerate Hamiltonian."""

    levels: tuple

    def __post_init__(self):
        lv = tuple(int(x) for x in self.levels)
        if len(lv) < 1 or any(b <= a for a, b in zip(lv, lv[1:])):
            raise ValueError("levels must be strictly increasing integers")
        object.__setattr__(self, "levels", lv)

    @property
    def d(self) -> int:
        return len(self.levels)

    @property
    def width(self) -> int:
        return self.levels[-1] - self.levels[0]

    def index_of(self, energy: int) -> int | None:
        try:
            return self.levels.index(energy)
        except ValueError:
            return None

    def bohr_frequencies(self) -> list[int]:
        return sorted({em - en for em in self.levels for en in self.levels})

    def block_members(self, bohr: int) -> list[int]:
        """Output level indices m whose partner energy E_m - bohr is in the
        spectrum; the pair list defining the bohr-block basis."""
        return [m for m, em in enumerate(self.levels) if (em - bohr) in self.levels]

    def degeneracy(self) -> int:
        """g: the largest number of level pairs sharing one nonzero Bohr frequency."""
        return max(len(self.block_members(b)) for b in self.bohr_frequencies() if b != 0)


def assert_stochastic(p: np.ndarray, tol: float = TOL.tol_eq) -> None:
    """Check a column-stochastic matrix, or every matrix of a ``(..., d, d)`` stack."""
    p = np.asarray(p)
    if p.ndim < 2 or p.shape[-1] != p.shape[-2]:
        raise ValueError("population matrix must be square")
    if not np.all(np.isfinite(p)):
        raise ValueError("population matrix has non-finite entries")
    if np.any(p < -tol):
        raise ValueError("population matrix has negative entries")
    if np.any(np.abs(p.sum(axis=-2) - 1.0) > max(tol, 1e-9)):
        raise ValueError("population matrix columns must sum to 1")


def _population(spectrum: EnergySpectrum, pop) -> np.ndarray:
    """``pop`` (one matrix or a stack) as floats, checked stochastic and sized to ``spectrum``."""
    pop = np.asarray(pop, dtype=float)
    assert_stochastic(pop)
    if pop.shape[-1] != spectrum.d:
        raise ValueError(f"population matrix is {pop.shape[-1]}x{pop.shape[-1]}, "
                         f"but the spectrum has {spectrum.d} levels")
    return pop


@dataclass(frozen=True)
class U1BlockChannel:
    """Bohr-frequency block form of a time-translation covariant channel.

    ``blocks[bohr]`` is a PSD matrix over the pair basis
    ``spectrum.block_members(bohr)``; absent keys are zero blocks.
    """

    spectrum: EnergySpectrum
    blocks: dict

    def block(self, bohr: int) -> np.ndarray:
        members = self.spectrum.block_members(bohr)
        if bohr in self.blocks:
            return np.asarray(self.blocks[bohr])
        return np.zeros((len(members), len(members)), dtype=complex)

    def population_matrix(self) -> np.ndarray:
        """P[m, n]: probability of the n-th energy eigenstate mapping to the m-th."""
        d = self.spectrum.d
        p = np.zeros((d, d))
        for bohr in self.spectrum.bohr_frequencies():
            members = self.spectrum.block_members(bohr)
            blk = self.block(bohr)
            for i, m in enumerate(members):
                n = self.spectrum.index_of(self.spectrum.levels[m] - bohr)
                p[m, n] = d * float(np.real(blk[i, i]))
        return p

    def jamiolkowski(self) -> np.ndarray:
        """Assemble the full Jamiolkowski state on H_out (x) H_in."""
        d = self.spectrum.d
        j = np.zeros((d * d, d * d), dtype=complex)
        for bohr, blk in self.blocks.items():
            members = self.spectrum.block_members(bohr)
            idx = [m * d + self.spectrum.index_of(self.spectrum.levels[m] - bohr)
                   for m in members]
            j[np.ix_(idx, idx)] += np.asarray(blk)
        return j

    def to_channel(self, tol: Tolerances = TOL) -> QuantumChannel:
        d = self.spectrum.d
        return QuantumChannel(d, d, jamiolkowski=self.jamiolkowski(), tol=tol)


def build_extremal(spectrum: EnergySpectrum, gamma: np.ndarray,
                   phases=None) -> U1BlockChannel:
    """Coherify a stochastic matrix into a covariant channel whose blocks are
    rank-1 projectors with amplitudes sqrt(gamma) e^{i phi} / sqrt(d).

    ``phases`` maps (bohr, output_index) to a phase in radians; it may be a
    dict or an iterable of (bohr, m, radians) triples.  Missing phases are 0;
    a phase for a pair absent from the block basis is an error.
    """
    gamma = _population(spectrum, gamma)
    if gamma.ndim != 2:
        raise ValueError(f"expected one population matrix, got shape {gamma.shape}")
    if isinstance(phases, dict):
        phases = [(b, m, v) for (b, m), v in phases.items()]
    phase_map = {}
    for entry in () if phases is None else phases:
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise ValueError(f"phase {entry!r} is not a [bohr, output_index, radians] triple")
        phase_map[tuple(entry[:2])] = float(entry[2])

    d = spectrum.d
    blocks = {}
    for bohr in spectrum.bohr_frequencies():
        members = spectrum.block_members(bohr)
        amp = np.zeros(len(members), dtype=complex)
        for i, m in enumerate(members):
            n = spectrum.index_of(spectrum.levels[m] - bohr)
            phi = phase_map.pop((bohr, m), 0.0)
            amp[i] = np.exp(1j * phi) * np.sqrt(gamma[m, n] / d)
        if np.any(np.abs(amp) > 0):
            blocks[bohr] = np.outer(amp, amp.conj())
    if phase_map:
        raise ValueError(f"phases name no level pair (bohr, output_index): {list(phase_map)}")
    return U1BlockChannel(spectrum=spectrum, blocks=blocks)


def build_dephasing(spectrum: EnergySpectrum, p: float) -> U1BlockChannel:
    """Partial dephasing: populations untouched, coherences damped by 1 - p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("dephasing strength must lie in [0, 1]")
    d = spectrum.d
    block0 = ((1.0 - p) * np.ones((d, d)) + p * np.eye(d)) / d
    return U1BlockChannel(spectrum=spectrum, blocks={0: block0.astype(complex)})


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
    q = {}
    for bohr in spectrum.bohr_frequencies():
        members = spectrum.block_members(bohr)
        q[bohr] = sum(
            pop[..., m, spectrum.index_of(spectrum.levels[m] - bohr)] for m in members)
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
    pop = _population(spectrum, pop)
    e = np.asarray(spectrum.levels, dtype=float)
    d = spectrum.d
    # diagonal of dH: sum_m P[m, n] (E_m - E_n) per input level n
    drift = np.swapaxes(pop, -1, -2) @ e - e
    total = drift.sum(axis=-1)
    # total * total, not total ** 2, so one matrix and a stack round alike
    dev = (total * total + np.sum(drift**2, axis=-1)) / (d * (d + 1))
    return float(dev) if pop.ndim == 2 else dev
