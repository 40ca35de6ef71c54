"""Plain Monte Carlo estimators of the Haar-integral definitions.

These deliberately know nothing about block structure or closed forms:
they sample Haar-random pure states and average, serving as independent
oracles for everything computed exactly elsewhere.  Sampling is chunked
with per-chunk seeds derived from one 64-bit master seed, and chunks are
reduced in a fixed order, so results are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chan import QuantumChannel
from .metrics import GeneratorSet, delta_generators
from .numkit import haar_pure_batch, vectorize

__all__ = ["McEstimate", "mc_unitarity", "mc_deviation"]

_CHUNK = 20_000


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    samples: int
    seed: int

    def within(self, reference: float, n_sigma: float = 3.0) -> bool:
        return abs(self.mean - reference) <= n_sigma * self.std_error + 1e-12


def _reduce(chunks_fn, samples: int, seed: int) -> McEstimate:
    if samples < 100:
        raise ValueError("need at least 100 samples")
    seq = np.random.SeedSequence(seed)
    sizes = [_CHUNK] * (samples // _CHUNK)
    if samples % _CHUNK:
        sizes.append(samples % _CHUNK)
    total = 0.0
    total_sq = 0.0
    for child, size in zip(seq.spawn(len(sizes)), sizes):
        values = chunks_fn(size, np.random.default_rng(child))
        total += float(np.sum(values))
        total_sq += float(np.sum(values * values))
    mean = total / samples
    var = max(0.0, (total_sq - samples * mean * mean) / (samples - 1))
    return McEstimate(mean=mean, std_error=float(np.sqrt(var / samples)),
                      samples=samples, seed=seed)


def mc_unitarity(channel: QuantumChannel, samples: int, seed: int) -> McEstimate:
    """Estimate the average output purity of E(psi - I/d), rescaled by
    d / (d - 1), by direct Haar sampling."""
    d = channel.d_in
    lv = channel.liouville
    mixed_vec = vectorize(np.eye(d) / d)

    def chunk(size: int, rng: np.random.Generator) -> np.ndarray:
        psi = haar_pure_batch(d, size, rng)
        # rows are vec(psi psi^dag - I/d); the output is Hermitian, so
        # tr(out^2) is just the squared 2-norm of its vectorization
        rows = np.einsum("ni,nj->nij", psi, psi.conj()).reshape(size, d * d) - mixed_vec
        out = rows @ lv.T
        return d / (d - 1) * np.sum(np.abs(out) ** 2, axis=1)

    return _reduce(chunk, samples, seed)


def mc_deviation(channel: QuantumChannel, gens: GeneratorSet, samples: int, seed: int) -> McEstimate:
    """Estimate sum_k E_psi |<psi| dJ_k |psi>|^2 by direct Haar sampling."""
    d = channel.d_in
    deltas = delta_generators(channel, gens)

    def chunk(size: int, rng: np.random.Generator) -> np.ndarray:
        psi = haar_pure_batch(d, size, rng)
        acc = np.zeros(size)
        for dj in deltas:
            ev = np.einsum("ni,ij,nj->n", psi.conj(), dj, psi)
            acc += np.abs(ev) ** 2
        return acc

    return _reduce(chunk, samples, seed)
