"""Plain Monte Carlo estimators of the Haar-integral definitions.

These deliberately know nothing about block structure or closed forms:
they sample Haar-random pure states and average, serving as independent
oracles for everything computed exactly elsewhere, for any channel.

Sampling contract: the samples are split into chunks of 20,000, each chunk
draws its states from its own seed, spawned from one 64-bit master seed,
and chunks are reduced in a fixed order, so results are reproducible bit for
bit.  Each chunk is evaluated in row blocks of ``_BLOCK`` states; blocks only
regroup the arithmetic (temporaries stay at a few MB), never the draws.

Unitarity is evaluated in the real transfer matrix
``R = Re(B_out^dag L B_in)``, where the columns of ``B`` are the
vectorizations of an orthonormal Hermitian operator basis.  Hermitian
operators have real coordinates in it and Hilbert-Schmidt norms do not
depend on the basis, so ``||R c(X)||^2 = ||L vec(X)||^2`` at a quarter of
the complex flops.  Both oracles draw about a million samples/s on the
benchmark's spin cross-check (d = 5 to 10, 2 cores).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chan import QuantumChannel
from .metrics import GeneratorSet, delta_generators, unitarity_dim
from .numkit import haar_pure_batch

__all__ = ["McEstimate", "mc_unitarity", "mc_deviation"]

_CHUNK = 20_000
_BLOCK = 2_048


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    samples: int
    seed: int

    def within(self, reference: float, n_sigma: float = 3.0) -> bool:
        return abs(self.mean - reference) <= n_sigma * self.std_error + 1e-12


def _reduce(block_fn, d: int, samples: int, seed: int) -> McEstimate:
    """Average ``block_fn`` over Haar-random pure states of dimension d."""
    if samples < 100:
        raise ValueError("need at least 100 samples")
    seq = np.random.SeedSequence(seed)
    sizes = [_CHUNK] * (samples // _CHUNK)
    if samples % _CHUNK:
        sizes.append(samples % _CHUNK)
    total = 0.0
    total_sq = 0.0
    for child, size in zip(seq.spawn(len(sizes)), sizes):
        psi = haar_pure_batch(d, size, np.random.default_rng(child))
        values = np.concatenate([block_fn(psi[s:s + _BLOCK]) for s in range(0, size, _BLOCK)])
        del psi  # one chunk's states are live at a time
        total += float(np.sum(values))
        total_sq += float(np.sum(values * values))
    mean = total / samples
    var = max(0.0, (total_sq - samples * mean * mean) / (samples - 1))
    return McEstimate(mean=mean, std_error=float(np.sqrt(var / samples)),
                      samples=samples, seed=seed)


def _hermitian_basis(d: int) -> np.ndarray:
    """(d^2, d^2) matrix whose column ab is vec(H_ab), H_ab = ((1-i) E_ab + (1+i) E_ba) / 2.

    The H_ab are Hermitian and orthonormal (H_aa = E_aa), and a Hermitian X
    has the real coordinates tr(H_ab X) = Re X_ab - Im X_ab in them.
    """
    swap = np.eye(d * d).reshape(d, d, d, d).transpose(0, 1, 3, 2).reshape(d * d, d * d)
    return ((1 - 1j) * np.eye(d * d) + (1 + 1j) * swap) / 2


def mc_unitarity(channel: QuantumChannel, samples: int, seed: int) -> McEstimate:
    """Estimate the average output purity of E(psi - I/d), rescaled by
    d / (d - 1), by direct Haar sampling."""
    d = unitarity_dim(channel)
    # real transfer matrix: output coordinates from input coordinates
    r = np.real(_hermitian_basis(channel.d_out).conj().T @ channel.liouville @ _hermitian_basis(d))

    def block(psi: np.ndarray) -> np.ndarray:
        # coordinates of X = psi psi^dag - I/d: with psi = x + iy,
        # Re X - Im X = x x^T + y y^T + x y^T - y x^T - I/d
        x, y = psi.real, psi.imag
        coords = (np.stack([x, y], axis=2) @ np.stack([x + y, y - x], axis=1)).reshape(len(psi), -1)
        coords[:, ::d + 1] -= 1 / d
        # the output is Hermitian, so tr(out^2) is the squared 2-norm of its coordinates
        out = coords @ r.T
        return d / (d - 1) * np.einsum("ij,ij->i", out, out)

    return _reduce(block, d, samples, seed)


def mc_deviation(channel: QuantumChannel, gens: GeneratorSet, samples: int, seed: int) -> McEstimate:
    """Estimate sum_k E_psi |<psi| dJ_k |psi>|^2 by direct Haar sampling."""
    d = channel.d_in
    deltas = delta_generators(channel, gens)
    # column block k of psi @ stacked is (dJ_k psi)^T, one product for all k
    stacked = np.asarray(deltas, dtype=complex).reshape(-1, d, d).transpose(2, 0, 1).reshape(d, -1)

    def block(psi: np.ndarray) -> np.ndarray:
        ev = np.einsum("nkj,nj->nk", (psi @ stacked).reshape(len(psi), len(deltas), d), psi.conj())
        return np.einsum("nk,nk->n", ev.real, ev.real) + np.einsum("nk,nk->n", ev.imag, ev.imag)

    return _reduce(block, d, samples, seed)
