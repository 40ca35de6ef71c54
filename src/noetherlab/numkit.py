"""Shared primitives: tolerances, Hermitian checks, label pairs, purity, Haar draws, row map.

Conventions used throughout the package:

* operators are plain complex numpy arrays in the computational basis,
* vectorization stacks rows, i.e. ``|i><j|  ->  |i> (x) |j>``,
* bipartite objects order the tensor factors output-before-input
  (``B (x) A``), so a channel's Jamiolkowski state lives on ``H_B (x) H_A``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerances",
    "TOL",
    "dagger",
    "pair_labels",
    "purity",
    "is_hermitian",
    "haar_pure_batch",
    "haar_isometry",
    "ginibre",
    "parallel_map",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances (all in [0, 1e-3]); every check reads the one instance TOL."""

    tol_herm: float = 1e-9
    tol_psd: float = 1e-9
    tol_eq: float = 1e-9
    tol_sum: float = 1e-6  # sum of a simplex weight vector

    def __post_init__(self):
        for name, value in self.__dict__.items():
            if not 0.0 <= value <= 1e-3:
                raise ValueError(f"{name}={value} outside [0, 1e-3]")


#: Package-wide default tolerances.
TOL = Tolerances()


def dagger(x: np.ndarray) -> np.ndarray:
    return x.conj().T


def pair_labels(out_levels, in_levels) -> np.ndarray:
    """out_levels[r] - in_levels[c] for each index r * len(in_levels) + c of ``H_out (x) H_in``."""
    return np.subtract.outer(np.asarray(out_levels), np.asarray(in_levels)).ravel()


def purity(rho: np.ndarray) -> float:
    """tr(rho^2) of a Hermitian operator."""
    rho = np.asarray(rho)
    return float(np.real(np.einsum("ij,ji->", rho, rho)))


def is_hermitian(x: np.ndarray) -> bool:
    return bool(np.max(np.abs(x - dagger(x))) <= TOL.tol_herm)


_ROWS = 2_048  # haar_pure_batch normalises this many rows at a time: its temporaries stay small


def haar_pure_batch(d: int, n: int, seed) -> np.ndarray:
    """n Haar-random pure states as rows of an (n, d) array, normalised in place."""
    v = ginibre(n, d, seed)
    for s in range(0, n, _ROWS):
        v[s:s + _ROWS] /= np.linalg.norm(v[s:s + _ROWS], axis=1, keepdims=True)
    return v


def ginibre(rows: int, cols: int, seed) -> np.ndarray:
    rng, v = np.random.default_rng(seed), np.empty((rows, cols), dtype=complex)
    v.real = rng.standard_normal((rows, cols))  # all real parts are drawn first
    v.imag = rng.standard_normal((rows, cols))
    return v


def haar_isometry(rows: int, cols: int, seed) -> np.ndarray:
    """Haar-random isometry via QR of a rows x cols Ginibre matrix with phase-fixed R."""
    q, r = np.linalg.qr(ginibre(rows, cols, seed))
    ph = np.diagonal(r).copy()
    ph /= np.abs(ph)
    return q * ph


def parallel_map(fn, items):
    """Map fn over items in input order: the per-row loop of the sweeps."""
    return [fn(x) for x in items]
