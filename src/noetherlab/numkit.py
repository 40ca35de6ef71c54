"""Dense complex linear algebra primitives shared by all channel modules.

Conventions used throughout the package:

* operators are plain complex numpy arrays in the computational basis,
* ``vectorize`` stacks rows, i.e. ``|i><j|  ->  |i> (x) |j>``,
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
    "vectorize",
    "unvectorize",
    "reshuffle",
    "partial_trace",
    "pair_labels",
    "purity",
    "is_hermitian",
    "as_rng",
    "haar_pure_batch",
    "haar_isometry",
    "ginibre",
    "mat_exp_skew_hermitian",
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


def vectorize(x: np.ndarray) -> np.ndarray:
    """Row-stacking vectorization: ``|i><j| -> |i>(x)|j>``.

    With this convention ``<vectorize(X), vectorize(Y)> = tr(X^dag Y)``.
    """
    return np.asarray(x).reshape(-1)


def unvectorize(v: np.ndarray, rows: int, cols: int | None = None) -> np.ndarray:
    """Inverse of :func:`vectorize`."""
    cols = rows if cols is None else cols
    return np.asarray(v).reshape(rows, cols)


def reshuffle(m: np.ndarray, d_b: int, d_a: int) -> np.ndarray:
    """Index permutation ``|ab><cd| -> |ac><bd|`` on a (d_b^2) x (d_a^2) matrix.

    Maps a superoperator matrix (row pair in B, column pair in A) to the
    corresponding bipartite operator on ``H_B (x) H_A`` and is an involution
    when ``d_a == d_b``.  No normalization is applied.
    """
    m = np.asarray(m)
    if m.shape != (d_b * d_b, d_a * d_a):
        raise ValueError(f"expected shape {(d_b**2, d_a**2)}, got {m.shape}")
    return m.reshape(d_b, d_b, d_a, d_a).transpose(0, 2, 1, 3).reshape(d_b * d_a, d_b * d_a)


def partial_trace(m: np.ndarray, d_b: int, d_a: int) -> np.ndarray:
    """tr_B of an operator on ``H_B (x) H_A``: a d_a x d_a matrix with the same trace."""
    m = np.asarray(m)
    if m.shape != (d_b * d_a, d_b * d_a):
        raise ValueError(f"expected shape {(d_b * d_a, d_b * d_a)}, got {m.shape}")
    return np.einsum("iaib->ab", m.reshape(d_b, d_a, d_b, d_a))


def pair_labels(out_levels, in_levels) -> np.ndarray:
    """out_levels[r] - in_levels[c] for each index r * len(in_levels) + c of ``H_out (x) H_in``."""
    return np.subtract.outer(np.asarray(out_levels), np.asarray(in_levels)).ravel()


def purity(rho: np.ndarray) -> float:
    """tr(rho^2) of a Hermitian operator."""
    rho = np.asarray(rho)
    return float(np.real(np.einsum("ij,ji->", rho, rho)))


def is_hermitian(x: np.ndarray) -> bool:
    return bool(np.max(np.abs(x - dagger(x))) <= TOL.tol_herm)


def as_rng(seed: int | np.random.Generator | np.random.SeedSequence) -> np.random.Generator:
    """Coerce an explicit 64-bit seed (or existing generator) to a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def haar_pure_batch(d: int, n: int, seed) -> np.ndarray:
    """n Haar-random pure states as rows of an (n, d) array."""
    v = ginibre(n, d, seed)
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def ginibre(rows: int, cols: int, seed) -> np.ndarray:
    rng = as_rng(seed)
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def haar_isometry(rows: int, cols: int, seed) -> np.ndarray:
    """Haar-random isometry via QR of a rows x cols Ginibre matrix with phase-fixed R."""
    q, r = np.linalg.qr(ginibre(rows, cols, seed))
    ph = np.diagonal(r).copy()
    ph /= np.abs(ph)
    return q * ph


def mat_exp_skew_hermitian(h: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(i t H) for Hermitian H, computed by eigendecomposition (unitary)."""
    h = np.asarray(h)
    if not is_hermitian(h):
        raise ValueError("generator is not Hermitian within tolerance")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * t * w)) @ dagger(v)


def parallel_map(fn, items):
    """Map fn over items in input order: the per-row loop of the sweeps."""
    return [fn(x) for x in items]
