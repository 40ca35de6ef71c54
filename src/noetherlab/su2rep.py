"""SU(2) representation data.

Spin labels are stored as twice-the-spin integers so that all selection
rules are integer arithmetic.  The tensor operators are built in floating
point, one tridiagonal Casimir eigenproblem per magnetic label.  Exact
Clebsch-Gordan coefficients (big-integer factorials, Condon-Shortley phases)
are kept only as their oracle, for the tests and perfbench's tracer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial

import numpy as np

from .numkit import dagger

__all__ = [
    "SpinJ",
    "SignedSqrtRational",
    "clebsch_gordan",
    "cg",
    "spin_operators",
    "coupled_labels",
    "check_ladder",
    "ItoBasis",
    "ito_basis",
]


@dataclass(frozen=True, order=True)
class SpinJ:
    """A spin label j = two_j / 2 with Hilbert-space dimension two_j + 1."""

    two_j: int

    def __post_init__(self):
        if self.two_j < 0:
            raise ValueError("two_j must be nonnegative")

    @property
    def j(self) -> float:
        return self.two_j / 2

    @property
    def dim(self) -> int:
        return self.two_j + 1

    def m_values(self) -> list[int]:
        """Twice the magnetic quantum numbers, descending from +two_j."""
        return list(range(self.two_j, -self.two_j - 2, -2))


@dataclass(frozen=True)
class SignedSqrtRational:
    """An exact value of the form sign * sqrt(radicand), radicand rational >= 0."""

    sign: int
    radicand: Fraction

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0 or +1")
        if self.radicand < 0:
            raise ValueError("radicand must be nonnegative")
        if (self.sign == 0) != (self.radicand == 0):
            raise ValueError("sign == 0 iff radicand == 0")

    def value(self) -> float:
        return self.sign * float(self.radicand) ** 0.5

    def __float__(self) -> float:
        return self.value()


_ZERO = SignedSqrtRational(0, Fraction(0))


def _check_jm(two_j: int, two_m: int, label: str) -> None:
    if two_j < 0:
        raise ValueError(f"{label}: negative two_j")
    if (two_j - two_m) % 2 != 0:
        raise ValueError(f"{label}: j and m differ by a non-integer (two_j={two_j}, two_m={two_m})")
    if abs(two_m) > two_j:
        raise ValueError(f"{label}: |m| > j (two_j={two_j}, two_m={two_m})")


@lru_cache(maxsize=1024)
def clebsch_gordan(
    two_j1: int, two_m1: int, two_j2: int, two_m2: int, two_J: int, two_M: int
) -> SignedSqrtRational:
    """Exact Clebsch-Gordan coefficient <j1 m1; j2 m2 | J M>.

    Arguments are twice the usual half-integer labels.  Returns zero when
    a selection rule (M = m1 + m2, triangle inequality) fails; raises on
    malformed (j, m) pairs.  Condon-Shortley phases.
    """
    _check_jm(two_j1, two_m1, "j1")
    _check_jm(two_j2, two_m2, "j2")
    _check_jm(two_J, two_M, "J")
    if two_M != two_m1 + two_m2:
        return _ZERO
    if two_J < abs(two_j1 - two_j2) or two_J > two_j1 + two_j2:
        return _ZERO
    if (two_j1 + two_j2 - two_J) % 2 != 0:
        return _ZERO

    # the checks above leave every argument even; names follow the Racah formula
    def f(two_x: int) -> int:
        return factorial(two_x // 2)

    pref = Fraction(two_J + 1, 1)
    pref *= Fraction(
        f(two_j1 + two_j2 - two_J) * f(two_j1 - two_j2 + two_J) * f(-two_j1 + two_j2 + two_J),
        f(two_j1 + two_j2 + two_J + 2),
    )
    pref *= Fraction(
        f(two_J + two_M)
        * f(two_J - two_M)
        * f(two_j1 - two_m1)
        * f(two_j1 + two_m1)
        * f(two_j2 - two_m2)
        * f(two_j2 + two_m2),
        1,
    )

    # Summation limits: every factorial argument must stay nonnegative.
    k_min = max(0, two_j2 - two_J - two_m1, two_j1 - two_J + two_m2)
    k_max = min(two_j1 + two_j2 - two_J, two_j1 - two_m1, two_j2 + two_m2)
    total = Fraction(0)
    for two_k in range(k_min, k_max + 2, 2):
        den = (
            f(two_k)
            * f(two_j1 + two_j2 - two_J - two_k)
            * f(two_j1 - two_m1 - two_k)
            * f(two_j2 + two_m2 - two_k)
            * f(two_J - two_j2 + two_m1 + two_k)
            * f(two_J - two_j1 - two_m2 + two_k)
        )
        term = Fraction(1, den)
        total += -term if (two_k // 2) % 2 else term

    if total == 0:
        return _ZERO
    sign = 1 if total > 0 else -1
    return SignedSqrtRational(sign, total * total * pref)


@lru_cache(maxsize=1024)
def cg(two_j1: int, two_m1: int, two_j2: int, two_m2: int, two_J: int, two_M: int) -> float:
    """Floating-point Clebsch-Gordan coefficient (memoized)."""
    return clebsch_gordan(two_j1, two_m1, two_j2, two_m2, two_J, two_M).value()


def _ladder(d: int) -> np.ndarray:
    """<m+1|J_+|m> = sqrt(i (d - i)) for |m> at index i = 0 .. d of the descending m's."""
    i = np.arange(d + 1)
    return np.sqrt(i * (d - i))


@lru_cache(maxsize=32)
def spin_operators(spin: SpinJ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only angular momentum matrices (Jx, Jy, Jz) in the descending-m basis."""
    jz = np.diag([tm / 2 for tm in spin.m_values()]).astype(complex)
    # the raising operator connects |j, m> (index i) to |j, m+1> (index i-1)
    jp = np.diag(_ladder(spin.dim)[1:-1], 1).astype(complex)
    jm = dagger(jp)
    jx = (jp + jm) / 2
    jy = (jp - jm) / (2 * 1j)
    for op in (jx, jy, jz):
        op.setflags(write=False)
    return jx, jy, jz


def coupled_labels(spin_in: SpinJ, spin_out: SpinJ) -> list[int]:
    """two_L labels of the irreps in H_out (x) H_in, ascending: |j_in - j_out| .. j_in + j_out."""
    return list(range(abs(spin_out.two_j - spin_in.two_j), spin_out.two_j + spin_in.two_j + 2, 2))


def check_ladder(spin_in: SpinJ, spin_out: SpinJ, two_l: int) -> None:
    """Raise unless two_l labels an irrep of H_out (x) H_in (:func:`coupled_labels`)."""
    if two_l not in coupled_labels(spin_in, spin_out):
        raise ValueError(f"two_l={two_l} outside the admissible ladder")


@dataclass(frozen=True)
class ItoBasis:
    """Orthonormal irreducible tensor operators between two spin spaces.

    ``labels`` are the irreps two_L (:func:`coupled_labels`).  T_{L,M} lives
    on the entries (r, c) with m_r - m_c = M, so ``blocks`` holds one
    ``(two_m, index, v)`` per M, descending: ``index`` lists the flat entries
    ``r * d_in + c`` and the real orthogonal ``v`` has T_{L,M} as columns for
    L in ``labels[-v.shape[1]:]``.  For equal spins the operators are the
    polarization operators: ``T^0_0 = I / sqrt(d)`` and ``T^1_0`` is
    proportional to Jz.
    """

    spin_in: SpinJ
    spin_out: SpinJ
    labels: tuple
    blocks: tuple = field(repr=False)

    def family(self, two_l: int) -> np.ndarray:
        """Read-only dense ``(2L+1, d_out, d_in)`` copy of T_{L,M}, M descending."""
        check_ladder(self.spin_in, self.spin_out, two_l)
        out = np.zeros((two_l + 1, self.spin_out.dim * self.spin_in.dim), dtype=complex)
        for two_m, index, v in self.blocks:
            if abs(two_m) <= two_l:
                out[(two_l - two_m) // 2, index] = v[:, (two_l - self.labels[-v.shape[1]]) // 2]
        out.setflags(write=False)
        return out.reshape(two_l + 1, self.spin_out.dim, -1)


@lru_cache(maxsize=8)  # at least the 7 spin pairs one perfbench `spin` pass cycles through
def _ito_basis_cached(two_j_in: int, two_j_out: int) -> ItoBasis:
    spin_in, spin_out = SpinJ(two_j_in), SpinJ(two_j_out)
    labels = tuple(coupled_labels(spin_in, spin_out))
    blocks, z = [], np.zeros((spin_out.dim + 1, 0))  # z: block M+1 at row r + 1, zero-padded
    up_out, up_in = _ladder(spin_out.dim), _ladder(spin_in.dim)
    for two_m in range(labels[-1], -labels[-1] - 2, -2):
        k = (two_m - two_j_out + two_j_in) // 2  # m_r - m_c = M on the entries (r, r + k)
        rows = np.arange(max(0, -k), min(spin_out.dim, spin_in.dim - k))
        cols = rows + k
        a_out, a_in = up_out[rows], up_in[cols]
        # sum_k [J_k, [J_k, .]] on the diagonal: tridiagonal, eigenvalues L(L+1), L ascending
        diag = (two_j_in * (two_j_in + 2) + two_j_out * (two_j_out + 2)
                - 2 * (two_j_out - 2 * rows) * (two_j_in - 2 * cols)) / 4
        off = -a_out[1:] * a_in[1:]
        v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))[1]
        # T_{L,M} has overlap sqrt((L+M+1)(L-M)) >= 1 with [J_-, T_{L,M+1}]: only a sign travels
        lowered = (a_out[:, None] * z[rows]
                   - up_in[cols + 1][:, None] * z[rows + 1])
        n = min(len(rows), z.shape[1])
        sign = np.sign(np.sum(v[:, len(rows) - n:] * lowered[:, z.shape[1] - n:], axis=0))
        if len(rows) > n:  # T_{M,M} opens the block; its entries share one sign
            top = np.sign(v[:, 0].sum()) * ((-1) ** (two_m // 2) if two_j_in == two_j_out else 1)
            sign = np.append(top, sign)
        v *= sign
        z = np.zeros((spin_out.dim + 1, len(rows)))
        z[rows + 1] = v
        index = rows * spin_in.dim + cols
        for a in (v, index):
            a.setflags(write=False)
        blocks.append((two_m, index, v))
    return ItoBasis(spin_in, spin_out, labels, tuple(blocks))


def ito_basis(spin_in: SpinJ, spin_out: SpinJ | None = None) -> ItoBasis:
    spin_out = spin_in if spin_out is None else spin_out
    return _ito_basis_cached(spin_in.two_j, spin_out.two_j)
