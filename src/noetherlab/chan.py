"""Quantum channels in four interconvertible representations.

A channel is validated once (complete positivity and trace preservation,
checked on its Jamiolkowski state J, stored on construction) and is immutable
afterwards: it copies the given form, and each form it stores is read-only.  Every
form is derived from the given one, never from another derived form, so no number
depends on the order the forms are read; ``apply`` and ``apply_adjoint`` are one
Liouville product each.

The Jamiolkowski state is normalized to unit trace, ``J = (E (x) I)|Om><Om|``
with ``|Om> = sum_i |ii> / sqrt(d_in)``, living on ``H_out (x) H_in``.  Optional
``labels`` give each index r * d_in + c of J an integer (a Bohr frequency, or
m_out - m_in): J must vanish between different labels, and its positivity
check and Kraus operators take one eigenproblem per label.
"""

from __future__ import annotations

import json

import numpy as np

from .numkit import (
    TOL,
    dagger,
    haar_isometry,
    partial_trace,
    reshuffle,
    unvectorize,
    vectorize,
)

__all__ = [
    "ChannelValidationError",
    "QuantumChannel",
    "covariance_residual",
    "assert_covariant",
    "identity_channel",
    "unitary_channel",
    "depolarizing_channel",
    "random_channel",
    "max_action_deviation",
]


class ChannelValidationError(ValueError):
    """Raised when a map fails the CP or TP conditions beyond tolerance."""


def _sealed(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a``; ``a``'s own flags are left alone."""
    view = a.view()
    view.flags.writeable = False
    return view


def _liouville_from_jamiolkowski(j: np.ndarray, d_out: int, d_in: int) -> np.ndarray:
    """d_in times the inverse of :func:`noetherlab.numkit.reshuffle`, read-only."""
    split = j.reshape(d_out, d_in, d_out, d_in).transpose(0, 2, 1, 3)
    return _sealed(split.reshape(d_out**2, d_in**2) * d_in)


#: J with fewer rows stays one block, labelled or not: one dense eigvalsh is cheaper there
#: (2 cores, SU(2) J: 0.14-0.24 against 0.20-0.28 ms at 49 rows, 0.47-0.72 against 0.32-0.44 at 81)
_BLOCKED_FROM = 64


def _kraus_from_blocks(blocks, d_out: int, d_in: int) -> list[np.ndarray]:
    """Kraus operators sqrt(d_in w) unvec(v) of the eigenpairs (w, v) of each (index, block)
    of J with w > tol_psd, by ascending w (ties keep block order)."""
    n = d_out * d_in
    w, vecs, pos = np.empty(n), np.zeros((n, n), dtype=complex), 0
    for index, block in blocks:
        w[pos:pos + len(block)], vecs[index, pos:pos + len(block)] = np.linalg.eigh(block)
        pos += len(block)
    return [_sealed(np.sqrt(d_in * w[i]) * unvectorize(vecs[:, i], d_out, d_in))
            for i in np.argsort(w, kind="stable") if w[i] > TOL.tol_psd]


class QuantumChannel:
    """A CPTP map between a d_in- and a d_out-dimensional system."""

    def __init__(self, d_in: int, d_out: int, *, kraus=None, liouville=None,
                 jamiolkowski=None, stinespring=None, labels=None):
        if sum(x is not None for x in (kraus, liouville, jamiolkowski, stinespring)) != 1:
            raise ValueError("provide exactly one representation")
        self.d_in = int(d_in)
        self.d_out = int(d_out)
        self._kraus = None
        self._liouville = None
        # the given form is copied, so the caller cannot edit it, then converted down to J
        if stinespring is not None:
            v = np.asarray(stinespring, dtype=complex)
            if v.ndim != 2 or v.shape[1] != self.d_in or v.shape[0] % self.d_out:
                raise ValueError("Stinespring isometry must be (d_out * d_env) x d_in")
            v = v.reshape(self.d_out, -1, self.d_in)
            kraus = [v[:, e, :] for e in range(v.shape[1])]
        if kraus is not None:
            ks = [np.array(k, dtype=complex) for k in kraus]
            if not ks or any(k.shape != (self.d_out, self.d_in) for k in ks):
                raise ValueError("Kraus operators must be d_out x d_in")
            self._kraus = [_sealed(k) for k in ks]
            liouville = sum(np.kron(k, k.conj()) for k in ks)
        if liouville is not None:
            m = np.array(liouville, dtype=complex)
            if m.shape != (self.d_out**2, self.d_in**2):
                raise ValueError(f"Liouville matrix must be {self.d_out**2} x {self.d_in**2}")
            self._liouville = _sealed(m)
            jamiolkowski = reshuffle(m, self.d_out, self.d_in) / self.d_in
        j = _sealed(np.array(jamiolkowski, dtype=complex))
        n = self.d_out * self.d_in
        if j.shape != (n, n):
            raise ValueError(f"Jamiolkowski state must be {n} x {n}")
        self._jamiolkowski = j
        # validation: complete positivity and trace preservation, read off J
        if not np.all(np.isfinite(j)):
            raise ChannelValidationError("channel representation has non-finite entries")
        herm = float(np.max(np.abs(j - dagger(j))))
        if herm > TOL.tol_herm:
            raise ChannelValidationError(f"Jamiolkowski state not Hermitian (residual {herm:.2e})")
        self._blocks = [(slice(None), j)]  # (index, J block) per label, ascending
        if labels is not None:
            labels = np.asarray(labels)
            if labels.shape != (n,):
                raise ValueError(f"labels must be {n} integers, one per Jamiolkowski index")
            if np.any((labels[:, None] != labels) & (j != 0)):
                raise ChannelValidationError("Jamiolkowski state couples different labels")
            if n >= _BLOCKED_FROM:
                order = np.argsort(labels, kind="stable")
                self._blocks = [(i, j[np.ix_(i, i)]) for i in
                                np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)]
        self.cp_min_eig = min(float(np.linalg.eigvalsh((b + dagger(b)) / 2)[0])
                              for _, b in self._blocks)
        if self.cp_min_eig < -TOL.tol_psd:
            raise ChannelValidationError(
                f"not completely positive: min Jamiolkowski eigenvalue {self.cp_min_eig:.2e}")
        marginal = partial_trace(j, self.d_out, self.d_in)
        self.tp_residual = float(np.max(np.abs(marginal - np.eye(self.d_in) / self.d_in)))
        if self.tp_residual > TOL.tol_eq:
            raise ChannelValidationError(
                f"not trace preserving: marginal residual {self.tp_residual:.2e}")

    # -- representations ----------------------------------------------------

    @property
    def liouville(self) -> np.ndarray:
        """The given matrix, the Kraus sum of given Kraus operators, or else reshuffled J."""
        if self._liouville is None:
            self._liouville = _liouville_from_jamiolkowski(self.jamiolkowski, self.d_out, self.d_in)
        return self._liouville

    @property
    def jamiolkowski(self) -> np.ndarray:
        return self._jamiolkowski

    @property
    def kraus(self) -> list[np.ndarray]:
        """The given Kraus operators, or else the eigendecomposition of J's label blocks."""
        if self._kraus is None:
            self._kraus = _kraus_from_blocks(self._blocks, self.d_out, self.d_in)
        return self._kraus

    @property
    def stinespring(self) -> np.ndarray:
        """Isometry V: H_in -> H_out (x) H_env built by stacking Kraus operators."""
        ks = self.kraus
        return np.stack(ks, axis=1).reshape(self.d_out * len(ks), self.d_in)

    @property
    def kraus_rank(self) -> int:
        return len(self.kraus)

    # -- action -------------------------------------------------------------

    def apply(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.d_in, self.d_in):
            raise ValueError(f"state must be {self.d_in} x {self.d_in}")
        return unvectorize(self.liouville @ vectorize(rho), self.d_out)

    def apply_adjoint(self, y: np.ndarray) -> np.ndarray:
        """Heisenberg-picture action: tr(E(X) Y) = tr(X E_adj(Y))."""
        y = np.asarray(y, dtype=complex)
        if y.shape != (self.d_out, self.d_out):
            raise ValueError(f"observable must be {self.d_out} x {self.d_out}")
        return unvectorize(dagger(self.liouville) @ vectorize(y), self.d_in)

    def compose(self, first: "QuantumChannel") -> "QuantumChannel":
        """The map self o first (apply ``first``, then ``self``)."""
        if first.d_out != self.d_in:
            raise ValueError("inner dimensions do not match")
        return QuantumChannel(first.d_in, self.d_out,
                              liouville=self.liouville @ first.liouville)

    def complementary(self) -> "QuantumChannel":
        """Trace out the output instead of the environment of the same dilation."""
        ks = self.kraus
        d_env = len(ks)
        stacked = np.stack(ks)  # (env, out, in)
        comp = [stacked[:, b, :] for b in range(self.d_out)]  # each d_env x d_in
        return QuantumChannel(self.d_in, d_env, kraus=comp)

    # -- serialization ------------------------------------------------------

    def to_json_dict(self, representation: str = "kraus") -> dict:
        def enc(m):
            return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]

        if representation == "kraus":
            data = [enc(k) for k in self.kraus]
        elif representation == "liouville":
            data = enc(self.liouville)
        elif representation == "jamiolkowski":
            data = enc(self.jamiolkowski)
        else:
            raise ValueError(f"unknown representation {representation!r}")
        return {"d_in": self.d_in, "d_out": self.d_out, "repr": representation, "data": data}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "QuantumChannel":
        """Inverse of :meth:`to_json_dict`; a missing key or a malformed entry is a ValueError."""
        def as_list(x):  # a non-list is read as its own only element, which the entry check names
            return x if isinstance(x, list) else [x]

        def dec(m, what="matrix"):
            for z in (z for row in as_list(m) for z in as_list(row)):
                if not (isinstance(z, list) and len(z) == 2 and all(
                        isinstance(x, (int, float)) and not isinstance(x, bool) for x in z)):
                    raise ValueError(f"channel entry {z!r} is not a [re, im] pair of numbers")
            for i in (i for i, row in enumerate(m) if len(row) != len(m[0])):
                raise ValueError(f"channel {what} row {i} has {len(m[i])} entries, not {len(m[0])}")
            return np.array([[complex(re, im) for re, im in row] for row in m])

        if not isinstance(obj, dict):
            raise ValueError("channel is not a JSON object")
        missing = [k for k in ("d_in", "d_out", "repr", "data") if k not in obj]
        if missing:
            raise ValueError(f"channel has no {missing[0]!r}")
        rep, d_in, d_out, data = obj["repr"], obj["d_in"], obj["d_out"], obj["data"]
        if not all(isinstance(d, int) and not isinstance(d, bool) and d > 0 for d in (d_in, d_out)):
            raise ValueError(f"channel d_in={d_in!r}, d_out={d_out!r} must be positive integers")
        if rep not in ("kraus", "liouville", "jamiolkowski"):
            raise ValueError(f"unknown representation {rep!r}")
        data = ([dec(k, f"Kraus operator {i}") for i, k in enumerate(as_list(data))]
                if rep == "kraus" else dec(data))
        return cls(d_in, d_out, **{rep: data})

    def save_json(self, path, representation: str = "kraus") -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(representation), fh)

    @classmethod
    def load_json(cls, path) -> "QuantumChannel":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))

    def __repr__(self) -> str:
        return f"QuantumChannel(d_in={self.d_in}, d_out={self.d_out})"


def identity_channel(d: int) -> QuantumChannel:
    return QuantumChannel(d, d, kraus=[np.eye(d)])


def unitary_channel(u: np.ndarray) -> QuantumChannel:
    u = np.asarray(u, dtype=complex)
    return QuantumChannel(u.shape[1], u.shape[0], kraus=[u])


def depolarizing_channel(d_in: int, d_out: int | None = None) -> QuantumChannel:
    """The channel sending every state to the maximally mixed output."""
    d_out = d_in if d_out is None else d_out
    j = np.eye(d_out * d_in) / (d_out * d_in)
    return QuantumChannel(d_in, d_out, jamiolkowski=j)


def random_channel(d_in: int, d_out: int, kraus_rank: int, seed) -> QuantumChannel:
    """A Haar-ish random channel from a random Stinespring isometry."""
    if d_out * kraus_rank < d_in:
        raise ValueError("need d_out * kraus_rank >= d_in for an isometry")
    return QuantumChannel(d_in, d_out, stinespring=haar_isometry(d_out * kraus_rank, d_in, seed))


def covariance_residual(channel: QuantumChannel, gens_in, gens_out) -> float:
    """Largest commutator norm of J(E) with the generators of U_out (x) U_in^*
    formed from paired input and output generators (zero iff E is covariant).

    Each generator g_out (x) I - I (x) g_in^* acts on one tensor factor of J,
    so no (d_out d_in)^2 generator matrix is formed.
    """
    d_out, d_in = channel.d_out, channel.d_in
    n = d_out * d_in
    j = channel.jamiolkowski
    by_row = j.reshape(d_out, d_in, n)  # row index split into (out, in)
    by_col = j.reshape(n, d_out, d_in)  # column index split into (out, in)
    res = 0.0
    for g_in, g_out in zip(gens_in, gens_out):
        g_out = np.asarray(g_out)
        g_in_c = np.asarray(g_in).conj()
        # J is Hermitian only to tol_herm, so both products are formed
        gen_j = np.tensordot(g_out, by_row, axes=1) - g_in_c @ by_row
        j_gen = g_out.T @ by_col - by_col @ g_in_c
        res = max(res, float(np.max(np.abs(j_gen.reshape(n, n) - gen_j.reshape(n, n)))))
    return res


def assert_covariant(channel: QuantumChannel, gens_in, gens_out) -> None:
    """Raise unless :func:`covariance_residual` is within tol_eq."""
    res = covariance_residual(channel, gens_in, gens_out)
    if res > TOL.tol_eq:
        raise ValueError(f"channel is not covariant: commutator residual {res:.2e}")


def max_action_deviation(a: QuantumChannel, b: QuantumChannel) -> float:
    """Largest entrywise difference of the two channels' Liouville matrices."""
    return float(np.max(np.abs(a.liouville - b.liouville)))
