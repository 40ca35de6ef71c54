"""Quantum channels in five interconvertible representations.

A channel is validated once (CP on the blocks of its Jamiolkowski state J, TP as the one
contraction of J with I that is E_adj(I)) and is immutable afterwards: it copies the
given form, and each form it stores is read-only.  J, as (index, block) pairs, is the
one internal form; every form not given is derived from it, so no number depends on
the order the forms are read.  ``J = (E (x) I)|Om><Om|`` with ``|Om> = sum_i |ii> /
sqrt(d_in)`` has unit trace on ``H_out (x) H_in``; the Liouville matrix of row-stacked
vectors, ``L[ab, cd] = d_in J[ac, bd]``, is built from it on each read.

Kraus operators give J by one product.  ``labels`` are their charges, one integer per
index r * d_in + c (a Bohr frequency, or m_out - m_in): each operator's nonzero
entries share one, and from 64 rows on the channel stores only J's label blocks, each
the product of its label's operators.  A covariant channel can also be given as
blocks, ``blocks=[(index, block), ...]``.  Unless J is one block, ``jamiolkowski`` is
built on each read and never stored; the actions and the checks contract the blocks.
"""

from __future__ import annotations

import json

import numpy as np

from .numkit import TOL, dagger, haar_isometry

__all__ = [
    "ChannelValidationError",
    "QuantumChannel",
    "covariance_residual",
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


def _jamiolkowski_from_liouville(m: np.ndarray, d_out: int, d_in: int) -> np.ndarray:
    """J of a (d_out^2) x (d_in^2) Liouville matrix: ``|ab><cd| -> |ac><bd|``, over d_in."""
    split = m.reshape(d_out, d_out, d_in, d_in).transpose(0, 2, 1, 3)
    return split.reshape(d_out * d_in, d_out * d_in) / d_in


def _liouville_from_jamiolkowski(j: np.ndarray, d_out: int, d_in: int) -> np.ndarray:
    """The inverse of :func:`_jamiolkowski_from_liouville`, read-only."""
    split = j.reshape(d_out, d_in, d_out, d_in).transpose(0, 2, 1, 3)
    return _sealed(split.reshape(d_out**2, d_in**2) * d_in)


#: a labelled J with fewer rows stays whole: one dense eigvalsh is cheaper there
#: (2 cores, SU(2) J: 0.14-0.24 against 0.20-0.28 ms at 49 rows, 0.47-0.72 against 0.32-0.44 at 81)
_BLOCKED_FROM = 64


def _kraus_from_blocks(blocks, d_out: int, d_in: int) -> list[np.ndarray]:
    """Kraus operators sqrt(d_in w) unvec(v) of the eigenpairs (w, v) of each (index, block)
    of J with w > tol_psd, by ascending w (ties keep block order), each v on its indices."""
    found = []
    for index, block in blocks:
        w, v = np.linalg.eigh(block)
        found += [(w[c], index, v[:, c]) for c in np.flatnonzero(w > TOL.tol_psd)]
    ks = [np.zeros(d_out * d_in, dtype=complex) for _ in found]
    for k, (w, index, v) in zip(ks, sorted(found, key=lambda pair: pair[0])):  # stable
        k[index] = np.sqrt(d_in * w) * v
    return [_sealed(k.reshape(d_out, d_in)) for k in ks]


def _blocks_from_kraus(v: np.ndarray, labels, d_in: int) -> tuple:
    """J = sum_k vec(K_k) vec(K_k)^dag / d_in of the rows v[k] = vec(K_k) as (index, block)
    pairs: whole, or with labels from _BLOCKED_FROM rows on, one product per label."""
    index, n = [np.arange(v.shape[1])], v.shape[1]
    if labels is not None:
        labels = np.asarray(labels)
        if labels.shape != (n,):
            raise ValueError(f"labels must be {n} integers, one per Jamiolkowski index")
        if not np.isfinite(v).all():  # NaN != 0 would otherwise read as a spanning entry
            raise ChannelValidationError("channel representation has non-finite entries")
        nonzero = v != 0
        of = labels[nonzero.argmax(1)]
        spans = nonzero & (labels != of[:, None])
        if spans.any():
            raise ChannelValidationError(
                f"Kraus operator {spans.any(1).argmax()} spans different labels")
        if n >= _BLOCKED_FROM:
            order = np.argsort(labels, kind="stable")
            index = np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)
    parts = (v if len(index) == 1 else v[np.ix_(of == labels[i[0]], i)] for i in index)
    return tuple((_sealed(i), _sealed(w.T @ w.conj() / d_in)) for i, w in zip(index, parts))


def _read_blocks(blocks, n: int) -> tuple:
    """Read-only copies of the (index, block) pairs, once their shapes and cover pass."""
    read = [(np.asarray(i), np.array(b, dtype=complex)) for i, b in blocks]
    for k, (i, b) in enumerate(read):
        if i.ndim != 1 or i.dtype.kind not in "iu" or b.shape != i.shape * 2 or not i.size:
            raise ValueError(f"block {k} is not an m x m array on m >= 1 integer indices")
    if not np.array_equal(np.sort(np.concatenate([i for i, _ in read] or [[]])), np.arange(n)):
        raise ValueError(f"block indices must cover 0..{n - 1} once each")
    return tuple((_sealed(i.astype(np.intp)), _sealed(b)) for i, b in read)


class QuantumChannel:
    """A CPTP map between a d_in- and a d_out-dimensional system.  ``blocks`` holds J as
    read-only (index, block) pairs: the given or label blocks, or J whole."""

    def __init__(self, d_in: int, d_out: int, *, kraus=None, liouville=None,
                 jamiolkowski=None, stinespring=None, labels=None, blocks=None):
        if sum(x is not None for x in (kraus, liouville, jamiolkowski, stinespring, blocks)) != 1:
            raise ValueError("provide exactly one representation")
        if labels is not None and kraus is None and stinespring is None:
            raise ValueError("labels go only with Kraus operators or a Stinespring isometry")
        self.d_in = int(d_in)
        self.d_out = int(d_out)
        self._kraus = None
        n = self.d_out * self.d_in
        if blocks is not None:
            self.blocks = _read_blocks(blocks, n)
        else:
            # the given form is copied, so the caller cannot edit it, then converted down to J
            if stinespring is not None:
                v = np.asarray(stinespring, dtype=complex)
                if v.ndim != 2 or v.shape[1] != self.d_in or v.shape[0] % self.d_out:
                    raise ValueError("Stinespring isometry must be (d_out * d_env) x d_in")
                kraus = v.reshape(self.d_out, -1, self.d_in).transpose(1, 0, 2)
            if liouville is not None:
                m = np.asarray(liouville, dtype=complex)
                if m.shape != (self.d_out**2, self.d_in**2):
                    raise ValueError(f"Liouville matrix must be {self.d_out**2} x {self.d_in**2}")
                j = _jamiolkowski_from_liouville(m, self.d_out, self.d_in)  # a new array already
            elif jamiolkowski is not None:
                j = np.array(jamiolkowski, dtype=complex)
                if j.shape != (n, n):
                    raise ValueError(f"Jamiolkowski state must be {n} x {n}")
            if kraus is not None:
                ks = [np.asarray(k, dtype=complex) for k in kraus]
                if not ks or any(k.shape != (self.d_out, self.d_in) for k in ks):
                    raise ValueError("Kraus operators must be d_out x d_in")
                ks = _sealed(np.array(ks))
                self._kraus = list(ks)
                self.blocks = _blocks_from_kraus(ks.reshape(len(ks), n), labels, self.d_in)
            else:
                self.blocks = ((_sealed(np.arange(n)), _sealed(j)),)
        # one block not given as such is J whole, on the indices 0..n-1
        self._jamiolkowski = self.blocks[0][1] if blocks is None and len(self.blocks) == 1 else None
        if not all(np.isfinite(b).all() for _, b in self.blocks):
            raise ChannelValidationError("channel representation has non-finite entries")
        # validation: Hermiticity and positivity per checked block, trace preservation E_adj(I) = I
        herm = max(float(np.max(np.abs(b - dagger(b)))) for _, b in self.blocks)
        if herm > TOL.tol_herm:
            raise ChannelValidationError(f"Jamiolkowski state not Hermitian (residual {herm:.2e})")
        self.cp_min_eig = min(float(np.linalg.eigvalsh((b + dagger(b)) / 2)[0])
                              for _, b in self.blocks)
        if self.cp_min_eig < -TOL.tol_psd:
            raise ChannelValidationError(
                f"not completely positive: min Jamiolkowski eigenvalue {self.cp_min_eig:.2e}")
        unital_in = self.d_in * self._contract(np.eye(self.d_out), True) - np.eye(self.d_in)
        self.tp_residual = float(np.max(np.abs(unital_in))) / self.d_in
        if self.tp_residual > TOL.tol_eq:
            raise ChannelValidationError(
                f"not trace preserving: marginal residual {self.tp_residual:.2e}")

    # -- representations ----------------------------------------------------

    @property
    def liouville(self) -> np.ndarray:
        """J reshuffled, built on each read and never stored."""
        return _liouville_from_jamiolkowski(self.jamiolkowski, self.d_out, self.d_in)

    @property
    def jamiolkowski(self) -> np.ndarray:
        """The dense J: stored when it is one block, else built from the blocks on each read."""
        if self._jamiolkowski is not None:
            return self._jamiolkowski
        j = np.zeros((self.d_out * self.d_in,) * 2, dtype=complex)
        for index, block in self.blocks:
            j[np.ix_(index, index)] = block
        return _sealed(j)

    def jamiolkowski_blocks(self, indices) -> list:
        """``J[ix_(i, i)]`` for each index array i, gathered from the blocks that hold i."""
        block_of, pos = np.empty((2, self.d_out * self.d_in), dtype=np.intp)
        for k, (i, _) in enumerate(self.blocks):
            block_of[i], pos[i] = k, np.arange(len(i))
        out = [np.zeros((len(i),) * 2, dtype=complex) for i in indices]
        for i, sub in zip(indices, out):
            for k in set(block_of[i].tolist()):
                sel = np.flatnonzero(block_of[i] == k)
                sub[np.ix_(sel, sel)] = self.blocks[k][1][np.ix_(pos[i[sel]], pos[i[sel]])]
        return out

    @property
    def kraus(self) -> list[np.ndarray]:
        """The given Kraus operators, or else the eigendecomposition of J's label blocks."""
        if self._kraus is None:
            self._kraus = _kraus_from_blocks(self.blocks, self.d_out, self.d_in)
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

    def _contract(self, x: np.ndarray, to_in: bool) -> np.ndarray:
        """sum_{r,s} J[r, s] x[src_r, src_s] placed at [dst_r, dst_s], for (dst, src) =
        divmod(index, d_in), swapped when ``to_in``: E(x) / d_in, or conj E_adj(conj x) / d_in."""
        if self._jamiolkowski is not None:  # J whole: one einsum on its 4-index view
            return np.einsum("acbd,ab->cd" if to_in else "acbd,cd->ab",
                             self._jamiolkowski.reshape((self.d_out, self.d_in) * 2), x)
        out = np.zeros((self.d_in,) * 2 if to_in else (self.d_out,) * 2, dtype=complex)
        for index, block in self.blocks:
            dst, src = np.divmod(index, self.d_in)[::-1 if to_in else 1]
            np.add.at(out, (dst[:, None], dst), block * x[np.ix_(src, src)])
        return out

    def apply(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.d_in, self.d_in):
            raise ValueError(f"state must be {self.d_in} x {self.d_in}")
        return self.d_in * self._contract(rho, False)

    def apply_adjoint(self, y: np.ndarray) -> np.ndarray:
        """Heisenberg-picture action: tr(E(X) Y) = tr(X E_adj(Y)), for any Y."""
        y = np.asarray(y, dtype=complex)
        if y.shape != (self.d_out, self.d_out):
            raise ValueError(f"observable must be {self.d_out} x {self.d_out}")
        return self.d_in * self._contract(y.conj(), True).conj()

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
                # float() of an int from 2**1024 - 2**970 on (a JSON literal can be one) overflows
                if not (isinstance(z, list) and len(z) == 2 and all(isinstance(x, float) or (
                        type(x) is int and abs(x) < 2**1024 - 2**970) for x in z)):
                    raise ValueError(f"channel entry {z!r} is not a [re, im] pair of numbers")
            for i in (i for i, row in enumerate(m) if len(row) != len(m[0])):
                raise ValueError(f"channel {what} row {i} has {len(m[i])} entries, not {len(m[0])}")
            pairs = np.array(m, dtype=float).reshape(len(m), len(m) and len(m[0]), 2)  # -0.0 kept
            return pairs.view(complex)[..., 0]

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
            fh.write(json.dumps(self.to_json_dict(representation)))

    @classmethod
    def load_json(cls, path) -> "QuantumChannel":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))

    def __repr__(self) -> str:
        return f"QuantumChannel(d_in={self.d_in}, d_out={self.d_out})"


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


def max_action_deviation(a: QuantumChannel, b: QuantumChannel) -> float:
    """Largest entrywise difference of the two channels' Liouville matrices."""
    return float(np.max(np.abs(a.liouville - b.liouville)))
