"""Exact representation data, checked against an independent ladder-operator
recursion for the coupling coefficients."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noetherlab.numkit import dagger
from noetherlab.su2rep import (
    SignedSqrtRational,
    _ito_basis_cached,
    SpinJ,
    cg,
    clebsch_gordan,
    ito_basis,
    spin_operators,
)
from support import coherent_state, random_rotation_vector, rotation_unitary, spin_norm


def recursion_cg_table(two_j1: int, two_j2: int, two_J: int) -> dict:
    """Coupling coefficients <j1 m1; j2 m2 | J M> built only from ladder
    operators: fix the top state by the raising-annihilation condition and
    Condon-Shortley sign, then descend with J_- = J1_- + J2_-.

    Independent of the closed-form route used by the library.
    """

    def a_plus(two_j, two_m):  # <j,m+1|J_+|j,m>
        j, m = two_j / 2, two_m / 2
        return np.sqrt(j * (j + 1) - m * (m + 1))

    def a_minus(two_j, two_m):  # <j,m-1|J_-|j,m>
        j, m = two_j / 2, two_m / 2
        return np.sqrt(j * (j + 1) - m * (m - 1))

    m1_range = list(range(-two_j1, two_j1 + 2, 2))
    # top state M = J: c[m1] with m2 = J - m1
    top = {}
    valid = [tm1 for tm1 in m1_range if abs(two_J - tm1) <= two_j2]
    tm1 = valid[0]
    top[tm1] = 1.0
    for nxt in valid[1:]:
        # coefficient of |m1+1, J-m1-... from J_+ |J,J> = 0
        num = a_plus(two_j1, nxt - 2)
        den = a_minus(two_j2, two_J - nxt + 2)
        top[nxt] = -top[nxt - 2] * num / den
    norm = np.sqrt(sum(v * v for v in top.values()))
    sign = 1.0 if top[max(top)] > 0 else -1.0
    state = {(tm1, two_J - tm1): sign * v / norm for tm1, v in top.items()}

    table = {(two_J, k): v for k, v in state.items()}
    two_M = two_J
    while two_M > -two_J:
        nxt = {}
        scale = a_minus(two_J, two_M)
        for (tm1, tm2), c in state.items():
            if tm1 - 2 >= -two_j1:
                nxt[(tm1 - 2, tm2)] = nxt.get((tm1 - 2, tm2), 0.0) + c * a_minus(two_j1, tm1)
            if tm2 - 2 >= -two_j2:
                nxt[(tm1, tm2 - 2)] = nxt.get((tm1, tm2 - 2), 0.0) + c * a_minus(two_j2, tm2)
        state = {k: v / scale for k, v in nxt.items()}
        two_M -= 2
        table.update({(two_M, k): v for k, v in state.items()})
    return table


class TestClebschGordan:
    def test_trivial_coupling(self):
        assert cg(3, 1, 0, 0, 3, 1) == 1.0

    def test_stretched(self):
        assert cg(1, 1, 1, 1, 2, 2) == 1.0

    def test_singlet_value(self):
        c = clebsch_gordan(1, 1, 1, -1, 0, 0)
        assert c.sign == 1 and c.radicand == Fraction(1, 2)

    @pytest.mark.parametrize("two_j1,two_j2,two_J", [
        (1, 1, 0), (1, 1, 2), (2, 1, 1), (2, 1, 3), (2, 2, 2),
        (3, 2, 1), (3, 2, 5), (4, 3, 3), (4, 4, 4), (5, 3, 4),
    ])
    def test_against_ladder_recursion(self, two_j1, two_j2, two_J):
        table = recursion_cg_table(two_j1, two_j2, two_J)
        for (two_M, (tm1, tm2)), ref in table.items():
            assert abs(cg(two_j1, tm1, two_j2, tm2, two_J, two_M) - ref) < 1e-12

    def test_selection_rules_zero(self):
        assert clebsch_gordan(2, 0, 2, 2, 2, 0).sign == 0
        assert clebsch_gordan(1, 1, 1, 1, 6, 2).sign == 0

    def test_invalid_jm_raises(self):
        with pytest.raises(ValueError):
            clebsch_gordan(1, 0, 1, 1, 2, 1)  # m1 not half-integer-compatible
        with pytest.raises(ValueError):
            clebsch_gordan(1, 3, 1, -1, 2, 2)  # |m| > j
        with pytest.raises(ValueError, match="j1: negative two_j"):
            clebsch_gordan(-2, 0, 1, 1, 1, 1)

    def test_unitarity_exact(self):
        # per (j1, j2, M): the coefficient matrix over (m1, m2) <-> J is
        # orthogonal, verified exactly by grouping terms over their
        # square-free radical parts (no floating point anywhere)
        for two_j1, two_j2 in [(1, 1), (2, 1), (2, 2), (3, 2), (4, 3)]:
            for two_M in range(-(two_j1 + two_j2), two_j1 + two_j2 + 2, 2):
                js = [tj for tj in range(abs(two_j1 - two_j2), two_j1 + two_j2 + 2, 2)
                      if abs(two_M) <= tj]
                pairs = [(tm1, two_M - tm1) for tm1 in range(-two_j1, two_j1 + 2, 2)
                         if abs(two_M - tm1) <= two_j2]
                for two_Ja in js:
                    for two_Jb in js:
                        groups: dict[int, Fraction] = {}
                        for tm1, tm2 in pairs:
                            ca = clebsch_gordan(two_j1, tm1, two_j2, tm2, two_Ja, two_M)
                            cb = clebsch_gordan(two_j1, tm1, two_j2, tm2, two_Jb, two_M)
                            coeff, radical = _exact_sqrt_product(ca.radicand, cb.radicand)
                            coeff *= ca.sign * cb.sign
                            groups[radical] = groups.get(radical, Fraction(0)) + coeff
                        expected = Fraction(1 if two_Ja == two_Jb else 0)
                        assert groups.get(1, Fraction(0)) == expected
                        assert all(v == 0 for s, v in groups.items() if s != 1)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8), st.data())
    def test_exchange_symmetry_identity(self, two_jb, two_ja, data):
        # <jb,m; ja,n | L,k> = (-1)^(2jb + ja - L + m) sqrt((2L+1)/(2ja+1))
        #                      * <jb,-m; L,k | ja,n>
        # (the extra 2 jb in the phase matters for half-integer jb)
        two_L = data.draw(st.sampled_from(
            list(range(abs(two_ja - two_jb), two_ja + two_jb + 2, 2))))
        two_m = data.draw(st.sampled_from(list(range(-two_jb, two_jb + 2, 2))))
        two_n = data.draw(st.sampled_from(list(range(-two_ja, two_ja + 2, 2))))
        two_k = two_m + two_n
        if abs(two_k) > two_L:
            return
        lhs = clebsch_gordan(two_jb, two_m, two_ja, two_n, two_L, two_k)
        rhs = clebsch_gordan(two_jb, -two_m, two_L, two_k, two_ja, two_n)
        phase = (-1) ** ((2 * two_jb + two_ja - two_L + two_m) // 2)
        scale = Fraction(two_L + 1, two_ja + 1)
        assert lhs.sign == phase * rhs.sign
        assert lhs.radicand == scale * rhs.radicand


def _exact_sqrt_product(a: Fraction, b: Fraction) -> tuple[Fraction, int]:
    """sqrt(a * b) as (rational, square-free integer): value = rational * sqrt(sf).

    Radicands here are ratios of small factorials, so all prime factors are
    tiny and trial division is exhaustive.
    """
    prod = a * b
    if prod == 0:
        return Fraction(0), 1
    p, q = prod.numerator, prod.denominator
    n = p * q  # sqrt(p/q) = sqrt(p q) / q
    square_root = 1
    square_free = 1
    f = 2
    while f * f <= n:
        count = 0
        while n % f == 0:
            n //= f
            count += 1
        square_root *= f ** (count // 2)
        if count % 2:
            square_free *= f
        f += 1
    square_free *= n  # leftover prime (or 1)
    return Fraction(square_root, q), square_free


class TestSpinOperators:
    @pytest.mark.parametrize("two_j", [1, 2, 3, 4, 7])
    def test_algebra(self, two_j):
        jx, jy, jz = spin_operators(SpinJ(two_j))
        assert np.allclose(jx @ jy - jy @ jx, 1j * jz, atol=1e-12)
        assert np.allclose(jy @ jz - jz @ jy, 1j * jx, atol=1e-12)
        assert np.allclose(jz @ jx - jx @ jz, 1j * jy, atol=1e-12)
        for op in (jx, jy, jz):
            assert np.allclose(op, dagger(op), atol=1e-12)
            assert abs(np.trace(op)) < 1e-12

    def test_norm_half(self):
        jz = spin_operators(SpinJ(1))[2]
        assert np.allclose(jz, np.diag([0.5, -0.5]))
        assert np.isclose(np.trace(jz @ jz).real, 0.5)
        assert np.isclose(spin_norm(SpinJ(1)) ** 2, 1.5)

    def test_casimir(self):
        for two_j in (1, 2, 3, 5):
            s = SpinJ(two_j)
            jx, jy, jz = spin_operators(s)
            j = s.j
            assert np.allclose(jx @ jx + jy @ jy + jz @ jz, j * (j + 1) * np.eye(s.dim))
            assert np.isclose(np.trace(jz @ jz).real, j * (j + 1) * (2 * j + 1) / 3)

    def test_negative_spin_is_refused(self):
        with pytest.raises(ValueError, match="two_j must be nonnegative"):
            SpinJ(-1)

    def test_spin1_eigenvalues(self):
        jz = spin_operators(SpinJ(2))[2]
        assert np.allclose(np.diag(jz), [1.0, 0.0, -1.0])


class TestItoBasis:
    def test_cache_is_bounded(self):
        maxsize = _ito_basis_cached.cache_info().maxsize
        # the benchmark's spin workload cycles through 7 spin pairs
        assert maxsize is not None and maxsize >= 7
        pairs = [(a, b) for a in range(1, 5) for b in range(1, 5)]
        assert len(pairs) > maxsize
        for two_j_in, two_j_out in pairs:
            ito_basis(SpinJ(two_j_in), SpinJ(two_j_out))
            assert _ito_basis_cached.cache_info().currsize <= maxsize

    @pytest.mark.parametrize("two_j", [1, 2, 3])
    def test_orthonormal_and_complete(self, two_j):
        # each block is real orthogonal and the diagonals tile the d x d entries,
        # so the Gram matrix tr(T_k^dag T_l) of all the operators is the identity
        b = ito_basis(SpinJ(two_j))
        d = two_j + 1
        for _, index, v in b.blocks:
            assert np.allclose(v.T @ v, np.eye(len(index)), atol=1e-12)
        tiled = np.sort(np.concatenate([index for _, index, _ in b.blocks]))
        assert np.array_equal(tiled, np.arange(d * d))
        rows = np.concatenate([b.family(two_l).reshape(two_l + 1, -1) for two_l in b.labels])
        assert rows.shape == (d * d, d * d)
        assert np.allclose(rows.conj() @ rows.T, np.eye(d * d), atol=1e-12)

    def test_trivial_and_spin_sector(self):
        for two_j in (1, 2, 4):
            s = SpinJ(two_j)
            b = ito_basis(s)
            assert np.allclose(b.family(0)[0], np.eye(s.dim) / np.sqrt(s.dim))
            jx, jy, jz = spin_operators(s)
            scale = np.sqrt(3) / spin_norm(s)
            assert np.allclose(b.family(2)[1], scale * jz, atol=1e-12)
            # +-1 components proportional to the ladder combinations
            jp = (jx + 1j * jy) / np.sqrt(2)
            got = b.family(2)[0]
            overlap = np.trace(dagger(got) @ (scale * jp))
            assert np.isclose(abs(overlap), 1.0, atol=1e-12)

    def test_qubit_t10_normalization(self):
        b = ito_basis(SpinJ(1))
        jz = spin_operators(SpinJ(1))[2]
        assert np.allclose(b.family(2)[1], jz / np.sqrt(0.5), atol=1e-12)

    def test_rotation_keeps_irrep_support(self):
        s = SpinJ(2)
        b = ito_basis(s)
        rng = np.random.default_rng(17)
        for _ in range(20):
            u = rotation_unitary(s, random_rotation_vector(rng))
            for two_l in (2, 4):
                for t in b.family(two_l):
                    rotated = u @ t @ dagger(u)
                    for tl2 in b.labels:
                        for other in b.family(tl2):
                            coeff = np.trace(dagger(other) @ rotated)
                            if tl2 != two_l:
                                assert abs(coeff) < 1e-10

    @pytest.mark.parametrize("two_j_in,two_j_out", [(1, 2), (2, 2), (4, 1), (3, 6)])
    def test_family_is_a_read_only_view_of_vectors(self, two_j_in, two_j_out):
        # family(two_L) is a read-only dense copy of one column of each block
        s_in, s_out = SpinJ(two_j_in), SpinJ(two_j_out)
        b = ito_basis(s_in, s_out)
        # label m_r - m_c of each matrix entry; T_{L,M} lives where it equals M
        label = np.subtract.outer(s_out.m_values(), s_in.m_values())
        top = b.labels[-1]
        assert [two_m for two_m, _, _ in b.blocks] == list(range(top, -top - 2, -2))
        for two_m, index, v in b.blocks:
            assert np.all(label.flat[index] == two_m)
            assert v.shape == (len(index), sum(two_l >= abs(two_m) for two_l in b.labels))
            assert not v.flags.writeable and not index.flags.writeable
        for two_l in b.labels:
            family = b.family(two_l)
            assert family.shape == (two_l + 1, s_out.dim, s_in.dim)
            for k, t in enumerate(family):  # M descending
                two_m = two_l - 2 * k
                assert np.all(t[label != two_m] == 0)
                _, index, v = b.blocks[(top - two_m) // 2]
                assert np.array_equal(t.flat[index], v[:, (two_l - b.labels[-v.shape[1]]) // 2])
            assert not family.flags.writeable
            with pytest.raises(ValueError):
                family[0, 0, 0] = 1.0

    def test_rectangular_family(self):
        b = ito_basis(SpinJ(1), SpinJ(2))
        assert b.labels == (1, 3)
        assert [v.shape for _, _, v in b.blocks] == [(1, 1), (2, 2), (2, 2), (1, 1)]
        rows = np.concatenate([b.family(two_l).reshape(two_l + 1, -1) for two_l in b.labels])
        assert rows.shape == (6, 6)
        assert np.allclose(rows.conj() @ rows.T, np.eye(6), atol=1e-12)
        assert b.family(1)[0].shape == (3, 2)

    def test_rectangular_family_is_rotation_closed(self):
        # U_out(g) T U_in(g)^dag stays inside the span of the same irrep family
        s_in, s_out = SpinJ(2), SpinJ(4)
        b = ito_basis(s_in, s_out)
        rng = np.random.default_rng(29)
        for _ in range(10):
            g = random_rotation_vector(rng)
            u_in = rotation_unitary(s_in, g)
            u_out = rotation_unitary(s_out, g)
            for two_l in b.labels:
                family = b.family(two_l)
                for t in family:
                    rotated = u_out @ t @ dagger(u_in)
                    back = sum(np.trace(dagger(f) @ rotated) * f for f in family)
                    assert np.max(np.abs(rotated - back)) < 1e-10

    @staticmethod
    def _coupling_family(two_j_in, two_j_out, two_l):
        """The spin-L family from the coupling formula
        T_{L,M}[m_b, m_a] = (-1)^(j_in + m_a) <j_out m_b; j_in -m_a | L M>,
        signed so that the first nonzero entry of the top-m operator (found by
        exact sign, row-major) is positive."""
        ms_in, ms_out = SpinJ(two_j_in).m_values(), SpinJ(two_j_out).m_values()
        phase = np.array([(-1) ** ((two_j_in + two_ma) // 2) for two_ma in ms_in])
        family = []
        for two_m in range(two_l, -two_l - 2, -2):
            coeffs = [[clebsch_gordan(two_j_out, two_mb, two_j_in, -two_ma, two_l, two_m)
                       for two_ma in ms_in] for two_mb in ms_out]
            signs = np.array([[c.sign for c in row] for row in coeffs]) * phase
            values = np.array([[float(c) for c in row] for row in coeffs]) * phase
            family.append((signs, values))
        top_signs = family[0][0]
        first = top_signs[top_signs != 0][0]
        return [first * values for _, values in family]

    @pytest.mark.parametrize("two_j_in", range(11))
    def test_unequal_spin_sign_convention(self, two_j_in):
        for two_j_out in range(11):
            if two_j_out == two_j_in:
                continue
            b = ito_basis(SpinJ(two_j_in), SpinJ(two_j_out))
            for two_l in b.labels:
                family = b.family(two_l)
                top = family[0][family[0] != 0]
                assert top[0].real > 0 and top[0].imag == 0
                for got, ref in zip(family, self._coupling_family(two_j_in, two_j_out, two_l)):
                    assert np.max(np.abs(got - ref)) <= 1e-14


def exact_ito_entry(two_j_in, two_j_out, two_l, r, c):
    """<j_out m_r| T_{L,M} |j_in m_c> from exact CG by Wigner-Eckart, M = m_r - m_c,
    with the family sign of the library's convention."""
    two_mr, two_mc = two_j_out - 2 * r, two_j_in - 2 * c
    sign = 1 if two_j_in == two_j_out else (-1) ** ((two_j_in + two_l - two_j_out) // 2)
    value = clebsch_gordan(two_j_in, two_mc, two_l, two_mr - two_mc, two_j_out, two_mr).value()
    return sign * np.sqrt((two_l + 1) / (two_j_out + 1)) * value


def ladder_operators(spin):
    """(Jz, J_+, J_-) of one spin."""
    jx, jy, jz = spin_operators(spin)
    return jz, jx + 1j * jy, jx - 1j * jy


class TestItoOracle:
    """The eigenblock build against exact CG and the ladder relations."""

    @pytest.mark.parametrize("two_j_in", range(11))
    def test_every_entry_matches_exact_cg(self, two_j_in):
        for two_j_out in range(11):
            s_in, s_out = SpinJ(two_j_in), SpinJ(two_j_out)
            b = ito_basis(s_in, s_out)
            label = np.subtract.outer(s_out.m_values(), s_in.m_values())  # 2 (m_r - m_c)
            for two_l in b.labels:
                got = b.family(two_l)
                ref = np.zeros(got.shape)
                for r, c in np.ndindex(label.shape):
                    if abs(label[r, c]) <= two_l:
                        ref[(two_l - label[r, c]) // 2, r, c] = exact_ito_entry(
                            two_j_in, two_j_out, two_l, r, c)
                assert np.max(np.abs(got - ref)) <= 1e-14

    @pytest.mark.parametrize("two_j_in,two_j_out", [(40, 40), (63, 63), (33, 39), (80, 80)])
    def test_sampled_entries_match_exact_cg_at_large_spin(self, two_j_in, two_j_out):
        b = ito_basis(SpinJ(two_j_in), SpinJ(two_j_out))
        rng = np.random.default_rng(two_j_in * 100 + two_j_out)
        for _ in range(200):
            two_m, index, v = b.blocks[rng.integers(len(b.blocks))]
            i, col = rng.integers(v.shape[0]), rng.integers(v.shape[1])
            r, c = divmod(int(index[i]), two_j_in + 1)
            two_l = b.labels[-v.shape[1] + col]
            assert abs(v[i, col] - exact_ito_entry(two_j_in, two_j_out, two_l, r, c)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=16), st.integers(min_value=0, max_value=16),
           st.data())
    def test_ladder_relations(self, two_j_in, two_j_out, data):
        # an operator T from H_in to H_out rotates with [J, T] = J_out T - T J_in
        s_in, s_out = SpinJ(two_j_in), SpinJ(two_j_out)
        b = ito_basis(s_in, s_out)
        family = b.family(data.draw(st.sampled_from(b.labels)))
        two_l = len(family) - 1
        (z_in, up_in, down_in), (z_out, up_out, down_out) = map(ladder_operators, (s_in, s_out))
        # [J_+, T_{L,L}] = 0
        assert np.max(np.abs(up_out @ family[0] - family[0] @ up_in)) < 1e-12
        for k, t in enumerate(family):
            two_m = two_l - 2 * k
            # [Jz, T_{L,M}] = M T_{L,M}
            assert np.max(np.abs(z_out @ t - t @ z_in - two_m / 2 * t)) < 1e-12
            # [J_-, T_{L,M}] = sqrt((L+M)(L-M+1)) T_{L,M-1}
            lowered = family[k + 1] if k < two_l else 0
            coeff = np.sqrt((two_l + two_m) * (two_l - two_m + 2)) / 2
            assert np.max(np.abs(down_out @ t - t @ down_in - coeff * lowered)) < 1e-11


class TestCoherentState:
    def test_north_pole(self):
        v = coherent_state(SpinJ(3), 0.0, 1.3)
        expect = np.zeros(4)
        expect[0] = 1.0
        assert np.allclose(v, expect)

    def test_south_pole(self):
        v = coherent_state(SpinJ(3), np.pi, 0.4)
        assert np.isclose(abs(v[-1]), 1.0, atol=1e-12)

    def test_mean_spin_direction(self):
        s = SpinJ(3)
        jx, jy, jz = spin_operators(s)
        rng = np.random.default_rng(23)
        for _ in range(5):
            theta = rng.uniform(0, np.pi)
            phi = rng.uniform(0, 2 * np.pi)
            v = coherent_state(s, theta, phi)
            n = np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])
            jn = n[0] * jx + n[1] * jy + n[2] * jz
            assert np.isclose(np.real(v.conj() @ jn @ v), s.j, atol=1e-10)


class TestSignedSqrtRational:
    @given(st.integers(min_value=0, max_value=1000), st.integers(min_value=1, max_value=1000),
           st.sampled_from([-1, 1]))
    @settings(max_examples=50, deadline=None)
    def test_value(self, num, den, sign):
        if num == 0:
            x = SignedSqrtRational(0, Fraction(0))
            assert x.value() == 0.0
        else:
            x = SignedSqrtRational(sign, Fraction(num, den))
            assert np.isclose(float(x), sign * np.sqrt(num / den))

    def test_invariant(self):
        with pytest.raises(ValueError):
            SignedSqrtRational(0, Fraction(1, 2))
        with pytest.raises(ValueError):
            SignedSqrtRational(1, Fraction(0))
        with pytest.raises(ValueError):
            SignedSqrtRational(1, Fraction(-1, 2))
        with pytest.raises(ValueError, match=r"sign must be -1, 0 or \+1"):
            SignedSqrtRational(2, Fraction(1))
