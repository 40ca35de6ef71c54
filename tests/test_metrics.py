import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noetherlab.chan import (
    QuantumChannel,
    random_channel,
)
from noetherlab.mcoracle import mc_unitarity
from noetherlab.metrics import (
    GeneratorSet,
    delta_generators,
    deviation_avg,
    deviation_su2_closed,
    purity_condition_holds,
    su2_generators,
    u1_generators,
    unitarity_complementary,
    unitarity_jamiolkowski,
    unitarity_su2_closed,
)
from noetherlab.numkit import haar_isometry, purity
from noetherlab.su2cov import CovariantMixture, covariant_channel, extremal_channel
from noetherlab.su2rep import SpinJ, coupled_labels
from noetherlab.u1cov import EnergySpectrum, build_extremal
from support import (depolarizing_channel, identity_channel, mat_exp_skew_hermitian,
                     peak_bytes, pure_mixture, unitary_channel)


class TestUnitarity:
    def test_identity(self):
        assert abs(unitarity_jamiolkowski(identity_channel(2)) - 1.0) < 1e-12
        assert abs(unitarity_complementary(identity_channel(2)) - 1.0) < 1e-12

    def test_depolarizing(self):
        assert abs(unitarity_jamiolkowski(depolarizing_channel(2))) < 1e-12

    def test_extremal_qubit(self):
        e = extremal_channel(SpinJ(1), SpinJ(1), 2)
        assert abs(unitarity_jamiolkowski(e) - 1 / 9) < 1e-12

    def test_dual_route_agreement(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            d_in = int(rng.integers(2, 5))
            d_out = int(rng.integers(2, 5))
            rank = int(rng.integers(1, 4))
            if d_out * rank < d_in:
                rank = -(-d_in // d_out)
            e = random_channel(d_in, d_out, rank, rng)
            gap = abs(unitarity_jamiolkowski(e) - unitarity_complementary(e))
            assert gap < 1e-10

    @given(st.integers(2, 5), st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_three_routes_agree(self, d_in, d_out, rank, seed):
        rank = max(rank, -(-d_in // d_out))
        e = random_channel(d_in, d_out, rank, seed)
        mixed = np.eye(d_in) / d_in
        # the complementary channel built and applied to I/d, as a third route
        u_comp_channel = d_in / (d_in**2 - 1) * (
            d_in * purity(e.complementary().apply(mixed)) - purity(e.apply(mixed)))
        u_comp = unitarity_complementary(e)
        assert abs(u_comp - u_comp_channel) < 1e-12
        assert abs(unitarity_jamiolkowski(e) - u_comp) < 1e-12

    def test_isometry_criterion(self):
        rng = np.random.default_rng(2)
        for d_in, d_out in [(2, 2), (2, 3), (3, 4)]:
            iso = random_channel(d_in, d_out, 1, rng)  # one Kraus = isometry
            assert abs(unitarity_jamiolkowski(iso) - 1.0) < 1e-10
        for _ in range(10):
            e = random_channel(2, 2, 2, rng)
            if len(e.kraus) >= 2:
                assert unitarity_jamiolkowski(e) < 1 - 1e-6

    def test_su2_closed_form(self):
        half = SpinJ(1)
        assert abs(unitarity_su2_closed(pure_mixture(half, half, 0)) - 1.0) < 1e-12
        assert abs(unitarity_su2_closed(pure_mixture(half, half, 2)) - 1 / 9) < 1e-12
        one = SpinJ(2)
        assert abs(unitarity_su2_closed(CovariantMixture(one, one, (0, 1, 0))) - 1 / 4) < 1e-12

    def test_su2_closed_matches_channel(self):
        rng = np.random.default_rng(3)
        for (a, b) in [(1, 1), (2, 2), (1, 2), (3, 1), (2, 3)]:
            sa, sb = SpinJ(a), SpinJ(b)
            n = len(coupled_labels(sa, sb))
            mix = CovariantMixture(sa, sb, tuple(rng.dirichlet([1] * n)))
            closed = unitarity_su2_closed(mix)
            direct = unitarity_jamiolkowski(covariant_channel(mix))
            assert abs(closed - direct) < 1e-10

    @pytest.mark.parametrize("route", [
        unitarity_jamiolkowski,
        unitarity_complementary,
        lambda e: mc_unitarity(e, 1_000, 0),
    ], ids=["jamiolkowski", "complementary", "monte_carlo"])
    def test_one_dimensional_input_is_refused(self, route):
        # d_in = 1 leaves nothing to average: each route divides by d_in - 1
        e = QuantumChannel(1, 2, kraus=[[[1], [0]]])
        with pytest.raises(ValueError, match="unitarity needs d_in >= 2"):
            route(e)


class TestDeviation:
    def test_identity_zero(self):
        assert deviation_avg(identity_channel(2), su2_generators(SpinJ(1))) < 1e-14

    def test_extremal_qubit(self):
        e = extremal_channel(SpinJ(1), SpinJ(1), 2)
        assert abs(deviation_avg(e, su2_generators(SpinJ(1))) - 4 / 9) < 1e-12
        assert abs(deviation_su2_closed(pure_mixture(SpinJ(1), SpinJ(1), 2)) - 4 / 9) < 1e-12

    def test_u1_full_flip(self):
        spec = EnergySpectrum((0, 1))
        ch = build_extremal(spec, np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert abs(deviation_avg(ch, u1_generators(spec.levels)) - 1 / 3) < 1e-12

    def test_report_consistency(self):
        # the float is the trace-term sum plus the square-term sum over d (d+1), in that order
        e = extremal_channel(SpinJ(2), SpinJ(2), 4)
        gens = su2_generators(SpinJ(2))
        djs = delta_generators(e, gens)
        trace_terms = [float(np.real(np.trace(dj)) ** 2) for dj in djs]
        square_terms = [float(np.real(np.trace(dj @ dj))) for dj in djs]
        d = e.d_in
        delta = deviation_avg(e, gens)
        assert type(delta) is float
        assert delta == (sum(trace_terms) + sum(square_terms)) / (d * (d + 1))

    def test_unequal_spins_closed_form(self):
        # deviation through the generator route equals the closed form
        mix = pure_mixture(SpinJ(1), SpinJ(2), 1)
        closed = deviation_su2_closed(mix)
        assert abs(closed - 1 / 36) < 1e-12
        direct = deviation_avg(covariant_channel(mix), su2_generators(SpinJ(1), SpinJ(2)))
        assert abs(closed - direct) < 1e-10

    def test_closed_matches_channel_randomized(self):
        rng = np.random.default_rng(4)
        for (a, b) in [(1, 1), (2, 2), (1, 3), (3, 1)]:
            sa, sb = SpinJ(a), SpinJ(b)
            n = len(coupled_labels(sa, sb))
            mix = CovariantMixture(sa, sb, tuple(rng.dirichlet([1] * n)))
            closed = deviation_su2_closed(mix)
            direct = deviation_avg(covariant_channel(mix), su2_generators(sa, sb))
            assert abs(closed - direct) < 1e-10

    def test_symmetric_unitaries_conserve(self):
        # unitaries commuting with every generator: exponentials of commutant
        # elements.  U(1): random diagonal phases; spin-carrying subsystem:
        # anything acting on the spectator factor only.
        rng = np.random.default_rng(5)
        spec = EnergySpectrum((0, 1, 3))
        gens = u1_generators(spec.levels)
        for _ in range(20):
            u = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 3)))
            assert deviation_avg(unitary_channel(u), gens) < 1e-24

        jx, jy, jz = su2_generators(SpinJ(1)).j_in
        big = GeneratorSet(
            j_in=tuple(np.kron(g, np.eye(2)) for g in (jx, jy, jz)),
            j_out=tuple(np.kron(g, np.eye(2)) for g in (jx, jy, jz)),
        )
        for _ in range(20):
            v = haar_isometry(2, 2, rng)
            u = np.kron(np.eye(2), v)  # commutant of J (x) I
            assert deviation_avg(unitary_channel(u), big) < 1e-24

    def test_rotations_do_not_conserve(self):
        # sanity: a generic rotation moves the polarization direction
        g = su2_generators(SpinJ(1))
        u = mat_exp_skew_hermitian(g.j_in[0], 1.0)
        assert deviation_avg(unitary_channel(u), g) > 1e-3


class TestQubitIdentity:
    def test_unitarity_deviation_relation(self):
        half = SpinJ(1)
        worst = 0.0
        for p0 in np.linspace(0, 1, 101):
            mix = CovariantMixture(half, half, (p0, 1 - p0))
            u = unitarity_su2_closed(mix)
            sd = np.sqrt(deviation_su2_closed(mix))
            worst = max(worst, abs(u - (1 - 4 * sd * (1 - sd))))
        assert worst < 1e-10


class TestMaximallyMixedOutput:
    """E(I/d_in) = tr_in J, which both unitarity routes read by the channel's identity
    contraction, and ``apply(I/d_in)`` gives within round-off.  A covariant
    SU(2) channel maps I/d to I/d_out, which the partial trace over the output factor also
    gives, so random channels with d_in != d_out in both directions are what tell the two
    factors apart."""

    @pytest.mark.parametrize("d_in, d_out, rank", [(2, 3, 1), (3, 2, 2), (2, 5, 3), (4, 3, 2),
                                                   (5, 2, 4), (3, 3, 2)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_apply_on_the_maximally_mixed_state(self, d_in, d_out, rank, seed):
        ch = random_channel(d_in, d_out, rank, seed)
        j = ch.jamiolkowski.reshape(d_out, d_in, d_out, d_in)
        tr_in = sum(j[:, c, :, c] for c in range(d_in))
        got = ch.apply(np.eye(d_in) / d_in)
        assert got.shape == (d_out, d_out)
        assert np.max(np.abs(got - tr_in)) <= 1e-15

    @pytest.mark.parametrize("d_in, d_out, rank", [(2, 3, 1), (3, 2, 2), (2, 5, 3), (4, 3, 2),
                                                   (5, 2, 4), (3, 3, 2)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_unitarity_reads_tr_in_j_as_apply_gives_it(self, d_in, d_out, rank, seed):
        # tr_in J and d_in * (J contracted with I/d_in) round apart in the last bit at most,
        # and not at all for d_in = 2, where I/2 scales by a power of two
        ch = random_channel(d_in, d_out, rank, seed)
        via_apply = d_in / (d_in**2 - 1) * (
            d_in * sum(purity(b) for _, b in ch.blocks) - purity(ch.apply(np.eye(d_in) / d_in)))
        u = unitarity_jamiolkowski(ch)
        assert abs(u - via_apply) <= 1e-15
        assert u == via_apply or d_in != 2
        assert purity_condition_holds(ch) == (
            purity(ch.apply(np.eye(d_in) / d_in)) >= 1.0 / d_in - 1e-12)

    def test_unitarity_derives_no_liouville_matrix(self):
        # the channel holds what it held before: no derived form is stored
        ch = covariant_channel(pure_mixture(SpinJ(4), SpinJ(4), 4))
        held = dict(vars(ch))
        unitarity_jamiolkowski(ch)
        purity_condition_holds(ch)
        assert vars(ch).keys() == held.keys()
        assert all(vars(ch)[key] is value for key, value in held.items())

    def test_unitarity_jamiolkowski_peaks_below_a_tenth_of_j(self):
        # two_j = 20: J is 441 x 441 complex, 3.1 MB
        spin = SpinJ(20)
        weights = np.random.default_rng(10).dirichlet([0.7] * len(coupled_labels(spin, spin)))
        ch = covariant_channel(CovariantMixture(spin, spin, tuple(weights)))
        assert peak_bytes(lambda: unitarity_jamiolkowski(ch)) < 0.1 * ch.jamiolkowski.nbytes


class TestPurityCondition:
    def test_unital_holds(self):
        assert purity_condition_holds(identity_channel(3))

    def test_embedding_into_larger_space_fails(self):
        # spin-1/2 -> spin-1 extremal channel spreads the maximally mixed
        # state over a strictly larger space
        e = extremal_channel(SpinJ(1), SpinJ(2), 1)
        assert not purity_condition_holds(e)

    def test_isometry_embedding_holds(self):
        e = random_channel(2, 4, 1, 6)
        assert purity_condition_holds(e)


class TestGeneratorSet:
    def test_rejects_non_traceless(self):
        with pytest.raises(ValueError):
            GeneratorSet(j_in=(np.eye(2),), j_out=(np.eye(2),))

    @pytest.mark.parametrize("call, message", [
        (lambda: GeneratorSet(j_in=su2_generators(SpinJ(1)).j_in, j_out=()),
         "generator lists must have equal length"),
        (lambda: delta_generators(identity_channel(2), su2_generators(SpinJ(2), SpinJ(1))),
         "input generator dimension mismatch"),
        (lambda: delta_generators(identity_channel(2), su2_generators(SpinJ(1), SpinJ(2))),
         "output generator dimension mismatch"),
    ], ids=["unequal_length", "input_dimension", "output_dimension"])
    def test_mismatched_generators_are_refused(self, call, message):
        with pytest.raises(ValueError, match=message) as err:
            call()
        assert "\n" not in str(err.value)

    def test_u1_traceless_shift(self):
        gens = u1_generators((0, 1, 5))
        assert abs(np.trace(gens.j_in[0])) < 1e-12
