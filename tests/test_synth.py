import numpy as np
import pytest

from hinfkit import (
    DescriptorPlant,
    HypothesisViolationError,
    InvalidInputError,
    NetworkModel,
    NotRealGainError,
    RationalPlant,
    SingularMatrixError,
    assemble_subsystem_plant,
    buffer_law,
    closed_form_gain,
    compile_buffer,
    descriptor_gain,
    droop_gain,
    droop_plant,
    laplacian_from_edges,
    machine_modal_gains,
    subsystem_law,
    weighted_gain,
)
from hinfkit.synth import closed_form_matrix_gain
from conftest import asym_chain, random_buffer


class TestClosedFormGain:
    def test_lag(self, lag_plant):
        g = closed_form_gain(lag_plant.to_rational(), 0.0)
        assert g.K[0, 0] == pytest.approx(-1.0)
        assert g.formula == "square"
        assert g.omega0 == 0.0

    def test_double_pole(self, double_pole_plant):
        g = closed_form_gain(double_pole_plant, 0.0)
        assert g.K[0, 0] == pytest.approx(-0.25)

    def test_identity_plant(self):
        ident = [[[1.0] if i == j else [0.0] for j in range(2)] for i in range(2)]
        p = RationalPlant(ident, ident)
        g = closed_form_gain(p, 0.0)
        np.testing.assert_allclose(g.K, -np.eye(2), atol=1e-14)

    def test_droop_sample_matches_direct_formula(self):
        p = droop_plant(2.0, 0.5)
        g = closed_form_gain(p, 2.0)
        assert g.K[0, 0] == pytest.approx(-2.0, rel=1e-12)

    def test_complex_sample_rejected(self):
        # M = s + 1, N = s gives a complex gain away from omega = 0
        p = RationalPlant([[[1.0, 1.0]]], [[[0.0, 1.0]]])
        with pytest.raises(NotRealGainError):
            closed_form_gain(p, 1.0)

    def test_tall_sample_uses_general_formula(self):
        rng = np.random.default_rng(41)
        M = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        N = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        K, tag = closed_form_matrix_gain(M, N)
        assert tag == "general"
        expected = -N.conj().T @ M @ np.linalg.inv(M.conj().T @ M)
        np.testing.assert_allclose(K, expected, atol=1e-12)


class TestDescriptorGain:
    def test_asym_chain(self):
        g = descriptor_gain(asym_chain(1.0))
        np.testing.assert_allclose(g.K, [[-1.0, 0.0]], atol=1e-15)

    def test_identity_pair(self):
        g = descriptor_gain(DescriptorPlant(np.eye(2), -np.eye(2), np.eye(2)))
        np.testing.assert_allclose(g.K, -np.eye(2))

    def test_three_state_printed_matrix(self, three_state_demo):
        g = descriptor_gain(three_state_demo)
        expected = np.array(
            [[1.0, -1 / 3, 0.0], [0.0, -1 / 3, 0.0], [0.0, 1 / 3, -0.5]]
        )
        assert np.abs(g.K - expected).max() == 0.0
        assert int((g.K == 0).sum()) == 4

    def test_scaling_invariance(self):
        rng = np.random.default_rng(43)
        A = rng.standard_normal((4, 4)) - 5 * np.eye(4)
        B = rng.standard_normal((4, 2))
        K = descriptor_gain(DescriptorPlant(np.eye(4), A, B)).K
        for c in [0.25, 3.0, 17.5]:
            Kc = descriptor_gain(DescriptorPlant(np.eye(4), c * A, c * B)).K
            np.testing.assert_allclose(Kc, K, rtol=1e-12, atol=1e-15)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(47)
        A = rng.standard_normal((5, 5)) - 6 * np.eye(5)
        E = np.diag(rng.uniform(0.5, 2.0, 5))
        B = rng.standard_normal((5, 3))
        K = descriptor_gain(DescriptorPlant(E, A, B)).K
        P = np.eye(5)[rng.permutation(5)]
        Kp = descriptor_gain(DescriptorPlant(P @ E @ P.T, P @ A @ P.T, P @ B)).K
        assert np.abs(Kp - K @ P.T).max() <= 1e-14

    def test_permutation_equivariance_diagonal_exact(self):
        rng = np.random.default_rng(53)
        a = rng.uniform(0.5, 5.0, 6)
        B = rng.standard_normal((6, 4))
        K = descriptor_gain(DescriptorPlant(np.eye(6), np.diag(-a), B)).K
        P = np.eye(6)[rng.permutation(6)]
        Kp = descriptor_gain(DescriptorPlant(np.eye(6), P @ np.diag(-a) @ P.T, P @ B)).K
        assert np.array_equal(Kp, K @ P.T)


class TestWeightedGain:
    def test_identity_weight_reduces_exactly(self, double_pole_plant):
        gw = weighted_gain(double_pole_plant, [[1.0]], 0.0)
        g = closed_form_gain(double_pole_plant, 0.0)
        assert np.array_equal(gw.K, g.K)
        assert gw.formula == "weighted"

    def test_scalar_weight(self, lag_plant):
        g = weighted_gain(lag_plant.to_rational(), [[2.0]], 0.0)
        assert g.K[0, 0] == pytest.approx(-4.0)

    def test_identity_weight_matches_descriptor_gain(self):
        p = asym_chain(1.0)
        gw = weighted_gain(p.to_rational(), np.eye(2), 0.0)
        np.testing.assert_allclose(gw.K, descriptor_gain(p).K, atol=1e-14)

    def test_rank_deficient_weight_rejected(self, lag_plant):
        with pytest.raises(HypothesisViolationError):
            weighted_gain(lag_plant.to_rational(), [[0.0]], 0.0)


class TestBufferLaw:
    def test_line_rates(self, line_buffer):
        g = buffer_law(line_buffer)
        assert g.K.shape == (4, 3)
        np.testing.assert_allclose(g.K[2], [0.0, -0.5, 1 / 3])  # input (1, 2)
        np.testing.assert_allclose(g.K[3], [0.0, 0.5, -1 / 3])  # reverse input

    def test_single_node(self):
        g = buffer_law(NetworkModel("buffer", 1, [], {"a": [2.0]}))
        assert g.K.shape == (0, 1)

    def test_unit_rates_pair(self):
        g = buffer_law(NetworkModel("buffer", 2, [(0, 1)], {"a": [1.0, 1.0]}))
        np.testing.assert_allclose(g.K, [[-1.0, 1.0], [1.0, -1.0]])

    def test_matches_descriptor_gain(self, line_buffer):
        g = buffer_law(line_buffer)
        gd = descriptor_gain(compile_buffer(line_buffer))
        assert np.abs(g.K - gd.K).max() <= 1e-14

    def test_matches_descriptor_gain_random(self):
        rng = np.random.default_rng(59)
        for n in [5, 11, 24]:
            net = random_buffer(rng, n)
            g = buffer_law(net)
            gd = descriptor_gain(compile_buffer(net))
            assert np.abs(g.K - gd.K).max() <= 1e-14

    def test_two_nonzeros_per_row(self):
        rng = np.random.default_rng(61)
        net = random_buffer(rng, 9)
        g = buffer_law(net)
        assert np.all((g.K != 0).sum(axis=1) == 2)

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(InvalidInputError):
            buffer_law(NetworkModel("buffer", 2, [(0, 1)], {"a": [1.0, 0.0]}))

    @staticmethod
    def edge_loop(net):
        """The law written edge by edge: -1/a_i and 1/a_j on input (i, j), then its reverse."""
        a = np.asarray(net.params["a"], dtype=float)
        K = np.zeros((2 * len(net.edges), net.nodes))
        for t, (i, j) in enumerate(net.edges):
            K[2 * t, i] = -1.0 / a[i]
            K[2 * t, j] = 1.0 / a[j]
            K[2 * t + 1, j] = -1.0 / a[j]
            K[2 * t + 1, i] = 1.0 / a[i]
        return K

    @pytest.mark.parametrize("n", [1, 2, 3, 20, 200])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_is_bitwise_the_edge_loop(self, n, seed):
        # B^T A^{-1} of the compiled plant: C-ordered, as the loop's B @ K sums in that
        # order, and with +0.0 off the two nonzeros of each row, as the report writes -0.0.
        net = random_buffer(np.random.default_rng(seed), n)
        K = buffer_law(net).K
        want = self.edge_loop(net)
        assert K.shape == want.shape and K.tobytes() == want.tobytes()
        assert K.flags.c_contiguous and not np.signbit(K[K == 0.0]).any()

    @pytest.mark.parametrize("net", [
        NetworkModel("buffer", 0, [], {"a": []}),
        NetworkModel("buffer", 2, [(0, 1)], {"a": [1.0, 1e13]}),
    ], ids=["no-nodes", "rates-spread-1e13"])
    def test_refuses_what_compile_buffer_refuses(self, net):
        # The law is the compiled plant's, so a plant compile_buffer refuses has no law.
        with pytest.raises(SingularMatrixError):
            compile_buffer(net)
        with pytest.raises(SingularMatrixError):
            buffer_law(net)


class TestSubsystemLaw:
    def test_two_identity_blocks(self):
        g = subsystem_law([-np.eye(2), -np.eye(2)], [(0, 1, [1.0, 0.0])])
        np.testing.assert_allclose(g.K, [[-1.0, 0.0, -1.0, 0.0]])

    def test_single_block_no_couplings(self):
        g = subsystem_law([-np.eye(3)], [])
        assert g.K.shape == (0, 3)

    def test_scalar_blocks_reduce_to_buffer_law(self):
        net = NetworkModel("buffer", 2, [(0, 1)], {"a": [1.0, 1.0]})
        direct = buffer_law(net)
        blocks = [[[-1.0]], [[-1.0]]]
        couplings = [(0, 1, [1.0], [-1.0]), (1, 0, [1.0], [-1.0])]
        g = subsystem_law(blocks, couplings)
        np.testing.assert_allclose(g.K, direct.K)

    def test_matches_assembled_plant(self):
        rng = np.random.default_rng(67)
        blocks = []
        for _ in range(3):
            X = rng.standard_normal((3, 3))
            blocks.append(-(X @ X.T + 3 * np.eye(3)))
        couplings = [(0, 1, rng.standard_normal(3)), (1, 2, rng.standard_normal(3))]
        g = subsystem_law(blocks, couplings)
        gd = descriptor_gain(assemble_subsystem_plant(blocks, couplings))
        np.testing.assert_allclose(g.K, gd.K, atol=1e-12)

    def test_asymmetric_block_rejected(self):
        with pytest.raises(HypothesisViolationError):
            subsystem_law([[[-1.0, 1.0], [0.0, -1.0]]], [])

    def test_indefinite_block_rejected(self):
        with pytest.raises(HypothesisViolationError):
            subsystem_law([np.diag([-1.0, 1.0])], [])


class TestDroopGain:
    def test_values(self):
        assert droop_gain(1.0, 0.5).K[0, 0] == pytest.approx(-1.0)
        assert droop_gain(3.0, 0.7).K[0, 0] == pytest.approx(-15.0 / 7.0)

    def test_recorded_frequency(self):
        assert droop_gain(2.0, 0.5).omega0 == 2.0

    def test_vanishes_monotonically_with_damping(self):
        gains = [droop_gain(1.0, z).K[0, 0] for z in [0.5, 1.0, 2.0, 8.0, 64.0]]
        assert all(g < 0 for g in gains)
        assert all(b > a for a, b in zip(gains, gains[1:]))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(InvalidInputError):
            droop_gain(-1.0, 0.5)
        with pytest.raises(InvalidInputError):
            droop_gain(1.0, 0.0)


class TestMachineModalGains:
    def test_uniform_gain(self):
        L = laplacian_from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        g = machine_modal_gains(1.0, 2.0, L)
        np.testing.assert_allclose(g.K, -0.5 * np.eye(3))
        assert g.formula == "modal"

    def test_single_mode_reduces_to_scalar(self):
        g = machine_modal_gains(1.0, 2.0, [[4.0]])
        assert g.K[0, 0] == pytest.approx(-0.5)
        assert g.metadata["modes"][0]["omega0"] == pytest.approx(2.0)

    def test_cycle_modal_frequencies(self):
        L = laplacian_from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])
        g = machine_modal_gains(1.0, 1.0, L)
        freqs = sorted(m["omega0"] for m in g.metadata["modes"])
        np.testing.assert_allclose(freqs, [0.0, np.sqrt(2), np.sqrt(2), 2.0], atol=1e-9)

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(HypothesisViolationError):
            machine_modal_gains(1.0, 1.0, [[1.0, -1.0], [0.0, 1.0]])

    def test_indefinite_matrix_rejected(self):
        with pytest.raises(HypothesisViolationError):
            machine_modal_gains(1.0, 1.0, [[-1.0]])


def test_circulant_gain_is_circulant():
    from hinfkit import compile_circulant

    p = compile_circulant([-3.0, 1.0, 0.0, 1.0])
    K = descriptor_gain(p).K
    for i in range(4):
        assert np.abs(K[i] - np.roll(K[0], i)).max() <= 1e-12
