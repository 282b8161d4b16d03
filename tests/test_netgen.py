import signal

import numpy as np
import pytest

from hinfkit import (
    InvalidInputError,
    NetworkModel,
    buffer_law,
    compile_buffer,
    compile_circulant,
    compile_irrigation,
    compile_machine,
    compile_network,
    compile_thermal,
    descriptor_gain,
    laplacian_from_edges,
    symmetric_commuting_check,
)
from conftest import random_buffer


class TestBuffer:
    def test_line_of_three(self, line_buffer):
        p = compile_buffer(line_buffer)
        np.testing.assert_allclose(np.diag(p.A), [-1.0, -2.0, -3.0])
        assert np.array_equal(p.E, np.eye(3))
        assert p.B.shape == (3, 4)
        # column for input (0, 1): +1 at node 0, -1 at node 1
        np.testing.assert_allclose(p.B[:, 0], [1.0, -1.0, 0.0])
        np.testing.assert_allclose(p.B[:, 1], [-1.0, 1.0, 0.0])

    def test_single_node(self):
        p = compile_buffer(NetworkModel("buffer", 1, [], {"a": [4.0]}))
        assert p.A.tolist() == [[-4.0]]
        assert p.B.shape == (1, 0)

    def test_complete_graph(self):
        net = NetworkModel("buffer", 3, [(0, 1), (0, 2), (1, 2)], {"a": [1.0, 1.0, 1.0]})
        p = compile_buffer(net)
        assert p.B.shape == (3, 6)
        for col in p.B.T:
            assert sorted(col) == [-1.0, 0.0, 1.0]

    def test_duplicate_edge_rejected(self):
        net = NetworkModel("buffer", 2, [(0, 1), (1, 0)], {"a": [1.0, 1.0]})
        with pytest.raises(InvalidInputError):
            compile_buffer(net)

    def test_edge_out_of_range_rejected(self):
        net = NetworkModel("buffer", 2, [(0, 5)], {"a": [1.0, 1.0]})
        with pytest.raises(InvalidInputError):
            compile_buffer(net)

    def test_adding_edge_preserves_existing_rows(self):
        rng = np.random.default_rng(71)
        net = random_buffer(rng, 12)
        K_before = buffer_law(net).K
        grown = NetworkModel("buffer", 12, net.edges + [(0, 11)], net.params)
        K_after = buffer_law(grown).K
        assert np.array_equal(K_after[: K_before.shape[0]], K_before)


class TestIrrigation:
    def test_single_pool(self):
        net = NetworkModel("irrigation", 1, [], {"alpha": [1.0], "beta": [1.0], "tau": [1.0]})
        p, H = compile_irrigation(net)
        np.testing.assert_allclose(p.A, [[-1.0, 1.0], [0.0, -1.0]])
        np.testing.assert_allclose(p.B.ravel(), [0.0, 1.0])
        np.testing.assert_allclose(H.ravel(), [-1.0, 0.0])

    def test_two_pools_column_rule(self):
        net = NetworkModel(
            "irrigation", 2, [], {"alpha": [1.0] * 2, "beta": [1.0] * 2, "tau": [1.0] * 2}
        )
        p, _ = compile_irrigation(net)
        np.testing.assert_allclose(p.B[:, 0], [0.0, 1.0, -1.0, 0.0])
        np.testing.assert_allclose(p.B[:, 1], [0.0, 0.0, 0.0, 1.0])

    def test_gain_matches_local_level_law(self):
        # last input: -q_N / beta_N - r_N; interior: same plus q_{i+1} / beta_{i+1}
        alpha, beta, tau = [2.0, 4.0, 0.5], [1.5, 3.0, 0.8], [1.0, 2.0, 0.7]
        net = NetworkModel("irrigation", 3, [], {"alpha": alpha, "beta": beta, "tau": tau})
        p, _ = compile_irrigation(net)
        K = descriptor_gain(p).K
        expected = np.zeros((3, 6))
        for i in range(3):
            expected[i, 2 * i] = -1.0 / beta[i]
            expected[i, 2 * i + 1] = -1.0
            if i + 1 < 3:
                expected[i, 2 * (i + 1)] = 1.0 / beta[i + 1]
        np.testing.assert_allclose(K, expected, atol=1e-14)

    def test_unit_disturbance_variant(self):
        net = NetworkModel("irrigation", 2, [], {"alpha": [4.0, 2.0], "beta": [1.0] * 2, "tau": [1.0] * 2})
        _, H_scaled = compile_irrigation(net)
        _, H_unit = compile_irrigation(net, unit_h=True)
        np.testing.assert_allclose(H_scaled[0, 0], -0.25)
        np.testing.assert_allclose(H_unit[0, 0], 1.0)
        # gain synthesis ignores the disturbance map entirely
        p1, _ = compile_irrigation(net)
        p2, _ = compile_irrigation(net, unit_h=True)
        assert np.array_equal(descriptor_gain(p1).K, descriptor_gain(p2).K)

    def test_nonpositive_parameter_rejected(self):
        net = NetworkModel("irrigation", 1, [], {"alpha": [0.0], "beta": [1.0], "tau": [1.0]})
        with pytest.raises(InvalidInputError):
            compile_irrigation(net)


class TestThermal:
    def test_two_rooms(self):
        net = NetworkModel(
            "thermal",
            2,
            [],
            {"masses": [1.0, 1.0], "heat_capacity": 1.0, "leak": [1.0, 1.0],
             "conduction": [(0, 1, 1.0)]},
        )
        p = compile_thermal(net)
        np.testing.assert_allclose(p.A, [[-2.0, 1.0], [1.0, -2.0]])
        assert np.array_equal(p.E, np.eye(2))
        assert np.array_equal(p.B, np.eye(2))

    def test_single_room(self):
        net = NetworkModel(
            "thermal", 1, [], {"masses": [2.0], "heat_capacity": 3.0, "leak": [0.7], "conduction": []}
        )
        p = compile_thermal(net)
        assert p.A.tolist() == [[-0.7]]
        assert p.E.tolist() == [[6.0]]

    def test_negative_definite_for_random_parameters(self):
        rng = np.random.default_rng(73)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            conduction = [(i, j, rng.uniform(0.1, 3.0)) for i in range(n) for j in range(i + 1, n)
                          if rng.random() < 0.6]
            net = NetworkModel(
                "thermal", n, [],
                {"masses": rng.uniform(0.5, 4.0, n), "heat_capacity": rng.uniform(0.5, 2.0),
                 "leak": rng.uniform(0.1, 2.0, n), "conduction": conduction},
            )
            p = compile_thermal(net)
            assert np.linalg.eigvalsh(p.A)[-1] < 0
            assert np.abs(p.A - p.A.T).max() == 0.0

    def test_equal_masses_commute_unequal_do_not(self):
        base = {"heat_capacity": 1.0, "leak": [1.0, 1.0], "conduction": [(0, 1, 1.0)]}
        equal = compile_thermal(NetworkModel("thermal", 2, [], {"masses": [1.0, 1.0], **base}))
        unequal = compile_thermal(NetworkModel("thermal", 2, [], {"masses": [2.0, 1.0], **base}))
        assert symmetric_commuting_check(equal).holds
        report = symmetric_commuting_check(unequal)
        assert not report.commuting and not report.holds

    def test_nonpositive_conduction_rejected(self):
        net = NetworkModel(
            "thermal", 2, [],
            {"masses": [1.0, 1.0], "heat_capacity": 1.0, "leak": [1.0, 1.0],
             "conduction": [(0, 1, -1.0)]},
        )
        with pytest.raises(InvalidInputError):
            compile_thermal(net)


class TestMachine:
    def test_path_graph_laplacian(self):
        L = laplacian_from_edges(2, [(0, 1, 1.0)])
        np.testing.assert_allclose(L, [[1.0, -1.0], [-1.0, 1.0]])

    def test_cycle_eigenvalues(self):
        net = NetworkModel(
            "machine", 4, [],
            {"mass": 1.0, "damping": 1.0,
             "edges": [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)]},
        )
        m, d, L = compile_machine(net)
        np.testing.assert_allclose(np.linalg.eigvalsh(L), [0.0, 2.0, 2.0, 4.0], atol=1e-9)

    def test_asymmetric_laplacian_rejected(self):
        net = NetworkModel(
            "machine", 2, [], {"mass": 1.0, "damping": 1.0, "laplacian": [[1.0, -1.0], [0.0, 1.0]]}
        )
        with pytest.raises(InvalidInputError):
            compile_machine(net)

    def test_nonzero_row_sum_rejected(self):
        net = NetworkModel(
            "machine", 2, [], {"mass": 1.0, "damping": 1.0, "laplacian": [[2.0, -1.0], [-1.0, 2.0]]}
        )
        with pytest.raises(InvalidInputError):
            compile_machine(net)

    def test_nonpositive_damping_rejected(self):
        net = NetworkModel("machine", 1, [], {"mass": 1.0, "damping": 0.0, "laplacian": [[0.0]]})
        with pytest.raises(InvalidInputError):
            compile_machine(net)


class TestCirculant:
    def test_ring_matrix(self):
        p = compile_circulant([-3.0, 1.0, 0.0, 1.0])
        expected = np.array(
            [[-3.0, 1.0, 0.0, 1.0],
             [1.0, -3.0, 1.0, 0.0],
             [0.0, 1.0, -3.0, 1.0],
             [1.0, 0.0, 1.0, -3.0]]
        )
        assert np.array_equal(p.A, expected)
        assert np.array_equal(p.B, np.eye(4))

    def test_scalar(self):
        p = compile_circulant([-1.0])
        assert p.A.tolist() == [[-1.0]]

    def test_commutes_with_cyclic_shift(self):
        p = compile_circulant([-6.0, 2.0, 1.0, 0.0, 2.0])
        S = np.roll(np.eye(5), 1, axis=1)
        assert np.array_equal(p.A @ S, S @ p.A)

    def test_non_hurwitz_warns(self):
        with pytest.warns(UserWarning):
            compile_circulant([1.0, 0.5])


def test_compile_network_dispatch(line_buffer):
    p = compile_network(line_buffer)
    assert p.B.shape == (3, 4)
    machine = NetworkModel("machine", 1, [], {"mass": 1.0, "damping": 1.0, "laplacian": [[0.0]]})
    with pytest.raises(InvalidInputError):
        compile_network(machine)


def test_random_buffer_builds_the_smallest_networks():
    # A 2-node path has no pair with |i - j| > 1, so it gets no chord; before the
    # cap, the helper drew chords for it forever. The alarm turns a hang into a failure.
    def hung(*_):
        raise TimeoutError("random_buffer did not return")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(5)
    try:
        nets = [random_buffer(np.random.default_rng(0), n) for n in (1, 2, 3)]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert [net.edges for net in nets] == [[], [(0, 1)], [(0, 1), (1, 2), (0, 2)]]
