import numpy as np
import pytest

from hinfkit import (
    AreProblem,
    DescriptorPlant,
    Gain,
    HypothesisViolationError,
    are_feasible,
    buffer_law,
    certify_optimality,
    close_loop,
    compile_buffer,
    compile_irrigation,
    compile_network,
    gamma_bisect,
    hinf_norm_ss,
    lower_bound,
)
from hinfkit import baseline
from hinfkit.baseline import BOUNDARY_RTOL
from hinfkit.linalg import RANK_RTOL, rcond
from conftest import random_buffer
from test_verify import ROOMS
from test_work_counts import CASCADE3

SQRT_HALF = 2.0**-0.5


@pytest.fixture
def lag_problem():
    return AreProblem(A=[[-1.0]], B1=[[1.0]], B2=[[1.0]], C1=[[1.0]])


class TestAreFeasible:
    def test_feasible_above_optimum(self, lag_problem):
        sol = are_feasible(lag_problem, 1.0)
        assert sol is not None
        P, K = sol
        assert P[0, 0] == pytest.approx(0.5, abs=1e-10)
        assert K[0, 0] == pytest.approx(-0.5, abs=1e-10)

    def test_infeasible_below_optimum(self, lag_problem):
        assert are_feasible(lag_problem, 0.6) is None

    def test_monotone_in_gamma(self, lag_problem):
        feasible = [are_feasible(lag_problem, g) is not None for g in [0.5, 0.65, 0.75, 1.5, 10.0]]
        # once feasible, larger gamma stays feasible
        assert feasible == sorted(feasible)

    def test_riccati_residual_vanishes(self, lag_problem):
        P, _ = are_feasible(lag_problem, 1.0)
        A, B1, B2, C1 = (lag_problem.A, lag_problem.B1, lag_problem.B2, lag_problem.C1)
        residual = (
            A.T @ P + P @ A
            - P @ (B2 @ B2.T - B1 @ B1.T / 1.0**2) @ P
            + C1.T @ C1
        )
        assert np.abs(residual).max() < 1e-10


class TestGammaBisect:
    def test_lag_reaches_true_optimum(self, lag_problem):
        gamma, K = gamma_bisect(lag_problem)
        assert gamma == pytest.approx(SQRT_HALF, abs=1e-5)
        # the closed loop at the last feasible level is nearly optimal
        ss = close_loop(DescriptorPlant(np.eye(1), [[-1.0]], [[1.0]]), Gain(K))
        norm, _ = hinf_norm_ss(ss)
        assert norm <= gamma + 1e-9

    def test_three_state_matches_norm_formula(self, three_state_demo):
        problem = AreProblem.from_descriptor(three_state_demo)
        gamma, K = gamma_bisect(problem)
        G = three_state_demo.A @ three_state_demo.A.T + three_state_demo.B @ three_state_demo.B.T
        formula = 1.0 / np.sqrt(np.linalg.eigvalsh(G)[0])
        assert gamma == pytest.approx(formula, abs=1e-4)
        # the bisection endpoint reproduces the published two-decimal matrix
        published = np.array(
            [[0.93, -0.11, 0.00], [-0.05, -0.17, -0.01], [0.04, 0.16, -0.26]]
        )
        np.testing.assert_allclose(np.round(K, 2), published)
        # the numerical gain never beats the closed-form one on sparsity
        K_closed = np.array([[1.0, -1 / 3, 0.0], [0.0, -1 / 3, 0.0], [0.0, 1 / 3, -0.5]])
        assert (np.abs(K) <= 1e-8).sum() <= (np.abs(K_closed) <= 1e-8).sum()

    def test_buffer_matches_certificate(self):
        rng = np.random.default_rng(101)
        net = random_buffer(rng, 5)
        plant = compile_buffer(net)
        cert = certify_optimality(plant.to_rational(), buffer_law(net))
        gamma, _ = gamma_bisect(AreProblem.from_descriptor(plant))
        assert gamma == pytest.approx(cert.hinf_norm, abs=1e-4)

    def test_never_beats_lower_bound(self, three_state_demo):
        gamma, _ = gamma_bisect(AreProblem.from_descriptor(three_state_demo))
        bound = lower_bound(three_state_demo.to_rational()).value
        assert gamma >= bound - 1e-6


def test_unstabilizable_pair_rejected():
    # unstable mode with a left eigenvector orthogonal to the input
    with pytest.raises(HypothesisViolationError):
        AreProblem(A=[[1.0, 0.0], [0.0, -1.0]], B1=np.eye(2), B2=[[0.0], [1.0]], C1=np.eye(2))


def test_from_descriptor_normalizes_E():
    p = DescriptorPlant(2.0 * np.eye(1), [[-1.0]], [[1.0]])
    problem = AreProblem.from_descriptor(p)
    assert problem.A[0, 0] == pytest.approx(-0.5)
    assert problem.B1[0, 0] == pytest.approx(0.5)
    assert problem.B2[0, 0] == pytest.approx(0.5)


def level_test_inline(problem, gamma):
    """are_feasible with every block of the Hamiltonian formed at the level."""
    A, B1, B2, C1 = problem.A, problem.B1, problem.B2, problem.C1
    n = A.shape[0]
    R = (B1 @ B1.T) / gamma**2 - B2 @ B2.T
    H = np.block([[A, R], [-C1.T @ C1, -A.T]])
    lam, V = np.linalg.eig(H)
    if np.any(np.abs(lam.real) <= BOUNDARY_RTOL * np.maximum(1.0, np.abs(lam))):
        return None
    stable = lam.real < 0
    if int(stable.sum()) != n:
        return None
    Vs = V[:, stable]
    X1, X2 = Vs[:n], Vs[n:]
    if rcond(X1) <= RANK_RTOL:
        return None
    P = np.real(X2 @ np.linalg.inv(X1))
    P = 0.5 * (P + P.T)
    lam_p = np.linalg.eigvalsh(P)
    if lam_p[0] < -1e-8 * max(1.0, lam_p[-1]):
        return None
    K = -B2.T @ P
    if np.linalg.eigvals(A + B2 @ K).real.max() >= 0:
        return None
    return P, K


def baseline_problems():
    rng = np.random.default_rng(7)
    yield AreProblem(A=[[-1.0]], B1=[[1.0]], B2=[[1.0]], C1=[[1.0]])
    yield AreProblem(A=rng.standard_normal((4, 4)) - 3.0 * np.eye(4), B1=rng.standard_normal((4, 2)),
                     B2=rng.standard_normal((4, 3)), C1=rng.standard_normal((2, 4)))
    plants = [DescriptorPlant(np.eye(3), np.diag([-1.0, -3.0, -2.0]),
                              [[-1.0, 0.0, 0.0], [1.0, 1.0, -1.0], [0.0, 0.0, 1.0]]),
              compile_buffer(random_buffer(rng, 8)), compile_irrigation(CASCADE3)[0],
              compile_network(ROOMS)]
    for plant in plants:
        yield AreProblem.from_descriptor(plant)


@pytest.mark.parametrize("problem", list(baseline_problems()), ids=lambda p: f"n{p.A.shape[0]}")
def test_preformed_blocks_give_the_inline_level_test_bitwise(problem, monkeypatch):
    levels = list(np.geomspace(0.05, 50.0, 25))
    inner = baseline.are_feasible

    def recorded(p, gamma):
        levels.append(gamma)
        return inner(p, gamma)

    monkeypatch.setattr(baseline, "are_feasible", recorded)
    gamma_bisect(problem)
    monkeypatch.undo()
    feasible = 0
    for gamma in levels:
        got, want = are_feasible(problem, gamma), level_test_inline(problem, gamma)
        assert (got is None) == (want is None)
        if got is not None:
            feasible += 1
            assert [m.tobytes() for m in got] == [m.tobytes() for m in want]
    assert 0 < feasible < len(levels)
