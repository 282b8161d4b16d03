"""The paper's zero-peak condition is the norm of the descriptor-gain loop.

For K = B^T A^{-T}, F = E A^T and G = A A^T + B B^T, the Hermitian matrix
H(w) = w^2 F G^{-1} F^T + j w (F^T - F) + G satisfies
lambda_min(H(w)) sigma_max(T_K(jw))^2 = 1 at every w where the loop is
defined. H(0) = G, so ``zero_peak_inequality`` (H(w) >= lambda_min(G) I)
asks exactly whether ||T_K|| is attained at w = 0. It says nothing about
stability: the certificate decides that, and on a stable loop the condition
holding means the descriptor gain is certified optimal.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hinfkit import DescriptorPlant, certify_optimality, descriptor_gain, zero_peak_inequality
from hinfkit.sysmodel import close_loop
from hinfkit.verify import _GramSigma

FAMILIES = ("identity-E", "diagonal-E", "dense-E", "symmetric-A")


def random_plant(rng, family: str, n: int, m: int) -> DescriptorPlant:
    """A descriptor plant with an invertible E from one of four families.

    E = I with a random A; a diagonal E with a near-symmetric A; a dense E
    with a random A; a negative definite A with a dense positive definite E.
    The first three shift A by -c E until E^{-1} A is Hurwitz, so that most
    descriptor-gain loops are stable too.
    """
    A, B = rng.standard_normal((n, n)), rng.standard_normal((n, m))
    if family == "symmetric-A":
        R = rng.standard_normal((n, n))
        return DescriptorPlant(R @ R.T + 0.5 * np.eye(n), -(A @ A.T) - 0.1 * np.eye(n), B)
    if family == "identity-E":
        E = np.eye(n)
    elif family == "diagonal-E":
        E = np.diag(rng.uniform(0.5, 2.0, n))
        A = 0.5 * (A + A.T) + 0.1 * rng.standard_normal((n, n))
    else:
        E = np.eye(n) + 0.3 * rng.standard_normal((n, n))
    shift = np.linalg.eigvals(np.linalg.solve(E, A)).real.max() + rng.uniform(0.1, 1.0)
    return DescriptorPlant(E, A - shift * E, B)


def test_zero_peak_matrix_times_the_loop_gain_squared_is_one():
    rng = np.random.default_rng(5)
    worst = 0.0
    for i in range(200):
        n, m = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        plant = random_plant(rng, FAMILIES[i % 4], n, m)
        E, A, B = plant.E, plant.A, plant.B
        F, G = E @ A.T, A @ A.T + B @ B.T
        FGF = F @ np.linalg.solve(G, F.T)
        sigma = _GramSigma(close_loop(plant, descriptor_gain(plant)))
        for w in 10.0 ** rng.uniform(-2.0, 2.0, 3):
            H = w * w * FGF + 1j * w * (F.T - F) + G
            lam = np.linalg.eigvalsh(0.5 * (H + H.conj().T))[0]
            worst = max(worst, abs(lam * sigma(w) ** 2 - 1.0))
    assert worst <= 1e-9


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(FAMILIES), st.integers(1, 6), st.integers(1, 3),
       st.integers(0, 2**32 - 1))
def test_zero_peak_on_a_stable_loop_means_optimal(family, n, m, seed):
    plant = random_plant(np.random.default_rng(seed), family, n, m)
    cert = certify_optimality(plant.to_rational(), descriptor_gain(plant))
    assume(cert.stable)
    if zero_peak_inequality(plant).holds:
        assert cert.verdict == "optimal"
