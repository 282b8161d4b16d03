"""The storage-function bound on symmetric commuting plants.

For E = E^T > 0, A = A^T < 0 and E A = A E, the closed-form gain has the
storage function X = -A^{-1} E, and the bounded real inequality in X bounds
the norm's first level with one n x n Cholesky factorization. The
certificate must read exactly what the Hamiltonian level sets read, through
the storage test or through its fallback, and the norm it certifies must
bound a dense sigma_max scan. The metamorphic relations (ROADMAP item 9,
oracle 2) are checked on plants that keep E A - A E exactly zero, so that
both sides of each relation take the storage test.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hinfkit.verify as verify
from conftest import random_buffer
from hinfkit import DescriptorPlant, Gain, buffer_law, certify_optimality, compile_buffer, descriptor_gain
from hinfkit.sysmodel import StateSpace, close_loop
from hinfkit.verify import NORM_RTOL, hinf_norm_ss

# A 4 x 4 orthogonal matrix with entries +-1/2.
H4 = 0.5 * np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=float)


def dyadic_orthogonal(rng, n):
    """An orthogonal U with entries that are multiples of 1/4.

    Products of two signed, permuted block diagonals of H4 and 1 x 1 blocks:
    with eigenvalues that are multiples of 1/8, U diag(e) U^T and its products
    are exact in floating point, so E A - A E is exactly zero.
    """
    U = np.eye(n)
    for offset in (0, int(rng.integers(0, 4))):
        V = np.eye(n)
        for i in range(offset, n - 3, 4):
            V[i : i + 4, i : i + 4] = H4
        V = V[rng.permutation(n)] * rng.choice([-1.0, 1.0], n)
        U = U @ V
    return U


def dyadic_plant(rng, n, m):
    """E = U diag(e) U^T, A = U diag(a) U^T, e in [0.5, 3] and a in [-5, -0.5] in steps of 1/8."""
    U = dyadic_orthogonal(rng, n)
    e, a = rng.integers(4, 25, n) / 8.0, rng.integers(-40, -3, n) / 8.0
    return DescriptorPlant((U * e) @ U.T, (U * a) @ U.T, rng.standard_normal((n, m)))


def certify(desc, gain):
    """(certificate, results of the storage tests it ran)."""
    seen = []
    real = verify._bounds_norm

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]

    with mock.patch.object(verify, "_bounds_norm", spy):
        return certify_optimality(desc.to_rational(), gain), seen


def sigma_scan(loop, omegas, chunk=250):
    """sigma_max(C (jwI - A)^{-1} B) by SVD at each frequency, in chunks."""
    n = loop.A.shape[0]
    out = []
    for w in np.array_split(omegas, max(1, omegas.size // chunk)):
        X = np.linalg.solve(1j * w[:, None, None] * np.eye(n) - loop.A, np.broadcast_to(loop.B, (w.size, n, n)))
        out.append(np.linalg.svd(loop.C @ X, compute_uv=False)[:, 0])
    return np.concatenate(out)


@st.composite
def symmetric_plants(draw):
    """(desc, K): a symmetric commuting plant with exactly zero residues, and its closed-form gain."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        net = random_buffer(rng, draw(st.integers(4, 30)))
        return compile_buffer(net), buffer_law(net).K
    desc = dyadic_plant(rng, draw(st.integers(1, 12)), draw(st.integers(1, 4)))
    return desc, descriptor_gain(desc).K


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(symmetric_plants(), st.sampled_from(["closed-form", "scaled", "noisy"]), st.floats(0.3, 1.7))
def test_storage_certificate_reads_what_the_hamiltonian_reads(plant, variant, theta):
    desc, K = plant
    assert desc.exactly_symmetric_commuting
    if variant == "scaled":
        K = theta * K
    elif variant == "noisy":
        K = K + 1e-3 * np.random.default_rng(int(theta * 1e6)).standard_normal(K.shape)
    gain = Gain(K)
    cert, tests = certify(desc, gain)
    if not cert.stable:
        return
    assert len(tests) == 1
    if variant == "closed-form":
        assert tests == [True] and cert.verdict == "optimal"
    loop = close_loop(desc, gain)
    assert (cert.hinf_norm, cert.peak_frequency) == hinf_norm_ss(loop)
    gamma = cert.hinf_norm / (1.0 + 0.5 * NORM_RTOL) * (1.0 + NORM_RTOL)
    scan = sigma_scan(loop, np.concatenate(([0.0], np.logspace(-4, 4, 2001))))
    assert scan.max() <= gamma * (1.0 + 1e-12)


def symmetric_cases():
    """Plants whose residues stay exactly zero under the relations below, with their gains."""
    rng = np.random.default_rng(7)
    net = random_buffer(rng, 20)
    Y = rng.standard_normal((10, 10))
    plants = {
        "buffer20": compile_buffer(net),
        "dyadic": dyadic_plant(rng, 12, 3),
        "scalar_E": DescriptorPlant(2.5 * np.eye(10), -(Y @ Y.T) - np.eye(10), rng.standard_normal((10, 4))),
    }
    return {name: (desc, descriptor_gain(desc).K) for name, desc in plants.items()}


CASES = symmetric_cases()


def same_certificate(a, b, scale=1.0):
    assert a.verdict == b.verdict == "optimal"
    assert a.hinf_norm == pytest.approx(b.hinf_norm * scale, rel=1e-9)
    assert a.lower_bound == pytest.approx(b.lower_bound * scale, rel=1e-9)


@pytest.mark.parametrize("name", CASES)
def test_orthogonal_change_of_state_keeps_the_certificate(name):
    desc, K = CASES[name]
    U = dyadic_orthogonal(np.random.default_rng(3), desc.n)
    A = U @ desc.A @ U.T
    moved = DescriptorPlant(U @ desc.E @ U.T, 0.5 * (A + A.T), U @ desc.B)
    assert moved.exactly_symmetric_commuting
    (before, t0), (after, t1) = certify(desc, Gain(K)), certify(moved, Gain(K @ U.T))
    assert t0 == t1 == [True]
    same_certificate(after, before)


@pytest.mark.parametrize("c", [1e-3, 1e3])
@pytest.mark.parametrize("name", ["buffer20", "scalar_E"])  # E a multiple of I: E A = A E after scaling
def test_scaling_the_plant_divides_the_norm_and_the_bound(name, c):
    desc, K = CASES[name]
    scaled = DescriptorPlant(c * desc.E, c * desc.A, c * desc.B)
    (before, t0), (after, t1) = certify(desc, Gain(K)), certify(scaled, Gain(K))
    assert t0 == t1 == [True]
    same_certificate(after, before, 1.0 / c)


@pytest.mark.parametrize("name", CASES)
def test_permuting_inputs_keeps_the_certificate(name):
    desc, K = CASES[name]
    p = np.random.default_rng(5).permutation(desc.m)
    permuted = DescriptorPlant(desc.E, desc.A, desc.B[:, p])
    (before, t0), (after, t1) = certify(desc, Gain(K)), certify(permuted, Gain(K[p]))
    assert t0 == t1 == [True]
    same_certificate(after, before)
    assert after.peak_frequency == before.peak_frequency


@pytest.mark.parametrize("w", [0.5, 5.0, 50.0])
def test_first_level_below_an_off_seed_peak_fails_the_storage_test(w):
    # E = I, A = -I, B = I is symmetric and commuting, but this K puts the loop's
    # poles at -0.1 +- jw: both seeds, w = 0 and w = |pole|, sit below the peak, so
    # the first level is below the norm and the storage test must fail there.
    desc, gain = DescriptorPlant(np.eye(2), -np.eye(2), np.eye(2)), Gain([[0.9, w], [-w, 0.9]])
    loop = close_loop(desc, gain)
    seeds = sigma_scan(loop, np.array([0.0, abs(np.linalg.eigvals(loop.A)[0])]))
    cert, tests = certify(desc, gain)
    assert cert.hinf_norm > (1.0 + NORM_RTOL) * seeds.max()
    assert tests == [False]
    assert (cert.hinf_norm, cert.peak_frequency) == hinf_norm_ss(loop)


@pytest.mark.parametrize("excess, bounds", [(-64, True), (0, False), (16, False)])
def test_storage_test_needs_q_below_minus_the_rounding_allowance(excess, bounds):
    # xdot = -x + w with X = 1 and gamma = 1: Q = -2 + C^T C + 1 is exactly excess * eps,
    # and the allowance delta is about 32 eps. Only Q < -delta proves the bound; a Q
    # in (0, delta) must fail, as must Q = 0.
    eps = np.finfo(float).eps
    CtC = np.array([[1.0 + excess * eps]])
    Q = -2.0 + CtC[0, 0] + 1.0
    delta = 8.0 * eps * (2.0 + CtC[0, 0] + 1.0)
    assert Q == excess * eps and 16 * eps < delta < 64 * eps
    ss = StateSpace([[-1.0]], [[1.0]], np.sqrt(CtC), [[0.0]])
    assert verify._bounds_norm(ss, np.eye(1), CtC, 1.0) is bounds


@pytest.mark.parametrize("name", ["buffer20", "line_buffer"])
def test_diagonal_storage_hands_cholesky_the_dense_products_matrix(name, monkeypatch):
    # A vector X comes with the loop's B = E^{-1}, diagonal, so X B B^T X is formed from the
    # squares of X B's diagonal. The matrix handed to Cholesky is the one the dense n x n x n
    # product X B (X B)^T gave, entry for entry.
    from test_golden import MODELS
    from hinfkit import NetworkModel, compile_network

    doc = MODELS[name]
    desc = compile_network(NetworkModel(doc["network_kind"], doc["nodes"], doc["edges"], doc["params"]))
    args, handed = [], []
    real_bounds, real_cholesky = verify._bounds_norm, np.linalg.cholesky
    monkeypatch.setattr(verify, "_bounds_norm", lambda *a: args.append(a) or real_bounds(*a))
    monkeypatch.setattr(np.linalg, "cholesky", lambda M: handed.append(M) or real_cholesky(M))
    assert certify_optimality(desc.to_rational(), buffer_law(desc)).verdict == "optimal"
    ((ss, Y, CtC, gamma),), (M,) = args, handed
    n, X = Y.size, Y[:, None]
    XA, XB = X * ss.A, X * ss.B / gamma
    scale = 2.0 * np.linalg.norm(XA, 1) + np.linalg.norm(CtC, np.inf)
    delta = 8.0 * n * np.finfo(float).eps * (scale + np.linalg.norm(XB, np.inf) ** 2)
    assert Y.ndim == 1
    assert (M == -delta * np.eye(n) - XA - XA.T - CtC - XB @ XB.T).all()
