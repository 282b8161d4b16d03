"""The loop spectrum of a diagonal plant under K = B^T A^{-1}, from one eigvalsh.

With E and A exactly diagonal, E_ii A_ii < 0 and K equal to (B / diag(A))^T,
the loop E^{-1}(A + B K) is similar to the symmetric -S G S, S = (-E A)^{-1/2},
G = A A^T + B B^T. These tests check that spectrum against numpy's dense
eigvals of the same loop, the certificate's verdict with and without it, and
that every other loop still takes eigvals.
"""

from dataclasses import asdict
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import hinfkit.sysmodel
from hinfkit import DescriptorPlant, Gain, buffer_law, certify_optimality, compile_buffer
from hinfkit.sysmodel import _symmetric_scale, close_loop
from conftest import random_buffer

EPS = np.finfo(float).eps


def spectrum_bound(plant, K, loop):
    """4 n eps (cond(S E) (||L|| + ||E^{-1} B|| ||K||) + ||S G S||), Frobenius norms, L the loop.

    Both spectra sit within a backward error of the exact loop of K = B^T A^{-1}: the
    dense one through the rounding of K (|dK| <= eps |K|), of A + B K and of the
    nonsymmetric QR, each moved by at most cond(S E) times its size (Bauer-Fike, S E
    being the similarity that makes the exact loop symmetric); the symmetric one by
    the rounding of S G S alone.
    """
    e, a = plant.E.diagonal(), plant.A.diagonal()
    s = 1.0 / np.sqrt(-e * a)
    se = np.abs(s * e)
    norm = np.linalg.norm
    dense = se.max() / se.min() * (norm(loop.A) + norm(plant.B / e[:, None]) * norm(K))
    return 4 * plant.n * EPS * (dense + norm(s[:, None] * plant.gram * s))


@st.composite
def diagonal_plants(draw):
    """(plant, K): a random buffer with its law, or diagonal E != I and A with E_ii A_ii < 0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 60))
    if draw(st.booleans()):
        net = random_buffer(rng, n)
        return compile_buffer(net), buffer_law(net).K
    signs = {"positive": np.ones(n), "negative": -np.ones(n),
             "mixed": rng.choice([-1.0, 1.0], n)}[draw(st.sampled_from(["positive", "negative", "mixed"]))]
    e = signs * rng.uniform(0.2, 5.0, n)
    a = -signs * rng.uniform(0.2, 5.0, n)
    B = rng.standard_normal((n, draw(st.integers(1, 2 * n))))
    return DescriptorPlant(np.diag(e), np.diag(a), B), (B / a[:, None]).T


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(diagonal_plants())
def test_symmetric_spectrum_matches_the_dense_one(case):
    plant, K = case
    gain = Gain(K)
    loop = close_loop(plant, gain)
    assert _symmetric_scale(plant, K) is not None
    dense = np.linalg.eigvals(loop.A)
    assert abs(loop.poles.max() - dense.real.max()) <= spectrum_bound(plant, K, loop)
    cert = asdict(certify_optimality(plant.to_rational(), gain))
    with mock.patch.object(hinfkit.sysmodel, "_symmetric_scale", lambda *args: None):
        reference = asdict(certify_optimality(plant.to_rational(), gain))
    assert cert["verdict"] == reference["verdict"] == "optimal"
    cert["details"].pop("abscissa")
    reference["details"].pop("abscissa")
    assert cert == reference


def one_ulp_off(K):
    K = K.copy()
    i, j = np.argwhere(K != 0.0)[0]
    K[i, j] = np.nextafter(K[i, j], np.inf)
    return K


def other_loops():
    net = random_buffer(np.random.default_rng(4), 12)
    plant, K = compile_buffer(net), buffer_law(net).K
    A = plant.A.copy()
    A[0, 1] = A[1, 0] = 0.1  # symmetric, no longer diagonal
    unstable = plant.A.copy()
    unstable[3, 3] = 0.7  # E_33 A_33 > 0
    return [
        (plant, one_ulp_off(K)),
        (DescriptorPlant(plant.E, A, plant.B), np.linalg.solve(A, plant.B).T),
        (DescriptorPlant(plant.E, unstable, plant.B), (plant.B / unstable.diagonal()[:, None]).T),
    ]


def test_other_loops_take_the_dense_eigvals():
    for plant, K in other_loops():
        loop = close_loop(plant, Gain(K))
        assert _symmetric_scale(plant, K) is None
        assert np.array_equal(loop.poles, np.linalg.eigvals(loop.A))
