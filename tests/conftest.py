"""Shared regression plants used across the test suite."""

import numpy as np
import pytest

from hinfkit import DescriptorPlant, NetworkModel, RationalPlant


@pytest.fixture
def lag_plant():
    """First-order lag: M(s) = s + 1, N(s) = 1, optimal gain -1."""
    return DescriptorPlant(np.eye(1), [[-1.0]], [[1.0]])


@pytest.fixture
def double_pole_plant():
    """Scalar plant M(s) = (s + 2)^2, N(s) = s + 1, optimal gain -1/4."""
    return RationalPlant([[[4.0, 4.0, 1.0]]], [[[1.0, 1.0]]])


def asym_chain(a: float) -> DescriptorPlant:
    """Two-state chain with asymmetric coupling a and a single input."""
    return DescriptorPlant(np.eye(2), [[-a, a], [0.0, -1.0]], [[1.0], [0.0]])


@pytest.fixture
def three_state_demo():
    """Diagonal three-state system with a sparse input matrix."""
    A = np.diag([-1.0, -3.0, -2.0])
    B = np.array([[-1.0, 0.0, 0.0], [1.0, 1.0, -1.0], [0.0, 0.0, 1.0]])
    return DescriptorPlant(np.eye(3), A, B)


@pytest.fixture
def line_buffer():
    """Three buffers in a line with rates (1, 2, 3)."""
    return NetworkModel("buffer", 3, [(0, 1), (1, 2)], {"a": [1.0, 2.0, 3.0]})


def random_buffer(rng, n: int) -> NetworkModel:
    """Random connected buffer network: a spanning path plus n // 2 extra chords.

    The chord count is capped at the (n - 1)(n - 2) / 2 pairs with |i - j| > 1,
    which leaves every draw with n >= 3 as it was and gives n = 2 no chord.
    """
    a = rng.uniform(0.5, 5.0, n)
    edges = [(i, i + 1) for i in range(n - 1)]
    chords = set()
    while len(chords) < min(n // 2, (n - 1) * (n - 2) // 2):
        i, j = rng.integers(0, n, 2)
        if i != j and abs(int(i) - int(j)) > 1:
            chords.add((min(int(i), int(j)), max(int(i), int(j))))
    return NetworkModel("buffer", n, edges + sorted(chords), {"a": a})
