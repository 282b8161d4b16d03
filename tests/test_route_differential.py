"""Two routes, one answer: a descriptor plant certified through both routes.

A descriptor plant with a well-conditioned E is certified on its
descriptor route (pencil poles, level-set norm). The same coefficient
tensors with no backlink to the descriptor take the rational route
(companion-pencil poles, grid norm). Both must reach the same verdict and
the same norm. A metamorphic oracle checks the level-set route on its own:
E -> alpha E keeps the norm and the bound and divides the peak frequency by alpha.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hinfkit import (DescriptorPlant, Gain, NetworkModel, RationalPlant, certify_optimality,
                     compile_network, descriptor_gain)
from test_exact_structure import PLANTS

# A loop with damping about 0.1: its peak at w = 2.67 samples below its value
# at w = 0 on the default grid.
MODERATE_A = [[-0.364, -0.883, -2.981], [0.34, -0.13, 0.61], [2.049, -0.004, -0.098]]
MODERATE_B = [[-0.062], [-0.029], [0.755]]
MODERATE_K = [[0.277, -0.382, -0.238]]


def both_routes(desc: DescriptorPlant, gain: Gain):
    """(descriptor-route certificate, rational-route certificate) of one loop."""
    linked = desc.to_rational()
    bare = RationalPlant._from_tensors(linked.m_num, linked.m_den, linked.n_num, linked.n_den)
    return certify_optimality(linked, gain), certify_optimality(bare, gain)


def test_moderate_damping_peak_is_found_on_the_grid():
    via_desc, via_grid = both_routes(DescriptorPlant(np.eye(3), MODERATE_A, MODERATE_B),
                                     Gain(np.array(MODERATE_K)))
    assert via_desc.details["method"] == "state-space" and via_grid.details["method"] == "grid"
    assert via_grid.hinf_norm == pytest.approx(via_desc.hinf_norm, rel=1e-6)
    assert via_grid.hinf_norm == pytest.approx(4.1358164, rel=1e-7)
    assert via_grid.peak_frequency == pytest.approx(2.67255, rel=1e-5)
    assert via_grid.verdict == via_desc.verdict == "stable-but-suboptimal"


@st.composite
def stable_loops(draw):
    """(descriptor plant, gain) with E = I or a diagonal E in [0.5, 2], n <= 5, m <= 3.

    A is shifted by -c E until the closed loop E^{-1} (A + B K) is Hurwitz,
    with K the descriptor gain of the shifted plant or a fixed random gain.
    """
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    E = np.diag(rng.uniform(0.5, 2.0, n)) if draw(st.booleans()) else np.eye(n)
    A0, B = rng.standard_normal((n, n)), rng.standard_normal((n, m))
    K = None if draw(st.booleans()) else rng.standard_normal((m, n))
    c = rng.uniform(0.1, 1.0)
    while True:
        desc = DescriptorPlant(E, A0 - c * E, B)
        gain = descriptor_gain(desc) if K is None else Gain(K)
        poles = np.linalg.eigvals(np.linalg.solve(E, desc.A + B @ gain.K))
        if poles.real.max() < -0.05:
            return desc, gain
        c *= 2.0


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(stable_loops())
@example((DescriptorPlant(np.eye(3), MODERATE_A, MODERATE_B), Gain(np.array(MODERATE_K))))
def test_descriptor_and_rational_routes_agree(case):
    via_desc, via_grid = both_routes(*case)
    assert via_desc.details["method"] == "state-space" and via_grid.details["method"] == "grid"
    assert via_desc.stable and via_grid.stable
    assert via_grid.verdict == via_desc.verdict
    assert via_grid.hinf_norm == pytest.approx(via_desc.hinf_norm, rel=1e-6)


def scaling_plant(name):
    """A plant of the E -> alpha E oracle: a network of ``PLANTS``, or a lightly damped rotation."""
    if name == "rotation":
        return DescriptorPlant(np.eye(2), [[-0.05, 2.0], [-2.0, -0.05]], [[1.0], [0.3]])
    doc = PLANTS[name]
    return compile_network(NetworkModel(doc["network_kind"], doc["nodes"], doc["edges"], doc["params"]))


@pytest.mark.parametrize("alpha", [0.25, 4.0])
@pytest.mark.parametrize("theta", [1.0, 0.5])
@pytest.mark.parametrize("name", ["irrigation3", "rooms4", "ring4", "buffer20", "rotation"])
def test_scaling_e_keeps_the_norm_and_divides_the_peak_frequency(name, theta, alpha):
    # The loop of (alpha E, A, B) at w is the loop of (E, A, B) at alpha w, so the two
    # level-set certificates of theta Kd agree up to rounding.
    desc = scaling_plant(name)
    scaled = DescriptorPlant(alpha * desc.E, desc.A, desc.B)
    cert, moved = (certify_optimality(p.to_rational(), Gain(theta * desc.Kd)) for p in (desc, scaled))
    assert cert.details["method"] == moved.details["method"] == "state-space"
    assert moved.verdict == cert.verdict
    assert moved.hinf_norm == pytest.approx(cert.hinf_norm, rel=1e-12, abs=0.0)
    assert moved.lower_bound == pytest.approx(cert.lower_bound, rel=1e-12, abs=0.0)
    assert alpha * moved.peak_frequency == pytest.approx(cert.peak_frequency, rel=1e-9, abs=0.0)
    # The bound's frequency is compared only where the w = 0 level test decides it, and
    # both read 0.0. The rotation's comes from a grid sweep, which samples the two loops
    # at different points, and agrees only to about 2e-7.
    if cert.details["lower_bound_frequency"] == 0.0:
        assert moved.details["lower_bound_frequency"] == 0.0


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("theta", [1.0, 0.5])
@pytest.mark.parametrize("name", ["irrigation3", "rooms4", "ring4", "buffer20", "rotation"])
def test_orthogonal_change_of_state_keeps_the_certificate(name, theta, seed):
    # x = T z with T orthogonal: (T^T E T, T^T A T, T^T B) under K T has the loop
    # diag(T^T, I) T(jw) T, whose singular values are those of T(jw), and the Gram
    # T^T (M M^* + N N^*) T, whose eigenvalues are those of M M^* + N N^*. A non-diagonal
    # T^T E T sends the bound's w = 0 level test through its solves by E and E^T.
    desc = scaling_plant(name)
    T = np.linalg.qr(np.random.default_rng(seed).standard_normal((desc.n, desc.n)))[0]
    moved = DescriptorPlant(T.T @ desc.E @ T, T.T @ desc.A @ T, T.T @ desc.B)
    K = theta * desc.Kd
    cert, turned = (certify_optimality(p.to_rational(), Gain(k)) for p, k in ((desc, K), (moved, K @ T)))
    assert turned.details["method"] == cert.details["method"] == "state-space"
    assert turned.verdict == cert.verdict
    assert turned.hinf_norm == pytest.approx(cert.hinf_norm, rel=1e-12, abs=0.0)
    assert turned.lower_bound == pytest.approx(cert.lower_bound, rel=1e-12, abs=0.0)
