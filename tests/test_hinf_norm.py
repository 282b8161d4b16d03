"""The level-set H-infinity norm against an independent numpy reference.

The reference scans sigma_max densely in frequency (a logarithmic grid plus
a fine grid across every lightly damped pole) and polishes the largest
local maxima by golden-section search. It shares no code with hinfkit.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import random_buffer
from hinfkit import buffer_law, compile_buffer
from hinfkit.sysmodel import StateSpace, close_loop
from hinfkit.verify import NORM_RTOL, hinf_norm_ss

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def sigma_max(ss, omegas):
    """Largest singular value of C (jwI - A)^{-1} B at each frequency."""
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    n = ss.A.shape[0]
    pencils = 1j * omegas[:, None, None] * np.eye(n) - ss.A
    G = ss.C @ np.linalg.solve(pencils, np.broadcast_to(ss.B, (omegas.size, *ss.B.shape)))
    return np.linalg.svd(G, compute_uv=False)[:, 0]


def golden_max(f, a, b):
    c, d = b - INVPHI * (b - a), a + INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-13 * (1.0 + b):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + INVPHI * (b - a)
            fd = f(d)
    return max(fc, fd)


def reference_norm(ss):
    grid = [np.array([0.0]), np.logspace(-4, 4, 1500)]
    for lam in np.linalg.eigvals(ss.A):
        if lam.imag > 0:
            grid.append(lam.imag + np.linspace(-20.0, 20.0, 201) * abs(lam.real))
    grid = np.unique(np.clip(np.concatenate(grid), 0.0, None))
    values = sigma_max(ss, grid)
    best = float(values.max())
    for i in np.argsort(-values)[:8]:
        a, b = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
        best = max(best, golden_max(lambda w: float(sigma_max(ss, w)[0]), a, b))
    return best


def oscillator(w0, zeta):
    wd = w0 * math.sqrt(1.0 - zeta * zeta)
    return np.array([[-zeta * w0, wd], [-wd, -zeta * w0]])


modes = st.one_of(
    st.tuples(st.just("osc"), st.floats(0.1, 10.0), st.floats(-4.0, -1.0)),
    st.tuples(st.just("real"), st.floats(0.1, 10.0)),
)


@st.composite
def stable_mimo(draw):
    """Random stable MIMO system, n <= 12, in a randomly rotated modal basis."""
    blocks = []
    for mode in draw(st.lists(modes, min_size=1, max_size=6)):
        if mode[0] == "osc":
            blocks.append(oscillator(mode[1], 10.0 ** mode[2]))
        else:
            blocks.append(np.array([[-mode[1]]]))
    n = sum(b.shape[0] for b in blocks)
    A = np.zeros((n, n))
    i = 0
    for b in blocks:
        A[i:i + b.shape[0], i:i + b.shape[0]] = b
        i += b.shape[0]
    inputs, outputs = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    B = rng.standard_normal((n, inputs))
    C = rng.standard_normal((outputs, n))
    return StateSpace(Q @ A @ Q.T, Q @ B, C @ Q.T, np.zeros((outputs, inputs)))


@st.composite
def twin_peaks(draw):
    """Two lightly damped resonances whose peaks differ by 1e-10 to 1e-3."""
    w1, w2 = draw(st.floats(0.1, 10.0)), draw(st.floats(0.1, 10.0))
    z1, z2 = 10.0 ** draw(st.floats(-4.0, -1.0)), 10.0 ** draw(st.floats(-4.0, -1.0))
    rel = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-10.0, -3.0))
    A = np.zeros((4, 4))
    A[:2, :2], A[2:, 2:] = oscillator(w1, z1), oscillator(w2, z2)
    # block-diagonal channels: sigma_max is the larger of the two peaks
    B = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    first = reference_norm(StateSpace(A[:2, :2], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]]))
    second = reference_norm(StateSpace(A[2:, 2:], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]]))
    C = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, first / second * (1.0 + rel), 0.0]])
    return StateSpace(A, B, C, np.zeros((2, 2)))


def check_against_reference(ss):
    norm, peak = hinf_norm_ss(ss)
    ref = reference_norm(ss)
    assert abs(norm - ref) <= NORM_RTOL * ref
    assert sigma_max(ss, peak)[0] >= (1.0 - 2.0 * NORM_RTOL) * norm


NORM_SETTINGS = settings(
    max_examples=60, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@NORM_SETTINGS
@given(stable_mimo())
def test_norm_matches_dense_reference(ss):
    check_against_reference(ss)


@NORM_SETTINGS
@given(twin_peaks())
def test_norm_matches_dense_reference_on_twin_peaks(ss):
    check_against_reference(ss)


def test_work_count_on_buffer_closed_loop(monkeypatch):
    # One Hamiltonian eigensolve per level and few levels: the bounds catch
    # a return of fixed-step bisection or of a sigma_max sweep over poles.
    net = random_buffer(np.random.default_rng(0), 50)
    plant = compile_buffer(net)
    ss = close_loop(plant, buffer_law(net))
    order = 2 * ss.A.shape[0]
    counts = {"eigvals": 0, "solve": 0}
    eigvals, solve = np.linalg.eigvals, np.linalg.solve

    def counting_eigvals(a):
        counts["eigvals"] += np.shape(a)[-1] == order
        return eigvals(a)

    def counting_solve(a, b):
        counts["solve"] += 1
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    norm, peak = hinf_norm_ss(ss)
    monkeypatch.undo()
    assert counts["eigvals"] <= 4
    assert counts["solve"] <= 40
    assert peak == 0.0
    A, B = plant.A, plant.B
    formula = 1.0 / math.sqrt(np.linalg.eigvalsh(A @ A.T + B @ B.T)[0])
    assert norm == pytest.approx(formula, rel=NORM_RTOL)
