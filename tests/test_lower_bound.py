"""The synthesis lower bound of descriptor plants against direct evaluation.

A descriptor-backed plant evaluates M P M^* + N N^* as the precomputed
quadratic G + w^2 E P E^T + j w F. These tests build the same Gram matrix
directly from M(jw) = jwE - A and N = B, and compare the bound with the
one a rational plant of the same coefficients, without the descriptor
link, computes from M(jw) and N(jw). When F = 0 the bound is read at the
ends of the grid with no sweep; it is compared with the sweep it replaces.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import random_buffer
from hinfkit import DescriptorPlant, NetworkModel, compile_buffer, compile_irrigation, verify
from hinfkit.exceptions import SingularMatrixError
from hinfkit.sysmodel import RationalPlant, WeightedObjective
from hinfkit.freqgrid import TIE_RTOL, adaptive_max, default_grid
from hinfkit.verify import _bound_function, lower_bound, weighted_lower_bound

EPS = np.finfo(float).eps
FREQUENCIES = (0.0, 1e-3, 0.37, 1.0, 3.1, 1e2, 1e4)


@st.composite
def descriptor_plants(draw):
    """(plant, Q or None): random E, A, B with n <= 12 and an optional weight."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["general", "identity", "symmetric", "singular"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((n, n)) - 2.0 * np.eye(n)
    if kind == "general":
        E = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
    elif kind == "identity":
        E = np.eye(n)
    elif kind == "symmetric":
        # E = I and A = A^T: A E^T = E A^T holds bitwise, the real path
        E, A = np.eye(n), A + A.T
    else:
        r = draw(st.integers(0, n - 1))
        E = rng.standard_normal((n, r)) @ rng.standard_normal((r, n))
    B = rng.standard_normal((n, m))
    Q = None
    if draw(st.booleans()):
        Q = rng.standard_normal((draw(st.integers(1, n)), n))
    return DescriptorPlant(E, A, B), Q


def spectral(x):
    return np.linalg.norm(x, 2)


def without_descriptor(plant: RationalPlant) -> RationalPlant:
    return RationalPlant._from_tensors(plant.m_num, plant.m_den, plant.n_num, plant.n_den)


def captured_gram(plant, Qp, w):
    """The matrix the bound function hands to eigvalsh at frequency w."""
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def capture(a):
        seen.append(a)
        return eigvalsh(a)

    with mock.patch.object(np.linalg, "eigvalsh", capture):
        try:
            _bound_function(plant, Qp)(w)
        except SingularMatrixError:
            pass
    return seen[0]


def outcome(bound, *args):
    try:
        return bound(*args).value
    except SingularMatrixError:
        return None


BOUND_SETTINGS = settings(
    max_examples=60, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@BOUND_SETTINGS
@given(descriptor_plants())
def test_quadratic_gram_matches_direct_evaluation(case):
    desc, Q = case
    E, A, B = desc.E, desc.A, desc.B
    Qp = None if Q is None else WeightedObjective(Q).pinv
    P = np.eye(desc.n) if Qp is None else Qp @ Qp.T
    for w in FREQUENCIES:
        Mw = 1j * w * E - A
        direct = Mw @ P @ Mw.conj().T + B @ B.T
        S = captured_gram(desc.to_rational(), Qp, w)
        tol = 64 * EPS * ((spectral(A) + w * spectral(E)) ** 2 * spectral(P) + spectral(B) ** 2)
        assert spectral(S - direct) <= tol


@BOUND_SETTINGS
@given(descriptor_plants())
def test_bound_matches_rational_evaluation(case):
    desc, Q = case
    # A singular E puts the sup at the grid edge, where both evaluations
    # carry rounding of order 1e-7; the comparison covers invertible E.
    if np.linalg.matrix_rank(desc.E) < desc.n:
        return
    plant = desc.to_rational()
    bare = without_descriptor(plant)
    pairs = [(outcome(lower_bound, plant), outcome(lower_bound, bare))]
    if Q is not None:
        pairs.append((outcome(weighted_lower_bound, plant, Q), outcome(weighted_lower_bound, bare, Q)))
    for quadratic, rational in pairs:
        assert (quadratic is None) == (rational is None)
        if quadratic is not None:
            assert quadratic == pytest.approx(rational, rel=1e-10)


@pytest.mark.parametrize("linked", [True, False])
def test_singular_gram_raises_at_its_frequency(linked):
    # M(j) = jI - A is singular for A = [[0, 1], [-1, 0]], and B = 0.
    plant = DescriptorPlant(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]], np.zeros((2, 1))).to_rational()
    if not linked:
        plant = without_descriptor(plant)
    with pytest.raises(SingularMatrixError, match="singular at omega=1;"):
        lower_bound(plant)


def bound_work(monkeypatch, plant):
    """(eval_M and eval_N calls, dtype of each eigvalsh argument) of one bound."""
    evals, dtypes = [0], []
    eval_M, eval_N, eigvalsh = RationalPlant.eval_M, RationalPlant.eval_N, np.linalg.eigvalsh

    def counting(method):
        def wrapper(self, w):
            evals[0] += 1
            return method(self, w)
        return wrapper

    def recording_eigvalsh(a):
        dtypes.append(np.asarray(a).dtype)
        return eigvalsh(a)

    monkeypatch.setattr(RationalPlant, "eval_M", counting(eval_M))
    monkeypatch.setattr(RationalPlant, "eval_N", counting(eval_N))
    monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
    lower_bound(plant)
    monkeypatch.undo()
    return evals[0], dtypes


def count_bound_work(monkeypatch, plant):
    """(eval_M and eval_N calls, dtypes of the eigvalsh arguments) of one bound."""
    evals, dtypes = bound_work(monkeypatch, plant)
    return evals, set(dtypes)


def test_descriptor_bound_skips_plant_evaluation(monkeypatch):
    buffer = compile_buffer(random_buffer(np.random.default_rng(0), 50)).to_rational()
    assert count_bound_work(monkeypatch, buffer) == (0, {np.dtype(np.float64)})

    pools = {"alpha": [1.0, 2.0, 1.5], "beta": [2.0, 1.0, 1.0], "tau": [0.5, 1.0, 2.0]}
    cascade, _ = compile_irrigation(NetworkModel("irrigation", 3, [], pools))
    assert count_bound_work(monkeypatch, cascade.to_rational()) == (0, {np.dtype(np.complex128)})

    evals, _ = count_bound_work(monkeypatch, without_descriptor(cascade.to_rational()))
    assert evals > 0


@pytest.mark.parametrize("linked", [True, False])
def test_singular_gram_at_the_high_end_only(linked):
    # S(w) = diag(1 + w^2, 1e-6): the eigenvalue ratio falls below RANK_RTOL
    # first at w = 1000, while w = 0 passes.
    plant = DescriptorPlant(np.diag([1.0, 0.0]), np.diag([-1.0, -1e-3]), np.zeros((2, 1))).to_rational()
    if not linked:
        plant = without_descriptor(plant)
    with pytest.raises(SingularMatrixError, match="singular at omega=1000;"):
        lower_bound(plant)


def test_singular_gram_at_zero_frequency():
    plant = DescriptorPlant(np.eye(2), np.diag([-1.0, -1e-7]), np.zeros((2, 1))).to_rational()
    with pytest.raises(SingularMatrixError, match="singular at omega=0;"):
        lower_bound(plant)


def test_symmetric_descriptor_bound_needs_no_sweep(monkeypatch):
    buffer = compile_buffer(random_buffer(np.random.default_rng(0), 50)).to_rational()
    evals, dtypes = bound_work(monkeypatch, buffer)
    assert evals == 0 and len(dtypes) <= 2

    pools = {"alpha": [1.0, 2.0, 1.5], "beta": [2.0, 1.0, 1.0], "tau": [0.5, 1.0, 2.0]}
    cascade, _ = compile_irrigation(NetworkModel("irrigation", 3, [], pools))
    monkeypatch.setattr(verify, "_bound_peaks_at_zero", lambda *args: None)  # F != 0: the sweep
    _, dtypes = bound_work(monkeypatch, cascade.to_rational())
    assert dtypes.count(np.dtype(np.complex128)) > 2


@st.composite
def symmetric_descriptor_plants(draw):
    """(plant, Q or None) with A E^T = E A^T.

    F = 0 holds bitwise for buffers, E = I and diagonal plants without a
    weight; E = I + 0.1 A^2 keeps it only where rounding allows.
    """
    kind = draw(st.sampled_from(["buffer", "identity", "diagonal", "polynomial"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(4, 12)) if kind == "buffer" else draw(st.integers(1, 8))
    if kind == "buffer":
        desc = compile_buffer(random_buffer(rng, n))
    else:
        R = rng.standard_normal((n, n))
        A = -(R + R.T) - draw(st.sampled_from([0.0, 1.0, 4.0])) * np.eye(n)
        E = np.eye(n)
        if kind == "diagonal":
            A = np.diag(np.diag(A))
            E = np.diag(np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0.1, 3.0, n)))
        elif kind == "polynomial":
            E = np.eye(n) + 0.1 * (A @ A)
        m = draw(st.integers(1, 3))
        B = rng.standard_normal((n, m)) * draw(st.sampled_from([0.0, 1e-3, 1.0]))
        desc = DescriptorPlant(E, A, B)
    Q = None
    weight = draw(st.sampled_from([None, "diagonal", "dense"]))
    if weight == "diagonal":
        Q = np.diag(rng.uniform(0.2, 5.0, desc.n))
    elif weight == "dense":
        Q = rng.standard_normal((draw(st.integers(1, desc.n)), desc.n))
    return desc, Q


GRIDS = (None, np.concatenate(([0.0], np.logspace(-3, 3, 61))), np.logspace(-2, 2, 33))


def sweep_or_error(f, grid):
    try:
        return adaptive_max(f, grid=grid), None
    except SingularMatrixError as exc:
        return None, str(exc)


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(symmetric_descriptor_plants())
def test_symmetric_bound_matches_the_sweep(case):
    desc, Q = case
    plant = desc.to_rational()
    Qp = None if Q is None else WeightedObjective(Q).pinv
    f = _bound_function(plant, Qp)
    for grid in GRIDS:
        ends = default_grid() if grid is None else grid
        want, error = sweep_or_error(f, grid)
        try:
            got = lower_bound(plant, grid) if Q is None else weighted_lower_bound(plant, Q, grid)
        except SingularMatrixError as exc:
            assert str(exc) == error
            continue
        assert error is None
        if not f.nondecreasing:  # F != 0: both sides sweep
            assert got == (want.value, want.omega)
            continue
        assert got.omega == ends.min()
        # Each sweep sample carries rounding of order eps * cond(S(w)), and
        # cond(S(w)) peaks at an end of the grid. A sample read that far
        # above S(w_lo) may also win the tie and move the sweep's peak.
        kappa = max(np.linalg.cond(captured_gram(plant, Qp, w)) for w in (ends.min(), ends.max()))
        assert got.value == pytest.approx(want.value, rel=4 * EPS * kappa, abs=0)
        if 4 * EPS * kappa < TIE_RTOL:
            assert got.omega == want.omega
