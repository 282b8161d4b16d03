"""Batched frequency sweeps against per-point evaluation.

Every sweep evaluates its grid in stacks. These tests check that the
stacked values equal the per-point values bitwise at every sample of
``default_grid()``, also when the stack budget splits the grid into many
chunks; that errors name the first failing sample in grid order, as a
per-point loop would; and that a large plant's sweep stays within a small
multiple of the stack budget.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given

from conftest import asym_chain, random_buffer
from test_golden_section import sequential
from test_lower_bound import BOUND_SETTINGS, descriptor_plants, without_descriptor
from test_verify import ROOMS
from hinfkit import (
    DescriptorPlant,
    Gain,
    NetworkModel,
    PoleAtEvaluationError,
    PoleOnAxisError,
    RationalPlant,
    SingularMatrixError,
    StandingAssumptionError,
    close_loop,
    compile_buffer,
    compile_irrigation,
    compile_network,
    descriptor_gain,
    droop_plant,
    eval_closed_rational,
    spectral_norm,
)
from hinfkit import freqgrid, linalg, verify
from hinfkit.freqgrid import adaptive_max, default_grid
from hinfkit.sysmodel import WeightedObjective

GRID = default_grid()

# The default budget, one sample per chunk, and a few samples per chunk.
BUDGETS = (freqgrid.STACK_BYTES, 1, 3000)


def pointwise(f, grid=GRID):
    """f at each sample on its own; NaN where the plant has an entry pole."""
    out = []
    for w in grid:
        try:
            out.append(float(f(w)))
        except PoleAtEvaluationError:
            out.append(math.nan)
    return np.array(out)


def stacked(f, budget, grid=GRID):
    with mock.patch.object(freqgrid, "STACK_BYTES", budget):
        return np.asarray(f(grid), dtype=float)


def first_error(f, grid=GRID):
    """The message of the first exception f raises over the grid, sample by sample."""
    for w in grid:
        try:
            f(w)
        except PoleAtEvaluationError:
            continue
        except Exception as exc:  # the type is compared by the caller
            return type(exc), str(exc)
    return None


def assert_bitwise(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a, b, equal_nan=True)


# ---------------------------------------------------------------------------
# the bound


@BOUND_SETTINGS
@given(descriptor_plants())
def test_descriptor_bound_batched_equals_pointwise(case):
    desc, Q = case
    plant = desc.to_rational()
    weights = [None] if Q is None else [None, WeightedObjective(Q).pinv]
    for Qp in weights:
        f = verify._bound_function(plant, Qp)
        expect = first_error(f)
        values = None if expect else pointwise(f)
        for budget in BUDGETS[::2]:
            if expect:
                with pytest.raises(expect[0]) as err:
                    stacked(f, budget)
                assert str(err.value) == expect[1]
            else:
                assert_bitwise(stacked(f, budget), values)


def rational_bound_at(plant, w):
    """The bound's value at one frequency, straight from M(jw) and N(jw)."""
    Mw, Nw = plant.eval_M(w), plant.eval_N(w)
    return 1.0 / math.sqrt(np.linalg.eigvalsh(Mw @ Mw.conj().T + Nw @ Nw.conj().T)[0])


RATIONAL_CASES = {
    # droop and two_outputs have an entry pole at w = 0, which every sweep skips
    "droop": (droop_plant(2.0, 0.5), Gain([[-0.5]], 2.0)),
    "double_pole": (RationalPlant([[[4.0, 4.0, 1.0]]], [[[1.0, 1.0]]]), Gain([[-0.25]])),
    "two_outputs": (
        RationalPlant([[[2.0, 1.0], [0.3]], [[0.1], ([1.0, 0.4, 1.0], [0.0, 1.0])]],
                      [[[1.0], [0.0]], [[0.5], [1.0]]]),
        Gain([[-0.2, 0.1], [0.05, -0.3]]),
    ),
}


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("name", sorted(RATIONAL_CASES))
def test_rational_bound_batched_equals_pointwise(name, budget):
    plant, _ = RATIONAL_CASES[name]
    f = verify._bound_function(plant, None)
    expect = pointwise(lambda w: rational_bound_at(plant, w))
    assert_bitwise(stacked(f, budget), expect)
    assert_bitwise(pointwise(f), expect)
    assert np.isnan(expect[0]) == (name != "double_pole")


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("name", sorted(RATIONAL_CASES))
def test_grid_sigma_batched_equals_pointwise(name, budget):
    plant, gain = RATIONAL_CASES[name]
    expect = pointwise(lambda w: spectral_norm(eval_closed_rational(plant, gain, w)))
    assert_bitwise(stacked(verify._grid_sigma(plant, gain), budget), expect)
    assert np.isnan(expect[0]) == (name != "double_pole")


def test_grid_norm_skips_the_entry_pole():
    plant, gain = RATIONAL_CASES["droop"]
    res = adaptive_max(verify._grid_sigma(plant, gain), batched=True)
    scalar = adaptive_max(lambda w: spectral_norm(eval_closed_rational(plant, gain, w)))
    assert res == scalar and res.skipped == 1


# ---------------------------------------------------------------------------
# the zero-peak check


ZERO_PEAK_PLANTS = {
    **{f"asym_chain_{a}": asym_chain(a) for a in (0.1, 0.5, 1.0, 2.0, 10.0)},
    "three_state": DescriptorPlant(
        np.eye(3), np.diag([-1.0, -3.0, -2.0]),
        [[-1.0, 0.0, 0.0], [1.0, 1.0, -1.0], [0.0, 0.0, 1.0]]),
    "rotational": DescriptorPlant(np.eye(2), [[-0.1, 5.0], [-5.0, -0.1]], 0.01 * np.eye(2)),
    "rooms": compile_network(ROOMS),
    "singular_E": DescriptorPlant(np.diag([1.0, 0.0]), -np.eye(2), np.eye(2)),
}


def zero_peak_evaluator(plant):
    """(evaluator, grid) that zero_peak_inequality hands to adaptive_min, its level test off."""
    seen = []
    inner = verify.adaptive_min

    def spy(f, grid=None, batched=False):
        seen.append((f, grid, batched))
        return inner(f, grid=grid, batched=batched)

    with mock.patch.object(verify, "adaptive_min", spy), \
            mock.patch.object(verify, "_descriptor_loop_below", lambda *args: None):
        verify.zero_peak_inequality(plant)
    (f, grid, batched), = seen
    assert batched
    return f, grid


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("name", sorted(ZERO_PEAK_PLANTS))
def test_zero_peak_batched_equals_pointwise(name, budget):
    plant = ZERO_PEAK_PLANTS[name]
    f, grid = zero_peak_evaluator(plant)
    E, A, B = plant.E, plant.A, plant.B
    F, G = E @ A.T, A @ A.T + B @ B.T
    thresh = np.linalg.eigvalsh(G)[0]
    FGF = F @ np.linalg.solve(G, F.T)
    FGF = 0.5 * (FGF + FGF.T)
    skew = F.T - F
    eye = np.eye(plant.n)
    expect = np.array([
        np.linalg.eigvalsh((w * w) * FGF + (1j * w) * skew + G - thresh * eye)[0] for w in grid
    ])
    assert_bitwise(stacked(f, budget, grid), expect)
    assert_bitwise(pointwise(f, grid), expect)


# ---------------------------------------------------------------------------
# errors name the first failing sample in grid order


def rotations(*freqs):
    """E = I, B = 0 and A a block rotation: M(jw) = jwI - A is singular at each of freqs."""
    n = 2 * len(freqs)
    A = np.zeros((n, n))
    for i, f in enumerate(freqs):
        A[2 * i, 2 * i + 1], A[2 * i + 1, 2 * i] = f, -f
    return DescriptorPlant(np.eye(n), A, np.zeros((n, 1))).to_rational()


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("linked", [True, False])
def test_bound_names_its_first_singular_sample(linked, budget):
    # Singular at w = 1 and w = 100, both mid-grid; the sweep names w = 1.
    plant = rotations(100.0, 1.0)
    if not linked:
        plant = without_descriptor(plant)
    expect = first_error(verify._bound_function(plant, None))
    assert expect[0] is SingularMatrixError and "omega=1;" in expect[1]
    with mock.patch.object(freqgrid, "STACK_BYTES", budget):
        with pytest.raises(SingularMatrixError) as err:
            verify.lower_bound(plant)
    assert str(err.value) == expect[1]


# M(s) - 3 = (s^2 + 1)(s^2 + 100) vanishes exactly at s = j and s = 10j.
AXIS_POLE_PLANT = RationalPlant([[[103.0, 0.0, 101.0, 0.0, 1.0]]], [[[1.0]]])
AXIS_POLE_GRID = np.array([0.0, 0.25, 0.5, 1.0, 2.0, 10.0, 20.0])


@pytest.mark.parametrize("budget", BUDGETS)
def test_grid_norm_names_its_first_singular_sample(budget):
    gain = Gain([[3.0]])
    expect = first_error(lambda w: eval_closed_rational(AXIS_POLE_PLANT, gain, w), AXIS_POLE_GRID)
    assert expect[0] is PoleOnAxisError and "omega=1;" in expect[1]
    with mock.patch.object(freqgrid, "STACK_BYTES", budget):
        with pytest.raises(PoleOnAxisError) as err:
            verify.hinf_norm_grid(AXIS_POLE_PLANT, gain, AXIS_POLE_GRID)
    assert str(err.value) == expect[1]
    with pytest.raises(PoleOnAxisError) as err:
        eval_closed_rational(AXIS_POLE_PLANT, gain, AXIS_POLE_GRID[4:])
    assert "omega=10;" in str(err.value)


def standing_reference(plant, grid):
    """The standing-assumption check one sample at a time: rank first, then the Gram."""
    for w in grid:
        try:
            Mw, Nw = plant.eval_M(w), plant.eval_N(w)
        except PoleAtEvaluationError:
            continue
        if linalg.rcond(Mw) <= linalg.RANK_RTOL:
            return f"M(j*omega) loses column rank at omega={w:g}"
        lam = np.linalg.eigvalsh(Mw @ Mw.conj().T + Nw @ Nw.conj().T)
        if lam[0] <= linalg.RANK_RTOL * max(lam[-1], 1e-300):
            return f"M*M^* + N*N^* is singular at omega={w:g}"
    return None


# M = diag(s^2 + 1, 1e-5) and N = [1e4 s^2; 0]: M loses rank at w = 1, where the
# Gram is singular too, and the Gram alone turns singular once w > 0.0315.
STANDING_PLANT = RationalPlant(
    [[[1.0, 0.0, 1.0], [0.0]], [[0.0], [1e-5]]], [[[0.0, 0.0, 1e4]], [[0.0]]]
)


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize(
    "grid, message",
    [(GRID, "M*M^* + N*N^* is singular at omega=0.0331131"),
     (np.array([0.0, 1e-3, 1.0, 2.0]), "M(j*omega) loses column rank at omega=1")],
    ids=["gram-first", "rank-before-gram"],
)
def test_standing_check_names_its_first_violation(grid, message, budget):
    assert standing_reference(STANDING_PLANT, grid) == message
    with mock.patch.object(freqgrid, "STACK_BYTES", budget):
        with pytest.raises(StandingAssumptionError) as err:
            STANDING_PLANT.check_standing_assumptions(grid)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# the sweep itself


def test_grid_pass_is_one_call(monkeypatch):
    # The grid is one call; each refinement then takes its first pair in one call
    # and at most one stack of 2^D - 1 samples per D golden steps.
    plant, _ = RATIONAL_CASES["two_outputs"]
    f = verify._bound_function(plant, None)
    sizes, walks = [], []
    golden_max = freqgrid._golden_max

    def callback(w):
        sizes.append(np.size(w))
        return f(w)

    def safe(x):
        v = float(f(np.array([x]))[0])
        return -math.inf if math.isnan(v) else v

    def walk(g, a, b, *depth):
        walks.append((len(sizes), len(sequential(safe, a, b)[2]) - 2))
        return golden_max(g, a, b, *depth)

    monkeypatch.setattr(freqgrid, "_golden_max", walk)
    res = adaptive_max(callback, batched=True)
    monkeypatch.undo()
    depth = freqgrid._GOLDEN_DEPTH
    assert sizes[0] == GRID.size and walks
    assert max(sizes[1:]) <= 2**depth - 1
    ends = [start for start, _ in walks[1:]] + [len(sizes)]
    for (start, steps), end in zip(walks, ends):
        assert end - start <= math.ceil(steps / depth) + 1
    assert res == adaptive_max(f)


def test_large_cascade_bound_stays_within_the_stack_budget():
    # 100 pools, n = 200, F != 0: the unchunked sweep would stack every sample at once.
    rng = np.random.default_rng(3)
    pools = {key: list(rng.uniform(0.5, 3.0, 100)) for key in ("alpha", "beta", "tau")}
    plant = compile_irrigation(NetworkModel("irrigation", 100, [], pools))[0].to_rational()
    grid = default_grid(points=40)

    def peak_of(budget):  # the sweep's peak: the level test at w = 0 is off
        with mock.patch.object(freqgrid, "STACK_BYTES", budget), \
                mock.patch.object(verify, "_bound_peaks_at_zero", lambda *args: None):
            tracemalloc.start()
            try:
                bound = verify.lower_bound(plant, grid)
                return bound, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    bound, peak = peak_of(freqgrid.STACK_BYTES)
    assert peak < 3 * freqgrid.STACK_BYTES
    assert peak_of(1 << 40)[1] > 3 * freqgrid.STACK_BYTES  # the check can fail
    sweep = adaptive_max(verify._bound_function(plant, None), grid=grid)
    assert (bound.value, bound.omega) == (sweep.value, sweep.omega)


# ---------------------------------------------------------------------------
# sigma0 on the level-set route


def test_level_set_sigma0_reuses_the_norm_seed(monkeypatch):
    # omega0 = 0: hinf_norm_ss evaluates the Gram at w = 0 for its seed, and sigma0
    # reads that value; C^T C is formed by the one evaluator both share.
    plant = compile_buffer(random_buffer(np.random.default_rng(1), 20))
    built, at_zero = [0], [0]
    init, sample = verify._GramSigma.__init__, verify._GramSigma._sample

    def counting_init(self, loop):
        built[0] += 1
        init(self, loop)

    def counting_sample(self, w):
        at_zero[0] += w == 0.0
        return sample(self, w)

    monkeypatch.setattr(verify._GramSigma, "__init__", counting_init)
    monkeypatch.setattr(verify._GramSigma, "_sample", counting_sample)
    cert = verify.certify_optimality(plant.to_rational(), descriptor_gain(plant))
    assert cert.details["method"] == "state-space" and cert.details["omega0"] == 0.0
    assert cert.verdict == "optimal"
    assert (built[0], at_zero[0]) == (1, 1)
    monkeypatch.undo()
    loop = close_loop(plant, descriptor_gain(plant))
    assert cert.details["omega0_sigma_max"] == verify._GramSigma(loop)(0.0)
