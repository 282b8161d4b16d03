"""Golden-section refinement in stacks against a sequential copy.

``freqgrid._golden_max`` evaluates every sample the next few golden steps
could need in one stacked call. The sequential search below is a copy of
the one-sample-per-call loop; it shares no code with freqgrid. Every
refinement must return bitwise the same (value, midpoint), every sample of
the sequential search must appear in some stacked call, and an exception
may only come from a frequency the sequential search visits.
"""

import math
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_freqgrid import two_peaks
from hinfkit import Gain, PoleAtEvaluationError, PoleOnAxisError, RationalPlant, droop_plant
from hinfkit import freqgrid, verify
from hinfkit.freqgrid import adaptive_max, adaptive_min

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
GOLDEN_MAX = freqgrid._golden_max
DEPTH = freqgrid._GOLDEN_DEPTH


def sequential(f, a, b):
    """(best, midpoint, samples) of golden-section search with one scalar call per sample."""
    c, d = b - INVPHI * (b - a), a + INVPHI * (b - a)
    fc, fd = f(c), f(d)
    samples = [c, d]
    while len(samples) < 202 and b - a > 1e-6 * (1.0 + b):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - INVPHI * (b - a)
            fc = f(c)
            samples.append(c)
        else:
            a, c, fc = c, d, fd
            d = a + INVPHI * (b - a)
            fd = f(d)
            samples.append(d)
    return max(fc, fd), 0.5 * (a + b), samples


def bits(*values):
    return [float(v).hex() for v in values]


def walk(f, a, b, *depth):
    """(value, midpoint, stacked calls) of freqgrid's search on [a, b]."""
    calls = []

    def recording(xs):
        calls.append(list(xs))
        return f(xs)

    value, mid = GOLDEN_MAX(recording, a, b, *depth)
    return value, mid, calls


@contextmanager
def checked_refinements():
    """Check every refinement adaptive_max runs against the sequential copy.

    Yields a list that collects (stacked calls, sequential samples), one per refinement.
    """
    log = []

    def checked(f, a, b, *depth):
        value, mid, calls = walk(f, a, b, *depth)
        want, want_mid, samples = sequential(lambda x: f([x])[0], a, b)
        assert bits(value, mid) == bits(want, want_mid)
        assert set(samples) <= {x for call in calls for x in call}
        assert max(map(len, calls[1:]), default=0) <= 2 ** (depth[0] if depth else DEPTH) - 1
        log.append((calls, samples))
        return value, mid

    with mock.patch.object(freqgrid, "_golden_max", checked):
        yield log


def batched(f):
    """A batched search of a scalar function, plus the same through the scalar path."""
    with checked_refinements() as log:
        adaptive_max(f, batched=True)
        adaptive_max(f)
    assert log
    return log


# ---------------------------------------------------------------------------
# the walk returns the sequential search's bits


FUNCTIONS = {
    "peak_at_zero": lambda w: 1.0 / (w * w + 4.0),
    "interior": lambda w: w * w / ((4 - w * w) ** 2 + w * w),
    "flat": lambda w: np.ones_like(w),
    "two_peaks": two_peaks(1.0, 1.0, 10.0**0.70, 1.05),
}


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_freqgrid_functions(name):
    log = batched(FUNCTIONS[name])
    # The scalar path fetches one sample per call after the first pair.
    scalar = log[len(log) // 2:]
    assert all(len(call) == 1 for calls, _ in scalar for call in calls[1:])


def test_entry_pole_at_zero_is_skipped():
    def f(w):
        if w == 0.0:
            raise PoleAtEvaluationError("pole")
        return 1.0 / (1.0 + (w - 1.0) ** 2)

    with checked_refinements() as log:
        res = adaptive_max(f)
    assert res.skipped == 1 and log


def test_minimum_search():
    with checked_refinements() as log:
        res = adaptive_min(lambda w: (w - 3.0) ** 2, batched=True)
    assert res.omega == pytest.approx(3.0, abs=5e-6) and log


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.floats(-2.0, 2.0), st.sampled_from([-1.0, 1.0]), st.floats(0.5, 1.5), st.floats(0.3, 0.7),
       st.floats(0.5, 2.0), st.floats(1.01, 1.5))
def test_two_peaks_family(lw1, side, dist, frac, h1, ratio):
    step = int((lw1 + side * dist + 4.0) // 0.04)
    w1, w2 = 10.0**lw1, 10.0 ** (-4.0 + 0.04 * (step + frac))
    batched(two_peaks(w1, h1, w2, ratio * h1))


def quadratic_plant(rng, k, m=2):
    """Dense M(s) = L + F s + E s^2 with N = B, and a gain for it."""
    X = rng.standard_normal((k, k))
    L = X @ X.T / k + np.eye(k)
    F = 2.0 * np.eye(k) + 0.3 * rng.standard_normal((k, k)) / math.sqrt(k)
    E = np.eye(k) + 0.1 * rng.standard_normal((k, k)) / math.sqrt(k)
    B = rng.standard_normal((k, m))
    M = [[[L[i, j], F[i, j], E[i, j]] for j in range(k)] for i in range(k)]
    N = [[[B[i, j]] for j in range(m)] for i in range(k)]
    return RationalPlant(M, N), Gain(-0.5 * np.linalg.solve(L, B).T)


def random_plants(seed=5, droops=120, dense=80):
    rng = np.random.default_rng(seed)
    for _ in range(droops):
        omega0, zeta = 10.0 ** rng.uniform(-1.0, 1.0), 10.0 ** rng.uniform(-3.0, 0.0)
        yield droop_plant(omega0, zeta), Gain([[-rng.uniform(0.2, 2.0)]])
    for i in range(dense):
        yield quadratic_plant(rng, 2 + i % 4)


def test_random_plants_through_the_norm_and_the_bound():
    walks = 0
    for plant, gain in random_plants():
        for f in (verify._grid_sigma(plant, gain), verify._bound_function(plant, None)):
            with checked_refinements() as log:
                adaptive_max(f, batched=True)
            walks += len(log)
    assert walks >= 400


def test_entry_pole_sample_inside_the_bracket():
    f = two_peaks(1.0, 1.0, 10.0**0.70, 1.05)
    with checked_refinements() as log:
        adaptive_max(f, batched=True)
    calls, samples = log[0]
    pole = samples[5]
    # The same search with an entry pole (NaN, read as -inf) at its sixth sample.
    with checked_refinements() as log:
        adaptive_max(lambda w: np.where(w == pole, np.nan, f(w)), batched=True)
    assert pole in log[0][1]


def test_evaluation_cap():
    # A bracket of 1e40 around a peak at 0 is still 1e-2 wide after 200 steps.
    with checked_refinements() as log:
        res = adaptive_max(lambda w: -w, grid=[0.0, 1e40], batched=True)
    (calls, samples), = log
    assert len(samples) == 202 and res.omega == 0.0
    assert len(calls) == 1 + math.ceil(200 / DEPTH)


# ---------------------------------------------------------------------------
# errors come only from frequencies the sequential search visits


def axis_pole_loop(x, resonance=None):
    """(sigma_max evaluator, safe batched evaluator) of a loop whose M - N K is 0 at s = jx exactly.

    M = s^2 + x^2 with K = 0; with a resonance, M = diag(1e-6 (1 + 0.2 s + s^2), s^2 + x^2),
    whose first entry sets sigma_max everywhere but within about 1e-6 / x of x.
    """
    M = [[[x * x, 0.0, 1.0]]]
    if resonance:
        M = [[[1e-6, 2e-7, 1e-6], [0.0]], [[0.0], M[0][0]]]
    plant = RationalPlant(M, [[[1.0]]] * len(M))
    g = verify._grid_sigma(plant, Gain(np.zeros((1, len(M)))))
    return g, lambda xs: [-math.inf if math.isnan(v) else float(v) for v in g(np.array(xs))]


def test_speculative_only_pole_leaves_the_result_unchanged():
    _, smooth = axis_pole_loop(4.0, resonance=True)
    _, _, calls = walk(smooth, 0.5, 2.0)
    samples = set(sequential(lambda x: smooth([x])[0], 0.5, 2.0)[2])
    # The first two stacks: their spare samples lie far from the path.
    spare = [x for call in calls[1:3] for x in call if x not in samples]
    assert len(spare) >= 16
    for x in spare:
        g, f = axis_pole_loop(x, resonance=True)
        with pytest.raises(PoleOnAxisError, match=f"omega={x:g};"):
            g(np.array([x]))
        value, mid, calls = walk(f, 0.5, 2.0)
        want, want_mid, samples = sequential(lambda w: f([w])[0], 0.5, 2.0)
        assert x not in samples and any(x in call for call in calls)
        assert bits(value, mid) == bits(want, want_mid)


def test_pole_on_the_path_raises_the_sequential_error():
    # With the pole at the search's third sample (c < d, so fc > fd: the step moves left).
    a, b = 0.5, 2.0
    c, d = b - INVPHI * (b - a), a + INVPHI * (b - a)
    x = d - INVPHI * (d - a)
    _, f = axis_pole_loop(x)
    with pytest.raises(PoleOnAxisError) as want:
        sequential(lambda w: f([w])[0], a, b)
    assert f"omega={x:g};" in str(want.value)
    with pytest.raises(PoleOnAxisError) as got:
        walk(f, a, b)
    assert str(got.value) == str(want.value)


def test_first_pair_names_c_before_d():
    # A bracket symmetric about 0 puts c = -d, and an even M vanishes at both.
    b = 1.0 / (2.0 * INVPHI - 1.0)
    d = -b + INVPHI * (b + b)
    _, f = axis_pole_loop(d)
    for w in (-d, d):
        with pytest.raises(PoleOnAxisError, match=f"omega={w:g};"):
            f([w])
    with pytest.raises(PoleOnAxisError) as err:
        walk(f, -b, b)
    assert f"omega={-d:g};" in str(err.value)
