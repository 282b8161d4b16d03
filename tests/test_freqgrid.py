import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hinfkit.exceptions import PoleAtEvaluationError
from hinfkit.freqgrid import adaptive_max, adaptive_min, default_grid


def test_default_grid_starts_at_zero():
    g = default_grid()
    assert g[0] == 0.0
    assert g[1] == pytest.approx(1e-4)
    assert g[-1] == pytest.approx(1e4)
    assert len(g) == 202


def test_peak_at_zero():
    res = adaptive_max(lambda w: 1.0 / (w * w + 4.0))
    assert res.omega == 0.0
    assert res.value == pytest.approx(0.25, rel=1e-12)


def test_interior_peak_located():
    # maximum of w^2 / ((4 - w^2)^2 + w^2) is at w = 2
    res = adaptive_max(lambda w: w * w / ((4 - w * w) ** 2 + w * w))
    assert res.omega == pytest.approx(2.0, abs=5e-6)
    assert res.value == pytest.approx(1.0, rel=1e-9)


def test_pole_points_skipped():
    def f(w):
        if w == 0.0:
            raise PoleAtEvaluationError("pole")
        return 1.0 / (1.0 + (w - 1.0) ** 2)

    res = adaptive_max(f)
    assert res.skipped == 1
    assert res.omega == pytest.approx(1.0, abs=1e-5)


def test_all_points_skipped_is_an_error():
    def f(w):
        raise PoleAtEvaluationError("pole")

    with pytest.raises(PoleAtEvaluationError, match="every grid frequency is an entry pole"):
        adaptive_max(f)


def test_adaptive_min_mirrors_max():
    res = adaptive_min(lambda w: (w - 3.0) ** 2)
    assert res.omega == pytest.approx(3.0, abs=5e-6)
    assert res.value == pytest.approx(0.0, abs=1e-9)


def test_tie_break_prefers_smallest_frequency():
    res = adaptive_max(lambda w: 1.0)  # flat: every point ties
    assert res.omega == 0.0


def two_peaks(w1, h1, w2, h2):
    """A broad peak of height h1 at w1 (relative width 0.3) plus a narrow one, h2 at w2 (0.05)."""
    return lambda w: (h1 / (1.0 + ((w - w1) / (0.3 * w1)) ** 2)
                      + h2 / (1.0 + ((w - w2) / (0.05 * w2)) ** 2))


def dense_max(f, *centres):
    """Best of 100001 samples within 20% of each centre."""
    return max(float(np.max(f(np.linspace(0.8 * c, 1.2 * c, 100001)))) for c in centres)


def test_peak_below_the_best_sample_is_refined():
    # The narrow peak sits midway between two grid points, where it reads 0.60,
    # below the broad peak's 1.0; it is still the higher maximum.
    w2 = 10.0**0.70
    f = two_peaks(1.0, 1.0, w2, 1.05)
    res = adaptive_max(f)
    assert res.value == pytest.approx(1.0555607768789397, rel=1e-9)
    assert res.value == pytest.approx(dense_max(f, 1.0, w2), rel=1e-8)
    assert res.omega == pytest.approx(w2, rel=1e-3)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.floats(-2.0, 2.0), st.sampled_from([-1.0, 1.0]), st.floats(0.5, 1.5), st.floats(0.3, 0.7),
       st.floats(0.5, 2.0), st.floats(1.01, 1.5))
def test_highest_local_maximum_is_refined_whatever_its_sample(lw1, side, dist, frac, h1, ratio):
    # The narrow peak lies between grid points (fraction frac of a 0.04-decade step)
    # at least half a decade from the broad one, and is higher by ratio.
    step = int((lw1 + side * dist + 4.0) // 0.04)
    w1, w2 = 10.0**lw1, 10.0 ** (-4.0 + 0.04 * (step + frac))
    f = two_peaks(w1, h1, w2, ratio * h1)
    # The golden bracket is 1e-6 (1 + omega) wide, coarse for a peak near w = 0.01.
    assert adaptive_max(f).value == pytest.approx(dense_max(f, w1, w2), rel=1e-6)
