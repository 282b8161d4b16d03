"""Frequency grids and adaptive peak search over them.

All sweeps are one-sided (omega >= 0): every plant handled here has real
data, so responses are even in omega. Grid evaluations are independent of
each other; the reduction (max by value, then min by frequency) is
deterministic regardless of evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError, NumericalError, PoleAtEvaluationError

GRID_MIN = 1e-4
GRID_MAX = 1e4
GRID_POINTS = 201

# Grid refinement stops once the golden-section bracket around a local
# maximum is narrower than PEAK_WINDOW_RTOL * (1 + omega).
PEAK_WINDOW_RTOL = 1e-6

# Candidates within this relative distance of the best value tie; the
# smallest frequency among them is reported.
TIE_RTOL = 1e-9

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def default_grid(lo: float = GRID_MIN, hi: float = GRID_MAX, points: int = GRID_POINTS) -> np.ndarray:
    """Logarithmic grid on [lo, hi] with omega = 0 prepended."""
    if not (0 < lo < hi) or points < 2:
        raise InvalidInputError("grid requires 0 < lo < hi and at least two points")
    return np.concatenate(([0.0], np.logspace(math.log10(lo), math.log10(hi), points)))


@dataclass
class PeakResult:
    """Outcome of an adaptive maximum search over frequency."""

    value: float
    omega: float
    skipped: int = 0       # grid points dropped because of entry poles


def _golden_max(f, a, b):
    """Golden-section maximization on [a, b]; returns (best, midpoint)."""
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    evaluations = 2
    while evaluations < 202 and b - a > PEAK_WINDOW_RTOL * (1.0 + b):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
        evaluations += 1
    return max(fc, fd), 0.5 * (a + b)


def adaptive_max(f, grid=None) -> PeakResult:
    """Maximize ``f`` over a frequency grid with local refinement.

    ``f`` may raise PoleAtEvaluationError at isolated frequencies (entry
    poles of a rational plant); such points are skipped. Any other exception
    propagates. Local maxima of the grid within 0.1% of the grid-wide best
    are each refined by golden-section search until the surrounding bracket
    is narrower than ``PEAK_WINDOW_RTOL * (1 + omega)``.
    """
    if grid is None:
        grid = default_grid()
    omegas, values = [], []
    skipped = 0
    for w in np.asarray(grid, dtype=float):
        try:
            v = float(f(w))
        except PoleAtEvaluationError:
            skipped += 1
            continue
        omegas.append(float(w))
        values.append(v)
    if not omegas:
        raise NumericalError("every grid point was skipped; nothing to maximize")
    omegas = np.asarray(omegas)
    values = np.asarray(values)

    vmax = float(values.max())
    n = len(omegas)
    local = []
    for i in range(n):
        left = values[i - 1] if i > 0 else -np.inf
        right = values[i + 1] if i < n - 1 else -np.inf
        if values[i] >= left and values[i] >= right:
            local.append(i)
    threshold = vmax - 1e-3 * (abs(vmax) + 1e-300)
    candidates = [i for i in local if values[i] >= threshold]
    candidates.sort(key=lambda i: -values[i])
    candidates = candidates[:8]

    best_value = vmax
    refined = []  # (omega, value)
    for i in candidates:
        a = omegas[i - 1] if i > 0 else omegas[i]
        b = omegas[i + 1] if i < n - 1 else omegas[i]
        if b <= a:
            refined.append((omegas[i], values[i]))
            continue

        def safe(x):
            try:
                return float(f(x))
            except PoleAtEvaluationError:
                return -np.inf

        v, mid = _golden_max(safe, a, b)
        v = max(v, values[i])
        best_value = max(best_value, v)
        refined.append((mid, v))

    # Tie-break: smallest frequency whose value is within TIE_RTOL of the
    # best, considering plain grid points and refined peaks alike.
    tie = best_value - TIE_RTOL * (abs(best_value) + 1e-300)
    contenders = [w for w, v in zip(omegas, values) if v >= tie]
    contenders += [w for w, v in refined if v >= tie]
    return PeakResult(value=best_value, omega=float(min(contenders)), skipped=skipped)


def adaptive_min(f, grid=None) -> PeakResult:
    """Minimize ``f`` via adaptive_max of its negation."""
    res = adaptive_max(lambda w: -f(w), grid=grid)
    return PeakResult(value=-res.value, omega=res.omega, skipped=res.skipped)
