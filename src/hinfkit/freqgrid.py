"""Frequency grids and adaptive peak search over them.

All sweeps are one-sided (omega >= 0): every plant handled here has real
data, so responses are even in omega. A sweep evaluates the whole grid in
one batched call, which stacks the per-frequency matrices and hands them to
numpy's stacked eigvalsh, solve and svd; golden-section refinement then
searches around the eight highest local maxima of the grid, whatever their
value. It takes the sequential search's samples and comparisons, but
evaluates each sample it lacks in one stack with every sample the next few
steps could need. A batched evaluator splits large plants into chunks whose
stacks stay under STACK_BYTES. The reduction (max by value, then min by
frequency) does not depend on evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError, PoleAtEvaluationError

GRID_MIN = 1e-4
GRID_MAX = 1e4
GRID_POINTS = 201

# Grid refinement stops once the golden-section bracket around a local
# maximum is narrower than PEAK_WINDOW_RTOL * (1 + omega).
PEAK_WINDOW_RTOL = 1e-6

# Candidates within this relative distance of the best value tie; the
# smallest frequency among them is reported.
TIE_RTOL = 1e-9

# Byte budget of one stacked evaluation: a batched evaluator splits the grid
# into chunks whose per-sample matrices together stay under it.
STACK_BYTES = 1 << 22

# Golden steps one refinement call serves: it evaluates the sample a step needs
# and every sample the next _GOLDEN_DEPTH - 1 steps could need, 2^D - 1 in all.
_GOLDEN_DEPTH = 4

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def default_grid(lo: float = GRID_MIN, hi: float = GRID_MAX, points: int = GRID_POINTS) -> np.ndarray:
    """Logarithmic grid on [lo, hi] with omega = 0 prepended."""
    if not (0 < lo < hi) or points < 2:
        raise InvalidInputError("grid requires 0 < lo < hi and at least two points")
    return np.concatenate(([0.0], np.logspace(math.log10(lo), math.log10(hi), points)))


def chunks(omegas: np.ndarray, sample_bytes: int) -> list:
    """Consecutive slices of ``omegas`` that fit STACK_BYTES.

    ``sample_bytes`` is about what one sample's stacked matrices take,
    temporaries included.
    """
    step = max(1, STACK_BYTES // max(sample_bytes, 1))
    return [omegas[i : i + step] for i in range(0, len(omegas), step)]


def chunked(f, omegas, sample_bytes: int):
    """``f`` over ``omegas`` in grid order, one call per chunk of ``chunks``.

    ``f`` maps a 1-D array of frequencies to an array of values; a scalar
    frequency goes to ``f`` as it is.
    """
    w = np.asarray(omegas, dtype=float)
    if w.ndim == 0:
        return f(w)
    return np.concatenate([f(c) for c in chunks(w, sample_bytes)])


def kept_samples(grid: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Grid and values without NaN samples (entry poles); PoleAtEvaluationError if none is left."""
    kept = ~np.isnan(values)
    if not kept.any():
        raise PoleAtEvaluationError("every grid frequency is an entry pole of the plant")
    return grid[kept], values[kept]


@dataclass
class PeakResult:
    """Outcome of an adaptive maximum search over frequency."""

    value: float
    omega: float
    skipped: int = 0       # grid points dropped because of entry poles


def _golden_steps(a, b, c, d):
    """The (bracket, new sample) pairs after one golden step: fc >= fd, then fc < fd."""
    c2 = d - _INVPHI * (d - a)
    d2 = c + _INVPHI * (b - c)
    return ((a, d, c2, c), c2), ((c, b, d, d2), d2)


def _golden_max(f, a, b, depth=_GOLDEN_DEPTH):
    """Golden-section maximization on [a, b]; returns (best, midpoint).

    ``f`` maps a list of frequencies to their values. The search compares
    the samples of the sequential search in its order; a sample it does not
    hold yet is fetched in one call together with every sample the next
    ``depth - 1`` steps could need. If that stack raises, the sample is
    evaluated alone, so only a frequency the search visits can raise.
    """

    def going(s, evaluations):
        return evaluations < 202 and s[1] - s[0] > PEAK_WINDOW_RTOL * (1.0 + s[1])

    def fetch(state, x, evaluations):
        xs, level = [x], [(state, x)]
        for e in range(evaluations, evaluations + depth - 1):
            level = [t for s, _ in level if going(s, e) for t in _golden_steps(*s)]
            xs += [w for _, w in level]
        try:
            return zip(xs, f(xs))
        except Exception:
            if len(xs) == 1:
                raise
            return zip([x], f([x]))

    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f([c, d])
    held, state, evaluations = {}, (a, b, c, d), 2
    while going(state, evaluations):
        state, x = _golden_steps(*state)[not fc >= fd]
        evaluations += 1
        if x not in held:
            held = dict(fetch(state, x, evaluations))
        fc, fd = (held[x], fc) if fc >= fd else (fd, held[x])
    return max(fc, fd), 0.5 * (state[0] + state[1])


def _pointwise(f):
    """A scalar callable as a batched one; an entry pole becomes NaN."""

    def batched(omegas):
        values = []
        for w in omegas:
            try:
                values.append(float(f(w)))
            except PoleAtEvaluationError:
                values.append(math.nan)
        return np.array(values)

    return batched


def adaptive_max(f, grid=None, batched: bool = False) -> PeakResult:
    """Maximize ``f`` over a frequency grid with local refinement.

    With ``batched``, ``f`` maps an array of frequencies to an array of
    values, and the grid is evaluated in one call; a NaN value marks a
    skipped sample (an entry pole of a rational plant). Otherwise ``f`` maps
    one frequency to one value and may raise PoleAtEvaluationError at
    isolated frequencies, which skips them; ``kept_samples`` raises it when
    no sample is left. Any other exception propagates.
    The eight highest local maxima of the grid, whatever their value (ties
    in grid order), are each refined by golden-section search until the
    surrounding bracket is narrower than ``PEAK_WINDOW_RTOL * (1 + omega)``.
    A batched ``f`` gets up to 2^_GOLDEN_DEPTH - 1 refinement samples per
    call, a scalar one a single sample; the result is the same.
    """
    g = f if batched else _pointwise(f)
    grid = default_grid() if grid is None else np.asarray(grid, dtype=float)
    omegas, values = kept_samples(grid, np.asarray(g(grid), dtype=float))

    left = np.concatenate(([-np.inf], values[:-1]))
    right = np.concatenate((values[1:], [-np.inf]))
    local = np.flatnonzero((values >= left) & (values >= right))
    candidates = sorted(local.tolist(), key=lambda i: -values[i])[:8]

    def safe(xs):
        return [-math.inf if math.isnan(v) else v for v in map(float, g(np.array(xs)))]

    best_value = float(values.max())
    refined = []  # (omega, value)
    for i in candidates:
        a, b = omegas[max(i - 1, 0)], omegas[min(i + 1, len(omegas) - 1)]
        if b <= a:  # no bracket: the sample itself already contends
            continue
        v, mid = _golden_max(safe, a, b, _GOLDEN_DEPTH if batched else 1)
        v = max(v, values[i])
        best_value = max(best_value, v)
        refined.append((mid, v))

    # Tie-break: smallest frequency whose value is within TIE_RTOL of the
    # best, considering plain grid points and refined peaks alike.
    tie = best_value - TIE_RTOL * (abs(best_value) + 1e-300)
    contenders = list(omegas[values >= tie])
    contenders += [w for w, v in refined if v >= tie]
    return PeakResult(best_value, float(min(contenders)), skipped=grid.size - omegas.size)


def adaptive_min(f, grid=None, batched: bool = False) -> PeakResult:
    """Minimize ``f`` via adaptive_max of its negation."""
    res = adaptive_max(lambda w: -f(w), grid=grid, batched=batched)
    return PeakResult(value=-res.value, omega=res.omega, skipped=res.skipped)
