"""Machine-speed reference for the benchmark's op timings.

On a shared machine the same op takes up to 1.6 times as long from one
minute to the next, because other tenants load the cores. The worker times
``kernel_s`` (fixed work that never touches hinfkit: small LAPACK calls
and interpreter loops, the mix hinfkit's small ops spend their time on)
right before every op, and run.py multiplies each op time by ``scale``.
A slower moment slows op and kernel alike, so the scaled times move with
the program and not with the neighbours.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The kernel's median time on the 2-core x86-64 machine the seed figures
# were taken on; scaled op times are seconds at that speed.
REFERENCE_S = 0.003
# The machine's speed during an op is the median kernel time within this
# many seconds of it, or within the op's own length if that is longer.
WINDOW_S = 5.0
# Ops this long are not scaled. Today they are the N = 200 buffer
# certificates, which spend their time inside large LAPACK calls; the
# neighbours slow those much less than interpreter-bound code, so the
# kernel overcorrects them (spread of buffer-ladder ops_per_s over five
# seeds: 7 % unscaled, 12-29 % scaled), and their own length averages
# the machine's speed over many seconds.
LONG_OP_S = 10.0

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((12, 12))
_AC = _A + 1j * _A.T


def kernel_s() -> float:
    """Wall time of one pass of the fixed reference work."""
    t0 = time.perf_counter()
    for _ in range(20):
        np.linalg.eigvals(_A)
        np.linalg.svd(_AC, compute_uv=False)
        np.linalg.solve(_A, _A)
        s = 0.0
        for i in range(300):
            s += i * 0.5
        {k: 2 * k for k in range(50)}
    return time.perf_counter() - t0


def scale(start: float, seconds: float, kernels) -> float:
    """Factor that takes an op's wall time to the reference speed.

    ``kernels`` holds (time, kernel seconds) pairs from the same process
    and clock as ``start``; the kernel timed right before the op is always
    within the window.
    """
    if seconds >= LONG_OP_S:
        return 1.0
    reach = max(WINDOW_S, seconds)
    near = [k for t, k in kernels if start - reach <= t <= start + seconds + reach]
    return REFERENCE_S / statistics.median(near)
