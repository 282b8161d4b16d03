"""Independent reference values for the benchmark's correctness checker.

Nothing here imports hinfkit. Every value is computed from the matrices the
generators wrote into the model files, with plain numpy/scipy: closed forms
where the paper gives one, eigenvalues for stability, and a dense frequency
scan with golden-section polishing for norms and bounds.
"""

from __future__ import annotations

import math

import numpy as np

SCAN_POINTS = 2000
SCAN_LO, SCAN_HI = 1e-4, 1e4
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, a, b, rtol=1e-12):
    c, d = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > rtol * (1.0 + b):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return max(fc, fd)


def scan_max(batch_fn, candidates=4):
    """Supremum over omega >= 0 of a scalar function given in batched form.

    ``batch_fn`` maps a 1-d array of frequencies to values. A dense log grid
    finds the largest local maxima; each is polished by golden section.
    """
    grid = np.concatenate(([0.0], np.logspace(math.log10(SCAN_LO), math.log10(SCAN_HI), SCAN_POINTS)))
    values = batch_fn(grid)
    best = float(values.max())
    inner = (values[1:-1] >= values[:-2]) & (values[1:-1] >= values[2:])
    local = [0] if values[0] >= values[1] else []
    local += list(np.nonzero(inner)[0] + 1)
    local.sort(key=lambda i: -values[i])
    scalar = lambda w: float(batch_fn(np.array([w]))[0])
    for i in local[:candidates]:
        a, b = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
        best = max(best, _golden_max(scalar, a, b))
    return best


def _sigma_max(stack):
    return np.linalg.svd(stack, compute_uv=False)[:, 0]


def descriptor_gain(A, B):
    """K = B^T A^{-T}, the zero-frequency sample for E xdot = A x + B u + w."""
    return np.linalg.solve(A, B).T


def descriptor_abscissa(E, A, B, K):
    return float(np.linalg.eigvals(np.linalg.solve(E, A + B @ K)).real.max())


def _loop_norm(loop, K):
    """sup_w sigma_max([I; K] T(jw)^{-1}), where ``loop`` maps frequencies to stacked T(jw)."""

    def f(ws):
        T = loop(ws)
        X = np.linalg.solve(T, np.broadcast_to(np.eye(T.shape[-1]), T.shape))
        return _sigma_max(np.concatenate([X, K[None] @ X], axis=1))

    return scan_max(f)


def descriptor_norm(E, A, B, K):
    """sup_w sigma_max([I; K](jwE - A - BK)^{-1}) by dense scan."""
    Acl = A + B @ K
    return _loop_norm(lambda ws: 1j * ws[:, None, None] * E[None] - Acl[None], K)


def descriptor_bound(E, A, B):
    """sup_w lambda_min((jwE - A)(jwE - A)^* + B B^T)^{-1/2} by dense scan."""
    BBt = B @ B.T

    def f(ws):
        M = 1j * ws[:, None, None] * E[None] - A[None]
        S = M @ np.conj(np.swapaxes(M, 1, 2)) + BBt[None]
        return 1.0 / np.sqrt(np.linalg.eigvalsh(S)[:, 0])

    return scan_max(f)


def buffer_norm(A, B):
    """Closed-form optimal norm of a buffer network: 1/sqrt(lambda_min(A A^T + B B^T))."""
    return 1.0 / math.sqrt(float(np.linalg.eigvalsh(A @ A.T + B @ B.T)[0]))


def quadratic_gain(L, B):
    """Closed-form gain at w0 = 0 for M(s) = E s^2 + F s + L, N = B: K = -B^T L^{-T}."""
    return -np.linalg.solve(L, B).T


def quadratic_abscissa(E, F, L, B, K):
    """Largest real part of the roots of det(E s^2 + F s + L - B K), by companion form."""
    k = E.shape[0]
    C = np.block(
        [
            [np.zeros((k, k)), np.eye(k)],
            [-np.linalg.solve(E, L - B @ K), -np.linalg.solve(E, F)],
        ]
    )
    return float(np.linalg.eigvals(C).real.max())


def quadratic_norm(E, F, L, B, K):
    """sup_w sigma_max([I; K](-w^2 E + jwF + L - BK)^{-1}) by dense scan."""
    P0 = L - B @ K
    return _loop_norm(
        lambda ws: -(ws**2)[:, None, None] * E[None] + 1j * ws[:, None, None] * F[None] + P0[None], K
    )


def droop_norm(omega0, zeta):
    """Optimal norm of the droop plant s/w0^2 + 2 zeta/w0 + 1/s under K = -w0/(2 zeta)."""
    return 1.0 / math.sqrt(1.0 + (2.0 * zeta / omega0) ** 2)


def modal_norm(damping):
    """Every mode m s + d + lam/s under K = -1/d peaks at 1/sqrt(1 + d^2)."""
    return 1.0 / math.sqrt(1.0 + damping**2)


DOUBLE_POLE_NORM = 17.0**-0.5  # M = (s + 2)^2, N = s + 1, K = -1/4
