"""Riccati-based suboptimal synthesis for comparison against closed-form gains.

Solves the state-feedback attenuation problem for
    xdot = A x + B1 d + B2 u,    z = [C1 x; u]
by bisection over gamma: at each level the algebraic Riccati equation

    A^T P + P A - P (B2 B2^T - gamma^-2 B1 B1^T) P + C1^T C1 = 0

is solved through the stable invariant subspace of its Hamiltonian, and
feasibility requires a stabilizing positive semidefinite P.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DimensionError,
    HypothesisViolationError,
    InvalidInputError,
    NumericalError,
    UnstabilizableError,
)
from .linalg import RANK_RTOL, _require_finite, rcond
from .sysmodel import DescriptorPlant

# Hamiltonian eigenvalues within this relative distance of the imaginary
# axis make the ARE boundary-indeterminate; the level is treated as
# infeasible so bisection approaches the optimum from above.
BOUNDARY_RTOL = 1e-9

GAMMA_MAX = 1e6


@dataclass
class AreProblem:
    """Data of the state-feedback attenuation problem."""

    A: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    C1: np.ndarray

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.B1 = np.atleast_2d(np.asarray(self.B1, dtype=float))
        self.B2 = np.atleast_2d(np.asarray(self.B2, dtype=float))
        self.C1 = np.atleast_2d(np.asarray(self.C1, dtype=float))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise DimensionError("A must be square")
        if self.B1.shape[0] != n or self.B2.shape[0] != n:
            raise DimensionError("B1 and B2 must have as many rows as A")
        if self.C1.shape[1] != n:
            raise DimensionError("C1 must have as many columns as A")
        for name, m in (("A", self.A), ("B1", self.B1), ("B2", self.B2), ("C1", self.C1)):
            _require_finite(m, name)
        self._check_stabilizable()

    def _check_stabilizable(self):
        # Eigenvector form of the PBH test on closed-right-half-plane modes:
        # a left eigenvector of A orthogonal to the columns of B2 marks an
        # uncontrollable unstable mode.
        lam, W = np.linalg.eig(self.A.T)
        scale = np.linalg.norm(self.B2, 2)
        if scale == 0.0:
            scale = 1.0
        for i in range(lam.size):
            if lam[i].real >= -1e-12 * max(1.0, abs(lam[i])):
                w = W[:, i]
                if np.linalg.norm(w.conj() @ self.B2) <= 1e-10 * scale * np.linalg.norm(w):
                    raise HypothesisViolationError(
                        f"(A, B2) is not stabilizable: uncontrollable mode at {lam[i]:.4g}"
                    )

    @classmethod
    def from_descriptor(cls, plant: DescriptorPlant) -> "AreProblem":
        """Full-state problem matching the closed-form setup, normalized to E = I."""
        n = plant.n
        Einv = np.linalg.solve(plant.E, np.eye(n))
        return cls(A=Einv @ plant.A, B1=Einv, B2=Einv @ plant.B, C1=np.eye(n))


def are_feasible(problem: AreProblem, gamma: float):
    """Stabilizing ARE solution at level gamma, or None when infeasible.

    Returns (P, K) with K = -B2^T P on success. Eigenvalues of the
    Hamiltonian within BOUNDARY_RTOL of the imaginary axis make the level
    indeterminate, which counts as infeasible.
    """
    if gamma <= 0:
        raise InvalidInputError("gamma must be positive")
    A, B1, B2, C1 = problem.A, problem.B1, problem.B2, problem.C1
    n = A.shape[0]
    R = (B1 @ B1.T) / gamma**2 - B2 @ B2.T
    H = np.block([[A, R], [-C1.T @ C1, -A.T]])
    lam, V = np.linalg.eig(H)
    if np.any(np.abs(lam.real) <= BOUNDARY_RTOL * np.maximum(1.0, np.abs(lam))):
        return None
    stable = lam.real < 0
    if int(stable.sum()) != n:
        return None
    Vs = V[:, stable]
    X1, X2 = Vs[:n], Vs[n:]
    if rcond(X1) <= RANK_RTOL:
        return None
    P = np.real(X2 @ np.linalg.inv(X1))
    P = 0.5 * (P + P.T)
    lam_p = np.linalg.eigvalsh(P)
    if lam_p[0] < -1e-8 * max(1.0, lam_p[-1]):
        return None
    K = -B2.T @ P
    if np.linalg.eigvals(A + B2 @ K).real.max() >= 0:
        return None
    return P, K


def gamma_bisect(problem: AreProblem, tol: float = 1e-6):
    """Minimal feasible attenuation level by bisection.

    Returns (gamma_star, K) where K is the gain of the last feasible level.
    Doubling search establishes an upper bracket; failure to find any
    feasible level below GAMMA_MAX means the problem is unstabilizable or
    degenerate.
    """
    hi = 1.0
    sol = are_feasible(problem, hi)
    while sol is None:
        hi *= 2.0
        if hi > GAMMA_MAX:
            raise UnstabilizableError(
                f"no feasible attenuation level below {GAMMA_MAX:g}"
            )
        sol = are_feasible(problem, hi)

    lo = 0.5 * hi
    for _ in range(200):
        trial = are_feasible(problem, lo)
        if trial is None:
            break
        hi, sol = lo, trial
        lo *= 0.5
        if lo < 1e-12:
            raise NumericalError("feasible at arbitrarily small gamma; problem is degenerate")
    else:
        raise NumericalError("could not find an infeasible lower bracket")

    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        trial = are_feasible(problem, mid)
        if trial is None:
            lo = mid
        else:
            hi, sol = mid, trial
    return hi, sol[1]
