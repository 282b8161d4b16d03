"""Plant and closed-loop representations.

Two plant classes are supported. A DescriptorPlant is the matrix triple
(E, A, B) describing E*xdot = A*x + B*u + w with y = x. A RationalPlant is
the general frequency-domain form M(s)*y = N(s)*u + w with entries of M and
N given as ratios of real polynomials, stored as four coefficient tensors
(numerator and denominator of M and of N). Descriptor plants convert
exactly to rational ones by filling those tensors with -A, E and B; the
rational object keeps a link back to its descriptor so that verification
can use the cheaper state-space route.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .exceptions import (
    DimensionError,
    HypothesisViolationError,
    InvalidInputError,
    PoleAtEvaluationError,
    PoleOnAxisError,
    SingularMatrixError,
    StandingAssumptionError,
)
from .freqgrid import default_grid

# Gains whose relative imaginary residue exceeds this are rejected as
# non-realizable; see synth.
REALNESS_RTOL = 1e-9


def _rcond(m) -> float:
    sv = np.linalg.svd(m, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0.0
    return float(sv[-1] / sv[0])


@dataclass
class DescriptorPlant:
    """First-order plant E*xdot = A*x + B*u + w, so M(s) = E*s - A, N(s) = B."""

    E: np.ndarray
    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        self.E = np.atleast_2d(np.asarray(self.E, dtype=float))
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.B = np.atleast_2d(np.asarray(self.B, dtype=float))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise DimensionError(f"A must be square, got {self.A.shape}")
        if self.E.shape != (n, n):
            raise DimensionError(f"E must match A, got {self.E.shape} vs {self.A.shape}")
        if self.B.shape[0] != n:
            raise DimensionError(f"B must have {n} rows, got {self.B.shape}")
        for name, m in (("E", self.E), ("A", self.A), ("B", self.B)):
            if not np.all(np.isfinite(m)):
                raise InvalidInputError(f"{name} contains NaN or Inf entries")
        rc = _rcond(self.A)
        if rc < linalg.RANK_RTOL:
            raise SingularMatrixError(
                f"A is singular to working precision (rcond~{rc:.2e}); "
                "an invertible A is required",
                rcond=rc,
            )

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    def to_rational(self) -> "RationalPlant":
        """Coefficient tensors of (E*s - A, B) over unit denominators, keeping a backlink."""
        n, m = self.n, self.m
        return RationalPlant._from_tensors(
            np.stack([-self.A, self.E]),
            np.ones((1, n, n)),
            self.B[None].copy(),
            np.ones((1, n, m)),
            descriptor=self,
        )


def _entry(entry):
    """(num, den) coefficient arrays of a (num, den) pair or a bare numerator."""
    num, den = entry if isinstance(entry, tuple) and len(entry) == 2 else (entry, [1.0])
    num, den = (linalg.trimmed_coefficients(p) for p in (num, den))
    if not den.any():
        raise InvalidInputError("rational entry has a zero denominator polynomial")
    return num, den


def _tensor(entries, side, rows, cols):
    """Coefficient tensor of shape (degree + 1, rows, cols) for one side of the pairs."""
    t = np.zeros((max((len(e[side]) for row in entries for e in row), default=1), rows, cols))
    for i, row in enumerate(entries):
        for j, e in enumerate(row):
            t[: len(e[side]), i, j] = e[side]
    return t


class RationalPlant:
    """Plant M(s)*y = N(s)*u + w with rational matrix functions M (k x k) and N (k x m).

    ``M`` and ``N`` are nested sequences whose entries are (num, den) pairs
    of Polynomials or ascending coefficient sequences; a bare numerator
    means den = 1. They are parsed once into the coefficient tensors
    ``m_num``, ``m_den`` (shape (degree + 1, k, k)) and ``n_num``, ``n_den``
    (shape (degree + 1, k, m)), ascending in degree; the plant keeps only
    those.
    """

    def __init__(self, M, N, descriptor: DescriptorPlant | None = None):
        M = [[_entry(e) for e in row] for row in M]
        N = [[_entry(e) for e in row] for row in N]
        k = len(M)
        if k == 0 or any(len(row) != k for row in M):
            raise DimensionError("M must be square and nonempty")
        if len(N) != k:
            raise DimensionError(f"N must have {k} rows, got {len(N)}")
        m = len(N[0])
        if any(len(row) != m for row in N):
            raise DimensionError("rows of N must have equal length")
        self.m_num, self.m_den = (_tensor(M, side, k, k) for side in (0, 1))
        self.n_num, self.n_den = (_tensor(N, side, k, m) for side in (0, 1))
        self.descriptor = descriptor

    @classmethod
    def _from_tensors(cls, m_num, m_den, n_num, n_den, descriptor=None) -> "RationalPlant":
        plant = cls.__new__(cls)
        plant.m_num, plant.m_den, plant.n_num, plant.n_den = m_num, m_den, n_num, n_den
        plant.descriptor = descriptor
        return plant

    @property
    def k(self) -> int:
        return self.m_num.shape[1]

    @property
    def m(self) -> int:
        return self.n_num.shape[2]

    def _eval(self, num_t, den_t, s):
        num = np.polynomial.polynomial.polyval(s, num_t)
        den = np.polynomial.polynomial.polyval(s, den_t)
        if np.any(den == 0):
            raise PoleAtEvaluationError(f"plant entry has a pole at s={s}")
        return num / den

    def eval_M(self, omega: float) -> np.ndarray:
        """M(j*omega) as a complex k x k matrix."""
        return self._eval(self.m_num, self.m_den, 1j * float(omega))

    def eval_N(self, omega: float) -> np.ndarray:
        """N(j*omega) as a complex k x m matrix."""
        return self._eval(self.n_num, self.n_den, 1j * float(omega))

    def check_standing_assumptions(self, grid=None) -> None:
        """Verify well-posedness on a frequency grid.

        M(j*omega) must have full column rank and M*M^* + N*N^* must be
        invertible at every grid point (isolated entry poles are skipped).
        Raises StandingAssumptionError on the first violation.
        """
        if grid is None:
            grid = default_grid()
        for w in grid:
            try:
                Mw = self.eval_M(w)
                Nw = self.eval_N(w)
            except PoleAtEvaluationError:
                continue
            sv = np.linalg.svd(Mw, compute_uv=False)
            if sv[0] == 0.0 or sv[-1] <= linalg.RANK_RTOL * sv[0]:
                raise StandingAssumptionError(
                    f"M(j*omega) loses column rank at omega={w:g}"
                )
            S = Mw @ Mw.conj().T + Nw @ Nw.conj().T
            lam = np.linalg.eigvalsh(S)
            if lam[0] <= linalg.RANK_RTOL * max(lam[-1], 1e-300):
                raise StandingAssumptionError(
                    f"M*M^* + N*N^* is singular at omega={w:g}"
                )


@dataclass
class WeightedObjective:
    """Full-row-rank output weight Q for the cost |Q*y|^2 + |u|^2."""

    Q: np.ndarray

    def __post_init__(self):
        self.Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        if not np.all(np.isfinite(self.Q)):
            raise InvalidInputError("Q contains NaN or Inf entries")
        q, k = self.Q.shape
        if q > k:
            raise HypothesisViolationError(f"Q has more rows than columns ({q} > {k})")
        sv = np.linalg.svd(self.Q, compute_uv=False)
        if sv[0] == 0.0 or sv[-1] <= linalg.RANK_RTOL * sv[0]:
            raise HypothesisViolationError("Q must have full row rank")

    @property
    def pinv(self) -> np.ndarray:
        """Right inverse Q^T (Q Q^T)^{-1}."""
        return np.linalg.solve(self.Q @ self.Q.T, self.Q).T


@dataclass
class StateSpace:
    """Real state-space system xdot = A x + B w, z = C x + D w."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.B = np.atleast_2d(np.asarray(self.B, dtype=float))
        self.C = np.atleast_2d(np.asarray(self.C, dtype=float))
        self.D = np.atleast_2d(np.asarray(self.D, dtype=float))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise DimensionError("A must be square")
        if self.B.shape[0] != n:
            raise DimensionError("B row count must match A")
        if self.C.shape[1] != n:
            raise DimensionError("C column count must match A")
        if self.D.shape != (self.C.shape[0], self.B.shape[1]):
            raise DimensionError("D shape must be (outputs, inputs)")

    def transfer(self, omega: float) -> np.ndarray:
        """C (j*omega*I - A)^{-1} B + D."""
        n = self.A.shape[0]
        return self.C @ np.linalg.solve(1j * omega * np.eye(n) - self.A, self.B) + self.D


@dataclass
class Gain:
    """Static feedback u = K*y with construction metadata.

    ``formula`` tags which construction produced K: one of general, square,
    descriptor, subsystem, weighted, buffer, droop, modal, or external for
    user-supplied matrices.
    """

    K: np.ndarray
    omega0: float = 0.0
    formula: str = "external"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.K = np.atleast_2d(np.asarray(self.K, dtype=float))
        if not np.all(np.isfinite(self.K)):
            raise InvalidInputError("gain matrix contains NaN or Inf entries")
        self.omega0 = float(self.omega0)


def close_loop(plant: DescriptorPlant, gain: Gain) -> StateSpace:
    """Closed loop from w to (y, u) with u = K*x, normalized to E = I.

    Returns xdot = E^{-1}(A + B K) x + E^{-1} w, z = [I; K] x.
    """
    K = gain.K
    n, m = plant.n, plant.m
    if K.shape != (m, n):
        raise DimensionError(f"gain must be {m} x {n}, got {K.shape}")
    rc = _rcond(plant.E)
    if rc < linalg.RANK_RTOL:
        raise SingularMatrixError(
            f"E is singular (rcond~{rc:.2e}); descriptor cannot be reduced to state-space form",
            rcond=rc,
        )
    Acl = np.linalg.solve(plant.E, plant.A + plant.B @ K)
    Bcl = np.linalg.solve(plant.E, np.eye(n))
    C = np.vstack([np.eye(n), K])
    D = np.zeros((n + m, n))
    return StateSpace(Acl, Bcl, C, D)


def eval_closed_rational(plant: RationalPlant, gain: Gain, omega: float) -> np.ndarray:
    """[I; K] (M(j*omega) - N(j*omega) K)^{-1} as a complex (k+m) x k matrix."""
    K = gain.K
    k, m = plant.k, plant.m
    if K.shape != (m, k):
        raise DimensionError(f"gain must be {m} x {k}, got {K.shape}")
    T = plant.eval_M(omega) - plant.eval_N(omega) @ K
    sv = np.linalg.svd(T, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] <= 1e-13 * sv[0]:
        raise PoleOnAxisError(
            f"M - N*K is singular at omega={omega:g}; the gain does not stabilize the plant"
        )
    X = np.linalg.solve(T, np.eye(k))
    return np.vstack([X, K @ X])


def droop_plant(omega0: float, zeta: float) -> RationalPlant:
    """Scalar swing plant M(s) = s/omega0^2 + 2*zeta/omega0 + 1/s, N(s) = 1.

    The output is the frequency deviation; the plant is the normalized
    second-order machine model driven through its velocity.
    """
    if omega0 <= 0 or zeta <= 0:
        raise InvalidInputError("droop plant requires omega0 > 0 and zeta > 0")
    M = [[([1.0, 2.0 * zeta / omega0, 1.0 / omega0**2], [0.0, 1.0])]]
    return RationalPlant(M, [[[1.0]]])


def modal_plant(m: float, d: float, lam: float) -> RationalPlant:
    """Scalar modal machine plant M(s) = m*s + d + lam/s, N(s) = 1.

    The zero mode (lam = 0) cancels the 1/s pole exactly and reduces to the
    first-order lag m*s + d.
    """
    if m <= 0 or d <= 0:
        raise InvalidInputError("modal plant requires m > 0 and d > 0")
    if lam < 0:
        raise InvalidInputError("modal eigenvalue must be nonnegative")
    if lam == 0:
        M = [[[d, m]]]
    else:
        M = [[([lam, d, m], [0.0, 1.0])]]
    return RationalPlant(M, [[[1.0]]])
