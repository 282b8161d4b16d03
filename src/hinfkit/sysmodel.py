"""Plant and closed-loop representations.

Two plant classes are supported. A DescriptorPlant is the matrix triple
(E, A, B) describing E*xdot = A*x + B*u + w with y = x. A RationalPlant is
the general frequency-domain form M(s)*y = N(s)*u + w with entries of M and
N given as ratios of real polynomials, stored as four coefficient tensors
(numerator and denominator of M and of N). Descriptor plants convert
exactly to rational ones by filling those tensors with -A, E and B; the
rational object keeps a link back to its descriptor so that verification
can use a lower bound that is a precomputed quadratic in frequency and, if
E passes the rank test (``state_space``), the pencil test and the
state-space norm. A closed-loop pole on the axis is an exactly singular loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import freqgrid, linalg
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
            linalg._require_finite(m, name)
        rc = linalg.rcond(self.A)
        if rc <= linalg.RANK_RTOL:
            raise SingularMatrixError(
                f"A is singular to working precision (rcond~{rc:.2e}); "
                "an invertible A is required",
                rcond=rc,
            )

    @cached_property
    def rcond_E(self) -> float:
        """rcond of E, computed once: the route decisions on E all read it."""
        return linalg.rcond(self.E)

    @property
    def state_space(self) -> bool:
        """Whether E passes the rank test, so the plant reduces to state-space form."""
        return self.rcond_E > linalg.RANK_RTOL

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

    def __init__(self, M, N):
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
        self.descriptor = None

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

    def _eval(self, num_t, den_t, omega):
        """num/den at s = j*omega: a matrix, or a (W, rows, cols) stack for W frequencies.

        A scalar omega at an entry pole raises PoleAtEvaluationError; in a
        stack, that sample's matrix is NaN.
        """
        s = 1j * np.asarray(omega, dtype=float)[..., None, None]
        num = np.polynomial.polynomial.polyval(s, num_t, tensor=False)
        den = np.polynomial.polynomial.polyval(s, den_t, tensor=False)
        pole = (den == 0).any(axis=(-2, -1))
        if pole.any():
            if not pole.ndim:
                raise PoleAtEvaluationError(f"plant entry has a pole at s={1j * float(omega)}")
            out = num / np.where(pole[:, None, None], 1.0, den)
            out[pole] = np.nan
            return out
        return num / den

    def eval_M(self, omega) -> np.ndarray:
        """M(j*omega) as a complex k x k matrix, or a (W, k, k) stack for W frequencies."""
        return self._eval(self.m_num, self.m_den, omega)

    def eval_N(self, omega) -> np.ndarray:
        """N(j*omega) as a complex k x m matrix, or a (W, k, m) stack for W frequencies."""
        return self._eval(self.n_num, self.n_den, omega)

    def check_standing_assumptions(self, grid=None) -> None:
        """Verify well-posedness on a frequency grid.

        M(j*omega) must have full column rank and M*M^* + N*N^* must be
        invertible at every grid point (isolated entry poles are skipped).
        The grid is evaluated in stacks; StandingAssumptionError names the
        first violating frequency in grid order, and a rank loss there
        comes before a singular Gram.
        """
        grid = default_grid() if grid is None else np.asarray(grid, dtype=float)
        for w in freqgrid.chunks(grid, 16 * self.k * (2 * self.k + self.m)):
            Mw, Nw = self.eval_M(w), self.eval_N(w)
            kept = ~(np.isnan(Mw[:, 0, 0]) | np.isnan(Nw[:, 0, 0]))
            w, Mw, Nw = w[kept], Mw[kept], Nw[kept]
            rank_lost = linalg.rcond(Mw) <= linalg.RANK_RTOL
            S = Mw @ Mw.conj().swapaxes(-1, -2) + Nw @ Nw.conj().swapaxes(-1, -2)
            lam = np.linalg.eigvalsh(S)
            singular = lam[:, 0] <= linalg.RANK_RTOL * np.maximum(lam[:, -1], 1e-300)
            bad = np.flatnonzero(rank_lost | singular)
            if bad.size:
                i = bad[0]
                what = "M*M^* + N*N^* is singular"
                if rank_lost[i]:
                    what = "M(j*omega) loses column rank"
                raise StandingAssumptionError(f"{what} at omega={w[i]:g}")


@dataclass
class WeightedObjective:
    """Full-row-rank output weight Q for the cost |Q*y|^2 + |u|^2."""

    Q: np.ndarray

    def __post_init__(self):
        self.Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        linalg._require_finite(self.Q, "Q")
        q, k = self.Q.shape
        if q > k:
            raise HypothesisViolationError(f"Q has more rows than columns ({q} > {k})")
        if linalg.rcond(self.Q) <= linalg.RANK_RTOL:
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

    @cached_property
    def poles(self) -> np.ndarray:
        """Eigenvalues of A, computed once: the pole test and the norm's Hurwitz check read them."""
        return np.linalg.eigvals(self.A)

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
        linalg._require_finite(self.K, "gain matrix")
        self.omega0 = float(self.omega0)


def closed_state_matrix(plant: DescriptorPlant, gain: Gain) -> np.ndarray:
    """A + B K on every pencil route: K must fit the plant and must not overflow it."""
    if gain.K.shape != (plant.m, plant.n):
        raise DimensionError(f"gain must be {plant.m} x {plant.n}, got {gain.K.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        AK = plant.A + plant.B @ gain.K
    if not np.isfinite(AK).all():
        raise InvalidInputError("gain overflows A + B K: the closed loop has NaN or Inf entries")
    return AK


def close_loop(plant: DescriptorPlant, gain: Gain) -> StateSpace:
    """Closed loop from w to (y, u) with u = K*x, normalized to E = I.

    Returns xdot = E^{-1}(A + B K) x + E^{-1} w, z = [I; K] x; needs ``plant.state_space``.
    """
    n, m = plant.n, plant.m
    AK = closed_state_matrix(plant, gain)
    if not plant.state_space:
        raise SingularMatrixError(
            f"E is singular (rcond~{plant.rcond_E:.2e}); descriptor has no state-space form",
            rcond=plant.rcond_E,
        )
    Acl = np.linalg.solve(plant.E, AK)
    Bcl = np.linalg.solve(plant.E, np.eye(n))
    C = np.vstack([np.eye(n), gain.K])
    D = np.zeros((n + m, n))
    return StateSpace(Acl, Bcl, C, D)


def eval_closed_rational(plant: RationalPlant, gain: Gain, omega) -> np.ndarray:
    """[I; K] (M(j*omega) - N(j*omega) K)^{-1} as a complex (k+m) x k matrix.

    An array of W frequencies gives a (W, k+m, k) stack, NaN at entry-pole
    samples. PoleOnAxisError means M - N K is exactly singular (a zero LU
    pivot) at omega; in a stack, at the first such sample in order. A gain
    that overflows M - N K at a sample with no entry pole raises
    InvalidInputError.
    """
    K = gain.K
    k, m = plant.k, plant.m
    if K.shape != (m, k):
        raise DimensionError(f"gain must be {m} x {k}, got {K.shape}")
    Mw, Nw = plant.eval_M(omega), plant.eval_N(omega)
    with np.errstate(over="ignore", invalid="ignore"):
        T = Mw - Nw @ K
    X = np.full_like(T, np.nan)
    kept = ~(np.isnan(Mw[..., 0, 0]) | np.isnan(Nw[..., 0, 0]))
    if not np.isfinite(T).all() and not np.isfinite(T[kept]).all():
        raise InvalidInputError("gain overflows M - N K: the closed loop has NaN or Inf entries")
    try:
        X[kept] = np.linalg.solve(T[kept], np.eye(k))
    except np.linalg.LinAlgError:
        # A stacked solve fails as a whole; name its first singular sample.
        kept = np.atleast_1d(kept)
        for w, Tw in zip(np.atleast_1d(omega)[kept], T.reshape(-1, k, k)[kept]):
            try:
                np.linalg.solve(Tw, np.eye(k))
            except np.linalg.LinAlgError:
                raise PoleOnAxisError(
                    f"M - N*K is singular at omega={w:g}; the gain does not stabilize the plant"
                ) from None
        raise
    return np.concatenate([X, K @ X], axis=-2)


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
