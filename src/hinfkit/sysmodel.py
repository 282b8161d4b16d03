"""Plant and closed-loop representations.

A RationalPlant is the frequency-domain form M(s)*y = N(s)*u + w with
entries of M and N given as ratios of real polynomials, stored as four
coefficient tensors (numerator and denominator of M and of N). A
DescriptorPlant is the RationalPlant with M(s) = E*s - A and N(s) = B, held
as the triple (E, A, B) of E*xdot = A*x + B*u + w with y = x; its tensors
are formed only when a path that samples M and N reads them. Its
``descriptor`` is itself (None on other plants), so that verification can
use a lower bound that is a precomputed quadratic in frequency and, if E
passes the rank test (``state_space``), the pencil test and the state-space
norm. A DescriptorPlant is the one record of what its readers
share: rcond(E), the exact-structure verdicts, G = A A^T + B B^T, Kd and
Kd's loop (``kd_loop``, closed by ``verify._route``). Exactly diagonal E, A
under B^T A^{-1} take the loop's poles from one eigvalsh of G. A closed-loop
pole on the axis is an exactly singular loop.
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
from .linalg import RANK_RTOL, REDUCTION_COND_MAX

# Gains whose relative imaginary residue exceeds this are rejected as
# non-realizable; see synth.
REALNESS_RTOL = 1e-9


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

    descriptor = None  # a DescriptorPlant is its own

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

    @classmethod
    def _from_tensors(cls, m_num, m_den, n_num, n_den) -> "RationalPlant":
        plant = cls.__new__(cls)
        plant.m_num, plant.m_den, plant.n_num, plant.n_den = m_num, m_den, n_num, n_den
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
class DescriptorPlant(RationalPlant):
    """First-order plant E*xdot = A*x + B*u + w: the RationalPlant M(s) = E*s - A, N(s) = B, k = n."""

    E: np.ndarray
    A: np.ndarray
    B: np.ndarray
    kd_loop = None  # (loop, sigma) under Kd, set once by verify._route: every Kd loop reader's

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

    @cached_property
    def exactly_diagonal(self) -> bool:
        """Whether E and A are both exactly diagonal: the verdict every diagonal shortcut reads."""
        return linalg._exactly_diagonal(self.E) and linalg._exactly_diagonal(self.A)

    @cached_property
    def exactly_symmetric_commuting(self) -> bool:
        """Whether E - E^T, A - A^T and E A - A E are all exactly zero; only the verdict is kept."""
        E, A = self.E, self.A
        symmetric = not ((E - E.T).any() or (A - A.T).any())
        return symmetric and (self.exactly_diagonal or not (E @ A - A @ E).any())  # diagonals commute

    @cached_property
    def gram(self) -> np.ndarray:
        """A A^T + B B^T, formed once: the bound, the zero-peak check and loop poles read it.
        An exactly diagonal A gives diag(A)^2 plus, from B's nonzeros, each column's outer
        product, summed in column order, where that takes no more pairs than B has cells."""
        A, B, n = self.A, self.B, self.n
        if linalg._exactly_diagonal(A):
            t, i = np.nonzero(B.T)  # B's nonzeros, column by column
            per = np.bincount(t, minlength=B.shape[1])
            if 0 < per @ per <= B.size:  # with no nonzero, bincount returns ints
                p = np.repeat(np.arange(i.size), per[t])  # each nonzero, once per column mate
                q = np.arange(p.size) - np.repeat(np.cumsum(per[t]) - per[t], per[t])
                q += np.repeat(np.cumsum(per) - per, per * per)  # ... and that mate
                G = np.bincount(i[p] * n + i[q], B[i[p], t[p]] * B[i[q], t[q]], n * n).reshape(n, n)
                G.flat[:: n + 1] = A.diagonal() ** 2 + G.diagonal()
                return G
        return A @ A.T + B @ B.T

    @cached_property
    def Kd(self) -> np.ndarray:
        """The descriptor gain B^T A^{-T}, solved once and read-only; all its readers share it."""
        K = np.linalg.solve(self.A, self.B).T
        K.flags.writeable = False
        return K

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

    k = n
    descriptor = property(lambda self: self)
    # The coefficient tensors, formed on first read: only paths that sample M and N read them.
    m_num = cached_property(lambda self: np.stack([-self.A, self.E]))
    m_den = cached_property(lambda self: np.ones((1, self.n, self.n)))
    n_num = cached_property(lambda self: self.B[None].copy())
    n_den = cached_property(lambda self: np.ones((1, self.n, self.m)))

    def to_rational(self) -> "DescriptorPlant":
        """The plant itself, its own rational form."""
        return self


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
    plant: DescriptorPlant | None = None  # close_loop's plant, read by ``poles``

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
        """Eigenvalues of A, computed once: the pole test and the norm's Hurwitz check read them.
        With ``_symmetric_scale``'s S, E^{-1}(A^2 + B B^T)A^{-1}, the loop of K = B^T A^{-1}, is
        similar by S E to -S G S, G = ``plant.gram``: one eigvalsh. K's rounding |dK| <= eps |K|
        moves no pole by more than cond(S E) ||E^{-1} B|| ||dK|| (Bauer-Fike)."""
        s = None if self.plant is None else _symmetric_scale(self.plant, self.C[self.plant.n:])
        if s is None:
            return np.linalg.eigvals(self.A)
        return np.linalg.eigvalsh(-(s[:, None] * self.plant.gram * s))

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


def _symmetric_scale(plant: DescriptorPlant, K: np.ndarray) -> np.ndarray | None:
    """diag(S), S = (-E A)^{-1/2}, if E and A are exactly diagonal, E_ii A_ii < 0 and K is entry
    by entry (B / diag(A))^T, the correctly rounded B^T A^{-1}; else None."""
    A, d = plant.A, -plant.E.diagonal() * plant.A.diagonal()
    exact = plant.exactly_diagonal and 0 < d.min() <= d.max() < np.inf
    return 1.0 / np.sqrt(d) if exact and (K == (plant.B / A.diagonal()[:, None]).T).all() else None


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
    An E that is exactly I takes no LU when A + B K holds no -0.0: solve(I, X) returns such
    an X bit for bit (LU may turn a -0.0 into 0.0).
    """
    n, m = plant.n, plant.m
    AK = closed_state_matrix(plant, gain)
    if not plant.state_space:
        raise SingularMatrixError(
            f"E is singular (rcond~{plant.rcond_E:.2e}); descriptor has no state-space form",
            rcond=plant.rcond_E,
        )
    identity = linalg._exactly_diagonal(plant.E) and (plant.E.diagonal() == 1.0).all()
    if identity and not np.signbit(AK[AK == 0.0]).any():
        Acl, Bcl = AK, np.eye(n)
    else:
        Acl, Bcl = np.linalg.solve(plant.E, AK), np.linalg.solve(plant.E, np.eye(n))
    C = np.vstack([np.eye(n), gain.K])
    D = np.zeros((n + m, n))
    return StateSpace(Acl, Bcl, C, D, plant)


def join_columns(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficient tensors side by side, padded to a common degree."""
    out = np.zeros((max(len(a), len(b)), a.shape[1], a.shape[2] + b.shape[2]))
    out[: len(a), :, : a.shape[2]] = a
    out[: len(b), :, a.shape[2] :] = b
    return out


def realize_loop(plant: RationalPlant, gain: Gain) -> StateSpace | None:
    """The loop [I; K] L(s)^{-1}, L = M - N K, as xdot = A x + B w, z = [C_y; K C_y] x, or None.

    Column j of L is a polynomial part of degree d_j plus r_j / p_j over one monic denominator
    (Rosenbrock's system matrix): states s^i y_j, i < d_j, and a companion block of p_j driven by
    y_j. The leading coefficients form E0 in E = diag(E0, I), by which A and B are solved (droop:
    (y, int y), E = diag(1/w0^2, 1)). None if some d_j is 0 (feedthrough), cond(E0) >= 1e8, a
    column holds two denominators, L overflows, or the realization may not be minimal: a root r
    of p_c is not simple (|p_c'(r)| within sqrt(eps) of its scale, as a root of multiplicity m
    computed ~eps^(1/m) off is), or the residues r_c(r) / p_c'(r) of the columns sharing r lack
    full column rank.
    """
    K, k, poly = gain.K, plant.k, np.polynomial.polynomial
    if K.shape != (plant.m, k):
        raise DimensionError(f"gain must be {plant.m} x {k}, got {K.shape}")
    fed = np.flatnonzero(K.any(axis=1))
    num, den = (join_columns(a, b[:, :, fed]) for a, b in ((plant.m_num, plant.n_num), (plant.m_den, plant.n_den)))
    num = np.pad(num, ((0, max(len(den) - len(num), 0)), (0, 0), (0, 0)))  # room for each remainder
    lead = np.take_along_axis(den, (len(den) - 1 - (den[::-1] != 0).argmax(0))[None], 0)
    dens = {}  # each distinct monic denominator, trimmed, by its bytes
    ids = np.array([dens.setdefault(c.tobytes(), (len(dens), c[: np.flatnonzero(c)[-1] + 1]))[0]
                    for c in (den / lead + 0.0).reshape(len(den), -1).T]).reshape(num.shape[1:])
    dens, num, quo, rem = [c for _, c in dens.values()], num / lead, np.zeros_like(num), np.zeros_like(num)
    for t, p in enumerate(dens):  # long division by each p
        q, r, at, deg = np.zeros_like(num), num.copy(), ids == t, len(p) - 1
        for i in range(len(r) - 1, deg - 1, -1):
            q[i - deg] = r[i]
            r[i - deg : i + 1] -= r[i] * p[:, None, None]
        quo[:, at], rem[:deg, at] = q[:, at], r[:deg, at]
    W = np.vstack([np.eye(k), -K[fed]])  # L = [M, N_fed] W
    with np.errstate(over="ignore", invalid="ignore"):
        P, R = quo @ W, rem @ W
    reads = rem.any(0) & (W != 0).T[:, None, :]  # (j, i, c): the remainders column j of L reads
    used = [set(ids[reads[j]].tolist()) for j in range(k)]
    d = (len(P) - 1 - P.any(1)[::-1].argmax(0)) * P.any((0, 1))  # each column's degree
    E0 = P[d, :, range(k)].T
    if d.min() == 0 or max(map(len, used)) > 1 or not (np.isfinite(P).all() and np.isfinite(R).all()) \
            or linalg.rcond(E0) <= 1.0 / REDUCTION_COND_MAX:
        return None
    p = [dens[min(u)] if u else np.ones(1) for u in used]
    der = [q[1:] * np.arange(1.0, len(q)) for q in p]
    for r in np.unique(np.concatenate([np.zeros(0), *(np.roots(q[::-1]) for q in p if len(q) > 1)])):
        share = [c for c in range(k) if abs(poly.polyval(r, p[c])) <= RANK_RTOL * poly.polyval(abs(r), abs(p[c]))]
        slope = [(poly.polyval(r, der[c]), poly.polyval(abs(r), abs(der[c]))) for c in share]  # p_c'(r), scale
        res = [poly.polyval(r, R[: len(p[c]) - 1, :, c]) / v for c, (v, top) in zip(share, slope)
               if abs(v) > np.finfo(float).eps ** 0.5 * top]  # the residues at r, if r is simple
        if not 0 < len(res) == len(share) <= k or linalg.rcond(np.array(res).T) <= RANK_RTOL:
            return None
    n = d.sum() + sum(map(len, p)) - k
    A, B, C, at = np.zeros((n, n)), np.zeros((n, k)), np.zeros((k, n)), k
    for j in range(k):
        chain, at = [*range(at, at + d[j] - 1), j], at + d[j] - 1  # s^i y_j, i = 0 .. d_j - 1
        block, at = list(range(at, at + len(p[j]) - 1)), at + len(p[j]) - 1
        A[chain[:-1], chain[1:]] = A[block[:-1], block[1:]] = A[block[-1:], chain[0]] = 1.0
        A[:k, chain], A[:k, block], A[block[-1:], block] = -P[: d[j], :, j].T, -R[: len(block), :, j].T, -p[j][:-1]
        C[j, chain[0]] = 1.0
    A[:k], B[:k] = np.hsplit(np.linalg.solve(E0, np.hstack([A[:k], np.eye(k)])), [n])
    return StateSpace(A, B, np.vstack([C, K @ C]), np.zeros((k + plant.m, k)))


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
