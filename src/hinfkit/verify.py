"""Optimality certification for closed-form gains.

A gain is certified by three computations: closed-loop stability, the
closed-loop H-infinity norm with its peak frequency, and the synthesis
lower bound sup_w ||(M M^* + N N^*)^{-1}||^{1/2}. The gain is optimal when
the loop is stable, the norm meets the lower bound, and the peak sits at
the frequency the gain was sampled at.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import freqgrid, linalg
from .exceptions import (
    InvalidInputError,
    NumericalError,
    PoleOnAxisError,
    SingularMatrixError,
    UnstableSystemError,
)
from .freqgrid import PeakResult, adaptive_max, adaptive_min, default_grid
from .linalg import Polynomial, generalized_eigenvalues, spectral_norm
from .sysmodel import (
    DescriptorPlant,
    Gain,
    RationalPlant,
    StateSpace,
    WeightedObjective,
    close_loop,
    eval_closed_rational,
)

# Closed-loop eigenvalues must clear the imaginary axis by this margin,
# relative to the scale of the state matrix.
STABILITY_MARGIN_RTOL = 1e-9

# Hamiltonian eigenvalues this close to the imaginary axis count as being
# on it during norm bisection.
AXIS_RTOL = 1e-8

# Default relative accuracy of the bisection norm.
NORM_BISECT_RTOL = 1e-8

# Default certification tolerance on |norm - lower bound|.
CERT_RTOL = 1e-6

# Entries at or below this fraction of the largest magnitude count as
# structural zeros.
SPARSITY_RTOL = 1e-12

# Laplace expansion of rational determinants is refused beyond this size,
# and the cleared numerator beyond this degree.
DET_SIZE_MAX = 8
DET_DEGREE_MAX = 50


class StabilityResult(NamedTuple):
    stable: bool
    abscissa: float

    def __bool__(self) -> bool:
        return self.stable


class NormResult(NamedTuple):
    norm: float
    peak_frequency: float


class BoundResult(NamedTuple):
    value: float
    omega: float


def pencil_stability(plant: DescriptorPlant, gain: Gain) -> StabilityResult:
    """Whether every eigenvalue of the pencil (A + B K, E) has negative real part."""
    ev = generalized_eigenvalues(plant.A + plant.B @ gain.K, plant.E)
    abscissa = float(ev.real.max()) if ev.size else -math.inf
    margin = STABILITY_MARGIN_RTOL * spectral_norm(plant.A)
    return StabilityResult(abscissa < -margin, abscissa)


def _imag_axis_frequencies(H: np.ndarray) -> np.ndarray:
    ev = np.linalg.eigvals(H)
    on_axis = np.abs(ev.real) <= AXIS_RTOL * np.maximum(1.0, np.abs(ev))
    return np.unique(np.abs(ev[on_axis].imag))


def hinf_norm_ss(ss: StateSpace, tol: float = NORM_BISECT_RTOL) -> NormResult:
    """H-infinity norm of a stable, strictly proper state-space system.

    Bisection on gamma: gamma exceeds the norm exactly when the Hamiltonian
    [[A, gamma^-2 B B^T], [-C^T C, -A^T]] has no imaginary-axis eigenvalues.
    The peak frequency is read off the axis eigenvalues at the last level
    that still had them, then polished by golden-section search on the
    largest singular value.
    """
    A, B, C, D = ss.A, ss.B, ss.C, ss.D
    if spectral_norm(D) != 0.0:
        raise InvalidInputError("norm computation requires a strictly proper system (D = 0)")
    eigs = np.linalg.eigvals(A)
    if eigs.real.max() >= 0:
        raise UnstableSystemError(
            f"state matrix is not Hurwitz (abscissa {eigs.real.max():.3e})"
        )
    n = A.shape[0]
    BBt = B @ B.T
    CtC = C.T @ C
    eye = np.eye(n)

    def smax(w: float) -> float:
        return spectral_norm(C @ np.linalg.solve(1j * w * eye - A, B))

    samples = {0.0}
    for lam in eigs:
        samples.add(abs(float(lam.imag)))
        samples.add(abs(complex(lam)))
    lb, w_seed = max((smax(w), w) for w in sorted(samples))
    if lb == 0.0:
        return NormResult(0.0, 0.0)

    def axis_freqs(gamma: float) -> np.ndarray:
        H = np.block([[A, BBt / gamma**2], [-CtC, -A.T]])
        return _imag_axis_frequencies(H)

    ub = 2.0 * lb
    for _ in range(200):
        if axis_freqs(ub).size == 0:
            break
        lb = ub
        ub *= 2.0
    else:
        raise NumericalError(
            f"norm bisection could not bracket from above (lb={lb:.6e}, ub={ub:.6e})"
        )

    last_freqs = np.array([])
    while ub - lb > tol * lb:
        gamma = 0.5 * (lb + ub)
        freqs = axis_freqs(gamma)
        if freqs.size:
            lb, last_freqs = gamma, freqs
        else:
            ub = gamma

    norm = 0.5 * (lb + ub)
    peak = _refine_ss_peak(smax, last_freqs, w_seed)
    return NormResult(float(norm), float(peak))


def _refine_ss_peak(smax, axis_freqs: np.ndarray, w_seed: float) -> float:
    cand = {0.0, float(w_seed)}
    freqs = sorted(float(w) for w in axis_freqs)
    cand.update(freqs)
    for a, b in zip(freqs, freqs[1:]):
        cand.add(0.5 * (a + b))
    cand = sorted(cand)
    values = [smax(w) for w in cand]
    i = int(np.argmax(values))
    a = cand[i - 1] if i > 0 else cand[i]
    b = cand[i + 1] if i < len(cand) - 1 else cand[i] * 2 + 1e-3
    best, mid, _, _ = freqgrid._golden_max(smax, a, b, freqgrid.PEAK_WINDOW_RTOL)
    best = max(best, values[i])
    tie = best - freqgrid.TIE_RTOL * abs(best)
    contenders = [w for w, v in zip(cand, values) if v >= tie]
    if best >= tie:
        contenders.append(mid)
    return min(contenders)


def _closed_loop_peak(plant: RationalPlant, gain: Gain, grid=None) -> PeakResult:
    return adaptive_max(
        lambda w: spectral_norm(eval_closed_rational(plant, gain, w)), grid=grid
    )


def hinf_norm_grid(plant: RationalPlant, gain: Gain, grid=None) -> NormResult:
    """Closed-loop norm by adaptive grid search on ||[I; K](M - N K)^{-1}||."""
    res = _closed_loop_peak(plant, gain, grid)
    return NormResult(res.value, res.omega)


def _bound_function(plant: RationalPlant, Qp: np.ndarray | None):
    def f(w: float) -> float:
        Mw = plant.eval_M(w)
        Nw = plant.eval_N(w)
        if Qp is not None:
            Mw = Mw @ Qp
        S = Mw @ Mw.conj().T + Nw @ Nw.conj().T
        lam = np.linalg.eigvalsh(S)
        if lam[0] <= linalg.RANK_RTOL * max(lam[-1], 1e-300):
            raise SingularMatrixError(
                f"M M^* + N N^* is singular at omega={w:g}; "
                "the plant violates its standing assumptions"
            )
        return 1.0 / math.sqrt(lam[0])

    return f


def lower_bound(plant: RationalPlant, grid=None) -> BoundResult:
    """sup over frequency of ||(M M^* + N N^*)^{-1}||^{1/2} and its argmax.

    No gain can push the closed-loop norm below this value.
    """
    res = adaptive_max(_bound_function(plant, None), grid=grid)
    return BoundResult(res.value, res.omega)


def weighted_lower_bound(plant: RationalPlant, weight, grid=None) -> BoundResult:
    """Lower bound for the cost |Q y|^2 + |u|^2, using M Q^+ in place of M."""
    w = weight if isinstance(weight, WeightedObjective) else WeightedObjective(weight)
    res = adaptive_max(_bound_function(plant, w.pinv), grid=grid)
    return BoundResult(res.value, res.omega)


def _rmul(a, b):
    return a[0] * b[0], a[1] * b[1]


def _radd(a, b):
    return a[0] * b[1] + b[0] * a[1], a[1] * b[1]


def _rational_det(entries):
    k = len(entries)
    if k == 1:
        return entries[0][0]
    det = None
    for j in range(k):
        num, den = entries[0][j]
        if num.is_zero():
            continue
        minor = [[row[c] for c in range(k) if c != j] for row in entries[1:]]
        term = _rmul((num, den), _rational_det(minor))
        if j % 2:
            term = (term[0].scale(-1.0), term[1])
        det = term if det is None else _radd(det, term)
    return det if det is not None else (Polynomial([0.0]), Polynomial([1.0]))


def rational_stability(plant: RationalPlant, gain: Gain) -> StabilityResult:
    """Pole test for gains on plants with no descriptor form.

    Poles are taken as the roots of the numerator of det(M - N K) after
    clearing denominators. Limited to small dense plants.
    """
    k, m = plant.k, plant.m
    if k > DET_SIZE_MAX:
        raise NumericalError(
            f"rational pole scan supports plants up to size {DET_SIZE_MAX}, got {k}"
        )
    K = gain.K

    def entries(num, den):
        return [
            [(Polynomial(num[:, i, j]), Polynomial(den[:, i, j])) for j in range(num.shape[2])]
            for i in range(k)
        ]

    M, N = entries(plant.m_num, plant.m_den), entries(plant.n_num, plant.n_den)
    closed = []
    for i in range(k):
        row = []
        for j in range(k):
            acc = M[i][j]
            for l in range(m):
                if K[l, j] != 0.0:
                    num, den = N[i][l]
                    acc = _radd(acc, (num.scale(-K[l, j]), den))
            row.append(acc)
        closed.append(row)
    num, _ = _rational_det(closed)
    if num.degree > DET_DEGREE_MAX:
        raise NumericalError(
            f"cleared determinant degree {num.degree} exceeds the cap {DET_DEGREE_MAX}"
        )
    if num.is_zero():
        return StabilityResult(False, math.inf)
    c = num.coefficients
    keep = np.abs(c) > 1e-12 * np.abs(c).max()
    c = c[: np.nonzero(keep)[0][-1] + 1]
    if len(c) == 1:
        return StabilityResult(True, -math.inf)
    roots = np.roots(c[::-1])
    abscissa = float(roots.real.max())
    margin = STABILITY_MARGIN_RTOL * (1.0 + float(np.abs(roots).max()))
    return StabilityResult(abscissa < -margin, abscissa)


@dataclass
class Certificate:
    """Numerical optimality record for one (plant, gain) pair."""

    stable: bool
    hinf_norm: float
    peak_frequency: float
    lower_bound: float
    gap: float
    verdict: str  # optimal | stable-but-suboptimal | unstable
    tolerances: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "stable": self.stable,
            "hinf_norm": self.hinf_norm,
            "peak_frequency": self.peak_frequency,
            "lower_bound": self.lower_bound,
            "gap": self.gap,
            "verdict": self.verdict,
            "tolerances": dict(self.tolerances),
            "details": dict(self.details),
        }


def certify_optimality(
    plant: RationalPlant,
    gain: Gain,
    tol: float = CERT_RTOL,
    grid=None,
) -> Certificate:
    """Run the full certificate: stability, norm with peak, lower bound.

    Descriptor-backed plants use the pencil test and the bisection norm;
    everything else falls back to the rational pole scan and the grid norm.
    The verdict never raises; failures are encoded in it.
    """
    desc = plant.descriptor
    method = "state-space"
    if desc is not None:
        try:
            stab = pencil_stability(desc, gain)
        except SingularMatrixError:
            desc = None
    if desc is None:
        method = "grid"
        stab = rational_stability(plant, gain)

    lb = lower_bound(plant, grid=grid)
    tolerances = {"norm_rtol": tol, "peak_window_rtol": freqgrid.PEAK_WINDOW_RTOL}
    details = {
        "omega0": gain.omega0,
        "formula": gain.formula,
        "method": method,
        "abscissa": stab.abscissa,
        "lower_bound_frequency": lb.omega,
    }

    window = freqgrid.PEAK_WINDOW_RTOL * (1.0 + abs(gain.omega0))
    norm = None
    if stab.stable and desc is not None:
        try:
            norm, peak = hinf_norm_ss(close_loop(desc, gain))
        except (SingularMatrixError, UnstableSystemError):
            details["method"] = "grid"
    if stab.stable and norm is None:
        try:
            res = _closed_loop_peak(plant, gain, grid)
            norm, peak, window = res.value, res.omega, max(window, res.window)
        except PoleOnAxisError:
            pass  # a pole on the axis: the loop is not stable after all

    if norm is None:
        return Certificate(
            stable=False,
            hinf_norm=math.inf,
            peak_frequency=math.nan,
            lower_bound=lb.value,
            gap=math.inf,
            verdict="unstable",
            tolerances=tolerances,
            details=details,
        )

    gap = norm - lb.value
    gap_ok = abs(gap) <= tol * (1.0 + lb.value)
    peak_ok = abs(peak - gain.omega0) <= window
    verdict = "optimal" if (gap_ok and peak_ok) else "stable-but-suboptimal"
    details["peak_window"] = window
    return Certificate(
        stable=True,
        hinf_norm=float(norm),
        peak_frequency=float(peak),
        lower_bound=float(lb.value),
        gap=float(gap),
        verdict=verdict,
        tolerances=tolerances,
        details=details,
    )


@dataclass
class DominanceResult:
    """Outcome of the zero-peak frequency-domain inequality check."""

    holds: bool
    min_eigenvalue: float
    omega_at_min: float
    checked_up_to: float
    tail_rule: str  # full | subspace | none

    def __bool__(self) -> bool:
        return self.holds


def zero_peak_inequality(plant: DescriptorPlant, grid=None) -> DominanceResult:
    """Check w^2 F G^{-1} F^T + j w (F^T - F) + G >= ||G^{-1}||^{-1} I for all w.

    F = E A^T and G = A A^T + B B^T. Holding for every frequency means the
    closed loop under the descriptor gain peaks at w = 0. The check samples
    an adaptive grid; beyond the crossover where the quadratic term
    dominates the linear one, the inequality holds automatically and
    sampling stops (tail rule). A singular F restricts the tail argument to
    the complement of its kernel and extends the grid to 1e6 instead.
    """
    E, A, B = plant.E, plant.A, plant.B
    F = E @ A.T
    G = A @ A.T + B @ B.T
    lam_g = np.linalg.eigvalsh(G)
    thresh = float(lam_g[0])  # equals 1 / ||G^{-1}||
    FGF = F @ np.linalg.solve(G, F.T)
    FGF = 0.5 * (FGF + FGF.T)
    lam_f = np.linalg.eigvalsh(FGF)
    skew = F.T - F
    bnorm = spectral_norm(skew)
    tiny = 1e-12 * max(float(lam_f[-1]), 1.0)

    mu = float(lam_f[0])
    if mu > tiny:
        w_tail = (bnorm + math.sqrt(bnorm**2 + 4.0 * mu * thresh)) / (2.0 * mu)
        hi = max(freqgrid.GRID_MAX, w_tail)
        tail_rule = "full"
    else:
        positive = lam_f[lam_f > tiny]
        if positive.size:
            tail_rule = "subspace"
        else:
            tail_rule = "none"
        hi = 1e6

    if grid is None:
        grid = default_grid(freqgrid.GRID_MIN, hi)
    eye = np.eye(G.shape[0])

    def min_eig(w: float) -> float:
        H = (w * w) * FGF + (1j * w) * skew + G - thresh * eye
        return float(np.linalg.eigvalsh(H)[0])

    res = adaptive_min(min_eig, grid=grid)
    return DominanceResult(
        holds=res.value >= -1e-9,
        min_eigenvalue=res.value,
        omega_at_min=res.omega,
        checked_up_to=float(np.max(grid)),
        tail_rule=tail_rule,
    )


@dataclass
class SymmetryReport:
    """Structural hypotheses under which the descriptor gain is optimal outright."""

    symmetric_E: bool
    positive_definite_E: bool
    symmetric_A: bool
    negative_definite_A: bool
    commuting: bool

    @property
    def holds(self) -> bool:
        return (
            self.symmetric_E
            and self.positive_definite_E
            and self.symmetric_A
            and self.negative_definite_A
            and self.commuting
        )

    def __bool__(self) -> bool:
        return self.holds


def symmetric_commuting_check(plant: DescriptorPlant) -> SymmetryReport:
    """Check E = E^T > 0, A = A^T < 0 and E A = A E.

    When all five flags hold, the descriptor gain is optimal with peak at
    zero and no frequency sweep is needed to certify it.
    """
    E, A = plant.E, plant.A
    norm_e = spectral_norm(E)
    norm_a = spectral_norm(A)
    sym_e = spectral_norm(E - E.T) <= 1e-12 * max(norm_e, 1e-300)
    sym_a = spectral_norm(A - A.T) <= 1e-12 * max(norm_a, 1e-300)
    pd_e = bool(sym_e and np.linalg.eigvalsh(0.5 * (E + E.T))[0] > 0)
    nd_a = bool(sym_a and np.linalg.eigvalsh(0.5 * (A + A.T))[-1] < 0)
    commuting = spectral_norm(E @ A - A @ E) <= 1e-10 * max(norm_e * norm_a, 1e-300)
    return SymmetryReport(sym_e, pd_e, sym_a, nd_a, commuting)


@dataclass
class SparsityPattern:
    """Zero pattern of a gain at relative threshold SPARSITY_RTOL."""

    mask: np.ndarray  # True where the entry counts as zero
    nonzeros: int

    @property
    def zeros(self) -> int:
        return int(self.mask.sum())


def sparsity_pattern(gain: Gain) -> SparsityPattern:
    K = gain.K
    scale = float(np.abs(K).max()) if K.size else 0.0
    mask = np.abs(K) <= SPARSITY_RTOL * scale
    return SparsityPattern(mask=mask, nonzeros=int((~mask).sum()))
