"""Optimality certification for closed-form gains.

A gain is certified by three computations: closed-loop stability, the
closed-loop H-infinity norm with its peak frequency, and the synthesis
lower bound sup_w ||(M M^* + N N^*)^{-1}||^{1/2}. The gain is optimal when
the loop is stable, the norm meets the lower bound, and sigma_max of the loop
at the frequency the gain was sampled at meets it too, so that frequency
attains the norm. The route is fixed before anything is computed: poles
come from the pencil (A + B K, E) if E passes the rank test, else from the
block-companion pencil of the cleared loop M - N K; the norm comes from
Hamiltonian level sets if also cond(E) < 1e8, else from a frequency grid.
``_route`` decides this once per certificate and builds the loop's one
sigma_max(T(jw)) evaluator, read by the norm, by sigma_max at the sampled
frequency and by the CLI's frequency table. On the level-set route the loop
is closed once; the pole test and the norm's Hurwitz check read its one
spectrum. Every frequency sweep evaluates its grid in stacked batches.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.linalg

from . import freqgrid, linalg
from .exceptions import (
    DimensionError,
    InvalidInputError,
    NumericalError,
    PoleAtEvaluationError,
    PoleOnAxisError,
    SingularMatrixError,
    UnstableSystemError,
)
from .freqgrid import adaptive_max, adaptive_min, default_grid
from .linalg import RANK_RTOL, REDUCTION_COND_MAX, generalized_eigenvalues, spectral_norm
from .sysmodel import (
    DescriptorPlant,
    Gain,
    RationalPlant,
    StateSpace,
    WeightedObjective,
    close_loop,
    closed_state_matrix,
    eval_closed_rational,
)

# Closed-loop eigenvalues must clear the imaginary axis by this margin,
# relative to the scale of the state matrix.
STABILITY_MARGIN_RTOL = 1e-9

# Hamiltonian eigenvalues this close to the imaginary axis are candidate
# crossings of a norm level; sigma_max there confirms or rejects them, so the
# tolerance also keeps the near-double pair that rounding moves off the axis.
AXIS_RTOL = 1e-5

# Default relative width of the certified norm bracket.
NORM_RTOL = 1e-8

# Level cap of the quadratically convergent norm iteration.
NORM_ITER_MAX = 50

# Default certification tolerance on |norm - lower bound|.
CERT_RTOL = 1e-6

# Entries at or below this fraction of the largest magnitude count as
# structural zeros.
SPARSITY_RTOL = 1e-12


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


def pencil_stability(
    plant: DescriptorPlant, gain: Gain, loop: StateSpace | None = None
) -> StabilityResult:
    """Whether every eigenvalue of the pencil (A + B K, E) has negative real part.

    Given the loop's state-space form (``close_loop``), they are its ``poles``:
    eig(E^{-1}(A + B K)), which is the pencil solver's own reduction below
    cond(E) = 1e8, bit for bit. The abscissa must clear the axis by
    STABILITY_MARGIN_RTOL ||A||.
    """
    if loop is None:
        ev = generalized_eigenvalues(closed_state_matrix(plant, gain), plant.E)
    else:
        ev = loop.poles
    abscissa = float(ev.real.max()) if ev.size else -math.inf
    margin = STABILITY_MARGIN_RTOL * spectral_norm(plant.A)
    return StabilityResult(abscissa < -margin, abscissa)


def _imag_axis_frequencies(H: np.ndarray) -> np.ndarray:
    ev = np.linalg.eigvals(H)
    on_axis = np.abs(ev.real) <= AXIS_RTOL * np.maximum(1.0, np.abs(ev))
    return np.unique(np.abs(ev[on_axis].imag))


class _GramSigma:
    """w -> sigma_max(C X) as sqrt(lambda_max(X^H C^T C X)), X = (jwI - A)^{-1} B, for one loop.

    C^T C is formed once, at first use, and the norm's Hamiltonian reads it
    too; a loop that fails the pole test never forms it.
    The value at w = 0 is kept: the norm's seed and sigma0 at omega0 = 0
    both read it. An array of w is evaluated one sample at a time, as one
    sample of a large loop is already a large solve. An exactly singular
    jwI - A is a pole on the axis, as in eval_closed_rational.
    """

    def __init__(self, loop: StateSpace):
        self.A, self.B, self._C = loop.A, loop.B, loop.C
        self._eye = np.eye(self.A.shape[0])
        self._at_zero = None

    @cached_property
    def CtC(self) -> np.ndarray:
        return self._C.T @ self._C

    def __call__(self, w):
        if np.ndim(w):
            return np.array([self(x) for x in w])
        if w != 0.0:
            return self._sample(w)
        if self._at_zero is None:
            self._at_zero = self._sample(w)
        return self._at_zero

    def _sample(self, w) -> float:
        try:
            X = np.linalg.solve(1j * w * self._eye - self.A, self.B)
        except np.linalg.LinAlgError:
            raise PoleOnAxisError(f"jwI - A is singular at omega={w:g}; pole on the axis") from None
        return math.sqrt(max(float(np.linalg.eigvalsh(X.conj().T @ self.CtC @ X)[-1]), 0.0))


def _grid_sigma(plant: RationalPlant, gain: Gain) -> Callable:
    """w -> sigma_max([I; K](M(jw) - N(jw) K)^{-1}), from the plant's coefficients.

    An array of w is evaluated in stacks, NaN at entry-pole samples; a pole
    of the loop raises PoleOnAxisError at its first sample in order.
    """

    def values(w):
        T = eval_closed_rational(plant, gain, w)
        kept = ~np.isnan(T[..., 0, 0])
        linalg._require_finite(T[kept], "spectral_norm input")
        out = np.full(T.shape[:-2], np.nan)
        out[kept] = np.linalg.svd(T[kept], compute_uv=False)[:, 0]
        return out

    k, m = plant.k, plant.m
    return lambda w: freqgrid.chunked(values, w, 16 * k * (4 * k + 2 * m))


def hinf_norm_ss(
    ss: StateSpace, tol: float = NORM_RTOL, *, sigma: _GramSigma | None = None
) -> NormResult:
    """H-infinity norm of a stable, strictly proper state-space system.

    Level-set iteration (Bruinsma and Steinbuch, 1990), seeded at w = 0 and
    one pole frequency: a level gamma lies below the norm exactly when the
    Hamiltonian [[A, gamma^-2 B B^T], [-C^T C, -A^T]] has imaginary-axis
    eigenvalues, at the frequencies where some singular value equals gamma.
    Each step tests gamma = (1 + tol) * lb and raises lb to the largest
    sigma_max at the crossings and the midpoints between them, which
    converges quadratically; it stops when no candidate reaches gamma. The
    norm is the midpoint of the bracket [lb, gamma]. The peak frequency is
    the best sample evaluated, where sigma_max = lb >= norm / (1 + tol / 2).
    ``sigma`` is the loop's evaluator from ``_route``, for a caller that
    evaluates the loop as well. The Hurwitz check and the pole
    seed read ``ss.poles``, which a pole test on the same loop has computed.
    """
    A, B, D = ss.A, ss.B, ss.D
    if D.any():
        raise InvalidInputError("norm computation requires a strictly proper system (D = 0)")
    eigs = ss.poles
    if eigs.real.max() >= 0:
        raise UnstableSystemError(
            f"state matrix is not Hurwitz (abscissa {eigs.real.max():.3e})"
        )
    smax = _GramSigma(ss) if sigma is None else sigma
    BBt, CtC = B @ B.T, smax.CtC

    # Seed at w = 0 and at the pole most likely to carry a resonant peak.
    if np.any(eigs.imag):
        w_pole = abs(eigs[np.argmax(np.abs(eigs.imag / eigs.real) / np.abs(eigs))])
    else:
        w_pole = np.abs(eigs).min()
    lb, w_best = max((smax(w), w) for w in (0.0, float(w_pole)))
    if lb == 0.0:
        return NormResult(0.0, 0.0)

    for _ in range(NORM_ITER_MAX):
        gamma = (1.0 + tol) * lb
        freqs = _imag_axis_frequencies(np.block([[A, BBt / gamma**2], [-CtC, -A.T]]))
        cand = np.concatenate((freqs, 0.5 * (freqs[1:] + freqs[:-1])))
        best, w = max(((smax(x), x) for x in cand), default=(0.0, 0.0))
        # No crossing at gamma, or only near-axis eigenvalues of a level
        # above the peak: gamma bounds the norm from above.
        if best < gamma:
            break
        lb, w_best = best, float(w)
    else:
        raise NumericalError(
            f"level-set norm iteration did not converge in {NORM_ITER_MAX} steps (lb={lb:.6e})"
        )

    return NormResult(float((1.0 + 0.5 * tol) * lb), w_best)


def hinf_norm_grid(plant: RationalPlant, gain: Gain, grid=None) -> NormResult:
    """Closed-loop norm by adaptive grid search on ||[I; K](M - N K)^{-1}||."""
    res = adaptive_max(_grid_sigma(plant, gain), grid=grid, batched=True)
    return NormResult(res.value, res.omega)


def _bound_function(plant: RationalPlant, Qp: np.ndarray | None) -> Callable:
    """w -> ||(M P M^* + N N^*)^{-1}||^{1/2}, P = Qp Qp^T or I, at one w or in stacks over an array.

    NaN marks an entry-pole sample; a singular Gram raises SingularMatrixError
    at its first sample in order.
    """
    desc = plant.descriptor
    if desc is None:
        def gram(w):
            Mw = plant.eval_M(w)
            Nw = plant.eval_N(w)
            if Qp is not None:
                Mw = Mw @ Qp
            return Mw @ Mw.conj().swapaxes(-1, -2) + Nw @ Nw.conj().swapaxes(-1, -2)

        sample_bytes = 16 * plant.k * (3 * plant.k + plant.m)
    else:
        # M P M^* + N N^* for M = jwE - A, P = Qp Qp^T or I; real when F = 0.
        E, A, B = desc.E, desc.A, desc.B
        AP, EP = (A, E) if Qp is None else (A @ Qp @ Qp.T, E @ Qp @ Qp.T)
        EPE, X, G = EP @ E.T, AP @ E.T, AP @ A.T + B @ B.T
        F = X - X.T
        skew = F.any()

        def gram(w):
            w = w[..., None, None]
            S = G + (w * w) * EPE
            return S + (1j * w) * F if skew else S

        sample_bytes = (32 if skew else 16) * desc.n**2

    def values(w):
        S = gram(w)
        kept = ~np.isnan(S[..., 0, 0])
        if kept.all():
            lam = np.linalg.eigvalsh(S)
        else:
            lam = np.full(S.shape[:-1], np.nan)
            lam[kept] = np.linalg.eigvalsh(S[kept])
        singular = lam[..., 0] <= linalg.RANK_RTOL * np.maximum(lam[..., -1], 1e-300)
        if singular.any():
            raise SingularMatrixError(
                f"M M^* + N N^* is singular at omega={np.atleast_1d(w)[np.argmax(singular)]:g}; "
                "the plant violates its standing assumptions"
            )
        return 1.0 / np.sqrt(lam[..., 0])

    def f(w):
        return freqgrid.chunked(values, w, sample_bytes)

    # With F = 0, S(w) = G + w^2 E P E^T is nondecreasing in the Loewner order.
    f.nondecreasing = desc is not None and not skew
    return f


def _sup_bound(plant: RationalPlant, Qp: np.ndarray | None, grid) -> BoundResult:
    f = _bound_function(plant, Qp)
    grid = default_grid() if grid is None else np.asarray(grid, dtype=float)
    if f.nondecreasing and grid.size:
        # With t = w^2, lambda_min(S) is concave and lambda_max convex in t, so their
        # ratio is quasiconcave: the singular test fires on the grid only if at an end.
        lo = float(grid.min())
        try:
            value = float(f(lo))
            f(float(grid.max()))
            return BoundResult(value, lo)
        except SingularMatrixError:
            pass  # the sweep raises at the first singular sample
    res = adaptive_max(f, grid=grid, batched=True)
    return BoundResult(res.value, res.omega)


def lower_bound(plant: RationalPlant, grid=None) -> BoundResult:
    """sup over frequency of ||(M M^* + N N^*)^{-1}||^{1/2} and its argmax.

    No gain can push the closed-loop norm below this value. Descriptor-backed
    plants sample G + w^2 E E^T + jw F with G = A A^T + B B^T, F = A E^T - E A^T,
    in real arithmetic when F = 0; other plants evaluate M(jw) and N(jw).
    When F = 0 bitwise, S(w) = G + w^2 E E^T only grows with w, so the
    supremum is read at the lowest grid frequency with no sweep; the highest
    is evaluated too, so that a singular Gram raises as the sweep would.
    """
    return _sup_bound(plant, None, grid)


def weighted_lower_bound(plant: RationalPlant, weight, grid=None) -> BoundResult:
    """Lower bound for the cost |Q y|^2 + |u|^2, using M Q^+ in place of M.

    Descriptor plants put P = Q^+ Q^+^T into A P A^T, E P E^T and A P E^T.
    """
    w = weight if isinstance(weight, WeightedObjective) else WeightedObjective(weight)
    return _sup_bound(plant, w.pinv, grid)


def _join(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficient tensors side by side, padded to a common degree."""
    n = max(len(a), len(b))
    return np.concatenate([np.pad(t, ((0, n - len(t)), (0, 0), (0, 0))) for t in (a, b)], axis=2)


def _cleared(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Columns num_j times the product of the distinct den columns other than den_j."""
    distinct, which = np.unique(den.T, axis=0, return_inverse=True)
    which = which.ravel()
    polys = [linalg.trimmed_coefficients(d) for d in distinct]
    out = np.zeros((len(num) + sum(len(p) - 1 for p in polys), num.shape[1]))
    for q in range(len(polys)):
        part = num[:, which == q]
        for p in polys[:q] + polys[q + 1 :]:
            part = scipy.linalg.convolution_matrix(p, len(part)) @ part
        out[: len(part), which == q] = part
    return out


def rational_stability(plant: RationalPlant, gain: Gain) -> StabilityResult:
    """Pole test for gains on plants with no descriptor form.

    Row i of M - N K is cleared by the product of the distinct denominators
    in row i of M and of the N columns that K feeds, which gives a
    polynomial matrix P(s) = sum_t C_t s^t. The poles are the finite
    eigenvalues of its block-companion pencil, from one QZ factorization.
    Infinite eigenvalues, which a singular leading block C_d brings, are
    dropped; a pair with alpha = beta = 0 means det P vanishes identically.
    A gain that overflows M - N K raises InvalidInputError.
    """
    K, k = gain.K, plant.k
    if K.shape != (plant.m, k):
        raise DimensionError(f"gain must be {plant.m} x {k}, got {K.shape}")
    fed = np.flatnonzero(K.any(axis=1))
    num = _join(plant.m_num, plant.n_num[:, :, fed])
    den = _join(plant.m_den, plant.n_den[:, :, fed])
    rows = [_cleared(num[:, i], den[:, i]) for i in range(k)]
    C = np.zeros((max(2, *(len(r) for r in rows)), k, k))
    with np.errstate(over="ignore", invalid="ignore"):
        for i, r in enumerate(rows):
            C[: len(r), i] = r[:, :k] - r[:, k:] @ K[fed]
    if not np.isfinite(C).all():
        raise InvalidInputError("gain overflows M - N K: the closed loop has NaN or Inf entries")
    while len(C) > 2 and not C[-1].any():  # padding leaves exact zero top blocks
        C = C[:-1]
    d = len(C) - 1
    A = np.eye(d * k, k=k)
    A[-k:] = -np.concatenate(C[:-1], axis=1)
    B = np.eye(d * k)
    B[-k:, -k:] = C[-1]
    alpha, beta = scipy.linalg.eigvals(A, B, homogeneous_eigvals=True)
    a, b = np.abs(alpha), np.abs(beta)
    if np.any((a <= RANK_RTOL * np.linalg.norm(A)) & (b <= RANK_RTOL * np.linalg.norm(B))):
        return StabilityResult(False, math.inf)
    finite = b > RANK_RTOL * a
    if not finite.any():
        return StabilityResult(True, -math.inf)
    poles = alpha[finite] / beta[finite]
    abscissa = float(poles.real.max())
    margin = STABILITY_MARGIN_RTOL * (1.0 + float(np.abs(poles).max()))
    return StabilityResult(abscissa < -margin, abscissa)


def _route(
    plant: RationalPlant, gain: Gain
) -> tuple[DescriptorPlant | None, StateSpace | None, Callable]:
    """(desc, loop, sigma): the certificate's route, read from rcond(E) alone.

    ``desc`` is the descriptor for the pencil pole test if E passes the rank test, else None
    (the block-companion pencil). If also cond(E) < REDUCTION_COND_MAX, ``loop`` is the loop
    closed for level sets and ``sigma`` its _GramSigma; else ``loop`` is None and ``sigma``
    is _grid_sigma. ``sigma``, w -> sigma_max(T(jw)), is the loop's one evaluator; both
    kinds raise PoleOnAxisError at a pole on the axis.
    """
    desc = plant.descriptor
    if desc is None or not desc.state_space:
        return None, None, _grid_sigma(plant, gain)
    if desc.rcond_E <= 1.0 / REDUCTION_COND_MAX:
        return desc, None, _grid_sigma(plant, gain)
    loop = close_loop(desc, gain)
    return desc, loop, _GramSigma(loop)


@dataclass
class Certificate:
    """Numerical optimality record for one (plant, gain) pair; dataclasses.asdict serializes it."""

    stable: bool
    hinf_norm: float
    peak_frequency: float
    lower_bound: float
    gap: float
    verdict: str  # optimal | stable-but-suboptimal | unstable
    tolerances: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)


def certify_optimality(
    plant: RationalPlant,
    gain: Gain,
    tol: float = CERT_RTOL,
    grid=None,
) -> Certificate:
    """Run the full certificate: stability, norm with peak, lower bound.

    The route is ``_route``'s, decided once. On the level-set route the loop
    is closed once, and the pole test and the norm read its one spectrum
    (``StateSpace.poles``). The norm and sigma0 read the route's one sigma
    evaluator: the level-set norm seeds from it, the grid norm sweeps it. The
    gain is optimal when the loop is stable, |norm - lb| <= tol (1 + lb), and
    sigma0 = sigma_max(T(j omega0)) >= lb - tol (1 + lb); as sigma0 <= norm,
    omega0 then attains the norm within tol. A pole at omega0 makes sigma0
    NaN. An unstable loop is a verdict; an error raised while computing the
    norm propagates.
    """
    desc, loop, smax = _route(plant, gain)
    stab = rational_stability(plant, gain) if desc is None else pencil_stability(desc, gain, loop)

    lb = lower_bound(plant, grid=grid)
    details = {
        "omega0": gain.omega0,
        "formula": gain.formula,
        "method": "grid" if loop is None else "state-space",
        "abscissa": stab.abscissa,
        "lower_bound_frequency": lb.omega,
    }
    norm, peak, verdict = math.inf, math.nan, "unstable"
    if stab.stable:
        if loop is None:
            res = adaptive_max(smax, grid=grid, batched=True)
            norm, peak = res.value, res.omega
        else:
            norm, peak = hinf_norm_ss(loop, sigma=smax)
        try:
            sigma0 = float(smax(gain.omega0))
        except (PoleAtEvaluationError, PoleOnAxisError):
            sigma0 = math.nan
        slack = tol * (1.0 + lb.value)
        optimal = abs(norm - lb.value) <= slack and sigma0 >= lb.value - slack
        verdict = "optimal" if optimal else "stable-but-suboptimal"
        details["omega0_sigma_max"] = sigma0
        details["omega0_margin"] = (sigma0 - lb.value) / slack if slack > 0 else math.nan
    return Certificate(
        stable=stab.stable, hinf_norm=float(norm), peak_frequency=float(peak),
        lower_bound=float(lb.value), gap=float(norm - lb.value), verdict=verdict,
        tolerances={"norm_rtol": tol}, details=details,
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
    an adaptive grid and allows -1e-9 lambda_max(G), which scales as H(w)
    does with (E, A, B); beyond the crossover where the quadratic term
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

    def min_eig(w):
        w = w[..., None, None]
        H = (w * w) * FGF + (1j * w) * skew + G - thresh * eye
        return np.linalg.eigvalsh(H)[..., 0]

    res = adaptive_min(lambda w: freqgrid.chunked(min_eig, w, 32 * G.size), grid=grid, batched=True)
    return DominanceResult(
        holds=res.value >= -1e-9 * float(lam_g[-1]),
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
    zero and no frequency sweep is needed to certify it. A residue E - E^T,
    A - A^T or E A - A E that is exactly zero passes with no norm taken;
    ||E|| and ||A|| are taken only if some residue is nonzero.
    """
    E, A = plant.E, plant.A
    residues = (E - E.T, A - A.T, E @ A - A @ E)
    flags = [not r.any() for r in residues]
    if not all(flags):
        ne, na = spectral_norm(E), spectral_norm(A)
        caps = (1e-12 * max(ne, 1e-300), 1e-12 * max(na, 1e-300), 1e-10 * max(ne * na, 1e-300))
        flags = [ok or spectral_norm(r) <= cap for ok, r, cap in zip(flags, residues, caps)]
    sym_e, sym_a, commuting = flags
    pd_e = bool(sym_e and np.linalg.eigvalsh(0.5 * (E + E.T))[0] > 0)
    nd_a = bool(sym_a and np.linalg.eigvalsh(0.5 * (A + A.T))[-1] < 0)
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
