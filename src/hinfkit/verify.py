"""Optimality certification for closed-form gains.

A gain is certified by three computations: closed-loop stability, the
closed-loop H-infinity norm with its peak frequency, and the synthesis
lower bound sup_w ||(M M^* + N N^*)^{-1}||^{1/2}. The gain is optimal when
the loop is stable, the norm meets the lower bound, and sigma_max of the loop
at the frequency the gain was sampled at meets it too, so that frequency
attains the norm. ``_route`` fixes the route before anything is computed: poles
from the pencil (A + B K, E) and Hamiltonian level sets if cond(E) < 1e8; a plant
with no descriptor realizes its loop (``realize_loop``) for both; else the pencil's
QZ or the block-companion pencil of the cleared M - N K, and a frequency grid. It
closes the loop and builds its one sigma_max(T(jw)) evaluator, which the norm,
sigma0 and ``sigma_table`` read; the pole test and the norm's Hurwitz check read
the loop's one spectrum. The loop of the plant's own Kd = B^T A^{-T} is closed
once per plant (``DescriptorPlant.kd_loop``): its certificate, the structure
block's pencil test and the zero-peak level test read one spectrum and one
sigma(0). On an exactly symmetric commuting plant, the storage function
X = -A^{-1} E tests the level (1 + tol) sigma(0) before the pole seed is sampled
(bounded real lemma). The plant's exact-structure verdicts, and an E that is
exactly I, skip each factorization and product they decide. With cond(E) < 1e8,
the bound and the zero-peak check sweep only if one Hamiltonian level test fails
to prove a peak at w = 0; every sweep evaluates its grid in stacked batches. All three
level tests hand the blocks of diag(E, E^T)^-1 [[A, R], [-Q, -A^T]] to ``_level_candidates``.
scipy is imported only at the QZ call sites, so buffer, irrigation and thermal
commands, and rational plants that realize_loop takes, never load it.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import asdict, astuple, dataclass, field
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from . import freqgrid, linalg, synth
from .exceptions import (
    DimensionError,
    InvalidInputError,
    ModelError,
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
    join_columns,
    modal_plant,
    realize_loop,
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
    eig(E^{-1}(A + B K)), the pencil solver's own reduction below cond(E) = 1e8,
    bit for bit, but for diagonal E, A under K = B^T A^{-1}: an eigvalsh of a similar
    symmetric matrix, ulps apart. The abscissa must clear the axis by STABILITY_MARGIN_RTOL ||A||.
    """
    if loop is None:
        ev = generalized_eigenvalues(closed_state_matrix(plant, gain), plant.E)
    else:
        ev = loop.poles
    abscissa = float(ev.real.max()) if ev.size else -math.inf
    margin = STABILITY_MARGIN_RTOL * spectral_norm(plant.A)
    return StabilityResult(abscissa < -margin, abscissa)


def _level_candidates(A: np.ndarray, R: np.ndarray, Q: np.ndarray, E=None) -> np.ndarray:
    """Frequencies of the near-axis eigenvalues of diag(E, E^T)^-1 [[A, R], [-Q, -A^T]] (E = I if
    None), then their midpoints: where a level's crossings lie, and a sample between any two. The
    one builder of a level Hamiltonian; it solves by E and E^T, so callers check cond(E) < 1e8."""
    top, bottom = np.hstack((A, R)), np.hstack((Q, A.T))
    if E is not None:
        top, bottom = np.linalg.solve(E, top), np.linalg.solve(E.T, bottom)
    ev = np.linalg.eigvals(np.vstack((top, -bottom)))
    on_axis = np.abs(ev.real) <= AXIS_RTOL * np.maximum(1.0, np.abs(ev))
    freqs = np.unique(np.abs(ev[on_axis].imag))
    return np.concatenate((freqs, 0.5 * (freqs[1:] + freqs[:-1])))


def _below_level(sample: Callable, level: float, *blocks: np.ndarray) -> bool:
    """Whether ``sample`` stays below ``level`` at w = 0 and at each ``_level_candidates(*blocks)``,
    so the level is crossed nowhere; a sample that raises or is NaN counts as reaching it."""
    try:
        return bool(np.all(sample(np.append(0.0, _level_candidates(*blocks))) < level))
    except (ModelError, np.linalg.LinAlgError):
        return False


class _GramSigma:
    """w -> sigma_max(C X) as sqrt(lambda_max(X^H C^T C X)), X = (jwI - A)^{-1} B, for one loop.

    C^T C is formed once, at first use, and the norm's Hamiltonian reads it
    too; a loop that fails the pole test never forms it.
    The value at w = 0 is kept: the norm's seed and sigma0 at omega0 = 0
    both read it, and it is sampled in real arithmetic (-A, not 0j I - A). An
    array of w is evaluated one sample at a time, as one sample of a large loop
    is already a large solve. An exactly singular jwI - A is a pole on the axis,
    as in eval_closed_rational.
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
            X = np.linalg.solve(-self.A if w == 0.0 else 1j * w * self._eye - self.A, self.B)
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


def _bounds_norm(ss: StateSpace, Y: np.ndarray, CtC: np.ndarray, gamma: float) -> bool:
    """Whether a Cholesky factorization of -Q - delta I succeeds, X = (Y + Y^T) / 2, or diag(Y)
    for a vector Y, whose products scale rows; B is then E^{-1}, diagonal, and X B B^T X its squares.

    Q = A^T X + X A + C^T C + X B B^T X / gamma^2 <= 0 gives sigma_max(T(jw)) <= gamma at
    every w (bounded real lemma). delta = 8 n eps (2 ||A^T X|| + ||C^T C|| + ||X B / gamma||^2)
    in the infinity norm is the rounding allowance: the test asks Q < -delta I, not Q < 0.
    """
    n, X = Y.shape[0], Y[:, None] if Y.ndim == 1 else 0.5 * (Y + Y.T)
    XA, XB = (X * ss.A, X * ss.B / gamma) if Y.ndim == 1 else (X @ ss.A, X @ ss.B / gamma)
    XBBX = np.diag(XB.diagonal() ** 2) if Y.ndim == 1 else XB @ XB.T
    scale = 2.0 * np.linalg.norm(XA, 1) + np.linalg.norm(CtC, np.inf)
    delta = 8.0 * n * np.finfo(float).eps * (scale + np.linalg.norm(XB, np.inf) ** 2)
    try:
        np.linalg.cholesky(-delta * np.eye(n) - XA - XA.T - CtC - XBBX)
    except np.linalg.LinAlgError:
        return False
    return True


def hinf_norm_ss(
    ss: StateSpace, tol: float = NORM_RTOL, *, sigma: _GramSigma | None = None,
    storage: np.ndarray | None = None,
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
    ``sigma`` is the loop's evaluator from ``_route``, for a caller that evaluates the
    loop as well. The Hurwitz check and the pole seed read ``ss.poles``, which a pole
    test on the same loop has computed. Given a storage function (a vector is diag X),
    ``_bounds_norm`` first tests gamma = (1 + tol) sigma(0) in n x n; if it holds,
    sigma(0) <= norm <= gamma and ((1 + tol / 2) sigma(0), 0) is returned with no pole
    seed sampled. If it fails, the seed and the level sets run as without it.
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
    CtC, lb = smax.CtC, smax(0.0)
    if storage is not None and lb > 0.0 and _bounds_norm(ss, storage, CtC, (1.0 + tol) * lb):
        return NormResult(float((1.0 + 0.5 * tol) * lb), 0.0)

    # Seed at w = 0 and at the pole most likely to carry a resonant peak.
    if np.any(eigs.imag):
        w_pole = abs(eigs[np.argmax(np.abs(eigs.imag / eigs.real) / np.abs(eigs))])
    else:
        w_pole = np.abs(eigs).min()
    lb, w_best = max((lb, 0.0), (smax(float(w_pole)), float(w_pole)))
    if lb == 0.0:
        return NormResult(0.0, 0.0)
    BBt = B @ B.T

    for _ in range(NORM_ITER_MAX):
        gamma = (1.0 + tol) * lb
        cand = _level_candidates(A, BBt / gamma**2, CtC)
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
    at its first sample in order. Exactly diagonal E and A (P = I) give E E^T from the diagonal.
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
        if Qp is None and desc.exactly_diagonal:
            EPE, G, F = np.diag(E.diagonal() ** 2), desc.gram, 0.0  # A E^T = E A^T: F = 0
        else:
            EPE, X, G = EP @ E.T, AP @ E.T, desc.gram if Qp is None else AP @ A.T + B @ B.T
            F = X - X.T
        skew = np.any(F)

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


def _norm_top(desc: DescriptorPlant, top: float) -> float:
    """(top ||E||_F + ||A||_F)^2 + ||B||_F^2 >= ||S(w)|| = ||M M^* + B B^T|| at every |w| <= top."""
    return (top * np.linalg.norm(desc.E) + np.linalg.norm(desc.A)) ** 2 + np.linalg.norm(desc.B) ** 2


def _bound_peaks_at_zero(desc: DescriptorPlant, f: Callable, value: float, top: float) -> bool:
    """Whether lambda_min(S(w)) > c = (1 - 2 TIE_RTOL) / f(0)^2 at every w. c is an eigenvalue of
    S(w) exactly when jw is one of diag(E, E^T)^-1 [[A, cI - B B^T], [-I, -A^T]]. No grid sample
    is singular if c > 2 RANK_RTOL ``_norm_top``."""
    E, A, B, n = desc.E, desc.A, desc.B, desc.n
    c = (1.0 - 2.0 * freqgrid.TIE_RTOL) / value**2
    if c <= 2.0 * RANK_RTOL * _norm_top(desc, top):
        return False
    return _below_level(f, 1.0 / math.sqrt(c), A, c * np.eye(n) - B @ B.T, np.eye(n), E)


def _sup_bound(plant: RationalPlant, Qp: np.ndarray | None, grid) -> BoundResult:
    f, desc = _bound_function(plant, Qp), plant.descriptor
    grid = default_grid() if grid is None else np.asarray(grid, dtype=float)
    if f.nondecreasing and grid.size:
        # With t = w^2, lambda_min(S) is concave and lambda_max convex in t, so their
        # ratio is quasiconcave: the singular test fires on the grid only if at an end, and not at
        # the top if lambda_min(S(lo)) > 4 RANK_RTOL _norm_top (3 RANK_RTOL left for rounding).
        lo = float(grid.min())
        try:
            value = float(f(lo))
            if Qp is not None or value**-2 <= 4.0 * RANK_RTOL * _norm_top(desc, np.abs(grid).max()):
                f(float(grid.max()))
            return BoundResult(value, lo)
        except SingularMatrixError:
            pass  # the sweep raises at the first singular sample
    elif desc is not None and Qp is None and desc.rcond_E > 1.0 / REDUCTION_COND_MAX \
            and grid.size and grid[0] == 0.0:
        value = float(f(0.0))  # the sweep's first sample; a singular S(0) raises as in it
        if _bound_peaks_at_zero(desc, f, value, float(np.abs(grid).max())):
            return BoundResult(value, 0.0)
    res = adaptive_max(f, grid=grid, batched=True)
    return BoundResult(res.value, res.omega)


def lower_bound(plant: RationalPlant, grid=None) -> BoundResult:
    """sup over frequency of ||(M M^* + N N^*)^{-1}||^{1/2} and its argmax.

    No gain can push the closed-loop norm below this value. Descriptor-backed
    plants sample G + w^2 E E^T + jw F with G = A A^T + B B^T, F = A E^T - E A^T,
    in real arithmetic when F = 0; other plants evaluate M(jw) and N(jw).
    When F = 0 bitwise, S(w) = G + w^2 E E^T only grows with w, so the
    supremum is read at the lowest grid frequency with no sweep; the highest
    is evaluated too, so that a singular Gram raises as the sweep would, unless
    lambda_min(S(lo)) > 4 RANK_RTOL max ||S|| rules that out. Else, if cond(E)
    < 1e8 and the grid starts at w = 0, a level test at c = (1 - 2 TIE_RTOL) lambda_min(S(0))
    may prove lambda_min(S(w)) > c at every w; the w = 0 sample is then the result, no sweep.
    """
    return _sup_bound(plant, None, grid)


def weighted_lower_bound(plant: RationalPlant, weight, grid=None) -> BoundResult:
    """Lower bound for the cost |Q y|^2 + |u|^2, using M Q^+ in place of M.

    Descriptor plants put P = Q^+ Q^+^T into A P A^T, E P E^T and A P E^T.
    """
    w = weight if isinstance(weight, WeightedObjective) else WeightedObjective(weight)
    return _sup_bound(plant, w.pinv, grid)


def _cleared(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Columns num_j times the product of the distinct den columns other than den_j."""
    import scipy.linalg
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


def rational_stability(plant: RationalPlant, gain: Gain, loop: StateSpace | None = None) -> StabilityResult:
    """Pole test for gains on plants with no descriptor form: every pole left of -1e-9 (1 + max |pole|).

    The poles are the ``poles`` of the loop ``realize_loop`` built, if given. Else row i of
    M - N K is cleared by the product of the distinct denominators in row i of M and of the N
    columns that K feeds, which gives a polynomial matrix P(s) = sum_t C_t s^t, and the poles
    are the finite eigenvalues of its block-companion pencil, from one QZ factorization.
    Infinite eigenvalues, which a singular leading block C_d brings, are dropped; a pair with
    alpha = beta = 0 means det P vanishes identically. An overflowing gain raises InvalidInputError.
    """
    if loop is not None:
        return _clear_of_axis(loop.poles)
    K, k = gain.K, plant.k
    if K.shape != (plant.m, k):
        raise DimensionError(f"gain must be {plant.m} x {k}, got {K.shape}")
    fed = np.flatnonzero(K.any(axis=1))
    num = join_columns(plant.m_num, plant.n_num[:, :, fed])
    den = join_columns(plant.m_den, plant.n_den[:, :, fed])
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
    import scipy.linalg
    alpha, beta = scipy.linalg.eigvals(A, B, homogeneous_eigvals=True)
    a, b = np.abs(alpha), np.abs(beta)
    if np.any((a <= RANK_RTOL * np.linalg.norm(A)) & (b <= RANK_RTOL * np.linalg.norm(B))):
        return StabilityResult(False, math.inf)
    finite = b > RANK_RTOL * a
    return _clear_of_axis(alpha[finite] / beta[finite])


def _clear_of_axis(poles: np.ndarray) -> StabilityResult:
    if not poles.size:
        return StabilityResult(True, -math.inf)
    abscissa = float(poles.real.max())
    margin = STABILITY_MARGIN_RTOL * (1.0 + float(np.abs(poles).max()))
    return StabilityResult(abscissa < -margin, abscissa)


def _route(
    plant: RationalPlant | DescriptorPlant, gain: Gain
) -> tuple[DescriptorPlant | None, StateSpace | None, Callable]:
    """(desc, loop, sigma): the certificate's route, read from rcond(E) alone.

    ``desc`` is the descriptor for the pencil pole test if E passes the rank test, else None
    (``rational_stability``). If also cond(E) < REDUCTION_COND_MAX, ``loop`` is the loop
    closed for level sets and ``sigma`` its _GramSigma; a plant with no descriptor takes
    ``realize_loop``'s loop. Else, or if that refuses, ``loop`` is None and ``sigma`` is
    _grid_sigma. ``sigma``, w -> sigma_max(T(jw)), is the loop's one evaluator; both
    kinds raise PoleOnAxisError at a pole on the axis. Kd's own array (not an equal one) closes
    its loop once per plant (``desc.kd_loop``). ``plant`` may be a descriptor with cond(E) < 1e8.
    """
    desc = plant if isinstance(plant, DescriptorPlant) else plant.descriptor
    if desc is None:
        loop = realize_loop(plant, gain)
        return None, loop, _grid_sigma(plant, gain) if loop is None else _GramSigma(loop)
    if not desc.state_space:
        return None, None, _grid_sigma(plant, gain)
    if desc.rcond_E <= 1.0 / REDUCTION_COND_MAX:
        return desc, None, _grid_sigma(plant, gain)
    if gain.K is not vars(desc).get("Kd"):  # not desc.Kd, which would solve for a buffer law
        loop = close_loop(desc, gain)
        return desc, loop, _GramSigma(loop)
    if desc.kd_loop is None:
        loop = close_loop(desc, gain)
        desc.kd_loop = loop, _GramSigma(loop)
    return desc, *desc.kd_loop


def _entry_poles(plant: RationalPlant, w) -> np.ndarray:
    """Where an entry of M(jw) or N(jw) has a pole: NaN on the grid, left out of a realized loop too."""
    w = np.atleast_1d(w)
    return np.isnan(plant.eval_M(w)[:, 0, 0] + plant.eval_N(w)[:, 0, 0])


def sigma_table(plant: RationalPlant, gain: Gain, grid) -> list[tuple[float, float, int]]:
    """(w, sigma_max(T(jw)), is_peak) at each grid frequency that is not an entry pole, on every route.

    sigma is ``_route``'s evaluator, so the row at omega0 is the certificate's sigma0, bit for
    bit; the peak is the first row within TIE_RTOL of the largest value."""
    desc, loop, smax = _route(plant, gain)
    grid, vs = np.asarray(grid, dtype=float), smax(grid)
    if desc is None and loop is not None:
        vs[_entry_poles(plant, grid)] = np.nan
    ws, vs = freqgrid.kept_samples(grid, vs)
    peak = int(np.argmax(vs >= vs.max() * (1.0 - freqgrid.TIE_RTOL)))
    return [(w, v, int(i == peak)) for i, (w, v) in enumerate(zip(ws.tolist(), vs.tolist()))]


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

    The route is ``_route``'s, decided once. On the level-set route the pole test and the
    norm read the loop's one spectrum (``StateSpace.poles``), which the structure block has
    computed if the gain is the plant's Kd. The norm and sigma0 read the route's one sigma
    evaluator: the level-set norm seeds from it, the grid norm sweeps it. The gain is
    optimal when the loop is stable, |norm - lb| <= tol (1 + lb), and sigma0 =
    sigma_max(T(j omega0)) >= lb - tol (1 + lb); as sigma0 <= norm, omega0 then attains
    the norm within tol. A pole at omega0 makes sigma0 NaN. An unstable loop is a
    verdict; an error raised while computing the norm propagates.
    """
    desc, loop, smax = _route(plant, gain)
    stab = rational_stability(plant, gain, loop) if desc is None else pencil_stability(desc, gain, loop)

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
            X = None  # X = -A^{-1} E: its diagonal for diagonal A, E
            if desc is not None and desc.exactly_symmetric_commuting:
                X = -desc.E.diagonal() / desc.A.diagonal() if desc.exactly_diagonal else -np.linalg.solve(desc.A, desc.E)
            norm, peak = hinf_norm_ss(loop, sigma=smax, storage=X)
        try:
            at_pole = desc is None and loop is not None and _entry_poles(plant, gain.omega0)[0]
            sigma0 = math.nan if at_pole else float(smax(gain.omega0))
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


def certificate_blocks(plant: RationalPlant | None, gain: Gain, tol=CERT_RTOL, grid=None) -> tuple:
    """(blocks, verdict) of a verify report: ``checks`` (``structure_checks``) and ``certificate``.

    A machine network (``plant`` None) certifies each mode m s + d + lambda / s under its modal
    gain, in ``modes``; ``certificate`` is the largest norm's, the verdict the worst verdict."""
    if plant is not None:
        checks = structure_checks(plant)
        cert = certify_optimality(plant, gain, tol=tol, grid=grid)
        return {"checks": checks, "certificate": asdict(cert)}, cert.verdict
    m, d = gain.metadata["mass"], gain.metadata["damping"]
    certs = [certify_optimality(modal_plant(m, d, mode["eigenvalue"]),
                                Gain([[mode["gain"]]], mode["omega0"], "modal"), tol=tol, grid=grid)
             for mode in gain.metadata["modes"]]
    worst = max(certs, key=lambda c: c.hinf_norm)
    worst_first = ("unstable", "stable-but-suboptimal", "optimal")
    verdict = min((c.verdict for c in certs), key=worst_first.index)
    return {"checks": {}, "certificate": asdict(worst), "modes": list(map(asdict, certs))}, verdict


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


def _descriptor_loop_below(plant: DescriptorPlant, level: float) -> bool:
    """Whether sigma_max(T(jw)) < level^{-1/2} at every w, T the plant's one loop of K = B^T A^{-T}
    (``_route``): an L-infinity level test, which needs no stability. False if level <= 0,
    cond(E) >= 1e8 or a pole is on the axis."""
    if level <= 0.0 or plant.rcond_E <= 1.0 / REDUCTION_COND_MAX:
        return False
    _, loop, sigma = _route(plant, synth.descriptor_gain(plant))
    gamma = level**-0.5
    return _below_level(sigma, gamma, loop.A, loop.B @ loop.B.T / gamma**2, sigma.CtC)


def zero_peak_inequality(plant: DescriptorPlant, grid=None) -> DominanceResult:
    """Check w^2 F G^{-1} F^T + j w (F^T - F) + G >= ||G^{-1}||^{-1} I for all w.

    F = E A^T and G = A A^T + B B^T. lambda_min(H(w)) sigma_max(T_K(jw))^2 = 1 for the
    descriptor gain K = B^T A^{-T}, so holding for every frequency means that loop peaks at
    w = 0; ``holds`` says nothing about stability, which the pencil test decides. The check
    samples an adaptive grid and allows -1e-9 lambda_max(G), which scales as H(w) does with
    (E, A, B); beyond the crossover where the quadratic term dominates the linear one, the
    inequality holds automatically and sampling stops (tail rule). A singular F restricts
    the tail argument to the complement of its kernel and extends the grid to 1e6 instead.
    ``checked_up_to`` and ``tail_rule`` describe that grid. If it starts at w = 0 and cond(E) < 1e8,
    a level test on Kd's loop asks if sigma_max(T_K(jw)) < (lambda_min(G) - 1e-9 lambda_max(G))^{-1/2},
    the allowance, at every w; if so, the check holds with the w = 0 sample and no sweep.
    """
    E, A, G = plant.E, plant.A, plant.gram
    F = E @ A.T
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
        tail_rule = "subspace" if (lam_f > tiny).any() else "none"
        hi = 1e6

    if grid is None:
        grid = default_grid(freqgrid.GRID_MIN, hi)
    eye = np.eye(G.shape[0])

    def min_eig(w):
        w = w[..., None, None]
        H = (w * w) * FGF + (1j * w) * skew + G - thresh * eye
        return np.linalg.eigvalsh(H)[..., 0]

    allowance = -1e-9 * float(lam_g[-1])
    if grid[0] == 0.0 and _descriptor_loop_below(plant, thresh + allowance):
        res = freqgrid.PeakResult(float(min_eig(np.zeros(1))[0]), 0.0)
    else:
        res = adaptive_min(lambda w: freqgrid.chunked(min_eig, w, 32 * G.size),
                           grid=grid, batched=True)
    return DominanceResult(
        holds=res.value >= allowance,
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
        return all(astuple(self))

    def __bool__(self) -> bool:
        return self.holds


def symmetric_commuting_check(plant: DescriptorPlant) -> SymmetryReport:
    """Check E = E^T > 0, A = A^T < 0 and E A = A E.

    When all five flags hold, the descriptor gain is optimal with peak at
    zero and no frequency sweep is needed to certify it. A residue E - E^T,
    A - A^T or E A - A E that is exactly zero passes with no norm taken;
    ||E|| and ||A|| are taken only if some residue is nonzero. The definiteness
    of an exactly diagonal E or A is read from its diagonal's signs, not eigvalsh. ||M||_2 lies in
    [||M||_F / sqrt(n), ||M||_F], each end widened by 8 n^2 eps (a Frobenius norm's rounding
    against an SVD's); the SVDs run only for a flag those ends leave open, so no flag moves.
    """
    E, A, flags = plant.E, plant.A, [True] * 3
    if not plant.exactly_symmetric_commuting:
        residues, wide = (E - E.T, A - A.T, E @ A - A @ E), 1.0 + 8.0 * plant.n**2 * np.finfo(float).eps
        ends = lambda M: (spectral_norm(M),) * 2 if linalg._exactly_diagonal(M) else (  # noqa: E731
            np.linalg.norm(M) / (math.sqrt(plant.n) * wide), np.linalg.norm(M) * wide)
        caps = lambda ne, na: (1e-12 * max(ne, 1e-300), 1e-12 * max(na, 1e-300), 1e-10 * max(ne * na, 1e-300))  # noqa: E731
        (e_lo, e_hi), (a_lo, a_hi) = ends(E), ends(A)
        exact = cache(lambda: caps(spectral_norm(E), spectral_norm(A)))  # the SVDs, once, if asked
        flags = [not r.any() or ends(r)[1] <= lo or ends(r)[0] <= hi and spectral_norm(r) <= exact()[i]
                 for i, (r, lo, hi) in enumerate(zip(residues, caps(e_lo, a_lo), caps(e_hi, a_hi)))]
    sym_e, sym_a, commuting = flags

    def eig(M, i):  # eigenvalue i, ascending, of M's symmetric part
        diag = linalg._exactly_diagonal(M)
        return np.sort(M.diagonal())[i] if diag else np.linalg.eigvalsh(0.5 * (M + M.T))[i]

    pd_e = bool(sym_e and eig(E, 0) > 0)
    nd_a = bool(sym_a and eig(A, -1) < 0)
    return SymmetryReport(sym_e, pd_e, sym_a, nd_a, commuting)


def structure_checks(plant: RationalPlant) -> dict:
    """The report's structure block: the sweep-free route's test and, if it fails, its fallback.

    {} for a plant with no descriptor form. The fallback's pencil test is of the descriptor
    gain K = B^T A^{-T}, whatever gain is being verified, and reads Kd's one loop (``_route``).
    """
    desc = plant.descriptor
    if desc is None:
        return {}
    sym = symmetric_commuting_check(desc)
    out = {"symmetric_commuting": {**asdict(sym), "holds": sym.holds}}
    if not sym.holds:
        pencil = {"applicable": False, "reason": "E is singular"}
        if desc.state_space:
            kd = synth.descriptor_gain(desc)
            pencil = pencil_stability(desc, kd, _route(plant, kd)[1])._asdict()
        out["fallback"] = {
            "zero_peak_inequality": asdict(zero_peak_inequality(desc)),
            "pencil_stability": pencil,
        }
    return out


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
