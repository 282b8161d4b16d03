"""Dense linear-algebra and polynomial primitives used throughout the package.

All matrix inputs are coerced with ``np.asarray``; complex entries are
allowed everywhere. Operations are pure functions on their arguments and are
safe to call concurrently. scipy is imported only where QZ runs, inside
``generalized_eigenvalues`` when cond(e) >= REDUCTION_COND_MAX, so importing
this module does not load it. ``rcond`` and ``spectral_norm`` of an exactly
diagonal real matrix (``_exactly_diagonal``) read |diag| and run no SVD.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    DimensionError,
    InvalidInputError,
    PoleAtEvaluationError,
    SingularMatrixError,
)

# A matrix is numerically rank deficient when rcond(m) <= RANK_RTOL. Matches
# the invertibility margin assumed of every plant this package accepts.
RANK_RTOL = 1e-12

# Above this condition number the pencil (a, e) is no longer reduced to
# e^{-1} a; a QZ factorization is used instead.
REDUCTION_COND_MAX = 1e8


def _as_matrix(m, name="matrix"):
    a = np.atleast_2d(np.asarray(m))
    if a.ndim != 2:
        raise DimensionError(f"{name} must be two-dimensional, got ndim={a.ndim}")
    if not np.issubdtype(a.dtype, np.number):
        raise InvalidInputError(f"{name} must be numeric")
    return a.astype(complex) if np.iscomplexobj(a) else a.astype(float)


def _require_finite(a, name="matrix"):
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name} contains NaN or Inf entries")


def _exactly_diagonal(a) -> bool:
    """Whether ``a`` is a nonempty real square matrix with a finite diagonal and exact zeros off it."""
    return bool(isinstance(a, np.ndarray) and a.dtype == np.float64 and a.ndim == 2
                and a.shape[0] == a.shape[1] > 0 and np.isfinite(a.diagonal()).all()
                and np.count_nonzero(a) == np.count_nonzero(a.diagonal()))


def spectral_norm(m) -> float:
    """Largest singular value of ``m``.

    Raises InvalidInputError on NaN/Inf entries. Returns 0.0 for empty or
    zero matrices. An exactly diagonal matrix gives max|d| (see ``rcond``).
    """
    a = _as_matrix(m)
    _require_finite(a, "spectral_norm input")
    if a.size == 0:
        return 0.0
    if _exactly_diagonal(a):
        return float(np.abs(a.diagonal()).max())
    return float(np.linalg.norm(a, 2))


def rcond(m):
    """sigma_min / sigma_max of ``m``, or 0.0 for an empty or zero matrix.

    A stack of matrices gives one value per matrix. An exactly diagonal real
    matrix gives min|d| / max|d| with no SVD: exact, and bitwise the SVD's
    value while every |d| lies in [1e-100, 1e100], where LAPACK does not rescale.
    """
    if _exactly_diagonal(m):
        d = np.abs(m.diagonal())
        return float(d.min() / d.max()) if d.max() != 0.0 else 0.0
    sv = np.linalg.svd(m, compute_uv=False)
    if sv.ndim > 1:
        top = sv[..., 0]
        return np.divide(sv[..., -1], top, out=np.zeros_like(top), where=top != 0.0)
    if sv.size == 0 or sv[0] == 0.0:
        return 0.0
    return float(sv[-1] / sv[0])


def eigenvalues(m) -> np.ndarray:
    """Eigenvalues of a square matrix, with multiplicity, in no particular order."""
    a = _as_matrix(m)
    _require_finite(a, "eigenvalues input")
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"eigenvalues requires a square matrix, got {a.shape}")
    return np.linalg.eigvals(a)


def generalized_eigenvalues(a, e) -> np.ndarray:
    """Eigenvalues of the pencil (a, e), i.e. the roots of det(lambda*e - a).

    ``e`` must be invertible. Well-conditioned pencils are reduced to the
    ordinary eigenvalue problem of e^{-1} a; ill-conditioned (but still
    invertible) ones go through a QZ factorization.
    """
    aa = _as_matrix(a, "a")
    ee = _as_matrix(e, "e")
    _require_finite(aa, "a")
    _require_finite(ee, "e")
    if aa.shape[0] != aa.shape[1] or ee.shape[0] != ee.shape[1]:
        raise DimensionError("pencil matrices must be square")
    if aa.shape != ee.shape:
        raise DimensionError(f"pencil matrices must agree in size, got {aa.shape} vs {ee.shape}")
    rc = rcond(ee)
    if rc <= RANK_RTOL:
        raise SingularMatrixError(
            f"pencil matrix e is singular to working precision (rcond~{rc:.2e})",
            rcond=rc,
        )
    if rc > 1.0 / REDUCTION_COND_MAX:
        return np.linalg.eigvals(np.linalg.solve(ee, aa))
    import scipy.linalg
    return scipy.linalg.eigvals(aa, ee)


def pseudoinverse(m) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values below RANK_RTOL times the largest are treated as zero,
    so this is a total function (the zero matrix maps to its transpose shape).
    """
    a = _as_matrix(m)
    _require_finite(a, "pseudoinverse input")
    return np.linalg.pinv(a, rcond=RANK_RTOL)


def trimmed_coefficients(p) -> np.ndarray:
    """Ascending coefficients of a Polynomial or sequence, trailing zeros trimmed.

    The zero polynomial trims to [0.0]. Raises InvalidInputError on NaN/Inf.
    """
    c = np.atleast_1d(np.asarray(p.coefficients if isinstance(p, Polynomial) else p, dtype=float))
    if c.ndim != 1:
        raise DimensionError("polynomial coefficients must be one-dimensional")
    if not np.all(np.isfinite(c)):
        raise InvalidInputError("polynomial coefficients must be finite")
    nz = np.nonzero(c)[0]
    return c[: nz[-1] + 1] if nz.size else np.zeros(1)


@dataclass
class Polynomial:
    """Real polynomial with coefficients in ascending degree order.

    Trailing zero coefficients are trimmed on construction so the leading
    coefficient is nonzero unless this is the zero polynomial.
    """

    coefficients: np.ndarray = field(default_factory=lambda: np.zeros(1))

    def __post_init__(self):
        self.coefficients = trimmed_coefficients(self.coefficients)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return self.degree == 0 and self.coefficients[0] == 0.0

    def __call__(self, s: complex) -> complex:
        # Horner evaluation, highest degree first.
        acc = 0.0 + 0.0j
        for c in self.coefficients[::-1]:
            acc = acc * s + c
        return complex(acc)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(np.polynomial.polynomial.polymul(self.coefficients, other.coefficients))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(np.polynomial.polynomial.polyadd(self.coefficients, other.coefficients))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(np.polynomial.polynomial.polysub(self.coefficients, other.coefficients))


def rational_eval(num, den, s: complex) -> complex:
    """Evaluate num(s)/den(s) by Horner's rule.

    ``num`` and ``den`` may be Polynomial instances or ascending coefficient
    sequences. Raises PoleAtEvaluationError when den(s) == 0.
    """
    pnum = num if isinstance(num, Polynomial) else Polynomial(num)
    pden = den if isinstance(den, Polynomial) else Polynomial(den)
    d = pden(s)
    if d == 0:
        raise PoleAtEvaluationError(f"denominator vanishes at s={s}")
    return pnum(s) / d
