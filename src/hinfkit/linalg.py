"""Dense linear-algebra and polynomial primitives used throughout the package.

All matrix inputs are coerced with ``np.asarray``; complex entries are
allowed everywhere. Operations are pure functions on their arguments and are
safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .exceptions import (
    DimensionError,
    InvalidInputError,
    PoleAtEvaluationError,
    SingularMatrixError,
)

# Relative threshold below which singular values count as zero. Matches the
# invertibility margin assumed of every plant this package accepts.
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


def spectral_norm(m) -> float:
    """Largest singular value of ``m``.

    Raises InvalidInputError on NaN/Inf entries. Returns 0.0 for empty or
    zero matrices.
    """
    a = _as_matrix(m)
    _require_finite(a, "spectral_norm input")
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


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
    sv = np.linalg.svd(ee, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] <= RANK_RTOL * sv[0]:
        rcond = 0.0 if sv[0] == 0.0 else float(sv[-1] / sv[0])
        raise SingularMatrixError(
            f"pencil matrix e is singular to working precision (rcond~{rcond:.2e})",
            rcond=rcond,
        )
    if sv[0] / sv[-1] < REDUCTION_COND_MAX:
        return np.linalg.eigvals(np.linalg.solve(ee, aa))
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

    def scale(self, c: float) -> "Polynomial":
        return Polynomial(c * self.coefficients)


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
