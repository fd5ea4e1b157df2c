"""Covariance-sequence data handling.

Ergodic estimation from observation records, Toeplitz positivity, the
(u, U) parameter construction via power-series inversion of the
covariance polynomial, and algebraic-degree analysis through Hankel
rank.  Sequences are normalized to c_0 = 1 on ingestion (the expansion
convention fixes f(inf) = 1/2, which presumes unit variance); the raw
scale is remembered so outputs can be rescaled on export.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DataError
from .polyalg import RationalPR, SchurPolynomial


@dataclass(frozen=True, eq=False)
class CovarianceSequence:
    """Normalized covariance lags (1, c_1, ..., c_n) with raw scale c_0."""

    c: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float).ravel().copy()
        if c.size < 1:
            raise DataError("covariance sequence needs at least c_0")
        if not np.all(np.isfinite(c)):
            raise DataError("covariance lags must be finite")
        if abs(c[0] - 1.0) > 1e-12:
            raise DataError("normalized sequence must have c_0 = 1; use from_raw")
        c[0] = 1.0
        c.setflags(write=False)
        object.__setattr__(self, "c", c)

    @classmethod
    def from_raw(cls, values) -> "CovarianceSequence":
        v = np.asarray(values, dtype=float).ravel()
        if v.size < 1:
            raise DataError("covariance sequence needs at least c_0")
        if not (np.all(np.isfinite(v)) and v[0] > 0.0):
            raise DataError("c_0 must be positive and all lags finite")
        return cls(v / v[0], scale=float(v[0]))

    @property
    def n(self) -> int:
        return self.c.size - 1

    @property
    def raw(self) -> np.ndarray:
        return self.c * self.scale

    def toeplitz(self) -> np.ndarray:
        return scipy.linalg.toeplitz(self.c)


@dataclass(frozen=True, eq=False)
class CovParams:
    """Expansion parameters u and strictly lower-triangular Toeplitz U.

    u holds the first n coefficients of the expansion of
    z^n / (z^n + c_1 z^{n-1} + ... + c_n) about infinity; U has first
    column (0, u_1, ..., u_{n-1}).
    """

    u: np.ndarray
    U: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float).ravel().copy()
        U = np.asarray(self.U, dtype=float).copy()
        n = u.size
        if U.shape != (n, n):
            raise DataError("U must be n x n with n = len(u)")
        expected = _strict_lower_toeplitz(u)
        if not np.array_equal(U, expected):
            raise DataError("U must be the strictly lower-triangular Toeplitz "
                            "matrix built from (0, u_1, ..., u_{n-1})")
        u.setflags(write=False)
        U.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "U", U)

    @property
    def n(self) -> int:
        return self.u.size


@dataclass(frozen=True, eq=False)
class ObservationRecord:
    """Scalar output record y_0, ..., y_N."""

    y: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float).ravel().copy()
        if y.size < 2:
            raise DataError("record must contain at least two samples")
        if not np.all(np.isfinite(y)):
            raise DataError("record must be finite")
        y.setflags(write=False)
        object.__setattr__(self, "y", y)

    @property
    def N(self) -> int:
        return self.y.size - 1


def _strict_lower_toeplitz(u: np.ndarray) -> np.ndarray:
    """The strictly lower-triangular Toeplitz matrix with first column
    (0, u_1, ..., u_{n-1}): one fancy index into (0, ..., 0, u_1, ...,
    u_{n-1})."""
    n = u.size
    w = np.concatenate((np.zeros(n), u[: n - 1]))
    return w[np.subtract.outer(np.arange(n - 1, 2 * n - 1), np.arange(n))]


def unit_lower_toeplitz(c_tail: np.ndarray, n: int) -> np.ndarray:
    """Unit lower-triangular Toeplitz matrix with first column
    (1, c_1, ..., c_{n-1})."""
    col = np.concatenate([[1.0], np.asarray(c_tail, dtype=float)[: n - 1]])
    row = np.zeros(n)
    row[0] = 1.0
    return scipy.linalg.toeplitz(col, row)


def estimate_covariances(
    record: ObservationRecord, n: int, unbiased: bool = False
) -> CovarianceSequence:
    """Ergodic covariance estimates c_k = (1/(N+1)) sum_t y_{t+k} y_t, k <= n.

    The biased divisor N+1 is used for every lag, which makes the resulting
    Toeplitz matrix a Gram matrix and hence positive semidefinite.  With
    ``unbiased=True`` each lag divides by N+1-k instead; positivity of the
    Toeplitz matrix may then fail, so a warning is emitted.
    """
    y = record.y
    N = record.N
    if not 0 <= n <= N:
        raise DataError(f"max lag n = {n} must satisfy 0 <= n <= N = {N}")
    raw = np.array([np.dot(y[k:], y[: y.size - k]) for k in range(n + 1)])
    if unbiased:
        warnings.warn(
            "unbiased covariance estimates may lose Toeplitz positive "
            "semidefiniteness",
            stacklevel=2,
        )
        raw = raw / (N + 1 - np.arange(n + 1))
    else:
        raw = raw / (N + 1)
    if raw[0] <= 0.0:
        raise DataError("record is identically zero; covariances undefined")
    return CovarianceSequence.from_raw(raw)


def toeplitz_min_eig(c: CovarianceSequence) -> float:
    """Smallest eigenvalue of the (normalized) covariance Toeplitz matrix.

    The sequence is positive iff this is > 0.
    """
    return float(scipy.linalg.eigvalsh(c.toeplitz())[0])


def build_cov_params(c: CovarianceSequence) -> CovParams:
    """Expansion parameters (u, U) of a normalized covariance sequence.

    u solves the triangular recursion c_k = u_k + sum_{j<k} c_{k-j} u_j,
    equivalently C u = (c_1, ..., c_n)' with C the unit lower-triangular
    Toeplitz matrix of the sequence; C (I - U) = I holds as well.
    """
    n = c.n
    u = np.zeros(n)
    cc = c.c
    for k in range(1, n + 1):
        u[k - 1] = cc[k] - np.dot(cc[1:k][::-1], u[: k - 1])
    return CovParams(u=u, U=_strict_lower_toeplitz(u))


def _numerical_rank(M: np.ndarray, rank_tol: float) -> int:
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rank_tol * s[0]))


def _hankel(lags: np.ndarray, d: int) -> np.ndarray:
    """d x d Hankel matrix with first row (c_1, ..., c_d)."""
    return scipy.linalg.hankel(lags[:d], lags[d - 1 : 2 * d - 1])


def algebraic_degree(c: CovarianceSequence, rank_tol: float = 1e-8) -> int:
    """Numerical Hankel rank of the largest testable Hankel matrix.

    Tests sizes 1 .. floor(n/2); the rank of the largest is the stabilized
    value (ranks of nested Hankel matrices of a realizable sequence
    plateau at the minimal realization degree).  At least two lags are
    required.
    """
    n = c.n
    if n < 2:
        raise DataError("algebraic degree needs at least two lags (n >= 2)")
    d_max = n // 2
    return _numerical_rank(_hankel(c.c[1:], d_max), rank_tol)


def partial_realization(c: CovarianceSequence, rank_tol: float = 1e-8) -> RationalPR:
    """Deterministic partial realization of degree d = algebraic degree.

    Returns f = b/(2a) whose expansion matches c_1, ..., c_2d.  No
    positivity is promised: a may fail to be Schur and f may fail to be
    positive real, which is exactly the failure mode separating the
    algebraic from the positive degree.
    """
    d = algebraic_degree(c, rank_tol)
    if d == 0:
        zero = SchurPolynomial(np.zeros(0))
        return RationalPR(a=zero, b=zero)
    lags = c.c[1:]
    H = _hankel(lags, d)
    cond = np.linalg.cond(H)
    if not np.isfinite(cond) or cond > 1e14:
        raise DataError(
            f"Hankel system of size {d} is numerically singular "
            f"(cond = {cond:.3g}); degenerate sequence"
        )
    # unknowns come out in reversed order: H (a_d, ..., a_1)' = -(c_{d+1..2d})'
    x = np.linalg.solve(H, -lags[d : 2 * d])
    a_vec = x[::-1]
    C = unit_lower_toeplitz(lags, d)
    b_vec = 2.0 * lags[:d] + (2.0 * C - np.eye(d)) @ a_vec
    a = SchurPolynomial(a_vec, check=False)
    b = SchurPolynomial(b_vec, check=False)
    if not a.is_schur:
        warnings.warn(
            "partial realization denominator is not Schur; the sequence's "
            "positive degree exceeds its algebraic degree",
            stacklevel=2,
        )
    return RationalPR(a=a, b=b)
