"""State-space cross-validation layer.

Companion-form realizations of the positive-real function and its
minimum-phase spectral factor, the classical discrete algebraic Riccati
equation as an independent oracle, and the equivalence check between its
minimal solution and the minimal solution of the companion-form
(zero-dynamics) Riccati equation with frozen g.  Used to validate the
main solver against standard stochastic realization theory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .cee import CEEProblem, SolveOptions, companion, solve_cee
from .errors import DataError, InvalidBranchError, SolverError, VerificationError


@dataclass(frozen=True, eq=False)
class CompanionRealization:
    """f(z) = 1/2 + h'(zI - F)^{-1} g with F = J - a h'."""

    a: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float).ravel()
        g = np.asarray(self.g, dtype=float).ravel()
        if a.size != g.size or a.size < 1:
            raise DataError("a and g must be n-vectors, n >= 1")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "g", g)

    @property
    def n(self) -> int:
        return self.a.size

    @property
    def F(self) -> np.ndarray:
        return companion(self.a)

    def __call__(self, z):
        return eval_f_realization(self, z)


@dataclass(frozen=True, eq=False)
class SpectralFactorRealization:
    """w(z) = rho + h'(zI - F)^{-1} k."""

    a: np.ndarray
    k: np.ndarray
    rho: float

    @property
    def F(self) -> np.ndarray:
        return companion(self.a)

    def __call__(self, z):
        zz = np.asarray(z, dtype=complex)
        out = np.empty(zz.shape, dtype=complex)
        F = self.F
        n = self.a.size
        for idx, zval in np.ndenumerate(zz):
            x = np.linalg.solve(zval * np.eye(n) - F, self.k)
            out[idx] = self.rho + x[0]
        return out[()] if out.shape == () else out


def g_from_ab(a, b) -> np.ndarray:
    """Realization vector g = (b - a)/2 from the coefficient vectors."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.size != b.size:
        raise DataError("a and b must have equal length")
    return 0.5 * (b - a)


def b_from_ag(a, g) -> np.ndarray:
    """Inverse map: numerator coefficients b = a + 2g."""
    return np.asarray(a, dtype=float).ravel() + 2.0 * np.asarray(g, dtype=float).ravel()


def eval_f_realization(real: CompanionRealization, z) -> complex:
    """Resolvent evaluation 1/2 + h'(zI - F)^{-1} g via a direct solve."""
    F = real.F
    n = real.n
    A = z * np.eye(n) - F
    scale = max(1.0, abs(z), float(np.max(np.abs(real.a))))
    if np.linalg.svd(A, compute_uv=False)[-1] < 1e-13 * scale:
        raise DataError(f"z = {z} is at or near an eigenvalue of F")
    x = np.linalg.solve(A, real.g.astype(complex))
    val = 0.5 + x[0]
    return complex(val)


def riccati_step(F: np.ndarray, g: np.ndarray, P: np.ndarray) -> np.ndarray:
    """One update of P -> F P F' + (g - F P h)(1 - h'Ph)^{-1}(g - F P h)'."""
    hPh = float(P[0, 0])
    if hPh >= 1.0:
        raise InvalidBranchError(f"h'Ph = {hPh} >= 1 during Riccati iteration")
    q = g - F @ P[:, 0]
    Pn = F @ P @ F.T + np.outer(q, q) / (1.0 - hPh)
    return 0.5 * (Pn + Pn.T)


def _are_residual(F, g, P):
    s = 1.0 - float(P[0, 0])
    q = g - F @ P[:, 0]
    return P - F @ P @ F.T - np.outer(q, q) / s


def solve_are_minimal(a, g) -> np.ndarray:
    """Minimal solution of the classical discrete ARE
    P = F P F' + (g - F P h)(1 - h'Ph)^{-1}(g - F P h)'.

    The minimal solution is the stabilizing one (its closed loop is the
    companion matrix of the minimum-phase numerator), which is what the QZ
    method of Arnold & Laub (Proc. IEEE 72, 1984) computes:
    ``scipy.linalg.solve_discrete_are`` with A = F', B = h, Q = 0, R = -1,
    S = -g.  One exact closed-loop Stein solve with the filter gain
    K = (g - FPh)/(1 - h'Ph),

        P = (F - Kh') P (F - Kh')' + gK' + Kg' - KK',

    then removes the QZ roundoff, which the (1 - h'Ph)^{-1} factor
    amplifies near the branch boundary.  QZ returns a stabilizing solution
    even where no state covariance exists (e.g. a(z) not Schur), so the
    result is accepted only if it is positive semidefinite with h'Ph < 1
    and solves the equation; otherwise :class:`InvalidBranchError`.
    """
    a = np.asarray(a, dtype=float).ravel()
    g = np.asarray(g, dtype=float).ravel()
    n = a.size
    F = companion(a)
    try:
        P = scipy.linalg.solve_discrete_are(
            F.T, np.eye(n, 1), np.zeros((n, n)), -np.eye(1), s=-g.reshape(n, 1)
        )
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"QZ found no stabilizing ARE solution: {exc}") from exc
    s = 1.0 - float(P[0, 0])
    if not s > 0.0:
        raise InvalidBranchError(f"h'Ph = {P[0, 0]} >= 1 at the ARE solution")
    K = (g - F @ P[:, 0]) / s
    A = F.copy()
    A[:, 0] -= K
    try:
        P = scipy.linalg.solve_discrete_lyapunov(
            A, np.outer(g, K) + np.outer(K, g) - np.outer(K, K)
        )
    except np.linalg.LinAlgError as exc:
        raise SolverError("closed-loop Stein equation singular") from exc
    P = 0.5 * (P + P.T)
    scale = max(1.0, float(np.max(np.abs(P))))
    if not (np.all(np.isfinite(P)) and P[0, 0] < 1.0):
        raise InvalidBranchError(f"h'Ph = {P[0, 0]} >= 1 at the ARE solution")
    if float(np.linalg.eigvalsh(P)[0]) < -1e-9 * scale:
        raise InvalidBranchError("ARE solution is not positive semidefinite")
    residual = float(np.linalg.norm(_are_residual(F, g, P), "fro"))
    if residual > 1e-8 * scale:
        raise InvalidBranchError(
            f"ARE solution fails the equation (residual {residual:.3e})"
        )
    return P


def solve_riccati_gamma(sigma, g, tol: float = 1e-12) -> np.ndarray:
    """Minimal solution of P = Gamma (P - P h h' P) Gamma' + g g' with Gamma
    the companion matrix of sigma and g held fixed.

    This is the covariance extension equation with u = g and U = 0, so it is
    solved by :func:`solve_cee` unchanged.
    """
    sigma = np.asarray(sigma, dtype=float).ravel()
    prob = CEEProblem(sigma=sigma, u=g, U=np.zeros((sigma.size, sigma.size)))
    return solve_cee(prob, SolveOptions(tol=tol)).P


def k_and_rho(P: np.ndarray, sigma, a, g) -> tuple[np.ndarray, float, float]:
    """Spectral-factor input vector and gain, computed both ways.

    Route 1 (stochastic realization): rho = sqrt(1 - h'Ph),
    k = (g - F P h)/rho.  Route 2 (polynomial): k = rho (sigma - a).
    Returns (k, rho, agreement) where agreement is the max-norm gap between
    the two routes; raises :class:`VerificationError` above 1e-10.
    """
    sigma = np.asarray(sigma, dtype=float).ravel()
    a = np.asarray(a, dtype=float).ravel()
    g = np.asarray(g, dtype=float).ravel()
    hPh = float(P[0, 0])
    if hPh >= 1.0:
        raise InvalidBranchError(f"h'Ph = {hPh} >= 1")
    rho = float(np.sqrt(1.0 - hPh))
    F = companion(a)
    k_riccati = (g - F @ P[:, 0]) / rho
    k_poly = rho * (sigma - a)
    agreement = float(np.max(np.abs(k_riccati - k_poly)))
    if agreement > 1e-10:
        raise VerificationError(
            f"spectral-factor vector mismatch between the Riccati and "
            f"polynomial routes: {agreement:.3e}"
        )
    return k_riccati, rho, agreement


@dataclass(frozen=True, eq=False)
class RiccatiComparison:
    P_classical: np.ndarray
    P_companion: np.ndarray
    difference: float
    passed: bool


def compare_riccati_forms(
    a, g, sigma, tol: float = 1e-12, agree_tol: float = 1e-8
) -> RiccatiComparison:
    """Solve the classical ARE and the companion-form equation (frozen g)
    independently and compare their minimal solutions.  ``tol`` is the
    tolerance of the companion-form solve."""
    P27 = solve_are_minimal(a, g)
    P29 = solve_riccati_gamma(sigma, g, tol=tol)
    diff = float(np.linalg.norm(P27 - P29, "fro"))
    return RiccatiComparison(
        P_classical=P27,
        P_companion=P29,
        difference=diff,
        passed=diff <= agree_tol,
    )
