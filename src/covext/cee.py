"""The covariance extension equation and its solvers.

The equation is the nonstandard symmetric matrix Riccati fixed point

    P = Gamma (P - P h h' P) Gamma' + g(P) g(P)',
    g(P) = u + U sigma + U Gamma P h,

with Gamma the companion matrix of the numerator polynomial sigma(z) and
h the first standard basis vector.  Its unique symmetric solution with
h'Ph < 1 yields the denominator a(z) and gain rho of the shaping filter

    a = (I - U)(Gamma P h + sigma) - u,      rho = sqrt(1 - h'Ph).

Everything here is parameter-agnostic: (u, U) may come from covariance
data or from interpolation data and the solver code path is identical.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg

from .covdata import CovarianceSequence, CovParams, build_cov_params
from .errors import DataError, InvalidBranchError, SolverError
from .polyalg import (
    SchurPolynomial,
    is_schur,
    reflection_to_tail,
    tail_to_reflection,
)


# fixed-point steps before the divergence guard may fire
_GRACE = 10
# Newton iteration caps: the full-space polish on the problem itself, and
# the first-column Newton of each continuation trial
_NEWTON_MAX_ITER = 100
_RAMP_NEWTON_MAX_ITER = 25
# the shortest damped step the first-column Newton tries before it fails
# the trial (Deuflhard's lambda_min; see "Damping floor" in
# notes/decisions.md)
_DAMPING_FLOOR = 1.0 / 16
# the data ramp stalls, and the numerator path gives up, once its step in
# t or s would fall below these (see "Numerator continuation" in
# notes/decisions.md)
_RAMP_MIN_STEP = 1e-9
_SIGMA_MIN_STEP = 0.01
# margin from +-1 of the positive-degree grid's reflection coefficients
_GRID_EPS = 0.05
_EPS = float(np.finfo(float).eps)


def companion(vec) -> np.ndarray:
    """Companion matrix J - v h' of z^n + v_1 z^{n-1} + ... + v_n: first
    column -v, ones on the superdiagonal."""
    v = np.asarray(vec, dtype=float).ravel()
    n = v.size
    F = np.zeros((n, n))
    F[:, 0] = -v
    idx = np.arange(n - 1)
    F[idx, idx + 1] = 1.0
    return F


@dataclass(frozen=True, eq=False)
class CEEProblem:
    """Assembled problem data (sigma, Gamma, u, U).

    Nothing records where (u, U) came from: covariance and interpolation
    parameters are the same kind of data to the solver.
    """

    sigma: np.ndarray
    u: np.ndarray
    U: np.ndarray
    Gamma: np.ndarray = field(init=False)

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=float).ravel().copy()
        u = np.asarray(self.u, dtype=float).ravel().copy()
        U = np.asarray(self.U, dtype=float).copy()
        n = sigma.size
        if n < 1:
            raise DataError("problem dimension must be at least 1")
        if u.size != n or U.shape != (n, n):
            raise DataError(
                f"dimension mismatch: len(sigma) = {n}, len(u) = {u.size}, "
                f"U.shape = {U.shape}"
            )
        if not is_schur(sigma):
            raise DataError("sigma must be a Schur polynomial")
        Gamma = companion(sigma)
        for arr in (sigma, u, U, Gamma):
            arr.setflags(write=False)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "Gamma", Gamma)

    def _with_parameters(self, u: np.ndarray, U: np.ndarray) -> "CEEProblem":
        """This problem's sigma and Gamma with new (u, U) of the same shapes,
        without re-running the Schur test and ``companion(sigma)``."""
        other = object.__new__(CEEProblem)
        u = u.copy()
        U = U.copy()
        for arr in (u, U):
            arr.setflags(write=False)
        for name, value in (("sigma", self.sigma), ("u", u), ("U", U),
                            ("Gamma", self.Gamma)):
            object.__setattr__(other, name, value)
        return other

    @property
    def n(self) -> int:
        return self.sigma.size


@dataclass(frozen=True, eq=False)
class CEESolution:
    """Solution bundle: P with h'Ph < 1, extracted (a, rho), derived b.

    ``iterations`` is the fixed-point step count for method "fixed-point".
    For "newton" it counts the n x n first-column Newton steps of the
    accepted trials of the continuation that delivered P, and the lifted
    full-space Newton steps (at least one) that polished its last trial,
    the one on the problem itself (the legs are listed at
    :func:`_ramp`).  Failed trials, and a numerator path that gave up, are
    not counted.
    """

    P: np.ndarray
    a: np.ndarray
    rho: float
    b: np.ndarray
    rank: int
    residual: float
    iterations: int
    method: str
    a_is_schur: bool


@dataclass(frozen=True)
class SolveOptions:
    """Solver controls.

    method "auto" (the default) and "newton" name the same path, Newton
    continuation from the solution at sigma = z^n (see :func:`_ramp`).
    "fixed-point" runs the paper's plain iteration from P = 0 alone, with
    a budget of ``max_iter`` steps; ``divergence_guard`` aborts that sweep once
    h'Ph >= 1 after the first ``_GRACE`` steps, appropriate when the data
    is known to be a positive covariance sequence.  ``max_iter`` and
    ``divergence_guard`` have no effect on the Newton path.  ``rank_tol``
    is the relative singular-value cutoff for the reported rank of P.
    """

    tol: float = 1e-12
    max_iter: int = 100_000
    method: str = "auto"
    divergence_guard: bool = True
    rank_tol: float = 1e-8

    def __post_init__(self):
        if self.method not in ("auto", "fixed-point", "newton"):
            raise DataError(f"unknown method {self.method!r}")
        if not self.tol > 0.0:
            raise DataError("tol must be positive")


def build_problem(params: CovParams, sigma: SchurPolynomial) -> CEEProblem:
    """Problem from covariance-side parameters and numerator polynomial."""
    if params.n != sigma.degree:
        raise DataError(
            f"dimension mismatch: params have n = {params.n}, "
            f"sigma has degree {sigma.degree}"
        )
    return CEEProblem(sigma=sigma.coeffs, u=params.u, U=params.U)


def problem_from_covariances(c: CovarianceSequence, sigma: SchurPolynomial) -> CEEProblem:
    return build_problem(build_cov_params(c), sigma)


def g_of_P(prob: CEEProblem, P: np.ndarray) -> np.ndarray:
    """g(P) = u + U sigma + U Gamma P h."""
    return prob.u + prob.U @ (prob.sigma + prob.Gamma @ P[:, 0])


def fixed_point_step(prob: CEEProblem, P: np.ndarray) -> np.ndarray:
    """One symmetrized update P -> Gamma (P - P h h' P) Gamma' + g(P) g(P)'."""
    Ph = P[:, 0]
    g = g_of_P(prob, P)
    Pn = prob.Gamma @ (P - Ph[:, None] * Ph) @ prob.Gamma.T + g[:, None] * g
    return 0.5 * (Pn + Pn.T)


def _residual_matrix(prob: CEEProblem, P: np.ndarray) -> np.ndarray:
    Ph = P[:, 0]
    g = g_of_P(prob, P)
    return P - prob.Gamma @ (P - Ph[:, None] * Ph) @ prob.Gamma.T - g[:, None] * g


def cee_residual(prob: CEEProblem, P: np.ndarray) -> float:
    """Frobenius norm of P - Gamma (P - P h h' P) Gamma' - g(P) g(P)'."""
    return float(np.linalg.norm(_residual_matrix(prob, P), "fro"))


def extract_filter(prob: CEEProblem, P: np.ndarray) -> tuple[np.ndarray, float]:
    """Denominator coefficients and gain from a solution P.

    a = (I - U)(Gamma P h + sigma) - u and rho = sqrt(1 - h'Ph).  The
    returned a(z) should be Schur at a converged solution; the caller is
    expected to check (a non-Schur result indicates an unconverged or
    wrong-branch P).
    """
    hPh = float(P[0, 0])
    if hPh >= 1.0:
        raise InvalidBranchError(f"h'Ph = {hPh} >= 1; no spectral factor exists")
    n = prob.n
    a = (np.eye(n) - prob.U) @ (prob.Gamma @ P[:, 0] + prob.sigma) - prob.u
    rho = float(np.sqrt(1.0 - hPh))
    return a, rho


def rank_P(P: np.ndarray, rank_tol: float = 1e-8) -> int:
    """Singular values above rank_tol * max(s_max, 1)."""
    s = np.linalg.svd(P, compute_uv=False)
    if s.size == 0:
        return 0
    return int(np.sum(s > rank_tol * max(float(s[0]), 1.0)))


def _stein_matrix(G: np.ndarray) -> np.ndarray:
    """I - G (x) G, the Stein operator P -> P - G P G' on vec(P)
    (column-major)."""
    n = G.shape[0]
    GG = (G[:, None, :, None] * G[None, :, None, :]).reshape(n * n, n * n)
    return np.eye(n * n) - GG


def _on_valid_branch(P: np.ndarray) -> bool:
    """The sought solution is a state covariance: symmetric positive
    semidefinite with h'Ph < 1.  The equation has further exact symmetric
    solutions with h'Ph < 1 that are indefinite or negative definite;
    those must be rejected.

    Semidefinite means lambda_min(P) >= -delta, delta = 1e-9 max(1,
    max|P|), decided by one Cholesky factorization of P + delta I: it
    succeeds exactly when that matrix is positive definite, so the test
    differs from one on the eigenvalues only within rounding of the
    margin."""
    # nan and inf propagate through the max: it is finite iff P is
    size = float(np.abs(P).max())
    if not math.isfinite(size) or P[0, 0] >= 1.0:
        return False
    A = P.copy()
    A.reshape(-1)[::P.shape[0] + 1] += 1e-9 * max(1.0, size)
    # A is symmetric, so its transpose is the Fortran-ordered array LAPACK
    # factors in place
    _, info = scipy.linalg.lapack.dpotrf(A.T, clean=0, overwrite_a=1)
    return info == 0


def _ramp_family(prob: CEEProblem):
    """Path t -> CEEProblem(t) from (u, U) = 0 at t = 0, where P = 0 solves
    the equation, to ``prob`` itself at t = 1:

        [u(t) U(t)] = t (I - (1 - t) U)^{-1} [u U].

    For covariance parameters, where I - U is the inverse of the unit
    lower-triangular Toeplitz matrix of the sequence, this is the parameter
    path of the scaled sequence c(t) = t c.  Its Toeplitz matrix
    (1 - t) I + t T_c is positive definite all along, so the PSD branch
    exists on the whole path.  The formula reads only (u, U) and is the
    same for interpolation parameters.
    """
    n = prob.n
    # built on the first trial short of t = 1: most solves never run one
    uU = None

    def family(t: float) -> CEEProblem:
        nonlocal uU
        if t == 1.0:
            return prob
        if uU is None:
            uU = np.column_stack([prob.u, prob.U])
        S = t * np.linalg.solve(np.eye(n) - (1.0 - t) * prob.U, uU)
        # sigma, and with it Gamma, is the same all along the ramp
        return prob._with_parameters(S[:, 0], S[:, 1:])

    return family


def _first_column_operator(stein: np.ndarray):
    """(lu, K, kappa) for the CEE written on the first column x = Ph alone.

    With g = c + M x, c = u + U sigma, M = U Gamma, the equation reads
    P - Gamma P Gamma' = Q(x) := g g' - (Gamma x)(Gamma x)', so P is the
    Stein solve of Q(x) and the CEE is x = F(x) := K vec Q(x), with K the
    first n rows of (I - Gamma (x) Gamma)^{-1}.  ``lu`` factors stein =
    I - Gamma (x) Gamma; K is returned symmetrized over the pair (i, j) of
    Q's entries as the n x n x n array of the symmetric n x n matrices K_k
    with F(x)_k = g'K_k g - (Gamma x)'K_k (Gamma x).  It depends on Gamma
    alone; :func:`_quadratic` turns it into F's coefficients for one
    problem.  kappa bounds sum_ij |K_k[i, j]|.
    """
    n = math.isqrt(stein.shape[0])
    lapack = scipy.linalg.lapack
    lu, piv, _ = lapack.dgetrf(stein)
    # column k of the solve is row k of the inverse: T[k, j, i] is the
    # weight of Q[i, j] in x_k (vec is column-major)
    rows, _ = lapack.dgetrs(lu, piv, np.eye(n * n, n), trans=1)
    T = rows.T.reshape(n, n, n)
    K = 0.5 * (T + T.transpose(0, 2, 1))
    kappa = float(np.abs(K).sum(axis=(1, 2)).max())
    return (lu, piv), K, kappa


def _quadratic(prob: CEEProblem, op):
    """The first-column form of ``prob`` through its operator ``op``
    (:func:`_first_column_operator`): (lu, kappa, v0, V, F0, J0, H) with
    [g; Gamma x] = v0 + V x, v0 = (c, 0), V = [M; Gamma], and the fixed
    quadratic r(x) = x - F(x) = (J0 - H(x)) x - F0 with F0 = c'K_k c,
    J0 = I - 2 c'K_k M, H_k = M'K_k M - Gamma'K_k Gamma and H(x) = H @ x,
    so H(x) x = (x'H_k x)_k.  The Jacobian of r is J0 - 2 H(x).
    """
    lu, K, kappa = op
    n = prob.n
    G = prob.Gamma
    M = prob.U @ G
    c = prob.u + prob.U @ prob.sigma
    Kc = K @ c
    J0 = np.eye(n) - 2.0 * (Kc @ M)
    H = M.T @ K @ M - G.T @ K @ G
    v0 = np.concatenate((c, np.zeros(n)))
    return lu, kappa, v0, np.concatenate((M, G)), Kc @ c, J0, H


def _stein_solve(lu, Q: np.ndarray) -> np.ndarray:
    """The symmetric P with P - Gamma P Gamma' = Q, for symmetric Q, through
    the LU factors ``lu`` of I - Gamma (x) Gamma."""
    n = Q.shape[0]
    P, _ = scipy.linalg.lapack.dgetrs(*lu, Q.ravel(order="F"))
    P = P.reshape(n, n, order="F")
    return 0.5 * (P + P.T)


def _reduced_step(J0, Hx, r):
    """The Newton step (J0 - 2 H(x))^{-1} r of the first-column form, with
    J0 - 2 H(x) the n x n Jacobian of r(x) = x - F(x) and ``Hx`` = H(x)
    (see :func:`_quadratic`).  Raises :class:`SolverError` when that
    Jacobian is singular."""
    _, _, d, info = scipy.linalg.lapack.dgesv(J0 - 2.0 * Hx, r)
    if info != 0:
        raise SolverError("singular first-column Jacobian")
    return d


def _lifted_step(form, P: np.ndarray, R: np.ndarray) -> np.ndarray:
    """The full-space Newton step delta from P, J delta = R, for the
    residual R = R(P) (or a more accurate value of it), from n x n work.

    The CEE reads S(P) = Q(Ph) with S(P) = P - Gamma P Gamma' the Stein
    operator, so J delta = S(delta) - DQ(x)[delta h] at x = Ph.  With
    L = S^{-1}, the step is

        delta = L(R + DQ(x)[e]),   (I - F'(x)) e = L(R) h,

    where e = delta h follows from the first column of the first equation:
    one n x n solve (:func:`_reduced_step`) with the Jacobian of the
    problem's first-column form ``form`` (:func:`_quadratic`) and two
    Stein solves through its LU factors.
    """
    lu, _, v0, V, _, J0, H = form
    x = P[:, 0]
    e = _reduced_step(J0, H @ x, _stein_solve(lu, R)[:, 0])
    n = x.size
    gy = v0 + V @ x
    Ve = V @ e
    g, y, Me, Ge = gy[:n], gy[n:], Ve[:n], Ve[n:]
    DQ = Me[:, None] * g + g[:, None] * Me - Ge[:, None] * y - y[:, None] * Ge
    return _stein_solve(lu, R + DQ)


def _newton(prob: CEEProblem, P0: np.ndarray, tol: float, form) -> tuple[np.ndarray, int]:
    """Undamped full-space Newton on the residual map through lifted steps
    (:func:`_lifted_step` with the first-column form ``form``): the polish
    of a continuation trial on the problem itself.  Every residual is
    evaluated in extended precision (``np.longdouble``) and rounded, so the
    iteration is mixed-precision iterative refinement.  It takes at least
    one step and returns after the first step that brings ||R||_F to
    ``tol`` or below, with the number of steps.  Raises
    :class:`SolverError` as soon as a step fails to lower ||R||_F by the
    factor 1 - 1e-4; the continuation recovers by halving its step."""

    def residual(P):
        R = _residual_matrix(prob, P.astype(np.longdouble)).astype(float)
        return R, np.linalg.norm(R, "fro")

    P = 0.5 * (P0 + P0.T)
    R, rnorm = residual(P)
    for it in range(1, _NEWTON_MAX_ITER + 1):
        P = P - _lifted_step(form, P, R)
        P = 0.5 * (P + P.T)
        R, rn = residual(P)
        if rn <= tol:
            return P, it
        if not rn < rnorm * (1.0 - 1e-4):
            raise SolverError(f"Newton stalled at a nonzero residual {rnorm:.3e}")
        rnorm = rn
    raise SolverError(
        f"Newton did not converge in {_NEWTON_MAX_ITER} iterations "
        f"(last residual {rnorm:.3e})"
    )


class _DampingFloorError(SolverError):
    """The first-column Newton found no damped step down to
    ``_DAMPING_FLOOR`` that lowers the residual."""


def _reduced_newton(prob, x, form):
    """Damped Newton on r(x) = x - F(x), the CEE on its first column, for
    the problem ``prob`` from x, with ``form`` its first-column form
    (:func:`_quadratic`).  Returns (P, steps) with P the Stein solve of Q(x)
    at convergence, or raises :class:`SolverError`.

    Without damping its iterates are exactly the first columns of full-space
    Newton's: a full-space step from any P lands on the Stein solve of the
    linearized Q, whose first column is the Newton step on r.  r is a fixed
    quadratic in x, so a step costs H(x), the residual and one n x n solve,
    and along a step d, r(x - t d) = (1 - t) r(x) - t^2 H(d) d exactly.
    The backtracking tests t = 1, 1/2, ..., ``_DAMPING_FLOOR`` = 1/16 on
    ||r|| for a decrease by the factor 1 - 1e-4 t: the full step on its
    direct value, the others on this model, then the accepted trial
    directly.  When no t down to the damping floor passes, the iterate is
    crawling toward a nonzero local minimum of ||r||, and the trial fails
    with :class:`_DampingFloorError`, a :class:`SolverError` (Deuflhard's
    lambda_min test); the continuation halves its step.  The iteration
    stops when ||r|| is at its rounding level, 8 n eps (|x| + kappa (|g|^2
    + |Gamma x|^2)), or when the full step fails on its direct value while
    the model passes it: the difference is then rounding.

    K, and with it F0, J0 and H, carries the forward error of the inverse,
    up to cond(I - Gamma (x) Gamma) eps, and so does its fixed point.  The
    Stein solve through the LU factors is backward stable instead, so
    x - Ph measures the full-space residual; refinement steps on it, with
    the same n x n Jacobian, follow while they lower it by the factor
    1 - 1e-4.  The first step that does not is Newton's estimate of x's
    distance to the solution.  When kappa is large, the rounding level above
    can stop the iteration short of the solution, where refinement cannot
    take over: a step longer than eps^(1/4) (|x| + ||P||_F) there raises
    :class:`SolverError`.
    """
    lu, kappa, v0, V, F0, J0, H = form
    n = prob.n
    # H(x) = H @ x as one (n^2 x n) matrix-vector product
    Hm = H.reshape(n * n, n)

    def evaluate(x):
        Hx = (Hm @ x).reshape(n, n)
        r = (J0 - Hx) @ x - F0
        return Hx, r, math.sqrt(float(r @ r))

    Hx, r, rnorm = evaluate(x)
    steps = 0
    while True:
        gy = v0 + V @ x
        # |g|^2 + |Gamma x|^2
        floor = 8 * n * _EPS * (math.sqrt(float(x @ x)) + kappa * float(gy @ gy))
        if rnorm <= floor:
            break
        if steps == _RAMP_NEWTON_MAX_ITER or not math.isfinite(rnorm):
            raise SolverError(
                f"first-column Newton stalled at a nonzero residual {rnorm:.3e}"
            )
        d = _reduced_step(J0, Hx, r)
        steps += 1
        x1 = x - d
        trial = evaluate(x1)
        if trial[2] < rnorm * (1.0 - 1e-4):
            x = x1
            Hx, r, rnorm = trial
            continue
        q = (Hm @ d).reshape(n, n) @ d
        rq = float(r @ q)
        qq = float(q @ q)
        t = 1.0
        while t >= _DAMPING_FLOOR:
            # ||(1 - t) r - t^2 q||^2
            a, b = 1.0 - t, t * t
            model = a * a * rnorm * rnorm - 2.0 * a * b * rq + b * b * qq
            if model < (rnorm * (1.0 - 1e-4 * t)) ** 2:
                break
            t *= 0.5
        else:
            raise _DampingFloorError(
                f"first-column Newton stalled at a nonzero residual {rnorm:.3e} "
                "at the damping floor"
            )
        if t == 1.0:
            # the exact model passes the full step that failed directly
            break
        x = x - t * d
        Hx, r, rnorm = evaluate(x)
    g, y = gy[:n], gy[n:]
    P = _stein_solve(lu, g[:, None] * g - y[:, None] * y)
    e = x - P[:, 0]
    enorm = math.sqrt(float(e @ e))
    scale = math.sqrt(float(x @ x)) + math.sqrt(float(np.vdot(P, P)))
    floor = 8 * n * _EPS * scale
    while enorm > floor and steps < _RAMP_NEWTON_MAX_ITER:
        try:
            d = _reduced_step(J0, Hx, e)
        except SolverError:
            break
        steps += 1
        x1 = x - d
        gy = v0 + V @ x1
        g, y = gy[:n], gy[n:]
        P1 = _stein_solve(lu, g[:, None] * g - y[:, None] * y)
        e1 = x1 - P1[:, 0]
        e1norm = math.sqrt(float(e1 @ e1))
        if not e1norm < enorm * (1.0 - 1e-4):
            if math.sqrt(float(d @ d)) > _EPS ** 0.25 * scale:
                raise SolverError(
                    f"first-column Newton stalled at a nonzero residual {enorm:.3e}"
                )
            break
        x, Hx, P, e, enorm = x1, (Hm @ x1).reshape(n, n), P1, e1, e1norm
    return P, steps


def _sigma_family(prob: CEEProblem):
    """Path s -> CEEProblem(s) with ``prob``'s (u, U) and the numerator
    sigma(s) = reflection_to_tail(s gamma), gamma the reflection coefficients
    of ``prob.sigma``: from sigma = z^n at s = 0 to ``prob`` itself at
    s = 1.  Every sigma(s) is Schur, so for positive data the PSD h'Ph < 1
    solution exists, is unique and moves smoothly all along (Byrnes, Gusev
    & Lindquist, 1998); building a sigma(s) raises :class:`DataError` if
    rounding puts it on the unit circle.
    """
    # found on the first trial short of s = 1: most solves never run one
    gammas = None

    def family(s: float) -> CEEProblem:
        nonlocal gammas
        if s == 1.0:
            return prob
        if gammas is None:
            gammas = tail_to_reflection(prob.sigma)
        return CEEProblem(sigma=reflection_to_tail(s * gammas), u=prob.u, U=prob.U)

    return family


@functools.lru_cache(maxsize=8)
def _shift_operator(n: int):
    """:func:`_first_column_operator` at sigma = z^n, where Gamma is the
    shift: it depends on n alone, so it is built once per n, on first use,
    and kept read-only."""
    op = _first_column_operator(_stein_matrix(companion(np.zeros(n))))
    for arr in (*op[0], op[1]):
        arr.setflags(write=False)
    return op


def _operator(prob: CEEProblem):
    """:func:`_first_column_operator` of ``prob``'s Gamma: the cached
    :func:`_shift_operator` at sigma = z^n, else a fresh build."""
    if not prob.sigma.any():
        return _shift_operator(prob.n)
    return _first_column_operator(_stein_matrix(prob.Gamma))


def _central(prob: CEEProblem) -> Optional[np.ndarray]:
    """The solution P at sigma = z^n for ``prob``'s (u, U), in closed form,
    or None.

    With lags c = (I - U)^{-1} u, the PSD h'Ph < 1 solution at sigma = z^n
    is the maximum-entropy one when those are covariance lags: a is the
    Levinson-Durbin predictor of (1, c_1, ..., c_n) and rho^2 its
    prediction-error variance.  Then x = Ph has x_1 = 1 - rho^2 and, from
    a = (I - U) Gamma x - u at sigma = 0, (x_2, ..., x_n, 0) = Gamma x =
    (I - U)^{-1} (a + u); P is the Stein solve of g g' - (Gamma x)(Gamma x)'
    with g = u + U Gamma x.  None unless I - U is nonsingular, every
    reflection coefficient lies in (-1, 1) and the candidate solves the
    equation at z^n to rounding, ||x - Ph|| <= 128 n eps (||x|| + ||P||_F),
    on the PSD h'Ph < 1 branch.  The test is numerical and reads only
    (u, U): interpolation parameters fail it, and :func:`_ramp` then finds
    that solution by the data ramp at z^n.
    """
    n = prob.n
    lapack = scipy.linalg.lapack
    lu, piv, info = lapack.dgetrf(np.eye(n) - prob.U)
    if info != 0:
        return None
    # the recursion runs on Python floats: at small n, numpy's per-call
    # cost would dominate it
    c = lapack.dgetrs(lu, piv, prob.u)[0].tolist()
    a = []
    err = 1.0
    # x_1 = 1 - rho^2 summed as it grows, without the cancellation of
    # 1 - rho^2 when rho^2 is close to 1
    x1 = 0.0
    for m in range(n):
        k = -(c[m] + sum(ai * cj for ai, cj in zip(a, reversed(c[:m])))) / err
        if not abs(k) < 1.0:
            return None
        a = [ai + k * aj for ai, aj in zip(a, reversed(a))] + [k]
        x1 += err * k * k
        err *= 1.0 - k * k
    # y = Gamma x = (x_2, ..., x_n, 0)
    y = lapack.dgetrs(lu, piv, np.add(a, prob.u))[0]
    y[n - 1] = 0.0
    x = np.concatenate(([x1], y[:n - 1]))
    g = prob.u + prob.U @ y
    xnorm = math.sqrt(float(x @ x))
    # at z^n, where Gamma is the shift, (P h)_1 = trace Q = |g|^2 - |y|^2
    # and ||P||_F <= n (|g|^2 + |y|^2): an O(n) test of (x - Ph)_1, with
    # eight times the margin the final test allows it, rejects before the
    # Stein solve
    gg, yy = float(g @ g), float(y @ y)
    if not abs(x1 - (gg - yy)) <= 1024 * n * _EPS * (xnorm + n * (gg + yy)):
        return None
    P = _stein_solve(_shift_operator(n)[0], g[:, None] * g - y[:, None] * y)
    e = x - P[:, 0]
    scale = xnorm + math.sqrt(float(np.vdot(P, P)))
    if not (math.sqrt(float(e @ e)) <= 128 * n * _EPS * scale and _on_valid_branch(P)):
        return None
    return P


def _continuation(family, operator, target: CEEProblem, tol: float,
                  P: np.ndarray, step: float, min_step: float):
    """Newton along the path s -> ``family(s)``, s: ``0 -> 1``, from the
    solution ``P`` of ``family(0)`` with first step ``step``; returns P at
    s = 1, the Newton steps of the accepted trials and, when the path ends
    on ``target``, the (a, rho) of :func:`extract_filter` there (else
    None).  With ``step`` and ``min_step`` 1 the leg is one trial at s = 1
    whose first column of ``P`` is Newton's start, a point of the path or
    not (the Levinson start of :func:`_ramp`).

    Each trial reuses the previous solution as Newton's start, through a
    secant predictor once there are two, with the step in s halved whenever
    a trial fails or leaves the positive semidefinite h'Ph < 1 branch, and
    doubled (up to 1/2) after a success: started far away, Newton can stall
    or land on one of the equation's other symmetric solutions, and
    tracking the branch from s = 0 removes both failure modes.  The path
    stalls, raising :class:`SolverError`, once the step falls below
    ``min_step``.

    A trial is Newton on the n unknowns of x = Ph (:func:`_reduced_newton`)
    with the first-column form (:func:`_quadratic`) of the trial's problem
    through ``operator``, the first-column operator of ``target``, when the
    trial shares ``target``'s Gamma (every trial of :func:`_ramp_family`,
    and :func:`_sigma_family` at s = 1), else through
    :func:`_operator` of the trial's problem, and passes if its
    P is on the branch: an intermediate trial only seeds the next warm
    start.  A trial on ``target`` is then polished in the full space by
    one call of :func:`_newton`, Newton through lifted steps with its
    residual in extended precision, at least one step and down to ``tol``;
    it passes only if P is still on the branch and a(z) is Schur: a
    non-Schur a there is a failed trial like any other.  The Schur test
    runs on ``target`` only; an accepted trial elsewhere may carry a root
    of a on the unit circle to rounding.  A problem that fails to build
    (:class:`DataError`, or a singular solve in :func:`_ramp_family`) is a
    failed trial too.

    A trial that clips to s = 1 and fails is not run again while the halved
    step still reaches s = 1: the problem, ``family(1.0)``, and the secant
    start would be the same, and so would the failure; the step keeps
    halving until it ends short of s = 1 or the path stalls.  Failed trials
    are not counted in the returned steps.
    """
    P_prev = None
    t = 0.0
    t_prev = 0.0
    total = 0
    filt = None
    while t < 1.0:
        t_next = min(1.0, t + step)
        if P_prev is not None and t > t_prev:
            # secant predictor along the branch
            start = P + (P - P_prev) * ((t_next - t) / (t - t_prev))
        else:
            start = P
        try:
            trial = family(t_next)
            form = _quadratic(trial, operator if trial.Gamma is target.Gamma
                              else _operator(trial))
            P_next, nits = _reduced_newton(trial, start[:, 0], form)
            if not _on_valid_branch(P_next):
                raise SolverError("left the PSD h'Ph < 1 branch along the ramp")
            if trial is target:
                P_next, more = _newton(trial, P_next, tol, form)
                nits += more
                filt = (extract_filter(trial, P_next)
                        if _on_valid_branch(P_next) else None)
                if filt is None or not is_schur(filt[0]):
                    raise SolverError("not the minimum-phase solution")
        except (SolverError, DataError, np.linalg.LinAlgError):
            # DataError: sigma(s) rounds onto the unit circle; LinAlgError:
            # I - (1 - t) U is singular at this t
            step *= 0.5
            # a halved step that still reaches s = 1 would repeat the failed
            # trial: the same problem from the same secant start
            while t_next == 1.0 and t + step >= 1.0 and step >= min_step:
                step *= 0.5
            if step < min_step:
                raise SolverError(
                    f"continuation stalled at t = {t:.9f}"
                ) from None
            continue
        total += nits
        P_prev, t_prev = P, t
        P, t = P_next, t_next
        step = min(2.0 * step, 0.5)
    return P, total, filt


def _ramp(prob: CEEProblem, opts: SolveOptions):
    """P of ``prob`` at ``opts.tol``, the Newton steps of the accepted
    trials of the continuation that delivered it (:func:`_continuation`)
    and the (a, rho) extracted from P, whose a passed the Schur test.

    The legs run in this order, each only if the ones before it failed:

    1. Unless :func:`_central` gives the PSD h'Ph < 1 solution P0 at
       sigma = z^n in closed form, the first trial: Newton from P = 0 on the
       problem itself, the whole data ramp of :func:`_ramp_family` at once
       (t = 1).  When it fails, P0 is the end of the data ramp of the same
       (u, U) at sigma = z^n, where Gamma is nilpotent and the ramp is
       short; it is not polished.
    2. The Levinson start from P0, either way: one trial on the problem
       itself from x = P0 h with x_1 set to 1.  With Gamma the companion of
       sigma and J the up-shift, Gamma x + sigma = J x + (1 - x_1) sigma, so
       at x_1 = 1 the extracted a = (I - U) J x - u is the one of P0 at
       z^n, whatever sigma is: Levinson's predictor of the lags where the
       closed form exists.
    3. The numerator path :func:`_sigma_family` from P0 with step 1/2: the
       trials it runs after a failed first trial from P0 itself.
    4. If the path gives up (the ramp at z^n stalls, or the path's step
       falls below ``_SIGMA_MIN_STEP``), the data ramp of ``prob`` from
       t = 0 with step 1/2: the trials the data ramp alone runs after a
       failed first one, so without a closed-form start the result is then
       the data ramp's own, bit for bit.

    The steps of the data ramp at z^n count towards the Levinson start and
    the numerator path that follow it, not towards the fallback.
    """
    op = _operator(prob)
    zero = np.zeros((prob.n, prob.n))

    def along(family, P, step, min_step):
        return _continuation(family, op, prob, opts.tol, P, step, min_step)

    P = _central(prob)
    its = 0
    # a step floor of 1 makes a leg of one trial: its failure ends the leg
    try:
        if P is None:
            try:
                return along(_ramp_family(prob), zero, 1.0, 1.0)
            except SolverError:
                pass
            start = CEEProblem(sigma=np.zeros(prob.n), u=prob.u, U=prob.U)
            P, its, _ = along(_ramp_family(start), zero, 1.0, _RAMP_MIN_STEP)
        levinson = P.copy()
        levinson[0, 0] = 1.0
        try:
            P, more, filt = along(_sigma_family(prob), levinson, 1.0, 1.0)
        except SolverError:
            P, more, filt = along(_sigma_family(prob), P, 0.5, _SIGMA_MIN_STEP)
        return P, its + more, filt
    except SolverError:
        pass
    return along(_ramp_family(prob), zero, 0.5, _RAMP_MIN_STEP)


def _fixed_point(
    prob: CEEProblem, opts: SolveOptions
) -> tuple[np.ndarray, int, str]:
    """Plain iteration from P = 0.  Returns (P, iterations, status) with
    status in {"converged", "diverged", "exhausted"}."""
    P = np.zeros((prob.n, prob.n))
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, opts.max_iter + 1):
            Pn = fixed_point_step(prob, P)
            if not np.isfinite(Pn).all():
                return P, it, "diverged"
            delta = np.linalg.norm(Pn - P, "fro")
            P = Pn
            if delta <= opts.tol:
                return P, it, "converged"
            if opts.divergence_guard and it > _GRACE and P[0, 0] >= 1.0:
                return P, it, "diverged"
    return P, opts.max_iter, "exhausted"


def solve_cee(prob: CEEProblem, options: Optional[SolveOptions] = None) -> CEESolution:
    """Solve the covariance extension equation for the h'Ph < 1 branch.

    Returns the solution bundle with extracted (a, rho), derived numerator
    b = a + 2 g(P), numerical rank of P and the final residual.  Raises
    :class:`SolverError` on non-convergence (message carries the last
    residual) and :class:`InvalidBranchError` if the converged P has
    h'Ph >= 1.

    Methods "auto" and "newton" run :func:`_ramp`: warm-started Newton
    trials from the solution of the same (u, U) at sigma = z^n, each
    halving its step while a trial stalls, lands off the PSD h'Ph < 1
    branch or, on the problem itself, ends with a non-Schur a.  Each trial
    is solved as Newton on the n unknowns of x = Ph; only the trial on the
    problem itself goes on to full-space Newton through lifted steps, with
    its residual in extended precision and at least one step, to
    ``opts.tol``.
    ``residual`` reports the double-precision residual of the returned P.
    The path reads only (sigma, u, U), whatever the data source: the
    closed-form start is a numerical test, not a record of where (u, U)
    came from.  ``iterations`` counts the steps of the accepted trials only
    (see :class:`CEESolution`).  Method "fixed-point" runs the plain
    iteration from P = 0 alone; it has no global convergence guarantee: the
    solution can be a repelling fixed point of the iteration map, in which
    case the sweep trips the divergence guard or exhausts its budget and
    the solve fails.
    """
    opts = options or SolveOptions()
    if opts.method == "fixed-point":
        P, its, status = _fixed_point(prob, opts)
        if status == "diverged":
            raise SolverError(
                f"fixed-point iteration left the h'Ph < 1 region "
                f"after {its} steps; the solution is not attracting "
                "for the plain iteration (or the data is not a "
                "positive covariance sequence)"
            )
        if status == "exhausted":
            raise SolverError(
                f"fixed-point iteration did not reach tol = {opts.tol:g} in "
                f"{opts.max_iter} iterations "
                f"(last residual {cee_residual(prob, P):.3e})"
            )
        method = "fixed-point"
        a, rho = extract_filter(prob, P)
        a_schur = is_schur(a)
        if not a_schur:
            warnings.warn("extracted denominator is not Schur; treat the "
                          "solution as diagnostic only", stacklevel=2)
    else:
        # the continuation accepts P on the problem itself only with a Schur a
        P, its, (a, rho) = _ramp(prob, opts)
        a_schur = True
        method = "newton"
    return CEESolution(
        P=P, a=a, rho=rho, b=a + 2.0 * g_of_P(prob, P),
        rank=rank_P(P, opts.rank_tol), residual=cee_residual(prob, P),
        iterations=its, method=method, a_is_schur=a_schur,
    )


@dataclass(frozen=True, eq=False)
class PositiveDegreeResult:
    """Outcome of the rank-minimization scan over numerator polynomials."""

    degree: int
    sigma: SchurPolynomial
    evaluated: int
    failures: int


def _sigma_grid(n: int, grid: int, eps: float, seed) -> np.ndarray:
    lo, hi = -1.0 + eps, 1.0 - eps
    if n <= 3:
        axis = np.linspace(lo, hi, grid)
        mesh = np.meshgrid(*([axis] * n), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=(grid, n))


def positive_degree(
    c: CovarianceSequence,
    grid: Optional[int] = None,
    rank_tol: float = 1e-8,
    seed: int = 0,
) -> PositiveDegreeResult:
    """Upper-bound estimate of the positive degree: the minimum of rank P
    over a grid of Schur polynomials sigma.

    Schur polynomials are parameterized by reflection coefficients in
    (-1 + eps, 1 - eps)^n with eps = ``_GRID_EPS``; for n <= 3 the grid is
    uniform with ``grid`` points per axis (default 11), for larger n it is
    ``grid`` random draws (default 2000, seeded).  The scan is exhaustive over the grid only, so
    the result is an upper bound of the true minimum; the first sigma
    attaining it in scan order is reported.  Solver failures at individual
    grid points are skipped, counted, and summarized in a warning.
    """
    n = c.n
    if n < 1:
        raise DataError("positive degree needs n >= 1")
    if grid is None:
        grid = 11 if n <= 3 else 2000
    if grid < 1:
        raise DataError("grid must be nonempty")
    params = build_cov_params(c)
    opts = SolveOptions(rank_tol=rank_tol)
    best_rank: Optional[int] = None
    best_sigma: Optional[SchurPolynomial] = None
    failures = 0
    evaluated = 0
    points = _sigma_grid(n, grid, _GRID_EPS, seed)
    for gammas in points:
        sigma = SchurPolynomial(reflection_to_tail(gammas))
        prob = build_problem(params, sigma)
        try:
            sol = solve_cee(prob, opts)
        except (SolverError, DataError):
            failures += 1
            continue
        evaluated += 1
        if best_rank is None or sol.rank < best_rank:
            best_rank = sol.rank
            best_sigma = sigma
            if best_rank == 0:
                break
    if best_rank is None:
        raise SolverError("every grid point failed; no rank estimate available")
    if failures:
        warnings.warn(
            f"positive-degree scan skipped {failures} of {len(points)} grid "
            "points due to solver failures",
            stacklevel=2,
        )
    return PositiveDegreeResult(
        degree=best_rank,
        sigma=best_sigma,
        evaluated=evaluated,
        failures=failures,
    )
