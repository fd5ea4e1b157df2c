"""Degree-constrained Nevanlinna-Pick interpolation.

Given distinct nodes outside the closed unit disc and target values in
the open right half-plane, find a rational positive-real f of bounded
degree with f(z_k) = c_k.  The node/value data is condensed into the
coupling matrix T through a Vandermonde similarity, and from T into the
same (u, U) parameters the covariance solver consumes; the downstream
Riccati machinery is reused byte-for-byte, only (u, U) differ.

The structural normalization f(inf) = 1/2 makes n+1 interpolation values
an over-determination by one scalar; consistency is checked a posteriori
via the interpolation residual, and per-sigma failure is a legal outcome.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .cee import CEEProblem, CEESolution, SolveOptions, solve_cee
from .errors import DataError, StructuralError, VerificationError
from .polyalg import SchurPolynomial

# the imaginary residue of T truncated away for conjugate-closed data is at
# most the floor _IMAG_TOL or _IMAG_ROUNDOFF times the rounding bound
# (n+1) eps cond(V) max|c_k| of V^{-1} C V, whichever is larger
_IMAG_TOL = 1e-12
_IMAG_ROUNDOFF = 8.0
# largest condition number of I + T the construction accepts
_COND_THRESHOLD = 1e12

@dataclass(frozen=True, eq=False)
class InterpolationData:
    """Distinct nodes z_0..z_n with |z_k| > 1 and values c_0..c_n with
    Re c_k > 0.  Data should be closed under conjugation (pairs
    (conj z_k, conj c_k) present) so that the assembled parameters are
    real; closure is checked lazily by the T construction."""

    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=complex).ravel()
        values = np.asarray(self.values, dtype=complex).ravel()
        if nodes.size != values.size or nodes.size < 2:
            raise DataError("need matching nodes/values arrays with >= 2 entries")
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(values))):
            raise DataError("nodes and values must be finite")
        if np.min(np.abs(nodes)) <= 1.0:
            raise DataError("all nodes must lie strictly outside the unit circle")
        if np.min(values.real) <= 0.0:
            raise DataError("all values must have positive real part")
        diffs = np.abs(nodes[:, None] - nodes[None, :])
        np.fill_diagonal(diffs, np.inf)
        if np.min(diffs) < 1e-12 * max(1.0, float(np.max(np.abs(nodes)))):
            raise DataError("interpolation nodes must be pairwise distinct")
        nodes.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.nodes.size - 1

    @property
    def conjugate_closed(self) -> bool:
        pairs = set()
        for z, c in zip(self.nodes, self.values):
            pairs.add((complex(np.round(z, 12)), complex(np.round(c, 12))))
        return all(
            (complex(np.round(np.conj(z), 12)), complex(np.round(np.conj(c), 12)))
            in pairs
            for z, c in zip(self.nodes, self.values)
        )

    def scaled(self, alpha: float) -> "InterpolationData":
        return InterpolationData(nodes=self.nodes, values=alpha * self.values)


@dataclass(frozen=True, eq=False)
class NPParams:
    """Interpolation-side parameters: coupling matrix T and the derived
    (u, U) with [u U] = [0 I_n] (I + T)^{-1} T.  U is a full matrix here,
    not Toeplitz."""

    T: np.ndarray
    u: np.ndarray
    U: np.ndarray

    @property
    def n(self) -> int:
        return self.u.size


def build_vandermonde(nodes) -> np.ndarray:
    """Vandermonde matrix with row k = (z_k^n, z_k^{n-1}, ..., 1)."""
    z = np.asarray(nodes, dtype=complex).ravel()
    if z.size < 1:
        raise DataError("need at least one node")
    diffs = np.abs(z[:, None] - z[None, :])
    np.fill_diagonal(diffs, np.inf)
    if z.size > 1 and np.min(diffs) == 0.0:
        raise DataError("repeated nodes make the Vandermonde matrix singular")
    return np.vander(z, N=z.size, increasing=False)


def build_T(data: InterpolationData, paper_factor: bool = False) -> np.ndarray:
    """Coupling matrix mapping (1, a) to (0, g) for exact interpolants.

    With f = b/(2a) and f(z_k) = c_k we get b(z_k) = 2 c_k a(z_k), hence
    [1; b] = 2 V^{-1} C V [1; a] and, via g = (b - a)/2,

        [0; g] = T [1; a],    T = (1/2)(2 V^{-1} C V - I).

    ``paper_factor=True`` builds the variant T = (1/2)((1/2) V^{-1} C V - I)
    instead (an inconsistent scaling kept reproducible behind this flag;
    it corresponds to reading the interpolation constraint as
    b(z_k) = (1/2) c_k a(z_k)).  For conjugate-closed data T is real up to
    roundoff, and that roundoff grows with the condition number of V; the
    imaginary residue is checked against the larger of ``_IMAG_TOL`` and
    ``_IMAG_ROUNDOFF`` (n+1) eps cond(V) max|c_k|, then truncated.
    """
    V = build_vandermonde(data.nodes)
    C = np.diag(data.values)
    W = np.linalg.solve(V, C @ V)
    inner = 0.5 * W if paper_factor else 2.0 * W
    T = 0.5 * (inner - np.eye(data.n + 1))
    imag_residue = float(np.max(np.abs(T.imag)))
    if imag_residue > _IMAG_TOL:
        # the scaled bound costs an SVD, so only a residue above the floor pays it
        bound = max(_IMAG_TOL, _IMAG_ROUNDOFF * (data.n + 1) * np.finfo(float).eps
                    * float(np.linalg.cond(V)) * float(np.max(np.abs(data.values))))
        if not imag_residue <= bound:
            raise DataError(
                f"T has imaginary residue {imag_residue:.3e} > {bound:.3g}; "
                "data is not closed under conjugation"
            )
    return T.real.copy()


def build_uU_np(T: np.ndarray) -> NPParams:
    """Interpolation parameters [u U] = [0 I_n] (I + T)^{-1} T.

    I + T nonsingular is a structural condition of the construction; it is
    enforced by the condition-number threshold ``_COND_THRESHOLD``, and
    violation raises :class:`StructuralError`.
    """
    T = np.asarray(T, dtype=float)
    m = T.shape[0]
    if T.shape != (m, m) or m < 2:
        raise DataError("T must be square of size n+1 >= 2")
    M = np.eye(m) + T
    cond = np.linalg.cond(M)
    if not np.isfinite(cond) or cond > _COND_THRESHOLD:
        raise StructuralError(
            f"I + T is singular or ill-conditioned (cond = {cond:.3e}); "
            "the interpolation construction does not apply"
        )
    S = np.linalg.solve(M, T)
    return NPParams(T=T, u=S[1:, 0].copy(), U=S[1:, 1:].copy())


def implied_scale(data: InterpolationData) -> float:
    """Positive factor alpha such that alpha * values is consistent with a
    function value 1/2 at infinity.

    The implied value at infinity is read off a least-squares polynomial
    fit in 1/z through the data (exact interpolation for n+1 points).
    Only meaningful as a preconditioning heuristic; data generated from an
    actual monic/monic rational function needs no scaling.
    """
    x = 1.0 / data.nodes
    A = np.vander(x, N=data.n + 1, increasing=True)
    coef, *_ = np.linalg.lstsq(A, data.values, rcond=None)
    v = coef[0].real
    if v <= 0.0:
        raise DataError(
            f"implied value at infinity is {v:.3e} <= 0; cannot normalize"
        )
    return 0.5 / v


@dataclass(frozen=True, eq=False)
class NPResult:
    """Solution wrapper: the Riccati solution plus interpolation-side
    diagnostics (scale alpha applied to the values, the consistency
    residual of the row discarded when forming (u, U), and the max
    interpolation residual against the original values)."""

    solution: CEESolution
    params: NPParams
    scale: float
    first_row_residual: float
    interp_residual: float


def interp_residual(sol, data: InterpolationData, scale: float = 1.0) -> float:
    """max_k | b(z_k) / (2 a(z_k)) / scale - c_k | against the original values.

    ``sol`` may be a CEESolution or an (a, b) pair of coefficient vectors.
    """
    if isinstance(sol, CEESolution):
        a_vec, b_vec = sol.a, sol.b
    else:
        a_vec, b_vec = sol
    af = np.concatenate([[1.0], np.asarray(a_vec, dtype=float)])
    bf = np.concatenate([[1.0], np.asarray(b_vec, dtype=float)])
    av = np.polyval(af, data.nodes)
    if np.min(np.abs(av)) < 1e-12:
        raise DataError(
            "denominator vanishes at an interpolation node; the solution "
            "is corrupted (a Schur polynomial cannot vanish for |z| > 1)"
        )
    f = np.polyval(bf, data.nodes) / (2.0 * av) / scale
    return float(np.max(np.abs(f - data.values)))


def solve_np(
    data: InterpolationData,
    sigma: SchurPolynomial,
    options: Optional[SolveOptions] = None,
    paper_factor: bool = False,
    normalize: bool = False,
    interp_tol: float = 1e-8,
) -> NPResult:
    """Solve the interpolation problem for one choice of sigma.

    Assembles (u, U) from the data, runs the identical covariance-extension
    solver, and accepts the result only if the interpolation residual is at
    most ``interp_tol``, the extracted a(z) is Schur, and h'Ph < 1.  Data
    failing those checks is reported unsolvable at this sigma via
    :class:`VerificationError` (there is no claim that every sigma admits a
    solution).  ``normalize=True`` pre-scales the values by
    :func:`implied_scale`; the scale is recorded and divided back out of
    the residual check.
    """
    if sigma.degree != data.n:
        raise DataError(
            f"sigma degree {sigma.degree} must equal number of nodes - 1 = {data.n}"
        )
    opts = options or SolveOptions()
    alpha = implied_scale(data) if normalize else 1.0
    work = data.scaled(alpha) if alpha != 1.0 else data
    T = build_T(work, paper_factor=paper_factor)
    params = build_uU_np(T)
    prob = CEEProblem(sigma=sigma.coeffs, u=params.u, U=params.U)
    # under method "fixed-point", h'Ph >= 1 mid-iteration is not a divergence
    # certificate here: the guarded sweep gives up on interpolation problems
    # that the unguarded sweep solves to accepted answers.  Only the
    # converged solution is judged.
    sol = solve_cee(prob, replace(opts, divergence_guard=False))
    # component discarded by [0 I_n] when forming (u, U); zero iff the data
    # is exactly consistent with f(inf) = 1/2
    first_row = float((T @ np.concatenate([[1.0], sol.a]))[0])
    resid = interp_residual(sol, data, scale=alpha)
    if resid > interp_tol or not sol.a_is_schur:
        raise VerificationError(
            f"unsolvable at this sigma: interpolation residual {resid:.3e} "
            f"(tol {interp_tol:g}), a_is_schur={sol.a_is_schur}, "
            f"first-row consistency {first_row:.3e}"
        )
    if abs(first_row) > 1e5 * interp_tol:
        warnings.warn(
            f"first-row consistency residual is {first_row:.3e}; the data "
            "only approximately admits a value 1/2 at infinity",
            stacklevel=2,
        )
    return NPResult(
        solution=sol,
        params=params,
        scale=alpha,
        first_row_residual=first_row,
        interp_residual=resid,
    )
