"""Polynomial and Laurent-series algebra for minimum-phase modeling.

Monic real polynomials in z are stored by their trailing coefficients:
the vector (p_1, ..., p_n) represents z^n + p_1 z^{n-1} + ... + p_n.
The degree-0 polynomial is the empty vector.  On top of that sit the
positive-real rational function f(z) = b(z) / (2 a(z)) and the
minimum-phase shaping filter w(z) = rho * sigma(z) / a(z), together with
the coefficient-matching linear system that ties (a, sigma, rho) to the
numerator b through

    a(z) b(1/z) + b(z) a(1/z) = 2 rho^2 sigma(z) sigma(1/z).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from .errors import DataError, PoleOnCircleError


def _tail_vector(coeffs) -> np.ndarray:
    c = np.asarray(coeffs, dtype=float).ravel()
    if c.size and not np.all(np.isfinite(c)):
        raise DataError("polynomial coefficients must be finite")
    c = c.copy()
    c.setflags(write=False)
    return c


def _step_down(p) -> list:
    """Reflection coefficients of the monic polynomial ``p`` from the last,
    gamma_n, gamma_(n-1), ... (Schur-Cohn step-down recursion), ending early
    after the first one outside (-1, 1).  Runs on a list of Python floats:
    the same IEEE operations as on an array, without numpy's per-call cost
    at these sizes."""
    if isinstance(p, SchurPolynomial):
        p = p.coeffs
    t = np.asarray(p, dtype=float).ravel().tolist()
    gammas = []
    while t:
        gamma = t[-1]
        gammas.append(gamma)
        # false for nan as well
        if not abs(gamma) < 1.0:
            break
        scale = 1.0 - gamma * gamma
        t = [(t[i] - gamma * t[-2 - i]) / scale for i in range(len(t) - 1)]
    return gammas


def is_schur(p) -> bool:
    """True iff every root of the monic polynomial lies strictly inside the
    unit circle.

    Uses the reflection-coefficient (Schur-Cohn) step-down recursion, so no
    eigenvalue iteration is involved.  ``p`` may be a :class:`SchurPolynomial`
    or the trailing-coefficient vector (p_1, ..., p_n); degree 0 returns True.
    """
    return all(abs(gamma) < 1.0 for gamma in _step_down(p))


def tail_to_reflection(p) -> np.ndarray:
    """Reflection coefficients (gamma_1, ..., gamma_n) of the Schur
    polynomial ``p`` (step-down recursion): the inverse of
    :func:`reflection_to_tail`.  Raises :class:`DataError` when ``p`` is not
    Schur, exactly when :func:`is_schur` returns False.
    """
    gammas = _step_down(p)
    if not all(abs(gamma) < 1.0 for gamma in gammas):
        raise DataError("polynomial is not Schur; it has no reflection coefficients")
    return np.array(gammas[::-1])


def reflection_to_tail(gammas) -> np.ndarray:
    """Trailing coefficients of the monic polynomial with reflection
    coefficients ``gammas`` (step-up recursion); the inverse of
    :func:`tail_to_reflection`.

    Every entry must lie in (-1, 1); the result is then Schur, and the map is
    a bijection onto the Schur polynomials of that degree.
    """
    g = np.asarray(gammas, dtype=float).ravel()
    if g.size and np.max(np.abs(g)) >= 1.0:
        raise DataError("reflection coefficients must lie in (-1, 1)")
    t = np.zeros(0)
    for gk in g:
        t = np.concatenate([t + gk * t[::-1], [gk]])
    return t


@dataclass(frozen=True, eq=False)
class SchurPolynomial:
    """Monic real polynomial z^n + p_1 z^{n-1} + ... + p_n.

    By default construction verifies the Schur property (all roots strictly
    inside the unit disc).  Pass ``check=False`` to carry a possibly unstable
    polynomial (used by the deterministic partial realization, which makes no
    positivity promise); ``is_schur`` always reports the truth.
    """

    coeffs: np.ndarray
    check: InitVar[bool] = True

    def __post_init__(self, check: bool):
        object.__setattr__(self, "coeffs", _tail_vector(self.coeffs))
        if check and not is_schur(self.coeffs):
            raise DataError(
                f"polynomial with trailing coefficients {self.coeffs} is not Schur"
            )

    @property
    def degree(self) -> int:
        return self.coeffs.size

    @property
    def full(self) -> np.ndarray:
        """Full coefficient vector (1, p_1, ..., p_n), descending powers."""
        return np.concatenate([[1.0], self.coeffs])

    @property
    def is_schur(self) -> bool:
        return is_schur(self.coeffs)

    def __call__(self, z):
        return np.polyval(self.full, z)

    def __repr__(self):
        return f"SchurPolynomial(degree={self.degree}, coeffs={self.coeffs})"


@dataclass(frozen=True, eq=False)
class RationalPR:
    """Candidate positive-real rational function f(z) = b(z) / (2 a(z)).

    a and b are monic of equal degree, so f(inf) = 1/2 and the Laurent
    expansion about infinity starts 1/2 + c_1/z + ...  Positive realness is
    not certified at construction; see :func:`positive_real_min`.
    """

    a: SchurPolynomial
    b: SchurPolynomial

    def __post_init__(self):
        if self.a.degree != self.b.degree:
            raise DataError(
                f"deg a = {self.a.degree} and deg b = {self.b.degree} must agree"
            )

    @property
    def degree(self) -> int:
        return self.a.degree

    def __call__(self, z):
        return np.polyval(self.b.full, z) / (2.0 * np.polyval(self.a.full, z))


@dataclass(frozen=True, eq=False)
class ShapingFilter:
    """Minimum-phase shaping filter w(z) = rho * sigma(z) / a(z)."""

    sigma: SchurPolynomial
    a: SchurPolynomial
    rho: float

    def __post_init__(self):
        if self.sigma.degree != self.a.degree:
            raise DataError("sigma and a must have equal degree")
        if not (self.rho > 0.0 and np.isfinite(self.rho)):
            raise DataError("rho must be a positive finite scalar")

    @property
    def degree(self) -> int:
        return self.a.degree

    def __call__(self, z):
        return self.rho * np.polyval(self.sigma.full, z) / np.polyval(self.a.full, z)


def laurent_series(a_full, b_full, m: int) -> np.ndarray:
    """Coefficients s_0..s_m of the expansion of b(z)/a(z) about infinity.

    ``a_full`` and ``b_full`` are full coefficient vectors in descending
    powers with equal length.  Purely formal power-series division in
    w = 1/z; no stability assumption is needed for the coefficients to be
    defined.
    """
    af = np.asarray(a_full, dtype=float).ravel()
    bf = np.asarray(b_full, dtype=float).ravel()
    if af.size != bf.size:
        raise DataError("a and b must have equal degree")
    if af.size == 0 or af[0] == 0.0:
        raise DataError("a must have a nonzero leading coefficient")
    n = af.size - 1
    s = np.zeros(m + 1)
    s[0] = bf[0] / af[0]
    for k in range(1, m + 1):
        acc = bf[k] if k <= n else 0.0
        jmax = min(k, n)
        acc -= np.dot(af[1 : jmax + 1], s[k - jmax : k][::-1])
        s[k] = acc / af[0]
    return s


def laurent_coeffs(f: RationalPR, m: int) -> np.ndarray:
    """First m covariance-type coefficients (c_1, ..., c_m) of
    f(z) = 1/2 + c_1/z + c_2/z^2 + ...

    The constant term of the expansion must equal 1/2 (automatic for monic
    a, b; checked to guard against malformed input).
    """
    s = laurent_series(f.a.full, f.b.full, m)
    if abs(s[0] - 1.0) > 1e-9:
        raise DataError(
            f"expansion constant term is {s[0] / 2.0}, expected 1/2; "
            "b is not monic relative to a"
        )
    return s[1:] / 2.0


def _lag_products(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Vector with entry m = sum_i x_i y_(i+m), m = 0..n."""
    n = x.size - 1
    return np.array([np.dot(x[: n + 1 - m], y[m:]) for m in range(n + 1)])


def solve_b(a: SchurPolynomial, sigma: SchurPolynomial, rho: float) -> np.ndarray:
    """Solve the coefficient-matching linear system of the symmetric factor
    identity a(z)b(1/z) + b(z)a(1/z) = 2 rho^2 sigma(z) sigma(1/z).

    Returns the full coefficient vector (b_0, b_1, ..., b_n).  The solution
    scales with rho^2; b_0 == 1 (monic b) exactly when rho carries the
    unit-variance normalization c_0 = 1 (see :func:`unit_variance_rho`).
    The (n+1)x(n+1) system matches the coefficients of z^0..z^n of the
    symmetric Laurent polynomial on both sides.
    """
    if a.degree != sigma.degree:
        raise DataError("a and sigma must have equal degree")
    if not (rho > 0.0 and np.isfinite(rho)):
        raise DataError("rho must be a positive finite scalar")
    n = a.degree
    af = a.full
    sf = sigma.full
    # M[m, j] = af[j - m] (j >= m) + af[j + m] (j + m <= n), each sum
    # started from +0.0, so that a -0.0 coefficient enters M as +0.0
    e = np.zeros(n + 1)
    e[0] = af[0]
    M = (np.zeros((n + 1, n + 1)) + scipy.linalg.toeplitz(e, af)
         + scipy.linalg.hankel(af))
    rhs = 2.0 * rho * rho * _lag_products(sf, sf)
    try:
        b_full = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as exc:
        raise DataError(
            "singular factor system; a is likely not Schur "
            "(roots paired across the unit circle)"
        ) from exc
    return b_full


def factor_residual(a_full, b_full, sigma_full, rho: float) -> float:
    """Max-norm coefficient residual of the symmetric factor identity."""
    af = np.asarray(a_full, dtype=float)
    bf = np.asarray(b_full, dtype=float)
    sf = np.asarray(sigma_full, dtype=float)
    lhs = _lag_products(af, bf) + _lag_products(bf, af)
    rhs = 2.0 * rho * rho * _lag_products(sf, sf)
    return float(np.max(np.abs(lhs - rhs)))


def unit_variance_rho(a: SchurPolynomial, sigma: SchurPolynomial) -> float:
    """The gain rho that normalizes the output variance to c_0 = 1.

    With rho = 1 the factor system produces b_0 = c_0; scaling by
    rho = 1/sqrt(b_0) makes b monic, i.e. f(inf) = 1/2.
    """
    b1 = solve_b(a, sigma, 1.0)
    if not b1[0] > 0.0:
        raise DataError("factor system yields nonpositive variance; invalid (a, sigma)")
    return 1.0 / np.sqrt(b1[0])


def monic_numerator(
    a: SchurPolynomial, sigma: SchurPolynomial, rho: float, tol: float = 1e-8
) -> SchurPolynomial:
    """Numerator b as a monic polynomial; requires rho to be (numerically)
    the unit-variance gain, otherwise the leading coefficient strays from 1.
    """
    b_full = solve_b(a, sigma, rho)
    if abs(b_full[0] - 1.0) > tol:
        raise DataError(
            f"numerator leading coefficient {b_full[0]} != 1; "
            "rho does not match the unit-variance normalization"
        )
    return SchurPolynomial(b_full[1:] / b_full[0], check=False)


@lru_cache(maxsize=16)
def _circle_grid(samples: int) -> np.ndarray:
    """exp(i theta) on ``samples`` uniform angles of [0, 2 pi), read-only;
    the same bytes as computing it afresh."""
    z = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False))
    z.setflags(write=False)
    return z


def positive_real_min(f: RationalPR, samples: int = 4096) -> float:
    """Minimum of Re f(e^{i theta}) over a uniform grid of the circle.

    A nonnegative (>= -tolerance) minimum is the positive-realness evidence
    used throughout; the grid must have at least 2n+1 points.  A pole of a
    on the grid is reported distinctly via :class:`PoleOnCircleError`.
    """
    n = f.degree
    if samples < 2 * n + 1:
        raise DataError(f"need at least {2 * n + 1} samples for degree {n}")
    z = _circle_grid(samples)
    av = np.polyval(f.a.full, z)
    scale = max(1.0, float(np.max(np.abs(f.a.full))))
    if np.min(np.abs(av)) < 1e-12 * scale:
        raise PoleOnCircleError("denominator vanishes on the sampling grid")
    bv = np.polyval(f.b.full, z)
    return float(np.min((bv / (2.0 * av)).real))


def spectral_density(w: ShapingFilter, theta):
    """Power spectral density rho^2 |sigma(e^{i theta})|^2 / |a(e^{i theta})|^2.

    Equals f(e^{i theta}) + f(e^{-i theta}) = 2 Re f(e^{i theta}) for the
    paired positive-real function.
    """
    z = np.exp(1j * np.asarray(theta, dtype=float))
    num = np.abs(np.polyval(w.sigma.full, z)) ** 2
    den = np.abs(np.polyval(w.a.full, z)) ** 2
    out = w.rho * w.rho * num / den
    return float(out) if np.isscalar(theta) else out
