"""Exception hierarchy shared by all covext modules.

The CLI maps these onto its exit-code contract: bad input data (2),
solver failure (3), verification failure (4), structural condition (5).
"""


class CovextError(Exception):
    """Base class for all covext errors."""


class DataError(CovextError, ValueError):
    """Input data violates a precondition (non-positive sequence, malformed
    file, repeated interpolation nodes, ...)."""


class PoleOnCircleError(DataError):
    """Denominator polynomial vanishes on (or numerically at) the sampling
    grid of the unit circle; the rational function cannot be evaluated."""


class SolverError(CovextError, RuntimeError):
    """An iterative solver failed to converge or diverged."""


class InvalidBranchError(SolverError):
    """A Riccati solution lies outside the branch that yields a spectral
    factor (h'Ph >= 1, or not positive semidefinite)."""


class VerificationError(CovextError, RuntimeError):
    """A computed object failed its post-hoc verification checks."""


class StructuralError(CovextError, RuntimeError):
    """A structural assumption of the interpolation construction fails
    (for example I + T singular or numerically ill-conditioned)."""
