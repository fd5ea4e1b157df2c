"""covext: rational covariance extension and degree-constrained
Nevanlinna-Pick interpolation through a nonstandard matrix Riccati
equation, with spectral-factor verification and degree analysis."""

__version__ = "0.1.0"

from .cee import (  # noqa: F401
    CEEProblem,
    CEESolution,
    PositiveDegreeResult,
    SolveOptions,
    build_problem,
    cee_residual,
    companion,
    extract_filter,
    fixed_point_step,
    g_of_P,
    positive_degree,
    problem_from_covariances,
    rank_P,
    solve_cee,
)
from .covdata import (  # noqa: F401
    CovarianceSequence,
    CovParams,
    ObservationRecord,
    algebraic_degree,
    build_cov_params,
    estimate_covariances,
    partial_realization,
    toeplitz_min_eig,
)
from .errors import (  # noqa: F401
    CovextError,
    DataError,
    InvalidBranchError,
    PoleOnCircleError,
    SolverError,
    StructuralError,
    VerificationError,
)
from .nevpick import (  # noqa: F401
    InterpolationData,
    NPParams,
    NPResult,
    build_T,
    build_uU_np,
    build_vandermonde,
    interp_residual,
    solve_np,
)
from .polyalg import (  # noqa: F401
    RationalPR,
    SchurPolynomial,
    ShapingFilter,
    factor_residual,
    is_schur,
    laurent_coeffs,
    laurent_series,
    monic_numerator,
    positive_real_min,
    reflection_to_tail,
    solve_b,
    spectral_density,
    tail_to_reflection,
    unit_variance_rho,
)
from .realization import (  # noqa: F401
    CompanionRealization,
    SpectralFactorRealization,
    b_from_ag,
    compare_riccati_forms,
    eval_f_realization,
    g_from_ab,
    k_and_rho,
    solve_are_minimal,
    solve_riccati_gamma,
)
