"""Gaussian random fields on the unit interval via B-spline Galerkin
discretization, with kriging under covariance misspecification and
operator-comparison diagnostics.

The package is organized around a small pipeline:

``model_config``
    coefficient fields and validated model specifications;
``fem1d``
    B-spline bases, boundary constraints, and bilinear-form assembly;
``spectral``
    generalized eigendecompositions, covariance square roots F with
    C = F F' (spectral and direct routes), fractional inverses, sampling;
``matern``
    modified Bessel functions and the stationary Matern covariance used
    as an analytic cross-check;
``kriging``
    prediction error variances under correct and misspecified models,
    efficiency curves for point and integral observation designs;
``diagnostics``
    cross-operator comparisons (Hilbert-Schmidt curves, norm-equivalence
    constants, mean-difference sums) and the exponent/boundary decision
    rules for equivalence and asymptotic optimality;
``cli``
    the ``wmlab`` experiment runner.
"""

__version__ = "0.1.0"

from .diagnostics import (
    DiagnosticsReport,
    MeanDifferenceReport,
    OperatorPair,
    Verdict,
    VerdictInput,
    cm_equivalence_constants,
    cross_gram,
    hs_curve,
    mean_difference_check,
    t_operator,
    table1_verdict,
    verdict_input_from_models,
)
from .errors import (
    AssemblyIntegrityError,
    CoefficientError,
    ConditioningError,
    ConstraintError,
    DataError,
    DegenerateTargetError,
    DomainError,
    NumericalIntegrityError,
    ParameterError,
    UnsupportedFormError,
    WmlabError,
)
from .fem1d import (
    DIRICHLET,
    DIRICHLET_LAPLACE,
    AssembledOperators,
    SplineBasis,
    assemble_a2,
    assemble_a3,
    assemble_aL,
    build_basis,
    eval_matrix,
    integral_obs_matrix,
    mass_matrix,
    point_obs_matrix,
)
from .kriging import (
    EfficiencyCurve,
    ObservationDesign,
    correct_error_variance,
    curve_rows,
    efficiency,
    efficiency_curve_integral,
    efficiency_curve_point,
    misspecified_error_variance,
    point_locations,
    write_curves_csv,
)
from .matern import (
    MaternComparison,
    MaternParams,
    bessel_k,
    compare_fem_vs_matern,
    matern_cov,
    whittle_variance,
)
from .matio import (
    read_matrix,
    write_eigenvalues_csv,
    write_matrix,
    write_matrix_csv,
)
from .model_config import (
    BUILTIN_MODEL_NAMES,
    CoefficientField,
    ModelSpec,
    builtin_model,
    erf,
    eval_coefficient,
    eval_coefficient_derivative,
    field_from_dict,
    field_to_dict,
    model_from_dict,
    model_to_dict,
    tau_unit_variance,
)
from .spectral import (
    CovarianceFactor,
    SpectralDecomposition,
    balakrishnan_fractional_inverse,
    covariance_weights,
    direct_factor,
    generalized_eig,
    sample_field,
    spectral_factor,
)

__all__ = [
    "__version__",
    # errors
    "WmlabError",
    "DomainError",
    "ParameterError",
    "CoefficientError",
    "ConstraintError",
    "UnsupportedFormError",
    "DegenerateTargetError",
    "DataError",
    "AssemblyIntegrityError",
    "ConditioningError",
    "NumericalIntegrityError",
    # model_config
    "CoefficientField",
    "ModelSpec",
    "BUILTIN_MODEL_NAMES",
    "builtin_model",
    "erf",
    "eval_coefficient",
    "eval_coefficient_derivative",
    "field_to_dict",
    "field_from_dict",
    "model_to_dict",
    "model_from_dict",
    "tau_unit_variance",
    # fem1d
    "DIRICHLET",
    "DIRICHLET_LAPLACE",
    "SplineBasis",
    "AssembledOperators",
    "build_basis",
    "eval_matrix",
    "mass_matrix",
    "assemble_aL",
    "assemble_a2",
    "assemble_a3",
    "integral_obs_matrix",
    "point_obs_matrix",
    # spectral
    "SpectralDecomposition",
    "CovarianceFactor",
    "generalized_eig",
    "covariance_weights",
    "direct_factor",
    "spectral_factor",
    "balakrishnan_fractional_inverse",
    "sample_field",
    # matern
    "MaternParams",
    "MaternComparison",
    "bessel_k",
    "matern_cov",
    "whittle_variance",
    "compare_fem_vs_matern",
    # matio
    "write_matrix",
    "read_matrix",
    "write_matrix_csv",
    "write_eigenvalues_csv",
    # kriging
    "ObservationDesign",
    "EfficiencyCurve",
    "point_locations",
    "correct_error_variance",
    "misspecified_error_variance",
    "efficiency",
    "efficiency_curve_integral",
    "efficiency_curve_point",
    "curve_rows",
    "write_curves_csv",
    # diagnostics
    "OperatorPair",
    "DiagnosticsReport",
    "MeanDifferenceReport",
    "Verdict",
    "VerdictInput",
    "cross_gram",
    "t_operator",
    "hs_curve",
    "cm_equivalence_constants",
    "mean_difference_check",
    "table1_verdict",
    "verdict_input_from_models",
]
