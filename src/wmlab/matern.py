"""Stationary Matern covariances and the modified Bessel function K_nu.

K_nu is ``scipy.special.kv`` (AMOS), which no other part of the package
uses, so the analytic reference values stay independent of the
discretization they check. Values underflow to zero for x beyond ~745,
outside the supported range.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError, UnsupportedFormError
from .fem1d import eval_matrix
from .kriging import _sigma_for_model
from .matio import write_csv

__all__ = [
    "bessel_k",
    "MaternParams",
    "matern_cov",
    "whittle_variance",
    "MaternComparison",
    "compare_fem_vs_matern",
]


def bessel_k(nu, x):
    """Modified Bessel function of the second kind K_nu(x), x > 0.

    Symmetric in the order (K_{-nu} = K_nu); always positive and, for
    fixed x, increasing in |nu|.
    """
    x = float(x)
    nu = abs(float(nu))
    if not x > 0.0:
        raise DomainError(f"bessel_k requires x > 0, got {x}")
    if nu != nu or x != x:
        raise DomainError("bessel_k: NaN argument")

    # imported here rather than at module level: loading scipy.special
    # costs every CLI start-up about 55 ms and 2.8 MB, and only the Matern
    # reference needs it
    from scipy.special import kv

    return float(kv(nu, x))


@dataclass(frozen=True)
class MaternParams:
    """Matern covariance parameters: smoothness nu, range kappa, variance."""

    nu: float
    kappa: float
    sigma2: float

    def __post_init__(self):
        if not self.nu > 0.0:
            raise ParameterError(f"nu must be positive, got {self.nu}")
        if not self.kappa > 0.0:
            raise ParameterError(f"kappa must be positive, got {self.kappa}")
        if not self.sigma2 > 0.0:
            raise ParameterError(f"sigma2 must be positive, got {self.sigma2}")


def matern_cov(params, h):
    """Matern covariance at lag h >= 0.

    rho(h) = sigma2/(2^(nu-1) Gamma(nu)) * (kappa h)^nu K_nu(kappa h),
    with rho(0) = sigma2 exactly.
    """
    h = float(h)
    if h < 0.0:
        raise DomainError(f"lag must be nonnegative, got {h}")
    if h == 0.0:
        return params.sigma2
    z = params.kappa * h
    return (
        params.sigma2
        / (2.0 ** (params.nu - 1.0) * math.gamma(params.nu))
        * z**params.nu
        * bessel_k(params.nu, z)
    )


def whittle_variance(nu, kappa, d):
    """Marginal variance of the stationary solution on R^d for amplitude 1:

    sigma^2 = Gamma(nu) / ( (4 pi)^(d/2) kappa^(2 nu) Gamma(nu + d/2) ).

    DomainError if kappa^(2 nu) overflows or underflows the float range.
    """
    if not nu > 0.0:
        raise ParameterError(f"nu must be positive, got {nu}")
    if not kappa > 0.0:
        raise ParameterError(f"kappa must be positive, got {kappa}")
    if not (isinstance(d, (int, np.integer)) and d >= 1):
        raise ParameterError(f"dimension must be a positive integer, got {d!r}")
    try:
        power = kappa ** (2.0 * nu)
    except OverflowError:
        power = math.inf
    if not 0.0 < power < math.inf:
        raise DomainError(
            f"kappa^(2 nu) = {kappa:.6g}^{2.0 * nu:.6g} is outside the float range"
        )
    return math.gamma(nu) / ((4.0 * math.pi) ** (0.5 * d) * power * math.gamma(nu + 0.5 * d))


@dataclass(frozen=True)
class MaternComparison:
    """Row-wise comparison of discrete and analytic covariances."""

    offsets: np.ndarray
    fem_values: np.ndarray
    analytic_values: np.ndarray
    rel_errors: np.ndarray
    max_rel_error: float

    def write_csv(self, path):
        write_csv(
            path,
            {
                "offset": self.offsets,
                "fem_value": self.fem_values,
                "matern_value": self.analytic_values,
                "rel_error": self.rel_errors,
            },
        )


def compare_fem_vs_matern(model, basis, offsets):
    """Galerkin field covariance from s = 1/2 versus the Matern limit.

    Only constant-coefficient models admit the stationary reference. The
    whole-line solution for diffusion a, reaction kappa2 and exponent
    beta is Matern with nu = 2 beta - 1/2, effective range parameter
    kappa_eff = sqrt(kappa2/a) and variance
    tau^2 a^(-2 beta) * whittle_variance(nu, kappa_eff, 1); boundary
    effects decay over the practical range, so interior lags well away
    from the endpoints should agree closely.

    The Galerkin values are the first row of the observation covariance
    of the points 1/2, 1/2 + h_1, ..., evaluated by the model's own route
    (``kriging._sigma_for_model``) at O(N p) per point, so no N x N
    covariance is formed. A model whose Matern variance overflows or
    underflows the float range raises DomainError.
    """
    if model.a.kind != "constant" or model.kappa2.kind != "constant":
        raise UnsupportedFormError(
            "analytic Matern reference exists for constant coefficients only"
        )
    offsets = np.atleast_1d(np.asarray(offsets, dtype=np.float64))
    if np.any(offsets < 0.0) or np.any(offsets >= 0.5):
        raise DomainError("offsets must lie in [0, 0.5) so 0.5+h stays interior")
    a0 = model.a.params[0]
    k20 = model.kappa2.params[0]
    kappa_eff = math.sqrt(k20 / a0)
    nu = 2.0 * model.beta - 0.5
    try:
        sigma2 = model.tau**2 * a0 ** (-2.0 * model.beta) * whittle_variance(nu, kappa_eff, 1)
    except OverflowError as exc:
        raise DomainError("the model's Matern variance is outside the float range") from exc
    params = MaternParams(nu=nu, kappa=kappa_eff, sigma2=sigma2)

    Phi = eval_matrix(basis, np.concatenate([[0.5], 0.5 + offsets]))
    fem_vals = _sigma_for_model(model, basis, Phi)[0, 1:]
    ana_vals = np.array([matern_cov(params, h) for h in offsets])
    rel = np.abs(fem_vals - ana_vals) / np.abs(ana_vals)
    return MaternComparison(
        offsets=offsets,
        fem_values=fem_vals,
        analytic_values=ana_vals,
        rel_errors=rel,
        max_rel_error=float(np.max(rel)),
    )
