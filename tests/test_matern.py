"""Modified Bessel function of the second kind and the Matern family."""

import math

import numpy as np
import numpy.testing as npt
import pytest
import scipy.integrate
import scipy.special

from wmlab.errors import DomainError, ParameterError
from wmlab.matern import MaternParams, bessel_k, matern_cov, whittle_variance


def _kv_quadrature(nu, x):
    """Independent oracle: K_nu(x) = int_0^inf exp(-x cosh t) cosh(nu t) dt."""
    val, err = scipy.integrate.quad(
        lambda t: math.exp(-x * math.cosh(t)) * math.cosh(nu * t),
        0.0,
        40.0,
        epsabs=1e-14,
        epsrel=1e-13,
        limit=300,
    )
    return val


@pytest.mark.parametrize("nu", [0.3, 1.5, 2.0, 3.5, 5.5])
@pytest.mark.parametrize("x", [0.1, 1.0, 5.0, 20.0])
def test_bessel_k_against_integral_representation(nu, x):
    expected = _kv_quadrature(nu, x)
    npt.assert_allclose(bessel_k(nu, x), expected, rtol=1e-9)


def test_bessel_k_against_scipy_grid():
    nus = [0.1, 0.5, 0.9, 1.5, 2.3, 3.5, 4.9, 5.5]
    xs = np.geomspace(1e-3, 50.0, 60)
    for nu in nus:
        ours = np.array([bessel_k(nu, x) for x in xs])
        ref = scipy.special.kv(nu, xs)
        npt.assert_allclose(ours, ref, rtol=5e-12)


def test_bessel_k_half_integer_closed_forms():
    for x in (0.2, 1.0, 7.0):
        k_half = math.sqrt(math.pi / (2 * x)) * math.exp(-x)
        npt.assert_allclose(bessel_k(0.5, x), k_half, rtol=1e-13)
        npt.assert_allclose(bessel_k(1.5, x), k_half * (1 + 1 / x), rtol=1e-13)
        npt.assert_allclose(
            bessel_k(2.5, x), k_half * (1 + 3 / x + 3 / x**2), rtol=1e-13
        )


def test_bessel_k_symmetry_in_order():
    # K_{-nu} = K_{nu}
    npt.assert_allclose(bessel_k(-1.3, 2.0), bessel_k(1.3, 2.0), rtol=1e-13)


def test_bessel_k_rejects_nonpositive_argument():
    with pytest.raises((DomainError, ParameterError)):
        bessel_k(1.0, 0.0)
    with pytest.raises((DomainError, ParameterError)):
        bessel_k(1.0, -2.0)


# ------------------------------------------------------------- Matern


def test_matern_nu_half_is_exponential():
    p = MaternParams(nu=0.5, kappa=3.0, sigma2=2.0)
    h = np.linspace(0.01, 2.0, 40)
    expected = 2.0 * np.exp(-3.0 * h)
    got = np.array([matern_cov(p, v) for v in h])
    npt.assert_allclose(got, expected, rtol=1e-12)


def test_matern_nu_three_halves_closed_form():
    p = MaternParams(nu=1.5, kappa=2.0, sigma2=1.0)
    h = np.linspace(0.01, 2.0, 40)
    expected = (1.0 + 2.0 * h) * np.exp(-2.0 * h)
    got = np.array([matern_cov(p, v) for v in h])
    npt.assert_allclose(got, expected, rtol=1e-12)


def test_matern_at_zero_lag_is_variance():
    p = MaternParams(nu=2.5, kappa=4.0, sigma2=3.7)
    npt.assert_allclose(matern_cov(p, 0.0), 3.7, rtol=1e-14)


def test_matern_decreasing_in_lag():
    p = MaternParams(nu=1.5, kappa=5.0, sigma2=1.0)
    h = np.linspace(0.0, 1.0, 30)
    vals = np.array([matern_cov(p, v) for v in h])
    assert np.all(np.diff(vals) < 0.0)


def test_whittle_variance_closed_form_d1():
    # d=1, nu=3/2: sigma^2 = Gamma(3/2) / (Gamma(2) sqrt(4 pi) kappa^3)
    #            = 1 / (4 kappa^3)
    for kappa in (1.0, 2.0, math.sqrt(1200.0)):
        npt.assert_allclose(
            whittle_variance(1.5, kappa, 1), 1.0 / (4.0 * kappa**3), rtol=1e-13
        )


def test_whittle_variance_general_formula():
    nu, kappa, d = 2.2, 3.0, 2
    expected = math.gamma(nu) / (
        math.gamma(nu + d / 2) * (4 * math.pi) ** (d / 2) * kappa ** (2 * nu)
    )
    npt.assert_allclose(whittle_variance(nu, kappa, d), expected, rtol=1e-13)


@pytest.mark.parametrize("kappa", [3.5e-153, 1e200], ids=["underflows", "overflows"])
def test_whittle_variance_out_of_float_range_is_a_domain_error(kappa):
    # kappa^3 underflows to 0 (once a bare ZeroDivisionError) or overflows
    with pytest.raises(DomainError, match="outside the float range"):
        whittle_variance(1.5, kappa, 1)


# ------------------------------------------------- FEM vs Matern check


def _fractional_model():
    from wmlab.model_config import CoefficientField, ModelSpec, tau_unit_variance

    return ModelSpec(
        beta=1.5,
        a=CoefficientField("constant", (1.0,)),
        kappa2=CoefficientField("constant", (100.0,)),
        tau=tau_unit_variance(1.5, 10.0),
        basis_order=1,
    )


@pytest.mark.parametrize("beta", [1, 2, 3, 1.5])
def test_matern_check_without_covariance_matches_weight_covariance(beta):
    # the comparison reads the offsets from the observation covariance of
    # the points; the oracle forms the N x N weight covariance C = F F'
    from wmlab.fem1d import eval_matrix
    from wmlab.kriging import _model_basis, _model_factor
    from wmlab.matern import compare_fem_vs_matern
    from wmlab.model_config import builtin_model
    from wmlab.spectral import covariance_weights

    model = _fractional_model() if beta == 1.5 else builtin_model("base42", beta)
    basis = _model_basis(model, 200)
    C = covariance_weights(_model_factor(model, basis))
    offsets = [0.0, 0.01, 0.05, 0.1]
    rows = eval_matrix(basis, 0.5 + np.array(offsets))
    via_cov = eval_matrix(basis, np.array([0.5])) @ C @ rows.T
    via_sigma = compare_fem_vs_matern(model, basis, offsets)
    npt.assert_allclose(via_sigma.fem_values, via_cov[0], rtol=1e-9)
    ana = via_sigma.analytic_values
    npt.assert_array_equal(via_sigma.rel_errors, np.abs(via_sigma.fem_values - ana) / np.abs(ana))
