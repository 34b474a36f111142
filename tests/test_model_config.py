"""Coefficient fields, builtin models, and JSON round-tripping."""

import json
import math

import numpy as np
import numpy.testing as npt
import pytest
import scipy.special

from wmlab.errors import CoefficientError, DomainError, ParameterError
from wmlab.model_config import (
    BUILTIN_MODEL_NAMES,
    CoefficientField,
    ModelSpec,
    builtin_model,
    eval_coefficient,
    eval_coefficient_derivative,
    field_from_dict,
    model_from_dict,
    tau_unit_variance,
)
from wmlab.model_config import _erf_arr


# ---------------------------------------------------------------- erf

_ONE_INSIDE = math.nextafter(1.0, 0.0)


def erf(x):
    """Scalar oracle: math.erf clamped into (-1, 1), as _erf_arr clamps."""
    return min(max(math.erf(float(x)), -_ONE_INSIDE), _ONE_INSIDE)


def test_erf_reference_values():
    # Abramowitz & Stegun 7.1; 15 digits via mpmath
    npt.assert_allclose(_erf_arr(0.5), 0.5204998778130465, rtol=1e-14)
    npt.assert_allclose(_erf_arr(2.0), 0.9953222650189527, rtol=1e-14)
    npt.assert_allclose(_erf_arr(0.0), 0.0, atol=0.0)


def test_erf_matches_scipy_on_grid():
    x = np.linspace(-6.0, 6.0, 1201)
    npt.assert_allclose(_erf_arr(x), scipy.special.erf(x), rtol=0, atol=1e-14)


def test_erf_odd_symmetry():
    v = np.array([0.1, 0.77, 2.5, 4.0])
    npt.assert_allclose(_erf_arr(-v), -_erf_arr(v), rtol=0, atol=0)


def test_array_erf_is_scalar_erf_bit_for_bit():
    tiny = np.finfo(np.float64).smallest_subnormal
    special = [0.0, -0.0, tiny, -tiny, 1e-310, -1e-310, 6.0, -6.0, 6.5, -7.0,
               27.0, -1e300, np.inf, -np.inf]
    x = np.concatenate([np.linspace(-8.0, 8.0, 2001), special]).reshape(-1, 5)
    got = _erf_arr(x)
    want = np.array([erf(v) for v in x.ravel()]).reshape(x.shape)
    assert got.shape == x.shape
    assert got.tobytes() == want.tobytes()
    # the clamp keeps every value inside (-1, 1), as the scalar does
    assert np.all(np.abs(got) < 1.0)
    assert _erf_arr(np.float64(0.5)).shape == ()


def test_array_erf_rejects_nan():
    with pytest.raises(DomainError, match="NaN"):
        _erf_arr(np.array([0.0, np.nan, 1.0]))


# ------------------------------------------------- coefficient fields


def test_polynomial_matches_horner():
    field = CoefficientField("polynomial", (2.0, -1.0, 0.5, 3.0))
    s = np.linspace(0.0, 1.0, 101)
    expected = 2.0 - s + 0.5 * s**2 + 3.0 * s**3
    npt.assert_allclose(eval_coefficient(field, s), expected, rtol=1e-15)


def test_sigmoid_scaled_closed_form():
    delta = 10.0
    field = CoefficientField("sigmoid_scaled", (1.0, 0.5, delta, 0.5))
    s = np.linspace(0.0, 1.0, 51)
    f = 1.0 + 0.5 * scipy.special.erf(delta * (s - 0.5) / math.sqrt(2.0))
    npt.assert_allclose(eval_coefficient(field, s), f, rtol=1e-13)


def test_sigmoid_reciprocal_closed_form():
    delta = 10.0
    field = CoefficientField(
        "sigmoid_reciprocal", (1.0 / 1200.0, 1.0 / 2400.0, delta, 0.5)
    )
    s = np.linspace(0.0, 1.0, 51)
    f = 1.0 + 0.5 * scipy.special.erf(delta * (s - 0.5) / math.sqrt(2.0))
    npt.assert_allclose(eval_coefficient(field, s), 1200.0 / f, rtol=1e-13)


@pytest.mark.parametrize(
    "field",
    [
        CoefficientField("constant", (3.25,)),
        CoefficientField("polynomial", (1.0, 2.0, -1.5, 0.25)),
        CoefficientField("sigmoid_scaled", (1.0, 0.5, 7.0, 0.5)),
        CoefficientField("sigmoid_reciprocal", (0.01, 0.004, 3.0, 0.5)),
    ],
)
def test_derivative_matches_central_difference(field):
    s = np.linspace(0.05, 0.95, 19)
    h = 1e-6
    fd = (eval_coefficient(field, s + h) - eval_coefficient(field, s - h)) / (2 * h)
    npt.assert_allclose(eval_coefficient_derivative(field, s), fd, rtol=2e-8, atol=2e-8)


def test_unknown_field_kind_rejected():
    with pytest.raises((ParameterError, CoefficientError)):
        CoefficientField("cubic_spline", (1.0,))


# ------------------------------------------------------ builtin models


def test_builtin_names_complete():
    assert BUILTIN_MODEL_NAMES == (
        "base41",
        "model1_41",
        "model2_41",
        "base42",
        "model1_42",
        "model2_42",
    )


def test_base41_amplitude_closed_form():
    # unit-variance amplitude for nu=3/2, d=1: tau = 2 kappa^(3/2)
    model = builtin_model("base41", 1)
    npt.assert_allclose(model.tau, 2.0 * 1200.0**0.75, rtol=1e-13)
    npt.assert_allclose(
        tau_unit_variance(1.0, math.sqrt(1200.0)), 2.0 * 1200.0**0.75, rtol=1e-13
    )


def test_family41_models_agree_with_base_at_center():
    base = builtin_model("base41", 1, delta=10.0)
    for name in ("model1_41", "model2_41"):
        m = builtin_model(name, 1, delta=10.0)
        npt.assert_allclose(
            eval_coefficient(m.kappa2, 0.5), eval_coefficient(base.kappa2, 0.5),
            rtol=1e-12,
        )
        npt.assert_allclose(
            eval_coefficient(m.a, 0.5), eval_coefficient(base.a, 0.5), rtol=1e-12
        )
        assert m.tau == base.tau


@pytest.mark.parametrize("beta", [1, 2, 3])
def test_family42_perturbations_at_endpoints(beta):
    c0 = 100.0 * (4.0 * beta - 1.0)
    m1 = builtin_model("model1_42", beta)
    m2 = builtin_model("model2_42", beta)
    for m in (m1, m2):
        npt.assert_allclose(eval_coefficient(m.kappa2, 0.0), c0, rtol=1e-13)
        npt.assert_allclose(eval_coefficient(m.kappa2, 1.0), 0.5 * c0, rtol=1e-13)
        assert m.basis_order == beta
    # the reaction derivative vanishes at both endpoints for model 1 only
    npt.assert_allclose(eval_coefficient_derivative(m1.kappa2, 0.0), 0.0, atol=1e-12)
    npt.assert_allclose(eval_coefficient_derivative(m1.kappa2, 1.0), 0.0, atol=1e-12)
    assert abs(eval_coefficient_derivative(m2.kappa2, 0.0)) > 1.0


def test_builtin_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        builtin_model("base43", 1)
    with pytest.raises(ParameterError):
        builtin_model("base41", 2)
    with pytest.raises(ParameterError):
        builtin_model("base42", 4)
    with pytest.raises(ParameterError):
        builtin_model("model1_41", 1, delta=-3.0)
    with pytest.raises(ParameterError):
        builtin_model("base42", 1.5)


def test_modelspec_validates_coefficients():
    one = CoefficientField("constant", (1.0,))
    with pytest.raises(CoefficientError):
        ModelSpec(
            beta=1.0,
            a=CoefficientField("constant", (-1.0,)),
            kappa2=one,
            tau=1.0,
            basis_order=1,
        )
    with pytest.raises(CoefficientError):
        ModelSpec(
            beta=1.0,
            a=one,
            kappa2=CoefficientField("constant", (0.0,)),
            tau=1.0,
            basis_order=1,
        )
    with pytest.raises(ParameterError):
        ModelSpec(beta=0.2, a=one, kappa2=one, tau=1.0, basis_order=1)
    with pytest.raises(ParameterError):
        ModelSpec(beta=1.0, a=one, kappa2=one, tau=-1.0, basis_order=1)


# --------------------------------------------------------- round trips


def _field_dict(field):
    return {"kind": field.kind, "params": list(field.params)}


@pytest.mark.parametrize(
    "name,beta", [("base41", 1), ("model2_41", 1), ("model1_42", 3), ("base42", 2)]
)
def test_model_json_round_trip(name, beta):
    # every builtin model, written as the custom model ref a config takes
    model = builtin_model(name, beta)
    spec = {"beta": model.beta, "a": _field_dict(model.a), "kappa2": _field_dict(model.kappa2),
            "tau": model.tau, "basis_order": model.basis_order}
    assert model_from_dict(json.loads(json.dumps(spec))) == model


def test_field_json_round_trip():
    field = CoefficientField("polynomial", (1.0, -0.5, 0.25))
    assert field_from_dict(json.loads(json.dumps(_field_dict(field)))) == field
