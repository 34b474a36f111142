"""Spectral decomposition, covariance routes, fractional powers, sampling."""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from wmlab.errors import ParameterError
from wmlab.fem1d import (
    DIRICHLET,
    DIRICHLET_LAPLACE,
    assemble_a2,
    assemble_a3,
    assemble_aL,
    build_basis,
)
from wmlab.model_config import CoefficientField, builtin_model
from wmlab.spectral import (
    SpectralDecomposition,
    balakrishnan_fractional_inverse,
    covariance_weights,
    direct_factor,
    generalized_eig,
    sample_field,
    spectral_factor,
)

ONE = CoefficientField("constant", (1.0,))


def _const(v):
    return CoefficientField("constant", (float(v),))


# ------------------------------------------------------- eigenpairs


def test_eigenvalues_shifted_laplacian_closed_form():
    c = 300.0
    basis = build_basis(300, 1, DIRICHLET)
    dec = generalized_eig(assemble_aL(basis, ONE, _const(c)))
    j = np.arange(1, 11)
    exact = j**2 * np.pi**2 + c
    npt.assert_allclose(dec.eigenvalues[:10], exact, rtol=1e-3)


def test_eigenvalues_squared_operator_closed_form():
    c = 700.0
    basis = build_basis(200, 2, DIRICHLET)
    dec = generalized_eig(assemble_a2(basis, _const(c)))
    j = np.arange(1, 6)
    exact = (j**2 * np.pi**2 + c) ** 2
    npt.assert_allclose(dec.eigenvalues[:5], exact, rtol=1e-4)


def test_eigenvalues_cubed_operator_closed_form():
    c = 1100.0
    basis = build_basis(200, 3, DIRICHLET_LAPLACE)
    dec = generalized_eig(assemble_a3(basis, _const(c)))
    j = np.arange(1, 6)
    exact = (j**2 * np.pi**2 + c) ** 3
    npt.assert_allclose(dec.eigenvalues[:5], exact, rtol=1e-5)


def test_eigenvectors_mass_orthonormal():
    basis = build_basis(120, 1, DIRICHLET)
    ops = assemble_aL(basis, ONE, _const(10.0))
    dec = generalized_eig(ops)
    gram = dec.eigenvectors.T @ ops.M @ dec.eigenvectors
    npt.assert_allclose(gram, np.eye(120), atol=1e-10)
    assert np.all(np.diff(dec.eigenvalues) > 0.0)
    assert dec.eigenvalues[0] > 0.0


# ------------------------------------------------- covariance routes


def test_covariance_routes_agree_for_integer_exponent():
    basis = build_basis(200, 1, DIRICHLET)
    ops = assemble_aL(basis, ONE, _const(50.0))
    direct = covariance_weights(direct_factor(ops, 1, tau=3.0))
    spectral = covariance_weights(spectral_factor(generalized_eig(ops), 1.0, tau=3.0))
    err = np.linalg.norm(direct - spectral) / np.linalg.norm(direct)
    assert err < 1e-8


def test_covariance_direct_checks_form_order():
    # the direct route needs s = 2 beta / q a positive integer, q the
    # operator power of the form (1 for a_L, 2 for a2)
    basis = build_basis(50, 1, DIRICHLET)
    ops = assemble_aL(basis, ONE, _const(1.0))
    for beta in (1.3, 0.25, 0.75):
        with pytest.raises(ParameterError):
            direct_factor(ops, beta, tau=1.0)
    ops2 = assemble_a2(build_basis(50, 2, DIRICHLET), _const(1.0))
    for beta in (1.5, 0.5):
        with pytest.raises(ParameterError):
            direct_factor(ops2, beta, tau=1.0)
    with pytest.raises(ParameterError):
        direct_factor(ops, 1.5, tau=0.0)
    with pytest.raises(ParameterError):
        spectral_factor(generalized_eig(ops), 0.2, tau=1.0)
    with pytest.raises(ParameterError):
        spectral_factor(generalized_eig(ops), 1.0, tau=0.0)


@pytest.mark.parametrize(
    "form, order, beta",
    [("a_L", 1, 0.5), ("a_L", 1, 1.5), ("a_L", 1, 2), ("a_L", 2, 2.5),
     ("a2", 2, 1), ("a2", 2, 3), ("a3", 3, 1.5), ("a3", 3, 4.5)],
)
def test_direct_factor_serves_every_integer_s(form, order, beta):
    # C = tau^2 (K^-1 M)^(s-1) K^-1 with s = 2 beta / q is the spectral
    # route's tau^2 V Lambda^(-s) V' on the same pencil; K_a3's condition
    # grows like h^-6, so the pencils are small
    q = {"a_L": 1, "a2": 2, "a3": 3}[form]
    mode = DIRICHLET_LAPLACE if form == "a3" else DIRICHLET
    basis = build_basis(30, order, mode)
    k2 = _const(40.0)
    ops = assemble_aL(basis, ONE, k2) if form == "a_L" else (
        assemble_a2 if form == "a2" else assemble_a3)(basis, k2)
    direct = covariance_weights(direct_factor(ops, beta, tau=2.0))
    spectral = covariance_weights(spectral_factor(generalized_eig(ops), beta / q, tau=2.0))
    err = np.linalg.norm(direct - spectral) / np.linalg.norm(spectral)
    assert err < 1e-8


def test_fractional_covariance_is_positive_semidefinite():
    basis = build_basis(60, 1, DIRICHLET)
    dec = generalized_eig(assemble_aL(basis, ONE, _const(25.0)))
    C = covariance_weights(spectral_factor(dec, 0.75, tau=2.0))
    ev = np.linalg.eigvalsh(C)
    assert ev[0] > -1e-12 * ev[-1]


@pytest.mark.parametrize("route", ["direct", "spectral"])
def test_factor_tdot_is_the_transpose_of_dot(route):
    # tdot takes a vector or a matrix, like dot
    basis = build_basis(40, 1, DIRICHLET)
    ops = assemble_aL(basis, ONE, _const(25.0))
    factor = (
        direct_factor(ops, 1.5, tau=2.0) if route == "direct"
        else spectral_factor(generalized_eig(ops), 1.3, tau=2.0)
    )
    F = factor.dot(np.eye(40))
    X = np.random.default_rng(5).standard_normal((40, 3))
    npt.assert_allclose(factor.tdot(X), F.T @ X, rtol=1e-12, atol=1e-12 * np.abs(F).max())
    npt.assert_allclose(factor.tdot(X[:, 0]), F.T @ X[:, 0], rtol=1e-12,
                        atol=1e-12 * np.abs(F).max())


# ------------------------------------------------ fractional inverse


@pytest.mark.parametrize("theta", [0.3, 0.5, 0.7])
def test_balakrishnan_matches_spectral_power(theta):
    rng = np.random.default_rng(11)
    Q = np.linalg.qr(rng.standard_normal((40, 40)))[0]
    lam = np.linspace(1.0, 900.0, 40)
    A = (Q * lam) @ Q.T
    A = 0.5 * (A + A.T)
    ref = (Q * lam ** (-theta)) @ Q.T
    approx = balakrishnan_fractional_inverse(A, theta, levels=40)
    err = np.linalg.norm(approx - ref) / np.linalg.norm(ref)
    assert err < 1e-6


def test_balakrishnan_input_validation():
    A = np.eye(3)
    with pytest.raises(ParameterError):
        balakrishnan_fractional_inverse(A, 0.0)
    with pytest.raises(ParameterError):
        balakrishnan_fractional_inverse(A, 0.5, levels=0)
    with pytest.raises(ParameterError):
        balakrishnan_fractional_inverse(np.ones((2, 3)), 0.5)
    with pytest.raises(ParameterError):
        balakrishnan_fractional_inverse(-np.eye(3), 0.5)


# ----------------------------------------------------------- sampling


def _factor(ops, beta, tau):
    """The route's square root, as kriging._model_factor picks it."""
    if beta == 1:
        return direct_factor(ops, 1, tau)
    return spectral_factor(generalized_eig(ops), beta, tau)


@pytest.mark.parametrize("beta", [1, 1.5], ids=["direct", "spectral"])
def test_sampling_is_reproducible_and_order_free(beta):
    basis = build_basis(40, 1, DIRICHLET)
    factor = _factor(assemble_aL(basis, ONE, _const(30.0)), beta, tau=50.0)
    a = sample_field(factor, seed=9, n_samples=4)
    b = sample_field(factor, seed=9, n_samples=4)
    npt.assert_array_equal(a, b)
    # draw i depends only on (seed, i), not on how many are requested
    many = sample_field(factor, seed=9, n_samples=7)
    npt.assert_array_equal(many[:, :4], a)
    other = sample_field(factor, seed=10, n_samples=4)
    assert np.max(np.abs(other - a)) > 0.0


@pytest.mark.parametrize("beta", [1, 1.5], ids=["direct", "spectral"])
def test_samples_are_stable_under_roundoff_in_the_operator(beta):
    # a 1e-15 relative symmetric change in K may move the draws only by
    # roundoff; on the spectral route it must not flip a mode's sign
    model = builtin_model("base41", 1)
    basis = build_basis(200, 1, DIRICHLET)
    ops = assemble_aL(basis, model.a, model.kappa2)
    E = np.random.default_rng(0).standard_normal(ops.K_band.shape)
    noisy = dataclasses.replace(ops, K_band=ops.K_band * (1.0 + 1e-15 * E))
    a = sample_field(_factor(ops, beta, model.tau), seed=4, n_samples=5)
    b = sample_field(_factor(noisy, beta, model.tau), seed=4, n_samples=5)
    assert np.max(np.abs(b - a)) > 0.0  # the noise reached the draws
    assert np.max(np.abs(b - a)) <= 1e-8 * np.max(np.abs(a))


def test_spectral_draws_ignore_eigenvector_signs():
    # the sign rule, not LAPACK's choice, fixes each mode's sign
    basis = build_basis(40, 1, DIRICHLET)
    dec = generalized_eig(assemble_aL(basis, ONE, _const(30.0)))
    flips = np.where(np.arange(40) % 3 == 0, -1.0, 1.0)
    flipped = SpectralDecomposition(dec.eigenvalues, dec.eigenvectors * flips)
    a = sample_field(spectral_factor(dec, 1.5, tau=50.0), seed=2, n_samples=3)
    b = sample_field(spectral_factor(flipped, 1.5, tau=50.0), seed=2, n_samples=3)
    npt.assert_array_equal(a, b)


def test_model_factor_scales_its_own_eigenvectors_with_the_same_draws():
    # kriging._model_factor forms F over the eigenvectors it computed;
    # the public spectral_factor scales a copy and leaves its input alone
    from wmlab.kriging import _model_factor

    model = dataclasses.replace(builtin_model("model1_41", 1), beta=1.3)
    basis = build_basis(200, 1, DIRICHLET)
    dec = generalized_eig(assemble_aL(basis, model.a, model.kappa2))
    lam, vec = dec.eigenvalues.copy(), dec.eigenvectors.copy()
    public = sample_field(spectral_factor(dec, 1.3, model.tau), seed=3, n_samples=4)
    assert np.array_equal(dec.eigenvalues, lam) and np.array_equal(dec.eigenvectors, vec)
    owned = sample_field(_model_factor(model, basis), seed=3, n_samples=4)
    assert np.array_equal(owned, public)


@pytest.mark.parametrize("beta", [1, 1.5])
def test_sample_covariance_converges_to_model(beta):
    # the model covariance comes from the pencil's eigenpairs, the draws
    # from the banded factor the model's route uses
    basis = build_basis(30, 1, DIRICHLET)
    ops = assemble_aL(basis, ONE, _const(40.0))
    factor = direct_factor(ops, beta, tau=100.0 * 40.0 ** (beta - 1))
    C = covariance_weights(spectral_factor(generalized_eig(ops), beta, 100.0 * 40.0 ** (beta - 1)))
    draws = sample_field(factor, seed=3, n_samples=20000)
    emp = draws @ draws.T / draws.shape[1]
    err = np.linalg.norm(emp - C) / np.linalg.norm(C)
    assert err < 0.05


def test_sample_field_rejects_bad_arguments():
    basis = build_basis(20, 1, DIRICHLET)
    factor = direct_factor(assemble_aL(basis, ONE, _const(30.0)), 1, tau=1.0)
    for n_samples in (0, -1, 2.0, "3"):
        with pytest.raises(ParameterError):
            sample_field(factor, seed=0, n_samples=n_samples)
    for seed in (-1, 2**64):
        with pytest.raises(ParameterError):
            sample_field(factor, seed=seed, n_samples=1)

