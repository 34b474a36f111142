"""The covariance square roots against dense, Gram and long-double oracles.

The dense oracle is the direct route as the package computed it before K
was factored in band storage: a dense Cholesky factor of K and a dense
product with M. The Gram oracles are Sigma and C as the package computed
them before each route built a square root F: tau^2 Y' M Y with
Y = K^-1 Phi' on the bands (direct), and the projection of Phi on the
pencil's eigenvectors (spectral). The long-double oracle factors the
same float64 K by banded Cholesky in extended precision, so its own
roundoff is far below that of either float64 route and it measures their
solve errors.
"""

import dataclasses
import json

import numpy as np
import pytest
import scipy.linalg

from wmlab import cli, kriging, spectral
from wmlab.errors import ConditioningError
from wmlab.fem1d import (
    DIRICHLET,
    assemble_aL,
    band_matmul,
    build_basis,
    integral_obs_matrix,
    point_obs_matrix,
)
from wmlab.model_config import CoefficientField, ModelSpec, builtin_model, tau_unit_variance

# ------------------------------------------------------------ oracles


def dense_sigma(ops, Phi, tau):
    """tau^2 Y' M Y with Y = K^-1 Phi' from a dense Cholesky factor."""
    fac = scipy.linalg.cho_factor(ops.K, lower=True)
    Y = scipy.linalg.cho_solve(fac, Phi.T)
    S = tau**2 * (Y.T @ (ops.M @ Y))
    return 0.5 * (S + S.T)


def dense_covariance(ops, tau):
    """tau^2 K^-1 M K^-1 from a dense Cholesky factor."""
    factor = scipy.linalg.cho_factor(ops.K)
    X = scipy.linalg.cho_solve(factor, ops.M)  # K^-1 M
    C = scipy.linalg.cho_solve(factor, X.T).T  # (K^-1 X')' = X K^-1
    return (tau * tau) * 0.5 * (C + C.T)


def banded_gram(ops, rhs, tau, s=2):
    """tau^2 rhs' (K^-1 M)^(s-1) K^-1 rhs, K factored as a band.

    With Y = (K^-1 M)^k K^-1 rhs this is tau^2 Y' M Y for s = 2k + 2 and
    tau^2 Y' K Y for s = 2k + 1.
    """
    factor = scipy.linalg.cholesky_banded(ops.K_band, lower=True)
    Y = scipy.linalg.cho_solve_banded((factor, True), rhs)
    for _ in range((s - 1) // 2):
        Y = scipy.linalg.cho_solve_banded((factor, True), band_matmul(ops.M_band, Y))
    S = (tau * tau) * (Y.T @ band_matmul(ops.M_band if s % 2 == 0 else ops.K_band, Y))
    return 0.5 * (S + S.T)


def spectral_gram(ops, Phi, beta, tau):
    """tau^2 B diag(lambda^(-2 beta)) B' with B = Phi V."""
    dec = spectral.generalized_eig(ops)
    B = Phi @ dec.eigenvectors
    S = (B * (tau**2 * dec.eigenvalues ** (-2.0 * beta))) @ B.T
    return 0.5 * (S + S.T)


def longdouble_sigma(ops, rhs, tau, s=2):
    """tau^2 rhs' (K^-1 M)^(s-1) K^-1 rhs, by banded Cholesky in long double.

    Y = K^-1 rhs, then (s-1)//2 times Y = K^-1 M Y; the result is
    tau^2 Y' M Y for even s and tau^2 Y' K Y for odd s.
    """
    p = ops.bandwidth
    K = ops.K.astype(np.longdouble)
    M = ops.M.astype(np.longdouble)
    n = K.shape[0]
    L = np.zeros((n, n), dtype=np.longdouble)
    for j in range(n):
        lo = max(0, j - p)
        L[j, j] = np.sqrt(K[j, j] - L[j, lo:j] @ L[j, lo:j])
        for i in range(j + 1, min(n, j + p + 1)):
            L[i, j] = (K[i, j] - L[i, lo:j] @ L[j, lo:j]) / L[j, j]

    def solve(Y):
        for i in range(n):  # L z = rhs
            lo = max(0, i - p)
            Y[i] = (Y[i] - L[i, lo:i] @ Y[lo:i]) / L[i, i]
        for i in range(n - 1, -1, -1):  # L' y = z
            hi = min(n, i + p + 1)
            Y[i] = (Y[i] - L[i + 1 : hi, i] @ Y[i + 1 : hi]) / L[i, i]
        return Y

    Y = solve(np.array(rhs, dtype=np.longdouble))
    for _ in range((s - 1) // 2):
        Y = solve(M @ Y)
    S = np.longdouble(tau) ** 2 * (Y.T @ ((M if s % 2 == 0 else K) @ Y))
    return 0.5 * (S + S.T)


def _correlation_error(S, exact):
    """max |S - exact| in units of the exact standard deviations."""
    d = np.sqrt(np.diag(exact).astype(np.float64))
    return float(np.max(np.abs((S - exact).astype(np.float64)) / np.outer(d, d)))


def _operators(model, N):
    basis = kriging._model_basis(model, N)
    return basis, kriging._model_operators(model, basis)[0]


# -------------------------------------------------------------- beta = 1


@pytest.mark.parametrize("name", ["base42", "model1_42"])
def test_beta1_sigma_diagonal_matches_dense_route(name):
    model = builtin_model(name, 1)
    basis, ops = _operators(model, 300)
    Phi = integral_obs_matrix(basis, 40)
    S = kriging._sigma_for_model(model, basis, Phi)
    np.testing.assert_allclose(np.diag(S), np.diag(dense_sigma(ops, Phi, model.tau)), rtol=1e-12)


@pytest.mark.parametrize("N", [300, 1000])
def test_beta1_point_sigma_matches_dense_route(N):
    design = kriging.ObservationDesign(kind="point", n_max=40)
    locations = np.concatenate([kriging.point_locations(design), [design.s0]])
    for model in (builtin_model("base41", 1), builtin_model("model2_41", 1, 10.0)):
        basis, ops = _operators(model, N)
        Phi = point_obs_matrix(basis, locations)
        S = kriging._sigma_for_model(model, basis, Phi)
        D = dense_sigma(ops, Phi, model.tau)
        row_max = np.max(np.abs(D), axis=1, keepdims=True)
        assert np.max(np.abs(S - D) / row_max) <= 1e-12


def test_beta1_covariance_diagonal_matches_dense_route():
    model = builtin_model("model1_42", 1)
    _, ops = _operators(model, 300)
    C = spectral.covariance_weights(spectral.direct_factor(ops, 1, model.tau))
    np.testing.assert_allclose(np.diag(C), np.diag(dense_covariance(ops, model.tau)), rtol=1e-12)


# -------------------------------------------------- square root F F' = C


def _fractional_model(beta=1.5):
    return ModelSpec(
        beta=beta,
        a=CoefficientField("constant", (1.0,)),
        kappa2=CoefficientField("constant", (100.0,)),
        tau=tau_unit_variance(beta, 10.0),
        basis_order=1,
    )


# The half-integer case (2 beta = 3) takes the banded route and is held
# to the banded Gram oracle of the same s at 1e-12 and to the spectral
# oracle at 1e-11, the spectral route's own error at N = 300 being about
# 5e-12 (test_half_integer_sigma_beats_the_spectral_route below); the
# genuinely fractional case takes the spectral route and is held to the
# spectral oracle at 1e-12.


@pytest.mark.parametrize("beta", [1, 1.5, 1.3])
def test_sigma_matches_gram_oracle(beta):
    model = builtin_model("model1_42", 1) if beta == 1 else _fractional_model(beta)
    basis, ops = _operators(model, 300)
    Phi = integral_obs_matrix(basis, 40)
    S = kriging._sigma_for_model(model, basis, Phi)
    if beta == 1.3:
        oracle = spectral_gram(ops, Phi, beta, model.tau)
    else:
        oracle = banded_gram(ops, Phi.T, model.tau, s=int(2 * beta))
    assert _correlation_error(S, oracle) <= 1e-12
    if beta == 1.5:
        assert _correlation_error(S, spectral_gram(ops, Phi, beta, model.tau)) <= 1e-11


@pytest.mark.parametrize(
    "name, beta",
    [("base41", 1), ("base42", 2), ("base42", 3), ("fractional", 1.5), ("fractional", 1.3)],
)
def test_factor_times_its_transpose_is_the_covariance(name, beta):
    # beta = 3 runs on the Laplace-zero basis
    model = _fractional_model(beta) if name == "fractional" else builtin_model(name, beta)
    basis, ops = _operators(model, 200)
    if beta == 1.3:
        oracle = spectral_gram(ops, np.eye(200), beta, model.tau)
    elif beta == 1.5:
        oracle = banded_gram(ops, np.eye(200), model.tau, s=3)
    else:
        oracle = banded_gram(ops, np.eye(200), model.tau)
    F = kriging._model_factor(model, basis).dot(np.eye(200))
    scale = np.max(np.abs(oracle))
    assert np.max(np.abs(F @ F.T - oracle)) <= 1e-12 * scale
    C = spectral.covariance_weights(kriging._model_factor(model, basis))
    assert np.max(np.abs(C - oracle)) <= 1e-12 * scale
    if beta == 1.5:
        spectral_oracle = spectral_gram(ops, np.eye(200), beta, model.tau)
        assert np.max(np.abs(C - spectral_oracle)) <= 1e-11 * scale


# ---------------------------------------------------------- beta = 2, 3


@pytest.mark.parametrize("beta", [2, 3])
@pytest.mark.parametrize("name", ["base42", "model1_42"])
def test_sigma_is_as_accurate_as_dense_route(beta, name):
    # K's condition grows like h^(-2 beta), so both float64 routes lose
    # digits at beta = 2, 3; the banded one may not lose more
    model = builtin_model(name, beta)
    basis, ops = _operators(model, 300)
    Phi = integral_obs_matrix(basis, 40)
    exact = longdouble_sigma(ops, Phi.T, model.tau)
    banded = _correlation_error(kriging._sigma_for_model(model, basis, Phi), exact)
    dense = _correlation_error(dense_sigma(ops, Phi, model.tau), exact)
    assert banded <= 4.0 * dense


@pytest.mark.parametrize("beta", [2, 3])
def test_covariance_is_as_accurate_as_dense_route(beta):
    model = builtin_model("base42", beta)
    _, ops = _operators(model, 200)
    exact = longdouble_sigma(ops, np.eye(200), model.tau)
    C = spectral.covariance_weights(spectral.direct_factor(ops, beta, model.tau))
    banded = _correlation_error(C, exact)
    dense = _correlation_error(dense_covariance(ops, model.tau), exact)
    assert banded <= 4.0 * dense


# -------------------------------------------------------------- contract


def test_indefinite_form_raises_conditioning_error(tmp_path, monkeypatch, capsys):
    model = builtin_model("base41", 1)
    basis = build_basis(30, 1, DIRICHLET)
    ops = assemble_aL(basis, model.a, model.kappa2)
    K_band = ops.K_band.copy()
    K_band[0, 5] = -1.0  # K[5, 5]
    ops = dataclasses.replace(ops, K_band=K_band)
    with pytest.raises(ConditioningError, match="not positive definite") as direct:
        spectral.direct_factor(ops, 1, model.tau)

    monkeypatch.setattr(kriging, "assemble_aL", lambda *args, **kwargs: ops)
    with pytest.raises(ConditioningError) as sigma:
        kriging._sigma_for_model(model, basis, integral_obs_matrix(basis, 5))
    config = tmp_path / "sample.json"
    config.write_text(json.dumps({"model": {"name": "base41", "beta": 1}, "N": 30}))
    assert cli.main(["sample", "--config", str(config), "--out", str(tmp_path / "out")]) == 3
    dump = json.loads(capsys.readouterr().err)
    # one function factors K for every consumer
    assert str(sigma.value) == str(direct.value)
    assert (dump["error"], dump["message"]) == ("ConditioningError", str(direct.value))


# ------------------------------------------------- half-integer beta


def _half_integer_model(beta):
    # model1_41's kappa^2 (1200 over a sigmoid) with exponent beta, on the
    # a_L pencil of a piecewise-linear basis
    return dataclasses.replace(builtin_model("model1_41", 1), beta=beta)


@pytest.mark.parametrize("beta", [0.5, 1.5, 2.5, 4])
def test_half_integer_sigma_beats_the_spectral_route(beta):
    # C = tau^2 (K^-1 M)^(2 beta - 1) K^-1 exactly, so the banded factor
    # and the pencil's eigenpairs compute the same Sigma; against long
    # double the banded one may not be the less accurate
    model = _half_integer_model(beta)
    basis, ops = _operators(model, 300)
    Phi = integral_obs_matrix(basis, 40)
    exact = longdouble_sigma(ops, Phi.T, model.tau, s=int(2 * beta))
    banded = _correlation_error(kriging._sigma_for_model(model, basis, Phi), exact)
    G = spectral.spectral_factor(spectral.generalized_eig(ops), beta, model.tau).tdot(Phi.T)
    assert banded <= _correlation_error(G.T @ G, exact)


@pytest.mark.parametrize("design", ["integral", "point"])
def test_half_integer_sigma_matches_the_spectral_route_at_benchmark_size(design):
    model = _half_integer_model(1.5)
    basis, ops = _operators(model, 1200)
    if design == "integral":
        Phi = integral_obs_matrix(basis, 40)
    else:
        points = kriging.point_locations(kriging.ObservationDesign(kind="point", n_max=40))
        Phi = point_obs_matrix(basis, points)
    S = kriging._sigma_for_model(model, basis, Phi)
    assert _correlation_error(S, spectral_gram(ops, Phi, 1.5, model.tau)) <= 1e-11


@pytest.mark.parametrize("beta", [0.5, 1.5, 2.5])
def test_half_integer_routes_never_diagonalize(tmp_path, monkeypatch, beta):
    def refuse(ops):
        raise AssertionError("half-integer beta reached the eigensolver")

    monkeypatch.setattr(spectral, "generalized_eig", refuse)
    monkeypatch.setattr(kriging, "generalized_eig", refuse)
    model = _half_integer_model(beta)
    basis, _ = _operators(model, 200)
    Phi = integral_obs_matrix(basis, 20)
    assert np.all(np.isfinite(kriging._sigma_for_model(model, basis, Phi)))
    config = tmp_path / "sample.json"
    config.write_text(json.dumps({
        "model": {"beta": beta, "a": {"kind": "constant", "params": [1.0]},
                  "kappa2": {"kind": "constant", "params": [100.0]}, "tau": 1.0},
        "N": 200, "n_samples": 3,
    }))
    assert cli.main(["sample", "--config", str(config), "--out", str(tmp_path / "out")]) == 0


def test_half_integer_sample_runs_in_linear_memory(tmp_path):
    # the spectral route would hold N x N eigenvectors: 3.2 GB each at
    # N = 20 000; the banded factor holds a few bands
    import tracemalloc

    N = 20_000
    config = tmp_path / "sample.json"
    config.write_text(json.dumps({
        "model": {"beta": 1.5, "a": {"kind": "constant", "params": [1.0]},
                  "kappa2": {"kind": "constant", "params": [100.0]}, "tau": 1.0},
        "N": N, "n_samples": 2, "format": "bin",
    }))
    tracemalloc.start()
    try:
        code = cli.main(["sample", "--config", str(config), "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 6_000 * N
