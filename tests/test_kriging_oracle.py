"""The leading-block kriging engine against a from-scratch oracle.

The oracle rescales, factors and solves every leading block anew and
takes the 2-norm condition number from a full SVD, as the package did
before it shared one Cholesky factor per covariance across all n. The
engine must reproduce it to roundoff and flag the same blocks.
"""

import dataclasses

import numpy as np
import pytest
import scipy.linalg

from wmlab import kriging
from wmlab.errors import DegenerateTargetError, NumericalIntegrityError
from wmlab.model_config import builtin_model

RTOL = 1e-12


# ------------------------------------------------------------ oracle


def _scaled_blocks(Sigma, Sigma_tilde, n, targets):
    """Jointly rescaled leading blocks, cross columns and target scales."""
    d = np.sqrt(np.maximum(np.diag(Sigma), 0.0))
    dsafe = np.where(d > 0.0, d, 1.0)
    inv = 1.0 / dsafe
    idx = np.arange(n)
    S = Sigma[np.ix_(idx, idx)] * np.outer(inv[:n], inv[:n])
    cross = Sigma[np.ix_(idx, targets)] * np.outer(inv[:n], inv[targets])
    St = Sigma_tilde[np.ix_(idx, idx)] * np.outer(inv[:n], inv[:n])
    crosst = Sigma_tilde[np.ix_(idx, targets)] * np.outer(inv[:n], inv[targets])
    return S, St, cross, crosst, d[targets] ** 2


def _batch_variances(Sigma, Sigma_tilde, n, targets):
    """(v_true, v_miss, diff, cond, cond1) at one n, every block factored
    anew; cond is the 2-norm condition number, cond1 the 1-norm one."""
    targets = np.asarray(targets, dtype=np.int64)
    S, St, cross, crosst, dt2 = _scaled_blocks(Sigma, Sigma_tilde, n, targets)
    att = np.where(dt2 > 0.0, 1.0, 0.0)
    X = scipy.linalg.cho_solve(scipy.linalg.cho_factor(S, lower=True), cross)
    v_true = (att - np.sum(cross * X, axis=0)) * dt2
    W = scipy.linalg.cho_solve(scipy.linalg.cho_factor(St, lower=True), crosst)
    D = W - X
    diff = np.sum(D * (S @ D), axis=0) * dt2
    return v_true, v_true + diff, diff, float(np.linalg.cond(S)), float(np.linalg.cond(S, 1))


def oracle_curve(Sigma, Sigma_tilde, n_values, targets_of):
    """(e_max, true_var, missp_var, flagged, cond, cond1) per ascending n."""
    out = []
    diag = np.diag(Sigma)
    for n in sorted(n_values):
        targets = np.asarray(targets_of(n))
        v_true, v_miss, diff, cond, cond1 = _batch_variances(Sigma, Sigma_tilde, n, targets)
        valid = v_true > kriging._DEGENERATE_REL * np.maximum(diag[targets], 0.0)
        valid &= v_true > 0.0
        if not np.any(valid):
            raise DegenerateTargetError(f"all targets degenerate at n={n}")
        eff = np.full(targets.shape, np.nan)
        raw = diff[valid] / v_true[valid]
        if np.min(raw) < -1e-6:
            raise NumericalIntegrityError(f"grossly negative efficiency at n={n}")
        eff[valid] = np.clip(raw, 0.0, None)
        k = int(np.nanargmax(eff))
        flag = cond > kriging.COND_FLAG_LIMIT
        out.append((eff[k], v_true[k], v_miss[k], flag, cond, cond1))
    return tuple(zip(*out))


# ---------------------------------------------------------- helpers


def _integral_stage(true_model, N, n_values):
    return kriging.true_stage(true_model, N, kriging.ObservationDesign("integral", N), n_values)


def _assert_matches_oracle(curve, oracle):
    e_max, true_var, missp_var, flagged, _, cond1 = oracle
    np.testing.assert_allclose(curve.true_var, true_var, rtol=RTOL, atol=0.0)
    np.testing.assert_allclose(curve.missp_var, missp_var, rtol=RTOL, atol=0.0)
    np.testing.assert_allclose(curve.e_max, e_max, rtol=RTOL, atol=0.0)
    assert curve.flagged == flagged
    _assert_estimates(curve.cond, cond1)


def _assert_estimates(estimates, cond1):
    # Hager's estimate bounds the 1-norm condition number from below and
    # is rarely off by more than a factor of 3; for nearly singular blocks
    # the oracle's value (from an inverse) is itself only accurate to a
    # few digits
    for est, exact in zip(estimates, cond1):
        assert exact / 3.0 <= est <= exact * 3.0


# ------------------------------------------------------------- tests


@pytest.mark.parametrize("beta", [1, 2, 3])
def test_integral_curve_matches_oracle(beta):
    N, n_values = 120, (5, 10, 20, 40, 60)
    # the perturbed model as the true one: its Sigma is not diagonal, so
    # the solves and the condition estimate have work to do
    true_model = builtin_model("model2_42", beta)
    missp = builtin_model("base42", beta)
    stage = _integral_stage(true_model, N, n_values)
    curve = kriging.efficiency_curve_integral(stage, missp)
    Sigma_t = kriging._missp_sigma(stage, missp, "integral")
    oracle = oracle_curve(stage.Sigma, Sigma_t, n_values, lambda n: np.arange(n, N))
    _assert_matches_oracle(curve, oracle)


def test_point_curve_matches_oracle():
    N, n_values = 300, (4, 10, 20, 30, 40)
    base = builtin_model("base41", 1)
    missp = builtin_model("model2_41", 1, 10.0)
    design = kriging.ObservationDesign(kind="point", n_max=max(n_values))
    stage = kriging.true_stage(base, N, design, n_values)
    curve = kriging.efficiency_curve_point(stage, missp)
    Sigma_t = kriging._missp_sigma(stage, missp, "point")
    oracle = oracle_curve(stage.Sigma, Sigma_t, n_values, lambda n: [len(Sigma_t) - 1])
    _assert_matches_oracle(curve, oracle)


def _ill_conditioned_pair():
    # Observation 2 repeats observation 1 up to 1e-7, so every leading
    # block with n >= 2 has a scaled condition number near 1e14.
    rng = np.random.default_rng(3)
    A = rng.standard_normal((12, 12))
    A[1] = A[0] + 1e-7 * rng.standard_normal(12)
    Sigma = A @ A.T
    Sigma_t = 1.5 * Sigma + 0.1 * np.diag(np.diag(Sigma))
    return Sigma, Sigma_t


def test_ill_conditioned_blocks_are_flagged_like_the_oracle():
    Sigma, Sigma_t = _ill_conditioned_pair()
    n_values = (1, 2, 4, 6)
    targets_of = lambda n: np.arange(n, 12)  # noqa: E731
    curve = kriging._efficiency_curve("integral", Sigma, Sigma_t, n_values, targets_of)
    _, _, _, flagged, cond, cond1 = oracle_curve(Sigma, Sigma_t, n_values, targets_of)
    assert flagged == (False, True, True, True)
    assert curve.flagged == flagged
    assert all(c > kriging.COND_FLAG_LIMIT for c in curve.cond[1:])
    assert all(c > kriging.COND_FLAG_LIMIT for c in cond[1:])
    _assert_estimates(curve.cond, cond1)


@pytest.mark.parametrize("n_values", [(10,), (5, 10, 20, 40), tuple(range(2, 60, 3))])
def test_each_covariance_is_factored_once_per_curve(monkeypatch, n_values):
    real = scipy.linalg.cholesky
    calls = []

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return real(*args, **kwargs)

    # no covariance route factors with cholesky (the direct route for
    # integer 2 beta factors K in band storage, the spectral route
    # factors nothing), so every factorization counted is the engine's
    pairs = [
        (builtin_model("base41", 1), builtin_model("model1_41", 1)),
        (builtin_model("base42", 2), builtin_model("model1_42", 2)),
        (builtin_model("base42", 3), builtin_model("model1_42", 3)),
        (
            dataclasses.replace(builtin_model("base41", 1), beta=1.5),
            dataclasses.replace(builtin_model("model1_41", 1), beta=1.5),
        ),
        (
            dataclasses.replace(builtin_model("base41", 1), beta=1.3),
            dataclasses.replace(builtin_model("model1_41", 1), beta=1.3),
        ),
    ]
    monkeypatch.setattr(scipy.linalg, "cholesky", counted)
    m = max(n_values)
    for base, missp in pairs:
        stage = _integral_stage(base, 120, n_values)
        calls.clear()
        curve = kriging.efficiency_curve_integral(stage, missp)
        assert calls == [(m, m), (m, m)], base.beta
        assert curve.n_values == tuple(sorted(n_values))


@pytest.mark.parametrize("n_values", [(10,), (5, 10, 20, 40), tuple(range(2, 60, 3))])
def test_each_curve_makes_three_triangular_solves(monkeypatch, n_values):
    # Z, Z~ and R, once per curve whatever the number of n; no per-n solve
    calls = []

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapper

    for name in ("solve_triangular", "cho_solve"):
        monkeypatch.setattr(scipy.linalg, name, counted(name, getattr(scipy.linalg, name)))
    base, missp = builtin_model("base41", 1), builtin_model("model1_41", 1)
    for curve_of, design in (
        (kriging.efficiency_curve_integral, kriging.ObservationDesign("integral", 120)),
        (kriging.efficiency_curve_point, kriging.ObservationDesign("point", max(n_values))),
    ):
        stage = kriging.true_stage(base, 120, design, n_values)
        calls.clear()
        curve = curve_of(stage, missp)
        assert calls == ["solve_triangular"] * 3, curve_of.__name__
        assert curve.n_values == tuple(sorted(n_values))
