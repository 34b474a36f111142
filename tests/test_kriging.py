"""Best-linear-prediction variances and efficiency curves."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wmlab import kriging
from wmlab.errors import DegenerateTargetError, NumericalIntegrityError, ParameterError
from wmlab.kriging import (
    ObservationDesign,
    correct_error_variance,
    curve_rows,
    efficiency,
    efficiency_curve_integral,
    efficiency_curve_point,
    point_locations,
    true_stage,
    write_curves_csv,
)
from wmlab.model_config import builtin_model

# 3x3 hand oracle: observations are rows 0,1; target is row 2.
SIGMA = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])
SIGMA_T = np.array([[3.0, 1.0, 1.0], [1.0, 3.0, 1.0], [1.0, 1.0, 3.0]])


def _spd(rng, n, jitter=0.5):
    A = rng.standard_normal((n, n))
    return A @ A.T + jitter * np.eye(n)


# ----------------------------------------------------------- oracles


def test_schur_complement_hand_value():
    # v = 2 - [1,1] [[2,1],[1,2]]^-1 [1,1]' = 2 - 2/3
    npt.assert_allclose(correct_error_variance(SIGMA, 2, 3), 4.0 / 3.0, rtol=1e-14)


def test_misspecified_variance_hand_value():
    # misspecified weights [1/4,1/4]; v~ = 4/3 + (w~-w)' S (w~-w) = 11/8
    _, v_miss, _, _ = kriging._one_target(SIGMA, SIGMA_T, 2, 3)
    npt.assert_allclose(v_miss[0], 11.0 / 8.0, rtol=1e-14)


def test_covariance_factor_is_exactly_lower_triangular():
    # R = L~^-1 L reads L whole, so nothing may stand above its diagonal
    S = _spd(np.random.default_rng(3), 6)
    L = kriging._chol(S, "true")
    assert not np.triu(L, 1).any()
    npt.assert_allclose(L @ L.T, S, rtol=1e-12)


def test_efficiency_hand_value():
    # (11/8 - 4/3) / (4/3) = 1/32
    npt.assert_allclose(efficiency(SIGMA, SIGMA_T, 2, 3), 1.0 / 32.0, rtol=1e-12)


def test_identical_models_have_zero_loss():
    assert efficiency(SIGMA, SIGMA, 2, 3) == 0.0


def test_degenerate_target_raises():
    # target identical to an observation: zero true error variance
    S = SIGMA.copy()
    S[2] = S[0]
    S[:, 2] = S[:, 0]
    S[2, 2] = S[0, 0]
    with pytest.raises(DegenerateTargetError):
        efficiency(S, SIGMA_T, 2, 3)


def test_grossly_negative_loss_raises():
    # below the -1e-6 integrity threshold: the misspecified predictor
    # cannot beat the optimal one
    with pytest.raises(NumericalIntegrityError):
        kriging._efficiencies(np.array([1.0]), np.array([-1.5e-6]), np.array([1.0]))


def test_condition_estimate_is_the_scaled_blocks_1_norm_condition():
    # dpocon's estimate never exceeds the 1-norm condition number of the
    # scaled leading block S_n and, for this Sigma, equals it up to
    # roundoff at n = 2..6 (at n = 7..9 it is 0.68-0.72 of it)
    rng = np.random.default_rng(0)
    S, St = _spd(rng, 10), _spd(rng, 10)
    runs = kriging._leading_variances(S, St, range(2, 10), lambda n: [9])
    for n, _, _, _, _, cond in runs:
        d = np.sqrt(np.diag(S)[:n])
        exact = np.linalg.cond(S[:n, :n] / np.outer(d, d), 1)
        assert cond <= exact * (1.0 + 1e-12)
        if n <= 6:
            assert cond == pytest.approx(exact, rel=1e-12)


def test_more_observations_never_hurt():
    rng = np.random.default_rng(5)
    for _ in range(20):
        S = _spd(rng, 8)
        vs = [correct_error_variance(S, n, 8) for n in range(1, 8)]
        assert all(vs[i + 1] <= vs[i] + 1e-10 for i in range(len(vs) - 1))


# ------------------------------------------------- property suites


@given(
    n=st.integers(min_value=2, max_value=29),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=200)
def test_property_efficiency_nonnegative(n, seed):
    rng = np.random.default_rng(seed)
    S = _spd(rng, n + 1)
    St = _spd(rng, n + 1)
    e = efficiency(S, St, n, n + 1)
    assert e >= 0.0


@given(
    n=st.integers(min_value=2, max_value=29),
    seed=st.integers(min_value=0, max_value=10_000),
    c=st.floats(min_value=1e-4, max_value=1e4),
)
@settings(max_examples=200)
def test_property_efficiency_scale_invariant(n, seed, c):
    rng = np.random.default_rng(seed)
    S = _spd(rng, n + 1)
    St = _spd(rng, n + 1)
    e1 = efficiency(S, St, n, n + 1)
    e2 = efficiency(S, c * St, n, n + 1)
    assert abs(e1 - e2) <= 1e-10 * max(1.0, e1)


@given(
    n=st.integers(min_value=2, max_value=29),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=200)
def test_property_self_efficiency_zero(n, seed):
    rng = np.random.default_rng(seed)
    S = _spd(rng, n + 1)
    assert efficiency(S, S, n, n + 1) <= 1e-10


@given(
    n=st.integers(min_value=3, max_value=29),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=200)
def test_property_schur_monotone_in_observations(n, seed):
    rng = np.random.default_rng(seed)
    S = _spd(rng, n + 1)
    prev = np.inf
    for k in range(1, n):
        v = correct_error_variance(S, k, n + 1)
        assert v <= prev + 1e-10
        prev = v


# ------------------------------------------------------ observation design


def test_point_locations_alternate_around_center():
    design = ObservationDesign(kind="point", n_max=5, s0=0.5, delta_o=0.01)
    locs = point_locations(design)
    # odd entries sit below the center, even ones above, spacing growing
    npt.assert_allclose(locs, [0.49, 0.51, 0.48, 0.52, 0.47], rtol=1e-12)


def _point_locations_loop(design, n):
    """The scalar loop point_locations replaced, kept as its oracle."""
    out = np.empty(n)
    for i in range(1, n + 1):
        j = (i + 1) // 2
        out[i - 1] = design.s0 + j * design.delta_o if i % 2 == 0 else design.s0 - j * design.delta_o
    return out


@pytest.mark.parametrize(
    "s0, delta_o, n_max",
    [(0.5, 0.01, 98), (0.3, 0.007, 81), (0.5, 1.0 / 3.0, 1), (0.71, 0.0123, 2), (0.5, 0.1, 8)],
)
def test_point_locations_match_scalar_loop_bit_for_bit(s0, delta_o, n_max):
    for n in sorted({1, (n_max + 1) // 2, n_max}):
        design = ObservationDesign(kind="point", n_max=n, s0=s0, delta_o=delta_o)
        assert np.array_equal(point_locations(design), _point_locations_loop(design, n))


def test_point_design_must_stay_inside_domain():
    from wmlab.errors import DomainError

    ObservationDesign(kind="point", n_max=98, s0=0.5, delta_o=0.01)  # j=49 ok
    with pytest.raises(DomainError):
        # j = 50 puts a point on the boundary
        ObservationDesign(kind="point", n_max=100, s0=0.5, delta_o=0.01)


def test_point_design_extent_check_matches_its_points():
    # the design is checked by arithmetic on its two outermost points; the
    # oracle checks every point, as the check did before
    from wmlab.errors import DomainError

    rng = np.random.default_rng(3)
    outcomes = set()
    for _ in range(400):
        n = int(rng.integers(1, 60))
        s0 = float(rng.choice([0.5, 0.25, 0.9, rng.uniform(0.01, 0.99)]))
        delta_o = float(rng.choice([0.01, 0.02, 1 / 3, rng.uniform(1e-3, 0.1)]))
        i = np.arange(1, n + 1)
        step = ((i + 1) // 2) * delta_o
        locs = np.where(i % 2 == 0, s0 + step, s0 - step)
        inside = not (np.any(locs <= 0.0) or np.any(locs >= 1.0))
        try:
            ObservationDesign(kind="point", n_max=n, s0=s0, delta_o=delta_o)
            accepted = True
        except DomainError:
            accepted = False
        assert accepted == inside, (n, s0, delta_o)
        outcomes.add(accepted)
    assert outcomes == {True, False}


# ------------------------------------------------------------ curves


def _integral_stage(model, N, n_values):
    return true_stage(model, N, ObservationDesign("integral", N), n_values)


def test_identical_models_give_flat_zero_curve():
    base = builtin_model("base41", 1)
    curve = efficiency_curve_integral(_integral_stage(base, 120, (10, 20, 40)), base)
    assert curve.design == "integral"
    assert curve.n_values == (10, 20, 40)
    assert all(e == 0.0 for e in curve.e_max)
    assert all(n < t <= 120 for n, t in zip(curve.n_values, curve.target))


def test_integral_curve_orders_n_values():
    stage = _integral_stage(builtin_model("base41", 1), 120, (40, 10, 20))
    curve = efficiency_curve_integral(stage, builtin_model("model1_41", 1))
    assert curve.n_values == (10, 20, 40)
    assert all(e >= 0.0 for e in curve.e_max)


def test_integral_curve_input_validation():
    base = builtin_model("base41", 1)
    with pytest.raises(ParameterError, match="exceeds N/2=50"):
        _integral_stage(base, 100, (10, 60))
    with pytest.raises(ParameterError, match="distinct"):
        _integral_stage(base, 100, (10, 10))
    with pytest.raises(ParameterError, match="all N=100 sine functions"):
        true_stage(base, 100, ObservationDesign("integral", 99), (10,))
    stage = _integral_stage(base, 100, (10,))
    with pytest.raises(ParameterError, match="common exponent"):
        efficiency_curve_integral(stage, builtin_model("base42", 2))
    with pytest.raises(ParameterError, match="point curves need a stage of the same design"):
        efficiency_curve_point(stage, base)
    point = true_stage(base, 100, ObservationDesign("point", 10, delta_o=0.02), (10,))
    with pytest.raises(ParameterError, match="integral curves need a stage of the same design"):
        efficiency_curve_integral(point, base)
    for n_max in (10, 100):
        with pytest.raises(ParameterError, match="n_max < N, got n_max"):
            true_stage(base, 100, ObservationDesign("point", n_max, delta_o=0.004), (20,))


@pytest.mark.parametrize("curve_fn", [efficiency_curve_integral, efficiency_curve_point])
def test_curves_reject_empty_n_values(curve_fn):
    # the stage that a curve of either design reads refuses them
    kind = "point" if curve_fn is efficiency_curve_point else "integral"
    with pytest.raises(ParameterError, match="one or more"):
        true_stage(builtin_model("base41", 1), 100, ObservationDesign(kind, 100, delta_o=0.001), [])


def test_point_curve_basic_shape():
    design = ObservationDesign("point", 20, s0=0.5, delta_o=0.01)
    stage = true_stage(builtin_model("base41", 1), 150, design, (10, 20))
    curve = efficiency_curve_point(stage, builtin_model("model2_41", 1))
    assert curve.design == "point"
    assert len(curve.e_max) == 2
    assert all(e >= 0.0 for e in curve.e_max)
    assert all(v > 0.0 for v in curve.true_var)


def test_per_target_data_is_kept_on_request():
    stage = _integral_stage(builtin_model("base41", 1), 120, (10,))
    curve = efficiency_curve_integral(stage, builtin_model("model1_41", 1), keep_per_target=True)
    ls, eff, tv, mv = curve.per_target[10]
    assert ls[0] == 11 and ls[-1] == 120  # 1-based sine indices beyond n
    assert np.nanmax(eff) == curve.e_max[0]


@pytest.mark.parametrize(
    "kind, N, n_values, design",
    [
        ("integral", 60, (5, 10), ObservationDesign(kind="integral", n_max=60)),
        ("point", 150, (10, 20), ObservationDesign(kind="point", n_max=20)),
    ],
)
def test_true_model_stage_is_built_once(monkeypatch, kind, N, n_values, design):
    # two curves against one stage observe the true model once; the
    # stage's arrays are shared, so read-only
    obs = f"{kind}_obs_matrix"
    real = getattr(kriging, obs)
    calls = []
    monkeypatch.setattr(kriging, obs, lambda *args: calls.append(args) or real(*args))
    base = builtin_model("base41", 1)
    curve_fn = efficiency_curve_point if kind == "point" else efficiency_curve_integral
    missp = [builtin_model(f"model{k}_41", 1, 10.0 * k) for k in (1, 2)]
    stage = true_stage(base, N, design, n_values)
    curves = [curve_fn(stage, model) for model in missp]
    assert len(calls) == 1
    assert not stage.Phi.flags.writeable and not stage.Sigma.flags.writeable
    assert curve_fn(true_stage(base, N, design, n_values), missp[1]) == curves[1]
    assert len(calls) == 2


# --------------------------------------------------------- CSV rows


def test_curve_rows_sorted_and_formatted(tmp_path):
    stage = _integral_stage(builtin_model("base41", 1), 120, (20, 10))
    curve = efficiency_curve_integral(stage, builtin_model("model1_41", 1))
    rows = curve_rows("fig1_integral", "model1", 1.0, 10.0, curve)
    assert [r["n"] for r in rows] == [10, 20]
    assert all(r["design"] == "integral" for r in rows)
    path = tmp_path / "curves.csv"
    write_curves_csv(str(path), rows)
    lines = path.read_text().splitlines()
    assert (
        lines[0]
        == "experiment,model,beta,delta,design,n,target,true_var,missp_var,efficiency,e_max"
    )
    assert len(lines) == 3
    # float fields round-trip exactly through repr
    first = lines[1].split(",")
    assert float(first[7]) == curve.true_var[0]
    assert float(first[10]) == curve.e_max[0]
