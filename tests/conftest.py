"""Shared fixtures.

The efficiency-curve experiments dominate the suite's runtime, so each
(experiment, model, parameter) family is computed once per session and
shared between the feature tests and the acceptance checks. Like the
figure commands, each fixture builds one true-model stage per true model
and hands it to that model's curves. Wall-clock time is recorded
alongside the curves because the acceptance gate also bounds runtime.
"""

import time

import pytest
from hypothesis import HealthCheck, settings

from wmlab.kriging import (
    ObservationDesign,
    efficiency_curve_integral,
    efficiency_curve_point,
    true_stage,
)
from wmlab.model_config import builtin_model

settings.register_profile(
    "suite",
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

FIG1_DELTAS = (1.0, 10.0, 100.0)
FIG1_N_GRID = (10, 20, 50, 100, 200, 300, 400, 500)
POINT_N_GRID = tuple(range(10, 100, 10))
FIG2_BETAS = (1, 2, 3)
INTEGRAL_1000 = ObservationDesign("integral", 1000)


@pytest.fixture(scope="session")
def fig1_integral_data():
    """{(model_index, delta): EfficiencyCurve} at N=1000, plus runtime."""
    t0 = time.perf_counter()
    stage = true_stage(builtin_model("base41", 1), 1000, INTEGRAL_1000, FIG1_N_GRID)
    curves = {
        (k, delta): efficiency_curve_integral(stage, builtin_model(f"model{k}_41", 1, delta))
        for delta in FIG1_DELTAS
        for k in (1, 2)
    }
    return {"curves": curves, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="session")
def fig1_point_data():
    """{(model_index, delta): EfficiencyCurve} for the point design."""
    t0 = time.perf_counter()
    design = ObservationDesign("point", max(POINT_N_GRID), s0=0.5, delta_o=0.01)
    stage = true_stage(builtin_model("base41", 1), 1000, design, POINT_N_GRID)
    curves = {
        (k, delta): efficiency_curve_point(stage, builtin_model(f"model{k}_41", 1, delta))
        for delta in FIG1_DELTAS
        for k in (1, 2)
    }
    return {"curves": curves, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="session")
def fig2_data():
    """{(model_index, beta): EfficiencyCurve} at N=1000, plus runtime."""
    curves = {}
    t0 = time.perf_counter()
    for beta in FIG2_BETAS:
        stage = true_stage(builtin_model("base42", beta), 1000, INTEGRAL_1000, FIG1_N_GRID)
        for k in (1, 2):
            missp = builtin_model(f"model{k}_42", beta)
            curves[(k, beta)] = efficiency_curve_integral(stage, missp)
    return {"curves": curves, "elapsed": time.perf_counter() - t0}
