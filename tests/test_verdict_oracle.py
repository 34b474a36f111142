"""The verdict engine against the rules it replaced.

``oracle_verdict`` is ``table1_verdict`` as it stood when it stated the
boundary condition once per property: the Cameron-Martin, equivalence
and optimality blocks each gated and evaluated the slope and trace
conditions on their own. It keeps its own copies of the two boundary
helpers, which the engine has since changed. Over a grid of 222,750
inputs the engine must return an equal ``Verdict`` (same booleans, same
notes in the same order) or raise the same exception type with the same
message.
"""

import itertools
import math

import pytest

from wmlab.diagnostics import (
    Verdict,
    VerdictInput,
    _check_admissible_exponent,
    _regime,
    table1_verdict,
)
from wmlab.errors import DataError, ParameterError


# ------------------------------------------------------------ oracle


def _boundary_slope_zero(vin, c):
    """Do the endpoint slopes of kappa2_alt - c*kappa2_base vanish?"""
    if vin.kappa2_boundary_base is None or vin.kappa2_boundary_alt is None:
        raise DataError(
            "reaction boundary data (value and slope at both endpoints) are "
            "required in this exponent regime"
        )
    _, _, p0, p1 = vin.kappa2_boundary_base
    _, _, q0, q1 = vin.kappa2_boundary_alt
    ok0 = abs(q0 - c * p0) <= 1e-9 * max(abs(q0), abs(c * p0), 1.0)
    ok1 = abs(q1 - c * p1) <= 1e-9 * max(abs(q1), abs(c * p1), 1.0)
    return ok0 and ok1


def _higher_traces_zero(vin):
    """Do the higher-order boundary traces vanish? Required above 13/4."""
    if vin.higher_traces_zero is None:
        raise DataError(
            "higher-order boundary trace information required for "
            "exponents above 13/4"
        )
    return bool(vin.higher_traces_zero)


def oracle_verdict(vin):
    _check_admissible_exponent(vin.beta, "beta")
    _check_admissible_exponent(vin.beta_alt, "beta_alt")
    if vin.beta <= vin.d / 4.0 or vin.beta_alt <= vin.d / 4.0:
        raise ParameterError(
            f"exponents must exceed d/4 = {vin.d / 4.0} for function-valued fields"
        )
    notes = []

    if abs(vin.beta - vin.beta_alt) > 1e-12:
        notes.append("exponents differ: no isomorphism, equivalence or optimality")
        return Verdict(False, False, False, tuple(notes))

    regime = _regime(vin.beta)

    # mean difference gate (measures + optimality only)
    if vin.mean_diff_in_cm is None:
        mean_ok = True
        notes.append(
            "mean difference not supplied; assumed to lie in the common "
            "Cameron-Martin space"
        )
    else:
        mean_ok = bool(vin.mean_diff_in_cm)
        if not mean_ok:
            notes.append("mean difference falls outside the common Cameron-Martin space")

    # ---- Cameron-Martin isomorphism ----
    if regime == 0:
        cm = True
    elif vin.a_relation == "different":
        cm = False
        notes.append(
            "diffusions differ non-proportionally: boundary compatibility "
            "cannot be certified from the available data; reporting "
            "non-isomorphic conservatively"
        )
    else:
        # proportional diffusions make the first-order diffusion condition
        # vacuous; from the third regime on the reaction difference
        # kappa2_alt - c*kappa2_base must have flat endpoint slopes.
        cm = True
        if regime >= 2:
            cm = _boundary_slope_zero(vin, vin.a_ratio)
            if not cm:
                notes.append(
                    "endpoint slope of the reaction difference does not vanish"
                )
        if cm and regime >= 3:
            cm = _higher_traces_zero(vin)
            if not cm:
                notes.append("higher-order boundary traces do not vanish")

    # ---- measure equivalence ----
    if vin.a_relation != "equal":
        measures = False
        notes.append("measure equivalence needs identical diffusions")
    elif not mean_ok:
        measures = False
    else:
        measures = True
        if regime >= 2:
            measures = _boundary_slope_zero(vin, 1.0)
        if measures and regime >= 3:
            measures = _higher_traces_zero(vin)
        if measures and vin.d >= 4:
            if vin.kappa2_equal is None:
                raise DataError(
                    "in dimension >= 4 measure equivalence additionally needs "
                    "to know whether the reaction coefficients are identical"
                )
            measures = bool(vin.kappa2_equal)
            if not measures:
                notes.append(
                    "in dimension >= 4 equivalence needs identical reactions"
                )

    # ---- asymptotic optimality ----
    if vin.a_relation == "different":
        optimal = False
        notes.append("optimality needs proportional diffusions")
    elif not mean_ok:
        optimal = False
    else:
        optimal = True
        if regime >= 2:
            optimal = _boundary_slope_zero(vin, vin.a_ratio)
        if optimal and regime >= 3:
            optimal = _higher_traces_zero(vin)

    return Verdict(
        cm_isomorphic=bool(cm),
        measures_equivalent=bool(measures),
        asympt_optimal=bool(optimal),
        notes=tuple(notes),
    )


# -------------------------------------------------------------- grid

DIMENSIONS = (1, 2, 3, 4, 5, 8)

# one matched pair per regime and then some, one differing pair, one pair
# from the exceptional set {k + 1/4}, and a pair that differs by less
# than the 1e-12 matching tolerance
EXPONENT_PAIRS = tuple((b, b) for b in (0.6, 1.0, 1.5, 2.0, 2.6, 3.0, 3.5, 4.0)) + (
    (1.5, 2.6),
    (2.25, 2.25),
    (1.3, 1.3 + 1e-13),
)

DIFFUSIONS = (
    ("equal", 1.0),
    ("proportional", 2.0),
    ("proportional", 1.0),
    ("different", 1.0),
    ("different", 2.0),
)

# (value at 0, value at 1, slope at 0, slope at 1). Flat slopes pass at
# every c; SLOPED against itself, and NEAR (within the 1e-9 tolerance)
# against SLOPED, pass at c = 1; DOUBLED against SLOPED passes at c = 2.
FLAT = (100.0, 100.0, 0.0, 0.0)
SLOPED = (100.0, 50.0, 3.0, -1.5)
DOUBLED = (200.0, 100.0, 6.0, -3.0)
NEAR = (120.0, 80.0, 3.0 * (1.0 + 1e-10), -1.5)
BOUNDARIES = (None, FLAT, SLOPED, DOUBLED, NEAR)

TRISTATE = (None, True, False)


def _outcome(rule, vin):
    """The verdict's repr (field types included), or the exception's
    type and message."""
    try:
        return repr(rule(vin))
    except (DataError, ParameterError) as exc:
        return type(exc).__name__, str(exc)


def _grid(d):
    for (beta, beta_alt), (rel, ratio), kb, ka, mean, k2eq, traces in itertools.product(
        EXPONENT_PAIRS, DIFFUSIONS, BOUNDARIES, BOUNDARIES, TRISTATE, TRISTATE, TRISTATE
    ):
        yield VerdictInput(
            d=d,
            beta=beta,
            beta_alt=beta_alt,
            a_relation=rel,
            a_ratio=ratio,
            kappa2_boundary_base=kb,
            kappa2_boundary_alt=ka,
            mean_diff_in_cm=mean,
            kappa2_equal=k2eq,
            higher_traces_zero=traces,
        )


def test_grid_size():
    per_d = math.prod(
        len(axis)
        for axis in (EXPONENT_PAIRS, DIFFUSIONS, BOUNDARIES, BOUNDARIES)
    ) * len(TRISTATE) ** 3
    assert per_d * len(DIMENSIONS) == 222_750


@pytest.mark.parametrize("d", DIMENSIONS)
def test_engine_matches_oracle_on_grid(d):
    mismatches = []
    kinds = set()
    for vin in _grid(d):
        want = _outcome(oracle_verdict, vin)
        got = _outcome(table1_verdict, vin)
        kinds.add(want[0] if isinstance(want, tuple) else "Verdict")
        if got != want:
            mismatches.append((vin, want, got))
    assert not mismatches, f"{len(mismatches)} mismatches, first: {mismatches[0]}"
    # the grid reaches verdicts and both kinds of refusal in every dimension
    assert kinds == {"Verdict", "DataError", "ParameterError"}
