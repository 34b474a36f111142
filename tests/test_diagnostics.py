"""Operator-pair diagnostics and the structural verdict rules."""

import math
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

import wmlab.diagnostics
from wmlab.diagnostics import (
    OperatorPair,
    VerdictInput,
    cm_equivalence_constants,
    cross_gram,
    hs_curve,
    mean_difference_check,
    t_operator,
    table1_verdict,
    verdict_input_from_models,
)
from wmlab.errors import (
    DataError,
    NumericalIntegrityError,
    ParameterError,
)
from wmlab.fem1d import DIRICHLET, assemble_aL, build_basis
from wmlab.model_config import builtin_model
from wmlab.spectral import generalized_eig


def _diag_pair(lam, lam_alt, W=None):
    lam = np.asarray(lam, dtype=np.float64)
    lam_alt = np.asarray(lam_alt, dtype=np.float64)
    W = np.eye(lam.shape[0]) if W is None else W
    return OperatorPair(
        base=SimpleNamespace(eigenvalues=lam),
        alt=SimpleNamespace(eigenvalues=lam_alt),
        W=W,
    )


def _fem_pair(model_base, model_alt, N=120):
    basis = build_basis(N, 1, DIRICHLET)
    ops_b = assemble_aL(basis, model_base.a, model_base.kappa2)
    ops_a = assemble_aL(basis, model_alt.a, model_alt.kappa2)
    return cross_gram(generalized_eig(ops_b), generalized_eig(ops_a), ops_b.M_band)


# ---------------------------------------------------------- t_operator


def test_identical_pencils_give_zero_defect():
    lam = np.linspace(1.0, 50.0, 50)
    pair = _diag_pair(lam, lam)
    T = t_operator(pair, gamma=1.0, c=1.0)
    assert np.max(np.abs(T)) <= 1e-8


@pytest.mark.parametrize("gamma", [0.25, 0.5, 1.0, 1.7])
def test_proportional_pencils_give_zero_defect(gamma):
    rng = np.random.default_rng(0)
    lam = np.sort(rng.uniform(1.0, 100.0, size=50))
    c = 4.0
    pair = _diag_pair(lam, c * lam)
    T = t_operator(pair, gamma=gamma, c=c)
    assert np.max(np.abs(T)) <= 1e-8


def test_quadruple_pencil_with_half_power():
    lam = np.linspace(2.0, 40.0, 30)
    pair = _diag_pair(lam, 4.0 * lam)
    T = t_operator(pair, gamma=0.5, c=4.0)
    # Lam^(-1/2) (4 Lam) Lam^(-1/2) = 4 I = c^(2 gamma) I
    assert np.max(np.abs(T)) <= 1e-12


def test_diagonal_pencil_arithmetic_oracle():
    pair = _diag_pair([1.0, 2.0, 3.0], [1.1, 2.1, 3.1])
    T = t_operator(pair, gamma=1.0, c=1.0)
    expected = np.diag([0.21, 0.1025, 61.0 / 900.0])
    npt.assert_allclose(T, expected, atol=1e-12)


def test_t_operator_rejects_nonpositive_c():
    pair = _diag_pair([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ParameterError):
        t_operator(pair, gamma=1.0, c=0.0)


# ------------------------------------------------------------ hs_curve


def test_hs_stable_branch_for_square_summable_diagonal():
    j = np.arange(1, 801, dtype=np.float64)
    lam = j**2
    # gamma=1/2, W=I: T_jj = lam_alt/lam - 1 = j^(-2), square-summable
    pair = _diag_pair(lam, lam * (1.0 + j**-2))
    rep = hs_curve(pair, gamma=0.5, c=1.0, truncations=(50, 100, 400, 800))
    assert rep.classification == "HS_stable"
    assert rep.frobenius[-1] == pytest.approx(rep.frobenius[-2], rel=0.01)


def test_non_compact_branch_for_flat_diagonal():
    j = np.arange(1, 801, dtype=np.float64)
    lam = j**2
    pair = _diag_pair(lam, 2.0 * lam)
    rep = hs_curve(pair, gamma=0.5, c=1.0, truncations=(50, 100, 400, 800))
    # T = I: Frobenius grows like sqrt(t), singular values never decay
    assert rep.classification == "non_compact"
    assert all(r >= 0.99 for r in rep.tail_ratio)


def test_compact_like_branch_for_slowly_decaying_diagonal():
    j = np.arange(1, 801, dtype=np.float64)
    lam = j**2
    # T_jj = j^(-1/2): not square-summable (Frobenius keeps growing),
    # but the singular values do decay, so neither other branch fits
    pair = _diag_pair(lam, lam * (1.0 + j**-0.5))
    rep = hs_curve(pair, gamma=0.5, c=1.0, truncations=(50, 100, 400, 800))
    assert rep.classification == "compact_like"


def _svd_hs_oracle(T, truncations):
    """(frobenius, opnorm, smin, smax, tail_ratio) rows from full SVDs."""
    rows = []
    for t in truncations:
        sv = scipy.linalg.svdvals(T[:t, :t])
        k = min(int(math.ceil(0.9 * t)) - 1, t - 1)
        rows.append((np.sqrt(np.sum(sv * sv)), sv[0], sv[-1], sv[0], sv[k] / sv[0]))
    return np.array(rows)


@pytest.mark.parametrize("alt", ["base41", "model1_41", "model2_41"])
@pytest.mark.parametrize("gamma, c", [(0.25, 1.3), (0.5, 1.0), (1.0, 1.0)])
def test_hs_curve_matches_svd_oracle(alt, gamma, c):
    pair = _fem_pair(builtin_model("base41", 1), builtin_model(alt, 1))
    truncs = (10, 30, 60, 120)
    rep = hs_curve(pair, gamma, c, truncs)
    oracle = _svd_hs_oracle(t_operator(pair, gamma, c), truncs)
    got = np.array([rep.frobenius, rep.opnorm, rep.smin, rep.smax, rep.tail_ratio]).T
    for col in (0, 1, 3, 4):
        npt.assert_allclose(got[:, col], oracle[:, col], rtol=1e-12, atol=0.0)
    # the smallest singular value is accurate only to roundoff relative
    # to the largest, for the SVD as for the eigensolve
    npt.assert_allclose(got[:, 2], oracle[:, 2], rtol=0.0, atol=1e-12 * np.max(oracle[:, 1]))
    fro, tail = oracle[:, 0], oracle[:, 4]
    saturated = fro[-1] < 1e-12 or abs(fro[-1] - fro[-2]) < 0.01 * fro[-1]
    tail_flat = all(r >= 0.10 for r in tail)
    expected = "HS_stable" if saturated else "non_compact" if tail_flat else "compact_like"
    assert rep.classification == expected


@pytest.mark.parametrize("gamma, c", [(0.5, 1.0), (1.0, 1.3)])
def test_hs_curve_forms_only_the_leading_block(monkeypatch, gamma, c):
    pair = _fem_pair(builtin_model("base41", 1), builtin_model("model2_41", 1))
    truncs = (15, 30)
    full = t_operator(pair, gamma, c)
    lead = full[: truncs[-1], : truncs[-1]]
    npt.assert_allclose(t_operator(pair, gamma, c, truncs[-1]), lead,
                        rtol=0.0, atol=1e-12 * np.max(np.abs(lead)))
    sizes = []
    real = wmlab.diagnostics._gram
    monkeypatch.setattr(wmlab.diagnostics, "_gram",
                        lambda p, b, t: sizes.append(t) or real(p, b, t))
    rep = hs_curve(pair, gamma, c, truncs)
    assert sizes == [truncs[-1]]
    for i, t in enumerate(truncs):
        ev = scipy.linalg.eigvalsh(full[:t, :t])
        npt.assert_allclose(pair._defect_spectra[float(gamma), t][0], ev,
                            rtol=0.0, atol=1e-12 * np.max(np.abs(ev)))
        sv = np.sort(np.abs(ev))
        npt.assert_allclose([rep.frobenius[i], rep.opnorm[i]],
                            [np.sqrt(np.sum(sv * sv)), sv[-1]], rtol=1e-12, atol=0.0)


def test_t_operator_rejects_a_truncation_outside_the_pencil():
    pair = _diag_pair([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    for t in (0, 4):
        with pytest.raises(ParameterError, match="truncation"):
            t_operator(pair, 1.0, 1.0, t)


def test_hs_curve_validates_truncations():
    pair = _diag_pair([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(ParameterError):
        hs_curve(pair, 1.0, 1.0, truncations=(3,))
    with pytest.raises(ParameterError, match="strictly increasing"):
        hs_curve(pair, 1.0, 1.0, truncations=(3, 2))
    with pytest.raises(ParameterError):
        hs_curve(pair, 1.0, 1.0, truncations=(2, 5))
    with pytest.raises(ParameterError, match="at least 2, got \\(1, 3\\)"):
        hs_curve(pair, 1.0, 1.0, truncations=(1, 3))


def test_report_round_trips_to_csv_and_json(tmp_path):
    pair = _diag_pair(np.arange(1.0, 21.0) ** 2, np.arange(1.0, 21.0) ** 2 * 2.0)
    rep = hs_curve(pair, gamma=0.5, c=1.0, truncations=(5, 10, 20))
    csv_path = tmp_path / "r.csv"
    rep.write_csv(str(csv_path))
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "truncation,frobenius,opnorm,smin,smax"
    assert len(lines) == 4
    d = rep.to_dict()
    assert d["classification"] == rep.classification
    assert d["truncations"] == [5, 10, 20]


# ---------------------------------------------- cm equivalence constants


def test_cm_constants_identical_pencils_are_unity():
    lam = np.linspace(1.0, 30.0, 25)
    lo, hi = cm_equivalence_constants(_diag_pair(lam, lam), beta=1.0)
    npt.assert_allclose([lo, hi], [1.0, 1.0], rtol=1e-12)


def test_cm_constants_proportional_pencils():
    lam = np.linspace(1.0, 30.0, 25)
    lo, hi = cm_equivalence_constants(_diag_pair(lam, 2.0 * lam), beta=1.0)
    npt.assert_allclose([lo, hi], [4.0, 4.0], rtol=1e-12)


def test_cm_constants_are_nonnegative_even_at_extreme_dynamic_range():
    j = np.arange(1.0, 201.0)
    lam = j**2 * np.pi**2 + 1100.0
    lam_alt = lam * (1.0 + 0.3 * np.sin(j))
    lo, hi = cm_equivalence_constants(_diag_pair(lam, lam_alt), beta=3.0)
    assert 0.0 <= lo <= hi


def _svd_cm_oracle(pair, beta, t):
    """(lo, hi) as squared extreme singular values of B[:t, :]."""
    lam, lam_t = pair.base.eigenvalues, pair.alt.eigenvalues
    B = lam[:, None] ** (-beta) * (pair.W * lam_t**beta)
    sv = scipy.linalg.svdvals(B[:t, :])
    return sv[-1] ** 2, sv[0] ** 2


@pytest.fixture(scope="module", params=["model1_41", "model2_41"])
def fem_pair_200(request):
    return _fem_pair(builtin_model("base41", 1), builtin_model(request.param, 1), N=200)


@pytest.mark.parametrize("beta", [0.5, 1.0, 1.5, 3.0])
@pytest.mark.parametrize("t", [50, 200])
def test_cm_constants_match_svd_oracle(fem_pair_200, beta, t):
    lo, hi = cm_equivalence_constants(fem_pair_200, beta, truncation=t)
    lo_ref, hi_ref = _svd_cm_oracle(fem_pair_200, beta, t)
    assert 0.0 <= lo <= hi
    assert hi == pytest.approx(hi_ref, rel=1e-12, abs=0.0)
    # the eigensolve of the Gram matrix resolves lo to roundoff relative to hi
    assert abs(lo - lo_ref) <= 1e-12 * hi_ref


def _fresh(pair):
    """The same decompositions and W in a pair with no stored spectra."""
    return OperatorPair(base=pair.base, alt=pair.alt, W=pair.W)


def _forbid_gram(*args):
    raise AssertionError("constants were not read off the stored defect spectrum")


@pytest.mark.parametrize("gamma, c", [(0.5, 1.0), (1.0, 1.0), (1.5, 1.3)])
def test_cm_constants_read_after_hs_curve_match_svd_oracle(fem_pair_200, monkeypatch, gamma, c):
    pair = _fresh(fem_pair_200)
    truncs = (50, 100, 200)
    hs_curve(pair, gamma, c, truncs)
    monkeypatch.setattr(wmlab.diagnostics, "_gram", _forbid_gram)
    for t in truncs:
        lo, hi = cm_equivalence_constants(pair, gamma, truncation=t)
        lo_ref, hi_ref = _svd_cm_oracle(pair, gamma, t)
        assert 0.0 <= lo <= hi
        assert hi == pytest.approx(hi_ref, rel=1e-12, abs=0.0)
        assert abs(lo - lo_ref) <= 1e-12 * hi_ref


def test_stored_spectrum_keeps_beta_validation(fem_pair_200):
    # hs_curve accepts gamma = 1/4, the constants do not
    pair = _fresh(fem_pair_200)
    hs_curve(pair, 0.25, 1.3, (50, 100))
    with pytest.raises(ParameterError):
        cm_equivalence_constants(pair, 0.25, truncation=50)


def test_cm_constants_recomputed_when_shift_exceeds_upper_constant(fem_pair_200):
    # s = c^2 = 1e4 lies far above hi, so T's spectrum is all negative
    pair = _fresh(fem_pair_200)
    truncs = (50, 100, 200)
    hs_curve(pair, 1.0, 100.0, truncs)
    for t in truncs:
        got = cm_equivalence_constants(pair, 1.0, truncation=t)
        assert got == cm_equivalence_constants(_fresh(fem_pair_200), 1.0, truncation=t)


def test_hs_curve_unchanged_by_prior_cm_constants(fem_pair_200):
    truncs = (50, 100, 200)
    pair = _fresh(fem_pair_200)
    for t in truncs:
        cm_equivalence_constants(pair, 1.0, truncation=t)
    assert hs_curve(pair, 1.0, 1.0, truncs) == hs_curve(_fresh(fem_pair_200), 1.0, 1.0, truncs)


def test_cm_constants_validation():
    lam = np.linspace(1.0, 5.0, 5)
    pair = _diag_pair(lam, lam)
    with pytest.raises(ParameterError):
        cm_equivalence_constants(pair, beta=0.25)
    with pytest.raises(ParameterError):
        cm_equivalence_constants(pair, beta=1.0, truncation=1)
    with pytest.raises(ParameterError):
        cm_equivalence_constants(pair, beta=1.0, truncation=6)


def test_cm_constants_stable_across_faithful_truncations():
    base = builtin_model("base42", 1)
    alt = builtin_model("model1_42", 1)
    pair = _fem_pair(base, alt, N=200)
    vals = [cm_equivalence_constants(pair, 1.0, truncation=t) for t in (50, 100)]
    (lo1, hi1), (lo2, hi2) = vals
    assert abs(lo2 - lo1) < 0.01 * lo1
    assert abs(hi2 - hi1) < 0.01 * hi1


# ------------------------------------------------------------ cross_gram


def test_cross_gram_is_orthogonal_for_real_pencils():
    pair = _fem_pair(builtin_model("base42", 1), builtin_model("model2_42", 1))
    gram = pair.W.T @ pair.W
    npt.assert_allclose(gram, np.eye(gram.shape[0]), atol=1e-8)


def test_cross_gram_rejects_mismatched_bases():
    basis = build_basis(60, 1, DIRICHLET)
    model = builtin_model("base42", 1)
    ops = assemble_aL(basis, model.a, model.kappa2)
    dec = generalized_eig(ops)
    corrupted = SimpleNamespace(
        eigenvalues=dec.eigenvalues, eigenvectors=2.0 * dec.eigenvectors
    )
    with pytest.raises(NumericalIntegrityError):
        cross_gram(dec, corrupted, ops.M_band)


def test_cross_gram_rejects_an_off_diagonal_defect():
    # two equal columns keep every diagonal entry of W'W at 1; only the
    # entry between them, in either triangle, shows the defect
    basis = build_basis(60, 1, DIRICHLET)
    model = builtin_model("base42", 1)
    ops = assemble_aL(basis, model.a, model.kappa2)
    dec = generalized_eig(ops)
    vec = dec.eigenvectors.copy()
    vec[:, 1] = vec[:, 0]
    corrupted = SimpleNamespace(eigenvalues=dec.eigenvalues, eigenvectors=vec)
    with pytest.raises(NumericalIntegrityError, match="not orthogonal"):
        cross_gram(dec, corrupted, ops.M_band)


# ------------------------------------------------------- mean difference


def test_mean_difference_trends():
    lam = np.arange(1.0, 41.0) ** 2
    dec = SimpleNamespace(eigenvalues=lam, eigenvectors=np.eye(40))
    one_mode = np.zeros(40)
    one_mode[0] = 1.0
    assert mean_difference_check(one_mode, dec, beta=1.0).trend == "converging"
    flat = np.ones(40)  # coefficients flat, terms grow like j^4
    assert mean_difference_check(flat, dec, beta=1.0).trend == "diverging"
    assert mean_difference_check(np.zeros(40), dec, beta=1.0).trend == "zero"


def test_mean_difference_validation():
    dec = SimpleNamespace(eigenvalues=np.array([1.0, 2.0]), eigenvectors=np.eye(2))
    with pytest.raises(ParameterError):
        mean_difference_check(np.ones(3), dec, beta=1.0)
    with pytest.raises(ParameterError):
        mean_difference_check(np.ones(2), dec, beta=0.1)


# ------------------------------------------------------- verdict engine


def _vin(**kw):
    defaults = dict(d=1, beta=1.0, beta_alt=1.0, a_relation="equal")
    defaults.update(kw)
    return VerdictInput(**defaults)


def test_low_regime_is_permissive():
    v = table1_verdict(_vin())
    assert (v.cm_isomorphic, v.measures_equivalent, v.asympt_optimal) == (
        True,
        True,
        True,
    )


def test_nonproportional_diffusion_blocks_equivalence_and_optimality():
    v = table1_verdict(_vin(a_relation="different"))
    # low regime: spaces still isomorphic, but measures/optimality fail
    assert v.cm_isomorphic is True
    assert v.measures_equivalent is False
    assert v.asympt_optimal is False


def test_differing_exponents_fail_everything():
    v = table1_verdict(_vin(beta=1.0, beta_alt=2.0))
    assert (v.cm_isomorphic, v.measures_equivalent, v.asympt_optimal) == (
        False,
        False,
        False,
    )


def test_slope_condition_gates_third_regime():
    flat = (100.0, 100.0, 0.0, 0.0)
    sloped = (100.0, 50.0, 25.0, -75.0)
    ok = table1_verdict(
        _vin(beta=3.0, beta_alt=3.0, kappa2_boundary_base=flat, kappa2_boundary_alt=flat)
    )
    assert ok.asympt_optimal is True and ok.cm_isomorphic is True
    bad = table1_verdict(
        _vin(
            beta=3.0,
            beta_alt=3.0,
            kappa2_boundary_base=flat,
            kappa2_boundary_alt=sloped,
        )
    )
    assert bad.cm_isomorphic is False
    assert bad.measures_equivalent is False
    assert bad.asympt_optimal is False


def test_slope_condition_uses_diffusion_ratio():
    # slopes (2, 4) vs base (1, 2) vanish after dividing by a_ratio = 2
    base = (10.0, 10.0, 1.0, 2.0)
    alt = (20.0, 20.0, 2.0, 4.0)
    v = table1_verdict(
        _vin(
            beta=3.0,
            beta_alt=3.0,
            a_relation="proportional",
            a_ratio=2.0,
            kappa2_boundary_base=base,
            kappa2_boundary_alt=alt,
        )
    )
    assert v.cm_isomorphic is True
    assert v.asympt_optimal is True
    # but plain equivalence compares with c = 1 and needs equal diffusions
    assert v.measures_equivalent is False


def test_missing_boundary_data_raises_in_high_regime():
    with pytest.raises(DataError):
        table1_verdict(_vin(beta=3.0, beta_alt=3.0))


def test_highest_regime_needs_trace_information():
    flat = (100.0, 100.0, 0.0, 0.0)
    with pytest.raises(DataError):
        table1_verdict(
            _vin(
                beta=3.5,
                beta_alt=3.5,
                kappa2_boundary_base=flat,
                kappa2_boundary_alt=flat,
            )
        )
    v = table1_verdict(
        _vin(
            beta=3.5,
            beta_alt=3.5,
            kappa2_boundary_base=flat,
            kappa2_boundary_alt=flat,
            higher_traces_zero=True,
        )
    )
    assert v.asympt_optimal is True


def test_mean_difference_outside_cm_blocks_measures_and_optimality():
    v = table1_verdict(_vin(mean_diff_in_cm=False))
    assert v.cm_isomorphic is True
    assert v.measures_equivalent is False
    assert v.asympt_optimal is False


def test_dimension_four_needs_equal_reactions():
    with pytest.raises(DataError):
        table1_verdict(_vin(d=4, beta=1.5, beta_alt=1.5))
    v_no = table1_verdict(_vin(d=4, beta=1.5, beta_alt=1.5, kappa2_equal=False))
    assert v_no.measures_equivalent is False
    v_yes = table1_verdict(_vin(d=4, beta=1.5, beta_alt=1.5, kappa2_equal=True))
    assert v_yes.measures_equivalent is True


def test_exception_set_exponents_rejected():
    with pytest.raises(ParameterError):
        table1_verdict(_vin(beta=2.25, beta_alt=2.25))
    with pytest.raises(ParameterError):
        table1_verdict(_vin(d=4, beta=1.0, beta_alt=1.0))  # beta <= d/4


def test_verdict_input_validation():
    with pytest.raises(ParameterError):
        _vin(a_relation="weird")
    with pytest.raises(ParameterError):
        _vin(a_relation="equal", a_ratio=2.0)
    with pytest.raises(ParameterError):
        _vin(d=0)


# ----------------------------------------- verdict input from models


def test_extracted_structure_for_benchmark_pair():
    base = builtin_model("base42", 3)
    alt = builtin_model("model1_42", 3)
    vin = verdict_input_from_models(base, alt)
    assert vin.a_relation == "equal"
    assert vin.kappa2_equal is False
    npt.assert_allclose(vin.kappa2_boundary_base, (1100.0, 1100.0, 0.0, 0.0), atol=1e-9)
    v0, v1, s0, s1 = vin.kappa2_boundary_alt
    npt.assert_allclose([v0, v1], [1100.0, 550.0], rtol=1e-12)
    npt.assert_allclose([s0, s1], [0.0, 0.0], atol=1e-9)


def test_extracted_structure_detects_unequal_diffusions():
    base = builtin_model("base41", 1)
    alt = builtin_model("model2_41", 1)
    vin = verdict_input_from_models(base, alt)
    assert vin.a_relation == "different"


def test_verdicts_for_all_benchmark_pairs():
    # (family, model index, beta) -> expected asymptotic-optimality bit
    expected = {
        ("41", 1, 1): True,
        ("41", 2, 1): False,
        ("42", 1, 1): True,
        ("42", 2, 1): True,
        ("42", 1, 2): True,
        ("42", 2, 2): True,
        ("42", 1, 3): True,
        ("42", 2, 3): False,
    }
    for (family, k, beta), want in expected.items():
        base = builtin_model(f"base{family}", beta)
        alt = builtin_model(f"model{k}_{family}", beta)
        v = table1_verdict(verdict_input_from_models(base, alt))
        assert v.asympt_optimal is want, (family, k, beta)
