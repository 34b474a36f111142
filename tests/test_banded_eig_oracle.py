"""The banded eigensolver against the dense one it replaces.

The oracle is ``generalized_eig`` as the package computed it before
tridiagonal pencils were solved in band storage: both bands expanded and
passed to the dense symmetric-definite ``scipy.linalg.eigh``. Above the
sizes where that is cheap, the constant-coefficient pencil's exact
discrete eigenpairs are the oracle. The error paths of both solvers and
the LAPACK capsule binding are checked here too.
"""

import dataclasses
import json
import os
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

import wmlab.cli
from wmlab import diagnostics, spectral
from wmlab.errors import AssemblyIntegrityError, NumericalIntegrityError
from wmlab.fem1d import DIRICHLET, assemble_a2, assemble_aL, band_matmul, build_basis, dense
from wmlab.model_config import CoefficientField, builtin_model
from wmlab.spectral import SpectralDecomposition, generalized_eig


def dense_eig(ops):
    """All eigenpairs of the pencil from the dense symmetric-definite eigh."""
    lam, vec = scipy.linalg.eigh(dense(ops.K_band), dense(ops.M_band))
    return SpectralDecomposition(eigenvalues=lam, eigenvectors=vec)


def _pencil(name, N):
    basis = build_basis(N, 1, DIRICHLET)
    if name == "constant":
        return assemble_aL(basis, CoefficientField("constant", (1.0,)),
                           CoefficientField("constant", (25.0,)))
    model = builtin_model(name, 1.0)
    return assemble_aL(basis, model.a, model.kappa2)


# at N = 600 one shift of the constant pencil, the 488th, makes K - sigma M
# exactly singular in dgttrf's elimination (a zero last pivot of U), which
# gave NaN vectors before such a pivot was perturbed
@pytest.mark.parametrize("N", [300, 600, 1200])
@pytest.mark.parametrize("name", ["base41", "model1_41", "model2_41", "constant"])
def test_banded_eigenpairs_match_dense_oracle(name, N):
    ops = _pencil(name, N)
    assert ops.bandwidth == 1
    dec = generalized_eig(ops)
    ref = dense_eig(ops)
    np.testing.assert_allclose(dec.eigenvalues, ref.eigenvalues, rtol=1e-10, atol=0.0)
    V, W = dec.eigenvectors, ref.eigenvectors
    sign = np.where(np.sum(V * W, axis=0) < 0.0, -1.0, 1.0)
    assert np.max(np.abs(V * sign - W)) <= 1e-8
    gram = V.T @ band_matmul(ops.M_band, V)
    assert np.max(np.abs(gram - np.eye(N))) <= 1e-12


def _diagnose(tmp_path, label, base, alt):
    out = str(tmp_path / label)
    payload = {
        "base_model": {"name": base, "beta": 1},
        "alt_model": {"name": alt, "beta": 1},
        "N": 600,
        "truncations": [75, 150, 300, 600],
        "cm_beta": 1.0,
        "out": out,
    }
    config = tmp_path / f"{label}.json"
    config.write_text(json.dumps(payload))
    assert wmlab.cli.main(["diagnose", "--config", str(config)]) == 0
    with open(os.path.join(out, "diagnose.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("alt", ["model1_41", "model2_41"])
def test_diagnose_matches_dense_oracle(tmp_path, monkeypatch, alt):
    banded = _diagnose(tmp_path, "banded", "base41", alt)
    monkeypatch.setattr(wmlab.cli, "generalized_eig", dense_eig)
    oracle = _diagnose(tmp_path, "dense", "base41", alt)
    assert banded["classification"] == oracle["classification"]
    assert banded.keys() == oracle.keys()
    for key in ("frobenius", "opnorm", "smax", "tail_ratio"):
        np.testing.assert_allclose(banded[key], oracle[key], rtol=1e-10, atol=0.0)
    # neither solver resolves a small singular value better than roundoff
    # of the largest one
    np.testing.assert_allclose(
        banded["smin"], oracle["smin"], rtol=0.0, atol=1e-11 * max(oracle["opnorm"])
    )
    for t, constants in oracle["cm_constants_by_truncation"].items():
        np.testing.assert_allclose(
            banded["cm_constants_by_truncation"][t], constants, rtol=1e-10, atol=0.0
        )


# ------------------------------------------------------- error paths


def _wide_pencil(N):
    """A bandwidth-2 pencil (quadratic splines), which takes the dense path."""
    ops = assemble_a2(build_basis(N, 2, DIRICHLET), CoefficientField("constant", (25.0,)))
    assert ops.bandwidth == 2
    return ops


@pytest.mark.parametrize("make", [lambda: _pencil("constant", 40), lambda: _wide_pencil(40)],
                         ids=["banded", "dense"])
def test_indefinite_mass_band_raises(make):
    # a pencil holds a factored mass, so the indefinite one comes in a
    # stand-in that carries only the bands
    ops = make()
    M_band = ops.M_band.copy()
    M_band[0, 7] = -1.0
    bands = SimpleNamespace(K_band=ops.K_band, M_band=M_band, bandwidth=ops.bandwidth)
    with pytest.raises(AssemblyIntegrityError, match="generalized eigensolve failed"):
        generalized_eig(bands)


@pytest.mark.parametrize("make", [lambda: _pencil("constant", 40), lambda: _wide_pencil(40)],
                         ids=["banded", "dense"])
def test_nonpositive_eigenvalue_raises(make):
    ops = make()
    K_band = ops.K_band.copy()
    K_band[0, 7] = -1.0
    with pytest.raises(AssemblyIntegrityError, match="nonpositive eigenvalue"):
        generalized_eig(dataclasses.replace(ops, K_band=K_band))


def _count_dense_calls(monkeypatch):
    calls = []
    monkeypatch.setattr(spectral, "dense", lambda band: calls.append(band) or dense(band))
    return calls


@pytest.mark.parametrize("order,N", [(1, 2001), (2, 40), (3, 40)])
def test_only_wider_pencils_take_dense_path(monkeypatch, order, N):
    # no size cut-off: a tridiagonal pencil of any order N stays banded,
    # including above the 2000 where it once went dense
    one = CoefficientField("constant", (1.0,))
    ops = assemble_aL(build_basis(N, order, DIRICHLET), one, one)
    assert ops.bandwidth == order
    calls = _count_dense_calls(monkeypatch)
    generalized_eig(ops)
    assert len(calls) == (0 if order == 1 else 2)


@pytest.mark.parametrize("bad", [lambda n: np.linspace(1.0, 2.0, n), lambda n: np.full(n, np.nan)],
                         ids=["collapsed", "nan"])
def test_corrupted_eigenvectors_raise(monkeypatch, bad):
    # from the 10th solve on, every shift returns the same vector, so the
    # columns from the 5th on collapse onto one direction or are NaN
    real = scipy.linalg.lapack.dgttrs
    calls = []

    def stuck(*args, **kwargs):
        calls.append(None)
        if len(calls) < 10:
            return real(*args, **kwargs)
        return bad(args[1].size), 0

    monkeypatch.setattr(scipy.linalg.lapack, "dgttrs", stuck)
    with pytest.raises(NumericalIntegrityError, match="lost M-orthonormality"):
        generalized_eig(_pencil("constant", 40))


def test_banded_eigenpairs_match_exact_pencil_above_old_cutoff():
    # a = 1, kappa^2 = 25 on hat functions of width h = 1/(N+1): the
    # pencil's eigenvectors are sin(k pi i h), i = 1..N, with eigenvalues
    # (6/h^2)(1 - cos k pi h)/(2 + cos k pi h) + 25. The dense eigh
    # matches these to 2.2e-13 (eigenvalues) and 5.3e-13 (vectors) at
    # N = 50. At N = 2500 its vectors differ from them by the same 4.8e-9
    # as the banded ones, at the top of the spectrum, so that difference
    # is the assembled pencil's, not the solver's: its entries differ from
    # the exact ones by up to 4.4e-13 relative, and the top relative gaps
    # are near 1e-6
    N = 2500
    ops = _pencil("constant", N)
    dec = generalized_eig(ops)
    h = 1.0 / (N + 1)
    theta = np.arange(1, N + 1) * np.pi * h
    lam = 6.0 / h**2 * (1.0 - np.cos(theta)) / (2.0 + np.cos(theta)) + 25.0
    np.testing.assert_allclose(dec.eigenvalues, lam, rtol=1e-10, atol=0.0)
    # M-normalized: v' M v = c^2 (2 + cos theta) / 6 for v = c sin(k pi i h)
    exact = np.sin(np.outer(np.arange(1, N + 1), theta)) * np.sqrt(6.0 / (2.0 + np.cos(theta)))
    V = dec.eigenvectors
    sign = np.where(np.einsum("ij,ij->j", V, exact) < 0.0, -1.0, 1.0)
    assert np.max(np.abs(V * sign - exact)) <= 1e-8
    gram = scipy.linalg.blas.dgemm(1.0, V, band_matmul(ops.M_band, V), trans_a=1)
    gram[np.diag_indices(N)] -= 1.0
    assert np.max(np.abs(gram)) <= 1e-12


@pytest.mark.parametrize("order", [1, 2, 3])
def test_fractional_beta_pencil_has_the_basis_order_bandwidth(monkeypatch, order):
    # non-integer beta assembles a_L on the model's own basis, so only
    # basis_order 1 gives a tridiagonal pencil, solved banded; half-integer
    # beta factors that pencil directly, any other beta diagonalizes it
    from wmlab.kriging import _model_basis, _model_operators
    from wmlab.model_config import ModelSpec

    one = CoefficientField("constant", (1.0,))
    for beta, route in ((1.5, 1.5), (1.3, None)):
        model = ModelSpec(beta=beta, a=one, kappa2=one, tau=1.0, basis_order=order)
        ops, direct = _model_operators(model, _model_basis(model, 40))
        assert direct == route and ops.form_order == "a_L"
        assert ops.bandwidth == order
    calls = _count_dense_calls(monkeypatch)
    generalized_eig(ops)
    assert len(calls) == (0 if order == 1 else 2)


def test_dsbgvd_binding_resolves_against_installed_scipy():
    routine = spectral._lapack_routine("dsbgvd", spectral._DSBGVD_SIGNATURE)
    assert callable(routine)


def test_dsbgvd_binding_refuses_a_wrong_signature():
    wrong = spectral._DSBGVD_SIGNATURE.replace("char *, char *", "char *", 1)
    with pytest.raises(RuntimeError, match="expected"):
        spectral._lapack_routine("dsbgvd", wrong)


def test_dsyevr_binding_resolves_against_installed_scipy():
    routine = spectral._lapack_routine("dsyevr", diagnostics._DSYEVR_SIGNATURE)
    assert callable(routine)


def test_dsyevr_binding_refuses_a_wrong_signature():
    wrong = diagnostics._DSYEVR_SIGNATURE.replace("char *, char *, char *", "char *, char *", 1)
    with pytest.raises(RuntimeError, match="expected"):
        spectral._lapack_routine("dsyevr", wrong)
