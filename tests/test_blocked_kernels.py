"""Column-blocked Rayleigh quotients and orthonormality checks.

``generalized_eig`` and ``cross_gram`` form their per-column numbers and
their identity defects over blocks of ``spectral._BLOCK`` columns, and
``diagnose`` forms its Gram blocks from V by such blocks. The
oracle is the full-array code they replace: one band product over all
columns for each of K V and M V, and the upper triangle of one N x N
Gram matrix for each check. The blocked results must equal it bit for
bit (eigenpairs) or to roundoff (defects), every block must be checked,
and the working memory must stay bounded.
"""

import json
import tracemalloc
import types

import numpy as np
import pytest
import scipy.linalg

import wmlab.cli
from wmlab import diagnostics, spectral
from wmlab.diagnostics import cross_gram, operator_pair
from wmlab.errors import NumericalIntegrityError
from wmlab.fem1d import DIRICHLET, assemble_a2, assemble_aL, band_matmul, build_basis
from wmlab.model_config import CoefficientField, builtin_model
from wmlab.spectral import _identity_defect, generalized_eig


def _pencil(N, name="model1_41"):
    model = builtin_model(name, 1)
    return assemble_aL(build_basis(N, 1, DIRICHLET), model.a, model.kappa2)


def _wide_pencil(N):
    """A bandwidth-2 pencil (quadratic splines), which takes the dense path."""
    return assemble_a2(build_basis(N, 2, DIRICHLET), CoefficientField("constant", (25.0,)))


def full_tridiagonal_eig(ops):
    """The tridiagonal branch with full-array Rayleigh quotients: (lam, V, M V)."""
    lam = spectral._dsbgvd_eigenvalues(ops.K_band, ops.M_band)
    vec = spectral._tridiagonal_eigenvectors(ops.K_band, ops.M_band, lam)
    numerators = np.einsum("ij,ij->j", vec, band_matmul(ops.K_band, vec))
    MV = band_matmul(ops.M_band, vec)
    norms = np.einsum("ij,ij->j", vec, MV)
    lam = numerators / norms
    scale = 1.0 / np.sqrt(norms)
    vec *= scale
    MV *= scale
    return lam, vec, MV


def full_defect(gram):
    """max |gram - I| over the upper triangle of the whole array."""
    return float(np.max(np.abs(np.triu(gram - np.eye(gram.shape[0])))))


def full_upper_defect(W):
    """max |W'W - I| over the upper triangle, from one dsyrk."""
    return full_defect(scipy.linalg.blas.dsyrk(1.0, W, trans=1))


def _m_columns(ops, vec):
    return lambda a, b: band_matmul(ops.M_band, vec[:, a:b])


# ------------------------------------------------------------ oracle


@pytest.mark.parametrize("N", [100, 700], ids=["below_one_block", "partial_last_block"])
def test_blocked_eigenpairs_equal_full_array_oracle(N):
    assert N < spectral._BLOCK or N % spectral._BLOCK
    ops = _pencil(N)
    lam, vec, MV = full_tridiagonal_eig(ops)
    dec = generalized_eig(ops)
    assert np.array_equal(dec.eigenvalues, lam)
    assert np.array_equal(dec.eigenvectors, vec)
    blocked = _identity_defect(dec.eigenvectors, _m_columns(ops, dec.eigenvectors))
    full = full_defect(scipy.linalg.blas.dgemm(1.0, vec, MV, trans_a=1))
    assert abs(blocked - full) <= 1e-14


@pytest.mark.parametrize("N", [100, 700], ids=["below_one_block", "partial_last_block"])
def test_blocked_defects_equal_full_defects_far_from_identity(N):
    # entries of X'Y of order one, so roundoff is relative to one
    rng = np.random.default_rng(N)
    X = np.asfortranarray(rng.standard_normal((N, N)) / np.sqrt(N))
    Y = np.asfortranarray(rng.standard_normal((N, N)) / np.sqrt(N))
    full = full_defect(scipy.linalg.blas.dgemm(1.0, X, Y, trans_a=1))
    assert _identity_defect(X, lambda a, b: Y[:, a:b]) == pytest.approx(full, rel=1e-13)
    upper = _identity_defect(X, lambda a, b: X[:, a:b])
    assert upper == pytest.approx(full_upper_defect(X), rel=1e-13)


def test_upper_defect_reads_only_the_upper_triangle():
    N = 300
    eye = np.eye(N, order="F")
    for i, j in [(5, 3), (200, 10)]:
        Y = eye.copy(order="F")
        Y[i, j] = 5.0
        assert _identity_defect(eye, lambda a, b: Y[:, a:b]) == 0.0
        Y = eye.copy(order="F")
        Y[j, i] = 5.0
        assert _identity_defect(eye, lambda a, b: Y[:, a:b]) == 5.0


# ------------------------------------------------------ planted defects

N_PLANT = 300  # blocks [0, 128), [128, 256) and the partial [256, 300)


def _collapse_last(vec):
    vec[:, -1] = vec[:, -2]


def _nan_last(vec):
    vec[:, -1] = np.nan


def _across_blocks(vec):
    vec[:, 200] = vec[:, 10]


PLANTS = pytest.mark.parametrize(
    "plant", [_collapse_last, _nan_last, _across_blocks],
    ids=["collapsed_in_last_block", "nan_in_last_block", "pair_across_blocks"],
)


def test_plants_are_where_they_are_said_to_be():
    blocks = spectral._column_blocks(N_PLANT)
    assert len(blocks) == 3 and blocks[-1][1] - blocks[-1][0] < spectral._BLOCK
    assert blocks[-1][0] <= N_PLANT - 2
    assert [a <= 10 < b for a, b in blocks] != [a <= 200 < b for a, b in blocks]


@PLANTS
def test_generalized_eig_catches_a_planted_defect_banded(monkeypatch, plant):
    real = spectral._tridiagonal_eigenvectors

    def corrupted(*args):
        vec = real(*args)
        plant(vec)
        return vec

    monkeypatch.setattr(spectral, "_tridiagonal_eigenvectors", corrupted)
    with pytest.raises(NumericalIntegrityError, match="lost M-orthonormality"):
        generalized_eig(_pencil(N_PLANT))


@PLANTS
def test_generalized_eig_catches_a_planted_defect_dense(monkeypatch, plant):
    real = scipy.linalg.eigh

    def corrupted(*args, **kwargs):
        lam, vec = real(*args, **kwargs)
        plant(vec)
        return lam, vec

    ops = _wide_pencil(N_PLANT)
    assert ops.bandwidth == 2
    monkeypatch.setattr(scipy.linalg, "eigh", corrupted)
    with pytest.raises(NumericalIntegrityError, match="lost M-orthonormality"):
        generalized_eig(ops)


@PLANTS
def test_cross_gram_catches_a_planted_defect(plant):
    ops = _pencil(N_PLANT, "base41")
    dec = generalized_eig(ops)
    vec = dec.eigenvectors.copy(order="F")
    plant(vec)
    corrupted = types.SimpleNamespace(eigenvalues=dec.eigenvalues, eigenvectors=vec)
    with pytest.raises(NumericalIntegrityError, match="not orthogonal"):
        cross_gram(dec, corrupted, ops.M_band)


# -------------------------------------------------------- in-place Gram

N_GRAM = 300  # blocks [0, 128), [128, 256) and the partial [256, 300)


@pytest.fixture(scope="module")
def gram_pairs():
    """base41 against model2_41 as the pencil pair (V and the alt bands)
    and as the W pair of the alt eigensolve."""
    base, alt = _pencil(N_GRAM, "base41"), _pencil(N_GRAM, "model2_41")
    dec = generalized_eig(base)
    return operator_pair(dec, alt), cross_gram(dec, generalized_eig(alt), base.M_band)


@pytest.mark.parametrize("t", [200, N_GRAM])
@pytest.mark.parametrize("route, b", [("pencil", 0.5), ("pencil", 1.0), ("pencil", 1.5), ("W", 0.25)])
def test_gram_in_place_matches_one_dsyrk(gram_pairs, route, b, t):
    # the oracle is the Gram block as one dsyrk of the factor formed beside it
    pencil_pair, w_pair = gram_pairs
    if route == "pencil":
        pair = pencil_pair
        reference = scipy.linalg.blas.dsyrk(
            1.0, diagnostics._pencil_factor(pair, int(2 * b), t), trans=1
        )
    else:
        pair = w_pair
        B = np.multiply(pair.lam[:t, None] ** (-b), pair.W[:t] * pair.lam_alt**b, order="F")
        reference = scipy.linalg.blas.dsyrk(1.0, B)
    before = [None if x is None else x.copy() for x in (pair.V, pair.W)]
    G = diagnostics._gram(pair, b, t)
    assert G.shape == (t, t)
    upper = np.triu_indices(t)
    assert np.max(np.abs(G[upper] - reference[upper])) <= 1e-14 * np.max(np.abs(reference))
    assert not np.any(np.tril(G, -1))
    for kept, now in zip(before, (pair.V, pair.W)):
        assert (kept is None and now is None) or np.array_equal(kept, now)


# --------------------------------------------------------------- memory

N_MEM = 600
NXN = 8 * N_MEM * N_MEM  # bytes of one N x N array


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_generalized_eig_holds_at_most_half_an_array_beyond_its_result():
    ops = _pencil(N_MEM)
    peak = _traced_peak(lambda: generalized_eig(ops))
    # V plus two N x _BLOCK temporaries: 1.48 arrays at N = 4 _BLOCK + 88
    assert peak < 1.5 * NXN


def test_cross_gram_holds_only_m_v_and_w():
    ops = _pencil(N_MEM)
    alt = _pencil(N_MEM, "model2_41")
    dec_base, dec_alt = generalized_eig(ops), generalized_eig(alt)
    peak = _traced_peak(lambda: cross_gram(dec_base, dec_alt, ops.M_band))
    # M V released before the check: 2.04 arrays; kept through it, 2.23
    assert peak < 2.1 * NXN


def test_diagnose_holds_two_arrays_at_integer_exponents(tmp_path):
    # at gamma = cm_beta = 1 the Gram blocks come from V and the alt bands,
    # and the block is formed over Y in place: V, Y and a block of columns,
    # 2.51 N x N measured; 3.10 with the block beside Y, 4.08 with the
    # alt eigenvectors, M V~ and W of the cross Gram route
    config = tmp_path / "diagnose.json"
    config.write_text(json.dumps({
        "base_model": {"name": "base41", "beta": 1},
        "alt_model": {"name": "model1_41", "beta": 1},
        "N": N_MEM,
        "truncations": [75, 150, 300, 600],
        "cm_beta": 1.0,
        "out": str(tmp_path / "out"),
    }))
    args = ["diagnose", "--config", str(config)]
    assert wmlab.cli.main(args) == 0  # first-use allocations out of the count
    peak = _traced_peak(lambda: wmlab.cli.main(args))
    assert peak < 2.75 * NXN


def test_fractional_sample_holds_no_array_beside_its_eigenvectors(tmp_path):
    # beta = 1.3 takes the spectral route; F is formed over the sample's
    # own eigenvectors, so the peak is the eigensolve's: 1.50 N x N
    # measured, 2.05 with F formed beside V
    config = tmp_path / "sample.json"
    config.write_text(json.dumps({
        "model": {
            "beta": 1.3,
            "a": {"kind": "constant", "params": [1.0]},
            "kappa2": {"kind": "constant", "params": [25.0]},
            "tau": 1.0,
        },
        "N": N_MEM,
        "n_samples": 10,
        "format": "bin",
        "out": str(tmp_path / "out"),
    }))
    args = ["sample", "--config", str(config)]
    assert wmlab.cli.main(args) == 0  # first-use allocations out of the count
    peak = _traced_peak(lambda: wmlab.cli.main(args))
    assert peak < 1.6 * NXN
