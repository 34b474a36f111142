"""The unit-lower LDL' band factor against the kernels it replaced.

``fem1d._BandLDL`` is the one factorization of a banded SPD matrix. Its
oracles are the kernels the package used before it: LAPACK dpbtrs
(``cho_solve_banded``) on the Cholesky factor L for A^-1 X, the non-unit
dtbtrs on L for L^-1 X and L^-T X, and the out-of-place band products of
L below for L X and L' X. The bands are assembled ones of bandwidth 1 to
3: mass matrices and the a_L, a2 and a3 forms.
"""

import dataclasses

import numpy as np
import pytest
import scipy.linalg

from wmlab import spectral
from wmlab.errors import ConditioningError
from wmlab.fem1d import (
    DIRICHLET,
    DIRICHLET_LAPLACE,
    _BandLDL,
    assemble_a2,
    assemble_a3,
    assemble_aL,
    build_basis,
)
from wmlab.model_config import builtin_model

N = 200


def triangular_band_matmul(band, X, transpose):
    """L X, or L' X with ``transpose``, for lower triangular L held as a
    lower band (``band[k, j] = L[j + k, j]``), into a new array."""
    n = band.shape[1]
    col = (slice(None),) + (None,) * (X.ndim - 1)
    out = band[0][col] * X
    for k in range(1, band.shape[0]):
        d = band[k, : n - k][col]
        if transpose:
            out[:-k] += d * X[k:]
        else:
            out[k:] += d * X[:-k]
    return out


def triangular_band_solve(band, X, trans):
    """L^-1 X (``trans`` "N") or L^-T X ("T") by the non-unit dtbtrs."""
    out, info = scipy.linalg.lapack.dtbtrs(band, X, uplo="L", trans=trans)
    assert info == 0
    return out


def _operators(p):
    kappa2 = builtin_model("base42", 2).kappa2
    if p == 1:
        model = builtin_model("base41", 1)
        return assemble_aL(build_basis(N, 1, DIRICHLET), model.a, model.kappa2)
    if p == 2:
        return assemble_a2(build_basis(N, 2, DIRICHLET), kappa2)
    return assemble_a3(build_basis(N, 3, DIRICHLET_LAPLACE), kappa2)


@pytest.fixture(scope="module", params=[1, 2, 3], ids=["p1", "p2", "p3"])
def bands(request):
    ops = _operators(request.param)
    assert ops.bandwidth == request.param
    return [ops.K_band, ops.M_band]


def _read_only_inputs(n):
    rng = np.random.default_rng(7)
    # a vector, a Fortran-ordered block (as Phi' is) and a C-ordered one
    inputs = [rng.standard_normal(n), np.asfortranarray(rng.standard_normal((n, 5)))]
    inputs.append(rng.standard_normal((n, 5)))
    for X in inputs:
        X.setflags(write=False)
    return inputs


def _close(got, ref, tol):
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= tol * np.max(np.abs(ref))


@pytest.mark.parametrize(
    "apply, oracle",
    [
        (lambda f, X: f.solve(X), lambda L, X: scipy.linalg.cho_solve_banded((L, True), X)),
        (lambda f, X: f.half_solve(X), lambda L, X: triangular_band_solve(L, X, "N")),
        (lambda f, X: f.half_solve(X, trans=True), lambda L, X: triangular_band_solve(L, X, "T")),
    ],
    ids=["solve", "half_solve", "half_solve_t"],
)
def test_solves_match_the_cholesky_kernels(bands, apply, oracle):
    for band in bands:
        factor = _BandLDL(band, "test matrix")
        L = scipy.linalg.cholesky_banded(band, lower=True)
        for X in _read_only_inputs(band.shape[1]):
            kept = X.copy()
            got = apply(factor, np.array(X, order="F"))
            # both are backward stable; they differ by roundoff amplified
            # by the condition of the solve, at most 3.9e-14 relative here
            _close(got, oracle(L, X), 1e-12)
            assert np.array_equal(X, kept)


@pytest.mark.parametrize("trans", [False, True], ids=["L", "Lt"])
def test_band_products_match_the_out_of_place_product(bands, trans):
    for band in bands:
        factor = _BandLDL(band, "test matrix")
        for X in _read_only_inputs(band.shape[1]):
            ref = triangular_band_matmul(factor.L, X, transpose=trans)
            W = np.array(X, order="F")
            got = factor.half_matmul(W, trans=trans)
            assert got is W  # in place
            if band.shape[0] == 2:
                # one off-diagonal term: the same sums in the same order
                assert np.array_equal(got, ref)
            else:
                # BLAS dtbmv's dot products may sum in another order: 2.1e-16 here
                _close(got, ref, 1e-15)


def test_factor_reproduces_its_matrix(bands):
    # U is unit lower triangular and U D U' = A to roundoff
    for band in bands:
        factor = _BandLDL(band, "test matrix")
        n = band.shape[1]
        assert np.array_equal(factor.U[0], np.ones(n))
        A = np.zeros((n, n))
        for k in range(band.shape[0]):
            i = np.arange(n - k)
            A[i + k, i] = A[i, i + k] = band[k, : n - k]
        U = np.zeros((n, n))
        for k in range(band.shape[0]):
            i = np.arange(n - k)
            U[i + k, i] = factor.U[k, : n - k]
        _close((U / factor.inv_d) @ U.T, A, 1e-15)  # 4.2e-16 here


@pytest.mark.parametrize("beta", [1.0, 1.5, 2.0, 2.5], ids=["s2", "s3", "s4", "s5"])
def test_direct_factor_never_writes_its_input(beta):
    # dtbtrs writes over any array it is handed, read-only ones included
    model = builtin_model("base41", 1)
    ops = assemble_aL(build_basis(N, 1, DIRICHLET), model.a, model.kappa2)
    factor = spectral.direct_factor(ops, beta, model.tau)
    for X in _read_only_inputs(N):
        kept = X.copy()
        for apply in (factor.dot, factor.tdot):
            out = apply(X)
            assert out.shape == X.shape and np.all(np.isfinite(out))
            assert np.array_equal(X, kept)


def test_pencils_on_one_basis_share_one_mass_factor():
    basis = build_basis(N, 1, DIRICHLET)
    first, second = (
        assemble_aL(basis, builtin_model(name, 1).a, builtin_model(name, 1).kappa2)
        for name in ("base41", "model2_41")
    )
    assert first.M_factor is second.M_factor
    assert first.M_factor.band is first.M_band is second.M_band
    # a pencil built with another mass factor holds that factor's band
    factor = _BandLDL(2.0 * first.M_band, "mass matrix")
    other = dataclasses.replace(first, M_factor=factor)
    assert other.M_factor is factor and other.M_band is factor.band


@pytest.mark.parametrize("which", ["K_band", "M_band"])
def test_direct_factor_refuses_a_matrix_that_is_not_positive_definite(which):
    model = builtin_model("base41", 1)
    ops = assemble_aL(build_basis(30, 1, DIRICHLET), model.a, model.kappa2)
    band = getattr(ops, which).copy()
    band[0, 5] = -1.0
    if which == "M_band":
        # a pencil holds a factored mass, so the mass factor refuses it
        with pytest.raises(ConditioningError, match="^mass matrix is not positive definite"):
            _BandLDL(band, "mass matrix")
        return
    ops = dataclasses.replace(ops, K_band=band)
    for beta in (1.0, 1.5):
        with pytest.raises(ConditioningError, match="^form matrix a_L is not positive definite"):
            spectral.direct_factor(ops, beta, model.tau)
