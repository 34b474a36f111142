"""Spline basis construction and Galerkin assembly."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wmlab import fem1d
from wmlab.errors import (
    CoefficientError,
    ConstraintError,
    DomainError,
    ParameterError,
    UnsupportedFormError,
)
from wmlab.fem1d import (
    DIRICHLET,
    DIRICHLET_LAPLACE,
    assemble_a2,
    assemble_a3,
    assemble_aL,
    band_matmul,
    build_basis,
    dense,
    eval_matrix,
    integral_obs_matrix,
    mass_matrix,
    point_obs_matrix,
)
from wmlab.model_config import CoefficientField

ONE = CoefficientField("constant", (1.0,))
ZERO = CoefficientField("constant", (0.0,))


# ------------------------------------------------------------- basis


@pytest.mark.parametrize("order", [1, 2, 3])
def test_constrained_dimension_is_exact(order):
    basis = build_basis(37, order, DIRICHLET)
    assert basis.n_dof == 37
    assert eval_matrix(basis, [0.3]).shape == (1, 37)


def test_laplace_zero_mode_dimension():
    basis = build_basis(25, 3, DIRICHLET_LAPLACE)
    assert basis.n_dof == 25
    assert eval_matrix(basis, [0.3]).shape == (1, 25)


def test_laplace_zero_requires_cubics():
    with pytest.raises(ConstraintError):
        build_basis(20, 2, DIRICHLET_LAPLACE)


def test_build_basis_rejects_bad_arguments():
    with pytest.raises(ParameterError):
        build_basis(5, 1)
    with pytest.raises(ParameterError):
        build_basis(20, 4)
    with pytest.raises(ConstraintError):
        build_basis(20, 1, "periodic")


@pytest.mark.parametrize("order", [1, 2, 3])
def test_basis_vanishes_at_endpoints(order):
    basis = build_basis(30, order, DIRICHLET)
    vals = eval_matrix(basis, [0.0, 1.0])
    npt.assert_allclose(vals, 0.0, atol=1e-13)


def test_laplace_zero_second_derivative_vanishes():
    basis = build_basis(30, 3, DIRICHLET_LAPLACE)
    d2 = eval_matrix(basis, [0.0, 1.0], derivative=2)
    # the raw second derivatives at the ends are O(1/h^2) ~ 1e3; the
    # recombination cancels them to roundoff at that scale
    npt.assert_allclose(d2, 0.0, atol=1e-8)
    d1 = eval_matrix(basis, [0.0, 1.0], derivative=1)
    assert np.max(np.abs(d1)) > 1.0  # first derivative stays unconstrained


@pytest.mark.parametrize("order", [1, 2, 3])
def test_interior_partition_of_unity_with_edge_splines_removed(order):
    basis = build_basis(40, order, DIRICHLET)
    h = basis.cell_width
    # away from the supports of the two dropped edge splines the
    # constrained functions still sum to one
    xs = np.linspace(order * h, 1.0 - order * h, 23)
    sums = eval_matrix(basis, xs).sum(axis=1)
    npt.assert_allclose(sums, 1.0, atol=1e-12)


def test_eval_matrix_rejects_out_of_domain():
    basis = build_basis(20, 1)
    with pytest.raises(DomainError):
        eval_matrix(basis, [1.2])


# ---------------------------------------------------------- assembly


def test_p1_mass_and_stiffness_closed_forms():
    N = 25
    basis = build_basis(N, 1, DIRICHLET)
    h = basis.cell_width
    M = mass_matrix(basis)
    ops = assemble_aL(basis, ONE, ZERO)
    tri = np.diag(np.full(N - 1, 1.0), 1)
    M_exact = (h / 6.0) * (4.0 * np.eye(N) + tri + tri.T)
    S_exact = (1.0 / h) * (2.0 * np.eye(N) - tri - tri.T)
    npt.assert_allclose(M, M_exact, rtol=1e-13, atol=1e-16)
    npt.assert_allclose(ops.K, S_exact, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_quadrature_independence_for_polynomial_coefficients(order):
    basis = build_basis(24, order, DIRICHLET)
    a = CoefficientField("polynomial", (1.0, 0.5, 0.25, 0.1))
    k2 = CoefficientField("polynomial", (2.0, -1.0, 0.0, 1.0))
    lo = assemble_aL(basis, a, k2)
    # the same forms with twice the order + 2 Gauss points of assemble_aL
    qpts, qwts = fem1d._element_quadrature(basis, 2 * (order + 2))
    coeffs = np.stack([fem1d._field_at(a, qpts), fem1d._field_at(k2, qpts)])
    hi_K = dense(fem1d._assemble(basis, qpts, qwts, coeffs, [1, 0], [1, 0]))
    hi_M = dense(fem1d._assemble(basis, qpts, qwts, np.ones((1,) + qpts.shape), [0], [0]))
    assert np.max(np.abs(lo.K - hi_K)) < 1e-10
    assert np.max(np.abs(lo.M - hi_M)) < 1e-10


def test_assemble_rejects_bad_coefficients():
    basis = build_basis(20, 1)
    with pytest.raises(CoefficientError):
        assemble_aL(basis, CoefficientField("constant", (-1.0,)), ONE)
    with pytest.raises(CoefficientError):
        assemble_aL(basis, ONE, CoefficientField("constant", (-0.5,)))


def test_higher_forms_guard_their_preconditions():
    with pytest.raises(ParameterError):
        assemble_a2(build_basis(20, 1), ONE)
    with pytest.raises(UnsupportedFormError):
        assemble_a2(build_basis(20, 2), ONE, a=CoefficientField("constant", (2.0,)))
    with pytest.raises(UnsupportedFormError):
        assemble_a3(build_basis(20, 3, DIRICHLET_LAPLACE), ONE, a=CoefficientField("constant", (2.0,)))


@pytest.mark.parametrize(
    "make",
    [
        lambda b: assemble_aL(b, ONE, CoefficientField("polynomial", (1.0, 1.0))),
        lambda b: assemble_a2(b, CoefficientField("polynomial", (1.0, 1.0))),
    ],
)
def test_forms_are_symmetric(make):
    basis = build_basis(22, 2, DIRICHLET)
    ops = make(basis)
    scale = np.max(np.abs(ops.K))
    assert np.max(np.abs(ops.K - ops.K.T)) < 1e-13 * scale
    npt.assert_allclose(ops.M, ops.M.T, rtol=0, atol=1e-15)


def test_a3_form_symmetric_and_positive():
    basis = build_basis(20, 3, DIRICHLET_LAPLACE)
    ops = assemble_a3(basis, CoefficientField("polynomial", (2.0, 0.5)))
    scale = np.max(np.abs(ops.K))
    assert np.max(np.abs(ops.K - ops.K.T)) < 1e-13 * scale
    assert np.min(np.linalg.eigvalsh(0.5 * (ops.K + ops.K.T))) > 0.0


_K2 = CoefficientField("polynomial", (2.0, 0.5))
_FORMS = {
    "a_L": lambda b: assemble_aL(b, CoefficientField("polynomial", (1.0, 0.3)), _K2),
    "a2": lambda b: assemble_a2(b, _K2),
    "a3": lambda b: assemble_a3(b, _K2),
}


@pytest.mark.parametrize(
    "order, mode, form",
    [
        (1, DIRICHLET, "a_L"),
        (2, DIRICHLET, "a_L"),
        (3, DIRICHLET, "a_L"),
        (3, DIRICHLET_LAPLACE, "a_L"),
        (2, DIRICHLET, "a2"),
        (3, DIRICHLET, "a2"),
        (3, DIRICHLET_LAPLACE, "a2"),
        (3, DIRICHLET_LAPLACE, "a3"),
    ],
)
def test_forms_have_bandwidth_of_the_spline_order(order, mode, form):
    # the direct covariance route reads only these p + 1 diagonals
    ops = _FORMS[form](build_basis(24, order, mode))
    assert ops.bandwidth == order
    i, j = np.indices(ops.K.shape)
    outside = np.abs(i - j) > order
    for A in (ops.K, ops.M):
        assert np.all(A[outside] == 0.0)
        assert np.all(np.diagonal(A, order) != 0.0)


def test_band_layout_expansion_and_product():
    # band[k, j] = A[j + k, j]; the entry past the matrix is not read
    band = np.array([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 0.0]])
    A = dense(band)
    npt.assert_array_equal(A, [[1, 5, 0, 0], [5, 2, 6, 0], [0, 6, 3, 7], [0, 0, 7, 4]])
    assert A.flags.f_contiguous
    X = np.arange(12.0).reshape(4, 3)
    npt.assert_array_equal(band_matmul(band, X), A @ X)


@pytest.mark.parametrize("shape", [(40,), (40, 3)], ids=["vector", "matrix"])
def test_band_matmul_matches_the_dense_product(shape):
    # a bandwidth-3 band, one draw (as sample_field passes it) or a block
    band = _FORMS["a2"](build_basis(40, 3, DIRICHLET)).K_band
    X = np.random.default_rng(4).standard_normal(shape)
    out = band_matmul(band, X)
    assert out.shape == shape
    npt.assert_allclose(out, dense(band) @ X, rtol=1e-13, atol=1e-13 * np.max(np.abs(band)))


def test_operators_hold_bands_and_expand_on_demand():
    basis = build_basis(30, 3, DIRICHLET_LAPLACE)
    ops = assemble_a3(basis, CoefficientField("polynomial", (2.0, 0.5)))
    assert ops.K_band.shape == ops.M_band.shape == (4, 30)
    for k in range(1, 4):  # nothing is stored past the matrix
        assert np.all(ops.K_band[k, 30 - k :] == 0.0)
        assert np.all(ops.M_band[k, 30 - k :] == 0.0)
    assert not ops.M_band.flags.writeable  # shared with every form on the basis
    for A in (ops.K, ops.M, mass_matrix(basis)):  # a write would reach no band
        with pytest.raises(ValueError):
            A[5, 5] = -1.0
    npt.assert_array_equal(ops.M, mass_matrix(basis))
    npt.assert_array_equal(np.diagonal(ops.K, -2), ops.K_band[2, :28])


@given(
    n=st.integers(min_value=10, max_value=30),
    order=st.sampled_from([1, 2, 3]),
    c0=st.floats(min_value=0.1, max_value=50.0),
    c1=st.floats(min_value=-5.0, max_value=5.0),
)
@settings(max_examples=200)
def test_property_mass_stiffness_symmetric_and_definite(n, order, c0, c1):
    basis = build_basis(n, order, DIRICHLET)
    k2 = CoefficientField("polynomial", (c0, c1 if c0 + c1 > 0 else 0.0))
    ops = assemble_aL(basis, ONE, k2)
    assert np.max(np.abs(ops.M - ops.M.T)) < 1e-14
    assert np.max(np.abs(ops.K - ops.K.T)) < 1e-10
    assert np.min(np.linalg.eigvalsh(ops.M)) > 0.0
    assert np.min(np.linalg.eigvalsh(0.5 * (ops.K + ops.K.T))) > 0.0


# ------------------------------------------------------- observations


def test_sine_pairings_match_hat_function_closed_form():
    N = 80
    basis = build_basis(N, 1, DIRICHLET)
    h = basis.cell_width
    nodes = np.arange(1, N + 1) * h
    Phi = integral_obs_matrix(basis, 6)
    for ell in range(1, 7):
        w = ell * np.pi
        expected = np.sqrt(2.0) * np.sin(w * nodes) * 2.0 * (1 - np.cos(w * h)) / (w * w * h)
        npt.assert_allclose(Phi[ell - 1], expected, rtol=1e-9, atol=1e-12)


def test_integral_obs_matrix_validates_rows():
    basis = build_basis(20, 1)
    with pytest.raises(ParameterError):
        integral_obs_matrix(basis, 0)
    with pytest.raises(ParameterError):
        integral_obs_matrix(basis, 21)


def test_point_obs_matrix_is_evaluation():
    basis = build_basis(30, 2, DIRICHLET)
    xs = np.array([0.25, 0.5, 0.75])
    npt.assert_allclose(point_obs_matrix(basis, xs), eval_matrix(basis, xs), rtol=0)
    with pytest.raises(DomainError):
        point_obs_matrix(basis, [0.0])


def test_p1_point_rows_interpolate_nodal_hat():
    N = 19
    basis = build_basis(N, 1, DIRICHLET)
    h = basis.cell_width
    row = point_obs_matrix(basis, [7 * h])[0]
    expected = np.zeros(N)
    expected[6] = 1.0  # node 7 is dof index 6
    npt.assert_allclose(row, expected, atol=1e-13)
