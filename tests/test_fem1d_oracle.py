"""Array B-spline evaluation and assembly against a scalar oracle.

The oracle is the classical one-point-at-a-time Cox-de Boor evaluation
(Piegl & Tiller, *The NURBS Book*, alg. A2.1 and A2.3) with plain Python
loops for assembly and sine pairings, and an explicit dense constraint
transform T applied by matrix products. The array code in
:mod:`wmlab.fem1d` performs the same floating-point operations per point,
so the basis must match it bit for bit; assembled matrices differ only in
summation order, and constraints there are applied by slicing.

Band storage is checked against a dense assembly: the same per-element
matrices scattered into both triangles of a dense raw matrix, which is
then constrained as a whole.
"""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wmlab import fem1d
from wmlab.errors import AssemblyIntegrityError
from wmlab.fem1d import (
    DIRICHLET,
    DIRICHLET_LAPLACE,
    _SINE_BLOCK,
    _basis_ders,
    _constrain,
    _element_ders,
    _element_quadrature,
    _raw_rows,
    assemble_a2,
    assemble_a3,
    assemble_aL,
    build_basis,
    dense,
    eval_matrix,
    integral_obs_matrix,
    mass_matrix,
)
from wmlab.model_config import CoefficientField

# ------------------------------------------------------------ oracle


def find_span(knots, p, s):
    """Index of the knot span containing s (clamped at both ends)."""
    n = knots.shape[0] - p - 1  # number of raw basis functions
    if s >= knots[n]:
        return n - 1
    if s <= knots[p]:
        return p
    lo = p
    hi = n
    mid = (lo + hi) // 2
    while s < knots[mid] or s >= knots[mid + 1]:
        if s < knots[mid]:
            hi = mid
        else:
            lo = mid
        mid = (lo + hi) // 2
    return mid


def basis_ders(knots, p, s, nders):
    """Nonzero B-splines and their derivatives at one point.

    Returns ``(ders, span)`` where ``ders[k, j]`` is the k-th derivative
    of B_{span-p+j, p} at s, for k = 0..nders.
    """
    span = find_span(knots, p, s)
    ndu = np.empty((p + 1, p + 1))
    left = np.empty(p + 1)
    right = np.empty(p + 1)
    ndu[0, 0] = 1.0
    for j in range(1, p + 1):
        left[j] = s - knots[span + 1 - j]
        right[j] = knots[span + j] - s
        saved = 0.0
        for r in range(j):
            ndu[j, r] = right[r + 1] + left[j - r]
            temp = ndu[r, j - 1] / ndu[j, r]
            ndu[r, j] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        ndu[j, j] = saved

    ders = np.zeros((nders + 1, p + 1))
    for j in range(p + 1):
        ders[0, j] = ndu[j, p]

    nd = nders if nders < p else p
    a = np.empty((2, p + 1))
    for r in range(p + 1):
        s1 = 0
        s2 = 1
        a[0, 0] = 1.0
        for k in range(1, nd + 1):
            d = 0.0
            rk = r - k
            pk = p - k
            if r >= k:
                a[s2, 0] = a[s1, 0] / ndu[pk + 1, rk]
                d = a[s2, 0] * ndu[rk, pk]
            if rk >= -1:
                j1 = 1
            else:
                j1 = -rk
            if r - 1 <= pk:
                j2 = k - 1
            else:
                j2 = p - r
            for j in range(j1, j2 + 1):
                a[s2, j] = (a[s1, j] - a[s1, j - 1]) / ndu[pk + 1, rk + j]
                d += a[s2, j] * ndu[rk + j, pk]
            if r <= pk:
                a[s2, k] = -a[s1, k - 1] / ndu[pk + 1, r]
                d += a[s2, k] * ndu[r, pk]
            ders[k, r] = d
            tmp = s1
            s1 = s2
            s2 = tmp

    fac = float(p)
    for k in range(1, nd + 1):
        for j in range(p + 1):
            ders[k, j] *= fac
        fac *= p - k
    return ders, span


def assemble_bilinear(knots, p, n_raw, qpts, qwts, terms):
    """Raw matrix of sum over (coeffs, d1, d2) in terms of
    integral(coeffs * u^(d1) * v^(d2)), accumulated point by point."""
    maxd = max(max(d1, d2) for _, d1, d2 in terms)
    out = np.zeros((n_raw, n_raw))
    nel, nq = qpts.shape
    for e in range(nel):
        for q in range(nq):
            ders, span = basis_ders(knots, p, qpts[e, q], maxd)
            i0 = span - p
            for coeffs, k1, k2 in terms:
                c = coeffs[e, q] * qwts[e, q]
                for i in range(p + 1):
                    for j in range(p + 1):
                        out[i0 + i, i0 + j] += c * ders[k1, i] * ders[k2, j]
    return out


def sine_rows(knots, p, n_raw, qpts, qwts, n_rows):
    """Raw pairings with sqrt(2) sin(l pi s), l = 1..n_rows."""
    out = np.zeros((n_rows, n_raw))
    nel, nq = qpts.shape
    for e in range(nel):
        for q in range(nq):
            ders, span = basis_ders(knots, p, qpts[e, q], 0)
            x = qpts[e, q]
            w = qwts[e, q]
            i0 = span - p
            for l in range(1, n_rows + 1):
                sv = np.sqrt(2.0) * np.sin(l * np.pi * x) * w
                for j in range(p + 1):
                    out[l - 1, i0 + j] += sv * ders[0, j]
    return out


def dense_scatter(basis, qpts, qwts, coeffs, d1, d2):
    """Dense constrained matrix of a form, the oracle of band assembly.

    The per-element matrices are scattered into both triangles of a dense
    (n_raw, n_raw) raw matrix, which is then constrained as a whole.
    """
    p = basis.order
    B, first = _element_ders(basis, qpts, max(max(d1), max(d2)))
    local = np.zeros((qpts.shape[0], p + 1, p + 1))
    for c, k1, k2 in zip(coeffs, d1, d2):
        local += np.einsum("ieq,jeq->eij", B[k1] * (c * qwts), B[k2])
    raw = np.zeros((basis.n_raw, basis.n_raw))
    for i in range(p + 1):
        for j in range(p + 1):
            raw[first + i, first + j] += local[:, i, j]
    return _constrain(basis, _constrain(basis, raw).T).T


def dense_transform(basis):
    """(n_raw, n_dof) matrix whose column j holds the raw coefficients of
    constrained basis function j."""
    p, n_raw = basis.order, basis.n_raw
    if basis.constraint_mode == DIRICHLET:
        return np.eye(n_raw)[:, 1 : n_raw - 1]
    left, _ = basis_ders(basis.knots, p, 0.0, 2)
    right, _ = basis_ders(basis.knots, p, 1.0, 2)
    # actives at 0 are raw 0..3; at 1 raw n_raw-4..n_raw-1
    r_left = left[2, 1] / left[2, 2]
    r_right = right[2, 2] / right[2, 1]
    n_dof = n_raw - 4
    T = np.zeros((n_raw, n_dof))
    T[1, 0] = 1.0
    T[2, 0] = -r_left
    for j in range(n_raw - 6):
        T[3 + j, 1 + j] = 1.0
    T[n_raw - 2, n_dof - 1] = 1.0
    T[n_raw - 3, n_dof - 1] = -r_right
    return T


def constrain(basis, raw):
    T = dense_transform(basis)
    return T.T @ raw @ T


def raw_rows(basis, xs, derivative):
    """Raw spline (derivative) values at points, one row per point."""
    p = basis.order
    out = np.zeros((len(xs), basis.n_raw))
    for i, s in enumerate(xs):
        ders, span = basis_ders(basis.knots, p, s, derivative)
        out[i, span - p : span + 1] = ders[derivative]
    return out


def assert_close_to_scale(actual, expected):
    assert actual.shape == expected.shape
    gap = np.max(np.abs(actual - expected))
    assert gap <= 1e-13 * np.max(np.abs(expected)), gap


# ------------------------------------------------------------- basis


@given(
    n=st.integers(min_value=10, max_value=40),
    order=st.sampled_from([1, 2, 3]),
    nders=st.integers(min_value=0, max_value=3),
    xs=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30),
)
def test_array_basis_equals_scalar_oracle(n, order, nders, xs):
    basis = build_basis(n, order, DIRICHLET)
    pts = np.concatenate([np.asarray(xs), basis.breakpoints, [0.0, 1.0]])
    ders, spans = _basis_ders(basis.knots, order, pts, nders)
    assert ders.shape == (nders + 1, order + 1, pts.shape[0])
    for i, s in enumerate(pts):
        ref, span = basis_ders(basis.knots, order, s, nders)
        assert spans[i] == span
        npt.assert_array_equal(ders[:, :, i], ref)


# ---------------------------------------------------------- assembly

KAPPA2 = CoefficientField("polynomial", (3.0, -1.0, 2.0))


def test_a2_matches_scalar_oracle():
    basis = build_basis(17, 2, DIRICHLET)
    qpts, qwts = _element_quadrature(basis, basis.order + 5)
    g = KAPPA2.value(qpts)
    gp = KAPPA2.derivative(qpts)
    terms = [(g * g, 0, 0), (2.0 * g, 1, 1), (gp, 0, 1), (gp, 1, 0), (np.ones_like(g), 2, 2)]
    raw = assemble_bilinear(basis.knots, 2, basis.n_raw, qpts, qwts, terms)
    assert_close_to_scale(assemble_a2(basis, KAPPA2).K, constrain(basis, raw))


def test_a3_matches_scalar_oracle():
    basis = build_basis(15, 3, DIRICHLET_LAPLACE)
    qpts, qwts = _element_quadrature(basis, 9)
    g = KAPPA2.value(qpts)
    gp = KAPPA2.derivative(qpts)
    terms = [
        (g * g * g + gp * gp, 0, 0),
        (g * gp, 0, 1),
        (g * gp, 1, 0),
        (g * g, 1, 1),
        (-(g * g), 2, 0),
        (-(g * g), 0, 2),
        (g, 2, 2),
        (-gp, 3, 0),
        (-gp, 0, 3),
        (-g, 3, 1),
        (-g, 1, 3),
        (np.ones_like(g), 3, 3),
    ]
    raw = assemble_bilinear(basis.knots, 3, basis.n_raw, qpts, qwts, terms)
    assert_close_to_scale(assemble_a3(basis, KAPPA2).K, constrain(basis, raw))


def test_sine_rows_across_row_blocks_match_scalar_oracle(monkeypatch):
    n_rows = 2 * _SINE_BLOCK + 7  # two full row blocks and a partial one
    basis = build_basis(n_rows, 2, DIRICHLET)
    rules = []  # the Gauss rule integral_obs_matrix picks, for the oracle

    def recorded(*args):
        rules.append(_element_quadrature(*args))
        return rules[-1]

    monkeypatch.setattr(fem1d, "_element_quadrature", recorded)
    Phi = integral_obs_matrix(basis, n_rows)
    ((qpts, qwts),) = rules
    raw = sine_rows(basis.knots, 2, basis.n_raw, qpts, qwts, n_rows)
    assert_close_to_scale(Phi, raw @ dense_transform(basis))


# ------------------------------------------------------- constraints


@pytest.mark.parametrize(
    "order, mode", [(1, DIRICHLET), (2, DIRICHLET), (3, DIRICHLET), (3, DIRICHLET_LAPLACE)]
)
@pytest.mark.parametrize("derivative", [0, 1, 2])
def test_eval_matrix_matches_dense_transform(order, mode, derivative):
    basis = build_basis(13, order, mode)
    xs = np.concatenate([[0.0, 1.0], basis.breakpoints, np.linspace(0.013, 0.987, 23)])
    expected = raw_rows(basis, xs, derivative) @ dense_transform(basis)
    if derivative == 0:
        actual = eval_matrix(basis, xs)
    else:
        actual = _constrain(basis, _raw_rows(basis, xs, derivative))
    assert_close_to_scale(actual, expected)


@pytest.mark.parametrize("order, mode", [(2, DIRICHLET), (3, DIRICHLET_LAPLACE)])
def test_mass_matrix_matches_dense_transform(order, mode):
    basis = build_basis(14, order, mode)
    qpts, qwts = _element_quadrature(basis, order + 1)
    raw = assemble_bilinear(
        basis.knots, order, basis.n_raw, qpts, qwts, [(np.ones_like(qpts), 0, 0)]
    )
    assert_close_to_scale(mass_matrix(basis), constrain(basis, raw))


# ------------------------------------------------------ band storage

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
def test_band_assembly_matches_dense_scatter(order, mode, form, monkeypatch):
    real = fem1d._assemble
    assemblies = []

    def recorded(*args):
        band = real(*args)
        assemblies.append((args, band))
        return band

    monkeypatch.setattr(fem1d, "_assemble", recorded)
    _FORMS[form](build_basis(64, order, mode))
    assert len(assemblies) == 2  # M and the form
    for args, band in assemblies:
        expected = dense_scatter(*args)
        actual = dense(band)
        if mode == DIRICHLET:
            # the band holds exactly the dense lower triangle
            lower = np.tril_indices_from(expected)
            assert np.array_equal(actual[lower], expected[lower])
        else:
            # the edge combinations read A's upper triangle from its
            # lower one, which the dense scatter rounded separately
            gap = np.max(np.abs(actual - expected))
            assert gap <= 1e-15 * np.max(np.abs(expected)), gap


def test_asymmetric_form_is_refused():
    basis = build_basis(20, 2, DIRICHLET)
    qpts, qwts = _element_quadrature(basis, 4)
    ones = np.ones((2,) + qpts.shape)
    with pytest.raises(AssemblyIntegrityError, match="not symmetric"):
        fem1d._assemble(basis, qpts, qwts, ones[:1], [0], [1])  # <u, v'> alone
    band = fem1d._assemble(basis, qpts, qwts, ones, [0, 1], [1, 0])  # <u, v'> + <u', v>
    assert band.shape == (3, 20)
