"""Galerkin discretization on (0, 1) with clamped B-splines.

The discrete space is spanned by uniform clamped B-splines of order
(polynomial degree) p in {1, 2, 3} with boundary constraints applied by
*recombination*: constrained basis function j is a combination of raw
splines, so a raw row vector r becomes r T for a sparse transform T and
an assembled raw matrix A_raw becomes T' A_raw T. T is never formed:
``_constrain`` applies it to rows by slicing, ``_constrain_band`` to an
assembled band. Two constraint modes exist:

``dirichlet``
    drop the first and last raw spline (the only ones nonzero at the
    endpoints), so every basis function vanishes on the boundary; r T
    is the slice r[1:-1];

``dirichlet_plus_laplace_zero``
    (p = 3 only) additionally force vanishing second derivatives at the
    endpoints by replacing the two splines adjacent to each end with the
    single combination psi = B_edge - (B_edge''(end)/B_next''(end)) B_next.
    Since B_next'(end) = 0, the first derivative of psi at the endpoint
    stays unconstrained, as required for discretizing the third operator
    power. The two ratios are kept as ``SplineBasis.edge_ratios``; r T
    is the slice r[2:-2] after each edge entry r[2] (r[-3]) has been
    replaced by its combination with r[1] (r[-2]).

All constructions keep the constrained dimension equal to the requested
N by adjusting the number of cells.

Evaluation and assembly work on the *raw* (unconstrained) clamped basis
with array expressions over all points at once:

* ``knots`` is a full clamped knot vector (end knots repeated p+1 times).
  A "span" is an index i with knots[i] <= s < knots[i+1]; the splines
  B_{span-p}, ..., B_{span} are the p+1 functions active at s, and on the
  uniform partitions built here element e is span p + e.
* Values and derivatives follow the Cox-de Boor table recurrence (Piegl &
  Tiller, *The NURBS Book*, alg. A2.3), looped only over the small
  indices (at most p + 1 = 4) and vectorized over the points.
* A form is assembled as per-element (p+1) x (p+1) matrices, summed over
  the element's quadrature points and the form's terms, then scattered
  along the band. The fixed summation order makes results reproducible
  bit for bit for a fixed input.

Assembled matrices are symmetric with bandwidth p, and band storage is
their one format. A symmetric n x n matrix A is held as its lower band,
the (p+1, n) array with ``band[k, j] = A[j + k, j]`` that LAPACK
``pbtrf`` (``scipy.linalg.cholesky_banded(..., lower=True)``) takes;
entries past the matrix (``band[k, n-k:]``) are zero. Since the band
keeps only the lower triangle, assembly refuses a per-element matrix
that is not finite or not symmetric to 1e-12 of its scale
(AssemblyIntegrityError).
``dense`` expands a band into the full matrix; only the dense
eigensolver (pencils wider than tridiagonal) and the tests need it.
``band_matmul`` multiplies by a band. Solves with a band and its square
root go through ``_BandLDL``, its one factorization: A = U D U' with U
unit lower triangular, built once per matrix.
"""

import functools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import scipy.linalg

from .errors import (
    AssemblyIntegrityError,
    CoefficientError,
    ConditioningError,
    ConstraintError,
    DomainError,
    ParameterError,
    UnsupportedFormError,
)
from .model_config import CoefficientField

__all__ = [
    "DIRICHLET",
    "DIRICHLET_LAPLACE",
    "SplineBasis",
    "build_basis",
    "eval_matrix",
    "AssembledOperators",
    "mass_matrix",
    "assemble_aL",
    "assemble_a2",
    "assemble_a3",
    "integral_obs_matrix",
    "point_obs_matrix",
]

DIRICHLET = "dirichlet"
DIRICHLET_LAPLACE = "dirichlet_plus_laplace_zero"

# Sine rows are paired in blocks of this many rows, which bounds every
# per-block table in memory: the (rows, raw splines) phases, their sine
# and cosine factors and products, and the (rows, (order + 1) x
# quadrature points) factors.
_SINE_BLOCK = 64


@dataclass(frozen=True)
class SplineBasis:
    """A constrained clamped B-spline basis on [0, 1].

    ``edge_ratios`` is None in ``dirichlet`` mode; in
    ``dirichlet_plus_laplace_zero`` mode it holds the two ratios
    (r_left, r_right) of the edge combinations
    psi_left = B_1 - r_left B_2 and psi_right = B_{n_raw-2} - r_right B_{n_raw-3}.
    """

    order: int
    n_dof: int
    knots: np.ndarray
    breakpoints: np.ndarray
    constraint_mode: str
    edge_ratios: Optional[Tuple[float, float]]

    @property
    def n_raw(self):
        return self.knots.shape[0] - self.order - 1

    @property
    def n_cells(self):
        return self.breakpoints.shape[0] - 1

    @property
    def cell_width(self):
        return 1.0 / self.n_cells

    @functools.cached_property
    def mass(self):
        """The ``_BandLDL`` factor of the mass matrix M, whose read-only
        ``band`` is M: built on first use and shared by every pencil
        assembled on the basis."""
        # order + 1 Gauss points integrate the degree-2p spline products exactly
        qpts, qwts = _element_quadrature(self, self.order + 1)
        coeffs = np.ones((1,) + qpts.shape)
        return _BandLDL(_read_only(_assemble(self, qpts, qwts, coeffs, [0], [0])), "mass matrix")


def _basis_ders(knots, p, xs, nders):
    """Active raw splines and their derivatives at many points.

    Returns ``(ders, spans)`` where ``ders[k, j, i]`` is the k-th
    derivative of B_{spans[i]-p+j, p} at ``xs[i]``, for k = 0..nders.
    Rows with k > p are zero (piecewise degree-p polynomials have
    vanishing higher derivatives inside each cell).
    """
    n_raw = knots.shape[0] - p - 1
    spans = np.clip(np.searchsorted(knots, xs, "right") - 1, p, n_raw - 1)
    m = xs.shape[0]
    ndu = np.empty((p + 1, p + 1, m))
    left = np.empty((p + 1, m))
    right = np.empty((p + 1, m))
    ndu[0, 0] = 1.0
    for j in range(1, p + 1):
        left[j] = xs - knots[spans + 1 - j]
        right[j] = knots[spans + j] - xs
        saved = 0.0
        for r in range(j):
            ndu[j, r] = right[r + 1] + left[j - r]
            temp = ndu[r, j - 1] / ndu[j, r]
            ndu[r, j] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        ndu[j, j] = saved

    ders = np.zeros((nders + 1, p + 1, m))
    ders[0] = ndu[:, p]
    nd = min(nders, p)
    a = np.empty((2, p + 1, m))
    for r in range(p + 1):
        s1, s2 = 0, 1
        a[0, 0] = 1.0
        for k in range(1, nd + 1):
            d = np.zeros(m)
            rk = r - k
            pk = p - k
            if r >= k:
                a[s2, 0] = a[s1, 0] / ndu[pk + 1, rk]
                d = a[s2, 0] * ndu[rk, pk]
            j1 = 1 if rk >= -1 else -rk
            j2 = k - 1 if r - 1 <= pk else p - r
            for j in range(j1, j2 + 1):
                a[s2, j] = (a[s1, j] - a[s1, j - 1]) / ndu[pk + 1, rk + j]
                d += a[s2, j] * ndu[rk + j, pk]
            if r <= pk:
                a[s2, k] = -a[s1, k - 1] / ndu[pk + 1, r]
                d += a[s2, k] * ndu[r, pk]
            ders[k, r] = d
            s1, s2 = s2, s1

    fac = float(p)
    for k in range(1, nd + 1):
        ders[k] *= fac
        fac *= p - k
    return ders, spans


def _raw_rows(basis, xs, derivative):
    """Dense (len(xs), n_raw) matrix of raw spline (derivative) values."""
    ders, spans = _basis_ders(basis.knots, basis.order, xs, derivative)
    raw = np.zeros((xs.shape[0], basis.n_raw))
    cols = spans[:, None] + np.arange(-basis.order, 1)
    raw[np.arange(xs.shape[0])[:, None], cols] = ders[derivative].T
    return raw


def _constrain(basis, raw):
    """Rows of ``raw`` (last axis: raw splines) times the transform T.

    Overwrites the two edge entries of every row that the Laplace-zero
    combinations replace, and returns a view of ``raw``.
    ``_constrain(basis, _constrain(basis, A).T).T`` is T' A T.
    """
    if basis.edge_ratios is None:
        return raw[..., 1:-1]
    r_left, r_right = basis.edge_ratios
    raw[..., 2] = raw[..., 1] - r_left * raw[..., 2]
    raw[..., -3] = raw[..., -2] - r_right * raw[..., -3]
    return raw[..., 2:-2]


def _constrain_band(basis, raw):
    """T' A T for a symmetric raw matrix A held as its lower band.

    Dirichlet mode is a slice. In Laplace-zero mode only the edge
    combinations' column 0 and row n-1 (the first and last p + 1 stored
    entries) are recombined, with the operations ``_constrain`` applies
    to the dense matrix; A's upper triangle is read from its lower one.
    Returns a new band with the tail past the matrix set to zero.
    """
    p, n = basis.order, basis.n_dof
    if basis.edge_ratios is None:
        out = raw[:, 1:-1].copy()
    else:
        r_left, r_right = basis.edge_ratios
        out = raw[:, 2:-2].copy()
        j = raw.shape[1] - 3  # raw index of the right edge combination
        for k in range(1, p + 1):
            out[k, 0] = (raw[k + 1, 1] if k < p else 0.0) - r_left * raw[k, 2]
            out[k, n - 1 - k] = (
                raw[k + 1, j - k] if k < p else 0.0
            ) - r_right * raw[k, j - k]
        out[0, 0] = (raw[0, 1] - r_left * raw[1, 1]) - r_left * (
            raw[1, 1] - r_left * raw[0, 2]
        )
        out[0, n - 1] = (raw[0, j + 1] - r_right * raw[1, j]) - r_right * (
            raw[1, j] - r_right * raw[0, j]
        )
    for k in range(1, p + 1):
        out[k, n - k :] = 0.0
    return out


def dense(band):
    """The symmetric matrix held as a lower band (``band[k, j] = A[j+k, j]``).

    For the dense eigensolver, which ``spectral.generalized_eig`` uses
    for pencils wider than tridiagonal, and for the tests; every other consumer reads the band. The result is
    Fortran-ordered, so LAPACK can work on it in place.
    """
    n = band.shape[1]
    A = np.zeros((n, n), order="F")
    for k in range(band.shape[0]):
        i = np.arange(n - k)
        A[i + k, i] = A[i, i + k] = band[k, : n - k]
    return A


def _read_only(A):
    A.setflags(write=False)
    return A


def band_matmul(band, X, out=None, scratch=None):
    """A @ X for the symmetric matrix A held as a lower band, X of shape
    (n,) or (n, m).

    Costs O(n p) per column of X instead of the O(n^2) of a dense
    product. The product is written into ``out`` and each off-diagonal
    term into ``scratch`` if they are given (arrays of X's shape, neither
    overlapping X), else into new arrays; the bits are the same.
    """
    n = band.shape[1]
    col = (slice(None),) + (None,) * (X.ndim - 1)
    out = np.multiply(band[0][col], X, out=out)
    for k in range(1, band.shape[0]):
        d = band[k, : n - k][col]
        term = None if scratch is None else scratch[: n - k]
        out[k:] += np.multiply(d, X[:-k], out=term)
        out[:-k] += np.multiply(d, X[k:], out=term)
    return out


class _BandLDL:
    """Unit-lower LDL' factor of a symmetric positive definite matrix A
    held as a lower band: A = U D U' with U unit lower triangular of the
    same bandwidth, taken from the banded Cholesky factor L = U D^(1/2)
    (LAPACK pbtrf, in O(n p^2)). ConditioningError, naming the matrix by
    ``name``, if A is not positive definite.

    Solves run LAPACK dtbtrs on U with diag "U": a unit-diagonal
    recurrence multiplies and adds but never divides, where dpbtrs and a
    non-unit dtbtrs divide at every row. D enters as a scaling by stored
    reciprocals:

        A^-1 X = U^-T D^-1 U^-1 X,  L^-1 X = D^(-1/2) U^-1 X,  L^-T X = U^-T D^(-1/2) X,

    except that A^-1 X of a tridiagonal A is one LAPACK dpttrs on U and
    D (see ``solve``). L X and L' X are one BLAS dtbmv per column. Every
    method works on X, of shape (n,) or (n, m), in place and returns the
    result, which is X itself when X is contiguous (a block in Fortran
    order); LAPACK writes over any array it is given, read-only ones
    included, so callers pass only arrays they own.
    """

    def __init__(self, band, name):
        try:
            L = scipy.linalg.cholesky_banded(band, lower=True)
        except scipy.linalg.LinAlgError as exc:
            raise ConditioningError(f"{name} is not positive definite: {exc}") from exc
        self.band = band
        self.L = L
        # Fortran order, which dtbtrs reads without a copy
        self.U = np.array(L / L[0], order="F")
        self.inv_root_d = 1.0 / L[0]
        self.inv_d = self.inv_root_d * self.inv_root_d
        # L' in upper band storage (Lt[p - k, j + k] = L[k, j]), for L X
        self.Lt = np.zeros_like(L)
        for k in range(L.shape[0]):
            self.Lt[-1 - k, k:] = L[k, : L.shape[1] - k]
        # D and the subdiagonal of U of a tridiagonal A, for dpttrs
        self.tridiagonal = (L[0] * L[0], self.U[1, :-1].copy()) if L.shape[0] == 2 else None

    def _unit_solve(self, X, trans):
        return scipy.linalg.lapack.dtbtrs(
            self.U, X, uplo="L", trans=trans, diag="U", overwrite_b=1
        )[0]

    @staticmethod
    def _scale(X, d):
        X *= d[(slice(None),) + (None,) * (X.ndim - 1)]
        return X

    def solve(self, X):
        """A^-1 X. A tridiagonal A is solved by LAPACK dpttrs on the same
        U and D, which runs both recurrences of a column in two tight loops
        where OpenBLAS's dtbsv makes a call per row; its division by D
        stays off the recurrence's chain. N = 2000, 91 columns, 2-core
        Xeon VM: 1.6 ms, against 2.5 ms for the unit-diagonal solves and
        3.8-4.1 ms for dpbtrs."""
        if self.tridiagonal is not None:
            return scipy.linalg.lapack.dpttrs(*self.tridiagonal, X, overwrite_b=1)[0]
        X = self._scale(self._unit_solve(X, "N"), self.inv_d)
        return self._unit_solve(X, "T")

    def half_solve(self, X, trans=False):
        """L^-1 X, or L^-T X with ``trans``."""
        if trans:
            return self._unit_solve(self._scale(X, self.inv_root_d), "T")
        return self._scale(self._unit_solve(X, "N"), self.inv_root_d)

    def half_matmul(self, X, trans=False):
        """L X, or L' X with ``trans``: one BLAS dtbmv per column, in place,
        in its transposed form (L X as (L')' X on ``Lt``), which unlike the
        other form adds a bidiagonal L's two terms without a fused multiply-add."""
        band, lower = (self.L, 1) if trans else (self.Lt, 0)
        for x in X.reshape(len(X), -1).T:
            x[...] = scipy.linalg.blas.dtbmv(
                band.shape[0] - 1, band, x, lower=lower, trans=1, overwrite_x=1
            )
        return X


def build_basis(N, order, constraint=DIRICHLET):
    """Constrained spline basis with exactly N degrees of freedom.

    The cell count is chosen so the constrained dimension equals N:
    N + 2 - p cells in ``dirichlet`` mode, N + 1 cells in
    ``dirichlet_plus_laplace_zero`` mode (p = 3 only).
    """
    if not isinstance(N, (int, np.integer)) or N < 10:
        raise ParameterError(f"N must be an integer >= 10, got {N!r}")
    if order not in (1, 2, 3):
        raise ParameterError(f"spline order must be 1, 2 or 3, got {order!r}")
    if constraint not in (DIRICHLET, DIRICHLET_LAPLACE):
        raise ConstraintError(f"unknown constraint mode {constraint!r}")
    if constraint == DIRICHLET_LAPLACE and order != 3:
        raise ConstraintError(
            "second-derivative endpoint constraints require order 3 splines"
        )

    p = int(order)
    if constraint == DIRICHLET:
        m = int(N) + 2 - p
    else:
        m = int(N) + 1
    breakpoints = np.linspace(0.0, 1.0, m + 1)
    knots = np.concatenate([np.zeros(p), breakpoints, np.ones(p)])

    edge_ratios = None
    if constraint == DIRICHLET_LAPLACE:
        ders, _ = _basis_ders(knots, p, np.array([0.0, 1.0]), 2)
        # actives at 0 are raw 0..3; at 1 raw n_raw-4..n_raw-1
        edge_ratios = (
            float(ders[2, 1, 0] / ders[2, 2, 0]),
            float(ders[2, 2, 1] / ders[2, 1, 1]),
        )

    basis = SplineBasis(
        order=p,
        n_dof=int(N),
        knots=knots,
        breakpoints=breakpoints,
        constraint_mode=constraint,
        edge_ratios=edge_ratios,
    )
    _check_partition_of_unity(basis)
    _check_boundary_constraints(basis)
    return basis


def _check_partition_of_unity(basis):
    # The raw clamped basis sums to one everywhere; verify at a handful of
    # interior points before any constraint recombination is used.
    xs = np.linspace(0.037, 0.971, 11)
    ders, _ = _basis_ders(basis.knots, basis.order, xs, 0)
    sums = ders[0].sum(axis=0)
    if not np.allclose(sums, 1.0, rtol=0.0, atol=1e-12):
        raise AssemblyIntegrityError(
            f"raw spline partition of unity violated: max|sum-1| = {np.max(np.abs(sums - 1.0)):.3e}"
        )


def _check_boundary_constraints(basis):
    ends = np.array([0.0, 1.0])
    vals = _constrain(basis, _raw_rows(basis, ends, 0))
    d2_raw = _raw_rows(basis, ends, 2)
    scales = np.maximum(np.max(np.abs(d2_raw), axis=1), 1.0)
    d2 = _constrain(basis, d2_raw)
    for i, end in enumerate(ends):
        if np.max(np.abs(vals[i])) > 1e-12:
            raise AssemblyIntegrityError(f"constrained basis not zero at s={end}")
        if basis.constraint_mode == DIRICHLET_LAPLACE:
            if np.max(np.abs(d2[i])) > 1e-9 * scales[i]:
                raise AssemblyIntegrityError(
                    f"second-derivative constraint violated at s={end}"
                )


def eval_matrix(basis, locations):
    """Dense matrix of constrained basis values at locations.

    Returns shape (len(locations), n_dof); row i evaluates all basis
    functions at locations[i].
    """
    xs = np.atleast_1d(np.asarray(locations, dtype=np.float64))
    if xs.ndim != 1:
        raise ParameterError("locations must be one-dimensional")
    if np.any(xs < 0.0) or np.any(xs > 1.0):
        raise DomainError("evaluation points must lie in [0, 1]")
    return _constrain(basis, _raw_rows(basis, xs, 0)).copy()


@dataclass(frozen=True)
class AssembledOperators:
    """Mass matrix M and a stiffness-like form matrix K, both constrained.

    ``M_band`` and ``K_band`` hold the two symmetric matrices as (p+1, n)
    lower bands, ``band[k, j] = A[j + k, j]`` (see the module docstring);
    the shared ``M_band`` is read-only. ``form_order`` records which
    bilinear form K discretizes: "a_L" for the second-order operator
    itself, "a2"/"a3" for its second/third power.
    """

    M_band: np.ndarray
    K_band: np.ndarray
    form_order: str

    @property
    def bandwidth(self):
        """The spline order p: splines of order p overlap only when their
        indices differ by at most p, and the Laplace-zero edge combinations
        keep that bound (the first kept function meets raw splines up to
        2 + p only, constrained index p; mirrored at the right end)."""
        return self.K_band.shape[0] - 1

    @functools.cached_property
    def K_factor(self):
        """The ``_BandLDL`` factor of K, built on first use."""
        return _BandLDL(self.K_band, f"form matrix {self.form_order}")

    @functools.cached_property
    def M_factor(self):
        """The ``_BandLDL`` factor of M, built on first use. Pencils that
        the assembly functions build hold their basis's factor
        (``SplineBasis.mass``) instead."""
        return _BandLDL(self.M_band, "mass matrix")

    @property
    def M(self):
        """Read-only dense M, built on each access: for the tests."""
        return _read_only(dense(self.M_band))

    @property
    def K(self):
        """Read-only dense K, built on each access: for the tests."""
        return _read_only(dense(self.K_band))


def _element_quadrature(basis, nquad):
    x, w = np.polynomial.legendre.leggauss(int(nquad))
    bp = basis.breakpoints
    mid = 0.5 * (bp[:-1] + bp[1:])
    half = 0.5 * np.diff(bp)
    qpts = mid[:, None] + half[:, None] * x[None, :]
    qwts = half[:, None] * w[None, :]
    return qpts, qwts


def _field_at(field, qpts, derivative=False):
    fn = field.derivative if derivative else field.value
    return np.asarray(fn(qpts.ravel()), dtype=np.float64).reshape(qpts.shape)


def _element_ders(basis, qpts, nders):
    """Raw basis table at per-element quadrature points.

    Returns ``(B, first)`` with ``B[k, j, e, q]`` the k-th derivative of
    the j-th active raw spline of element e at ``qpts[e, q]`` and
    ``first[e]`` the raw index of that element's first active spline.
    """
    ders, spans = _basis_ders(basis.knots, basis.order, qpts.ravel(), nders)
    first = spans.reshape(qpts.shape)[:, 0] - basis.order
    return ders.reshape(ders.shape[:2] + qpts.shape), first


def _assemble(basis, qpts, qwts, coeffs, d1, d2):
    """Constrained band of sum_t integral(coeffs[t] u^(d1[t]) v^(d2[t])).

    ``coeffs`` has shape (n_terms, n_elements, n_quad): each term's
    coefficient at the quadrature points. The form must be symmetric:
    the band keeps only the lower triangle, so AssemblyIntegrityError is
    raised if any per-element matrix is asymmetric beyond 1e-12 of its
    largest entry, or has an entry that is not finite (a coefficient that
    overflows the element integrals).
    """
    p = basis.order
    B, first = _element_ders(basis, qpts, max(max(d1), max(d2)))
    local = np.zeros((qpts.shape[0], p + 1, p + 1))
    for c, k1, k2 in zip(coeffs, d1, d2):
        local += np.einsum("ieq,jeq->eij", B[k1] * (c * qwts), B[k2])
    if not np.isfinite(local).all():
        raise AssemblyIntegrityError(
            "bilinear form is not finite: a coefficient overflows its element integrals"
        )
    skew = np.max(np.abs(local - local.transpose(0, 2, 1)), axis=(1, 2))
    scale = np.max(np.abs(local), axis=(1, 2))
    bad = skew > 1e-12 * scale
    if np.any(bad):
        e = int(np.argmax(bad))
        raise AssemblyIntegrityError(
            f"bilinear form is not symmetric: element {e} has local "
            f"asymmetry {skew[e]:.3e} at scale {scale[e]:.3e}"
        )
    raw = np.zeros((p + 1, basis.n_raw))
    # within one (i, j) slice every element hits a different entry, so
    # the fancy-index += never drops a repeated target
    for i in range(p + 1):
        for j in range(i + 1):
            raw[i - j, first + j] += local[:, i, j]
    return _constrain_band(basis, raw)


def mass_matrix(basis):
    """Constrained mass matrix, exact for the spline products.

    Dense and read-only, expanded from the basis's read-only band
    (``SplineBasis.mass``); assembled operators carry the band itself.
    """
    return _read_only(dense(basis.mass.band))


def _operators(basis, K, form_order):
    """AssembledOperators of K on the basis, holding the basis's mass band
    and, as its ``M_factor``, that band's one factor (``SplineBasis.mass``)."""
    ops = AssembledOperators(M_band=basis.mass.band, K_band=K, form_order=form_order)
    # set the cached property: the frozen dataclass keeps it in __dict__
    ops.__dict__["M_factor"] = basis.mass
    return ops


def assemble_aL(basis, a, kappa2):
    """Mass matrix and the form <a u', v'> + <kappa2 u, v>.

    The diffusion coefficient must be strictly positive at every
    quadrature node (order + 2 Gauss points per element); the reaction
    coefficient must be nonnegative (zero is allowed, e.g. for a pure
    Laplacian).
    """
    qpts, qwts = _element_quadrature(basis, basis.order + 2)
    a_q = _field_at(a, qpts)
    k2_q = _field_at(kappa2, qpts)
    if np.min(a_q) <= 0.0:
        raise CoefficientError(
            f"diffusion coefficient must be strictly positive; min at quadrature nodes = {np.min(a_q):.6g}"
        )
    if np.min(k2_q) < 0.0:
        raise CoefficientError(
            f"reaction coefficient must be nonnegative; min at quadrature nodes = {np.min(k2_q):.6g}"
        )
    coeffs = np.stack([a_q, k2_q])
    K = _assemble(basis, qpts, qwts, coeffs, [1, 0], [1, 0])
    return _operators(basis, K, "a_L")


def _require_unit_diffusion(a, form):
    if a is None:
        return
    if isinstance(a, CoefficientField) and a.kind == "constant" and a.params[0] == 1.0:
        return
    raise UnsupportedFormError(
        f"the {form} form is implemented for unit diffusion only; "
        "rescale constant diffusion into the reaction coefficient instead"
    )


def assemble_a2(basis, kappa2, a=None):
    """Form for the squared operator (kappa2 - Laplacian)^2, unit diffusion.

    With g = kappa2 the assembled form is

        <g^2 u, v> + <2 g u', v'> + <g' u, v'> + <g' u', v> + <u'', v''>,

    valid on spline spaces of order >= 2 with Dirichlet constraints.
    """
    if basis.order < 2:
        raise ParameterError("squared-operator form needs spline order >= 2")
    _require_unit_diffusion(a, "a2")
    qpts, qwts = _element_quadrature(basis, basis.order + 5)
    g = _field_at(kappa2, qpts)
    gp = _field_at(kappa2, qpts, derivative=True)
    if np.min(g) < 0.0:
        raise CoefficientError("reaction coefficient must be nonnegative")
    coeffs = np.stack([g * g, 2.0 * g, gp, gp, np.ones_like(g)])
    d1 = [0, 1, 0, 1, 2]
    d2 = [0, 1, 1, 0, 2]
    K = _assemble(basis, qpts, qwts, coeffs, d1, d2)
    return _operators(basis, K, "a2")


def assemble_a3(basis, kappa2, a=None):
    """Form for the cubed operator (kappa2 - Laplacian)^3, unit diffusion.

    Requires order-3 splines with the second-derivative endpoint
    constraints active. With g = kappa2 the twelve assembled pairings are

        <(g^3 + g'^2) u, v> + <g g' u, v'> + <g g' u', v> + <g^2 u', v'>
        - <g^2 u'', v> - <g^2 u, v''> + <g u'', v''>
        - <g' u''', v> - <g' u, v'''> - <g u''', v'> - <g u', v'''>
        + <u''', v'''>.
    """
    if basis.order != 3 or basis.constraint_mode != DIRICHLET_LAPLACE:
        raise ConstraintError(
            "cubed-operator form needs order-3 splines with "
            "second-derivative endpoint constraints"
        )
    _require_unit_diffusion(a, "a3")
    qpts, qwts = _element_quadrature(basis, 9)
    g = _field_at(kappa2, qpts)
    gp = _field_at(kappa2, qpts, derivative=True)
    if np.min(g) < 0.0:
        raise CoefficientError("reaction coefficient must be nonnegative")
    one = np.ones_like(g)
    coeffs = np.stack(
        [
            g * g * g + gp * gp,  # (0,0)
            g * gp,  # (0,1)
            g * gp,  # (1,0)
            g * g,  # (1,1)
            -(g * g),  # (2,0)
            -(g * g),  # (0,2)
            g,  # (2,2)
            -gp,  # (3,0)
            -gp,  # (0,3)
            -g,  # (3,1)
            -g,  # (1,3)
            one,  # (3,3)
        ]
    )
    d1 = [0, 0, 1, 1, 2, 0, 2, 3, 0, 3, 1, 3]
    d2 = [0, 1, 0, 1, 0, 2, 2, 0, 3, 1, 3, 3]
    K = _assemble(basis, qpts, qwts, coeffs, d1, d2)
    return _operators(basis, K, "a3")


def integral_obs_matrix(basis, n_rows):
    """Observation matrix against the sine system sqrt(2) sin(l pi s).

    Row l-1 holds the pairings of the l-th sine function with every
    constrained basis function, l = 1..n_rows. The per-element Gauss
    rule grows with the highest frequency so that even the most
    oscillatory row is resolved.

    The cells are uniform: with m cells, node q of cell e is
    s = (e + t_q)/m with t_q = (1 + xi_q)/2 for the Gauss nodes xi_q.
    Raw spline i is the j-th active spline of cell e = i - j, so at its
    nodes in that cell

        sin(l pi s) = sin(pi li/m) cos(pi l (t_q - j)/m)
                      + cos(pi li/m) sin(pi l (t_q - j)/m).

    The first factors are read from one table of sin and cos(pi k/m),
    k < 2m, at the exact integer phase k = li mod 2m; the second factors
    form (rows, (order + 1) nquad) arrays. A row block is two dgemm
    products of those arrays with the weighted spline values
    sqrt(2) w B_j^e at the nodes, laid out by (j, q) and raw spline i,
    each scaled by its table factors. This sums the same rule as one
    sine per node, but no sine argument grows with l, whereas
    sin(l pi s) at a rounded node s is off by up to l pi eps.
    """
    if not 1 <= n_rows <= basis.n_dof:
        raise ParameterError(
            f"n_rows must lie in [1, {basis.n_dof}], got {n_rows}"
        )
    nquad = max(basis.order + 2, math.ceil(4.0 * n_rows * basis.cell_width))
    qpts, qwts = _element_quadrature(basis, nquad)
    B, _ = _element_ders(basis, qpts, 0)
    n_rows, m, p, n_raw = int(n_rows), basis.n_cells, basis.order, basis.n_raw
    # weighted[i, (j, q)] is at node q of cell i - j; its transpose is
    # the Fortran-ordered operand that dgemm reads in place
    weighted = np.zeros((n_raw, p + 1, nquad))
    for j in range(p + 1):
        weighted[j : j + m, j] = np.sqrt(2.0) * qwts * B[0, j]
    weighted = weighted.reshape(n_raw, (p + 1) * nquad).T
    t = 0.5 * (1.0 + np.polynomial.legendre.leggauss(nquad)[0])
    shifts = (t - np.arange(p + 1)[:, None]).ravel()  # t_q - j by (j, q)
    angles = np.pi / m * np.arange(2 * m)
    sin_table, cos_table = np.sin(angles), np.cos(angles)
    raw = np.empty((n_rows, n_raw))
    for l0 in range(0, n_rows, _SINE_BLOCK):
        block = raw[l0 : l0 + _SINE_BLOCK]
        ls = np.arange(l0 + 1, l0 + block.shape[0] + 1)
        phase = np.outer(np.arange(n_raw), ls)  # transposed, as the products
        phase %= 2 * m
        offset = np.pi / m * np.outer(ls, shifts)
        # The rows are the products' first dimension, so the products come
        # out Fortran-ordered. With n_raw there instead, OpenBLAS rounds
        # them differently at 1 and 2 threads from N = 1000 on.
        first = scipy.linalg.blas.dgemm(1.0, np.cos(offset).T, weighted, trans_a=1)
        first *= sin_table[phase].T
        second = scipy.linalg.blas.dgemm(1.0, np.sin(offset).T, weighted, trans_a=1)
        second *= cos_table[phase].T
        np.add(first, second, out=block)
    return _constrain(basis, raw).copy()


def point_obs_matrix(basis, locations):
    """Observation matrix of point evaluations at interior locations.

    Each row has at most order+1 nonzero entries. Locations must lie
    strictly inside (0, 1); the constrained field vanishes on the
    boundary, so endpoint observations would be degenerate.
    """
    xs = np.atleast_1d(np.asarray(locations, dtype=np.float64))
    if np.any(xs <= 0.0) or np.any(xs >= 1.0):
        raise DomainError("point observations must lie strictly inside (0, 1)")
    return eval_matrix(basis, xs)
