"""Numerical diagnostics for comparing two elliptic operators.

Given the Galerkin pencils (K, M) and (K~, M) of two second-order
operators discretized on the same basis, with M-orthonormal eigenvector
matrices V, V~, the cross Gram matrix W = V' M V~ is an orthogonal
change of basis between the two discrete eigensystems. From them one
builds discrete counterparts of the operator-theoretic objects that
govern equivalence of the induced Gaussian measures and asymptotic
optimality of kriging predictions:

* ``t_operator``: the defect T = L^(-g) L~^(2g) L^(-g) - c^(2g) I in
  the eigenbasis of the first operator. The induced measures (for
  matched exponents) are equivalent exactly when a suitable T is
  Hilbert-Schmidt; T being merely bounded-but-not-compact marks the
  proportional-but-unequal case.
* ``hs_curve``: Frobenius/operator norms of leading blocks of T over a
  growing family of truncations, with a coarse classification of the
  observed behavior (HS_stable / non_compact / compact_like).
* ``cm_equivalence_constants``: extreme eigenvalues of
  L^(-b) L~^(2b) L^(-b), the discrete norm-equivalence constants of the
  two Cameron-Martin norms.
* ``table1_verdict``: the decision rules for equivalence / isomorphic
  Cameron-Martin spaces / asymptotic optimality as a function of the
  exponent regime and how the coefficient pairs relate, evaluated from
  exact boundary data rather than from truncated spectra. All three
  read one boundary condition on kappa2_alt - c*kappa2_base, c = a_alt/a_base:
  flat endpoint slopes from 9/4 on, vanishing higher traces too above 13/4.

T + c^(2g) I and the Cameron-Martin matrices are leading blocks of
Lam^(-b) W Lam~^(2b) W' Lam^(-b) (b = g for T), each formed as a Gram
product Y'Y over the N x t factor Y in place, one block of columns at a
time (``_gram``); their spectra come from LAPACK dsyevr in the block's own
storage (``_block_eigenvalues``), with no copy of any block, and no
routine here runs an SVD.
``operator_pair`` builds a pair from the base eigenpairs and the alt
pencil alone. When 2b = m is a positive integer the block needs no alt
eigenvectors: V~ Lam~^m V~' = A^m M^-1 with A = M^-1 K~, so
W Lam~^(2b) W' = V' M A^m V, and Y comes from V by banded products and
solves with K~ and M, through the alt pencil's unit-lower LDL' factors
(``fem1d._BandLDL``, built once per pencil and, for M, once per basis).
Any other exponent takes the W route, which runs
the alt eigensolve and ``cross_gram`` once, on first use. At matched
exponents (b = g) the blocks are one matrix shifted by s = c^(2g):
``hs_curve`` returns each block's spectrum of T in its report, whose
``cm_constants`` reads the constants off it plus s, where
``cm_equivalence_constants`` forms and eigensolves the block again.

The verdict engine and the spectral diagnostics are deliberately
independent routes to the same conclusions; tests check concordance.
"""

import ctypes
import dataclasses
import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np
import scipy.linalg

from .errors import (
    DataError,
    DomainError,
    NumericalIntegrityError,
    ParameterError,
)
from .fem1d import AssembledOperators, band_matmul
from .matio import write_csv
from .model_config import _is_integer
from .spectral import (
    _LAPACK_DOUBLE,
    SpectralDecomposition,
    _block_buffer,
    _column_blocks,
    _dsbgvd_eigenvalues,
    _fortran_block,
    _identity_defect,
    _lapack_routine,
    _require_positive,
    generalized_eig,
)

__all__ = [
    "OperatorPair",
    "operator_pair",
    "cross_gram",
    "t_operator",
    "DiagnosticsReport",
    "hs_curve",
    "cm_equivalence_constants",
    "VerdictInput",
    "Verdict",
    "table1_verdict",
    "verdict_input_from_models",
]


def _json_dict(fields):
    """``dataclasses.asdict`` factory: a report's fields but its spectra, tuples as lists."""
    return {k: list(v) if isinstance(v, tuple) else v for k, v in fields if k != "spectra"}


@dataclass(frozen=True)
class OperatorPair:
    """The ascending eigenvalues of two pencils on a common mass matrix,
    and what the Gram blocks need besides: either the cross Gram matrix
    W = V_base' M V_alt (orthogonal up to roundoff), as ``cross_gram``
    and synthetic pairs give it, or the base eigenvectors ``V`` and the
    alt pencil ``ops_alt``, as ``operator_pair`` gives them. The alt
    eigenvectors are never kept.

    A pair is immutable once built: its arrays are never changed in
    place and no call stores a result on it, so what a routine computes
    from a pair does not depend on what ran on it before.
    """

    lam: np.ndarray
    lam_alt: np.ndarray
    W: Optional[np.ndarray] = None
    V: Optional[np.ndarray] = None
    ops_alt: Optional[AssembledOperators] = None

    @functools.cached_property
    def _w_route(self):
        """(lam_alt, W) for the W route: the pair's own, or else those of
        one alt eigensolve and ``cross_gram``, run on first use. The alt
        eigenvalues are then its Rayleigh quotients, as ``cross_gram``
        pairs have them."""
        if self.W is not None:
            return self.lam_alt, self.W
        dec_base = SpectralDecomposition(eigenvalues=self.lam, eigenvectors=self.V)
        pair = cross_gram(dec_base, generalized_eig(self.ops_alt), self.ops_alt.M_band)
        return pair.lam_alt, pair.W


def operator_pair(dec_base, ops_alt):
    """The pair of the base eigenpairs and the alt pencil (K~, M), held as
    lower bands on the base's mass matrix.

    ``lam_alt`` comes from LAPACK dsbgvd without vectors. Gram blocks with
    2b a positive integer read only V and the bands; the alt eigenvectors
    are computed only if another exponent needs W. Raises
    ParameterError if the pencil's size is not the base's, and
    AssemblyIntegrityError if the alt pencil has a nonpositive eigenvalue.
    """
    _require_same_size(len(dec_base.eigenvalues), ops_alt.K_band.shape[1], "alt pencil")
    lam_alt = _dsbgvd_eigenvalues(ops_alt.K_band, ops_alt.M_band)
    _require_positive(lam_alt)
    return OperatorPair(
        lam=dec_base.eigenvalues, lam_alt=lam_alt, V=dec_base.eigenvectors, ops_alt=ops_alt
    )


def cross_gram(dec_base, dec_alt, M_band):
    """Build the operator pair of two eigendecompositions, with W, and
    validate orthogonality of W.

    ``M_band`` is the common mass matrix as a lower band
    (``AssembledOperators.M_band``), applied as a band product. Both
    decompositions must be M-orthonormal on it; then W'W = I exactly in
    exact arithmetic. A max-norm deviation above 1e-6 (or NaN) indicates
    mismatched bases or a broken eigensolve. Each column block of W,
    V' (M V_alt[:, a:b]), is formed in W just before the check of the
    upper triangle of W'W reads it, so the call holds W and two
    N x _BLOCK buffers (``_identity_defect``), and no other N x N array.
    ParameterError, before any product, if the alt decomposition or the
    mass band is not of the base's size.
    """
    V, V_alt = dec_base.eigenvectors, dec_alt.eigenvectors
    _require_same_size(V.shape[0], V_alt.shape[0], "alt decomposition")
    _require_same_size(V.shape[0], M_band.shape[1], "mass band")
    W = np.empty((V.shape[1], V_alt.shape[1]), order="F")
    product, term = _block_buffer(V_alt), _block_buffer(V_alt)

    def w_columns(a, b):
        MV = band_matmul(M_band, V_alt[:, a:b], product[:, : b - a], term[:, : b - a])
        return scipy.linalg.blas.dgemm(1.0, V, MV, trans_a=1, c=W[:, a:b], overwrite_c=1)

    err = _identity_defect(W, w_columns, term)
    if not err <= 1e-6:
        raise NumericalIntegrityError(
            f"cross Gram matrix is not orthogonal: max |W'W - I| = {err:.3e}"
        )
    return OperatorPair(lam=dec_base.eigenvalues, lam_alt=dec_alt.eigenvalues, W=W)


def _require_same_size(n, n_alt, what):
    if n_alt != n:
        raise ParameterError(f"the {what} has size {n_alt}, the base has size {n}")


def _gram(pair, b, t, c=None):
    """Upper triangle of the leading t x t block of Lam^(-b) W Lam~^(2b)
    W' Lam^(-b) as Y'Y, less c^(2b) I if c is given (T).

    The lower triangle is left zero. Y'Y is symmetric and positive
    semidefinite by construction, and Y is scaled as it is formed, so
    its entries stay O(1) where Lam^(-2b) alone spans many decades. The
    block is formed over Y in place (``_gram_in_place``) and returned as
    the view of Y's first t rows, so the call holds one N x t array and
    one block of Y'Y at a time, not Y and the t x t block both.

    The route follows the exponent. When 2b = m is a positive integer
    and the pair holds V and the alt pencil, Y = R A^k V_t Lam_t^(-b)
    with A = M^-1 K~, k = floor(m/2) and R = L_M' (m even) or L_K~'
    (m odd), where M = L_M L_M' and K~ = L_K~ L_K~'. Then
    Y'Y = Lam_t^(-b) V_t' M A^m V_t Lam_t^(-b), which is the block, since
    M V~ Lam~^m V~' M = M A^m. L_M' A is L_M^-1 K~, so m = 2 is one band
    product and one unit-diagonal banded solve and scaling per block of
    columns (``_pencil_factor``). Each
    application of A is followed by a scaling by Lam_t^-1. Otherwise (the
    W route) Y = B_t' with B_t = (Lam^(-b) W Lam~^(b))[:t, :].

    DomainError, naming b, c and N, if an entry of the block (of T when
    c is given) or the sum of their squares is not finite in double
    precision; ``hs_curve`` sums the squares of T's eigenvalues. It is
    checked before any eigensolve reads the block.
    """
    n = len(pair.lam)
    m = 2.0 * b
    pencil = pair.V is not None and m >= 1.0 and _is_integer(m)
    if not pencil:
        lam_alt, W = pair._w_route
    with np.errstate(over="ignore", invalid="ignore"):
        if pencil:
            Y = _pencil_factor(pair, int(round(m)), t)
        else:
            # the entries of B' = (W[:t] Lam~^b)' Lam_t^(-b), product by product
            Y = np.multiply(W[:t].T, (lam_alt**b)[:, None], order="F")
            Y *= pair.lam[:t] ** (-b)
        G = _gram_in_place(Y)
        # a float64 power: an overflowing shift is inf, not an OverflowError
        G[np.diag_indices_from(G)] -= 0.0 if c is None else np.float64(c) ** m
        # not finite if an entry is, or if the squares that the block's
        # Frobenius norm and its spectrum's sum of squares add up overflow
        square_sum = np.einsum("ij,ij->", G, G)
    if not np.isfinite(square_sum):
        shift = "" if c is None else f" minus c^(2b) I with c = {float(c)}"
        raise DomainError(
            f"the Gram block of exponent {float(b)}{shift} overflows double precision "
            f"at N = {n}: an entry or the sum of their squares is not finite"
        )
    return G


def _gram_in_place(Y):
    """Overwrite the N x t factor Y (Fortran order, t <= N) with Y'Y and
    return Y[:t], its upper triangle; the rest of Y is zero.

    Column blocks (a, b) are formed from the last to the first, each as
    Y[:, :b]' Y[:, a:b] by one dgemm into the same buffer of t x
    min(t, _BLOCK) entries: a block reads only columns below b, which no
    earlier step has overwritten.
    """
    G = Y[: Y.shape[1]]
    buffer = _block_buffer(G)
    for a, b in reversed(_column_blocks(Y.shape[1])):
        block = scipy.linalg.blas.dgemm(
            1.0, Y[:, :b], Y[:, a:b], trans_a=1, c=_fortran_block(buffer, b, b - a), overwrite_c=1
        )
        square = block[a:b]
        square[np.tril_indices_from(square, -1)] = 0.0
        Y[:b, a:b] = block
        Y[b:, a:b] = 0.0
    return G


def _pencil_factor(pair, m, t):
    """The N x t factor Y = R A^k V_t Lam_t^(-m/2) of ``_gram``'s pencil
    route, formed by blocks of columns of V_t into one Fortran array.
    M and K~ are applied through the alt pencil's LDL' factors
    (``fem1d._BandLDL``); every solve works on a block that a band
    product or a scaling made, never on V.

    The scaling of V (odd m) and the last band product (even m) are
    written straight into Y's column block, and every band product sums
    its off-diagonal terms in one scratch block, so m <= 2 holds no array
    beside Y but that block; each further application of A makes one more
    block while it lasts.
    """
    k, odd = divmod(m, 2)
    ops = pair.ops_alt
    M = ops.M_factor
    inv = 1.0 / pair.lam[:t]
    Y = np.empty((pair.V.shape[0], t), order="F")
    scratch = _block_buffer(Y)
    for a, b in _column_blocks(t):
        Yb, term = Y[:, a:b], scratch[:, : b - a]
        X = np.multiply(pair.V[:, a:b], np.sqrt(inv[a:b]), out=Yb) if odd else pair.V[:, a:b]
        # the last A of an even m is fused with L_M' into L_M^-1 K~
        for _ in range(k - 1 + odd):
            X = M.solve(band_matmul(ops.K_band, X, scratch=term))
            X *= inv[a:b]
        if odd:
            Yb[...] = ops.K_factor.half_matmul(X, trans=True)
        else:
            # the solve and the scaling work on the contiguous block in place
            M.half_solve(band_matmul(ops.K_band, X, Yb, term))
            Yb *= inv[a:b]
    return Y


def t_operator(pair, gamma, c, truncation=None):
    """Defect matrix Lam^(-g) W Lam~^(2g) W' Lam^(-g) - c^(2g) I.

    Expressed in the eigenbasis of the base operator; gamma is the
    fractional comparison order and c the candidate proportionality
    constant between the operators. Formed by ``_gram`` as the Gram
    product Y'Y minus c^(2g) I, so it is exactly symmetric. With
    ``truncation`` t only the leading t x t block is formed; it is the
    view of the first t rows of the N x t array that held Y.
    """
    if not c > 0.0:
        raise ParameterError(f"c must be positive, got {c}")
    gamma = float(gamma)
    n = len(pair.lam)
    t = n if truncation is None else int(truncation)
    if not 1 <= t <= n:
        raise ParameterError(f"truncation must lie in [1, {n}], got {t}")
    T = _gram(pair, gamma, t, c)
    # mirror the upper triangle one row at a time, with no t x t temporary
    for i in range(1, t):
        T[i, :i] = T[:i, i]
    return T


# dsyevr(jobz, range, uplo, n, a, lda, vl, vu, il, iu, abstol, m, w, z,
#        ldz, isuppz, work, lwork, iwork, liwork, info) as
# scipy.linalg.cython_lapack declares it
_DSYEVR_SIGNATURE = (
    "void (char *, char *, char *, int *, {d} *, int *, {d} *, {d} *, int *, int *, "
    "{d} *, int *, {d} *, {d} *, int *, int *, {d} *, int *, int *, int *, int *)"
).format(d=_LAPACK_DOUBLE)


def _block_eigenvalues(A, t, uplo="L", restore=False):
    """Ascending eigenvalues of the symmetric leading block A[:t, :t],
    from LAPACK dsyevr without vectors on its ``uplo`` triangle, in A's
    own storage.

    A has unit row stride (it holds rows of a Fortran array), and dsyevr
    takes A's column stride as its leading dimension, so the block is
    not copied. The workspace is the optimal one that dsyevr's query
    returns, as ``scipy.linalg.eigvalsh`` takes it, so the eigenvalues
    are bit for bit those of eigvalsh on a contiguous copy. dsyevr
    overwrites the block's diagonal and ``uplo`` triangle and leaves the
    other triangle alone; with ``restore`` (uplo "L") the diagonal is put
    back from a copy and the lower triangle from the upper one, so A is
    unchanged. NumericalIntegrityError if dsyevr fails.
    """
    lda, rem = divmod(A.strides[1], A.itemsize)
    if not (A.dtype == np.float64 and A.strides[0] == A.itemsize and rem == 0
            and 1 <= t <= min(A.shape) and t <= lda):
        raise ValueError(f"dsyevr needs a float64 block of {t} x {t} with unit row stride")
    block = A[:t, :t]
    diagonal = np.diagonal(block).copy() if restore else None
    lwork, liwork, _ = scipy.linalg.lapack.dsyevr_lwork(t, lower=int(uplo == "L"))
    work = np.empty(int(lwork))
    iwork = np.empty(liwork, dtype=np.intc)
    ev = np.empty(t)
    unused = np.empty(1)  # z and isuppz, not referenced without vectors
    found, info = ctypes.c_int(0), ctypes.c_int(0)

    def ref(value, ctype=ctypes.c_int):
        return ctypes.byref(ctype(value))

    _lapack_routine("dsyevr", _DSYEVR_SIGNATURE)(
        b"N", b"A", uplo.encode(), ref(t), block.ctypes.data, ref(lda),
        ref(0.0, ctypes.c_double), ref(1.0, ctypes.c_double), ref(1), ref(t),
        ref(0.0, ctypes.c_double), ctypes.byref(found), ev.ctypes.data, unused.ctypes.data,
        ref(1), unused.ctypes.data, work.ctypes.data, ref(work.size), iwork.ctypes.data,
        ref(iwork.size), ctypes.byref(info),
    )
    if info.value != 0:
        raise NumericalIntegrityError(
            f"eigensolve of a {t} x {t} leading block failed (dsyevr info {info.value})"
        )
    if restore:
        block[np.diag_indices(t)] = diagonal
        for j in range(t - 1):
            block[j + 1 :, j] = block[j, j + 1 :]
    return ev


@dataclass(frozen=True)
class DiagnosticsReport:
    """Norms of leading blocks of the defect matrix over truncations. Its
    CSV and JSON forms repeat ``opnorm`` under the name ``smax`` and leave
    out ``spectra``, each truncation's ascending eigenvalues of T.

    ``classification`` is a coarse reading of the growth pattern:

    * ``HS_stable``: the Frobenius norm has saturated (relative change
      below 1% between the last two truncations) -- consistent with a
      Hilbert-Schmidt defect, i.e. equivalent measures;
    * ``non_compact``: the singular-value profile stays flat (the 90th
      percentile singular value remains at least 10% of the largest at
      every truncation) -- consistent with a bounded, non-compact
      defect, e.g. proportional-but-unequal operators;
    * ``compact_like``: anything else (decaying singular values whose
      Frobenius norm has not yet saturated).
    """

    gamma: float
    c: float
    truncations: Tuple[int, ...]
    frobenius: Tuple[float, ...]
    opnorm: Tuple[float, ...]
    smin: Tuple[float, ...]
    tail_ratio: Tuple[float, ...]
    classification: str
    spectra: Tuple[np.ndarray, ...] = field(default=(), compare=False, repr=False)

    def write_csv(self, path):
        write_csv(
            path,
            {
                "truncation": self.truncations,
                "frobenius": self.frobenius,
                "opnorm": self.opnorm,
                "smin": self.smin,
                "smax": self.opnorm,
            },
        )

    def to_dict(self):
        return {**dataclasses.asdict(self, dict_factory=_json_dict), "smax": list(self.opnorm)}

    def cm_constants(self, beta, truncation):
        """``cm_equivalence_constants(pair, beta, truncation)`` as T's
        extreme eigenvalues plus s = c^(2g), with no Gram product or
        eigensolve, or None. They err by a few units of roundoff times
        max(hi, s), so they are given only at beta = gamma with s <= hi
        (T's top eigenvalue nonnegative), where a fresh solve errs as much.
        """
        if not beta > 0.25:
            raise ParameterError(f"beta must exceed 1/4, got {beta}")
        ev = dict(zip(self.truncations, self.spectra)).get(int(truncation))
        if float(beta) != self.gamma or ev is None or ev[-1] < 0.0:
            return None
        shift = self.c ** (2.0 * self.gamma)  # finite, as T is
        return max(float(ev[0] + shift), 0.0), float(ev[-1] + shift)


def hs_curve(pair, gamma, c, truncations):
    """Norm growth of leading blocks of the defect matrix.

    ``truncations`` must be strictly increasing and fit the pencil size.
    Classification precedence: Frobenius saturation is checked first
    (HS_stable), then a persistently flat singular-value profile
    (non_compact); everything else is compact_like.

    Only the leading block of T that the largest truncation needs is
    formed. Every truncation's block is eigensolved in T's storage
    (``_block_eigenvalues``): each smaller one is restored afterwards for
    the next, and the largest is left overwritten, so no block is
    copied. Each block's ascending eigenvalues go into the report's
    ``spectra``, for ``DiagnosticsReport.cm_constants``.
    """
    truncs = tuple(int(t) for t in truncations)
    n = len(pair.lam)
    if len(truncs) < 2:
        raise ParameterError("need at least two truncations to classify growth")
    if min(truncs) < 2:
        raise ParameterError(f"truncations must be at least 2, got {truncs}")
    if any(truncs[i] >= truncs[i + 1] for i in range(len(truncs) - 1)):
        raise ParameterError(f"truncations must be strictly increasing, got {truncs}")
    if truncs[-1] > n:
        raise ParameterError(f"largest truncation {truncs[-1]} exceeds pencil size {n}")

    T = t_operator(pair, gamma, c, truncs[-1])
    spectra, fro, opn, smin, tail = [], [], [], [], []
    for t in truncs:
        # T is exactly symmetric (t_operator mirrors one triangle), so its
        # singular values are its absolute eigenvalues, found without an
        # SVD; nothing reads T after the largest block, which is left
        # overwritten
        ev = _block_eigenvalues(T, t, restore=t != truncs[-1])
        spectra.append(ev)
        sv = np.sort(np.abs(ev))[::-1]
        fro.append(float(np.sqrt(np.sum(sv * sv))))
        opn.append(float(sv[0]))
        smin.append(float(sv[-1]))
        k = min(int(math.ceil(0.9 * t)) - 1, t - 1)
        tail.append(float(sv[k] / sv[0]) if sv[0] > 0.0 else 0.0)

    if fro[-1] < 1e-12 or abs(fro[-1] - fro[-2]) < 0.01 * fro[-1]:
        classification = "HS_stable"
    elif all(r >= 0.10 for r in tail):
        classification = "non_compact"
    else:
        classification = "compact_like"

    return DiagnosticsReport(
        gamma=float(gamma),
        c=float(c),
        truncations=truncs,
        frobenius=tuple(fro),
        opnorm=tuple(opn),
        smin=tuple(smin),
        tail_ratio=tuple(tail),
        classification=classification,
        spectra=tuple(spectra),
    )


def cm_equivalence_constants(pair, beta, truncation=None):
    """Extreme eigenvalues of Lam^(-b) W Lam~^(2b) W' Lam^(-b).

    These bound the ratio of the two squared Cameron-Martin norms on the
    truncated space: both staying in a fixed positive interval as the
    truncation grows is the discrete signature of isomorphic spaces;
    drift toward 0 or infinity signals failure.

    The leading t x t block is formed as the Gram product Y'Y of
    ``_gram``, and its extreme eigenvalues come from a symmetric
    eigensolve of its upper triangle in place. Y is scaled as it is
    formed, so no entry carries the dynamic range of Lam^(-2b). Both
    constants are accurate to a few units of roundoff relative to the
    larger one, so a lower constant far below that level reads as noise.
    The Gram matrix is positive semidefinite, and a lower constant that
    roundoff pushes below zero is returned as 0. Every call forms and
    eigensolves its block (``DiagnosticsReport.cm_constants`` does not).

    Caution: at high beta the constants at truncations near the full dof
    count reflect the top of the *discrete* spectrum, whose eigenpairs
    are poor approximations of the continuum ones; read only truncations
    up to about half the dof count as continuum-faithful.
    """
    if not beta > 0.25:
        raise ParameterError(f"beta must exceed 1/4, got {beta}")
    n = len(pair.lam)
    t = n if truncation is None else int(truncation)
    if not 2 <= t <= n:
        raise ParameterError(f"truncation must lie in [2, {n}], got {t}")
    ev = _block_eigenvalues(_gram(pair, beta, t), t, uplo="U")
    return max(0.0, float(ev[0])), float(ev[-1])


# -- decision rules -----------------------------------------------------


_EXCEPTION_TOL = 1e-9


def _check_admissible_exponent(beta, label):
    if not beta > 0.25:
        raise ParameterError(f"{label} must exceed 1/4, got {beta}")
    frac = beta - math.floor(beta)
    if abs(frac - 0.25) < _EXCEPTION_TOL:
        raise ParameterError(
            f"{label} = {beta} lies in the exceptional set {{k + 1/4 : k integer}} "
            "where the interval classification switches; perturb the exponent"
        )


def _regime(beta):
    """0: (1/4,5/4), 1: (5/4,9/4), 2: (9/4,13/4), 3: above 13/4."""
    if beta < 1.25:
        return 0
    if beta < 2.25:
        return 1
    if beta < 3.25:
        return 2
    return 3


@dataclass(frozen=True)
class VerdictInput:
    """Exact structural data about a pair of models.

    ``a_relation`` describes how the diffusion coefficients relate:
    "equal", "proportional" (with ``a_ratio`` = a_alt/a_base constant),
    or "different". ``kappa2_boundary_*`` hold (value at 0, value at 1,
    derivative at 0, derivative at 1) of each reaction coefficient --
    needed only once the exponent regime brings boundary conditions into
    play. ``mean_diff_in_cm`` may be None for "unknown" (treated as
    satisfied, with a note). ``kappa2_equal`` matters only for measure
    equivalence in dimension >= 4; ``higher_traces_zero`` only above the
    third regime boundary.
    """

    d: int
    beta: float
    beta_alt: float
    a_relation: str
    a_ratio: float = 1.0
    kappa2_boundary_base: Optional[Tuple[float, float, float, float]] = None
    kappa2_boundary_alt: Optional[Tuple[float, float, float, float]] = None
    mean_diff_in_cm: Optional[bool] = None
    kappa2_equal: Optional[bool] = None
    higher_traces_zero: Optional[bool] = None

    def __post_init__(self):
        if not (isinstance(self.d, (int, np.integer)) and self.d >= 1):
            raise ParameterError(f"dimension must be a positive integer, got {self.d!r}")
        if self.a_relation not in ("equal", "proportional", "different"):
            raise ParameterError(
                f"a_relation must be 'equal', 'proportional' or 'different', got {self.a_relation!r}"
            )
        if not self.a_ratio > 0.0:
            raise ParameterError(f"a_ratio must be positive, got {self.a_ratio}")
        if self.a_relation == "equal" and self.a_ratio != 1.0:
            raise ParameterError("a_relation 'equal' requires a_ratio == 1")


@dataclass(frozen=True)
class Verdict:
    """Outcome of the structural decision rules, with explanatory notes."""

    cm_isomorphic: bool
    measures_equivalent: bool
    asympt_optimal: bool
    notes: Tuple[str, ...] = ()

    def to_dict(self):
        return dataclasses.asdict(self, dict_factory=_json_dict)


def _boundary_slope_zero(vin):
    """Do the endpoint slopes of kappa2_alt - c*kappa2_base vanish, c = a_ratio?"""
    if vin.kappa2_boundary_base is None or vin.kappa2_boundary_alt is None:
        raise DataError(
            "reaction boundary data (value and slope at both endpoints) are "
            "required in this exponent regime"
        )
    c = vin.a_ratio
    _, _, p0, p1 = vin.kappa2_boundary_base
    _, _, q0, q1 = vin.kappa2_boundary_alt
    ok0 = abs(q0 - c * p0) <= 1e-9 * max(abs(q0), abs(c * p0), 1.0)
    ok1 = abs(q1 - c * p1) <= 1e-9 * max(abs(q1), abs(c * p1), 1.0)
    return ok0 and ok1


def table1_verdict(vin):
    """Structural verdict on a model pair: Cameron-Martin isomorphism,
    measure equivalence, asymptotic optimality of misspecified kriging.

    The rules depend on the exponent regime (quarter-integer breakpoints
    at 5/4, 9/4, 13/4), on how the diffusions relate, and -- in the
    higher regimes -- on one boundary condition on the reaction
    difference kappa2_alt - c*kappa2_base, c the diffusion ratio.
    Exponents in {k + 1/4} are rejected as inadmissible. Unknown mean
    information is treated as satisfied with a note; a mean difference
    known to fall outside the common Cameron-Martin space rules out both
    measure equivalence and optimality.
    """
    _check_admissible_exponent(vin.beta, "beta")
    _check_admissible_exponent(vin.beta_alt, "beta_alt")
    if vin.beta <= vin.d / 4.0 or vin.beta_alt <= vin.d / 4.0:
        raise ParameterError(
            f"exponents must exceed d/4 = {vin.d / 4.0} for function-valued fields"
        )
    if abs(vin.beta - vin.beta_alt) > 1e-12:
        notes = ("exponents differ: no isomorphism, equivalence or optimality",)
        return Verdict(False, False, False, notes)
    regime = _regime(vin.beta)
    notes = []

    # the mean difference gates measures and optimality only
    mean_ok = vin.mean_diff_in_cm is None or bool(vin.mean_diff_in_cm)
    if vin.mean_diff_in_cm is None:
        notes.append(
            "mean difference not supplied; assumed to lie in the common "
            "Cameron-Martin space"
        )
    elif not mean_ok:
        notes.append("mean difference falls outside the common Cameron-Martin space")

    # the boundary condition; non-proportional diffusions fail every
    # property that reads it, so it is not evaluated for them
    equal = vin.a_relation == "equal"
    proportional = vin.a_relation != "different"
    boundary = True
    if not proportional and regime > 0:
        notes.append(
            "diffusions differ non-proportionally: boundary compatibility "
            "cannot be certified from the available data; reporting "
            "non-isomorphic conservatively"
        )
    elif proportional and regime >= 2:
        boundary = _boundary_slope_zero(vin)
        if not boundary:
            notes.append("endpoint slope of the reaction difference does not vanish")
        elif regime >= 3:
            if vin.higher_traces_zero is None:
                raise DataError(
                    "higher-order boundary trace information required for "
                    "exponents above 13/4"
                )
            boundary = vin.higher_traces_zero
            if not boundary:
                notes.append("higher-order boundary traces do not vanish")

    cm = regime == 0 or (proportional and boundary)
    measures = equal and mean_ok and boundary
    if not equal:
        notes.append("measure equivalence needs identical diffusions")
    elif measures and vin.d >= 4:
        if vin.kappa2_equal is None:
            raise DataError(
                "in dimension >= 4 measure equivalence additionally needs "
                "to know whether the reaction coefficients are identical"
            )
        measures = vin.kappa2_equal
        if not measures:
            notes.append("in dimension >= 4 equivalence needs identical reactions")
    optimal = proportional and mean_ok and boundary
    if not proportional:
        notes.append("optimality needs proportional diffusions")
    return Verdict(bool(cm), bool(measures), bool(optimal), tuple(notes))


def verdict_input_from_models(base, alt, d=1, mean_diff_in_cm=None,
                              higher_traces_zero=None):
    """Derive the boundary and relation data for two concrete models.

    The diffusion relation is classified on a fine grid: the ratio
    a_alt/a_base is evaluated at 1001 points and counted as constant
    (``proportional``, or ``equal`` when the constant is one) if its
    variation about the mean stays below a 1e-9 relative tolerance.
    Reaction boundary values and one-sided slopes come from the exact
    coefficient derivatives, not from finite differences.

    ``mean_diff_in_cm`` and ``higher_traces_zero`` cannot be read off a
    coefficient pair and are passed through unchanged (``None`` leaves
    the corresponding check open, see table1_verdict).
    """
    from .model_config import eval_coefficient, eval_coefficient_derivative

    grid = np.linspace(0.0, 1.0, 1001)
    a_base = eval_coefficient(base.a, grid)
    a_alt = eval_coefficient(alt.a, grid)
    ratio = a_alt / a_base
    rbar = float(np.mean(ratio))
    if float(np.max(np.abs(ratio - rbar))) <= 1e-9 * abs(rbar):
        if abs(rbar - 1.0) <= 1e-9:
            a_relation, a_ratio = "equal", 1.0
        else:
            a_relation, a_ratio = "proportional", rbar
    else:
        a_relation, a_ratio = "different", 1.0

    k_base = eval_coefficient(base.kappa2, grid)
    k_alt = eval_coefficient(alt.kappa2, grid)
    k_scale = max(float(np.max(np.abs(k_base))), float(np.max(np.abs(k_alt))), 1.0)
    kappa2_equal = bool(float(np.max(np.abs(k_alt - k_base))) <= 1e-12 * k_scale)

    def boundary(model):
        return (
            float(eval_coefficient(model.kappa2, 0.0)),
            float(eval_coefficient(model.kappa2, 1.0)),
            float(eval_coefficient_derivative(model.kappa2, 0.0)),
            float(eval_coefficient_derivative(model.kappa2, 1.0)),
        )

    return VerdictInput(
        d=d,
        beta=base.beta,
        beta_alt=alt.beta,
        a_relation=a_relation,
        a_ratio=a_ratio,
        kappa2_boundary_base=boundary(base),
        kappa2_boundary_alt=boundary(alt),
        mean_diff_in_cm=mean_diff_in_cm,
        kappa2_equal=kappa2_equal,
        higher_traces_zero=higher_traces_zero,
    )
