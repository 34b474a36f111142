"""Spectral machinery: eigenpairs, covariance square roots, fractional powers.

Each of two independent routes builds a square root F of the Galerkin
weight covariance, C = F F', as a CovarianceFactor, the package's one
covariance object; every consumer works from F: a draw is F z and an
observation covariance is G'G with G = F' Phi'. The dense C is formed
only on request, by covariance_weights, for either route. The direct
route serves every beta for which s = 2 beta / q is a positive integer,
K being the matrix of the q-th operator-power form: then the covariance
tau^2 A^(-2 beta) of the pencil is exactly tau^2 (K^-1 M)^(s-1) K^-1,
the precision recursion of Lindgren, Rue & Lindstrom (2011), and
F = tau (K^-1 M)^floor((s-1)/2) R with R = L_K^-T for odd s and
R = K^-1 L_M for even s (M = L_M L_M'; the Galerkin load of white noise
has covariance M). beta in {1, 2, 3} on its power form is s = 2,
F = tau K^-1 L_M; half-integer beta on a_L is odd s. K and M are held
as (p+1, N) lower bands (see :mod:`wmlab.fem1d`), each factored once as
stored into unit-lower LDL' factors, A = U D U' and L = U D^(1/2):
K^-1 X = U^-T D^-1 U^-1 X and L_K^-T X = U^-T D^(-1/2) X are unit-diagonal
banded solves, which never divide (a tridiagonal K^-1 X is one LAPACK
dpttrs on U and D), and L_M X is one BLAS dtbmv per column, so F X
costs O(N p s) per column. The spectral route,
left to genuinely fractional beta, diagonalizes the (K, M) pencil,
F = tau V Lambda^(-beta).
A tridiagonal pencil (piecewise-linear basis), of any order, is
diagonalized as stored: eigenvalues by LAPACK dsbgvd without vectors,
eigenvectors by inverse iteration on the tridiagonal K - sigma M, in
O(N^2) time. Wider pencils are expanded into dense matrices for a dense
eigensolve, the one place the bands are expanded. Agreement of the two
routes is a strong end-to-end check and is part of the test suite;
library code never substitutes one for the other.

For fractional powers of a single SPD matrix an exponentially convergent
sinc quadrature of the Balakrishnan integral

    A^(-theta) = sin(pi theta)/pi * Int_0^inf t^(-theta) (t I + A)^(-1) dt

is provided, with the substitution t = e^y and uniform step chosen to
balance discretization against truncation error.
"""

import ctypes
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg
from scipy.linalg import cython_lapack

from .errors import (
    AssemblyIntegrityError,
    DomainError,
    NumericalIntegrityError,
    ParameterError,
)
from .fem1d import band_matmul, dense
from .model_config import _is_integer

__all__ = [
    "SpectralDecomposition",
    "generalized_eig",
    "CovarianceFactor",
    "covariance_weights",
    "direct_factor",
    "spectral_factor",
    "balakrishnan_fractional_inverse",
    "sample_field",
]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenpairs of a symmetric pencil (K, M): K v = lambda M v.

    ``eigenvalues`` ascend and are strictly positive; ``eigenvectors``
    holds the corresponding columns, M-orthonormal to within 1e-8 in the
    max norm (validated at construction time by :func:`generalized_eig`).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


# Tridiagonal (bandwidth 1) pencils are diagonalized in band storage:
# LAPACK dsbgvd without vectors for the eigenvalues (3N of work), then
# inverse iteration on K - sigma_j M for each vector. dsbgvd's own
# vectors cost O(N^3), since its reduction updates an N x N
# transformation with level-1 BLAS, and a 1 + 5N + 2N^2 workspace.
# generalized_eig on builtin piecewise-linear pencils, 2-core Xeon VM,
# 2 BLAS threads: 0.25 s at N = 1200 and 0.69-0.92 s at N = 2000, where
# the same steps with dsbgvd's vectors took 0.41-0.74 s and 2.2-3.1 s;
# 1.9-2.5 s at N = 4000, where the dense eigh took 15.0 s: 0.3 s for
# the eigenvalues, 0.8-0.9 s for the vectors and 0.85-1.3 s for one pass
# over column blocks (_identity_defect) that forms each block's M V once
# for its Rayleigh quotients and the M-orthonormality check (2.35-3.0 s
# in all with a pass for each). The call holds no N x N array besides
# the vectors. Wider pencils stay dense: at N = 1200 dsbgvd took 1.8x
# (bandwidth 2) and 2.6x (bandwidth 3) the dense time.
#
# A vector computed by inverse iteration errs toward the eigenvector of
# eigenvalue lambda_i by about eps lambda_max / |lambda_j - lambda_i|
# (Ipsen, SIAM Review 1997). Each vector is therefore M-orthogonalized
# against its predecessors within _CLOSE_GAP lambda_max of its eigenvalue,
# as LAPACK dstein does within clusters; its threshold of 1e-3 of the
# norm would make one cluster of most of a discretized spectrum. At
# N = 1200 that touches at most 16 predecessors of 95-150 vectors, at the
# two ends of the spectrum, and takes the M-orthonormality defect from
# 1.4-2.9e-12 to at most 4.3e-13; at N = 4000 it is 7.5e-13.
_CLOSE_GAP = 1e-4

_LAPACK_DOUBLE = "__pyx_t_5scipy_6linalg_13cython_lapack_d"
# dsbgvd(jobz, uplo, n, ka, kb, ab, ldab, bb, ldbb, w, z, ldz, work,
#        lwork, iwork, liwork, info) as scipy.linalg.cython_lapack declares it
_DSBGVD_SIGNATURE = (
    "void (char *, char *, int *, int *, int *, {d} *, int *, {d} *, int *, {d} *, "
    "{d} *, int *, {d} *, int *, int *, int *, int *)"
).format(d=_LAPACK_DOUBLE)

_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi)
)
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi)
)


@functools.lru_cache(maxsize=None)
def _lapack_routine(name, signature):
    """The LAPACK routine that scipy.linalg.cython_lapack exports as a C
    function capsule, as a ctypes function taking one pointer per argument.

    The capsule's name is the routine's C signature; a RuntimeError is
    raised, and nothing called, unless it equals ``signature``.
    """
    capsule = cython_lapack.__pyx_capi__[name]
    found = _capsule_name(capsule)
    if found.decode() != signature:
        raise RuntimeError(
            f"scipy.linalg.cython_lapack.{name} has signature {found.decode()!r}, "
            f"expected {signature!r}"
        )
    address = _capsule_pointer(capsule, found)
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * (signature.count(",") + 1))(address)


def _dsbgvd_eigenvalues(K_band, M_band):
    """Ascending eigenvalues of the pencil held as lower bands, from LAPACK
    dsbgvd without vectors.

    dsbgvd reduces the pencil to a standard tridiagonal problem without
    leaving band storage (split Cholesky factor of M, band-preserving
    congruence) and solves that. It overwrites its bands, so they are
    copied, Fortran-ordered.
    """
    n = K_band.shape[1]
    ka, kb = K_band.shape[0] - 1, M_band.shape[0] - 1
    ab = np.array(K_band, order="F")
    bb = np.array(M_band, order="F")
    lam = np.empty(n)
    unused = np.empty(1)  # z and iwork; without vectors only iwork(1) is set
    work = np.empty(3 * n)
    info = ctypes.c_int(0)

    def integer(value):
        return ctypes.byref(ctypes.c_int(value))

    _lapack_routine("dsbgvd", _DSBGVD_SIGNATURE)(
        b"N", b"L", integer(n), integer(ka), integer(kb), ab.ctypes.data, integer(ka + 1),
        bb.ctypes.data, integer(kb + 1), lam.ctypes.data, unused.ctypes.data, integer(1),
        work.ctypes.data, integer(work.size), unused.ctypes.data, integer(1),
        ctypes.byref(info),
    )
    if info.value > n:
        raise AssemblyIntegrityError(
            f"generalized eigensolve failed: mass matrix is not positive definite "
            f"(dsbgvd info {info.value})"
        )
    if info.value != 0:
        raise AssemblyIntegrityError(
            f"generalized eigensolve failed: dsbgvd did not converge (info {info.value})"
        )
    return lam


def _tridiagonal_eigenvectors(K_band, M_band, lam):
    """Eigenvectors of the tridiagonal pencil held as lower bands, one
    column per eigenvalue in ``lam`` (ascending), by inverse iteration.

    For each lambda_j, K - sigma M with sigma = lambda_j (1 + 1e-14), just
    above lambda_j so that it is rarely exactly singular, is factored once
    by LAPACK dgttrf (LU with partial pivoting), and two steps
    x <- (K - sigma M)^-1 M x are taken from a fixed start vector.
    The vector is then M-orthogonalized against its predecessors within
    _CLOSE_GAP lambda_max, which are M-normalized for that; the other
    columns are left unnormalized.
    """
    n = K_band.shape[1]
    k0, k1 = K_band[0], K_band[1, :-1]
    m0, m1 = M_band[0], M_band[1, :-1]
    # a fixed pseudo-random start has a component along every eigenvector,
    # where a symmetric one misses the antisymmetric modes of a symmetric
    # pencil
    start = band_matmul(M_band, np.random.default_rng(0).uniform(-1.0, 1.0, n))
    # first close predecessor of each vector, and whether the next vector
    # counts it among its close predecessors
    first = np.searchsorted(lam, lam - _CLOSE_GAP * lam[-1])
    neighbour = np.append(first[1:] < np.arange(1, n), False)
    gttrf, gttrs = scipy.linalg.lapack.dgttrf, scipy.linalg.lapack.dgttrs
    dgemv, ddot = scipy.linalg.blas.dgemv, scipy.linalg.blas.ddot
    vec = np.empty((n, n), order="F")
    for j in range(n):
        sigma = lam[j] * (1.0 + 1e-14)
        sub = k1 - sigma * m1
        *lu, info = gttrf(sub, k0 - sigma * m0, sub.copy(),
                          overwrite_dl=1, overwrite_d=1, overwrite_du=1)
        if info:
            # sigma is an eigenvalue to working precision and U has an
            # exact zero pivot: a pivot of roundoff size instead, as
            # LAPACK's dlagts perturbs small pivots, makes each solve
            # return the null direction, growing it by about 1/eps
            d = lu[1]
            d[d == 0.0] = np.finfo(float).eps * np.max(np.abs(d))
        x = gttrs(*lu, start)[0]
        x = gttrs(*lu, band_matmul(M_band, x), overwrite_b=1)[0]
        if first[j] < j:
            close = vec[:, first[j]:j]
            coef = dgemv(1.0, close, band_matmul(M_band, x), trans=1)
            x = dgemv(-1.0, close, coef, beta=1.0, y=x, overwrite_y=1)
        if neighbour[j]:
            x /= math.sqrt(ddot(x, band_matmul(M_band, x)))
        vec[:, j] = x
    return vec


def generalized_eig(ops):
    """All eigenpairs of the assembled pencil, ascending and M-orthonormal.

    A tridiagonal pencil (``ops.bandwidth`` 1), of any order, is solved
    as stored: eigenvalues by LAPACK dsbgvd without vectors, vectors by
    inverse iteration with one tridiagonal LU factorization per
    eigenvalue (``_tridiagonal_eigenvectors``). Any other pencil goes to
    the dense symmetric-definite solver (Cholesky reduction of M
    followed by a standard symmetric eigensolve) on dense copies of the
    bands, which LAPACK overwrites. One pass over column blocks forms
    M V of each block once, takes a tridiagonal pencil's eigenvalues as
    the Rayleigh quotients of the block and M-normalizes it, and checks
    M-orthonormality. Raises AssemblyIntegrityError if M is not positive
    definite, the solver fails, or any eigenvalue is nonpositive, and
    NumericalIntegrityError if the vectors fail the M-orthonormality
    tolerance or are not finite.
    """
    if ops.bandwidth == 1:
        lam = _dsbgvd_eigenvalues(ops.K_band, ops.M_band)
        vec = _tridiagonal_eigenvectors(ops.K_band, ops.M_band, lam)
    else:
        try:
            lam, vec = scipy.linalg.eigh(
                dense(ops.K_band), dense(ops.M_band), overwrite_a=True, overwrite_b=True
            )
        except scipy.linalg.LinAlgError as exc:
            raise AssemblyIntegrityError(f"generalized eigensolve failed: {exc}") from exc
    # each band product of a block of the vectors is written into
    # product, its off-diagonal terms into term, which then holds the
    # block of V'MV in _identity_defect
    product, term = _block_buffer(vec), _block_buffer(vec)

    def m_columns(a, b):
        block, out, scratch = vec[:, a:b], product[:, : b - a], term[:, : b - a]
        if ops.bandwidth != 1:
            return band_matmul(ops.M_band, block, out, scratch)
        # dsbgvd's eigenvalues err by about eps * lambda_max, which at the
        # low end of a wide spectrum is coarse: 1.3e-10 relative for the
        # lowest at N = 1200 with constant coefficients 1 and 25, where the
        # dense solver errs by 7e-12. The Rayleigh quotients of the
        # vectors agree with the dense eigenvalues to 9e-12 there and to
        # 5.5e-13 on the builtin "41" pencils, and replace them in lam.
        numerators = np.einsum("ij,ij->j", block, band_matmul(ops.K_band, block, out, scratch))
        MV = band_matmul(ops.M_band, block, out, scratch)
        norms = np.einsum("ij,ij->j", block, MV)
        lam[a:b] = numerators / norms
        scale = 1.0 / np.sqrt(norms)
        block *= scale
        MV *= scale
        return MV

    err = _identity_defect(vec, m_columns, term)
    _require_positive(lam)
    # written so that a NaN defect fails too
    if not err <= 1e-8:
        raise NumericalIntegrityError(
            f"eigenvectors lost M-orthonormality: max deviation {err:.3e}"
        )
    return SpectralDecomposition(eigenvalues=lam, eigenvectors=vec)


def _require_positive(lam):
    """AssemblyIntegrityError unless the lowest of the ascending pencil
    eigenvalues ``lam`` is positive."""
    if lam[0] <= 0.0:
        raise AssemblyIntegrityError(
            f"pencil has nonpositive eigenvalue {lam[0]:.6g}; form matrix is not positive definite"
        )


# Passes over the columns of an N x N matrix that yield one number per
# column, or one defect, run over blocks of this many columns, so that
# their temporaries (a band product and its scratch, or a block of a Gram
# matrix) stay two N x _BLOCK arrays: half an N x N array from N = 4
# _BLOCK on. Each pass allocates its block buffers once and forms every
# block in them, so that no block's pages go back to the OS only to be
# faulted in again by the next block.
_BLOCK = 128


def _column_blocks(n):
    """(start, stop) of each block of _BLOCK columns among n."""
    return [(a, min(a + _BLOCK, n)) for a in range(0, n, _BLOCK)]


def _block_buffer(X):
    """An uninitialized Fortran array of X's rows and up to _BLOCK of its
    columns, whose leading columns hold a block of columns of X."""
    return np.empty((X.shape[0], min(_BLOCK, X.shape[1])), order="F")


def _fortran_block(buffer, rows, cols):
    """A rows x cols Fortran-ordered view of the leading entries of the
    Fortran array ``buffer``, contiguous as BLAS writes it."""
    return buffer.reshape(-1, order="F")[: rows * cols].reshape((rows, cols), order="F")


def _identity_defect(X, Y_columns, buffer):
    """max |X' Y - I| over the upper triangle of X' Y, by column blocks.

    ``Y_columns(a, b)`` returns columns a:b of Y. Both callers check a
    Gram matrix that is symmetric in exact arithmetic (V' M V and W' W),
    so block a:b forms only X[:, :b]' Y[:, a:b]: half the flops of the
    full X' Y. Each block is formed by one dgemm into ``buffer``, a
    ``_block_buffer(X)``. Block a:b reads X and ``buffer`` only after
    ``Y_columns(a, b)`` has returned, so the callback may use the buffer
    as scratch and may finish X's own block a:b (compute or scale those
    columns) as it forms the columns of Y. The block maxima are combined
    by np.max, so a NaN anywhere in the upper triangle gives a NaN defect.
    """
    maxima = []
    for a, b in _column_blocks(X.shape[1]):
        gram = scipy.linalg.blas.dgemm(
            1.0, X[:, :b], Y_columns(a, b), trans_a=1, c=_fortran_block(buffer, b, b - a),
            overwrite_c=1,
        )
        square = gram[a:b]
        square[np.diag_indices_from(square)] -= 1.0
        square[np.tril_indices_from(square, -1)] = 0.0
        maxima.append(np.max(np.abs(gram, out=gram)))
    return float(np.max(maxima))


@dataclass(frozen=True)
class CovarianceFactor:
    """Square root F of a weight covariance, C = F F'.

    ``dot(X)`` is F X and ``tdot(X)`` is F' X for X of shape (n,) or
    (n, m). Built by :func:`direct_factor` or :func:`spectral_factor`.
    """

    n: int
    dot: Callable
    tdot: Callable


def covariance_weights(factor):
    """Dense weight covariance C = F F' of a factor, for either route.

    F is formed as F I, an O(n^3) product even for a dense spectral F;
    no command needs C, so this serves tests and library callers.
    """
    F = factor.dot(np.eye(factor.n))
    return F @ F.T


def spectral_factor(decomposition, beta, tau):
    """Spectral-route square root F = tau V diag(lambda^(-beta)), dense.

    F is formed in a copy of the eigenvectors, with the sign rule of
    ``_spectral_factor``; the decomposition is not changed.
    """
    return _spectral_factor(
        decomposition.eigenvalues, np.copy(decomposition.eigenvectors, order="K"), beta, tau
    )


def _spectral_factor(lam, V, beta, tau):
    """The factor of ``spectral_factor`` formed over V in place, for a
    caller that owns the eigenvectors V: they become F.

    LAPACK picks each eigenvector's sign freely, so a roundoff change in
    the pencil could flip modes and change every draw. Column v_j gets
    the sign with <v_j, (1, 2, ..., n)> >= 0; a largest-entry rule would
    tie on antisymmetric modes, whose extreme entries have equal
    magnitude.
    """
    if not beta > 0.25:
        raise ParameterError(f"beta must exceed 1/4, got {beta}")
    if not tau > 0.0:
        raise ParameterError(f"tau must be positive, got {tau}")
    sign = np.where(np.arange(1, V.shape[0] + 1) @ V < 0.0, -1.0, 1.0)
    F = V
    # a weight beyond the double range is inf, and F then holds infinities
    # or NaN; sample_field refuses such draws
    with np.errstate(over="ignore", invalid="ignore"):
        F *= sign * tau * lam ** (-beta)

    def tdot(X):
        if np.ndim(X) == 1:
            return scipy.linalg.blas.dgemv(1.0, F, X, trans=1)
        return scipy.linalg.blas.dgemm(1.0, F, X, trans_a=1)

    # a draw is one matrix-vector product, whose bits each draw keeps
    return CovarianceFactor(n=F.shape[0], dot=functools.partial(np.matmul, F), tdot=tdot)


# Operator power q that each form discretizes ("a2" is A^2, and so on).
_FORM_ORDER = {"a_L": 1, "a2": 2, "a3": 3}


def direct_factor(ops, beta, tau):
    """Direct-route square root F of C = tau^2 (K^-1 M)^(s-1) K^-1, banded.

    K is the form matrix of the q-th operator power (``ops.form_order``
    "a_L", "a2", "a3" for q = 1, 2, 3), and s = 2 beta / q must be a
    positive integer: then C is exactly the spectral route's
    tau^2 V Lambda^(-2 beta / q) V', with no eigenpairs. With
    K = L_K L_K' and M = L_M L_M',

        F = tau (K^-1 M)^floor((s-1)/2) R,  R = L_K^-T (odd s), K^-1 L_M (even s).

    beta = q (s = 2) is the power forms' F = tau K^-1 L_M. K and M are
    applied through their unit-lower LDL' factors ``ops.K_factor`` and
    ``ops.M_factor`` (``fem1d._BandLDL``), so F X costs O(N p s) per
    column. ``dot`` and ``tdot`` copy X once
    into a Fortran array of their own and work on it in place.
    ConditioningError if K or M is not positive definite.
    """
    q = _FORM_ORDER[ops.form_order]
    s = 2.0 * beta / q
    if not (s >= 1.0 and _is_integer(s)):
        raise ParameterError(
            f"direct covariance route needs 2*beta/q a positive integer; form "
            f"{ops.form_order!r} has q = {q}, got beta={beta}"
        )
    if not tau > 0.0:
        raise ParameterError(f"tau must be positive, got {tau}")
    K, M = ops.K_factor, ops.M_factor
    s = int(round(s))

    def dot(X):
        X = np.array(X, dtype=np.float64, order="F")
        X = K.half_solve(X, trans=True) if s % 2 else K.solve(M.half_matmul(X))
        for _ in range((s - 1) // 2):
            X = K.solve(band_matmul(ops.M_band, X))
        X *= tau
        return X

    def tdot(X):
        X = np.array(X, dtype=np.float64, order="F")
        for _ in range((s - 1) // 2):
            X = band_matmul(ops.M_band, K.solve(X))
        X = K.half_solve(X) if s % 2 else M.half_matmul(K.solve(X), trans=True)
        X *= tau
        return X

    return CovarianceFactor(n=ops.K_band.shape[1], dot=dot, tdot=tdot)


def balakrishnan_fractional_inverse(A, theta, levels=40):
    """A^(-theta) for symmetric positive definite A, theta in (0, 1).

    Sinc quadrature of the Balakrishnan integral after t = e^y:

        A^(-theta) ~= (sin(pi theta)/pi) * k *
                      sum_{m=-levels}^{levels} e^((1-theta) y_m) (e^(y_m) I + A)^(-1)

    with y_m = ybar + m k centered at the log of the geometric mean of
    the extreme eigenvalues and step k = pi * sqrt(2/(sigma*levels)),
    sigma = min(theta, 1-theta). The error decays like
    exp(-pi sqrt(2 sigma levels)); levels=40 reaches ~1e-8 relative
    accuracy at theta = 1/2, levels=80 well below 1e-10.

    Each resolvent is solved as a dense linear system; the spectral
    decomposition of A is used only to center the quadrature, so this
    route is genuinely independent of eigenvector accuracy.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ParameterError(f"A must be square, got shape {A.shape}")
    if not 0.0 < theta < 1.0:
        raise ParameterError(f"theta must lie in (0, 1), got {theta}")
    if not isinstance(levels, (int, np.integer)) or levels < 1:
        raise ParameterError(f"levels must be a positive integer, got {levels!r}")
    nrm = np.max(np.abs(A))
    if np.max(np.abs(A - A.T)) > 1e-12 * max(nrm, 1.0):
        raise ParameterError("A must be symmetric")
    ev = scipy.linalg.eigvalsh(A)
    if ev[0] <= 0.0:
        raise ParameterError(
            f"A must be positive definite; smallest eigenvalue {ev[0]:.6g}"
        )
    sigma = min(theta, 1.0 - theta)
    k = math.pi * math.sqrt(2.0 / (sigma * levels))
    ybar = 0.5 * (math.log(ev[0]) + math.log(ev[-1]))
    n = A.shape[0]
    eye = np.eye(n)
    out = np.zeros_like(A)
    for m in range(-int(levels), int(levels) + 1):
        y = ybar + m * k
        t = math.exp(y)
        out += math.exp((1.0 - theta) * y) * np.linalg.solve(t * eye + A, eye)
    out *= k * math.sin(math.pi * theta) / math.pi
    return 0.5 * (out + out.T)


def sample_field(factor, seed, n_samples):
    """Draw weight vectors F z_i with covariance F F', columnwise.

    z_i comes from a counter-based generator keyed by (seed, i) and each
    draw is its own product F z_i, so each draw is bit-reproducible on its
    own: results do not depend on how many samples are drawn, in which
    order, or from which thread. Draws whose largest magnitude is below
    the smallest normal double raise DomainError: they are zero or
    subnormal, holding fewer digits than a double, only when F underflowed.
    So do draws holding an infinity or a NaN, which F overflowed into.
    """
    if not isinstance(n_samples, (int, np.integer)) or n_samples < 1:
        raise ParameterError(f"n_samples must be a positive integer, got {n_samples!r}")
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ParameterError("seed must fit in an unsigned 64-bit integer")
    out = np.empty((factor.n, int(n_samples)))
    with np.errstate(over="ignore", invalid="ignore"):  # such draws are refused below
        for i in range(int(n_samples)):
            bitgen = np.random.Philox(key=np.array([seed, i], dtype=np.uint64))
            out[:, i] = factor.dot(np.random.Generator(bitgen).standard_normal(factor.n))
    largest = max(out.max(), -out.min())  # NaN if any weight is NaN
    if not np.finfo(float).tiny <= largest < np.inf:
        if largest < np.inf:
            what, flow = "every drawn weight is zero or subnormal", "underflowed"
        else:
            what, flow = "a drawn weight is not finite", "overflowed"
        raise DomainError(
            f"{what} (largest magnitude {largest:.3g}): the covariance factor "
            f"{flow}; reduce beta or the scale of the model"
        )
    return out
