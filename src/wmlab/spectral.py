"""Spectral machinery: eigenpairs, covariance matrices, fractional powers.

Two independent routes to the Galerkin covariance are provided. The
spectral route diagonalizes the (K, M) pencil and applies the scalar
map ``lambda -> tau^2 lambda^(-2 beta)`` to the eigenvalues; the direct
route, available for beta in {1, 2, 3}, forms ``tau^2 * K^-1 M K^-1``
with K the matrix of the beta-th operator-power form. K and M have
bandwidth p (the spline order) and are assembled as (p+1, N) lower
bands (see :mod:`wmlab.fem1d`). The direct route factors the stored K
band by banded Cholesky and multiplies by M as a band product: a solve
costs O(N p) per right-hand side instead of the O(N^2) of a dense
factor. The spectral route's eigensolver is the one place that expands
the bands into dense matrices; its M-orthonormality check multiplies by
the M band. Agreement of the two routes is a strong end-to-end check and
is part of the test suite; library code never substitutes one for the
other.

For fractional powers of a single SPD matrix an exponentially convergent
sinc quadrature of the Balakrishnan integral

    A^(-theta) = sin(pi theta)/pi * Int_0^inf t^(-theta) (t I + A)^(-1) dt

is provided, with the substitution t = e^y and uniform step chosen to
balance discretization against truncation error.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    AssemblyIntegrityError,
    ConditioningError,
    DomainError,
    NumericalIntegrityError,
    ParameterError,
)
from .fem1d import band_matmul, dense, eval_matrix

__all__ = [
    "SpectralDecomposition",
    "generalized_eig",
    "CovarianceMatrix",
    "covariance_weights",
    "covariance_direct",
    "balakrishnan_fractional_inverse",
    "sample_field",
    "field_covariance_at",
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


def generalized_eig(ops):
    """All eigenpairs of the assembled pencil, ascending and M-orthonormal.

    Uses the symmetric-definite solver (Cholesky reduction of M followed
    by a standard symmetric eigensolve) on dense copies of the bands,
    which LAPACK overwrites. Raises AssemblyIntegrityError if M is not
    positive definite or any eigenvalue is nonpositive, and
    NumericalIntegrityError if the returned vectors fail the
    M-orthonormality tolerance.
    """
    try:
        lam, vec = scipy.linalg.eigh(
            dense(ops.K_band), dense(ops.M_band), overwrite_a=True, overwrite_b=True
        )
    except scipy.linalg.LinAlgError as exc:
        raise AssemblyIntegrityError(f"generalized eigensolve failed: {exc}") from exc
    if lam[0] <= 0.0:
        raise AssemblyIntegrityError(
            f"pencil has nonpositive eigenvalue {lam[0]:.6g}; form matrix is not positive definite"
        )
    err = _identity_defect(vec.T @ band_matmul(ops.M_band, vec))
    if err > 1e-8:
        raise NumericalIntegrityError(
            f"eigenvectors lost M-orthonormality: max deviation {err:.3e}"
        )
    return SpectralDecomposition(eigenvalues=lam, eigenvectors=vec)


def _identity_defect(gram):
    """max |gram - I|, computed in place: ``gram`` is overwritten."""
    gram[np.diag_indices_from(gram)] -= 1.0
    return float(np.max(np.abs(gram, out=gram)))


@dataclass(frozen=True)
class CovarianceMatrix:
    """Covariance of the Galerkin weight vector, with its parameters.

    C is symmetric positive semidefinite up to roundoff; consumers that
    factor it (sampling) clip negligible negative eigenvalues and refuse
    anything below -1e-10 times the spectral norm.
    """

    C: np.ndarray
    beta: float
    tau: float


def covariance_weights(decomposition, beta, tau):
    """Spectral-route covariance tau^2 V diag(lambda^(-2 beta)) V'."""
    if not beta > 0.25:
        raise ParameterError(f"beta must exceed 1/4, got {beta}")
    if not tau > 0.0:
        raise ParameterError(f"tau must be positive, got {tau}")
    lam = decomposition.eigenvalues
    vec = decomposition.eigenvectors
    scaled = vec * lam ** (-2.0 * beta)
    C = (tau * tau) * (scaled @ vec.T)
    C = 0.5 * (C + C.T)
    return CovarianceMatrix(C=C, beta=float(beta), tau=float(tau))


_FORM_FOR_BETA = {1: "a_L", 2: "a2", 3: "a3"}


def covariance_direct(ops, beta, tau):
    """Direct-route covariance tau^2 K^-1 M K^-1 for integer beta.

    K must be the form matrix of the beta-th operator power (form_order
    "a_L", "a2", "a3" for beta = 1, 2, 3). C is formed as the Gram
    matrix tau^2 Y' M Y of Y = K^-1, with K factored in band storage;
    ConditioningError if K is not positive definite.
    """
    if beta not in (1, 2, 3):
        raise ParameterError(f"direct covariance route needs beta in {{1,2,3}}, got {beta}")
    expected = _FORM_FOR_BETA[int(beta)]
    if ops.form_order != expected:
        raise ParameterError(
            f"beta={beta} needs form_order {expected!r}, got {ops.form_order!r}"
        )
    if not tau > 0.0:
        raise ParameterError(f"tau must be positive, got {tau}")
    C = _banded_gram(ops, np.eye(ops.K_band.shape[1]), tau)
    return CovarianceMatrix(C=C, beta=float(beta), tau=float(tau))


def _banded_gram(ops, rhs, tau):
    """tau^2 Y' M Y with Y = K^-1 rhs, on the stored K and M bands.

    The (p+1, N) lower band of K (p = ``ops.bandwidth``) is LAPACK's
    ``pbtrf`` layout, so K is factored as stored by banded Cholesky in
    O(N p^2); each right-hand side costs O(N p) to solve and to multiply
    by M. The result is a Gram matrix of solved vectors, hence symmetric
    positive semidefinite in floating point. Raises ConditioningError
    when K is not positive definite.
    """
    try:
        factor = scipy.linalg.cholesky_banded(ops.K_band, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise ConditioningError(
            f"form matrix {ops.form_order} is not positive definite: {exc}"
        ) from exc
    Y = scipy.linalg.cho_solve_banded((factor, True), rhs)
    S = (tau * tau) * (Y.T @ band_matmul(ops.M_band, Y))
    return 0.5 * (S + S.T)


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


def sample_field(cov, seed, n_samples):
    """Draw weight vectors with covariance cov.C, columnwise.

    Sample i uses a counter-based generator keyed by (seed, i), so each
    draw is bit-reproducible on its own: results do not depend on how
    many samples are drawn, in which order, or from which thread.
    Eigenvector signs are fixed, so draws are reproducible up to roundoff
    across BLAS builds.
    Negative covariance eigenvalues are clipped to zero if they are
    negligible (>= -1e-10 * spectral norm) and rejected otherwise.
    """
    if not isinstance(n_samples, (int, np.integer)) or n_samples < 1:
        raise ParameterError(f"n_samples must be a positive integer, got {n_samples!r}")
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ParameterError("seed must fit in an unsigned 64-bit integer")
    w, U = scipy.linalg.eigh(cov.C)
    norm = max(np.max(np.abs(w)), 0.0)
    if w[0] < -1e-10 * norm:
        raise NumericalIntegrityError(
            f"covariance has a significant negative eigenvalue {w[0]:.3e} "
            f"(spectral norm {norm:.3e})"
        )
    w = np.clip(w, 0.0, None)
    n = cov.C.shape[0]
    # LAPACK picks each eigenvector's sign freely, so a roundoff change in
    # C could flip modes and change every draw. Fix the sign by
    # <u_j, (1, 2, ..., n)> >= 0; a largest-entry rule would tie on
    # antisymmetric modes, whose extreme entries have equal magnitude.
    U *= np.where(np.arange(1, n + 1) @ U < 0.0, -1.0, 1.0)
    F = U * np.sqrt(w)
    out = np.empty((n, int(n_samples)))
    for i in range(int(n_samples)):
        bitgen = np.random.Philox(key=np.array([seed, i], dtype=np.uint64))
        rng = np.random.Generator(bitgen)
        out[:, i] = F @ rng.standard_normal(n)
    return out


def field_covariance_at(cov, basis, s, t):
    """Covariance of the Galerkin field between two points of [0, 1].

    Boundary points return exactly 0 (the field satisfies homogeneous
    Dirichlet conditions); points outside [0, 1] raise DomainError.
    """
    s = float(s)
    t = float(t)
    for x in (s, t):
        if not 0.0 <= x <= 1.0:
            raise DomainError(f"point {x} outside [0, 1]")
    if s in (0.0, 1.0) or t in (0.0, 1.0):
        return 0.0
    rows = eval_matrix(basis, np.array([s, t]))
    return float(rows[0] @ cov.C @ rows[1])
