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
time (``_gram``); their spectra come from symmetric eigensolves, the
largest of ``hs_curve``'s in place too, and no routine here runs an SVD.
``operator_pair`` builds a pair from the base eigenpairs and the alt
pencil alone. When 2b = m is a positive integer the block needs no alt
eigenvectors: V~ Lam~^m V~' = A^m M^-1 with A = M^-1 K~, so
W Lam~^(2b) W' = V' M A^m V, and Y comes from V by banded products and
solves with K~ and M. Any other exponent takes the W route, which runs
the alt eigensolve and ``cross_gram`` once, on first use. At matched
exponents (b = g) the blocks are one matrix shifted by s = c^(2g):
``hs_curve`` keeps each block's spectrum of T on the pair, and
``cm_equivalence_constants`` reads its constants off that spectrum plus
s instead of forming and eigensolving the Gram block again.

The verdict engine and the spectral diagnostics are deliberately
independent routes to the same conclusions; tests check concordance.
"""

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
    SpectralDecomposition,
    _column_blocks,
    _dsbgvd_eigenvalues,
    _identity_defect,
    _require_positive,
    _triangular_band_matmul,
    _triangular_band_solve,
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
    """``dataclasses.asdict`` factory: a report's fields, tuples as lists."""
    return {k: list(v) if isinstance(v, tuple) else v for k, v in fields}


@dataclass(frozen=True)
class OperatorPair:
    """The ascending eigenvalues of two pencils on a common mass matrix,
    and what the Gram blocks need besides: either the cross Gram matrix
    W = V_base' M V_alt (orthogonal up to roundoff), as ``cross_gram``
    and synthetic pairs give it, or the base eigenvectors ``V`` and the
    alt pencil ``ops_alt``, as ``operator_pair`` gives them. The alt
    eigenvectors are never kept.

    A pair is immutable once built: its arrays are never changed in
    place, so spectra computed from them stay valid for the pair's
    lifetime. ``hs_curve`` stores the ascending eigenvalues of each
    leading block of T, with the shift s = c^(2g), keyed by
    (g, truncation); ``cm_equivalence_constants`` reads them back.
    """

    lam: np.ndarray
    lam_alt: np.ndarray
    W: Optional[np.ndarray] = None
    V: Optional[np.ndarray] = None
    ops_alt: Optional[AssembledOperators] = None
    _defect_spectra: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

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
    AssemblyIntegrityError if the alt pencil has a nonpositive eigenvalue.
    """
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
    mismatched bases or a broken eigensolve. The upper triangle of W'W
    is checked by column blocks after M V_alt is released, so the call
    holds at most two N x N arrays of its own: M V_alt and W.
    """
    MV = band_matmul(M_band, dec_alt.eigenvectors)
    W = scipy.linalg.blas.dgemm(1.0, dec_base.eigenvectors, MV, trans_a=1)
    del MV
    err = _identity_defect(W, lambda a, b: W[:, a:b])
    if not err <= 1e-6:
        raise NumericalIntegrityError(
            f"cross Gram matrix is not orthogonal: max |W'W - I| = {err:.3e}"
        )
    return OperatorPair(lam=dec_base.eigenvalues, lam_alt=dec_alt.eigenvalues, W=W)


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
    product and one banded triangular solve per block of columns. Each
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
    Y[:, :b]' Y[:, a:b] by one dgemm into a block temporary: a block
    reads only columns below b, which no earlier step has overwritten.
    """
    for a, b in reversed(_column_blocks(Y.shape[1])):
        block = scipy.linalg.blas.dgemm(1.0, Y[:, :b], Y[:, a:b], trans_a=1)
        square = block[a:b]
        square[np.tril_indices_from(square, -1)] = 0.0
        Y[:b, a:b] = block
        Y[b:, a:b] = 0.0
        # freed before the next block's product is formed
        del block, square
    return Y[: Y.shape[1]]


def _pencil_factor(pair, m, t):
    """The N x t factor Y = R A^k V_t Lam_t^(-m/2) of ``_gram``'s pencil
    route, formed by blocks of columns of V_t into one Fortran array."""
    k, odd = divmod(m, 2)
    K_band, M_band = pair.ops_alt.K_band, pair.ops_alt.M_band
    L_M = scipy.linalg.cholesky_banded(M_band, lower=True)
    L_K = scipy.linalg.cholesky_banded(K_band, lower=True) if odd else None
    inv = 1.0 / pair.lam[:t]
    Y = np.empty((pair.V.shape[0], t), order="F")
    for a, b in _column_blocks(t):
        X = pair.V[:, a:b] * np.sqrt(inv[a:b]) if odd else pair.V[:, a:b]
        # the last A of an even m is fused with L_M' into L_M^-1 K~
        for _ in range(k - 1 + odd):
            X = scipy.linalg.cho_solve_banded(
                (L_M, True), band_matmul(K_band, X), check_finite=False
            )
            X *= inv[a:b]
        if odd:
            Y[:, a:b] = _triangular_band_matmul(L_K, X, transpose=True)
        else:
            Y[:, a:b] = _triangular_band_solve(L_M, band_matmul(K_band, X), trans="N")
            Y[:, a:b] *= inv[a:b]
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


@dataclass(frozen=True)
class DiagnosticsReport:
    """Norms of leading blocks of the defect matrix over truncations. Its
    CSV and JSON forms repeat ``opnorm`` under the name ``smax``.

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


def hs_curve(pair, gamma, c, truncations):
    """Norm growth of leading blocks of the defect matrix.

    ``truncations`` must be strictly increasing and fit the pencil size.
    Classification precedence: Frobenius saturation is checked first
    (HS_stable), then a persistently flat singular-value profile
    (non_compact); everything else is compact_like.

    Only the leading block of T that the largest truncation needs is
    formed, and the eigensolve of that largest block overwrites it
    instead of copying it. Each block's ascending eigenvalues are kept on
    the pair, keyed by (gamma, truncation), for
    ``cm_equivalence_constants`` at beta = gamma.
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
    fro, opn, smin, tail = [], [], [], []
    for t in truncs:
        # T is exactly symmetric (t_operator mirrors one triangle), so its
        # singular values are its absolute eigenvalues, found without an
        # SVD; nothing reads T after the largest block, which LAPACK
        # overwrites instead of copying
        ev = scipy.linalg.eigvalsh(T[:t, :t], overwrite_a=t == truncs[-1])
        pair._defect_spectra[float(gamma), t] = (ev, c ** (2.0 * float(gamma)))  # finite, as T is
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
    )


def cm_equivalence_constants(pair, beta, truncation=None):
    """Extreme eigenvalues of Lam^(-b) W Lam~^(2b) W' Lam^(-b).

    These bound the ratio of the two squared Cameron-Martin norms on the
    truncated space: both staying in a fixed positive interval as the
    truncation grows is the discrete signature of isomorphic spaces;
    drift toward 0 or infinity signals failure.

    The leading t x t block is formed as the Gram product Y'Y of
    ``_gram``, and its extreme eigenvalues come from a symmetric
    eigensolve. Y is scaled as it is formed, so no entry carries the
    dynamic range of Lam^(-2b). Both
    constants are accurate to a few units of roundoff relative to the
    larger one, so a lower constant far below that level reads as noise.
    The Gram matrix is positive semidefinite, and a lower constant that
    roundoff pushes below zero is returned as 0.

    After ``hs_curve(pair, beta, c, ...)`` covered this truncation, the
    block is T + c^(2b) I, and the constants are the extreme eigenvalues
    of T shifted by s = c^(2b), with no Gram product or eigensolve.
    Read that way they err by a few units of roundoff times max(hi, s),
    so the stored spectrum is used only when s <= hi, where this is the
    same accuracy as above; otherwise the block is formed and
    eigensolved as above.

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
    stored = pair._defect_spectra.get((float(beta), t))
    # a negative top eigenvalue of T means s > hi, where reading through
    # the shift would cost accuracy relative to hi
    if stored is not None and stored[0][-1] >= 0.0:
        ev, shift = stored
    else:
        ev = scipy.linalg.eigvalsh(_gram(pair, beta, t), lower=False, overwrite_a=True)
        shift = 0.0
    return max(float(ev[0] + shift), 0.0), float(ev[-1] + shift)


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
