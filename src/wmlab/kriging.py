"""Linear prediction with a possibly misspecified covariance.

Observations are linear functionals of the Galerkin field, collected in
an observation matrix Phi; with weight covariance C the joint covariance
of all functionals is Sigma = Phi C Phi', formed as G'G with G = F' Phi'
from the square root C = F F'. For a target functional h and the first
n observations,

* the correct kriging error is  Sigma_hh - sigma' Sigma_n^{-1} sigma,
* a predictor built from a *wrong* covariance Sigma~ uses weights
  w = Sigma~_n^{-1} sigma~ and incurs
  Sigma_hh + w' Sigma_n w - 2 sigma' w  under the true model,

where sigma (sigma~) is the true (wrong) cross-covariance vector. The
relative efficiency loss is the ratio of the two minus one; it is
nonnegative up to roundoff because the correct predictor is optimal.

Numerically everything is solved after a *joint* diagonal rescaling by
the true standard deviations: prediction is equivariant under diagonal
scaling (applied consistently to both covariances), the scaled true
matrix is a correlation matrix with unit diagonal, and the enormous raw
dynamic range of smooth models (~1e20 for third operator powers) drops
out. Leading blocks whose scaled condition estimate exceeds 1e12 are
flagged in the curve output -- never regularized.

Designs are nested: the first n observations are the first n rows of
one Sigma, so each covariance is rescaled and Cholesky-factored once, at
m = max n, and the factor of every leading n x n block is the leading
block of that factor. Forward substitution is prefix-consistent as well:
with Z = L^-1 S[:m, cols] for the union ``cols`` of all target columns,
Z~ = L~^-1 S~[:m, cols] and R = L~^-1 L (lower triangular), the first n
rows of each are the same products for the leading n x n blocks. One
curve therefore costs three triangular solves, however many n it has;
each n reads prefix sums of their rows (see ``_leading_variances``). The
condition estimate is LAPACK's 1-norm estimate (dpocon, Hager/Higham) of
the scaled true block, computed from the same factor in O(n^2).

A figure compares several misspecified models with one true model, whose
basis, Phi and Sigma ``true_stage`` builds once, as a ``TrueStage`` value
that the caller hands to each curve against it; nothing is memoized.

Every dense matrix-matrix product here goes through scipy.linalg.blas,
the OpenBLAS behind scipy's factorizations and solves. numpy ships an
OpenBLAS of its own with its own thread pool, and alternating between
the two pools made each one's spinning workers slow the other down.
"""

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import scipy.linalg

from .errors import (
    ConditioningError,
    DegenerateTargetError,
    DomainError,
    NumericalIntegrityError,
    ParameterError,
)
from .fem1d import (
    DIRICHLET,
    DIRICHLET_LAPLACE,
    assemble_a2,
    assemble_a3,
    assemble_aL,
    build_basis,
    integral_obs_matrix,
    point_obs_matrix,
)
from .matio import write_csv
from .model_config import _is_integer
from .spectral import _spectral_factor, direct_factor, generalized_eig

__all__ = [
    "ObservationDesign",
    "point_locations",
    "correct_error_variance",
    "efficiency",
    "EfficiencyCurve",
    "TrueStage",
    "true_stage",
    "efficiency_curve_integral",
    "efficiency_curve_point",
    "curve_rows",
    "write_curves_csv",
]

COND_FLAG_LIMIT = 1e12
_DEGENERATE_REL = 1e-14


@dataclass(frozen=True)
class ObservationDesign:
    """Which functionals are observed.

    ``integral``: pairings with the first n_max sine functions
    sqrt(2) sin(l pi s); prediction targets are higher sine indices.

    ``point``: evaluations alternating around a center s0 at spacing
    delta_o (s0-d, s0+d, s0-2d, s0+2d, ...); the target is the field
    value at s0 itself.
    """

    kind: str
    n_max: int
    s0: float = 0.5
    delta_o: float = 0.01

    def __post_init__(self):
        if self.kind not in ("integral", "point"):
            raise ParameterError(f"design kind must be 'integral' or 'point', got {self.kind!r}")
        if not isinstance(self.n_max, (int, np.integer)) or self.n_max < 1:
            raise ParameterError(f"n_max must be a positive integer, got {self.n_max!r}")
        if self.kind == "point":
            if not 0.0 < self.s0 < 1.0:
                raise DomainError(f"s0 must lie in (0, 1), got {self.s0}")
            if not 0.0 < self.delta_o < 0.5:
                raise ParameterError(f"delta_o must lie in (0, 1/2), got {self.delta_o}")
            # the outermost points, s0 - ceil(n_max/2) delta_o and
            # s0 + floor(n_max/2) delta_o, by arithmetic: an n_max too large
            # for point_locations' arrays fails here, before any is built
            if not (
                self.s0 - (self.n_max + 1) // 2 * self.delta_o > 0.0
                and self.s0 + self.n_max // 2 * self.delta_o < 1.0
            ):
                raise DomainError(
                    "point design exceeds the interval: reduce n_max or delta_o"
                )


def point_locations(design):
    """The n_max alternating observation points of a point design."""
    if design.kind != "point":
        raise ParameterError("point_locations needs a point design")
    i = np.arange(1, design.n_max + 1)
    step = ((i + 1) // 2) * design.delta_o
    return np.where(i % 2 == 0, design.s0 + step, design.s0 - step)


def _chol(S, what):
    try:
        return scipy.linalg.cholesky(S, lower=True)
    except scipy.linalg.LinAlgError as exc:
        ev = scipy.linalg.eigvalsh(S)
        cond = abs(ev[-1] / ev[0]) if ev[0] != 0.0 else math.inf
        raise ConditioningError(
            f"{what} leading block is not positive definite (condition estimate {cond:.3e})",
            condition_estimate=cond,
        ) from exc


def _leading_variances(Sigma, Sigma_tilde, n_values, targets_of):
    """Yield (n, targets, v_true, v_miss, diff, cond) for ascending n.

    The first n rows of Sigma are the n observations and ``targets_of(n)``
    gives the target rows (0-based, all >= n). Both covariances are
    rescaled by the true standard deviations d, S = D^-1 Sigma D^-1, and
    factored once, at m = max(n_values): S[:m, :m] = L L' and likewise
    S~[:m, :m] = L~ L~'. With ``cols`` the sorted union of all targets,
    three triangular solves per curve give

        Z = L^-1 S[:m, cols],  Z~ = L~^-1 S~[:m, cols],  R = L~^-1 L,

    and because L, L~ and R are lower triangular, row i of each depends
    only on rows <= i: Z[:n] = L_n^-1 S[:n, cols], Z~[:n] = L~_n^-1
    S~[:n, cols] and R[:n, :n] = L~_n^-1 L_n. For target column t,

        v_true(n, t) = (1 - sum_{i<n} Z[i, t]^2) d_t^2,
        diff(n, t)   = |P[:n, t] - Z[:n, t]|^2 d_t^2,  P[:n] = R[:n, :n]' Z~[:n].

    The first is a running sum over row blocks. The second is the
    quadratic form of the weight discrepancy in the scaled true metric,
    (w~ - w)' S_n (w~ - w) = |L_n' (w~ - w)|^2, since L_n' w = Z[:n] and
    L_n' w~ = R[:n, :n]' Z~[:n]; it reproduces the textbook variance
    difference exactly, but stays accurate (and nonnegative up to
    roundoff) when both predictors are nearly optimal, where subtracting
    the two variances would cancel catastrophically. P grows by one
    product per n, P[:n] += R[prev:n, :n]' Z~[prev:n], since R is lower
    triangular. R comes from substitution, one LAPACK trtrs call that
    reads only the lower triangles and is backward stable column by
    column, which an explicit inverse is not.

    ``v_miss`` is returned as v_true + diff. ``cond`` is LAPACK's 1-norm
    condition estimate (dpocon) of the scaled true block, from its factor.
    """
    n_values = sorted(n_values)
    m = n_values[-1]
    targets = [np.asarray(targets_of(n), dtype=np.int64) for n in n_values]
    cols = np.unique(np.concatenate(targets))
    d = np.sqrt(np.maximum(np.diag(Sigma), 0.0))
    inv = 1.0 / np.where(d > 0.0, d, 1.0)
    block_scale = np.outer(inv[:m], inv[:m])
    cross_scale = np.outer(inv[:m], inv[cols])
    S = Sigma[:m, :m] * block_scale
    L = _chol(S, "true")
    Z = scipy.linalg.solve_triangular(L, Sigma[:m, cols] * cross_scale, lower=True)
    explained = np.zeros(cols.size)  # sum_{i<n} Z[i, t]^2
    Lt = _chol(Sigma_tilde[:m, :m] * block_scale, "misspecified")
    Zt = scipy.linalg.solve_triangular(Lt, Sigma_tilde[:m, cols] * cross_scale, lower=True)
    R = scipy.linalg.solve_triangular(Lt, L, lower=True)
    PT = np.zeros((cols.size, m), order="F")  # P', so PT[:, :n] is contiguous
    prev = 0
    for n, tg in zip(n_values, targets):
        k = np.searchsorted(cols, tg)
        explained += np.sum(Z[prev:n] ** 2, axis=0)
        dt2 = d[tg] ** 2
        att = np.where(dt2 > 0.0, 1.0, 0.0)  # scaled target variances
        v_true = (att - explained[k]) * dt2
        scipy.linalg.blas.dgemm(
            1.0, Zt[prev:n], R[prev:n, :n], beta=1.0, c=PT[:, :n], trans_a=1, overwrite_c=1
        )
        E = PT[k, :n] - Z[:n, k].T
        diff = np.sum(E * E, axis=1) * dt2
        v_miss = v_true + diff

        anorm = np.max(np.sum(np.abs(S[:n, :n]), axis=0))
        rcond, _ = scipy.linalg.lapack.dpocon(L[:n, :n], anorm, uplo="L")
        cond = 1.0 / rcond if rcond > 0.0 else math.inf
        prev = n
        yield n, tg, v_true, v_miss, diff, cond


def _efficiencies(v_true, diff, sigma_tt):
    """Vectorized efficiency rule: loss per target, NaN where degenerate.

    A target is degenerate when its optimal error variance is not
    positive or below 1e-14 of its prior variance ``sigma_tt``; if every
    target is, DegenerateTargetError. Losses below -1e-6 raise
    NumericalIntegrityError (the misspecified predictor cannot beat the
    optimal one); smaller negative roundoff is clipped to zero.
    """
    valid = (v_true > _DEGENERATE_REL * np.maximum(sigma_tt, 0.0)) & (v_true > 0.0)
    if not np.any(valid):
        raise DegenerateTargetError(
            f"optimal error variance {np.max(v_true):.3e} is degenerate for every target"
        )
    raw = diff[valid] / v_true[valid]
    if np.min(raw) < -1e-6:
        raise NumericalIntegrityError(
            f"efficiency {np.min(raw):.3e} grossly negative; misspecified predictor "
            "cannot beat the optimal one"
        )
    eff = np.full(v_true.shape, np.nan)
    eff[valid] = np.clip(raw, 0.0, None)
    return eff


def _one_target(Sigma, Sigma_tilde, n, target_row):
    """Checked engine run for one n and one 1-based target row.

    Returns (v_true, v_miss, diff, sigma_tt): length-1 arrays and the
    target's prior variance.
    """
    Sigma = np.asarray(Sigma, dtype=np.float64)
    if Sigma.ndim != 2 or Sigma.shape[0] != Sigma.shape[1]:
        raise ParameterError(f"Sigma must be square, got shape {Sigma.shape}")
    rows = Sigma.shape[0]
    if not (1 <= n < target_row <= rows):
        raise ParameterError(
            f"need 1 <= n < target_row <= {rows}, got n={n}, target_row={target_row}"
        )
    Sigma_tilde = np.asarray(Sigma_tilde, dtype=np.float64)
    if Sigma_tilde.shape != Sigma.shape:
        raise ParameterError(f"covariance shapes differ: {Sigma.shape} vs {Sigma_tilde.shape}")
    t = int(target_row) - 1
    ((_, _, v_true, v_miss, diff, _),) = _leading_variances(
        Sigma, Sigma_tilde, [int(n)], lambda _: [t]
    )
    return v_true, v_miss, diff, Sigma[t, t]


def correct_error_variance(Sigma, n, target_row):
    """Optimal linear prediction error of row ``target_row`` (1-based)
    from the first n functionals, all under the covariance Sigma (which
    the engine also takes as the second one: v_true does not read it)."""
    return float(_one_target(Sigma, Sigma, n, target_row)[0][0])


def efficiency(Sigma, Sigma_tilde, n, target_row):
    """Relative efficiency loss v_missp / v_correct - 1 (>= 0 up to roundoff).

    Invariant under separate positive rescalings of Sigma and
    Sigma_tilde; tiny negative values from rounding are clipped to zero,
    values below -1e-6 raise.
    """
    v_true, _, diff, sigma_tt = _one_target(Sigma, Sigma_tilde, n, target_row)
    return float(_efficiencies(v_true, diff, sigma_tt)[0])


@dataclass(frozen=True)
class EfficiencyCurve:
    """Worst-case efficiency loss as a function of the observation count.

    Per n: ``e_max`` is the maximum loss over targets, ``target`` the
    label of the target attaining it (sine index, or "z(s0)" for the
    point design), ``true_var``/``missp_var`` its two error variances,
    ``flagged`` whether the scaled leading block's condition estimate
    exceeded 1e12 (values are still reported), ``cond`` that estimate:
    LAPACK's 1-norm estimate (dpocon) from the shared Cholesky factor.
    ``per_target`` optionally maps n to (targets, eff, v_true, v_miss).
    """

    design: str
    n_values: Tuple[int, ...]
    e_max: Tuple[float, ...]
    target: Tuple[object, ...]
    true_var: Tuple[float, ...]
    missp_var: Tuple[float, ...]
    flagged: Tuple[bool, ...]
    cond: Tuple[float, ...]
    per_target: Optional[dict] = None


def _route(model):
    """How a model is discretized: (constraint mode, direct exponent).

    Integer beta in {1, 2, 3} assembles the form of the beta-th operator
    power and takes the direct covariance route with exponent beta;
    beta = 3 also needs the Laplace-zero constraint. Any other beta with
    2 beta an integer (half-integer Matern smoothness 2 beta - 1/2, and
    integer beta > 3) assembles a_L and takes the direct route with
    exponent beta, which is exact: C = tau^2 (K^-1 M)^(2 beta - 1) K^-1.
    Every remaining beta assembles a_L and takes the spectral route
    (exponent None), the only one that diagonalizes the pencil.
    """
    if _is_integer(model.beta) and int(round(model.beta)) in (1, 2, 3):
        b = int(round(model.beta))
        return (DIRICHLET_LAPLACE if b == 3 else DIRICHLET), b
    return DIRICHLET, (model.beta if _is_integer(2 * model.beta) else None)


def _model_basis(model, N):
    return build_basis(int(N), model.basis_order, _route(model)[0])


def _model_operators(model, basis):
    """(assembled form, direct exponent) by the model's route."""
    direct = _route(model)[1]
    if direct == 2:
        return assemble_a2(basis, model.kappa2, a=model.a), direct
    if direct == 3:
        return assemble_a3(basis, model.kappa2, a=model.a), direct
    return assemble_aL(basis, model.a, model.kappa2), direct


def _model_factor(model, basis):
    """Square root F (C = F F') of the weight covariance, by the model's route."""
    ops, direct = _model_operators(model, basis)
    if direct is not None:
        return direct_factor(ops, direct, model.tau)
    dec = generalized_eig(ops)
    # the eigenvectors are this call's own, so F is formed over them
    return _spectral_factor(dec.eigenvalues, dec.eigenvectors, model.beta, model.tau)


def _sigma_for_model(model, basis, Phi):
    """Observation covariance Phi C Phi' as G'G with G = F' Phi'.

    F is the model's square root, so C is never formed. The result is a
    Gram matrix of solved vectors, so it is symmetric positive
    semidefinite in floating point and every entry is accurate relative
    to itself. That matters for the higher-order forms: the variances of
    high-frequency functionals decay like l^(-4*beta) and would drown in
    the absolute noise floor of a dense N x N covariance.
    """
    G = _model_factor(model, basis).tdot(Phi.T)
    # dsyrk fills the lower triangle, which is mirrored; both routes
    # return a Fortran-ordered G, which it reads in place
    Sigma = scipy.linalg.blas.dsyrk(1.0, G, trans=1, lower=1)
    Sigma += np.tril(Sigma, -1).T
    return Sigma


@dataclass(frozen=True, eq=False)
class TrueStage:
    """The true model's ``basis``, observation matrix ``Phi`` of ``design``
    and covariance ``Sigma``: shared by the curves against it, so read-only,
    and equal and hashed by identity, so no caller compares the arrays."""

    model: object
    design: ObservationDesign
    n_values: Tuple[int, ...]
    basis: object
    Phi: np.ndarray
    Sigma: np.ndarray


def true_stage(model, N, design, n_values):
    """TrueStage of ``model`` on its N-dimensional basis for curves at the
    distinct ``n_values`` (kept sorted); each check precedes the arrays it guards.

    Integral designs observe all N sine functions and need max(n_values)
    <= N/2, so a substantial target range remains. Point designs observe
    the alternating points, then s0, and need max(n_values) <= n_max < N
    and points that determine independent values on the basis
    (``_require_unisolvent``).
    """
    n_values = tuple(int(n) for n in n_values)
    if not n_values or any(n < 1 for n in n_values) or len(set(n_values)) != len(n_values):
        raise ParameterError(
            f"n_values must be one or more distinct positive integers: {n_values}"
        )
    m = max(n_values)
    if design.kind == "integral":
        if m > N // 2:
            raise ParameterError(
                f"max(n_values)={m} exceeds N/2={N // 2}; leave room for prediction targets"
            )
        if design.n_max != N:
            raise ParameterError(f"an integral design observes all N={N} sine functions")
    elif m >= N:
        raise ParameterError(
            f"max(n_values)={m} must be below N={N}: n observations and "
            "the target are n + 1 functionals of an N-dimensional field"
        )
    elif not m <= design.n_max < N:
        raise ParameterError(f"need max(n_values) <= n_max < N, got n_max={design.n_max}")
    basis = _model_basis(model, N)
    if design.kind == "integral":
        Phi = integral_obs_matrix(basis, N)
    else:
        locations = point_locations(design)
        Phi = point_obs_matrix(basis, np.concatenate([locations, [design.s0]]))
        _require_unisolvent(locations, Phi[:-1], N)
    Sigma = _sigma_for_model(model, basis, Phi)
    for array in (basis.knots, basis.breakpoints, Phi, Sigma):
        array.setflags(write=False)
    return TrueStage(model, design, tuple(sorted(n_values)), basis, Phi, Sigma)


def _missp_sigma(stage, missp_model, design):
    """Sigma~ of ``missp_model`` on the basis and Phi of a matching true ``stage``."""
    if stage.design.kind != design:
        raise ParameterError(f"{design} curves need a stage of the same design")
    if stage.model.beta != missp_model.beta:
        raise ParameterError(
            "efficiency curves compare models with a common exponent; got "
            f"beta={stage.model.beta} vs {missp_model.beta}"
        )
    if stage.model.basis_order != missp_model.basis_order:
        raise ParameterError("models must share basis_order")
    return _sigma_for_model(missp_model, stage.basis, stage.Phi)


def _efficiency_curve(design, Sigma, Sigma_t, n_values, targets_of, keep_per_target=False):
    """EfficiencyCurve of the leading-block engine's output.

    Per n the worst valid target is reported; its label is the 1-based
    sine index for integral designs and "z(s0)" for point designs.
    """
    e_max, tgt, tv, mv, flags, conds = [], [], [], [], [], []
    per_target = {} if keep_per_target else None
    diag = np.diag(Sigma)
    for n, targets, v_true, v_miss, diff, cond in _leading_variances(
        Sigma, Sigma_t, n_values, targets_of
    ):
        eff = _efficiencies(v_true, diff, diag[targets])
        k = int(np.nanargmax(eff))
        e_max.append(float(eff[k]))
        tgt.append("z(s0)" if design == "point" else int(targets[k]) + 1)
        tv.append(float(v_true[k]))
        mv.append(float(v_miss[k]))
        flags.append(bool(cond > COND_FLAG_LIMIT))
        conds.append(float(cond))
        if keep_per_target:
            valid = ~np.isnan(eff)
            per_target[n] = (
                targets[valid] + 1,
                eff[valid],
                v_true[valid],
                v_miss[valid],
            )
    return EfficiencyCurve(
        design=design,
        n_values=n_values,
        e_max=tuple(e_max),
        target=tuple(tgt),
        true_var=tuple(tv),
        missp_var=tuple(mv),
        flagged=tuple(flags),
        cond=tuple(conds),
        per_target=per_target,
    )


def efficiency_curve_integral(stage, missp_model, keep_per_target=False):
    """Worst-case loss over sine targets l = n+1..N versus n.

    ``stage`` is the true model's TrueStage of an integral design; the
    misspecified covariance is discretized on its N-dimensional basis.
    Observation l pairs the field with sqrt(2) sin(l pi s).
    """
    Sigma_t = _missp_sigma(stage, missp_model, "integral")
    N = stage.design.n_max
    return _efficiency_curve(
        "integral", stage.Sigma, Sigma_t, stage.n_values, lambda n: np.arange(n, N), keep_per_target
    )


def _require_unisolvent(locations, Phi, N):
    """ParameterError unless the point evaluations Phi (one row per
    location) are linearly independent on the spline basis.

    By the Schoenberg-Whitney theorem they are exactly when the sorted
    points are distinct and each can be given a basis function of its
    own, with indices increasing along the points, that is nonzero there.
    Since the functions nonzero at a point are consecutive and move right
    with it, taking the lowest free one at each point finds such a choice
    whenever one exists. Otherwise the observations' covariance is
    singular, as when a cell of the mesh holds more points than the
    functions that overlap it.
    """
    # sorted in Python: numpy's sort kernels would add their code pages,
    # about 0.3 MB, to the peak RSS of a point figure
    points = locations.tolist()
    order = sorted(range(len(points)), key=points.__getitem__)
    if any(points[i] >= points[j] for i, j in zip(order, order[1:])):
        raise ParameterError("point design has coinciding points: widen delta_o")
    # the basis functions nonzero at each point, among the few columns
    # that any point touches
    used = np.flatnonzero(Phi.any(axis=0))
    rows, cols = np.nonzero(Phi[:, used])
    support = [[] for _ in points]
    for row, col in zip(rows.tolist(), used[cols].tolist()):
        support[row].append(col)
    last = -1
    for row in order:
        free = [col for col in support[row] if col > last]
        if not free:
            raise ParameterError(
                f"point design is too dense for N={N}: its {len(locations)} points do "
                "not determine independent values on the basis (Schoenberg-Whitney), "
                "so their covariance is singular; widen delta_o, reduce "
                "max(n_values) or raise N"
            )
        last = free[0]


def efficiency_curve_point(stage, missp_model):
    """Efficiency loss predicting z(s0) from alternating nearby points.

    ``stage`` is the true model's TrueStage of a point design. The first
    n observation points of the alternating design are used for each n;
    the target functional is the field value at the center s0 itself.
    """
    Sigma_t = _missp_sigma(stage, missp_model, "point")
    t = stage.design.n_max  # target row: the center evaluation, after the points
    return _efficiency_curve("point", stage.Sigma, Sigma_t, stage.n_values, lambda _: [t])


CURVE_CSV_COLUMNS = (
    "experiment",
    "model",
    "beta",
    "delta",
    "design",
    "n",
    "target",
    "true_var",
    "missp_var",
    "efficiency",
    "e_max",
)


def curve_rows(experiment, model_label, beta, delta, curve):
    """Flatten an EfficiencyCurve into CSV-ready row dicts.

    Integral curves get one summary row per n (target "max") carrying
    the worst target's variances and e_max; point curves one row per n
    with the single target "z(s0)". A curve that kept per-target data adds
    a row per target (efficiency of that target, e_max of its n). A "max"
    row does not name its worst target, and when targets tie to roundoff
    a last-bit change can switch it and move the row's variances.
    """
    fixed = (experiment, model_label, beta, delta, curve.design)

    def row(*values):  # the remaining columns, n to e_max
        return dict(zip(CURVE_CSV_COLUMNS, fixed + values))

    rows = []
    for i, n in enumerate(curve.n_values):
        label = "max" if curve.design == "integral" else curve.target[i]
        e_max = curve.e_max[i]
        rows.append(row(n, label, curve.true_var[i], curve.missp_var[i], e_max, e_max))
        if curve.per_target is not None:
            targets, eff, v_true, v_miss = curve.per_target[n]
            for t, e, vt, vm in zip(targets, eff, v_true, v_miss):
                rows.append(row(n, int(t), float(vt), float(vm), float(e), e_max))
    return rows


def write_curves_csv(path, rows):
    """Write efficiency rows in the canonical column order, and in the order
    given, by ``matio.write_csv``; a key a row lacks is an empty cell."""
    write_csv(path, {c: [row.get(c) for row in rows] for c in CURVE_CSV_COLUMNS})
