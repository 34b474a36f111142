"""Model configuration: coefficient fields and benchmark models.

A model on the unit interval is described by an exponent ``beta``, two
coefficient fields ``a`` (diffusion) and ``kappa2`` (reaction, the
*square* of the usual range parameter kappa), an amplitude ``tau`` and
the spline order used by the Galerkin discretization. Two builtin
families are provided:

* family "41": constant-coefficient base with kappa^2 = 1200 plus two
  sigmoid perturbations (a reciprocal-sigmoid reaction and a scaled
  sigmoid diffusion) of adjustable steepness ``delta``;
* family "42": constant-coefficient bases with kappa^2 = 100*(4*beta-1)
  for beta in {1,2,3} plus two cubic-polynomial reaction perturbations
  that halve kappa^2 at the right endpoint.

Amplitudes are chosen so the base fields have marginal variance close
to one in the interior, via :func:`tau_unit_variance`.
"""

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import CoefficientError, DomainError, ParameterError

__all__ = [
    "CoefficientField",
    "eval_coefficient",
    "eval_coefficient_derivative",
    "ModelSpec",
    "tau_unit_variance",
    "builtin_model",
    "BUILTIN_MODEL_NAMES",
    "FIELD_KINDS",
    "field_from_dict",
    "model_from_dict",
]

_TWO_OVER_SQRT_PI = 1.1283791670955126  # 2/sqrt(pi)
_ONE_INSIDE = math.nextafter(1.0, 0.0)


def _erf_arr(x):
    """Gauss error function (``math.erf``) elementwise on an array.

    One NaN check, and one clamp into the open interval (-1, 1), which the
    exact function never leaves.
    """
    x = np.asarray(x, dtype=np.float64)
    if np.isnan(x).any():
        raise DomainError("erf: argument is NaN")
    r = np.fromiter(map(math.erf, x.ravel().tolist()), np.float64, count=x.size)
    return np.clip(r, -_ONE_INSIDE, _ONE_INSIDE).reshape(x.shape)


# the coefficient kinds CoefficientField takes, and the CLI schema accepts
FIELD_KINDS = (
    "constant",
    "polynomial",
    "sigmoid_scaled",
    "sigmoid_reciprocal",
    "tabulated",
)


@dataclass(frozen=True)
class CoefficientField:
    """A scalar coefficient on [0, 1] with an analytic first derivative.

    Supported kinds and their ``params`` layout:

    ``constant``
        (v,) -- the constant value v.
    ``polynomial``
        (c0, c1, ..., cd) -- coefficients in ascending degree.
    ``sigmoid_scaled``
        (base, amplitude, steepness, center) -- value
        base + amplitude * erf(steepness * (s - center) / sqrt(2)).
    ``sigmoid_reciprocal``
        (base, amplitude, steepness, center) -- reciprocal of the
        ``sigmoid_scaled`` expression with the same parameters.
    ``tabulated``
        (s0, v0, s1, v1, ...) -- piecewise-linear interpolation through
        strictly increasing abscissae covering [0, 1]; the derivative is
        the piecewise slope (right-sided at breakpoints, left-sided at 1).
    """

    kind: str
    params: Tuple[float, ...]

    def __post_init__(self):
        if self.kind not in FIELD_KINDS:
            raise ParameterError(
                f"unknown coefficient kind {self.kind!r}; expected one of {FIELD_KINDS}"
            )
        params = tuple(float(p) for p in self.params)
        object.__setattr__(self, "params", params)
        if self.kind == "constant" and len(params) != 1:
            raise ParameterError("constant field takes exactly one parameter")
        if self.kind == "polynomial" and len(params) < 1:
            raise ParameterError("polynomial field needs at least one coefficient")
        if self.kind in ("sigmoid_scaled", "sigmoid_reciprocal"):
            if len(params) != 4:
                raise ParameterError(
                    f"{self.kind} takes (base, amplitude, steepness, center)"
                )
            if params[2] <= 0.0:
                raise ParameterError("sigmoid steepness must be positive")
        if self.kind == "tabulated":
            if len(params) < 4 or len(params) % 2 != 0:
                raise ParameterError(
                    "tabulated field takes an even number >= 4 of parameters"
                )
            ss = np.asarray(params[0::2])
            if not np.all(np.diff(ss) > 0.0):
                raise ParameterError("tabulated abscissae must be strictly increasing")
            if ss[0] > 0.0 or ss[-1] < 1.0:
                raise ParameterError("tabulated abscissae must cover [0, 1]")

    # -- evaluation ----------------------------------------------------

    def value(self, s):
        """Field value at s (scalar or array), without a domain check."""
        s = np.asarray(s, dtype=np.float64)
        if self.kind == "constant":
            out = np.full(s.shape, self.params[0])
        elif self.kind == "polynomial":
            out = np.polynomial.polynomial.polyval(s, np.asarray(self.params))
        elif self.kind == "sigmoid_scaled":
            base, amp, steep, center = self.params
            out = base + amp * _erf_arr(steep * (s - center) / math.sqrt(2.0))
        elif self.kind == "sigmoid_reciprocal":
            base, amp, steep, center = self.params
            out = 1.0 / (base + amp * _erf_arr(steep * (s - center) / math.sqrt(2.0)))
        else:  # tabulated
            ss = np.asarray(self.params[0::2])
            vv = np.asarray(self.params[1::2])
            out = np.interp(s, ss, vv)
        if np.ndim(out) == 0:
            return float(out)
        return out

    def derivative(self, s):
        """First derivative at s (scalar or array)."""
        s = np.asarray(s, dtype=np.float64)
        if self.kind == "constant":
            out = np.zeros(s.shape)
        elif self.kind == "polynomial":
            dcoef = np.polynomial.polynomial.polyder(np.asarray(self.params))
            out = np.polynomial.polynomial.polyval(s, dcoef)
        elif self.kind in ("sigmoid_scaled", "sigmoid_reciprocal"):
            base, amp, steep, center = self.params
            z = steep * (s - center) / math.sqrt(2.0)
            g_prime = amp * _TWO_OVER_SQRT_PI * np.exp(-z * z) * steep / math.sqrt(2.0)
            if self.kind == "sigmoid_scaled":
                out = g_prime
            else:
                g = base + amp * _erf_arr(z)
                out = -g_prime / (g * g)
        else:  # tabulated: piecewise slope
            ss = np.asarray(self.params[0::2])
            vv = np.asarray(self.params[1::2])
            slopes = np.diff(vv) / np.diff(ss)
            idx = np.clip(np.searchsorted(ss, s, side="right") - 1, 0, len(slopes) - 1)
            out = slopes[idx]
        if np.ndim(out) == 0:
            return float(out)
        return np.asarray(out, dtype=np.float64)

    def min_on_grid(self, n_points=1001):
        grid = np.linspace(0.0, 1.0, n_points)
        return float(np.min(self.value(grid)))


def eval_coefficient(field, s):
    """Value of a coefficient field at s in [0, 1]; DomainError outside."""
    arr = np.asarray(s, dtype=np.float64)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise DomainError(f"coefficient evaluated outside [0, 1]: s={s!r}")
    return field.value(s)


def eval_coefficient_derivative(field, s):
    """First derivative of a coefficient field at s in [0, 1]."""
    arr = np.asarray(s, dtype=np.float64)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise DomainError(f"coefficient derivative evaluated outside [0, 1]: s={s!r}")
    return field.derivative(s)


def _is_integer(x, tol=1e-12):
    return abs(x - round(x)) <= tol


@dataclass(frozen=True)
class ModelSpec:
    """A random-field model on (0, 1).

    The covariance operator is ``tau**2`` times the ``-2*beta`` power of
    the elliptic operator u -> kappa2*u - (a*u')', with homogeneous
    Dirichlet conditions. ``basis_order`` is the spline degree used by
    the Galerkin discretization; integer beta requires basis_order >=
    beta (the assembly path for the beta-th operator power needs it).
    Any other beta is discretized on the a_L pencil of a ``basis_order``
    basis, whose bands have width ``basis_order``: with 2*beta an
    integer (half-integer beta, or beta > 3) its covariance is factored
    exactly on those bands, and every other beta takes the spectral
    route, a full eigendecomposition of the pencil.
    """

    beta: float
    a: CoefficientField
    kappa2: CoefficientField
    tau: float
    basis_order: int = 1

    def __post_init__(self):
        if not self.beta > 0.25:
            raise ParameterError(f"beta must exceed 1/4, got {self.beta}")
        if not self.tau > 0.0:
            raise ParameterError(f"tau must be positive, got {self.tau}")
        if self.basis_order not in (1, 2, 3):
            raise ParameterError(f"basis_order must be 1, 2 or 3, got {self.basis_order}")
        if _is_integer(self.beta):
            b = int(round(self.beta))
            if b in (1, 2, 3) and self.basis_order < b:
                raise ParameterError(
                    f"integer beta={b} requires basis_order >= {b}, got {self.basis_order}"
                )
        if self.a.min_on_grid() <= 0.0:
            raise CoefficientError("diffusion coefficient a must be strictly positive on [0, 1]")
        if self.kappa2.min_on_grid() <= 0.0:
            raise CoefficientError("reaction coefficient kappa2 must be strictly positive on [0, 1]")


def tau_unit_variance(beta, kappa):
    """Amplitude giving unit interior marginal variance for constant fields.

    For the constant-coefficient operator with a = 1 and reaction
    kappa**2 on the line, the stationary marginal variance of the field
    with amplitude tau equals ``tau**2 * (4*pi)**(-1/2) * kappa**(1-4*beta)
    * Gamma(2*beta - 1/2) / Gamma(2*beta)``; this returns the tau that
    makes it one:

        tau = (4*pi)**(1/4) * kappa**(2*beta - 1/2)
              * sqrt(Gamma(2*beta) / Gamma(2*beta - 1/2)).

    For beta = 1 this reduces to 2 * kappa**(3/2).
    """
    if not beta > 0.25:
        raise ParameterError(f"beta must exceed 1/4, got {beta}")
    if not kappa > 0.0:
        raise ParameterError(f"kappa must be positive, got {kappa}")
    return (
        (4.0 * math.pi) ** 0.25
        * kappa ** (2.0 * beta - 0.5)
        * math.sqrt(math.gamma(2.0 * beta) / math.gamma(2.0 * beta - 0.5))
    )


BUILTIN_MODEL_NAMES = (
    "base41",
    "model1_41",
    "model2_41",
    "base42",
    "model1_42",
    "model2_42",
)


def builtin_model(name, beta, delta=10.0):
    """Construct one of the builtin benchmark models.

    Family "41" (requires beta = 1, practical range 0.1): the base has
    a = 1, kappa^2 = 1200; model1 divides kappa^2 by the sigmoid factor
    f(s) = 1 + erf(delta*(s - 1/2)/sqrt(2))/2 while model2 multiplies
    the diffusion by f. Both perturbed models keep the base amplitude,
    and agree with the base coefficients at s = 1/2. ``delta`` controls
    the sigmoid steepness and is only used by this family.

    Family "42" (beta in {1, 2, 3}, practical range 0.2): the base has
    a = 1, kappa^2 = c0 = 100*(4*beta - 1); model1 multiplies kappa^2 by
    1 - 1.5 s^2 + s^3 and model2 by 1 + s - 1.5 s^3. Both perturbations
    equal 1 at s = 0 and 1/2 at s = 1. The spline order equals beta.
    """
    if name not in BUILTIN_MODEL_NAMES:
        raise ParameterError(
            f"unknown builtin model {name!r}; expected one of {BUILTIN_MODEL_NAMES}"
        )
    if not _is_integer(beta):
        raise ParameterError(f"builtin models use integer beta, got {beta}")
    beta = int(round(beta))

    if name.endswith("41"):
        if beta != 1:
            raise ParameterError(f"{name} requires beta = 1, got {beta}")
        if not delta > 0.0:
            raise ParameterError(f"delta must be positive, got {delta}")
        kappa = math.sqrt(1200.0)
        tau = tau_unit_variance(1.0, kappa)
        one = CoefficientField("constant", (1.0,))
        k2_const = CoefficientField("constant", (1200.0,))
        if name == "base41":
            a, k2 = one, k2_const
        elif name == "model1_41":
            # kappa^2 = 1200 / f(s) = 1 / (1/1200 + erf(.)/2400)
            a = one
            k2 = CoefficientField(
                "sigmoid_reciprocal", (1.0 / 1200.0, 1.0 / 2400.0, float(delta), 0.5)
            )
        else:  # model2_41
            a = CoefficientField("sigmoid_scaled", (1.0, 0.5, float(delta), 0.5))
            k2 = k2_const
        return ModelSpec(beta=1.0, a=a, kappa2=k2, tau=tau, basis_order=1)

    # family "42"
    if beta not in (1, 2, 3):
        raise ParameterError(f"{name} requires beta in {{1, 2, 3}}, got {beta}")
    c0 = 100.0 * (4.0 * beta - 1.0)
    tau = tau_unit_variance(float(beta), math.sqrt(c0))
    one = CoefficientField("constant", (1.0,))
    if name == "base42":
        k2 = CoefficientField("constant", (c0,))
    elif name == "model1_42":
        # c0 * (1 - 1.5 s^2 + s^3)
        k2 = CoefficientField("polynomial", (c0, 0.0, -1.5 * c0, c0))
    else:  # model2_42
        # c0 * (1 + s - 1.5 s^3)
        k2 = CoefficientField("polynomial", (c0, c0, 0.0, -1.5 * c0))
    return ModelSpec(beta=float(beta), a=one, kappa2=k2, tau=tau, basis_order=beta)


# -- JSON model specs ----------------------------------------------------


def field_from_dict(d):
    try:
        kind = d["kind"]
        params = tuple(d["params"])
    except (KeyError, TypeError) as exc:
        raise ParameterError(f"malformed coefficient field spec: {d!r}") from exc
    return CoefficientField(kind, params)


def model_from_dict(d):
    try:
        return ModelSpec(
            beta=float(d["beta"]),
            a=field_from_dict(d["a"]),
            kappa2=field_from_dict(d["kappa2"]),
            tau=float(d["tau"]),
            basis_order=int(d.get("basis_order", 1)),
        )
    except KeyError as exc:
        raise ParameterError(f"model spec missing field: {exc}") from exc
