"""Command line interface.

Every subcommand reads an optional JSON config (validated against a
strict schema: unknown keys are rejected, and so are NaN and the
infinities, which Python's json module reads but JSON does not allow;
an integer field given as an integer-valued float such as 10.0 is
stored as an int), applies a few flag overrides
(--N, --seed, --out, --threads), runs the computation and writes its
artifacts into the output directory:

* a CSV with the numbers, written by ``matio.write_csv`` (efficiency
  curves share one canonical column set; other commands have their own
  small column sets),
* a best-effort SVG chart where a curve makes sense,
* a ``manifest.json`` recording the effective configuration, which keys
  came from defaults, the package version, wall time and the artifact
  list.

``--threads`` (config key ``threads``) is accepted and validated, so
existing scripts and configs still run, but it has no effect: every
subcommand runs in one Python thread, and parallelism comes from the
BLAS library's threads (OMP_NUM_THREADS, OPENBLAS_NUM_THREADS, ...).

Data artifacts are byte-identical across reruns and ``--threads`` values
at a fixed BLAS thread count (a different count can move the last bits
of the kriging numbers); the manifest is not (it contains the wall
time).

Exit codes: 0 success; 2 configuration error (bad JSON, schema
violation, invalid parameter values, an output directory that cannot be
created); 3 numerical-integrity failure, with a JSON diagnostic dump on
stderr, strict JSON in which a condition estimate that is not finite
(inf or NaN) is written as null. A run that fails removes the output
directories it created, as long as they are empty.
"""

import argparse
import functools
import itertools
import json
import math
import operator
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .diagnostics import (
    VerdictInput,
    cm_equivalence_constants,
    hs_curve,
    operator_pair,
    table1_verdict,
    verdict_input_from_models,
)
from .errors import (
    AssemblyIntegrityError,
    ConditioningError,
    DegenerateTargetError,
    NumericalIntegrityError,
    WmlabError,
)
from .fem1d import DIRICHLET, assemble_aL, build_basis
from .kriging import (
    ObservationDesign,
    _model_basis,
    _model_factor,
    curve_rows,
    efficiency_curve_integral,
    efficiency_curve_point,
    true_stage,
    write_curves_csv,
)
from .matern import compare_fem_vs_matern
from .matio import write_csv, write_eigenvalues_csv, write_matrix
from .model_config import BUILTIN_MODEL_NAMES, FIELD_KINDS, builtin_model, model_from_dict
from .spectral import generalized_eig, sample_field


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------
# schemas; a key's default is the "default" annotation beside its type

# the largest exponent (beta, gamma, cm_beta) a config may give: an integral
# 2*beta costs one banded product per power, and on a nearly flat pencil
# no power leaves the double range, so only a maximum bounds that loop
_MAX_EXPONENT = 1000

_FIELD_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": list(FIELD_KINDS)},
        "params": {"type": "array", "items": {"type": "number"}, "minItems": 1},
    },
    "required": ["kind", "params"],
    "additionalProperties": False,
}

_MODEL_REF_SCHEMA = {
    "oneOf": [
        {
            "type": "object",
            "properties": {
                "name": {"enum": list(BUILTIN_MODEL_NAMES)},
                "beta": {"type": "number"},
                "delta": {"type": "number", "exclusiveMinimum": 0},
            },
            "required": ["name", "beta"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "beta": {"type": "number", "maximum": _MAX_EXPONENT},
                "a": _FIELD_SCHEMA,
                "kappa2": _FIELD_SCHEMA,
                "tau": {"type": "number", "exclusiveMinimum": 0},
                "basis_order": {"type": "integer", "minimum": 1, "maximum": 3},
            },
            "required": ["beta", "a", "kappa2", "tau"],
            "additionalProperties": False,
        },
    ]
}

_BASE41_REF = {**_MODEL_REF_SCHEMA, "default": {"name": "base41", "beta": 1}}

_POSITIVE_INT_ARRAY = {
    "type": "array",
    "items": {"type": "integer", "minimum": 1},
    "minItems": 1,
}

# (value at 0, value at 1, derivative at 0, derivative at 1)
_BOUNDARY_VALUES = {"type": "array", "items": {"type": "number"}, "minItems": 4, "maxItems": 4}


def _out(command):
    return {"type": "string", "minLength": 1, "default": f"out/{command}"}


def _schema(command, required=(), svg=False, N=1000, **props):
    """The schema of ``command``: the five common keys, then ``props``."""
    return {
        "type": "object",
        "properties": {
            # LAPACK's dimension arguments are 32-bit ints
            "N": {"type": "integer", "minimum": 10, "maximum": 2**31 - 1, "default": N},
            "seed": {"type": "integer", "minimum": 0, "default": 0},
            "out": _out(command),
            "threads": {"type": "integer", "minimum": 1, "default": 1},
            "svg": {"type": "boolean", "default": svg},
            **props,
        },
        "required": list(required),
        "additionalProperties": False,
    }


# the keys that the figure commands share
_FIGURE_PROPS = {
    "deltas": {
        "type": "array",
        "items": {"type": "number", "exclusiveMinimum": 0},
        "minItems": 1,
        "uniqueItems": True,
        "default": [1.0, 10.0, 100.0],
    },
    "models": {
        "type": "array",
        "items": {"enum": ["model1", "model2"]},
        "minItems": 1,
        "uniqueItems": True,
        "default": ["model1", "model2"],
    },
    "n_values": {**_POSITIVE_INT_ARRAY, "default": [10, 20, 50, 100, 200, 300, 400, 500]},
    "per_target": {"type": "boolean", "default": False},
}


def _figure(command, keys, **props):
    """A figure command's schema: the ``keys`` of _FIGURE_PROPS, then ``props``."""
    return _schema(command, svg=True, **{key: _FIGURE_PROPS[key] for key in keys}, **props)


_BOOL_OR_NULL = {"type": ["boolean", "null"]}

_VERDICT_COMMON = {
    "out": _out("verdict"),
    "d": {"type": "integer", "minimum": 1, "default": 1},
}

SCHEMAS = {
    "fig1_integral": _figure("fig1_integral", ("deltas", "models", "n_values", "per_target")),
    "fig1_point": _figure(
        "fig1_point",
        ("deltas", "models"),
        n_values={**_POSITIVE_INT_ARRAY, "default": list(range(10, 100, 10))},
        s0={"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1, "default": 0.5},
        delta_o={
            "type": "number",
            "exclusiveMinimum": 0,
            "exclusiveMaximum": 0.5,
            "default": 0.01,
        },
    ),
    "fig2": _figure(
        "fig2",
        ("models", "n_values", "per_target"),
        betas={
            "type": "array",
            "items": {"enum": [1, 2, 3]},
            "minItems": 1,
            "uniqueItems": True,
            "default": [1, 2, 3],
        },
    ),
    "matern_check": _schema(
        "matern_check",
        model=_BASE41_REF,
        offsets={
            "type": "array",
            "items": {"type": "number", "minimum": 0, "exclusiveMaximum": 0.5},
            "minItems": 1,
            "default": [0.0, 0.005, 0.01, 0.02, 0.05, 0.1],
        },
    ),
    "diagnose": _schema(
        "diagnose",
        required=("base_model", "alt_model"),
        N=800,
        base_model=_MODEL_REF_SCHEMA,
        alt_model=_MODEL_REF_SCHEMA,
        gamma={"type": "number", "maximum": _MAX_EXPONENT, "default": 1.0},
        c={"type": "number", "exclusiveMinimum": 0, "default": 1.0},
        truncations={**_POSITIVE_INT_ARRAY, "default": [100, 200, 400, 800]},
        cm_beta={"type": "number", "exclusiveMinimum": 0.25, "maximum": _MAX_EXPONENT},
    ),
    "verdict": {
        "type": "object",
        "oneOf": [
            {
                "type": "object",
                "properties": {
                    **_VERDICT_COMMON,
                    "beta": {"type": "number"},
                    "beta_alt": {"type": "number"},
                    "a_relation": {"enum": ["equal", "proportional", "different"]},
                    "a_ratio": {"type": "number", "exclusiveMinimum": 0},
                    "kappa2_boundary_base": _BOUNDARY_VALUES,
                    "kappa2_boundary_alt": _BOUNDARY_VALUES,
                    "mean_diff_in_cm": _BOOL_OR_NULL,
                    "kappa2_equal": _BOOL_OR_NULL,
                    "higher_traces_zero": _BOOL_OR_NULL,
                },
                "required": ["beta", "beta_alt", "a_relation"],
                "additionalProperties": False,
            },
            {
                "type": "object",
                "properties": {
                    **_VERDICT_COMMON,
                    "base_model": _MODEL_REF_SCHEMA,
                    "alt_model": _MODEL_REF_SCHEMA,
                    "mean_diff_in_cm": _BOOL_OR_NULL,
                    "higher_traces_zero": _BOOL_OR_NULL,
                },
                "required": ["base_model", "alt_model"],
                "additionalProperties": False,
            },
        ],
    },
    "sample": _schema(
        "sample",
        model=_BASE41_REF,
        # the WMLABMAT header stores the column count as a uint32
        n_samples={"type": "integer", "minimum": 1, "maximum": 2**32 - 1, "default": 10},
        format={"enum": ["csv", "bin"], "default": "csv"},
    ),
}


def _properties(schema):
    """The properties of ``schema``, collected over its oneOf branches."""
    props = dict(schema.get("properties", {}))
    for branch in schema.get("oneOf", ()):
        props.update(branch.get("properties", {}))
    return props


DEFAULTS = {
    command: {key: p["default"] for key, p in _properties(schema).items() if "default" in p}
    for command, schema in SCHEMAS.items()
}


# ---------------------------------------------------------------------
# config checking: the JSON Schema (draft 2020-12) keywords that SCHEMAS
# uses, except that "number" and "integer" also reject NaN and the
# infinities, which Python's json module reads but JSON does not allow,
# and an integer literal outside the float range

def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(value):
    """Does the number ``value`` convert to a finite float?"""
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


_IS_TYPE = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "number": lambda v: _is_number(v) and _is_finite(v),
    "integer": lambda v: (
        _is_number(v) and _is_finite(v) and (isinstance(v, int) or v.is_integer())
    ),
}

_BOUNDS = (
    ("minimum", operator.lt, "less than the minimum of"),
    ("maximum", operator.gt, "greater than the maximum of"),
    ("exclusiveMinimum", operator.le, "less than or equal to the minimum of"),
    ("exclusiveMaximum", operator.ge, "greater than or equal to the maximum of"),
)


def _same(a, b):
    """JSON equality: 1 equals 1.0, but true is not 1."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return isinstance(a, bool) == isinstance(b, bool) and a == b


def _too_short(value, least):
    return f"{value!r} should be non-empty" if least == 1 else f"{value!r} is too short"


def _check(schema, value, path=()):
    """Check ``value`` against ``schema``, one of the schemas in SCHEMAS.

    Returns (errors, value): the violations as (path, message) pairs, and
    ``value`` with each integer-valued float where the schema asks for an
    "integer" turned into an int.
    """
    types = schema.get("type", [])
    types = [types] if isinstance(types, str) else types
    if types and not any(_IS_TYPE[t](value) for t in types):
        if _is_number(value) and not _is_finite(value):
            return [(path, f"{value!r} is not a finite number")], value
        return [(path, f"{value!r} is not of type {', '.join(map(repr, types))}")], value
    errors = []
    if "enum" in schema and not any(_same(value, e) for e in schema["enum"]):
        errors.append((path, f"{value!r} is not one of {schema['enum']!r}"))
    if _is_number(value):
        errors += [
            (path, f"{value!r} is {text} {schema[key]!r}")
            for key, fails, text in _BOUNDS
            if key in schema and fails(value, schema[key])
        ]
        if "integer" in types:
            value = int(value)
    if isinstance(value, str) and len(value) < schema.get("minLength", 0):
        errors.append((path, _too_short(value, schema["minLength"])))
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            errors.append((path, _too_short(value, schema["minItems"])))
        if len(value) > schema.get("maxItems", len(value)):
            errors.append((path, f"{value!r} is too long"))
        # items may be lists, which a set cannot hold
        if schema.get("uniqueItems") and any(
            _same(a, b) for i, a in enumerate(value) for b in value[:i]
        ):
            errors.append((path, f"{value!r} has non-unique elements"))
        if "items" in schema:
            checked = [_check(schema["items"], v, (*path, i)) for i, v in enumerate(value)]
            errors += [e for errs, _ in checked for e in errs]
            value = [v for _, v in checked]
    if isinstance(value, dict):
        props = schema.get("properties", {})
        errors += [
            (path, f"{key!r} is a required property")
            for key in schema.get("required", ())
            if key not in value
        ]
        extra = sorted(key for key in value if key not in props)
        if extra and schema.get("additionalProperties") is False:
            were = "was" if len(extra) == 1 else "were"
            errors.append(
                (path, f"Additional properties are not allowed "
                       f"({', '.join(map(repr, extra))} {were} unexpected)")
            )
        checked = {
            key: _check(props[key], v, (*path, key)) if key in props else ([], v)
            for key, v in value.items()
        }
        errors += [e for errs, _ in checked.values() for e in errs]
        value = {key: v for key, (_, v) in checked.items()}
    if "oneOf" in schema:
        errs, value = _one_of(schema["oneOf"], value, path)
        errors += errs
    return errors, value


def _one_of(branches, value, path):
    """Exactly one branch must hold. When none does, report the errors of
    the branch whose required keys are all present and that knows most of
    the given keys; when no branch has its required keys, name them."""
    checked = [_check(branch, value, path) for branch in branches]
    held = [result for result in checked if not result[0]]
    if len(held) == 1:
        return held[0]
    if held:
        return [(path, f"{value!r} is valid under more than one of the given schemas")], value
    if not isinstance(value, dict):
        return checked[0]
    reach = [
        (
            set(branch.get("required", ())) <= value.keys(),
            len(value.keys() & branch.get("properties", {}).keys()),
        )
        for branch in branches
    ]
    best = reach.index(max(reach))
    if reach[best][0]:
        return checked[best]
    forms = " or ".join(str(branch.get("required", [])) for branch in branches)
    return [(path, f"needs the keys {forms}")], value


def load_config(command, config_path, overrides):
    """Read + validate the JSON config, apply flag overrides and defaults.

    Returns (effective_config, defaulted_keys).
    """
    user = {}
    if config_path is not None:
        try:
            with open(config_path) as fh:
                user = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"config is not valid JSON: line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
        except ValueError as exc:  # an integer literal too long for int()
            raise ConfigError(f"config cannot be read: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError("config must be a JSON object")

    schema = SCHEMAS[command]
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in _properties(schema):
            raise ConfigError(f"flag --{key} is not applicable to '{command}'")
        user[key] = value

    errors, user = _check(schema, user)
    if errors:
        where, message = min(errors, key=lambda e: len(e[0]))
        path = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in where)
        raise ConfigError(f"config field '{path or '.'}': {message}")

    defaults = DEFAULTS[command]
    effective = dict(defaults)
    effective.update(user)
    defaulted = sorted(set(defaults) - set(user))
    return effective, defaulted


# ---------------------------------------------------------------------
# shared helpers

def _resolve_model(ref):
    if "name" in ref:
        return builtin_model(**ref)
    return model_from_dict(ref)


def _make_outdir(outdir):
    """Create the output directory; return the ones this created, deepest first."""
    created = []
    head = os.path.abspath(outdir)
    while not os.path.exists(head):
        created.append(head)
        head = os.path.dirname(head)
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {outdir}: {exc.strerror}") from exc
    return created


def _write_json(path, payload):
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # NaN or an infinity, which JSON does not allow
        raise NumericalIntegrityError(f"{path}: {exc}") from exc
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return path


_SVG_COLORS = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)


def _svg_text(x, y, body, size, fill="#222222", anchor=None, transform=None):
    """One ``<text>`` element; ``x`` and ``y`` are written as given."""
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    transform = f' transform="{transform}"' if transform else ""
    return (
        f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" '
        f'font-size="{size}" fill="{fill}"{transform}>{body}</text>'
    )


def _svg_log_chart(title, series, xlabel, ylabel):
    """The lines of write_svg_log_curves' chart, up to its closing tag."""
    W, H = 840, 520
    ml, mr, mt, mb = 80, 200, 48, 56
    pw, ph = W - ml - mr, H - mt - mb
    pts = [
        (float(x), float(y))
        for _, xs, ys in series
        for x, y in zip(xs, ys)
        if y > 0.0
    ]
    yield (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">'
    )
    yield f'<rect width="{W}" height="{H}" fill="#ffffff"/>'
    yield _svg_text(ml, 26, title, 16)
    if not pts:
        yield _svg_text(ml, mt + 40, "no positive values to plot", 13, "#666666")
        return
    xmin = min(p[0] for p in pts)
    xmax = max(p[0] for p in pts)
    if xmax == xmin:
        xmin, xmax = xmin - 1.0, xmax + 1.0
    lo = math.floor(math.log10(min(p[1] for p in pts)))
    hi = math.ceil(math.log10(max(p[1] for p in pts)))
    if hi <= lo:
        hi = lo + 1

    def sx(x):
        return ml + pw * (x - xmin) / (xmax - xmin)

    def sy(y):
        return mt + ph * (hi - math.log10(y)) / (hi - lo)

    yield (
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="#444444"/>'
    )
    for dec in range(lo, hi + 1):
        y = mt + ph * (hi - dec) / (hi - lo)
        yield (
            f'<line x1="{ml}" y1="{y:.2f}" x2="{ml + pw}" y2="{y:.2f}" '
            f'stroke="#dddddd"/>'
        )
        yield _svg_text(ml - 8, f"{y + 4:.2f}", f"1e{dec}", 11, anchor="end")
    xticks = sorted({x for _, xs, _ in series for x in xs})
    if len(xticks) > 10:
        idx = np.linspace(0, len(xticks) - 1, 8).round().astype(int)
        xticks = [xticks[i] for i in sorted(set(idx))]
    for x in xticks:
        yield (
            f'<line x1="{sx(x):.2f}" y1="{mt + ph}" x2="{sx(x):.2f}" '
            f'y2="{mt + ph + 5}" stroke="#444444"/>'
        )
        label = str(int(x)) if float(x).is_integer() else f"{x:g}"
        yield _svg_text(f"{sx(x):.2f}", mt + ph + 20, label, 11, anchor="middle")
    yield _svg_text(f"{ml + pw / 2:.2f}", H - 12, xlabel, 12, anchor="middle")
    mid = f"{mt + ph / 2:.2f}"
    yield _svg_text(20, mid, ylabel, 12, transform=f"rotate(-90 20 {mid})")
    for k, (label, xs, ys) in enumerate(series):
        color = _SVG_COLORS[k % len(_SVG_COLORS)]
        # the runs of positive values, each as its formatted points
        runs = [
            [(f"{sx(float(x)):.2f}", f"{sy(float(y)):.2f}") for x, y in run]
            for positive, run in itertools.groupby(zip(xs, ys), key=lambda p: p[1] > 0.0)
            if positive
        ]
        for run in runs:
            if len(run) >= 2:
                yield (
                    f'<polyline points="{" ".join(f"{cx},{cy}" for cx, cy in run)}" '
                    f'fill="none" stroke="{color}" stroke-width="1.8"/>'
                )
        for cx, cy in itertools.chain.from_iterable(runs):
            yield f'<circle cx="{cx}" cy="{cy}" r="2.6" fill="{color}"/>'
        ly = mt + 16 + 18 * k
        yield (
            f'<line x1="{ml + pw + 14}" y1="{ly - 4}" x2="{ml + pw + 38}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
        )
        yield _svg_text(ml + pw + 44, ly, label, 12)


def write_svg_log_curves(path, title, series, xlabel="n", ylabel="value"):
    """Minimal hand-rolled SVG: polylines on a log10 y axis.

    ``series`` is a list of (label, xs, ys); nonpositive ys are skipped
    (they cannot appear on a log axis). Purely deterministic output.
    """
    lines = [*_svg_log_chart(title, series, xlabel, ylabel), "</svg>"]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------
# subcommands

@dataclass(frozen=True)
class _Figure:
    """One efficiency-curve figure: a curve per (model label, parameter).

    Family "41" sweeps the perturbation steepness ``deltas`` at beta = 1
    against the single true model base41; family "42" sweeps ``betas``
    with one true model base42 per beta. ``design`` is "integral" or
    "point".
    """

    family: str
    design: str
    title: str
    ylabel: str


_FIGURES = {
    "fig1_integral": _Figure(
        "41",
        "integral",
        "worst-case efficiency loss, integral observations",
        "max efficiency loss",
    ),
    "fig1_point": _Figure(
        "41",
        "point",
        "efficiency loss predicting z(s0), point observations",
        "efficiency loss",
    ),
    "fig2": _Figure(
        "42",
        "integral",
        "worst-case efficiency loss, polynomial reaction perturbations",
        "max efficiency loss",
    ),
}


def _figure_cells(fig, cfg):
    """(true model, misspecified model, label, beta, delta, series name)
    for every cell, in (model label, parameter) order: the order of the
    figure CSV's rows, which ``write_curves_csv`` keeps."""
    cells = []
    for label in sorted(cfg["models"]):
        if fig.family == "41":
            for delta in sorted(float(d) for d in cfg["deltas"]):
                true_model = builtin_model("base41", 1)
                missp = builtin_model(f"{label}_41", 1, delta)
                cells.append((true_model, missp, label, 1.0, delta, f"{label} delta={delta:g}"))
        else:
            for beta in sorted(int(b) for b in cfg["betas"]):
                true_model = builtin_model("base42", beta)
                missp = builtin_model(f"{label}_42", beta)
                cells.append((true_model, missp, label, float(beta), None, f"{label} beta={beta}"))
    return cells


def run_figure(command, cfg, outdir):
    fig = _FIGURES[command]
    cells = _figure_cells(fig, cfg)
    if fig.design == "point":
        design = ObservationDesign("point", max(cfg["n_values"]), cfg["s0"], cfg["delta_o"])
        curve_of = efficiency_curve_point
    else:
        design = ObservationDesign("integral", cfg["N"])
        curve_of = functools.partial(efficiency_curve_integral, keep_per_target=cfg["per_target"])
    # Within a figure the true model depends only on beta, so in beta order
    # the cells that share a true model come back to back: each such run
    # builds its stage (basis, Phi, Sigma) once, and drops the last run's.
    curves = [None] * len(cells)
    by_beta = sorted(range(len(cells)), key=lambda i: cells[i][3])
    for true_model, run in itertools.groupby(by_beta, key=lambda i: cells[i][0]):
        stage = true_stage(true_model, cfg["N"], design, cfg["n_values"])
        for i in run:
            curves[i] = curve_of(stage, cells[i][1])

    rows = []
    series = []
    for (_, _, label, beta, delta, name), curve in zip(cells, curves):
        rows.extend(curve_rows(command, label, beta, delta, curve))
        series.append((name, list(curve.n_values), list(curve.e_max)))
    csv_path = os.path.join(outdir, f"{command}.csv")
    write_curves_csv(csv_path, rows)
    artifacts = [csv_path]
    if cfg["svg"]:
        svg_path = os.path.join(outdir, f"{command}.svg")
        write_svg_log_curves(
            svg_path,
            fig.title,
            series,
            xlabel="number of observations n",
            ylabel=fig.ylabel,
        )
        artifacts.append(svg_path)
    return artifacts, [f"{command}: wrote {csv_path}"]


def run_matern_check(cfg, outdir):
    model = _resolve_model(cfg["model"])
    basis = _model_basis(model, cfg["N"])
    comparison = compare_fem_vs_matern(model, basis, cfg["offsets"])
    csv_path = os.path.join(outdir, "matern_check.csv")
    comparison.write_csv(csv_path)
    return [csv_path], [
        f"matern_check: max relative error {comparison.max_rel_error:.6g} "
        f"over {len(cfg['offsets'])} offsets"
    ]


def run_diagnose(cfg, outdir):
    base = _resolve_model(cfg["base_model"])
    alt = _resolve_model(cfg["alt_model"])
    N = cfg["N"]
    # truncations above N are dropped, so the default list serves any N
    truncations = [t for t in cfg["truncations"] if t <= N]
    dropped = [t for t in cfg["truncations"] if t > N]
    if dropped and len(truncations) < 2:
        raise ConfigError(
            f"need at least two truncations to classify growth; dropped "
            f"{dropped} above N={N}, leaving {truncations}"
        )
    basis = build_basis(int(N), 1, DIRICHLET)
    ops_base = assemble_aL(basis, base.a, base.kappa2)
    ops_alt = assemble_aL(basis, alt.a, alt.kappa2)
    # the alt pencil enters through its bands; its eigenvectors are
    # computed only for an exponent with 2b not a positive integer
    pair = operator_pair(generalized_eig(ops_base), ops_alt)
    report = hs_curve(pair, cfg["gamma"], cfg["c"], truncations)
    payload = report.to_dict()
    if "cm_beta" in cfg:
        # the report's spectra of T give the constants where they can
        by_trunc = {
            str(t): list(report.cm_constants(cfg["cm_beta"], t)
                         or cm_equivalence_constants(pair, cfg["cm_beta"], t))
            for t in truncations
        }
        payload["cm_beta"] = cfg["cm_beta"]
        payload["cm_constants_by_truncation"] = by_trunc

    # the JSON first: a value it cannot hold (NaN, an infinity) fails
    # before any file is written, and the output directory is removed
    json_path = _write_json(os.path.join(outdir, "diagnose.json"), payload)
    csv_path = os.path.join(outdir, "diagnose.csv")
    report.write_csv(csv_path)
    eig_base_path = os.path.join(outdir, "eigenvalues_base.csv")
    eig_alt_path = os.path.join(outdir, "eigenvalues_alt.csv")
    write_eigenvalues_csv(eig_base_path, pair.lam)
    write_eigenvalues_csv(eig_alt_path, pair.lam_alt)
    artifacts = [csv_path, json_path, eig_base_path, eig_alt_path]
    lines = [f"diagnose: dropped truncations {dropped} above N={N}"] if dropped else []
    return artifacts, lines + [f"diagnose: classification = {report.classification}"]


def run_verdict(cfg, outdir):
    if "base_model" in cfg:
        vin = verdict_input_from_models(
            _resolve_model(cfg["base_model"]),
            _resolve_model(cfg["alt_model"]),
            d=cfg["d"],
            mean_diff_in_cm=cfg.get("mean_diff_in_cm"),
            higher_traces_zero=cfg.get("higher_traces_zero"),
        )
    else:
        # this schema branch's keys are VerdictInput's fields plus "out"
        vin = VerdictInput(
            **{
                k: tuple(v) if isinstance(v, list) else v
                for k, v in cfg.items()
                if k != "out"
            }
        )
    verdict = table1_verdict(vin)
    json_path = _write_json(os.path.join(outdir, "verdict.json"), verdict.to_dict())
    lines = [
        f"cm_isomorphic: {verdict.cm_isomorphic}",
        f"measures_equivalent: {verdict.measures_equivalent}",
        f"asympt_optimal: {verdict.asympt_optimal}",
    ]
    return [json_path], lines + [f"note: {note}" for note in verdict.notes]


def run_sample(cfg, outdir):
    model = _resolve_model(cfg["model"])
    factor = _model_factor(model, _model_basis(model, cfg["N"]))
    draws = sample_field(factor, cfg["seed"], cfg["n_samples"])
    if cfg["format"] == "bin":
        path = os.path.join(outdir, "samples.bin")
        write_matrix(path, draws)
    else:
        path = os.path.join(outdir, "samples.csv")
        n, n_samples = draws.shape
        write_csv(
            path,
            {
                "sample": np.repeat(np.arange(n_samples), n),
                "index": np.tile(np.arange(n), n_samples),
                "weight": draws.ravel(order="F"),
            },
        )
    return [path], [f"sample: wrote {path}"]


COMMANDS = {
    **{name: functools.partial(run_figure, name) for name in _FIGURES},
    "matern_check": run_matern_check,
    "diagnose": run_diagnose,
    "verdict": run_verdict,
    "sample": run_sample,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wmlab",
        description=(
            "Numerical experiments with random fields on the unit interval: "
            "kriging efficiency under covariance misspecification, analytic "
            "covariance checks, and operator-comparison diagnostics."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--N", type=int, default=None, help="discretization size")
        p.add_argument("--seed", type=int, default=None, help="random seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--threads", type=int, default=None, help="accepted; no effect")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    overrides = {key: getattr(args, key) for key in ("N", "seed", "out", "threads")}
    try:
        cfg, defaulted = load_config(args.command, args.config, overrides)
        t0 = time.time()
        outdir = cfg["out"]
        created = _make_outdir(outdir)
        try:
            artifacts, lines = COMMANDS[args.command](cfg, outdir)
        except BaseException:
            for path in created:
                try:
                    os.rmdir(path)  # refuses a directory that is not empty
                except OSError:
                    break
            raise
        manifest = {
            "command": args.command,
            "config": cfg,
            "defaulted_keys": defaulted,
            "version": __version__,
            "wall_time_seconds": time.time() - t0,
            "artifacts": sorted(artifacts),
        }
        _write_json(os.path.join(outdir, "manifest.json"), manifest)
        for line in lines:
            print(line)
        return 0
    except ConfigError as exc:
        print(f"wmlab {args.command}: config error: {exc}", file=sys.stderr)
        return 2
    except (
        NumericalIntegrityError,
        ConditioningError,
        AssemblyIntegrityError,
        DegenerateTargetError,
    ) as exc:
        dump = {
            "command": args.command,
            "error": type(exc).__name__,
            "message": str(exc),
        }
        cond = getattr(exc, "condition_estimate", None)
        if cond is not None:
            dump["condition_estimate"] = cond if math.isfinite(cond) else None
        print(json.dumps(dump, indent=2, sort_keys=True, allow_nan=False), file=sys.stderr)
        return 3
    except WmlabError as exc:
        print(
            f"wmlab {args.command}: invalid configuration value: "
            f"{type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
