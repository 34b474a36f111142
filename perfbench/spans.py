"""Span tracer for the traced benchmark run.

``install`` wraps the public functions of each wmlab layer and rebinds
every name that refers to them in every loaded ``wmlab`` module (``cli``
and ``kriging`` import them by name), so the package itself is unchanged.
Each call records a span in memory: id, name, start and end of the
call, enter and exit of the wrapper around it, parent id and run id. The
counted stages also record how many calls they get and how many
distinct arguments those calls carry.

The rest of the module works on the recorded spans and needs no wmlab
import: ``self_times`` subtracts from each span the part of its interval
that its child spans cover, and ``span_problems`` checks that spans nest.
"""

import hashlib
import inspect
import sys
import time
import weakref

# (module, attribute, span name, counted group). A group aggregates calls
# and distinct arguments over the functions that share it.
WRAPPED = (
    ("fem1d", "build_basis", "fem1d.build_basis", None),
    ("fem1d", "mass_matrix", "fem1d.mass_matrix", "fem1d.mass_matrix"),
    ("fem1d", "assemble_aL", "fem1d.assemble_aL", "fem1d.assemble"),
    ("fem1d", "assemble_a2", "fem1d.assemble_a2", "fem1d.assemble"),
    ("fem1d", "assemble_a3", "fem1d.assemble_a3", "fem1d.assemble"),
    ("fem1d", "integral_obs_matrix", "fem1d.integral_obs_matrix", "fem1d.integral_obs_matrix"),
    ("fem1d", "point_obs_matrix", "fem1d.point_obs_matrix", None),
    ("kriging", "efficiency_curve_integral", "kriging.efficiency_curve", "kriging.efficiency_curve"),
    ("kriging", "efficiency_curve_point", "kriging.efficiency_curve", "kriging.efficiency_curve"),
    ("kriging", "write_curves_csv", "kriging.write_curves_csv", None),
    ("spectral", "generalized_eig", "spectral.generalized_eig", "spectral.generalized_eig"),
    ("spectral", "covariance_weights", "spectral.covariance_weights", None),
    ("spectral", "sample_field", "spectral.sample_field", None),
    ("diagnostics", "cross_gram", "diagnostics.cross_gram", None),
    ("diagnostics", "t_operator", "diagnostics.t_operator", None),
    ("diagnostics", "hs_curve", "diagnostics.hs_curve", None),
    ("diagnostics", "cm_equivalence_constants", "diagnostics.cm_equivalence_constants", None),
    ("matio", "write_matrix", "matio.write_matrix", None),
    ("matio", "write_eigenvalues_csv", "matio.write_eigenvalues_csv", None),
    ("cli", "main", "cli", None),
)

# Methods of model_config.CoefficientField, traced as one span name; the
# number of points they evaluate is counted.
COEFF_METHODS = ("value", "derivative")
COEFF_SPAN = "model_config.coeff_eval"

SELF_TIME_SPANS = (
    "fem1d.integral_obs_matrix",
    "fem1d.assemble_aL",
    "fem1d.assemble_a2",
    "fem1d.assemble_a3",
    "fem1d.mass_matrix",
    "fem1d.build_basis",
    "fem1d.point_obs_matrix",
    "kriging.efficiency_curve",
    COEFF_SPAN,
    "spectral.generalized_eig",
    "spectral.covariance_weights",
    "spectral.sample_field",
    "diagnostics.cross_gram",
    "diagnostics.t_operator",
    "diagnostics.hs_curve",
    "diagnostics.cm_equivalence_constants",
    "kriging.write_curves_csv",
    "matio.write_matrix",
    "matio.write_eigenvalues_csv",
    "cli",
)
COUNTED_GROUPS = (
    "fem1d.integral_obs_matrix",
    "fem1d.assemble",
    "fem1d.mass_matrix",
    "spectral.generalized_eig",
    "kriging.efficiency_curve",
)
# Plain counters: solve_points is the number of observation counts n over
# all efficiency curves, coeff_eval.points the number of coefficient
# evaluation points.
COUNTERS = ("kriging.solve_points", "model_config.coeff_eval.points")


class Tracer:
    """Spans and counters of one traced run, held in memory."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self._keys = {group: set() for group in COUNTED_GROUPS}
        self.calls = {group: 0 for group in COUNTED_GROUPS}
        self.counters = {name: 0 for name in COUNTERS}
        # id(AssembledOperators) -> (weak reference, key of the assembly
        # call that made it), so an eigensolve is keyed by its input's
        # provenance instead of hashing two dense matrices.
        self.provenance = {}

    def wrap(self, fn, name, group=None, after=None):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            # [enter, exit] also covers the tracer's own work around the
            # call, so a parent's self time does not include it.
            enter = time.perf_counter()
            key = None
            if group is not None:
                key = self._call_key(fn, signature, args, kwargs)
                self.calls[group] += 1
                self._keys[group].add(key)
            record = {"id": len(self.spans), "name": name, "run": self.run_id,
                      "parent": self._stack[-1] if self._stack else None,
                      "enter": enter}
            self.spans.append(record)
            self._stack.append(record["id"])
            record["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = record["exit"] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(self, args, result, key)
                record["exit"] = time.perf_counter()
            return result

        traced.__wrapped__ = fn
        return traced

    def _call_key(self, fn, signature, args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return (fn.__name__,) + tuple(
            (k, self._fingerprint(v)) for k, v in bound.arguments.items()
        )

    def _fingerprint(self, value):
        from wmlab.fem1d import AssembledOperators, SplineBasis

        if isinstance(value, SplineBasis):
            # build_basis is a pure function of these three fields
            return ("basis", value.order, value.n_dof, value.constraint_mode)
        if isinstance(value, AssembledOperators):
            entry = self.provenance.get(id(value))
            if entry is not None and entry[0]() is value:
                return entry[1]
            return ("ops", _digest(value.K), _digest(value.M), value.form_order)
        if hasattr(value, "tobytes"):
            return ("array", _digest(value))
        try:
            hash(value)
        except TypeError:
            return repr(value)
        return value

    def result(self):
        return {
            "spans": self.spans,
            "calls": dict(self.calls),
            "distinct": {group: len(keys) for group, keys in self._keys.items()},
            "counters": dict(self.counters),
        }


def _digest(array):
    import numpy as np

    return hashlib.sha256(np.ascontiguousarray(array).data).hexdigest()


def _after_assemble(tracer, args, ops, key):
    tracer.provenance[id(ops)] = (weakref.ref(ops), key)


def _after_curve(tracer, args, curve, key):
    tracer.counters["kriging.solve_points"] += len(curve.n_values)


def _after_coeff(tracer, args, value, key):
    import numpy as np

    tracer.counters["model_config.coeff_eval.points"] += int(np.size(args[1]))


_AFTER = {
    "assemble_aL": _after_assemble,
    "assemble_a2": _after_assemble,
    "assemble_a3": _after_assemble,
    "efficiency_curve_integral": _after_curve,
    "efficiency_curve_point": _after_curve,
}


def install(run_id):
    """Wrap the traced wmlab functions in this process; return the tracer.

    ``wmlab.cli`` is imported first, so that every module that imported a
    traced name is loaded and gets rebound.
    """
    import wmlab.cli  # noqa: F401  (loads every module the CLI uses)
    from wmlab.model_config import CoefficientField

    tracer = Tracer(run_id)
    replacement = {}
    for module, attr, name, group in WRAPPED:
        fn = getattr(sys.modules[f"wmlab.{module}"], attr)
        replacement[id(fn)] = (fn, tracer.wrap(fn, name, group, _AFTER.get(attr)))
    for module in [m for n, m in sys.modules.items() if n == "wmlab" or n.startswith("wmlab.")]:
        for attr, value in list(vars(module).items()):
            hit = replacement.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    for method in COEFF_METHODS:
        fn = getattr(CoefficientField, method)
        setattr(CoefficientField, method, tracer.wrap(fn, COEFF_SPAN, after=_after_coeff))
    return tracer


def _union_length(intervals):
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def self_times(spans):
    """{span id: duration minus the union of its children's intervals}.

    A child's interval runs from entering its wrapper to leaving it, so
    tracer bookkeeping is nobody's self time.
    """
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["enter"], s["exit"]))
    return {
        s["id"]: (s["end"] - s["start"]) - _union_length(children.get(s["id"], ()))
        for s in spans
    }


def span_problems(spans, run_s):
    """Ways the spans of one run fail to nest inside each other and the run."""
    problems = []
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if not s["enter"] <= s["start"] <= s["end"] <= s["exit"]:
            problems.append(f"span {s['id']} {s['name']} has unordered times")
        parent = by_id.get(s["parent"]) if s["parent"] is not None else None
        if s["parent"] is not None and parent is None:
            problems.append(f"span {s['id']} {s['name']} has unknown parent {s['parent']}")
        elif parent is not None and (
            parent["run"] != s["run"] or s["enter"] < parent["start"] or s["exit"] > parent["end"]
        ):
            problems.append(f"span {s['id']} {s['name']} is not inside its parent {parent['name']}")
    selfs = self_times(spans)
    negative = [i for i, v in selfs.items() if v < 0.0]
    if negative:
        problems.append(f"{len(negative)} spans have negative self time")
    total = sum(selfs.values())
    if total > run_s:
        problems.append(f"self times sum to {total:.6f} s, more than run_s {run_s:.6f} s")
    return problems


def layer_metrics(trace_result):
    """Per-layer figures of one traced run, keyed by metric name."""
    selfs = self_times(trace_result["spans"])
    metrics = {f"{name}.self_s": 0.0 for name in SELF_TIME_SPANS}
    for s in trace_result["spans"]:
        metrics[f"{s['name']}.self_s"] += selfs[s["id"]]
    for group in COUNTED_GROUPS:
        metrics[f"{group}.calls"] = trace_result["calls"][group]
        metrics[f"{group}.distinct"] = trace_result["distinct"][group]
    metrics.update(trace_result["counters"])
    metrics["trace_bookkeeping_s"] = sum(
        (s["exit"] - s["enter"]) - (s["end"] - s["start"]) for s in trace_result["spans"]
    )
    return metrics
