"""Command-line interface: config handling, artifacts, exit codes."""

import dataclasses
import importlib.util
import json
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import wmlab.cli
import wmlab.diagnostics
from wmlab.cli import main
from wmlab.matio import read_matrix

CSV_HEADER = (
    "experiment,model,beta,delta,design,n,target,true_var,missp_var,efficiency,e_max"
)


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _run(tmp_path, command, payload, *extra):
    cfg = _write(tmp_path, f"{command}.json", payload)
    return main([command, "--config", cfg, *extra])


# ------------------------------------------------------- config errors


def test_invalid_json_reports_location(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"deltas": [10,]}')
    assert main(["fig1_integral", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "not valid JSON" in err


def test_schema_violation_names_the_field(tmp_path, capsys):
    code = _run(tmp_path, "fig1_integral", {"deltas": "ten"})
    assert code == 2
    assert ".deltas" in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path, capsys):
    code = _run(tmp_path, "fig1_integral", {"delta": [10]})
    assert code == 2


def test_flag_not_applicable_to_subcommand_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["fig2", "--s0", "0.3"])
    assert exc.value.code == 2


def test_missing_required_model_fields(tmp_path, capsys):
    code = _run(tmp_path, "diagnose", {"base_model": {"name": "base42", "beta": 1}})
    assert code == 2


def test_config_may_be_omitted_when_defaults_suffice(tmp_path):
    out = str(tmp_path / "o")
    code = main(
        ["sample", "--N", "60", "--out", out]
    )
    assert code == 0
    assert os.path.exists(os.path.join(out, "samples.csv"))


_BASE41 = {"name": "base41", "beta": 1}

# the keys that no default supplies, one dict per accepted form
_REQUIRED_FORMS = {
    "diagnose": [{"base_model": _BASE41, "alt_model": {**_BASE41, "name": "model2_41"}}],
    "verdict": [
        {"beta": 1, "beta_alt": 1, "a_relation": "equal"},
        {"base_model": _BASE41, "alt_model": {**_BASE41, "name": "model2_41"}},
    ],
}


def test_every_default_is_a_schema_property():
    assert set(wmlab.cli.DEFAULTS) == set(wmlab.cli.SCHEMAS) == set(wmlab.cli.COMMANDS)
    for command, defaults in wmlab.cli.DEFAULTS.items():
        schema = wmlab.cli.SCHEMAS[command]
        branches = schema.get("oneOf", [schema])
        for key in defaults:
            assert any(key in b["properties"] for b in branches), (command, key)
        assert defaults["out"] == f"out/{command}"
        for form in _REQUIRED_FORMS.get(command, [{}]):
            errors, _ = wmlab.cli._check(schema, {**defaults, **form})
            assert errors == [], (command, form)


# every keyword wmlab.cli._check implements
_CHECKED_KEYWORDS = {
    "type", "enum", "minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum",
    "minItems", "maxItems", "uniqueItems", "minLength", "items", "properties",
    "required", "additionalProperties", "oneOf",
}


def _subschemas(schema):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _subschemas(sub)
    if "items" in schema:
        yield from _subschemas(schema["items"])
    for sub in schema.get("oneOf", []):
        yield from _subschemas(sub)


@pytest.mark.parametrize("command", sorted(wmlab.cli.SCHEMAS))
def test_schemas_use_only_checked_keywords(command):
    # a keyword the checker does not know would be ignored, not enforced
    for schema in _subschemas(wmlab.cli.SCHEMAS[command]):
        assert set(schema) <= _CHECKED_KEYWORDS, set(schema) - _CHECKED_KEYWORDS


_EITHER = {"oneOf": [{"type": "number"}, {"type": "integer"}]}


@pytest.mark.parametrize(
    "schema, value, valid",
    [
        ({"type": "number"}, True, False),
        ({"type": "integer"}, False, False),
        ({"type": "integer"}, 10.0, True),
        ({"type": "integer"}, 10.5, False),
        ({"type": "integer"}, 10**400, True),
        ({"type": "number"}, math.nan, False),
        ({"type": "integer"}, -math.inf, False),
        ({"enum": [1, 2, 3]}, 1.0, True),
        ({"enum": [1, 2, 3]}, True, False),
        ({"enum": [[1], {"a": 0}]}, [1.0], True),
        ({"enum": [[1], {"a": 0}]}, {"a": False}, False),
        ({"type": "array", "uniqueItems": True}, [1, 1.0], False),
        ({"type": "array", "uniqueItems": True}, [1, True], True),
        ({"type": "array", "uniqueItems": True}, [[1], [1.0]], False),
        ({"type": "array", "uniqueItems": True}, [[1], [True]], True),
        ({"type": "number", "maximum": 3}, 3.0, True),
        ({"type": "number", "maximum": 3}, 3.5, False),
        ({"type": "number", "exclusiveMaximum": 0.5}, 0.5, False),
        ({"type": "number", "minimum": 0}, 0, True),
        (_EITHER, 1.5, True),
        (_EITHER, 1, False),  # valid under both branches
        (_EITHER, "1", False),
    ],
)
def test_checker_follows_draft_2020_12(schema, value, valid):
    # bool is not a number, 10.0 is an integer, 1 equals 1.0 but true is
    # not 1, and oneOf wants exactly one branch
    errors, _ = wmlab.cli._check(schema, value)
    assert (not errors) == valid, errors


def _non_finite(value):
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, dict):
        value = list(value.values())
    return isinstance(value, list) and any(map(_non_finite, value))


_CUSTOM_MODEL = {
    "beta": 1.3,
    "a": {"kind": "constant", "params": [1.0]},
    "kappa2": {"kind": "polynomial", "params": [1.0, 2.0]},
    "tau": 2.0,
    "basis_order": 2,
}

_MUTANTS = [
    0, 1, 2, 3, 4, 9, 10, 10.0, 2.5, 0.25, 0.5, 1.0, 1e-9, -1, -0.5, True, False, None,
    "", "x", "csv", "bin", "equal", "model1", "base41", "constant", [], [1], [1, 1.0],
    [True], [1.0, 2.0, 3.0, 4.0], ["model1", "model2"], [[1], [1.0]], {}, _BASE41,
    {"kind": "constant", "params": [1.0]}, float("nan"), float("inf"), -float("inf"),
]


def _mutate(rng, value, keys):
    """A copy of ``value`` with one random edit somewhere inside it."""
    if isinstance(value, dict) and value and rng.random() < 0.6:
        key = rng.choice(list(value))
        return {**value, key: _mutate(rng, value[key], keys)}
    if isinstance(value, list) and value and rng.random() < 0.6:
        i = rng.randrange(len(value))
        return [*value[:i], _mutate(rng, value[i], keys), *value[i + 1:]]
    edit = rng.randrange(3)
    if isinstance(value, dict) and edit == 0 and value:
        key = rng.choice(list(value))
        return {k: v for k, v in value.items() if k != key}
    if isinstance(value, dict) and edit == 1:
        return {**value, rng.choice(keys): rng.choice(_MUTANTS)}
    if isinstance(value, list) and edit == 1 and value:
        return [*value, rng.choice(value)]
    return json.loads(json.dumps(rng.choice(_MUTANTS)))


def test_checker_agrees_with_jsonschema(monkeypatch):
    # jsonschema is a test-only oracle: accept/reject must match on every
    # config without NaN or infinities, which only the checker rejects
    jsonschema = pytest.importorskip("jsonschema")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "_perfbench_run", os.path.join(root, "perfbench", "run.py")
    )
    monkeypatch.setattr(sys, "path", list(sys.path))
    perfbench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(perfbench)

    seeds = [
        (command, {**defaults, **form})
        for command, defaults in wmlab.cli.DEFAULTS.items()
        for form in _REQUIRED_FORMS.get(command, [{}])
    ]
    seeds += [
        (command, config)
        for sizes in perfbench.WORKLOADS.values()
        for invocations in sizes.values()
        for command, config, _ in invocations
    ]
    seeds += [
        ("sample", {"model": _CUSTOM_MODEL, "n_samples": 2}),
        ("matern_check", {"model": {**_BASE41, "delta": 10.0}}),
        ("verdict", {**_UNDECIDABLE, "d": 2, "a_ratio": 2.0, "kappa2_equal": None}),
        ("verdict", {"base_model": _CUSTOM_MODEL, "alt_model": _BASE41, "d": 1}),
    ]
    keys = sorted(
        {key for schema in wmlab.cli.SCHEMAS.values() for sub in _subschemas(schema)
         for key in sub.get("properties", {})} | {"zz"}
    )
    validators = {
        command: jsonschema.Draft202012Validator(schema)
        for command, schema in wmlab.cli.SCHEMAS.items()
    }
    rng = random.Random(20)
    corpus = list(seeds)
    while len(corpus) < 3600:
        command, config = rng.choice(seeds)
        for _ in range(rng.randint(1, 3)):
            config = _mutate(rng, config, keys)
        corpus.append((command, config))
    accepted = 0
    for command, config in corpus:
        errors, checked = wmlab.cli._check(wmlab.cli.SCHEMAS[command], config)
        if _non_finite(config):
            assert errors, (command, config)
            continue
        assert (not errors) == validators[command].is_valid(config), (command, config, errors)
        if not errors:
            accepted += 1
            assert wmlab.cli._same(checked, config)
    assert accepted >= 300  # about one config in nine holds


_MODEL_PAIR = _REQUIRED_FORMS["diagnose"][0]
_EXPLICIT_VERDICT = _REQUIRED_FORMS["verdict"][0]


@pytest.mark.parametrize(
    "command, payload, field",
    [
        ("diagnose", {**_MODEL_PAIR, "gamma": math.nan}, ".gamma"),
        ("diagnose", {**_MODEL_PAIR, "c": math.inf}, ".c"),
        ("diagnose", {**_MODEL_PAIR, "cm_beta": math.inf}, ".cm_beta"),
        ("matern_check", {"offsets": [math.nan]}, ".offsets[0]"),
        (
            "sample",
            {"model": {**_CUSTOM_MODEL, "kappa2": {"kind": "constant", "params": [math.nan]}}},
            ".model.kappa2.params[0]",
        ),
        ("sample", {"model": {**_CUSTOM_MODEL, "tau": math.inf}}, ".model.tau"),
        (
            "verdict",
            {**_EXPLICIT_VERDICT, "a_relation": "proportional", "a_ratio": math.inf},
            ".a_ratio",
        ),
        # integer literals that no float holds
        ("diagnose", {**_MODEL_PAIR, "gamma": 10**401}, ".gamma"),
        ("diagnose", {**_MODEL_PAIR, "c": 10**401}, ".c"),
        ("diagnose", {**_MODEL_PAIR, "cm_beta": 10**401}, ".cm_beta"),
        (
            "sample",
            {"model": {**_CUSTOM_MODEL, "a": {"kind": "constant", "params": [10**401]}}},
            ".model.a.params[0]",
        ),
    ],
    ids=[
        "gamma", "c", "cm_beta", "offsets", "coefficient", "tau", "a_ratio",
        "gamma_int", "c_int", "cm_beta_int", "coefficient_int",
    ],
)
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, command, payload, field):
    # Python's json reads NaN and Infinity, and integers of any size;
    # JSON has no NaN or infinities, and a number must fit a double
    out = tmp_path / "o"
    assert _run(tmp_path, command, {**payload, "out": str(out)}) == 2
    err = capsys.readouterr().err
    assert f"config field '{field}': " in err and " is not a finite number" in err
    assert not out.exists()


def test_integer_literal_too_long_to_read_is_a_config_error(tmp_path, capsys):
    # Python's int() refuses a literal of more than 4300 digits
    path = tmp_path / "long.json"
    path.write_text('{"N": 100, "c": 1' + "0" * 5000 + "}")
    assert main(["diagnose", "--config", str(path)]) == 2
    assert "config error: config cannot be read: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload, flags, shown",
    [({}, ("--N", "100000000000"), "100000000000"), ({"N": 1e300}, (), "1e+300")],
    ids=["flag", "config"],
)
def test_n_beyond_the_lapack_integer_is_a_config_error(
    tmp_path, capsys, monkeypatch, payload, flags, shown
):
    # LAPACK's dimension arguments are 32-bit ints; the runner must not start
    monkeypatch.setitem(wmlab.cli.COMMANDS, "sample", lambda *_: pytest.fail("sample ran"))
    out = tmp_path / "o"
    assert _run(tmp_path, "sample", {**payload, "out": str(out)}, *flags) == 2
    err = capsys.readouterr().err
    assert f"config field '.N': {shown} is greater than the maximum of 2147483647" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, payload, key",
    [
        ("sample", {"N": 60.0, "n_samples": 2.0}, "n_samples"),
        ("verdict", {**_EXPLICIT_VERDICT, "d": 1.0}, "d"),
    ],
)
def test_integer_valued_floats_reach_the_runners_as_ints(tmp_path, command, payload, key):
    out = tmp_path / "o"
    assert _run(tmp_path, command, {**payload, "out": str(out)}) == 0
    # the manifest echoes the config as the runner saw it
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert type(config[key]) is int and config[key] == payload[key]


def test_cli_runs_without_jsonschema(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(wmlab.cli.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    runs = [
        ["fig2", "--N", "40", "--config",
         _write(tmp_path, "fig2.json", {"n_values": [5, 10, 20], "svg": False})],
        ["verdict", "--config", _write(tmp_path, "verdict.json", _MODEL_PAIR)],
        ["fig1_integral", "--config", _write(tmp_path, "bad.json", {"N": 5})],
    ]
    runs = [[*argv, "--out", str(tmp_path / str(i))] for i, argv in enumerate(runs)]
    blocked = (
        "import json, sys; sys.modules['jsonschema'] = None; from wmlab.cli import main; "
        "print([main(argv) for argv in json.loads(sys.argv[1])])"
    )
    out = subprocess.run(
        [sys.executable, "-c", blocked, json.dumps(runs)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.splitlines()[-1] == "[0, 0, 2]"
    assert "config field '.N': 5 is less than the minimum of 10" in out.stderr
    fresh = "import sys, wmlab.cli; print(sorted(m for m in sys.modules if 'jsonschema' in m))"
    out = subprocess.run(
        [sys.executable, "-c", fresh], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"


# ------------------------------------------------------- happy paths


def test_fig1_integral_artifacts_and_manifest(tmp_path):
    out = str(tmp_path / "o")
    payload = {
        "deltas": [10],
        "models": ["model1"],
        "n_values": [10, 20],
        "N": 150,
        "out": out,
        "svg": True,
    }
    assert _run(tmp_path, "fig1_integral", payload) == 0
    csv_lines = Path(out, "fig1_integral.csv").read_text().splitlines()
    assert csv_lines[0] == CSV_HEADER
    assert len(csv_lines) == 3
    manifest = json.loads(Path(out, "manifest.json").read_text())
    assert manifest["command"] == "fig1_integral"
    assert "per_target" in manifest["defaulted_keys"]
    assert "version" in manifest and "wall_time_seconds" in manifest
    svgs = [a for a in manifest["artifacts"] if a.endswith(".svg")]
    assert len(svgs) == 1 and os.path.exists(svgs[0])


def test_fig1_integral_rows_sorted_across_cells(tmp_path):
    out = str(tmp_path / "o")
    payload = {
        "deltas": [10, 1],
        "models": ["model2", "model1"],
        "n_values": [20, 10],
        "N": 150,
        "out": out,
        "svg": False,
    }
    assert _run(tmp_path, "fig1_integral", payload) == 0
    rows = Path(out, "fig1_integral.csv").read_text().splitlines()[1:]
    keys = []
    for row in rows:
        f = row.split(",")
        keys.append((f[0], f[1], float(f[3]), float(f[2]), int(f[5])))
    assert keys == sorted(keys)


def test_fig2_covers_selected_exponents(tmp_path):
    out = str(tmp_path / "o")
    payload = {
        "betas": [1, 2],
        "models": ["model1"],
        "n_values": [10, 20],
        "N": 150,
        "out": out,
        "svg": False,
    }
    assert _run(tmp_path, "fig2", payload) == 0
    rows = Path(out, "fig2.csv").read_text().splitlines()[1:]
    betas = sorted({float(r.split(",")[2]) for r in rows})
    assert betas == [1.0, 2.0]
    # delta column is empty for the 42 family
    assert all(r.split(",")[3] == "" for r in rows)


def test_matern_check_csv(tmp_path):
    out = str(tmp_path / "o")
    payload = {"offsets": [0.0, 0.05], "N": 200, "out": out}
    assert _run(tmp_path, "matern_check", payload) == 0
    lines = Path(out, "matern_check.csv").read_text().splitlines()
    assert lines[0] == "offset,fem_value,matern_value,rel_error"
    assert len(lines) == 3


def test_diagnose_artifacts(tmp_path):
    out = str(tmp_path / "o")
    payload = {
        "base_model": {"name": "base42", "beta": 1},
        "alt_model": {"name": "model2_42", "beta": 1},
        "N": 120,
        "truncations": [30, 60, 120],
        "cm_beta": 1.0,
        "out": out,
    }
    assert _run(tmp_path, "diagnose", payload) == 0
    report = json.loads(Path(out, "diagnose.json").read_text())
    assert report["classification"] in ("HS_stable", "non_compact", "compact_like")
    assert set(report["cm_constants_by_truncation"]) == {"30", "60", "120"}
    for name in ("diagnose.csv", "eigenvalues_base.csv", "eigenvalues_alt.csv"):
        assert os.path.exists(os.path.join(out, name))
    # smax repeats opnorm byte for byte, in the CSV as in the JSON
    rows = [line.split(",") for line in Path(out, "diagnose.csv").read_text().splitlines()]
    assert rows[0][2] == "opnorm" and rows[0][4] == "smax"
    assert [row[4] for row in rows[1:]] == [row[2] for row in rows[1:]]
    assert report["smax"] == report["opnorm"]


def test_diagnose_truncations_beyond_dofs_rejected(tmp_path, capsys):
    payload = {
        "base_model": {"name": "base42", "beta": 1},
        "alt_model": {"name": "model1_42", "beta": 1},
        "N": 50,
        "truncations": [100, 200],
        "out": str(tmp_path / "o"),
    }
    assert _run(tmp_path, "diagnose", payload) == 2


def _diagnose_payload(tmp_path, truncations, **extra):
    return {
        "base_model": {"name": "base41", "beta": 1},
        "alt_model": {"name": "model2_41", "beta": 1},
        "N": 100,
        "truncations": truncations,
        "out": str(tmp_path / "o"),
        **extra,
    }


def test_diagnose_names_dropped_truncations(tmp_path, capsys):
    assert _run(tmp_path, "diagnose", _diagnose_payload(tmp_path, [25, 50, 400])) == 0
    assert "diagnose: dropped truncations [400] above N=100" in capsys.readouterr().out
    rows = (tmp_path / "o" / "diagnose.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["25", "50"]


def test_diagnose_too_few_truncations_names_the_dropped_ones(tmp_path, capsys):
    assert _run(tmp_path, "diagnose", _diagnose_payload(tmp_path, [25, 400])) == 2
    err = capsys.readouterr().err
    assert "need at least two truncations" in err and "dropped [400] above N=100" in err


@pytest.mark.parametrize("gamma, solves, grams", [(1.0, 3, 1), (0.5, 6, 4)])
def test_diagnose_eigensolves_each_block_once_at_matched_exponents(
    tmp_path, monkeypatch, gamma, solves, grams
):
    # gamma == cm_beta: the constants come off hs_curve's spectra; otherwise
    # each truncation forms and eigensolves its own Gram block
    calls = []

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(scipy.linalg, "eigvalsh", counted("eigvalsh", scipy.linalg.eigvalsh))
    monkeypatch.setattr(
        wmlab.diagnostics, "_gram", counted("_gram", wmlab.diagnostics._gram)
    )
    payload = _diagnose_payload(tmp_path, [25, 50, 100], gamma=gamma, cm_beta=1.0)
    assert _run(tmp_path, "diagnose", payload) == 0
    assert calls.count("eigvalsh") == solves
    assert calls.count("_gram") == grams


@pytest.mark.parametrize("gamma, solves, cross_grams", [(1.0, 1, 0), (0.25, 2, 1)])
def test_diagnose_runs_the_alt_eigensolve_only_off_integer_exponents(
    tmp_path, monkeypatch, gamma, solves, cross_grams
):
    # 2 gamma = 2 cm_beta = 2 reads the alt pencil through its bands;
    # gamma = 0.25 takes the W route, which needs the alt eigenvectors
    calls = []

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapper

    eig = counted("generalized_eig", wmlab.cli.generalized_eig)
    monkeypatch.setattr(wmlab.cli, "generalized_eig", eig)
    monkeypatch.setattr(wmlab.diagnostics, "generalized_eig", eig)
    monkeypatch.setattr(
        wmlab.diagnostics, "cross_gram", counted("cross_gram", wmlab.diagnostics.cross_gram)
    )
    payload = _diagnose_payload(tmp_path, [25, 50, 100], gamma=gamma, cm_beta=1.0)
    assert _run(tmp_path, "diagnose", payload) == 0
    assert calls.count("generalized_eig") == solves
    assert calls.count("cross_gram") == cross_grams


@pytest.mark.parametrize(
    "extra, named",
    [({"gamma": 60}, "exponent 60.0"), ({"gamma": -200}, "exponent -200.0"),
     ({"cm_beta": 200}, "exponent 200.0"),
     # the shift c^(2 gamma) overflows, or the squares of T's diagonal do
     ({"c": 1e200}, "c = 1e+200"), ({"c": 1e100}, "c = 1e+100")],
)
def test_diagnose_overflowing_exponent_is_a_domain_error(tmp_path, capsys, extra, named):
    payload = _diagnose_payload(tmp_path, [25, 50, 100], **extra)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _run(tmp_path, "diagnose", payload) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert "DomainError" in err and named in err and "N = 100" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_verdict_model_pair_branch(tmp_path):
    out = str(tmp_path / "o")
    payload = {
        "base_model": {"name": "base42", "beta": 3},
        "alt_model": {"name": "model1_42", "beta": 3},
        "out": out,
    }
    assert _run(tmp_path, "verdict", payload) == 0
    verdict = json.loads(Path(out, "verdict.json").read_text())
    assert verdict["asympt_optimal"] is True


def test_verdict_explicit_branch(tmp_path):
    out = str(tmp_path / "o")
    payload = {
        "beta": 3,
        "beta_alt": 3,
        "a_relation": "equal",
        "kappa2_boundary_base": [100.0, 100.0, 0.0, 0.0],
        "kappa2_boundary_alt": [100.0, 50.0, 100.0, -350.0],
        "out": out,
    }
    assert _run(tmp_path, "verdict", payload) == 0
    verdict = json.loads(Path(out, "verdict.json").read_text())
    assert verdict["asympt_optimal"] is False
    assert any("slope" in note for note in verdict["notes"])


def test_verdict_explicit_branch_passes_every_key_as_a_field(tmp_path, monkeypatch):
    branch = wmlab.cli.SCHEMAS["verdict"]["oneOf"][0]["properties"]
    fields = {f.name for f in dataclasses.fields(wmlab.cli.VerdictInput)}
    assert set(branch) - {"out"} == fields
    seen = []
    real = wmlab.cli.table1_verdict
    monkeypatch.setattr(wmlab.cli, "table1_verdict", lambda vin: seen.append(vin) or real(vin))
    payload = {
        "d": 2,
        "beta": 1.5,
        "beta_alt": 1.5,
        "a_relation": "proportional",
        "a_ratio": 2.0,
        "kappa2_boundary_base": [1.0, 2.0, 3.0, 4.0],
        "kappa2_boundary_alt": [1.0, 2.0, 3.0, 5.0],
        "mean_diff_in_cm": True,
        "kappa2_equal": False,
        "higher_traces_zero": None,
    }
    assert _run(tmp_path, "verdict", {**payload, "out": str(tmp_path / "o")}) == 0
    (vin,) = seen
    expected = {k: tuple(v) if isinstance(v, list) else v for k, v in payload.items()}
    assert dataclasses.asdict(vin) == expected


_UNDECIDABLE = {  # beta above 13/4 with no higher-trace information
    "beta": 3.5,
    "beta_alt": 3.5,
    "a_relation": "equal",
    "kappa2_boundary_base": [100.0, 100.0, 0.0, 0.0],
    "kappa2_boundary_alt": [100.0, 100.0, 0.0, 0.0],
}


def test_failed_run_removes_the_directories_it_created(tmp_path, capsys):
    out = tmp_path / "a" / "b"
    assert _run(tmp_path, "verdict", {**_UNDECIDABLE, "out": str(out)}) == 2
    assert "higher-order boundary trace" in capsys.readouterr().err
    assert not (tmp_path / "a").exists()


def test_failed_run_keeps_a_directory_that_existed(tmp_path):
    out = tmp_path / "existing"
    out.mkdir()
    assert _run(tmp_path, "verdict", {**_UNDECIDABLE, "out": str(out)}) == 2
    assert out.is_dir() and not any(out.iterdir())


@pytest.mark.parametrize("suffix", ["", "x"])
def test_unusable_output_directory_is_a_config_error(tmp_path, capsys, suffix):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["matern_check", "--N", "20", "--out", str(blocker / suffix)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("wmlab matern_check: config error: cannot create output directory ")
    assert blocker.is_file()


def test_sample_formats_agree(tmp_path):
    base = {
        "model": {"name": "base41", "beta": 1},
        "n_samples": 2,
        "N": 60,
        "seed": 5,
    }
    out_csv = str(tmp_path / "csv")
    out_bin = str(tmp_path / "bin")
    assert _run(tmp_path, "sample", {**base, "format": "csv", "out": out_csv}) == 0
    assert _run(tmp_path, "sample", {**base, "format": "bin", "out": out_bin}) == 0
    lines = Path(out_csv, "samples.csv").read_text().splitlines()
    assert lines[0] == "sample,index,weight"
    assert len(lines) == 1 + 2 * 60
    from_csv = np.array([float(l.split(",")[2]) for l in lines[1:]]).reshape(2, 60)
    # the binary matrix keeps the columnwise (dof, sample) layout
    from_bin = read_matrix(os.path.join(out_bin, "samples.bin"))
    np.testing.assert_array_equal(from_csv, from_bin.T)


# --------------------------------------------------------- exit code 3


def test_numerical_failure_exits_three_with_diagnostic(tmp_path, capsys):
    payload = {
        "deltas": [10],
        "models": ["model1"],
        "n_values": [10],
        "N": 150,
        "delta_o": 1e-18,
        "svg": False,
        "out": str(tmp_path / "o"),
    }
    assert _run(tmp_path, "fig1_point", payload) == 3
    err = capsys.readouterr().err
    blob = json.loads(err)
    assert blob["error"] == "ConditioningError"
    assert "condition_estimate" in blob


def _constant_model(beta, a, kappa2, tau=1.0):
    return {
        "beta": beta,
        "a": {"kind": "constant", "params": [a]},
        "kappa2": {"kind": "constant", "params": [kappa2]},
        "tau": tau,
    }


@pytest.mark.parametrize(
    "model",
    [_constant_model(1, 1e308, 1200.0), _constant_model(1.3, 1e308, 1e308)],
    ids=["direct_beta_1", "spectral_beta_1.3"],
)
def test_overflowing_form_exits_three_before_lapack(tmp_path, capsys, model):
    # a = 1e308 overflows the element integrals of <a u', v'> on purpose
    payload = {"N": 20, "model": model, "out": str(tmp_path / "o")}
    assert _run(tmp_path, "sample", payload) == 3
    blob = json.loads(capsys.readouterr().err)
    assert blob["error"] == "AssemblyIntegrityError"
    assert "not finite" in blob["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "model",
    [_constant_model(1, 1.0, 100.0, tau=1e200), _constant_model(1, 1e308, 1200.0)],
    ids=["tau_squared_overflows", "whittle_variance_underflows"],
)
def test_matern_check_out_of_float_range_is_a_domain_error(tmp_path, capsys, model):
    payload = {"N": 20, "model": model, "out": str(tmp_path / "o")}
    assert _run(tmp_path, "matern_check", payload) == 2
    err = capsys.readouterr().err
    assert "DomainError" in err and "outside the float range" in err


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_non_finite_json_value_exits_three_and_writes_no_file(
    tmp_path, capsys, monkeypatch, value
):
    # JSON has no NaN or infinities; Python's default would write them
    monkeypatch.setattr(wmlab.cli, "cm_equivalence_constants", lambda pair, b, t: (0.0, value))
    assert _run(tmp_path, "diagnose", _diagnose_payload(tmp_path, [25, 50], cm_beta=1.0)) == 3
    blob = json.loads(capsys.readouterr().err)
    assert blob["error"] == "NumericalIntegrityError"
    json_path = tmp_path / "o" / "diagnose.json"
    assert str(json_path) in blob["message"]
    # the JSON is written first, so no file is left and the directory goes
    assert not (tmp_path / "o").exists()


# -------------------------------------------------------- determinism


def test_reruns_and_thread_counts_are_byte_identical(tmp_path):
    payload = {
        "deltas": [10],
        "models": ["model1", "model2"],
        "n_values": [10, 20],
        "N": 150,
        "svg": True,
    }
    outs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "3")):
        out = str(tmp_path / name)
        code = _run(
            tmp_path, "fig1_integral", {**payload, "out": out}, "--threads", threads
        )
        assert code == 0
        outs.append(out)
    ref_csv = Path(outs[0], "fig1_integral.csv").read_bytes()
    ref_svg = Path(outs[0], "fig1_integral.svg").read_bytes()
    for out in outs[1:]:
        assert Path(out, "fig1_integral.csv").read_bytes() == ref_csv
        assert Path(out, "fig1_integral.svg").read_bytes() == ref_svg


def test_mass_matrix_is_assembled_once_per_basis(tmp_path, monkeypatch):
    from wmlab import fem1d, kriging

    real = fem1d._assemble
    mass_assemblies = []

    def counted(basis, qpts, qwts, coeffs, d1, d2):
        if list(d1) == [0] and list(d2) == [0]:
            mass_assemblies.append(basis.n_dof)
        return real(basis, qpts, qwts, coeffs, d1, d2)

    monkeypatch.setattr(fem1d, "_assemble", counted)
    payload = {"deltas": [1, 10], "n_values": [10, 20], "N": 200, "svg": False}

    def run(name):
        fem1d._mass_matrix.cache_clear()
        kriging._true_stage.cache_clear()
        assert _run(tmp_path, "fig1_point", {**payload, "out": str(tmp_path / name)}) == 0
        return (tmp_path / name / "fig1_point.csv").read_bytes()

    first = run("a")
    assert mass_assemblies == [200]  # 4 cells and the true model share one M
    M = fem1d.mass_matrix(fem1d.build_basis(200, 1))
    assert not M.flags.writeable
    assert run("b") == first
    assert np.array_equal(fem1d.mass_matrix(fem1d.build_basis(200, 1)), M)


def test_point_figure_memory_is_linear_in_N(tmp_path):
    # K and M live in (p+1, N) bands and each Sigma costs O(N) per
    # observation, so the traced peak grows like N (about 3 kB per degree
    # of freedom here); one dense N x N matrix would be 160 kB per N
    import tracemalloc

    from wmlab import fem1d, kriging

    fem1d._mass_matrix.cache_clear()
    kriging._true_stage.cache_clear()
    N = 20_000
    payload = {"N": N, "svg": False, "out": str(tmp_path / "out")}
    tracemalloc.start()
    try:
        assert _run(tmp_path, "fig1_point", payload) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6_000 * N, f"traced peak {peak / 1e6:.1f} MB at N={N}"


def test_figures_never_expand_a_band(tmp_path, monkeypatch):
    # only the dense eigensolver may call dense(), and it never sees a
    # tridiagonal pencil: no command expands the band of a
    # piecewise-linear pencil, and integer-beta figures and samples never
    # reach an eigensolver; a half-integer beta (1.5) samples from the
    # banded factor, a fractional one (1.3) from the banded eigenpairs
    # (dsbgvd's eigenvalues, eigenvectors by inverse iteration)
    import sys

    from wmlab import fem1d, kriging, spectral

    def refuse(band):
        raise AssertionError("dense matrix built outside the eigensolver")

    real = fem1d.dense
    for name, module in list(sys.modules.items()):
        if name.startswith("wmlab") and getattr(module, "dense", None) is real:
            monkeypatch.setattr(module, "dense", refuse)
    assert spectral.dense is refuse
    fem1d._mass_matrix.cache_clear()
    kriging._true_stage.cache_clear()
    point = {"deltas": [10], "n_values": [10, 20], "N": 120, "svg": False}
    fig2 = {"betas": [1, 2, 3], "n_values": [5, 10], "N": 60, "svg": False}
    assert _run(tmp_path, "fig1_point", {**point, "out": str(tmp_path / "p")}) == 0
    assert _run(tmp_path, "fig2", {**fig2, "out": str(tmp_path / "f")}) == 0
    for name, beta in (("base41", 1), ("base42", 2), ("base42", 3)):
        sample = {"model": {"name": name, "beta": beta}, "N": 60, "n_samples": 2}
        assert _run(tmp_path, "sample", {**sample, "out": str(tmp_path / f"s{beta}")}) == 0
    for beta in (1.5, 1.3):
        fractional = {"model": {"beta": beta, "a": {"kind": "constant", "params": [1.0]},
                                "kappa2": {"kind": "constant", "params": [1200.0]}, "tau": 1.0},
                      "N": 60, "n_samples": 2}
        assert _run(tmp_path, "sample", {**fractional, "out": str(tmp_path / f"s{beta}")}) == 0
    diagnose = {"base_model": {"name": "base41", "beta": 1},
                "alt_model": {"name": "model2_41", "beta": 1}, "N": 60, "truncations": [30, 60]}
    assert _run(tmp_path, "diagnose", {**diagnose, "out": str(tmp_path / "d")}) == 0


def test_sample_reruns_byte_identical(tmp_path):
    payload = {
        "model": {"name": "base41", "beta": 1},
        "n_samples": 3,
        "N": 80,
        "seed": 11,
        "format": "csv",
    }
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    assert _run(tmp_path, "sample", {**payload, "out": a}) == 0
    assert _run(tmp_path, "sample", {**payload, "out": b}) == 0
    assert (
        Path(a, "samples.csv").read_bytes()
        == Path(b, "samples.csv").read_bytes()
    )


def test_cli_import_leaves_sparse_and_special_unloaded():
    # importing either would add to every command's start-up time
    src = os.path.dirname(os.path.dirname(os.path.abspath(wmlab.cli.__file__)))
    code = (
        "import sys, wmlab.cli; print(wmlab.cli.__file__); "
        "print(sorted(m for m in sys.modules if m.startswith(('scipy.sparse', 'scipy.special'))))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    path, loaded = out.stdout.splitlines()
    assert path.startswith(src)
    assert loaded == "[]"
