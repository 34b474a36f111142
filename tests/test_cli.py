"""Command-line interface: config handling, artifacts, exit codes."""

import dataclasses
import json
import os
import subprocess
import sys
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


def test_every_default_is_a_schema_property():
    assert set(wmlab.cli.DEFAULTS) == set(wmlab.cli.SCHEMAS) == set(wmlab.cli.COMMANDS)
    for command, defaults in wmlab.cli.DEFAULTS.items():
        schema = wmlab.cli.SCHEMAS[command]
        branches = schema.get("oneOf", [schema])
        for key in defaults:
            assert any(key in b["properties"] for b in branches), (command, key)
        assert defaults["out"] == f"out/{command}"


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
