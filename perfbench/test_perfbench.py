"""Smoke test of the benchmark itself.

Run from the repository root with ``python -m pytest perfbench``. Each
workload runs once at the tiny "smoke" size, traced and untraced, and
must report every metric that BENCHMARK.json declares, with its unit.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import check  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_declared_workloads_are_the_benchmarked_ones():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_workload_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 2
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "integral", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_reference_check_catches_a_small_change(tmp_path):
    refdir = os.path.join(run.REFERENCE_ROOT, "smoke", "integral")
    outdir = tmp_path / "out"
    shutil.copytree(refdir, outdir)
    assert check.reference_problems(outdir, refdir, {}) == []

    csv = outdir / "fig2" / "fig2.csv"
    lines = csv.read_text().splitlines()
    cells = lines[1].split(",")
    value = float(cells[-1])
    cells[-1] = repr(value * (1 + 1e-12))
    csv.write_text("\n".join(lines[:1] + [",".join(cells)] + lines[2:]) + "\n")
    assert check.reference_problems(outdir, refdir, {}) == []

    cells[-1] = repr(value * (1 + 1e-5))
    csv.write_text("\n".join(lines[:1] + [",".join(cells)] + lines[2:]) + "\n")
    assert len(check.reference_problems(outdir, refdir, {})) == 1
