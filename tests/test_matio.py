"""Round-trip and error-path tests for the serialization helpers, and the
exact bytes of every CSV artifact."""

import numpy as np
import numpy.testing as npt
import pytest

from wmlab import cli
from wmlab.diagnostics import DiagnosticsReport
from wmlab.errors import DataError
from wmlab.kriging import EfficiencyCurve, curve_rows, write_curves_csv
from wmlab.matern import MaternComparison
from wmlab.matio import (
    MAGIC,
    read_matrix,
    write_csv,
    write_eigenvalues_csv,
    write_matrix,
)


def test_binary_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    a = rng.standard_normal((13, 5))
    # include awkward values that would lose digits in a text format
    a[0, 0] = np.pi
    a[1, 1] = 1e-308
    a[2, 2] = -0.0
    path = tmp_path / "m.bin"
    write_matrix(path, a)
    b = read_matrix(path)
    assert b.shape == a.shape
    assert b.dtype == np.float64
    npt.assert_array_equal(a, b)


def test_binary_header_layout(tmp_path):
    path = tmp_path / "m.bin"
    write_matrix(path, np.zeros((3, 2)))
    raw = path.read_bytes()
    assert raw[:8] == MAGIC
    assert int.from_bytes(raw[8:12], "little") == 3
    assert int.from_bytes(raw[12:16], "little") == 2
    assert len(raw) == 16 + 8 * 6


def test_write_rejects_non_2d(tmp_path):
    with pytest.raises(DataError):
        write_matrix(tmp_path / "v.bin", np.arange(4.0))


def test_read_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(DataError, match="bad magic"):
        read_matrix(path)


def test_read_rejects_truncation(tmp_path):
    path = tmp_path / "m.bin"
    write_matrix(path, np.ones((4, 4)))
    raw = path.read_bytes()
    short = tmp_path / "short.bin"
    short.write_bytes(raw[:-8])
    with pytest.raises(DataError, match="truncated payload"):
        read_matrix(short)
    stub = tmp_path / "stub.bin"
    stub.write_bytes(raw[:10])
    with pytest.raises(DataError, match="truncated header"):
        read_matrix(stub)


def test_csv_repr_round_trip(tmp_path):
    # enough rows to span several of write_csv's blocks
    a = np.random.default_rng(3).standard_normal((10_000, 2))
    a[:2] = [[np.pi, 1.0 / 3.0], [6.02e23, -1e-300]]
    path = tmp_path / "m.csv"
    write_csv(path, {"x": a[:, 0], "y": list(a[:, 1])})
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y"
    b = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    npt.assert_array_equal(a, b)


_RULE_CASES = [
    (None, ""),
    (np.int64(7), "7"),
    (np.float64(0.1), "0.1"),
    (-0.0, "-0.0"),
    (1e-300, "1e-300"),
    (5e-324, "5e-324"),  # the smallest subnormal
    ("z(s0)", "z(s0)"),
]


def test_write_csv_rule_per_value(tmp_path):
    path = tmp_path / "rule.csv"
    write_csv(path, {"v": [v for v, _ in _RULE_CASES]})
    assert path.read_text() == "v\n" + "".join(f"{text}\n" for _, text in _RULE_CASES)


def test_write_csv_arrays_follow_the_same_rule(tmp_path):
    floats = np.array([-0.0, 1e-300, 5e-324, 0.1])
    ints = np.array([7, -3, 0], dtype=np.int64)
    for values in (floats, ints):
        by_array, by_value = tmp_path / "a.csv", tmp_path / "v.csv"
        write_csv(by_array, {"v": values})
        write_csv(by_value, {"v": list(values)})
        assert by_array.read_bytes() == by_value.read_bytes()
    assert by_array.read_text() == "v\n7\n-3\n0\n"


def test_write_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(DataError, match="differ in length"):
        write_csv(tmp_path / "r.csv", {"a": [1, 2], "b": [1.0]})


def _curves(path):
    integral = EfficiencyCurve(
        design="integral",
        n_values=(10, 20),
        e_max=(0.25, 1e-300),
        target=(15, 30),
        true_var=(1.5, 2.0),
        missp_var=(1.875, 2.0),
        flagged=(False, False),
        cond=(1.0, 2.0),
        per_target={
            10: (np.array([11, 15]), np.array([0.1, 0.25]), np.array([3.0, 1.5]),
                 np.array([3.3, 1.875])),
            20: (np.array([30]), np.array([1e-300]), np.array([2.0]), np.array([2.0])),
        },
    )
    point = EfficiencyCurve(
        design="point",
        n_values=(10,),
        e_max=(-0.0,),
        target=("z(s0)",),
        true_var=(5e-324,),
        missp_var=(0.5,),
        flagged=(True,),
        cond=(1e13,),
    )
    rows = curve_rows("fig2", "model2", 1.0, None, integral, per_target=True)
    rows += curve_rows("fig1_point", "model1", 1.0, 10.0, point)
    write_curves_csv(path, rows)


def _diagnose(path):
    DiagnosticsReport(
        gamma=1.0,
        c=1.0,
        truncations=(2, 10),
        frobenius=(0.5, 1e-17),
        opnorm=(0.25, 3.0),
        smin=(0.0, 5e-324),
        smax=(0.25, 3.0),
        tail_ratio=(1.0, 0.5),
        classification="HS_stable",
    ).write_csv(path)


def _matern_check(path):
    MaternComparison(
        offsets=np.array([0.0, 0.01]),
        fem_values=np.array([1.0, 0.9]),
        analytic_values=np.array([1.0, 0.8999999999999999]),
        rel_errors=np.array([0.0, 1.2e-16]),
        max_rel_error=1.2e-16,
    ).write_csv(path)


def _eigenvalues(path):
    write_eigenvalues_csv(path, [1.5, 2.5e-300, 99.0])


def _samples(path):
    draws = np.array([[0.5, -0.0], [1e-300, 5e-324], [np.pi, -2.0]])
    out = path.parent / "sample"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "sample_field", lambda factor, seed, n: draws)
        assert cli.main(["sample", "--N", "10", "--out", str(out)]) == 0
    (out / "samples.csv").replace(path)


# (artifact, writer on small fixed inputs, the exact bytes it writes)
_ARTIFACTS = [
    (
        "curves",
        _curves,
        b"experiment,model,beta,delta,design,n,target,true_var,missp_var,efficiency,e_max\n"
        b"fig1_point,model1,1.0,10.0,point,10,z(s0),5e-324,0.5,-0.0,-0.0\n"
        b"fig2,model2,1.0,,integral,10,max,1.5,1.875,0.25,0.25\n"
        b"fig2,model2,1.0,,integral,10,11,3.0,3.3,0.1,0.25\n"
        b"fig2,model2,1.0,,integral,10,15,1.5,1.875,0.25,0.25\n"
        b"fig2,model2,1.0,,integral,20,max,2.0,2.0,1e-300,1e-300\n"
        b"fig2,model2,1.0,,integral,20,30,2.0,2.0,1e-300,1e-300\n",
    ),
    (
        "diagnose",
        _diagnose,
        b"truncation,frobenius,opnorm,smin,smax\n2,0.5,0.25,0.0,0.25\n10,1e-17,3.0,5e-324,3.0\n",
    ),
    (
        "matern_check",
        _matern_check,
        b"offset,fem_value,matern_value,rel_error\n"
        b"0.0,1.0,1.0,0.0\n0.01,0.9,0.8999999999999999,1.2e-16\n",
    ),
    ("eigenvalues", _eigenvalues, b"j,lambda_j\n1,1.5\n2,2.5e-300\n3,99.0\n"),
    (
        "samples",
        _samples,
        b"sample,index,weight\n0,0,0.5\n0,1,1e-300\n0,2,3.141592653589793\n"
        b"1,0,-0.0\n1,1,5e-324\n1,2,-2.0\n",
    ),
]


@pytest.mark.parametrize("name,write,expected", _ARTIFACTS, ids=[a[0] for a in _ARTIFACTS])
def test_artifact_csv_bytes(tmp_path, name, write, expected):
    path = tmp_path / f"{name}.csv"
    write(path)
    assert path.read_bytes() == expected


def test_eigenvalue_csv_format(tmp_path):
    path = tmp_path / "eigs.csv"
    write_eigenvalues_csv(path, [1.5, 2.5, 99.0])
    lines = path.read_text().splitlines()
    assert lines[0] == "j,lambda_j"
    assert lines[1] == "1,1.5"
    assert lines[3] == "3,99.0"
