"""The figure commands' SVG writer: its bytes, pinned on edge-case series."""

import hashlib

import pytest

from wmlab.cli import write_svg_log_curves

# series (label, xs, ys) that reach every branch of the writer
_CASES = {
    "no_series": [],
    "only_nonpositive": [("a", [1, 2, 3], [0.0, -1.0, 0.0]), ("b", [1, 2], [0.0, 0.0])],
    "one_point": [("a", [5], [0.25])],
    "run_broken_by_zero": [
        ("a", [1, 2, 3, 4, 5, 6, 7, 8], [1e-3, 2e-3, 0.0, 4e-3, 0.0, 6e-3, 7e-3, 8e-3]),
        ("b", [1, 2, 3], [0.5, 0.0, 0.5]),
    ],
    "more_than_ten_x": [("a", list(range(1, 14)), [10.0**-k for k in range(13)])],
    "non_integer_x": [("a", [0.5, 1.5, 2.25], [1.0, 0.1, 0.01])],
    "nine_series_one_decade": [(f"s{k}", [1, 2], [1.0, 1.0]) for k in range(9)],
}

# SHA-256 of each chart: a change that moves any byte of one fails here
_DIGESTS = {
    "no_series": "84516f1b866f3bb78996d3d918f057d8a05f7b2cca74e0dee9a6f4e15dc83632",
    "only_nonpositive": "87f10b1f573f4129f6bb4a63a42b472dd0ad545c4eb54eebf267f80206d82af4",
    "one_point": "bd7fe20ac6c4274f02afe2718afee3dcce1763259c9b97495a88b234f2dbb742",
    "run_broken_by_zero": "0dee31f4c97845d6d1b941105e0e745c9522722c9ac90fab934173e43665ede6",
    "more_than_ten_x": "37cb85d15ee1ced9d883b913aa2b039c824f5bd1058946aabb6ffe34a8f548bc",
    "non_integer_x": "75ba5f786400f8fa82f7760fe7a96be4309350d0ba7d88129386c222ca4f0f57",
    "nine_series_one_decade": "05969be7bf28985e0314dd599e5de93af58f17e1aea3e92948d0d361f7bb2940",
}


@pytest.mark.parametrize("name", sorted(_CASES))
def test_svg_bytes_are_pinned(tmp_path, name):
    path = tmp_path / f"{name}.svg"
    write_svg_log_curves(path, f"case {name}", _CASES[name], xlabel="n", ylabel="loss")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _DIGESTS[name]


def test_a_run_of_one_point_gets_a_marker_and_no_line(tmp_path):
    path = tmp_path / "c.svg"
    write_svg_log_curves(path, "t", _CASES["run_broken_by_zero"])
    text = path.read_text()
    # series a has runs of 2, 1 and 3 points; series b two runs of 1
    assert text.count("<polyline") == 2
    assert text.count("<circle") == 6 + 2
    assert text.endswith("</svg>\n")
