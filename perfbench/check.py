"""Checks on the artifacts a benchmark run writes.

Data artifacts are every file a CLI invocation writes except the SVG
chart and ``manifest.json``: the chart is presentation and the manifest
holds wall time.

``reference_problems`` compares them with the reference artifacts stored
under ``perfbench/reference``. Headers, row keys, the diagnose
classification and the ``samples.bin`` shape must match exactly; numbers
must agree to within

    |value - reference| <= RTOL * |reference| + ATOL.

Efficiency-curve columns span fifteen decades within one file (third
operator powers reach variances near 1e-17), so the tolerance is
relative per value, not scaled by a column maximum. RTOL allows for
summation reordered by BLAS threading: going from 2 to 1 OpenBLAS
threads moved no value by more than 2e-9 relative. Changing kappa^2 of
the builtin models by 2e-6 relative moves values by 3e-6 and is caught.
ATOL only admits values that are zero up to roundoff.

``digests`` gives the SHA-256 of every data artifact; repeats of one
workload and seed must produce identical digests.
"""

import hashlib
import json
import math
import os
import struct

RTOL = 1e-7
ATOL = 1e-300

# Columns compared with the tolerance above; every other column is a key
# compared exactly.
NUMERIC_COLUMNS = frozenset(
    ["true_var", "missp_var", "efficiency", "e_max",
     "frobenius", "opnorm", "smin", "smax", "lambda_j"]
)

MATRIX_MAGIC = b"WMLABMAT"
MATRIX_HEADER = struct.Struct("<8sII")


def _is_data_artifact(name):
    return not (name.endswith(".svg") or name == "manifest.json")


def data_artifacts(outdir):
    """Relative paths of the data artifacts under outdir, sorted."""
    found = []
    for dirpath, _, files in os.walk(outdir):
        for name in files:
            if _is_data_artifact(name):
                found.append(os.path.relpath(os.path.join(dirpath, name), outdir))
    return sorted(found)


def digests(outdir):
    out = {}
    for rel in data_artifacts(outdir):
        h = hashlib.sha256()
        with open(os.path.join(outdir, rel), "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        out[rel] = h.hexdigest()
    return out


def _close(value, ref):
    return math.isfinite(value) and abs(value - ref) <= RTOL * abs(ref) + ATOL


def _csv_problems(rel, text, ref_text):
    lines, ref_lines = text.splitlines(), ref_text.splitlines()
    if not lines or lines[0] != ref_lines[0]:
        return [f"{rel}: header {lines[:1]} differs from reference {ref_lines[:1]}"]
    if len(lines) != len(ref_lines):
        return [f"{rel}: {len(lines) - 1} rows, reference has {len(ref_lines) - 1}"]
    header = ref_lines[0].split(",")
    numeric = [c in NUMERIC_COLUMNS for c in header]
    problems = []
    for i, (line, ref_line) in enumerate(zip(lines[1:], ref_lines[1:]), start=2):
        cells, ref_cells = line.split(","), ref_line.split(",")
        if len(cells) != len(ref_cells):
            problems.append(f"{rel}:{i}: {len(cells)} cells, reference has {len(ref_cells)}")
            continue
        for col, num, cell, ref_cell in zip(header, numeric, cells, ref_cells):
            if num:
                ok = _close(float(cell), float(ref_cell))
            else:
                ok = cell == ref_cell
            if not ok:
                problems.append(f"{rel}:{i}: {col} = {cell}, reference {ref_cell}")
    return problems


def _json_problems(where, value, ref):
    if isinstance(ref, dict):
        if not isinstance(value, dict) or sorted(value) != sorted(ref):
            return [f"{where}: keys differ from reference"]
        return [p for k in ref for p in _json_problems(f"{where}.{k}", value[k], ref[k])]
    if isinstance(ref, list):
        if not isinstance(value, list) or len(value) != len(ref):
            return [f"{where}: length differs from reference"]
        return [p for i, (v, r) in enumerate(zip(value, ref))
                for p in _json_problems(f"{where}[{i}]", v, r)]
    if isinstance(ref, float) and isinstance(value, (int, float)) and not isinstance(value, bool):
        return [] if _close(float(value), ref) else [f"{where} = {value}, reference {ref}"]
    if type(value) is not type(ref) or value != ref:
        return [f"{where} = {value!r}, reference {ref!r}"]
    return []


def _matrix_problems(rel, path, shape):
    with open(path, "rb") as fh:
        header = fh.read(MATRIX_HEADER.size)
        payload = fh.read()
    if len(header) != MATRIX_HEADER.size:
        return [f"{rel}: truncated header"]
    magic, rows, cols = MATRIX_HEADER.unpack(header)
    if magic != MATRIX_MAGIC or [rows, cols] != list(shape):
        return [f"{rel}: header {magic!r} {rows}x{cols}, expected {shape[0]}x{shape[1]}"]
    if len(payload) != 8 * rows * cols:
        return [f"{rel}: payload has {len(payload)} bytes, expected {8 * rows * cols}"]
    values = struct.unpack(f"<{rows * cols}d", payload)
    if not all(math.isfinite(v) for v in values):
        return [f"{rel}: non-finite values"]
    return []


def reference_problems(outdir, refdir, matrix_shapes):
    """Differences between the artifacts in outdir and the reference.

    ``matrix_shapes`` maps the relative path of each binary matrix to its
    expected (rows, cols); those files depend on the workload seed, so
    only their shape and finiteness are checked.
    """
    have = data_artifacts(outdir)
    want = sorted(set(data_artifacts(refdir)) | set(matrix_shapes))
    if have != want:
        return [f"artifacts {have} differ from expected {want}"]
    problems = []
    for rel in have:
        path = os.path.join(outdir, rel)
        if rel in matrix_shapes:
            problems += _matrix_problems(rel, path, matrix_shapes[rel])
            continue
        with open(path) as fh:
            text = fh.read()
        with open(os.path.join(refdir, rel)) as fh:
            ref_text = fh.read()
        if rel.endswith(".json"):
            problems += _json_problems(rel, json.loads(text), json.loads(ref_text))
        else:
            problems += _csv_problems(rel, text, ref_text)
    return problems
