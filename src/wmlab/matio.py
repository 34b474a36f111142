"""Binary and CSV serialization.

The binary format is deliberately minimal: an 8-byte magic ``WMLABMAT``,
two little-endian uint32 fields (rows, cols), then rows*cols float64
values in row-major order. It round-trips bit-exactly and is readable
from any language without a dependency.

Every CSV artifact is written by :func:`write_csv`, the one place that
decides how a value becomes text: None is an empty cell, an integer its
digits, a float its ``repr`` (which reads back as the same double),
anything else ``str``.
"""

import struct

import numpy as np

from .errors import DataError

MAGIC = b"WMLABMAT"
_HEADER = struct.Struct("<8sII")
_BLOCK_ROWS = 4096

__all__ = ["write_matrix", "read_matrix", "write_csv", "write_eigenvalues_csv"]


def write_matrix(path, matrix):
    """Write a 2-d float array in the WMLABMAT binary format."""
    arr = np.ascontiguousarray(matrix, dtype="<f8")
    if arr.ndim != 2:
        raise DataError(f"expected a 2-d array, got shape {arr.shape}")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, arr.shape[0], arr.shape[1]))
        fh.write(arr.tobytes(order="C"))


def read_matrix(path):
    """Read a matrix written by :func:`write_matrix`."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise DataError(f"{path}: truncated header")
        magic, rows, cols = _HEADER.unpack(header)
        if magic != MAGIC:
            raise DataError(f"{path}: bad magic {magic!r}")
        payload = fh.read(8 * rows * cols)
    if len(payload) != 8 * rows * cols:
        raise DataError(f"{path}: truncated payload")
    return np.frombuffer(payload, dtype="<f8").reshape(rows, cols).copy()


def _cell(v):
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _cells(values):
    """A column as strings. Float and integer arrays are converted in one
    ``tolist`` each, which gives the same strings as :func:`_cell`."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "fiu":
        return map(repr if values.dtype.kind == "f" else str, values.tolist())
    return map(_cell, values)


def write_csv(path, columns):
    """Write a CSV from ``columns``, an ordered mapping of header name to
    a sequence of column values; all columns have one length.

    Rows are converted and written in blocks, so memory stays bounded
    however long the columns are.
    """
    lengths = {len(values) for values in columns.values()}
    if len(lengths) > 1:
        raise DataError(f"CSV columns differ in length: {sorted(lengths)}")
    n_rows = lengths.pop() if lengths else 0
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for lo in range(0, n_rows, _BLOCK_ROWS):
            block = [_cells(values[lo : lo + _BLOCK_ROWS]) for values in columns.values()]
            fh.write("\n".join(map(",".join, zip(*block))) + "\n")


def write_eigenvalues_csv(path, eigenvalues):
    """CSV of (index, eigenvalue) pairs, 1-based index, ascending order."""
    vals = np.asarray(eigenvalues, dtype=np.float64).ravel()
    write_csv(path, {"j": np.arange(1, vals.size + 1), "lambda_j": vals})
