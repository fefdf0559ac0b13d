"""Deterministic, atomic file output shared by the serializing modules.

Every float in a JSON or CSV file is written with 17 significant digits so
values round-trip bit-exactly through text, and identical inputs produce
byte-identical files. Each file is streamed into a temp file in the target
directory and renamed over the target only once complete, so readers
never observe partial output and a failed write leaves an existing target
untouched; a missing directory is made. A file is created as open() makes
one, mode 0666 less the process umask, and the umask is never changed.

A float matrix with one row per sample is streamed from the array a
result already holds, in the blocks of row_blocks (at most BLOCK_ROWS
rows), each converted, checked for non-finite values and written before
the next is formed. write_npy writes the DMD modes and the POD basis and
coordinates as .npy files: a format 1.0 header, then the values in C
order, the bytes np.save writes for the same C-ordered array; POD's basis
is its factor W times a scale, formed one block at a time. write_columns_csv
writes the time-series tables, 't,<labels>' over rows of t = i * dt and columns.
"""
from __future__ import annotations

import csv
import json
import math
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


def _non_finite(x) -> ValueError:
    return ValueError(f"refusing to serialize non-finite value {x!r}")


def format_float(x: float) -> str:
    """17-significant-digit decimal form; round-trips any float64."""
    if not math.isfinite(x):
        raise _non_finite(x)
    return format(float(x), ".17g")


def _json_fragment(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)  # escapes every control character
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: kv[0])
        inner = ", ".join(f"{_json_fragment(str(k))}: {_json_fragment(v)}" for k, v in items)
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_fragment(v) for v in obj) + "]"
    # numpy scalars and arrays land here; normalize via item()/tolist()
    if hasattr(obj, "tolist"):
        return _json_fragment(obj.tolist())
    if hasattr(obj, "item"):
        return _json_fragment(obj.item())
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


@contextmanager
def _atomic_open(path, binary: bool = False):
    """UTF-8, LF text handle (or, if binary, a byte handle) on a temp file
    beside path.

    The temp file replaces path when the block exits normally and is
    removed when it raises, so path is either fully written or untouched.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    # Created only if absent, with open()'s mode: 0o666 less the umask.
    tmp = target.with_name(f"{target.name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with (os.fdopen(fd, "wb") if binary
              else os.fdopen(fd, "w", encoding="utf-8", newline="\n")) as fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    """Write text to path via temp file + rename in the same directory."""
    with _atomic_open(path) as fh:
        fh.write(text)


def write_json(path, obj) -> None:
    """Canonical JSON: sorted keys, 17-significant-digit floats, LF, UTF-8."""
    atomic_write_text(path, _json_fragment(obj) + "\n")


def _csv_cell(cell) -> str:
    if cell is None:
        return ""
    if isinstance(cell, float):
        return format_float(cell)
    return str(cell)


#: Rows of a matrix that are formed, checked and written at a time.
#: lorenz-pod's 10000 rows make ten blocks.
BLOCK_ROWS = 1024


def row_blocks(nrows: int) -> list[tuple[int, int]]:
    """The blocks in which the rows of an nrows-row matrix are formed: the
    fewest near-equal ones of at most BLOCK_ROWS rows.

    They depend on nrows alone, because a product's bits can depend on the
    number of rows BLAS is given: a one-row block goes to the
    matrix-vector kernel, and OpenBLAS gives small products kernels of
    their own.
    """
    count = max(1, -(-nrows // BLOCK_ROWS))
    cuts = [nrows * i // count for i in range(count + 1)]
    return list(zip(cuts[:-1], cuts[1:]))


def _check_finite(rows: np.ndarray) -> None:
    # min and max carry a NaN or an infinity out without a cell-sized mask.
    if rows.size and not (math.isfinite(rows.min()) and math.isfinite(rows.max())):
        raise _non_finite(float(rows[~np.isfinite(rows)][0]))


def format_rows(rows: np.ndarray) -> str:
    """The CSV lines of a 2-D float64 array, every cell '%.17g' and finite."""
    _check_finite(rows)
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    return "".join([line % tuple(row) for row in rows.tolist()])


def write_columns_csv(path, labels: Sequence[str], dt: float, columns: Sequence[np.ndarray]) -> None:
    """'t,<labels>', then row i: i * dt and each columns[j][i] as '%.17g',
    stacked and formatted one block of row_blocks at a time. A non-finite
    value is refused with a ValueError and leaves no file behind."""
    with _atomic_open(path) as fh:
        fh.write("t," + ",".join(labels) + "\n")
        for lo, hi in row_blocks(len(columns[0])):
            t = np.arange(lo, hi) * dt  # the bits of (np.arange(nrows) * dt)[lo:hi]
            fh.write(format_rows(np.column_stack([t] + [c[lo:hi] for c in columns])))


def write_npy(path, matrix: np.ndarray, dtype, scale: float | None = None) -> None:
    """scale * matrix (matrix itself when scale is None) as a .npy file of
    dtype (float64 or complex128), C order, format 1.0: the bytes of
    np.save on the whole product in C order.

    The rows are scaled, converted to dtype, checked and written in the
    blocks of row_blocks, so no second array of the matrix's size is made.
    A non-finite value (a real or an imaginary part) is refused with a
    ValueError and leaves no file behind. None is not 1.0: multiplying a
    complex array by 1.0 can flip the sign of a zero.
    """
    dtype = np.dtype(dtype)
    nrows, ncols = matrix.shape
    header = {"descr": np.lib.format.dtype_to_descr(dtype), "fortran_order": False,
              "shape": (nrows, ncols)}
    with _atomic_open(path, binary=True) as fh:
        np.lib.format.write_array_header_1_0(fh, header)
        for lo, hi in row_blocks(nrows):
            rows = matrix[lo:hi] if scale is None else scale * matrix[lo:hi]
            block = np.ascontiguousarray(rows, dtype=dtype)
            _check_finite(block.view(np.float64))
            fh.write(block.data)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """CSV with comma separator, '.' decimal point, LF endings, header row.

    rows is an iterable of row sequences, in which floats are formatted
    with 17 significant digits (a non-finite one is refused and leaves no
    file behind), None becomes an empty cell and any other cell is
    written as str(cell).
    """
    with _atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(header))
        writer.writerows([_csv_cell(cell) for cell in row] for row in rows)
