"""Deterministic, atomic file output shared by the serializing modules.

Every float in a JSON or CSV file is written with 17 significant digits so
values round-trip bit-exactly through text, and identical inputs produce
byte-identical files. Each file is streamed into a temp file in the target
directory and renamed over the target only once complete, so readers
never observe partial output and a failed write leaves an existing target
untouched; a missing directory is made. A file is created as open() makes
one, mode 0666 less the process umask, and the umask is never changed.

A float matrix with one row per sample (the DMD modes and the POD basis
and coordinates) is written by write_npy as a .npy file: a format 1.0
header, then the values in C order, the bytes np.save writes for the same
C-ordered array. The matrix is a 2-D array or a row source (RowSource): an
object with a shape and rows(lo, hi), which forms rows lo:hi on request,
so a matrix that results hold as factors exists only block by block inside
the writer. It is formed, checked for non-finite values and written in the
blocks of row_blocks, of at most BLOCK_ROWS rows, two blocks formed at a
time on two threads.
"""
from __future__ import annotations

import csv
import json
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

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


@dataclass(frozen=True)
class RowSource:
    """A float matrix formed on request: rows(lo, hi) returns its rows
    lo:hi as a 2-D array with shape[1] columns. A plain 2-D array is the
    trivial source."""

    shape: tuple[int, int]
    rows: Callable[[int, int], np.ndarray]


def row_blocks(nrows: int) -> list[tuple[int, int]]:
    """The blocks in which the rows of an nrows-row matrix are formed: the
    fewest near-equal ones of at most BLOCK_ROWS rows.

    Every consumer forms a row in the same block, whatever range of rows
    it wants, because a product's bits can depend on the number of rows
    BLAS is given: a one-row block goes to the matrix-vector kernel, and
    OpenBLAS gives small products kernels of their own.
    """
    count = max(1, -(-nrows // BLOCK_ROWS))
    cuts = [nrows * i // count for i in range(count + 1)]
    return list(zip(cuts[:-1], cuts[1:]))


def _check_finite(rows: np.ndarray) -> None:
    # min and max carry a NaN or an infinity out without a cell-sized mask.
    if rows.size and not (math.isfinite(rows.min()) and math.isfinite(rows.max())):
        raise _non_finite(float(rows[~np.isfinite(rows)][0]))


def format_rows(rows: np.ndarray) -> str:
    """The CSV lines of a 2-D float64 array, every cell '%.17g' and finite.
    Only one block of row_blocks is held as Python floats at a time."""
    _check_finite(rows)
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    return "".join([line % tuple(row) for lo, hi in row_blocks(rows.shape[0])
                    for row in rows[lo:hi].tolist()])


def write_npy(path, matrix: np.ndarray | RowSource, dtype) -> None:
    """A float matrix as a .npy file of dtype (float64 or complex128), C
    order, format 1.0: the bytes of np.save on the whole matrix in C order.

    matrix is a 2-D array or a row source (RowSource, or any object with
    its shape and rows(lo, hi)), whose rows(lo, hi) is called from two
    threads at once. Its rows are formed, converted to dtype, checked and
    written in the blocks of row_blocks, so no second array of its size is
    made: the calling thread forms one block while a worker forms the next,
    and both are then checked and written in order. A non-finite value (a
    real or an imaginary part) is refused with a ValueError and leaves no
    file behind.
    """
    dtype = np.dtype(dtype)
    nrows, ncols = (int(n) for n in matrix.shape)
    header = {"descr": np.lib.format.dtype_to_descr(dtype), "fortran_order": False,
              "shape": (nrows, ncols)}
    array = isinstance(matrix, np.ndarray)

    def form(lo, hi):
        return np.ascontiguousarray(matrix[lo:hi] if array else matrix.rows(lo, hi),
                                    dtype=dtype)

    def form_after(go, lo, hi):
        # A new worker thread runs at once; waiting for go lets the calling
        # thread ask for its block first.
        go.wait()
        return form(lo, hi)

    blocks = row_blocks(nrows)
    with _atomic_open(path, binary=True) as fh, ThreadPoolExecutor(1) as pool:
        np.lib.format.write_array_header_1_0(fh, header)
        for i in range(0, len(blocks), 2):
            go = threading.Event()
            later = [pool.submit(form_after, go, *b) for b in blocks[i + 1:i + 2]]
            go.set()
            for block in [form(*blocks[i])] + [f.result() for f in later]:
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
