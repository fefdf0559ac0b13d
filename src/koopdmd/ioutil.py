"""Deterministic, atomic file output shared by the serializing modules.

Every float is written with 17 significant digits so values round-trip
bit-exactly through text, and identical inputs produce byte-identical
files. Each file is streamed into a temp file in the target directory and
renamed over the target only once complete, so readers never observe
partial output and a failed write leaves an existing target untouched.
Files get the usual permissions of the process umask.

A float matrix is a 2-D array or a row source (RowSource): an object with
a shape and rows(lo, hi), which forms rows lo:hi on request, so a matrix
that results hold as factors exists only block by block inside the
writer. It is formed, checked for non-finite values and formatted in
blocks of at most BLOCK_ROWS rows (by floattext, which computes exactly
the bytes of one '%.17g' format per row with numpy), so a large CSV is
never held in memory as text. A large matrix is split into contiguous row
ranges that are formed and formatted on the CPUs available to the process
(forked workers write their ranges to part files that are appended in row
order), so its bytes do not depend on the CPU count or affinity.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
import shutil
import signal
import tempfile
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
def _atomic_open(path):
    """UTF-8, LF text handle on a temp file beside path.

    The temp file replaces path when the block exits normally and is
    removed when it raises, so path is either fully written or untouched.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            # mkstemp creates the file 0600; give it the mode open() would.
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
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


#: A float matrix gets one formatting process per this many cells (about
#: 0.12 s of formatting), up to the number of CPUs the process may run on.
#: A second worker saves ~30% at 2**20 cells but only ~8% at 2**19.
CELLS_PER_WORKER = 2**19

#: Rows of a matrix that are formed and formatted at a time. A block that
#: straddles two workers' ranges is formed by both; lorenz-pod's 10000 rows
#: make ten blocks, so two workers meet at a block edge.
BLOCK_ROWS = 1024

#: Exit status of a worker that refused a value (a ValueError, such as a
#: non-finite cell); it leaves the error's text in its part file.
_REFUSED = 3


@dataclass(frozen=True)
class RowSource:
    """A float matrix formed on request: rows(lo, hi) returns its rows
    lo:hi as a 2-D float64 array with shape[1] columns. A plain 2-D
    float64 array is the trivial source."""

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
    """The CSV lines of a 2-D float64 array, every cell '%.17g' and finite."""
    out = io.StringIO()
    _write_rows(out, rows)
    return out.getvalue()


def _write_rows(fh, rows: np.ndarray) -> None:
    """Check a 2-D float64 block for non-finite cells, then write its lines."""
    from . import floattext  # imported on first use: it builds tables

    _check_finite(rows)
    for text in floattext.lines(rows):
        fh.write(text)


def _write_range(fh, matrix, lo: int, hi: int) -> None:
    """Form, check and write rows lo:hi of a matrix, block by block. A
    block of row_blocks that straddles lo or hi is formed whole, and only
    its rows in lo:hi are written."""
    array = isinstance(matrix, np.ndarray)
    for start, stop in row_blocks(matrix.shape[0]):
        if start < hi and stop > lo:
            block = matrix[start:stop] if array else matrix.rows(start, stop)
            _write_rows(fh, block[max(lo, start) - start:min(hi, stop) - start])


def _format_part(fd: int, part: str, matrix, lo: int, hi: int) -> None:
    """Forked child: write rows lo:hi of matrix to the part file open on
    fd, then exit. A ValueError (a non-finite cell) leaves its text in
    the part and exits _REFUSED; any other error exits 1.

    os._exit skips the parent's inherited buffers and exit handlers.
    """
    code = 1
    try:
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as out:
                _write_range(out, matrix, lo, hi)
            code = 0
        except ValueError as exc:
            Path(part).write_text(str(exc), encoding="utf-8")
            code = _REFUSED
    finally:
        os._exit(code)


def _write_matrix(fh, matrix, workers: int, target: Path) -> None:
    """Write a matrix (an array or a row source) to fh, forming and
    formatting up to workers contiguous row ranges at once.

    The first range is formatted here, into fh. Each other range goes to a
    forked child that forms its own rows and writes them to a part file
    beside target, and the parts are appended in row order. Each row is
    formed in its block of row_blocks, whatever the ranges, so the bytes
    equal those of one range. A child that refuses a value raises its
    ValueError here, in row order, so the first non-finite cell is the one
    named; a child that fails otherwise raises OSError. On any exception
    the children are killed and reaped, and every part file is removed.
    """
    from . import floattext  # loaded before any fork, so the workers inherit its tables

    nrows = matrix.shape[0]
    workers = min(workers, nrows)
    if workers <= 1 or not hasattr(os, "fork"):
        _write_range(fh, matrix, 0, nrows)
        return
    cuts = [nrows * i // workers for i in range(workers + 1)]
    running: list[int] = []
    parts: list[str] = []
    try:
        for start, stop in zip(cuts[1:-1], cuts[2:]):
            fd, part = tempfile.mkstemp(dir=target.parent, prefix=target.name + ".",
                                        suffix=".part")
            parts.append(part)
            try:
                pid = os.fork()
                if pid == 0:
                    _format_part(fd, part, matrix, start, stop)
            finally:
                os.close(fd)
            running.append(pid)
        _write_range(fh, matrix, 0, cuts[1])
        fh.flush()
        for pid, part, start, stop in zip(list(running), parts, cuts[1:-1], cuts[2:]):
            _, status = os.waitpid(pid, 0)
            running.remove(pid)
            code = os.waitstatus_to_exitcode(status)
            if code == _REFUSED:
                raise ValueError(Path(part).read_text(encoding="utf-8"))
            if code != 0:
                raise OSError(f"formatting rows {start}:{stop} of {target.name} "
                              f"failed in a worker process (exit status {code})")
            with open(part, "rb") as src:
                shutil.copyfileobj(src, fh.buffer)
    finally:
        for pid in running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for part in parts:
            os.unlink(part)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence] | RowSource) -> None:
    """CSV with comma separator, '.' decimal point, LF endings, header row.

    rows is a float matrix, every cell of which must be finite: a 2-D
    float64 array, or a row source (RowSource, or any object with its
    shape and rows(lo, hi)) whose rows are formed block by block as they
    are written. Or it is an iterable of row sequences, in which floats
    are formatted with 17 significant digits, None becomes an empty cell
    and any other cell is written as str(cell). All forms give the same
    bytes for the same float values. A matrix is split into min(available
    CPUs, cells // CELLS_PER_WORKER) row ranges that are formed and
    formatted in parallel, with the same bytes. An array is checked whole
    before anything is written or forked; a source, block by block, and a
    non-finite cell leaves no file behind either way.
    """
    array = isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype == np.float64
    matrix = array or hasattr(rows, "rows")
    if array:
        _check_finite(rows)
    with _atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(header))
        if matrix:
            cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
            cells = rows.shape[0] * rows.shape[1]
            _write_matrix(fh, rows, min(cpus, cells // CELLS_PER_WORKER), Path(path))
        else:
            writer.writerows([_csv_cell(cell) for cell in row] for row in rows)
