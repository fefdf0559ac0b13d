"""Deterministic, atomic file output shared by the serializing modules.

Every float is written with 17 significant digits so values round-trip
bit-exactly through text, and identical inputs produce byte-identical
files. Each file is streamed into a temp file in the target directory and
renamed over the target only once complete, so readers never observe
partial output and a failed write leaves an existing target untouched.
Files get the usual permissions of the process umask.

A float matrix is checked for non-finite values once and then formatted
in blocks of rows (by floattext, which computes exactly the bytes of one
'%.17g' format per row with numpy), so a large CSV is never held in memory
as text. A large matrix is split into contiguous row ranges that are
formatted on the CPUs available to the process (forked workers write their
ranges to part files that are appended in row order), so its bytes do not
depend on the CPU count or affinity.
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


def _check_finite(rows: np.ndarray) -> None:
    # min and max carry a NaN or an infinity out without a cell-sized mask.
    if rows.size and not (math.isfinite(rows.min()) and math.isfinite(rows.max())):
        raise _non_finite(float(rows[~np.isfinite(rows)][0]))


def format_rows(rows: np.ndarray) -> str:
    """The CSV lines of a 2-D float64 array, every cell '%.17g' and finite."""
    _check_finite(rows)
    out = io.StringIO()
    _write_rows(out, rows)
    return out.getvalue()


def _write_rows(fh, rows: np.ndarray) -> None:
    from . import floattext  # imported on first use: it builds tables

    for text in floattext.lines(rows):
        fh.write(text)


def _format_part(fd: int, rows: np.ndarray) -> None:
    """Forked child: write rows to the part file open on fd, then exit.

    os._exit skips the parent's inherited buffers and exit handlers.
    """
    code = 1
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as out:
            _write_rows(out, rows)
        code = 0
    finally:
        os._exit(code)


def _write_matrix(fh, rows: np.ndarray, workers: int, target: Path) -> None:
    """Write rows to fh, formatting up to workers contiguous row ranges at once.

    The first range is formatted here, into fh. Each other range goes to a
    forked child that writes a part file beside target, and the parts are appended
    in row order, so the bytes equal those of one _write_rows call. A child
    that fails raises OSError. On any exception the children are killed and
    reaped, and every part file is removed.
    """
    from . import floattext  # loaded before any fork, so the workers inherit its tables

    workers = min(workers, len(rows))
    if workers <= 1 or not hasattr(os, "fork"):
        _write_rows(fh, rows)
        return
    cuts = [len(rows) * i // workers for i in range(workers + 1)]
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
                    _format_part(fd, rows[start:stop])
            finally:
                os.close(fd)
            running.append(pid)
        _write_rows(fh, rows[: cuts[1]])
        fh.flush()
        for pid, part, start, stop in zip(list(running), parts, cuts[1:-1], cuts[2:]):
            _, status = os.waitpid(pid, 0)
            running.remove(pid)
            code = os.waitstatus_to_exitcode(status)
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


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """CSV with comma separator, '.' decimal point, LF endings, header row.

    rows is either a 2-D float64 array, every cell of which must be finite,
    or an iterable of row sequences. In the latter, floats are formatted
    with 17 significant digits, None becomes an empty cell and any other
    cell is written as str(cell). Both forms give the same bytes for the
    same float values. An array is split into min(available CPUs,
    cells // CELLS_PER_WORKER) row ranges that are formatted in parallel,
    with the same bytes.
    """
    matrix = isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype == np.float64
    if matrix:
        _check_finite(rows)
    with _atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(header))
        if matrix:
            cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
            _write_matrix(fh, rows, min(cpus, rows.size // CELLS_PER_WORKER), Path(path))
        else:
            writer.writerows([_csv_cell(cell) for cell in row] for row in rows)
