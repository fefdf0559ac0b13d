"""Deterministic, atomic file output shared by the serializing modules.

Every float is written with 17 significant digits so values round-trip
bit-exactly through text, and identical inputs produce byte-identical
files. Each file is streamed into a temp file in the target directory and
renamed over the target only once complete, so readers never observe
partial output and a failed write leaves an existing target untouched.
Files get the usual permissions of the process umask.

A float matrix is checked for non-finite values once and then formatted
one row at a time with a single '%.17g' format (the same conversion as
format(x, '.17g')), so a large CSV is never held in memory as text.
"""
from __future__ import annotations

import csv
import math
import os
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
        # Minimal escaping: our keys/values are plain ASCII labels and paths.
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        out = out.replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t")
        return f'"{out}"'
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


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """CSV with comma separator, '.' decimal point, LF endings, header row.

    rows is either a 2-D float64 array, every cell of which must be finite,
    or an iterable of row sequences. In the latter, floats are formatted
    with 17 significant digits, None becomes an empty cell and any other
    cell is written as str(cell). Both forms give the same bytes for the
    same float values.
    """
    matrix = isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype == np.float64
    if matrix:
        finite = np.isfinite(rows)
        if not finite.all():
            raise _non_finite(float(rows[~finite][0]))
    with _atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(header))
        if matrix:
            fmt = ",".join(["%.17g"] * rows.shape[1]) + "\n"
            fh.writelines(fmt % tuple(row.tolist()) for row in rows)
        else:
            writer.writerows([_csv_cell(cell) for cell in row] for row in rows)
