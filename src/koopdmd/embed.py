"""Delay embedding of scalar time series into Hankel matrices.

A length-L series f sampled every dt seconds embeds into an m x (n+1)
Hankel matrix H with H[i][j] = f[i + j], together with its one-step
shift UH[i][j] = f[i + j + 1]. Columns are successive delayed copies of
the series; rows index time along the trajectory. H and UH are read-only
views of the series' own samples: a block holds no memory of its own, and
it changes if the array behind its series is written. Multiple observables
embed into separate blocks that are scaled and concatenated column-wise
into one composite data matrix pair (X, Y) for the DMD stage.

Several trajectories of the same system can be interleaved sample-wise
into a single series; the embedding then steps all trajectories together,
so one column holds every trajectory at one delay window and the one-step
shift advances each trajectory by one sample.

CSV input is streamed from the file into one np.loadtxt call, which
gives the bits float() gives; a file it refuses is read again line by
line, so every error names its line.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path

import numpy as np

from .ioutil import write_columns_csv
from .ioutil import atomic_write_text  # noqa: F401 (perfbench/tracer.py wraps it here)

# Relative tolerance for the uniform-spacing check on CSV time columns.
SPACING_RTOL = 1e-6

# A CSV column label holds none of these: the field separator and each line
# break of str.splitlines, which read_timeseries_csv splits files with.
LABEL_BREAKS = ",\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def is_label(text: str) -> bool:
    return not any(c in text for c in LABEL_BREAKS)


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled scalar observable along one or more trajectories.

    values: flat sample vector. With channels == c > 1 the vector holds c
        interleaved trajectories: values[c*i + p] is trajectory p at time
        step i, and the length must be divisible by c.
    dt: sampling interval in seconds, > 0.
    label: column label used in CSV output (see is_label).
    """

    values: np.ndarray
    dt: float
    label: str = "f"
    channels: int = 1

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 2:
            raise ValueError(f"series must be 1-D with at least 2 samples, got shape {v.shape}")
        bad = np.flatnonzero(~np.isfinite(v))
        if bad.size:
            raise ValueError(f"{self.label!r} is not finite at sample {bad[0]}")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if self.channels < 1:
            raise ValueError(f"channels must be >= 1, got {self.channels}")
        if v.size % self.channels != 0:
            raise ValueError(
                f"series length {v.size} is not divisible by channels={self.channels}"
            )
        if not is_label(self.label):
            raise ValueError(f"label must not contain commas or line breaks: {self.label!r}")
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class HankelBlock:
    """Hankel matrix H and its one-step shift UH for one observable.

    For channels == 1: H is m x (n+1) with H[i][j] = f[i+j] and
    UH[i][j] = f[i+j+1], so UH[:, j] == H[:, j+1] and H[1:, :] == UH[:-1, :].
    For channels == c: H has m*c rows, row c*i+p holds trajectory p, and
    the shift relations hold with row offset c instead of 1. H and UH are
    read-only views of the series' values: the block holds no memory of
    its own and changes if the array behind its series is written.
    """

    H: np.ndarray
    UH: np.ndarray
    m: int
    n: int
    dt: float
    channels: int = 1
    label: str = "f"


@dataclass(frozen=True)
class CompositeData:
    """Column-concatenated scaled blocks: X = [s_1 H_1 | s_2 H_2 | ...].

    block_offsets[i] = (start, stop) column range of block i inside X and Y.
    """

    X: np.ndarray
    Y: np.ndarray
    block_offsets: tuple[tuple[int, int], ...]
    scales: tuple[float, ...]


def hankel(series: TimeSeries, m: int, n: int) -> HankelBlock:
    """Delay-embed a series into an m x (n+1) Hankel block plus its shift.

    Requires channels * (m + n + 1) samples: every trajectory must supply
    m + n + 1 samples so that both H and the shifted UH fit. H and UH are
    read-only views of series.values, one column apart, so the block
    copies nothing and changes if the array behind the series is written.
    """
    if m < 1 or n < 0:
        raise ValueError(f"need m >= 1 and n >= 0, got m={m}, n={n}")
    c = series.channels
    needed = c * (m + n + 1)
    if len(series) < needed:
        raise ValueError(
            f"series too short for m={m}, n={n}, channels={c}: "
            f"need {needed} samples, have {len(series)}"
        )
    # windows[r, k] = v[r + k]; every c-th of its columns gives the read-only
    # m*c x (n+2) view whose first n+1 columns are H and last n+1 are UH.
    windows = np.lib.stride_tricks.sliding_window_view(series.values[:needed], c * (n + 1) + 1)
    buf = windows[:, ::c]
    return HankelBlock(
        H=buf[:, :-1], UH=buf[:, 1:], m=m, n=n, dt=series.dt, channels=c, label=series.label,
    )


def strided_series(series: TimeSeries, stride: int) -> TimeSeries:
    """Keep every stride-th sample; the interval becomes stride * dt.

    Striding an interleaved series would mix trajectories, so it is only
    defined for channels == 1 (stride first, interleave after).
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if series.channels != 1:
        raise ValueError("strided_series requires a single-channel series")
    if stride == 1:
        return series
    return replace(series, values=series.values[::stride], dt=series.dt * stride)


def _check_aligned(series_list: list[TimeSeries]) -> None:
    """Refuse series that are not single-channel or do not share one length
    and one dt, to 1e-12 relative."""
    first = series_list[0]
    for s in series_list:
        aligned = len(s) == len(first) and math.isclose(s.dt, first.dt, rel_tol=1e-12)
        if s.channels != 1 or not aligned:
            raise ValueError(f"series must be single-channel and share length and dt: "
                             f"{s.label!r} has {s.channels} channel(s), {len(s)} samples, dt "
                             f"{s.dt!r}; {first.label!r} has {len(first)}, dt {first.dt!r}")


def interleave(series_list: list[TimeSeries]) -> TimeSeries:
    """Merge trajectories that pass _check_aligned sample-wise.

    Two series (a0, a1), (b0, b1) merge to (a0, b0, a1, b1). The result has
    channels == len(series_list); a single series passes through unchanged.
    """
    if not series_list:
        raise ValueError("interleave needs at least one series")
    first = series_list[0]
    if len(series_list) == 1:
        return first
    _check_aligned(series_list)
    stacked = np.column_stack([s.values for s in series_list])
    labels = {s.label for s in series_list}
    label = first.label if len(labels) == 1 else "|".join(s.label for s in series_list)
    return TimeSeries(
        values=stacked.ravel(), dt=first.dt, label=label, channels=len(series_list)
    )


def scale_factor(block: HankelBlock, reference: HankelBlock) -> float:
    """Relative scale of one observable's block against the reference block:
    the ratio of last-column norms ||H[:, -1]|| / ||Href[:, -1]||."""
    num = float(np.linalg.norm(block.H[:, -1]))
    den = float(np.linalg.norm(reference.H[:, -1]))
    if den == 0.0:
        raise ValueError("scale_factor reference column has zero norm")
    if num == 0.0:
        raise ValueError("scale_factor block column has zero norm")
    return num / den


def composite(blocks: list[HankelBlock], scales: list[float] | None = None) -> CompositeData:
    """Concatenate scaled blocks column-wise into one (X, Y) pair.

    All blocks must share the same number of rows (same m and channels).
    scales defaults to 1.0 for every block. A single block with scale 1.0
    is returned as is: X and Y are its H and UH arrays. Otherwise X and Y
    are allocated once and each scaled block is written into its columns.
    """
    if not blocks:
        raise ValueError("composite needs at least one block")
    if scales is None:
        scales = [1.0] * len(blocks)
    if len(scales) != len(blocks):
        raise ValueError(f"got {len(scales)} scales for {len(blocks)} blocks")
    rows = blocks[0].H.shape[0]
    for b in blocks:
        if b.H.shape[0] != rows:
            raise ValueError(
                f"row mismatch: block has {b.H.shape[0]} rows, expected {rows} "
                "(all blocks must share m and channels)"
            )
    for s in scales:
        if not (np.isfinite(s) and s > 0):
            raise ValueError(f"scales must be positive and finite, got {s}")
    offsets = []
    start = 0
    for b in blocks:
        stop = start + b.H.shape[1]
        offsets.append((start, stop))
        start = stop
    if len(blocks) == 1 and scales[0] == 1.0:
        # 1.0 * H is bitwise H, so a lone unscaled block is shared, not copied.
        X, Y = blocks[0].H, blocks[0].UH
    else:
        X, Y = np.empty((rows, start)), np.empty((rows, start))
        for s, b, (lo, hi) in zip(scales, blocks, offsets):
            np.multiply(b.H, s, out=X[:, lo:hi])
            np.multiply(b.UH, s, out=Y[:, lo:hi])
    return CompositeData(
        X=X, Y=Y, block_offsets=tuple(offsets), scales=tuple(float(s) for s in scales)
    )


#: Characters of text read at a time by read_timeseries_csv.
_READ_CHARS = 1 << 16


def _header(path, first: str | None) -> list[str]:
    """The labels of the header line first (None: the file has no
    non-blank line)."""
    if first is None:
        raise ValueError(f"{path}: empty file")
    header = [h.strip() for h in first.split(",")]
    if len(header) < 2 or header[0] != "t":
        raise ValueError(
            f"{path}: header must be 't,<label>[,<label>...]', got {first!r}"
        )
    return header[1:]


def _parse_lines(path) -> tuple[list[str], np.ndarray]:
    """The labels and data of the file by float() on every field of every
    data line (each non-blank line after the header): the reference, which
    owns every message. A ValueError names the first line it refuses by
    its number in the file, as str.splitlines counts lines, and a decoding
    error names its offset in the file."""
    text = Path(path).read_text(encoding="utf-8")
    numbered = [(i, ln) for i, ln in enumerate(text.splitlines(), start=1) if ln.strip() != ""]
    labels = _header(path, numbered[0][1] if numbered else None)
    width = len(labels) + 1
    rows = []
    for ln_no, ln in numbered[1:]:
        parts = ln.split(",")
        if len(parts) != width:
            raise ValueError(f"{path}:{ln_no}: expected {width} fields, got {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ValueError(f"{path}:{ln_no}: {exc}") from None
    return labels, np.asarray(rows, dtype=float)


def _nonblank(fh):
    """The non-blank lines of a text file, without their line ends, as
    str.splitlines splits its text, read _READ_CHARS at a time (newline=None
    makes '\r\n' and '\r' one '\n'). Raises ValueError at a block of text
    that holds U+001F, which np.loadtxt strips as whitespace and float()
    refuses."""
    tail = ""
    while chunk := fh.read(_READ_CHARS):
        if "\x1f" in chunk:
            raise ValueError("U+001F")
        # Lines end at the last '\n'; the rest continues in the next read.
        text = tail + chunk
        cut = text.rfind("\n") + 1
        tail = text[cut:]
        yield from [ln for ln in text[:cut].splitlines() if ln.strip()]
    yield from [ln for ln in tail.splitlines() if ln.strip()]


def _loadtxt(path) -> tuple[list[str], np.ndarray] | None:
    """_parse_lines's labels and data from one np.loadtxt call, streamed
    from the file; None where that call cannot stand in for _parse_lines:
    on U+001F, an empty body, a row of another width or any other
    ValueError (a decoding error among them)."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = _nonblank(fh)
            labels = _header(path, next(lines, None))
            body = next(lines, None)
            if body is None:  # loadtxt warns on an empty body
                return None
            data = np.loadtxt(chain([body], lines), delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return (labels, data) if data.shape[1] == len(labels) + 1 else None


def read_timeseries_csv(path) -> list[TimeSeries]:
    """Read 't,<label>[,<label>...]' CSV into one TimeSeries per column.

    Blank lines are skipped. The time column must be uniformly spaced to
    relative tolerance 1e-6; dt is taken as the mean spacing. At least two
    samples are required.

    np.loadtxt parses the data lines in one call, streamed from the file,
    so neither the whole text nor a list of all its lines is held
    (_loadtxt). Its field parser is the one behind float(), so it gives
    the same bits, but it accepts a subset of what float() accepts (no '_'
    separators or non-ASCII digits), with one exception, U+001F around a
    number, which it strips as whitespace. A file with U+001F, or one
    loadtxt refuses, goes through the per-line float() loop (_parse_lines),
    which gives the values or the error naming the line.
    """
    labels, data = _loadtxt(path) or _parse_lines(path)
    if data.shape[0] < 2:
        raise ValueError(f"{path}: need at least 2 samples, got {data.shape[0]}")
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: non-finite values present")
    t = data[:, 0]
    dt = (t[-1] - t[0]) / (data.shape[0] - 1)
    if dt <= 0:
        raise ValueError(f"{path}: time column must be strictly increasing")
    steps = np.diff(t)
    worst = np.max(np.abs(steps - dt))
    if worst > SPACING_RTOL * dt:
        raise ValueError(
            f"{path}: non-uniform time spacing (max deviation {worst:.3e} "
            f"vs dt={dt!r}, relative tolerance {SPACING_RTOL})"
        )
    return [
        TimeSeries(values=data[:, j + 1], dt=float(dt), label=labels[j])
        for j in range(len(labels))
    ]


def write_timeseries_csv(path, series_list: list[TimeSeries]) -> None:
    """Write series that pass _check_aligned as 't,<label>...' CSV, t = i * dt.

    Floats carry 17 significant digits, so a read-back reproduces the
    sample values bit-exactly. ioutil.write_columns_csv streams the rows
    from the series' own values, one block at a time.
    """
    if not series_list:
        raise ValueError("write_timeseries_csv needs at least one series")
    _check_aligned(series_list)
    write_columns_csv(path, [s.label for s in series_list], series_list[0].dt,
                      [s.values for s in series_list])
