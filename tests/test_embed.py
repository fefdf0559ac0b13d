import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from numpy.testing import assert_allclose

from koopdmd import embed
from koopdmd.embed import TimeSeries


def series(values, dt=1.0, **kw):
    return TimeSeries(np.asarray(values, dtype=float), dt, **kw)


class TestTimeSeries:
    def test_basic(self):
        s = series([1.0, 2.0, 3.0], dt=0.5)
        assert len(s) == 3
        assert s.channels == 1

    @pytest.mark.parametrize("bad", [
        dict(values=np.array([1.0]), dt=1.0),
        dict(values=np.array([[1.0, 2.0]]), dt=1.0),
        dict(values=np.array([1.0, np.inf]), dt=1.0),
        dict(values=np.array([1.0, 2.0]), dt=0.0),
        dict(values=np.array([1.0, 2.0]), dt=-0.1),
        dict(values=np.array([1.0, 2.0, 3.0]), dt=1.0, channels=2),
        dict(values=np.array([1.0, 2.0]), dt=1.0, label="a,b"),
        dict(values=np.array([1.0, 2.0]), dt=1.0, label="a\nb"),
        dict(values=np.array([1.0, 2.0]), dt=1.0, label="a\rb"),
    ])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            TimeSeries(**bad)

    @given(st.text(max_size=6) | st.sampled_from([c + "x" for c in embed.LABEL_BREAKS]))
    def test_a_label_is_one_field_of_one_line(self, label):
        header = "t," + label
        one_field = header.splitlines() == [header] and header.count(",") == 1
        assert embed.is_label(label) == one_field


class TestHankel:
    def test_geometric_example(self):
        # f[i] = 2^-i with window 2 and one shift gives
        # H = [[1, 1/2], [1/2, 1/4]] and UH = H advanced one sample.
        s = series([2.0 ** -i for i in range(4)])
        blk = embed.hankel(s, m=2, n=1)
        assert_allclose(blk.H, [[1.0, 0.5], [0.5, 0.25]])
        assert_allclose(blk.UH, [[0.5, 0.25], [0.25, 0.125]])
        assert blk.m == 2 and blk.n == 1 and blk.channels == 1

    def test_shift_consistency_single_channel(self):
        s = series(np.arange(30, dtype=float) ** 1.5 % 7.0)
        blk = embed.hankel(s, m=6, n=9)
        assert np.array_equal(blk.UH[:, :-1], blk.H[:, 1:])
        assert np.array_equal(blk.H[1:, :], blk.UH[:-1, :])

    def test_too_short_names_required_length(self):
        s = series(np.arange(10, dtype=float))
        with pytest.raises(ValueError, match="11"):
            embed.hankel(s, m=6, n=4)  # needs 6 + 4 + 1 = 11 samples

    def test_interleaved_shapes(self):
        # two channels, window 250, 100 shifts: 500 rows, 101 columns
        t = np.arange(351) * 0.1
        a = series(np.cos(t), dt=0.1)
        b = series(np.sin(t), dt=0.1)
        merged = embed.interleave([a, b])
        blk = embed.hankel(merged, m=250, n=100)
        assert blk.H.shape == (500, 101)
        assert blk.UH.shape == (500, 101)
        # column j holds samples (a_j, b_j, a_{j+1}, b_{j+1}, ...)
        assert_allclose(blk.H[0:2, 3], [a.values[3], b.values[3]])
        assert_allclose(blk.H[2:4, 3], [a.values[4], b.values[4]])

    def test_interleaved_shift_consistency(self):
        rng = np.random.default_rng(0)
        a = series(rng.standard_normal(40))
        b = series(rng.standard_normal(40))
        blk = embed.hankel(embed.interleave([a, b]), m=5, n=12)
        assert np.array_equal(blk.UH[:, :-1], blk.H[:, 1:])
        assert np.array_equal(blk.H[2:, :], blk.UH[:-2, :])

    @given(
        m=st.integers(1, 5),
        n=st.integers(0, 5),
        channels=st.integers(1, 3),
        extra=st.integers(0, 4),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=80, deadline=None)
    def test_shift_property(self, m, n, channels, extra, seed):
        rng = np.random.default_rng(seed)
        total = channels * (m + n + 1) + channels * extra
        s = TimeSeries(rng.standard_normal(total), 1.0, channels=channels)
        blk = embed.hankel(s, m=m, n=n)
        assert blk.H.shape == (m * channels, n + 1)
        if n > 0:
            assert np.array_equal(blk.UH[:, :-1], blk.H[:, 1:])
        assert np.array_equal(blk.H[channels:, :], blk.UH[:-channels, :])


def hankel_reference(v, m, n, c):
    """H and UH by fancy indexing, the construction embed.hankel replaced."""
    rows = np.arange(m * c)[:, None]
    cols = c * np.arange(n + 1)[None, :]
    return v[rows + cols], v[rows + cols + c]


class TestHankelBuffer:
    @pytest.mark.parametrize("channels", [1, 2, 3])
    @pytest.mark.parametrize("step", [1, 3])
    def test_matches_fancy_index_construction(self, channels, step):
        m, n = 7, 5
        raw = np.random.default_rng(channels).standard_normal(step * channels * (m + n + 4))
        s = TimeSeries(raw[::step], 0.5, channels=channels)
        assert s.values.flags.c_contiguous == (step == 1)  # a strided view, not a copy
        blk = embed.hankel(s, m=m, n=n)
        H, UH = hankel_reference(s.values, m, n, channels)
        assert np.array_equal(blk.H.view(np.int64), H.view(np.int64))
        assert np.array_equal(blk.UH.view(np.int64), UH.view(np.int64))

    def test_one_read_only_buffer(self):
        blk = embed.hankel(series(np.arange(20.0)), m=4, n=6)
        assert np.shares_memory(blk.H, blk.UH)
        assert not blk.H.flags.writeable and not blk.UH.flags.writeable
        with pytest.raises(ValueError):
            blk.H[0, 0] = 1.0

    @pytest.mark.parametrize("channels", [1, 2])
    def test_a_view_of_its_series(self, channels):
        raw = np.arange(40.0)
        s = TimeSeries(raw, 1.0, channels=channels)
        blk = embed.hankel(s, m=4, n=6)
        assert np.shares_memory(blk.H, s.values) and np.shares_memory(blk.UH, s.values)
        raw[channels] = -1.0  # the block reads the array behind its series
        assert blk.H[0, 1] == blk.H[channels, 0] == blk.UH[0, 0] == -1.0

    def test_allocates_nothing_of_its_size(self):
        s = series(np.random.default_rng(0).standard_normal(10501))
        tracemalloc.start()
        try:
            blk = embed.hankel(s, m=10000, n=500)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert blk.H.shape == (10000, 501)
        assert peak < 2**20  # a copy would take 8 * 10000 * 502 bytes


class TestStride:
    def test_subsamples(self):
        s = series(np.arange(6, dtype=float), dt=0.5)
        out = embed.strided_series(s, 2)
        assert_allclose(out.values, [0.0, 2.0, 4.0])
        assert out.dt == 1.0

    def test_stride_one_is_identity(self):
        s = series([1.0, 2.0, 3.0])
        out = embed.strided_series(s, 1)
        assert np.array_equal(out.values, s.values)

    def test_rejects_multichannel(self):
        s = TimeSeries(np.arange(8, dtype=float), 1.0, channels=2)
        with pytest.raises(ValueError):
            embed.strided_series(s, 2)


class TestInterleave:
    def test_order(self):
        a = series([1.0, 2.0], label="a")
        b = series([10.0, 20.0], label="b")
        merged = embed.interleave([a, b])
        assert_allclose(merged.values, [1.0, 10.0, 2.0, 20.0])
        assert merged.channels == 2

    def test_single_passthrough(self):
        a = series([1.0, 2.0])
        assert embed.interleave([a]) is a


MISALIGNED = {
    "channels": series([1.0, 2.0, 3.0, 4.0], channels=2, label="b"),
    "length": series([1.0, 2.0, 3.0], label="b"),
    "dt": series([1.0, 2.0, 3.0, 4.0], dt=1.0 + 1e-11, label="b"),
}


@pytest.mark.parametrize("merge", ["interleave", "write_timeseries_csv"])
@pytest.mark.parametrize("misfit", sorted(MISALIGNED))
def test_series_that_do_not_align_are_refused(tmp_path, merge, misfit):
    a = series([1.0, 2.0, 3.0, 4.0], label="a")
    with pytest.raises(ValueError, match="must be single-channel and share length and dt"):
        if merge == "interleave":
            embed.interleave([a, MISALIGNED[misfit]])
        else:
            embed.write_timeseries_csv(tmp_path / "s.csv", [a, MISALIGNED[misfit]])
    assert list(tmp_path.iterdir()) == []


class TestScaleFactor:
    def _block(self, values, m=2, n=1):
        return embed.hankel(series(values), m=m, n=n)

    def test_last_column_mode(self):
        ref = self._block([1.0, 1.0, 1.0, 1.0])
        blk = self._block([2.0, 2.0, 2.0, 2.0])
        # last columns have norms 2*sqrt(2) and sqrt(2)
        assert_allclose(embed.scale_factor(blk, ref), 2.0)

    def test_zero_norm_rejected(self):
        ref = self._block([1.0, 1.0, 1.0, 1.0])
        blk = self._block([0.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            embed.scale_factor(blk, ref)


class TestComposite:
    def test_stacks_and_scales(self):
        rng = np.random.default_rng(3)
        a = embed.hankel(series(rng.standard_normal(12)), m=4, n=3)
        b = embed.hankel(series(rng.standard_normal(9)), m=4, n=2)
        data = embed.composite([a, b], scales=[1.0, 2.0])
        assert data.X.shape == (4, 7)
        assert data.block_offsets == ((0, 4), (4, 7))
        assert_allclose(data.X[:, 0:4], a.H)
        assert_allclose(data.X[:, 4:7], 2.0 * b.H)
        assert_allclose(data.Y[:, 4:7], 2.0 * b.UH)

    def test_default_scales_are_unity(self):
        a = embed.hankel(series(np.arange(8.0)), m=3, n=2)
        data = embed.composite([a])
        assert data.scales == (1.0,)
        assert data.block_offsets == ((0, 3),)
        assert_allclose(data.X, a.H)

    def test_lone_unscaled_block_is_shared(self):
        a = embed.hankel(series(np.arange(8.0)), m=3, n=2)
        data = embed.composite([a])
        assert data.X is a.H and data.Y is a.UH
        scaled = embed.composite([a], scales=[2.0])
        assert scaled.X is not a.H
        assert_allclose(scaled.X, 2.0 * a.H)

    def test_writes_each_scaled_block_in_place(self):
        rng = np.random.default_rng(4)
        blocks = [embed.hankel(series(rng.standard_normal(4151)), m=4000, n=150)
                  for _ in range(3)]
        scales = [1.0, 0.3, 7.0]
        tracemalloc.start()
        try:
            data = embed.composite(blocks, scales)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= data.X.nbytes + data.Y.nbytes + 2**20  # no per-block temporaries
        want_x = np.hstack([s * b.H for s, b in zip(scales, blocks)])
        want_y = np.hstack([s * b.UH for s, b in zip(scales, blocks)])
        assert np.array_equal(data.X.view(np.int64), want_x.view(np.int64))
        assert np.array_equal(data.Y.view(np.int64), want_y.view(np.int64))

    def test_row_mismatch(self):
        a = embed.hankel(series(np.arange(8.0)), m=3, n=2)
        b = embed.hankel(series(np.arange(8.0)), m=4, n=2)
        with pytest.raises(ValueError):
            embed.composite([a, b])

    def test_bad_scales(self):
        a = embed.hankel(series(np.arange(8.0)), m=3, n=2)
        with pytest.raises(ValueError):
            embed.composite([a], scales=[-1.0])
        with pytest.raises(ValueError):
            embed.composite([a], scales=[1.0, 2.0])


class TestCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        vals = [rng.standard_normal(11) * 10.0 ** rng.integers(-8, 8) for _ in range(3)]
        out = [TimeSeries(v, 0.125, label=f"s{i}") for i, v in enumerate(vals)]
        path = tmp_path / "series.csv"
        embed.write_timeseries_csv(path, out)
        back = embed.read_timeseries_csv(path)
        assert len(back) == 3
        for orig, rt in zip(out, back):
            assert np.array_equal(orig.values, rt.values)  # exact, not approximate
            assert rt.dt == orig.dt
            assert rt.label == orig.label

    def test_awkward_values_survive(self, tmp_path):
        vals = np.array([np.pi, 1.0 / 3.0, 1e-300, -2.5e17, 0.1])
        path = tmp_path / "pi.csv"
        embed.write_timeseries_csv(path, [TimeSeries(vals, 1.0)])
        back = embed.read_timeseries_csv(path)[0]
        assert np.array_equal(back.values, vals)

    @pytest.mark.parametrize("dt", [0.01, 0.1, 1 / 3])
    def test_bytes_equal_per_cell_output(self, tmp_path, dt):
        rng = np.random.default_rng(11)
        vals = [rng.standard_normal(2500) * 10.0 ** rng.integers(-12, 12, 2500) for _ in range(3)]
        vals[0][:4] = [0.0, -0.0, 5e-324, 2251799813685247.75]
        series = [TimeSeries(v, dt, label=f"z{i}") for i, v in enumerate(vals)]
        embed.write_timeseries_csv(tmp_path / "s.csv", series)
        lines = ["t,z0,z1,z2"] + [
            ",".join(format(x, ".17g") for x in [i * dt] + [v[i] for v in vals])
            for i in range(2500)]
        assert (tmp_path / "s.csv").read_text() == "\n".join(lines) + "\n"

    def test_write_streams_without_holding_the_text(self, tmp_path):
        # Each block of rows is stacked from the series and formatted before
        # the next, so the peak is one block's table and lines, below the
        # file's size.
        vals = np.random.default_rng(5).standard_normal((50_000, 3))
        series = [TimeSeries(v, 0.1, label=f"x{i}") for i, v in enumerate(vals.T)]
        path = tmp_path / "big.csv"
        tracemalloc.start()
        try:
            embed.write_timeseries_csv(path, series)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size
        back = embed.read_timeseries_csv(path)
        assert all(np.array_equal(b.values, v) for b, v in zip(back, vals.T))

    def test_write_peak_does_not_grow_with_the_rows(self, tmp_path):
        # The writer holds one block of the table, not a stacked copy of it:
        # at 20 times the rows the peak stays within 10% (at one block).
        def peak(rows):
            vals = np.random.default_rng(rows).standard_normal((3, rows))
            series = [TimeSeries(v, 0.1, label=f"x{i}") for i, v in enumerate(vals)]
            tracemalloc.start()
            try:
                embed.write_timeseries_csv(tmp_path / f"{rows}.csv", series)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(200_000) <= 1.1 * peak(10_000)

    def test_a_quote_in_a_label_is_written_raw(self, tmp_path):
        label = 'say "x"'
        assert embed.is_label(label)
        path = tmp_path / "q.csv"
        embed.write_timeseries_csv(path, [TimeSeries(np.array([1.0, 2.0]), 0.5, label=label)])
        assert path.read_text() == 't,say "x"\n0,1\n0.5,2\n'
        assert embed.read_timeseries_csv(path)[0].label == label

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_time_refused(self, tmp_path):
        with pytest.raises(ValueError, match="non-finite"):
            embed.write_timeseries_csv(tmp_path / "s.csv", [TimeSeries(np.ones(3), 1e308)])
        assert list(tmp_path.iterdir()) == []

    def test_header_must_lead_with_time(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,f\n0.0,1.0\n1.0,2.0\n")
        with pytest.raises(ValueError, match="header"):
            embed.read_timeseries_csv(path)

    def test_nonuniform_spacing_rejected(self, tmp_path):
        path = tmp_path / "warped.csv"
        path.write_text("t,f\n0.0,1.0\n1.0,2.0\n2.5,3.0\n")
        with pytest.raises(ValueError, match="spacing"):
            embed.read_timeseries_csv(path)

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("t,f\n0.0,1.0\n1.0\n")
        with pytest.raises(ValueError, match=r"csv:3: expected 2 fields"):
            embed.read_timeseries_csv(path)

    def test_non_numeric_reports_line(self, tmp_path):
        path = tmp_path / "alpha.csv"
        path.write_text("t,f\n0.0,1.0\n1.0,oops\n")
        with pytest.raises(ValueError, match=r"csv:3"):
            embed.read_timeseries_csv(path)

    def test_error_line_counts_blank_lines(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("t,f\n\n\n0,1\n1,x\n")
        with pytest.raises(ValueError, match=r"blank\.csv:5: could not convert string to float: 'x'"):
            embed.read_timeseries_csv(path)


def read_csv_reference(path):
    """The per-line float() reader that read_timeseries_csv's loadtxt call
    replaced, kept as the reference for values and messages. Its one edit:
    an error names the line by its number in the file, blank lines
    included."""
    text = Path(path).read_text(encoding="utf-8")
    numbered = [(i, ln) for i, ln in enumerate(text.splitlines(), start=1) if ln.strip() != ""]
    lines = [ln for _, ln in numbered]
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = [h.strip() for h in lines[0].split(",")]
    if len(header) < 2 or header[0] != "t":
        raise ValueError(
            f"{path}: header must be 't,<label>[,<label>...]', got {lines[0]!r}"
        )
    labels = header[1:]
    rows = []
    for ln_no, ln in numbered[1:]:
        parts = ln.split(",")
        if len(parts) != len(header):
            raise ValueError(
                f"{path}:{ln_no}: expected {len(header)} fields, got {len(parts)}"
            )
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ValueError(f"{path}:{ln_no}: {exc}") from None
    data = np.asarray(rows, dtype=float)
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
    if worst > embed.SPACING_RTOL * dt:
        raise ValueError(
            f"{path}: non-uniform time spacing (max deviation {worst:.3e} "
            f"vs dt={dt!r}, relative tolerance {embed.SPACING_RTOL})"
        )
    return [
        TimeSeries(values=data[:, j + 1], dt=float(dt), label=labels[j])
        for j in range(len(labels))
    ]


# Fields that float() and np.loadtxt may read differently, or refuse.
ODD_FIELDS = ["1_0", "\u0663", "\uff11", "#", "#1", '"1"', "'1'", "inf", "-inf", "nan",
              "NaN", "Infinity", "", "1e500", "-1e-400", "0x1", ".5", "5.", "+1", "1 2",
              "- 1", "\u22121", "1\x00", "1e", "1d5", "nan(1)", "1,5"]
# Padding around a field: whitespace to float(), to loadtxt, to splitlines.
PADS = ["", " ", "\t", "\xa0", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\u2028", "\u3000"]
BLANK_LINES = ["", "  ", "\t", "\x0c", " \x0b ", "\x1f", "\xa0"]
LINE_ENDS = ["\n", "\r\n", "\r", "\x0c", "\x1e", "\x85", "\u2028"]


@st.composite
def csv_texts(draw):
    """A 't,f0,...' table of 0-4 rows, then a few edits: odd or padded
    fields, ragged rows, trailing commas, blank lines, other line ends."""
    width = draw(st.integers(1, 3))
    dt = draw(st.sampled_from([0.1, 1.0, 0.25]))
    floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
    rows = [[repr(i * dt)] + [repr(draw(floats)) for _ in range(width)]
            for i in range(draw(st.integers(0, 4)))]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        col = draw(st.integers(0, len(row) - 1))
        edit = draw(st.sampled_from(["odd", "pad", "drop", "extra"]))
        if edit == "odd":
            row[col] = draw(st.sampled_from(ODD_FIELDS))
        elif edit == "pad":
            row[col] = draw(st.sampled_from(PADS)) + row[col] + draw(st.sampled_from(PADS))
        elif edit == "drop" and len(row) > 1:
            del row[col]
        elif edit == "extra":
            row.append(draw(st.sampled_from(["", "1"])))  # a trailing comma or a column
    lines = ["t," + ",".join(f"f{j}" for j in range(width))] + [",".join(r) for r in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(BLANK_LINES)))
    end = draw(st.sampled_from(LINE_ENDS))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def read_or_message(reader, path):
    """(label, dt, sample bits) per series, or the ValueError's text."""
    try:
        return [(s.label, s.dt, s.values.view(np.int64).tolist()) for s in reader(path)]
    except ValueError as exc:
        return str(exc)


class TestCsvFastPath:
    @given(text=csv_texts())
    @example(text="t,f\n")
    @example(text="t,f\n0,1\n")
    @example(text="t,f\n0,1_0\n1,2\n")
    @example(text="t,f\n0,\u0663\n1,2\n")
    @example(text="t,f\n0,\x1f1\n1,2\n")
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_per_line_reader(self, tmp_path, text):
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = read_or_message(embed.read_timeseries_csv, path)
        assert got == read_or_message(read_csv_reference, path)

    def test_clean_file_skips_the_loop(self, tmp_path, monkeypatch):
        vals = np.random.default_rng(3).standard_normal((50, 2))
        path = tmp_path / "clean.csv"
        embed.write_timeseries_csv(path, [TimeSeries(v, 0.1) for v in vals.T])

        def refuse(*args):
            raise AssertionError("per-line loop used on a clean file")

        monkeypatch.setattr(embed, "_parse_lines", refuse)
        back = embed.read_timeseries_csv(path)
        assert all(np.array_equal(b.values, v) for b, v in zip(back, vals.T))

    @given(text=csv_texts(), chars=st.integers(1, 9))
    @example(text="t,f\r\n0,1\r\n1,2\r\n", chars=4)  # '\r\n' split between two reads
    @example(text="t,f\n0,1\n1,2\n2,\x1f3\n", chars=3)  # U+001F after the first read
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_small_reads_match_per_line_reader(self, tmp_path, monkeypatch, text, chars):
        # Lines, line ends and U+001F that straddle two reads of the file.
        monkeypatch.setattr(embed, "_READ_CHARS", chars)
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = read_or_message(embed.read_timeseries_csv, path)
        assert got == read_or_message(read_csv_reference, path)

    def test_streams_without_holding_the_text(self, tmp_path):
        vals = np.random.default_rng(3).standard_normal((20000, 3))
        path = tmp_path / "big.csv"
        embed.write_timeseries_csv(path, [TimeSeries(v, 0.1) for v in vals.T])
        tracemalloc.start()
        try:
            back = embed.read_timeseries_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(np.array_equal(b.values, v) for b, v in zip(back, vals.T))
        assert peak <= path.stat().st_size
