import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
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
    ])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            TimeSeries(**bad)


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

    def test_mismatched_inputs(self):
        a = series([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            embed.interleave([a, series([1.0, 2.0])])
        with pytest.raises(ValueError):
            embed.interleave([a, series([1.0, 2.0, 3.0], dt=2.0)])


class TestScaleFactor:
    def _block(self, values, m=2, n=1):
        return embed.hankel(series(values), m=m, n=n)

    def test_last_column_mode(self):
        ref = self._block([1.0, 1.0, 1.0, 1.0])
        blk = self._block([2.0, 2.0, 2.0, 2.0])
        # last columns have norms 2*sqrt(2) and sqrt(2)
        assert_allclose(embed.scale_factor(blk, ref, mode="last_column"), 2.0)

    def test_norm_balance_mode(self):
        ref = self._block([3.0, 3.0, 3.0, 3.0])
        blk = self._block([1.0, 1.0, 1.0, 1.0])
        # ratio of first-column norms, reference over block
        assert_allclose(embed.scale_factor(blk, ref, mode="norm_balance"), 3.0)

    def test_zero_norm_rejected(self):
        ref = self._block([1.0, 1.0, 1.0, 1.0])
        blk = self._block([0.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            embed.scale_factor(blk, ref, mode="last_column")

    def test_unknown_mode(self):
        ref = self._block([1.0, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            embed.scale_factor(ref, ref, mode="bogus")


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

    @pytest.mark.parametrize("t0, dt", [(0.0, 0.01), (-3.7, 0.1), (1e5, 1 / 3)])
    def test_bytes_equal_per_cell_output(self, tmp_path, t0, dt):
        rng = np.random.default_rng(11)
        vals = [rng.standard_normal(2500) * 10.0 ** rng.integers(-12, 12, 2500) for _ in range(3)]
        vals[0][:4] = [0.0, -0.0, 5e-324, 2251799813685247.75]
        series = [TimeSeries(v, dt, label=f"z{i}") for i, v in enumerate(vals)]
        embed.write_timeseries_csv(tmp_path / "s.csv", series, t0=t0)
        lines = ["t,z0,z1,z2"] + [
            ",".join(format(x, ".17g") for x in [t0 + i * dt] + [v[i] for v in vals])
            for i in range(2500)]
        assert (tmp_path / "s.csv").read_text() == "\n".join(lines) + "\n"

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
