import io
import json
import math
import os
import stat
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopdmd import dmd, embed, ioutil
from koopdmd.dmd import DmdResult
from koopdmd.embed import TimeSeries


def reference_csv(header, matrix) -> str:
    """Per-cell reference: every value through format_float."""
    lines = [",".join(header)]
    lines += [",".join(ioutil.format_float(x) for x in row) for row in matrix.tolist()]
    return "\n".join(lines) + "\n"


def edge_matrix() -> np.ndarray:
    rng = np.random.default_rng(0)
    special = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 1.7976931348623157e308,
               -1.7976931348623157e308, 1 / 3, 2.0, -7.0, 1e16, 123456789.0, 0.1]
    noise = rng.standard_normal((7, len(special))) * 10.0 ** rng.integers(-13, 3, (7, len(special)))
    return np.vstack([special, noise])


def leftovers(directory):
    return sorted(p.name for p in directory.iterdir())


def reference_rows(matrix) -> str:
    """Python's own '%.17g' of every cell, one format per cell."""
    fmt = ",".join(["%.17g"] * matrix.shape[1]) + "\n"
    return "".join(fmt % tuple(row) for row in matrix.tolist())


finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(0, 2**64 - 1).map(lambda b: float(np.uint64(b).view(np.float64)))
    .filter(math.isfinite))


def near_ties(k: int) -> list[float]:
    """Doubles x with x * 10**k = N + 1/2 + r / 2**53 (0 < |r| <= 8, N of 17 digits).

    For k = 23 and 24, 10**k is not a double, so these decide the rounding
    only if the fast path keeps its margin around a tie.
    """
    inverse = pow(5, -k, 2**53)
    out = []
    for r in range(-8, 9):
        m = ((2**52 + r) * inverse) % 2**53
        if r and m >= 2**52 and 10**16 * 2**53 <= m * 5**k < 10**17 * 2**53:
            out.append(math.ldexp(m, -53 - k))
    return out


def edge_values() -> np.ndarray:
    powers = np.array([float(f"1e{p}") for p in range(-300, 301)])
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 2251799813685247.75, 3 / 2**24, 9.9999999999999995e-05,
               1e-4, 99999999999999999.0]
    near = [np.nextafter(v, d) for v in (1e16, 1e17) for d in (0.0, np.inf)]
    ties = near_ties(23) + near_ties(24)
    assert len(ties) >= 8
    return np.concatenate([special, near, ties, powers, np.nextafter(powers, 0.0),
                           np.nextafter(powers, np.inf), -powers])


class TestExactFormat:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(finite_floats, min_size=1, max_size=40), st.integers(1, 4))
    def test_cells_equal_format_17g(self, values, ncols):
        matrix = np.array(values * ncols).reshape(-1, ncols)
        want = "".join(",".join(format(x, ".17g") for x in row) + "\n" for row in matrix.tolist())
        assert ioutil.format_rows(matrix) == want

    @pytest.mark.parametrize("ncols", [1, 3, 7])
    def test_edge_values(self, ncols):
        values = edge_values()
        matrix = np.resize(values, (-(-values.size // ncols), ncols))
        assert ioutil.format_rows(matrix) == reference_rows(matrix)

    def test_named_edges(self):
        row = np.array([[2251799813685247.75, 9.9999999999999995e-05, 1e-4, 99999999999999999.0,
                         1e16, -0.0, 0.0, 5e-324, 12.5, -0.00123]])
        assert ioutil.format_rows(row) == ("2251799813685247.8,9.9999999999999991e-05,0.0001,1e+17,"
                                           "10000000000000000,-0,0,4.9406564584124654e-324,12.5,"
                                           "-0.00123\n")

    def test_blocks_of_mixed_layouts(self):
        # Many rows whose layouts change between them (fixed with an inner
        # point, 0.000ddd, scientific).
        rng = np.random.default_rng(3)
        shape = (3 * 2**13 // 7, 7)
        exponents = np.repeat(rng.integers(-30, 30, shape[0] // 100 + 1), 100)[:shape[0], None]
        matrix = rng.standard_normal(shape) * 10.0 ** exponents
        assert ioutil.format_rows(matrix) == reference_rows(matrix)

    @pytest.mark.parametrize("shape", [(0, 3), (4, 0), (0, 0)])
    def test_empty_matrices(self, tmp_path, shape):
        matrix = np.zeros(shape)
        assert ioutil.format_rows(matrix) == reference_rows(matrix)
        header = [f"c{j}" for j in range(shape[1])]
        ioutil.write_csv(tmp_path / "a.csv", header, matrix)
        assert (tmp_path / "a.csv").read_text() == ",".join(header) + "\n" + "\n" * shape[0]

    def test_non_finite_refused(self):
        with pytest.raises(ValueError, match="non-finite value inf"):
            ioutil.format_rows(np.array([[1.0, 2.0], [np.inf, np.nan]]))


def saved(matrix) -> bytes:
    """np.save of matrix in C order."""
    buf = io.BytesIO()
    np.save(buf, np.ascontiguousarray(matrix))
    return buf.getvalue()


class TestArrayPath:
    def test_matches_per_cell_reference(self):
        matrix = edge_matrix()
        header = [f"c{j}" for j in range(matrix.shape[1])]
        text = ",".join(header) + "\n" + ioutil.format_rows(matrix)
        assert text == reference_csv(header, matrix)

    def test_matches_row_iterable_path(self, tmp_path):
        # Non-contiguous input (a column slice) gives the text of write_csv.
        matrix = edge_matrix()[:, ::2]
        header = [f"c{j}" for j in range(matrix.shape[1])]
        ioutil.write_csv(tmp_path / "b.csv", header, matrix.tolist())
        assert ",".join(header) + "\n" + ioutil.format_rows(matrix) == \
            (tmp_path / "b.csv").read_text()

    def test_values_round_trip(self):
        matrix = edge_matrix()
        back = np.loadtxt(io.StringIO(ioutil.format_rows(matrix)), delimiter=",")
        assert np.array_equal(back, matrix)
        assert np.array_equal(np.signbit(back), np.signbit(matrix))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_refused_without_leftovers(self, tmp_path, bad):
        matrix = edge_matrix()
        matrix[3, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            ioutil.format_rows(matrix)
        for dtype in (np.float64, np.complex128):
            with pytest.raises(ValueError, match="non-finite"):
                ioutil.write_npy(tmp_path / "a.npy", matrix, dtype)
        assert leftovers(tmp_path) == []

    def test_finiteness_check_takes_no_cell_sized_mask(self):
        # A bool mask of the matrix would be one byte a cell (5.7 MiB for
        # lorenz-pod's modes) beside the matrix being written.
        matrix = np.random.default_rng(0).standard_normal((2000, 500))
        tracemalloc.start()
        try:
            ioutil._check_finite(matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= matrix.size // 100

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_cell_refused_without_leftovers(self, tmp_path, bad):
        with pytest.raises(ValueError, match="non-finite"):
            ioutil.write_csv(tmp_path / "a.csv", ["a", "b"], [[1.0, 2.0], [3.0, bad]])
        assert leftovers(tmp_path) == []

    def test_failed_write_keeps_existing_target(self, tmp_path):
        target = tmp_path / "a.npy"
        ioutil.write_npy(target, np.array([[1.0, 2.0]]), np.float64)
        before = target.read_bytes()
        with pytest.raises(ValueError):
            ioutil.write_npy(target, np.array([[np.nan, 1.0]]), np.float64)
        with pytest.raises(ValueError):
            ioutil.write_csv(target, ["a", "b"], [[1.0, 2.0], [float("inf"), 0.0]])
        with pytest.raises(TypeError):
            ioutil.atomic_write_text(target, None)
        assert target.read_bytes() == before
        assert leftovers(tmp_path) == ["a.npy"]


class TestNpy:
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_bytes_equal_np_save(self, tmp_path, monkeypatch, dtype):
        # Written in 7-row blocks from a non-contiguous column slice, the
        # file holds the bytes of np.save of the whole C-ordered array.
        monkeypatch.setattr(ioutil, "BLOCK_ROWS", 7)
        rng = np.random.default_rng(5)
        matrix = np.vstack([edge_matrix(), rng.standard_normal((40, 12))])[:, ::2].astype(dtype)
        if dtype is np.complex128:
            matrix.imag = rng.standard_normal(matrix.shape)
        ioutil.write_npy(tmp_path / "a.npy", matrix, dtype)
        assert (tmp_path / "a.npy").read_bytes() == saved(matrix)
        back = np.load(tmp_path / "a.npy")
        assert back.dtype == dtype and np.array_equal(back, matrix)

    def test_row_source_is_formed_block_by_block(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ioutil, "BLOCK_ROWS", 7)
        matrix = np.arange(60.0).reshape(20, 3)
        asked = []

        def rows(lo, hi):
            asked.append((lo, hi))
            return matrix[lo:hi]

        ioutil.write_npy(tmp_path / "a.npy", ioutil.RowSource((20, 3), rows), np.float64)
        assert asked == ioutil.row_blocks(20) == [(0, 6), (6, 13), (13, 20)]
        assert (tmp_path / "a.npy").read_bytes() == saved(matrix)

    @pytest.mark.parametrize("shape", [(0, 3), (4, 0), (0, 0)])
    def test_empty_matrices(self, tmp_path, shape):
        ioutil.write_npy(tmp_path / "a.npy", np.zeros(shape), np.complex128)
        assert (tmp_path / "a.npy").read_bytes() == saved(np.zeros(shape, dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_row_of_a_source_is_refused(self, tmp_path, monkeypatch, bad):
        # A row source is checked block by block as its rows are formed, so
        # a late block's refusal comes after earlier blocks were written: it
        # names the first non-finite value and leaves no file behind.
        monkeypatch.setattr(ioutil, "BLOCK_ROWS", 64)

        def rows(lo, hi):
            block = np.ones((hi - lo, 8))
            if lo <= 290 < hi:
                block[290 - lo, 3] = bad
            return block

        target = tmp_path / "a.npy"
        target.write_bytes(b"before")
        with pytest.raises(ValueError) as exc:
            ioutil.write_npy(target, ioutil.RowSource((300, 8), rows), np.float64)
        assert str(exc.value) == f"refusing to serialize non-finite value {bad!r}"
        assert target.read_bytes() == b"before"
        assert leftovers(tmp_path) == ["a.npy"]

    def test_interrupt_leaves_no_file(self, tmp_path):
        def rows(lo, hi):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            ioutil.write_npy(tmp_path / "a.npy", ioutil.RowSource((3, 2), rows), np.float64)
        assert leftovers(tmp_path) == []


def mode_result(algorithm: str) -> DmdResult:
    """A decomposition of a 600-row Hankel block of noise by algorithm."""
    series = TimeSeries(np.random.default_rng(4).standard_normal(700), 1.0)
    block = embed.hankel(series, m=600, n=40)
    data = embed.composite([block])
    if algorithm == "hankel":
        return dmd.hankel_dmd(data)
    if algorithm == "exact":
        return dmd.exact_dmd(data.X, data.Y)
    return dmd.companion_dmd(block.H, k=block.H.shape[1] - 1)


class TestModesCsv:
    def test_view_layout_matches_stacked_pairs(self, tmp_path):
        rng = np.random.default_rng(1)
        modes = rng.standard_normal((9, 4)) + 1j * rng.standard_normal((9, 4))
        modes[0, 0] = complex(-0.0, 5e-324)
        # Column selection as in the DMD variants: not C-contiguous.
        modes = modes[:, [2, 0, 3, 1]]
        res = DmdResult(eigenvalues=np.ones(4, dtype=complex), modes=modes,
                        projected_modes=None, rank_kept=4, residual=0.0,
                        algorithm="hankel", dt=1.0)
        dmd.write_modes_csv(res, tmp_path / "modes.npy")
        stacked = np.stack([modes.real, modes.imag], axis=2).reshape(9, -1)
        back = np.load(tmp_path / "modes.npy").view(np.float64)
        assert np.array_equal(back, stacked)
        assert np.array_equal(np.signbit(back), np.signbit(stacked))
        assert (tmp_path / "modes.npy").read_bytes() == saved(modes)

    @pytest.mark.parametrize("algorithm", ["hankel", "exact", "companion"])
    def test_bytes_equal_np_save(self, tmp_path, monkeypatch, algorithm):
        # modes.npy holds the bytes of np.save of the whole mode array,
        # written in 7-row blocks that straddle everything.
        monkeypatch.setattr(ioutil, "BLOCK_ROWS", 7)
        want = saved(mode_result(algorithm).modes)
        res = mode_result(algorithm)
        dmd.write_modes_csv(res, tmp_path / "modes.npy")
        same = (tmp_path / "modes.npy").read_bytes() == want
        assert same  # a bool: pytest's diff of two long byte strings takes minutes
        back = np.load(tmp_path / "modes.npy")
        assert back.dtype == np.complex128
        assert np.array_equal(res.modes[:, 5], back[:, 5])

    def test_real_modes_get_zero_imaginary_columns(self, tmp_path):
        modes = np.arange(6.0).reshape(3, 2)
        res = DmdResult(eigenvalues=np.ones(2), modes=modes, projected_modes=None,
                        rank_kept=2, residual=0.0, algorithm="svd", dt=1.0)
        dmd.write_modes_csv(res, tmp_path / "modes.npy")
        back = np.load(tmp_path / "modes.npy")
        assert back.dtype == np.complex128
        assert np.array_equal(back.real, modes) and not back.imag.any()
        assert (tmp_path / "modes.npy").read_bytes() == saved(modes.astype(np.complex128))


class TestJson:
    def test_control_characters_are_escaped(self, tmp_path):
        obj = {"a\x01b": ["\x00\x1f\x7f", "\b\f\n\r\t", "é\u2028\\\""]}
        ioutil.write_json(tmp_path / "a.json", obj)
        assert json.loads((tmp_path / "a.json").read_text(encoding="utf-8")) == obj

    @given(st.text().filter(lambda s: all(c >= " " for c in s)))
    def test_strings_without_control_characters_keep_their_bytes(self, s):
        escaped = s.replace("\\", "\\\\").replace('"', '\\"')
        assert ioutil._json_fragment(s) == f'"{escaped}"'


class TestPermissions:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_files_follow_umask(self, tmp_path, umask, mode):
        old = os.umask(umask)
        try:
            ioutil.write_json(tmp_path / "a.json", {"x": 1.0})
            ioutil.write_npy(tmp_path / "b.npy", np.ones((2, 1)), np.float64)
            ioutil.write_csv(tmp_path / "c.csv", ["x"], [[None], ["s"]])
        finally:
            os.umask(old)
        for name in ("a.json", "b.npy", "c.csv"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_files_get_the_umask_mode_without_a_umask_call(tmp_path, monkeypatch, umask, mode):
    # A umask call changes the mode of files that other threads create
    # meanwhile, so the writers make none.
    def refused(*args):
        raise AssertionError("os.umask called")

    old = os.umask(umask)
    try:
        monkeypatch.setattr(os, "umask", refused)
        ioutil.write_json(tmp_path / "a.json", {"x": 1.0})
        ioutil.write_npy(tmp_path / "b.npy", np.ones((2, 1)), np.float64)
        ioutil.write_csv(tmp_path / "c.csv", ["x"], [[None], ["s"]])
    finally:
        monkeypatch.undo()
        os.umask(old)
    for name in ("a.json", "b.npy", "c.csv"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.npy", "c.csv"]
