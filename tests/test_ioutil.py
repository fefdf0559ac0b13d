import json
import math
import os
import stat
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopdmd import dmd, floattext, ioutil
from koopdmd.dmd import DmdResult


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
    """The row format the array path replaces: one '%.17g' per cell."""
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
        # Several blocks, and the layouts change between them (fixed with an
        # inner point, 0.000ddd, scientific), so template slots are reused.
        rng = np.random.default_rng(3)
        shape = (3 * floattext.BLOCK_CELLS // 7, 7)
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


class TestArrayPath:
    def test_matches_per_cell_reference(self, tmp_path):
        matrix = edge_matrix()
        header = [f"c{j}" for j in range(matrix.shape[1])]
        ioutil.write_csv(tmp_path / "a.csv", header, matrix)
        assert (tmp_path / "a.csv").read_text() == reference_csv(header, matrix)

    def test_matches_row_iterable_path(self, tmp_path):
        # Non-contiguous input (a column slice) goes through the same format.
        matrix = edge_matrix()[:, ::2]
        header = [f"c{j}" for j in range(matrix.shape[1])]
        ioutil.write_csv(tmp_path / "a.csv", header, matrix)
        ioutil.write_csv(tmp_path / "b.csv", header, matrix.tolist())
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_values_round_trip(self, tmp_path):
        matrix = edge_matrix()
        ioutil.write_csv(tmp_path / "a.csv", ["x"] * matrix.shape[1], matrix)
        back = np.loadtxt(tmp_path / "a.csv", delimiter=",", skiprows=1)
        assert np.array_equal(back, matrix)
        assert np.array_equal(np.signbit(back), np.signbit(matrix))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_refused_without_leftovers(self, tmp_path, bad):
        matrix = edge_matrix()
        matrix[3, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            ioutil.write_csv(tmp_path / "a.csv", ["x"] * matrix.shape[1], matrix)
        assert leftovers(tmp_path) == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_cell_refused_without_leftovers(self, tmp_path, bad):
        with pytest.raises(ValueError, match="non-finite"):
            ioutil.write_csv(tmp_path / "a.csv", ["a", "b"], [[1.0, 2.0], [3.0, bad]])
        assert leftovers(tmp_path) == []

    def test_failed_write_keeps_existing_target(self, tmp_path):
        target = tmp_path / "a.csv"
        ioutil.write_csv(target, ["a", "b"], np.array([[1.0, 2.0]]))
        before = target.read_bytes()
        for rows in (np.array([[np.nan, 1.0]]), [[1.0, 2.0], [float("inf"), 0.0]]):
            with pytest.raises(ValueError):
                ioutil.write_csv(target, ["a", "b"], rows)
        with pytest.raises(TypeError):
            ioutil.atomic_write_text(target, None)
        assert target.read_bytes() == before
        assert leftovers(tmp_path) == ["a.csv"]


def write_with_workers(path, header, matrix, workers):
    with ioutil._atomic_open(path) as fh:
        fh.write(",".join(header) + "\n")
        ioutil._write_matrix(fh, matrix, workers, path)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers are forked")
class TestWorkers:
    def test_bytes_do_not_depend_on_worker_count(self, tmp_path):
        rng = np.random.default_rng(2)
        noise = rng.standard_normal((2**20 // 12, 12)) * 10.0 ** rng.integers(-13, 3, (2**20 // 12, 12))
        matrix = np.vstack([edge_matrix(), noise])  # no two rows alike, so misordered ranges show
        assert matrix.size >= 2 * ioutil.CELLS_PER_WORKER
        # Rows formatted by '%' (a subnormal, a rounding tie) on both sides of every cut.
        for workers in (2, 3):
            for cut in (len(matrix) * i // workers for i in range(1, workers)):
                matrix[cut - 1, 5] = 5e-324 * cut
                matrix[cut, 7] = 2251799813685247.75
        header = [f"c{j}" for j in range(matrix.shape[1])]
        ioutil.write_csv(tmp_path / "a.csv", header, matrix)
        want = reference_csv(header, matrix).encode()
        assert (tmp_path / "a.csv").read_bytes() == want
        for workers in (1, 2, 3):
            write_with_workers(tmp_path / "w.csv", header, matrix, workers)
            assert (tmp_path / "w.csv").read_bytes() == want, workers
        assert_no_children()

    @pytest.mark.parametrize("nrows", [0, 1, 2])
    def test_fewer_rows_than_workers(self, tmp_path, nrows):
        matrix = edge_matrix()[:nrows]
        header = [f"c{j}" for j in range(matrix.shape[1])]
        write_with_workers(tmp_path / "w.csv", header, matrix, 3)
        assert (tmp_path / "w.csv").read_text() == reference_csv(header, matrix)
        assert_no_children()

    def test_failed_worker_raises_oserror_and_keeps_target(self, tmp_path, monkeypatch):
        target = tmp_path / "a.csv"
        target.write_text("before\n")
        parent, write_rows = os.getpid(), ioutil._write_rows

        def fail_in_workers(fh, rows):
            # Forked workers inherit the patched module attribute.
            if os.getpid() != parent:
                raise RuntimeError("worker failure")
            write_rows(fh, rows)

        monkeypatch.setattr(ioutil, "_write_rows", fail_in_workers)
        with pytest.raises(OSError, match="worker process"):
            write_with_workers(target, ["x"] * 12, np.tile(edge_matrix(), (4, 1)), 3)
        assert target.read_text() == "before\n"
        assert leftovers(tmp_path) == ["a.csv"]
        assert_no_children()

    def test_interrupt_kills_workers(self, tmp_path, monkeypatch):
        parent = os.getpid()

        def interrupted(fh, rows):
            if os.getpid() != parent:
                time.sleep(60)  # workers are still busy when the parent is interrupted
            raise KeyboardInterrupt

        monkeypatch.setattr(ioutil, "_write_rows", interrupted)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            write_with_workers(tmp_path / "a.csv", ["x"] * 12, np.tile(edge_matrix(), (4, 1)), 3)
        assert time.monotonic() - start < 30
        assert leftovers(tmp_path) == []
        assert_no_children()

    def test_non_finite_refused_before_any_fork(self, tmp_path, monkeypatch):
        def no_fork():
            raise AssertionError("forked before the finiteness check")

        monkeypatch.setattr(os, "fork", no_fork)
        matrix = np.ones((2**20 // 8 + 1, 8))
        matrix[-1, -1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            ioutil.write_csv(tmp_path / "a.csv", ["x"] * 8, matrix)
        assert leftovers(tmp_path) == []


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
        dmd.write_modes_csv(res, tmp_path / "modes.csv")
        stacked = np.stack([modes.real, modes.imag], axis=2).reshape(9, -1)
        header = [f"mode{j + 1}_{part}" for j in range(4) for part in ("re", "im")]
        assert (tmp_path / "modes.csv").read_text() == reference_csv(header, stacked)

    def test_real_modes_get_zero_imaginary_columns(self, tmp_path):
        modes = np.arange(6.0).reshape(3, 2)
        res = DmdResult(eigenvalues=np.ones(2), modes=modes, projected_modes=None,
                        rank_kept=2, residual=0.0, algorithm="svd", dt=1.0)
        dmd.write_modes_csv(res, tmp_path / "modes.csv")
        lines = (tmp_path / "modes.csv").read_text().splitlines()
        assert lines[0] == "mode1_re,mode1_im,mode2_re,mode2_im"
        assert lines[1:] == ["0,0,1,0", "2,0,3,0", "4,0,5,0"]


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
            ioutil.write_csv(tmp_path / "b.csv", ["x"], np.ones((2, 1)))
            ioutil.write_csv(tmp_path / "c.csv", ["x"], [[None], ["s"]])
        finally:
            os.umask(old)
        for name in ("a.json", "b.csv", "c.csv"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode
