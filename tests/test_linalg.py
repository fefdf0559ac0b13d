import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from fresh_process import run_fresh
from inline_pool import InlinePool
from koopdmd import linalg


def random_matrix(rows, cols, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, cols))


class TestSvd:
    def test_rank_one_example(self):
        # [[1,1],[1,1]] has singular values (2, 0); the leading pair of
        # singular vectors is (1/sqrt(2), 1/sqrt(2)) up to sign.
        r = linalg.svd([[1.0, 1.0], [1.0, 1.0]])
        assert_allclose(r.S, [2.0, 0.0], atol=1e-14)
        u = np.full(2, 1.0 / np.sqrt(2.0))
        assert_allclose(np.abs(r.W[:, 0]), u, atol=1e-14)
        assert_allclose(np.abs(r.V[:, 0]), u, atol=1e-14)
        assert np.sign(r.W[0, 0] * r.W[1, 0]) > 0  # same sign within the vector

    def test_identity(self):
        r = linalg.svd(np.eye(3))
        assert_allclose(r.S, np.ones(3))
        assert_allclose(r.W, np.eye(3))
        assert_allclose(r.V, np.eye(3))

    def test_diagonal_order(self):
        r = linalg.svd(np.diag([2.0, 3.0]))
        assert_allclose(r.S, [3.0, 2.0])
        # reconstruction recovers the original column placement
        assert_allclose(r.W @ np.diag(r.S) @ r.V.T, np.diag([2.0, 3.0]), atol=1e-14)

    @pytest.mark.parametrize("rows,cols,seed", [
        (3, 5, 0), (5, 3, 1), (50, 20, 2), (20, 50, 3), (200, 200, 4), (120, 37, 5),
    ])
    def test_invariants_random(self, rows, cols, seed):
        x = random_matrix(rows, cols, seed)
        r = linalg.svd(x)
        k = min(rows, cols)
        assert r.W.shape == (rows, k) and r.V.shape == (cols, k)
        assert np.all(np.diff(r.S) <= 0) and np.all(r.S >= 0)
        assert np.max(np.abs(r.W.T @ r.W - np.eye(k))) <= 1e-10
        assert np.max(np.abs(r.V.T @ r.V - np.eye(k))) <= 1e-10
        xf = np.linalg.norm(x)
        assert np.linalg.norm(r.W @ np.diag(r.S) @ r.V.T - x) <= 1e-8 * xf

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            linalg.svd(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            linalg.svd([[np.nan, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            linalg.svd(np.empty((0, 3)))


def assert_numpy_svd(x, rank=None):
    """linalg.svd(x, rank) holds the bits of np.linalg.svd in S and V. Its
    W is C-contiguous, orthonormal to 1e-13 and within 1e-14 of numpy's
    leading columns: on a tall x exactly the rank(S) that rank keeps, else
    all of them."""
    w, s, vh = np.linalg.svd(x, full_matrices=False)
    r = linalg.svd(x, rank)
    rows, cols = x.shape
    k = s.size if rank is None or rows < 11 * cols // 6 else rank(s)
    assert np.array_equal(r.S, s) and np.array_equal(r.V, vh.T)
    assert r.W.shape == (rows, k) and r.W.flags.c_contiguous
    assert np.max(np.abs(r.W - w[:, :k]), initial=0.0) <= 1e-14
    assert np.max(np.abs(r.W.T @ r.W - np.eye(k)), initial=0.0) <= 1e-13
    return r


# np.linalg.svd holds about three copies of a 10000 x 400 matrix (its own, a
# work buffer and the full W). A warm-up factorization with as many columns
# leaves BLAS buffers and the cols x cols work of the SVD of R in place, so
# the growth is what scales with rows, in copies of x.
PEAK_RSS_SCRIPT = """
import resource, sys
import numpy as np
from koopdmd import linalg
linalg.svd(np.random.default_rng(1).standard_normal((1000, 400)))
x = np.random.default_rng(0).standard_normal((10000, 400))
x *= {scale}
unit = 1 if sys.platform == "darwin" else 1024
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
r = linalg.svd(x, lambda s: 40)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print((after - before) * unit / x.nbytes)
"""


class TestTallSvd:
    # A matrix with rows >= 11 cols / 6 (dgesdd's own crossover to a QR
    # first) is factored in one copy. S and V are numpy's bits; W, formed
    # in row blocks, agrees with numpy's to roundoff.

    @pytest.mark.parametrize("rows,cols", [
        (500, 101),  # vdp-phase
        (2000, 9),  # rotation-check, and compare_artifacts' lone blocks
        (6000, 501),  # torus-synth
        (10000, 501),  # lorenz-pod
        (4000, 453),  # csv-ingest's composite
        (4000, 151),  # csv-ingest's blocks
    ])
    def test_bits_of_numpy_at_the_pipeline_shapes(self, rows, cols):
        assert_numpy_svd(random_matrix(rows, cols, rows + cols), lambda s: cols // 3)

    @pytest.mark.parametrize("cols", [1, 2, 7, 40, 101])
    def test_both_sides_of_the_crossover(self, cols):
        rows = 11 * cols // 6
        tall = assert_numpy_svd(random_matrix(rows, cols, cols), lambda s: 1)
        assert tall.W.shape[1] == 1
        if rows > 1:
            short = assert_numpy_svd(random_matrix(rows - 1, cols, cols), lambda s: 1)
            assert short.W.shape[1] == min(rows - 1, cols)

    @pytest.mark.parametrize("rows,cols", [(700, 30), (2049, 200), (1500, 101)])
    @pytest.mark.parametrize("k", [0, 1, 2, None])
    def test_kept_columns(self, rows, cols, k):
        # 2049 rows leave a last row block of one row.
        r = assert_numpy_svd(random_matrix(rows, cols, k or 0),
                             None if k is None else lambda s: k)
        assert r.W.shape == (rows, cols if k is None else k)

    @pytest.mark.parametrize("x", [
        np.zeros((300, 12)),
        np.vstack([np.eye(12), np.zeros((288, 12))]),
        np.where(np.arange(12) == 4, 0.0, random_matrix(300, 12, 6)),
    ], ids=["all-zero", "identity-on-top", "zero-column"])
    def test_zero_reflectors(self, x):
        # dgeqrf leaves tau_i = 0 where a column has nothing below its
        # diagonal; forming W must not divide by it.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = linalg.svd(x)
        assert np.linalg.norm(r.W.T @ r.W - np.eye(12)) <= 1e-14
        assert np.linalg.norm(x @ r.V - r.W * r.S) <= 1e-14 * r.S[0]

    def test_bits_do_not_depend_on_the_threads(self, monkeypatch):
        # Two blocks of reflectors, and halves of several chunks each: run
        # inline, the halves give W the bits they give on the worker thread,
        # there with the threads switching as often as they can.
        x = random_matrix(3000, 130, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = linalg.svd(x, lambda s: 40).W
        finally:
            sys.setswitchinterval(interval)
        monkeypatch.setattr(linalg, "ThreadPoolExecutor", InlinePool)
        assert np.array_equal(linalg.svd(x, lambda s: 40).W, pooled)

    def test_all_zero_input(self):
        r = assert_numpy_svd(np.zeros((300, 12)), lambda s: 0)
        assert r.W.shape == (300, 0) and not np.any(r.S)

    @pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e150, 1e300])
    def test_extreme_scales_take_the_tall_path(self, monkeypatch, scale):
        calls, tall = [], linalg._tall_svd

        def spy(a, rank):
            calls.append(a.shape)
            return tall(a, rank)

        monkeypatch.setattr(linalg, "_tall_svd", spy)
        x = scale * random_matrix(700, 30, 1)
        s = np.linalg.svd(x, compute_uv=False)
        r = linalg.svd(x, lambda s: 3)
        assert calls == [(700, 30)] and r.W.shape == (700, 3)
        assert np.max(np.abs(r.S - s)) <= 1e-14 * s[0]
        assert np.max(np.abs(r.W.T @ r.W - np.eye(3))) <= 1e-13

    def test_peak_rss_holds_one_copy(self):
        assert float(run_fresh(PEAK_RSS_SCRIPT.format(scale=1.0), forked=True)) <= 1.3

    def test_peak_rss_holds_one_copy_at_extreme_scale(self):
        # Input that dgesdd would rescale is factored in one copy too.
        assert float(run_fresh(PEAK_RSS_SCRIPT.format(scale=1e-150), forked=True)) <= 1.3

    def test_two_blas_threads(self):
        script = """
import numpy as np
from koopdmd import linalg
x = np.random.default_rng(3).standard_normal((1500, 101))
w, s, vh = np.linalg.svd(x, full_matrices=False)
r = linalg.svd(x, lambda s: 30)
print(np.array_equal(r.S, s) and np.array_equal(r.V, vh.T), r.W.shape[1],
      np.max(np.abs(r.W - w[:, :30])))
"""
        same, kept, w_error = run_fresh(script, threads=2).split()
        assert same == "True" and kept == "30" and float(w_error) <= 1e-14


class TestSvdOf:
    def test_refuses_narrow_factors(self):
        x = random_matrix(60, 8, 0)
        factors = linalg.svd(x, lambda s: 3)
        assert linalg.svd_of(x, factors, lambda s: 3) is factors
        with pytest.raises(ValueError, match="factors keep 3 left singular vectors, "
                                             "the caller needs 4"):
            linalg.svd_of(x, factors, lambda s: 4)
        with pytest.raises(ValueError, match="the caller needs 8"):
            linalg.svd_of(x, factors)


class TestEig:
    def test_rotation_matrix(self):
        th = np.pi / 4
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        r = linalg.eig(rot)
        got = sorted(r.eigenvalues, key=lambda z: z.imag)
        want = [np.exp(-1j * th), np.exp(1j * th)]
        assert_allclose(got, want, atol=1e-14)

    def test_companion_of_quadratic(self):
        # companion matrix of z^2 - 1: eigenvalues {1, -1}
        c = np.array([[0.0, 1.0], [1.0, 0.0]])
        r = linalg.eig(c)
        assert_allclose(sorted(r.eigenvalues.real), [-1.0, 1.0], atol=1e-14)
        assert_allclose(r.eigenvalues.imag, 0.0, atol=1e-14)

    @pytest.mark.parametrize("n,seed", [(2, 0), (5, 1), (30, 2), (100, 3)])
    def test_residual_and_unit_norm(self, n, seed):
        a = random_matrix(n, n, seed)
        r = linalg.eig(a)
        af = np.linalg.norm(a)
        for j in range(n):
            w = r.eigenvectors[:, j]
            assert abs(np.linalg.norm(w) - 1.0) <= 1e-12
            assert np.linalg.norm(a @ w - r.eigenvalues[j] * w) <= 1e-8 * af

    def test_conjugate_pairs_for_real_input(self):
        a = random_matrix(7, 7, 11)
        vals = linalg.eig(a).eigenvalues
        key = lambda z: (round(z.real, 9), round(z.imag, 9))
        paired = sorted(vals, key=key)
        mirrored = sorted(np.conj(vals), key=key)
        assert_allclose(paired, mirrored, atol=1e-9)

    def test_requires_square(self):
        with pytest.raises(ValueError):
            linalg.eig(np.ones((2, 3)))


class TestPinv:
    def test_single_column(self):
        # pseudoinverse of the column (1,1)^T is the row (1/2, 1/2)
        p = linalg.pinv([[1.0], [1.0]])
        assert_allclose(p, [[0.5, 0.5]], atol=1e-14)

    def test_zero_matrix(self):
        p = linalg.pinv(np.zeros((3, 2)))
        assert p.shape == (2, 3)
        assert np.all(p == 0.0)

    @pytest.mark.parametrize("rows,cols,seed", [(4, 4, 0), (6, 3, 1), (3, 6, 2), (40, 25, 3)])
    def test_penrose_identities(self, rows, cols, seed):
        x = random_matrix(rows, cols, seed)
        p = linalg.pinv(x)
        scale = max(1.0, np.linalg.norm(x))
        assert np.linalg.norm(x @ p @ x - x) <= 1e-8 * scale
        assert np.linalg.norm(p @ x @ p - p) <= 1e-8 * max(1.0, np.linalg.norm(p))
        assert np.max(np.abs((x @ p) - (x @ p).T)) <= 1e-8 * scale
        assert np.max(np.abs((p @ x) - (p @ x).T)) <= 1e-8 * scale

    def test_penrose_on_rank_deficient(self):
        x = np.array([[1.0, 1.0], [1.0, 1.0]])
        p = linalg.pinv(x)
        assert_allclose(x @ p @ x, x, atol=1e-12)
        assert_allclose(p, np.full((2, 2), 0.25), atol=1e-12)

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_penrose_property(self, rows, cols, seed):
        x = random_matrix(rows, cols, seed)
        p = linalg.pinv(x)
        scale = max(1.0, np.linalg.norm(x))
        assert np.linalg.norm(x @ p @ x - x) <= 1e-8 * scale


class TestGram:
    def test_single_column(self):
        assert_allclose(linalg.gram([[1.0], [1.0]], 0.5), [[1.0]])

    def test_cosine_quarter_period(self):
        # columns: cos(k*pi/2) for k=0..3 and its one-step shift; over the
        # full period the two are orthogonal and each has energy 2.
        col1 = np.cos(np.arange(4) * np.pi / 2)
        col2 = np.cos((np.arange(4) + 1) * np.pi / 2)
        g = linalg.gram(np.column_stack([col1, col2]), 0.25)
        assert_allclose(g, [[0.5, 0.0], [0.0, 0.5]], atol=1e-15)

    @pytest.mark.parametrize("seed", range(4))
    def test_symmetric_and_psd(self, seed):
        x = random_matrix(17, 9, seed)
        g = linalg.gram(x, 1.0 / 17.0)
        assert np.array_equal(g, g.T)  # exactly symmetric by construction
        evals = np.linalg.eigvalsh(g)
        assert evals.min() >= -1e-10 * max(1.0, evals.max())

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            linalg.gram(np.eye(2), 0.0)
        with pytest.raises(ValueError):
            linalg.gram(np.eye(2), -1.0)
