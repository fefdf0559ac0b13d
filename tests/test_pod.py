import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from koopdmd import embed, ioutil, linalg, pod, systems
from koopdmd.embed import TimeSeries
from koopdmd.errors import DecompositionError


def rotation_block(omega=1.0, theta0=0.5, m=200, n=8, dt=1.0):
    spec = systems.SystemSpec("circle", {"omega": omega / dt}, (theta0,), dt, m + n)
    traj = systems.integrate(spec)
    ts = systems.observe(traj, systems.Observable("cos_angle"))
    return embed.hankel(ts, m=m, n=n)


class TestSnapshots:
    def test_rank_one_gramian(self):
        # two identical unit-energy columns: one direction with weight sqrt(2)
        m = 16
        f1 = np.ones(m)  # empirical norm 1
        f = np.column_stack([f1, f1])
        g = np.array([[1.0, 1.0], [1.0, 1.0]])
        res = pod.pod_snapshots(g, f)
        assert res.k == 1
        assert_allclose(res.singular_values, [np.sqrt(2.0)], atol=1e-14)
        assert_allclose(res.basis_samples[:, 0], f1, atol=1e-14)
        assert res.m == m

    def test_identity_gramian_keeps_input_order(self):
        # all eigenvalues tie at 1; the stable sort leaves columns in place
        g = np.eye(3)
        f = np.diag([1.0, 2.0, 3.0])
        res = pod.pod_snapshots(g, f)
        assert_allclose(res.singular_values, np.ones(3))
        assert_allclose(np.abs(res.principal_coords), np.eye(3), atol=1e-14)
        assert res.degenerate

    def test_distinct_spectrum_not_degenerate(self):
        g = np.diag([4.0, 1.0])
        f = np.eye(2)
        res = pod.pod_snapshots(g, f)
        assert not res.degenerate
        assert_allclose(res.singular_values, [2.0, 1.0])

    def test_rank_cut(self):
        g = np.diag([1.0, 1e-30])
        res = pod.pod_snapshots(g, np.eye(2))
        assert res.k == 1

    def test_asymmetric_rejected(self):
        g = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            pod.pod_snapshots(g, np.eye(2))

    def test_indefinite_rejected(self):
        g = np.diag([1.0, -1.0])
        with pytest.raises(ValueError):
            pod.pod_snapshots(g, np.eye(2))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            pod.pod_snapshots(np.eye(2), np.ones((5, 3)))


def test_the_two_rank_rules():
    # Singular values 1 and 1e-7: the Gramian route keeps sigma_j / sigma_0 >
    # 1e-6, the singular-value route sigma_j / sigma_0 > 1e-8 (1e-8 itself
    # would sit on that cut).
    rng = np.random.default_rng(0)
    u, _ = np.linalg.qr(rng.standard_normal((50, 2)))
    v, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    f = u @ np.diag([1.0, 1e-7]) @ v.T
    assert pod.pod_snapshots(f.T @ f, f).k == 1
    assert pod.ergodic_pod(embed.HankelBlock(H=f, UH=f, m=50, n=1, dt=1.0)).k == 2


class TestErgodic:
    def test_zero_block_is_a_decomposition_error(self):
        blk = embed.hankel(TimeSeries(np.zeros(20), 1.0), m=10, n=4)
        with pytest.raises(DecompositionError, match="identically zero"):
            pod.ergodic_pod(blk)

    def test_rotation_two_directions(self):
        blk = rotation_block(m=2000, n=8)
        res = pod.ergodic_pod(blk)
        assert res.k == 2
        # cos/sin split: energies (n+1)/2 plus the ergodic cross terms decay;
        # compare against the analytic limit Gramian eigendecomposition
        g = np.array([[0.5 * np.cos((i - j) * 1.0) for j in range(9)] for i in range(9)])
        want = np.sqrt(np.sort(np.linalg.eigvalsh(g))[::-1][:2])
        assert_allclose(res.singular_values, want, rtol=1e-2)

    def test_constant_observable(self):
        blk = embed.hankel(TimeSeries(np.full(30, 3.0), 1.0), m=20, n=5)
        res = pod.ergodic_pod(blk)
        assert res.k == 1
        # H/sqrt(m) has one direction of norm |c| sqrt(n+1)
        assert_allclose(res.singular_values, [3.0 * np.sqrt(6.0)], atol=1e-12)
        assert res.degenerate is False

    def test_basis_is_empirically_orthonormal(self):
        blk = rotation_block(m=500, n=6)
        res = pod.ergodic_pod(blk)
        gram = (res.basis_samples.T @ res.basis_samples) / res.m
        assert np.max(np.abs(gram - np.eye(res.k))) <= 1e-10

    def test_principal_coords_orthonormal(self):
        blk = rotation_block(m=300, n=5)
        res = pod.ergodic_pod(blk)
        assert np.max(np.abs(res.principal_coords.T @ res.principal_coords - np.eye(res.k))) <= 1e-10

    def test_matches_snapshot_path(self):
        # same data through the Gramian route and the direct SVD route
        blk = rotation_block(m=400, n=7)
        g = linalg.gram(blk.H, 1.0 / blk.m)
        via_g = pod.pod_snapshots(g, blk.H)
        direct = pod.ergodic_pod(blk)
        assert via_g.k == direct.k
        assert_allclose(via_g.singular_values, direct.singular_values, rtol=1e-8)
        for j in range(direct.k):
            a = via_g.basis_samples[:, j]
            b = direct.basis_samples[:, j]
            sign = np.sign(a @ b) or 1.0
            assert_allclose(a, sign * b, atol=1e-6 * np.linalg.norm(b))

    def test_singular_values_match_scaled_svd(self):
        # S(H) / sqrt(m) against the SVD of H / sqrt(m) itself
        rng = np.random.default_rng(3)
        blk = embed.hankel(TimeSeries(rng.standard_normal(240), 1.0), m=200, n=30)
        res = pod.ergodic_pod(blk)
        want = linalg.svd(blk.H / np.sqrt(blk.m)).S
        assert res.k == want.size
        assert_allclose(res.singular_values, want, rtol=1e-14)

    def test_given_factors_are_used(self):
        blk = rotation_block(m=300, n=9)
        plain = pod.ergodic_pod(blk)
        shared = pod.ergodic_pod(blk, factors=linalg.svd(blk.H))
        assert np.array_equal(plain.singular_values, shared.singular_values)
        assert np.array_equal(plain.basis_samples, shared.basis_samples)
        with pytest.raises(ValueError, match="factors"):
            pod.ergodic_pod(blk, factors=linalg.svd(blk.H[:, 1:]))

    def test_basis_is_the_fresh_w_unscaled(self, monkeypatch):
        # Without factors, ergodic_pod holds a view of its own W and the
        # scale sqrt(m): beyond the SVD it allocates no second m x k array,
        # and W is left as the SVD returned it.
        rng = np.random.default_rng(5)
        blk = embed.hankel(TimeSeries(rng.standard_normal(4100), 1.0), m=4000, n=99)
        r = linalg.svd(blk.H, linalg.numerical_rank)
        before = r.W.copy()
        monkeypatch.setattr(linalg, "svd", lambda x, rank=None: r)
        tracemalloc.start()
        try:
            res = pod.ergodic_pod(blk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.k == 100 and np.shares_memory(res.W, r.W)
        assert np.array_equal(r.W, before)
        assert peak <= 0.05 * r.W.nbytes
        assert np.array_equal(res.basis_samples, np.sqrt(blk.m) * before)

    @given(st.integers(0, 300), st.integers(2, 6), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_bridge_identity_property(self, seed, mrows, ncols):
        # eigenvalues of the scaled Gramian equal squared singular values of
        # the scaled data matrix
        rng = np.random.default_rng(seed)
        m = mrows * 4
        h = rng.standard_normal((m, ncols))
        evals = np.sort(np.linalg.eigvalsh(linalg.gram(h, 1.0 / m)))[::-1]
        svals = linalg.svd(h / np.sqrt(m)).S
        k = min(len(evals), len(svals))
        scale = max(1.0, evals[0])
        assert np.max(np.abs(evals[:k] - svals[:k] ** 2)) <= 1e-8 * scale


class TestReconstruction:
    def test_error_decreases_and_vanishes_at_full_rank(self):
        blk = rotation_block(m=600, n=8)
        res = pod.ergodic_pod(blk)
        errs = [pod.reconstruction_error(res, blk.H, p) for p in range(res.k + 1)]
        assert all(errs[i] > errs[i + 1] for i in range(len(errs) - 1))
        assert errs[-1] <= 1e-8

    def test_zero_term_error_is_mean_column_norm(self):
        blk = rotation_block(m=100, n=3)
        res = pod.ergodic_pod(blk)
        want = np.mean(np.linalg.norm(blk.H, axis=0)) / np.sqrt(blk.m)
        assert_allclose(pod.reconstruction_error(res, blk.H, 0), want, rtol=1e-12)

    def test_rejects_bad_term_count(self):
        blk = rotation_block(m=100, n=3)
        res = pod.ergodic_pod(blk)
        with pytest.raises(ValueError):
            pod.reconstruction_error(res, blk.H, res.k + 1)
        with pytest.raises(ValueError):
            pod.reconstruction_error(res, blk.H, -1)


class TestWriters:
    def test_json_and_csv(self, tmp_path):
        blk = rotation_block(m=50, n=4)
        res = pod.ergodic_pod(blk)
        pod.write_result_json(res, tmp_path / "pod.json")
        pod.write_basis_csv(res, tmp_path / "basis.npy")
        pod.write_coords_csv(res, tmp_path / "coords.npy")
        meta = json.loads((tmp_path / "pod.json").read_text())
        assert meta["k"] == res.k and meta["m"] == 50
        assert_allclose(meta["singular_values"], res.singular_values)
        basis = np.load(tmp_path / "basis.npy")
        assert basis.shape == (50, res.k) and np.array_equal(basis, res.basis_samples)
        coords = np.load(tmp_path / "coords.npy")
        assert coords.shape == (5, res.k) and np.array_equal(coords, res.principal_coords)

    def test_basis_csv_gives_the_bytes_of_basis_samples(self, tmp_path, monkeypatch):
        # pod_basis.npy is formed in the writer from W and its scale, in
        # 7-row blocks, with the bytes of np.save of the whole basis_samples
        # array; pod_coords.npy holds principal_coords in C order.
        monkeypatch.setattr(ioutil, "BLOCK_ROWS", 7)
        series = TimeSeries(np.random.default_rng(4).standard_normal(700), 1.0)
        res = pod.ergodic_pod(embed.hankel(series, m=600, n=40))
        pod.write_basis_csv(res, tmp_path / "basis.npy")
        pod.write_coords_csv(res, tmp_path / "coords.npy")
        assert "basis_samples" not in vars(res)  # the writer formed no m x k array
        for name, want in (("basis.npy", res.basis_samples), ("coords.npy", res.principal_coords)):
            buf = io.BytesIO()
            np.save(buf, np.ascontiguousarray(want))
            same = (tmp_path / name).read_bytes() == buf.getvalue()
            assert same, name  # a bool: pytest's diff of two long byte strings takes minutes
