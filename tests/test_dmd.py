import json
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from fresh_process import run_fresh
from inline_pool import InlinePool
from koopdmd import cli, dmd, embed, ioutil, linalg, pod, systems
from koopdmd.embed import TimeSeries
from koopdmd.errors import DecompositionError, RankDeficiencyError


def rotation_block(omega=np.pi / 4, theta0=0.0, m=32, n=8, dt=1.0):
    spec = systems.SystemSpec("circle", {"omega": omega / dt}, (theta0,), dt, m + n)
    traj = systems.integrate(spec)
    ts = systems.observe(traj, systems.Observable("cos_angle"))
    return embed.hankel(ts, m=m, n=n)


def sorted_eigs(values):
    return np.asarray(sorted(values, key=lambda z: (round(z.real, 10), round(z.imag, 10))))


class TestCompanionMatrix:
    def test_layout(self):
        c = dmd.companion_matrix([2.0, 3.0, 4.0])
        want = np.array([
            [0.0, 0.0, 2.0],
            [1.0, 0.0, 3.0],
            [0.0, 1.0, 4.0],
        ])
        assert_allclose(c, want)

    def test_eigenvalues_are_polynomial_roots(self):
        # last column (c0, c1) encodes z^2 = c1 z + c0; pick z^2 - 1
        c = dmd.companion_matrix([1.0, 0.0])
        assert_allclose(sorted(np.linalg.eigvals(c).real), [-1.0, 1.0], atol=1e-14)


class TestCompanionDmd:
    def test_geometric_sequence(self):
        d = np.array([[2.0 ** -i] for i in range(6)]).T  # row of 2^-i values
        d = np.array([[1.0, 0.5, 0.25], [0.5, 0.25, 0.125]])
        res = dmd.companion_dmd(d, k=1)
        assert_allclose(res.eigenvalues, [0.5], atol=1e-12)
        assert res.residual <= 1e-12
        assert res.algorithm == "companion"

    def test_cosine_two_step_recurrence(self):
        blk = rotation_block(m=16, n=2)
        res = dmd.companion_dmd(blk.H, k=2, dt=1.0)
        want = [np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)]
        assert_allclose(sorted_eigs(res.eigenvalues), sorted_eigs(want), atol=1e-10)
        assert res.residual <= 1e-10

    def test_rank_deficient_basis_raises(self):
        d = np.ones((4, 4))
        with pytest.raises(RankDeficiencyError) as exc:
            dmd.companion_dmd(d, k=3)
        msg = str(exc.value)
        assert "condition" in msg and "exact_dmd" in msg

    def test_needs_k_plus_one_columns(self):
        with pytest.raises(ValueError):
            dmd.companion_dmd(np.eye(3), k=3)

    def test_condition_number_recorded(self):
        blk = rotation_block(m=16, n=2)
        res = dmd.companion_dmd(blk.H, k=2)
        assert res.condition is not None and res.condition >= 1.0


class TestSvdDmd:
    def test_identity_pair(self):
        res = dmd.svd_dmd(np.eye(2), np.eye(2))
        assert_allclose(sorted_eigs(res.eigenvalues), [1.0, 1.0], atol=1e-14)
        assert_allclose(np.abs(res.modes[0, 0]), 1.0, atol=1e-12)

    def test_matches_companion_on_full_rank_data(self):
        blk = rotation_block(m=16, n=2)
        comp = dmd.companion_dmd(blk.H, k=2)
        via_svd = dmd.svd_dmd(blk.H[:, :2], blk.H[:, 1:3])
        assert_allclose(
            sorted_eigs(via_svd.eigenvalues), sorted_eigs(comp.eigenvalues), atol=1e-10
        )

    def test_zero_singular_value_raises(self):
        x = np.array([[1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(DecompositionError, match="exact_dmd"):
            dmd.svd_dmd(x, x)

    def test_diagonal_recovery(self):
        rng = np.random.default_rng(0)
        a0 = np.diag([0.9, 0.5, -0.2])
        x = rng.standard_normal((3, 5))
        res = dmd.svd_dmd(x, a0 @ x)
        assert_allclose(sorted_eigs(res.eigenvalues), [-0.2, 0.5, 0.9], atol=1e-10)


class TestExactDmd:
    def test_diagonal_recovery_and_mode_agreement(self):
        rng = np.random.default_rng(1)
        a0 = np.diag([0.9, 0.5, -0.2])
        x = rng.standard_normal((3, 5))
        res = dmd.exact_dmd(x, a0 @ x, svd_threshold=1e-12)
        assert_allclose(sorted_eigs(res.eigenvalues), [-0.2, 0.5, 0.9], atol=1e-10)
        # columns of Y live in the column space of X here, so the two mode
        # definitions coincide
        assert res.projected_modes is not None
        assert np.max(np.abs(res.modes - res.projected_modes)) <= 1e-8
        # each mode is an eigenvector of the diagonal generator
        for j, lam in enumerate(res.eigenvalues):
            v = res.modes[:, j]
            assert np.linalg.norm(a0 @ v - lam * v) <= 1e-8

    def test_duplicated_column_drops_rank_not_spectrum(self):
        rng = np.random.default_rng(2)
        a0 = np.diag([0.9, 0.5, -0.2])
        base = rng.standard_normal((3, 3))
        dup = base.copy()
        dup[:, 1] = dup[:, 0]
        full = dmd.exact_dmd(base[:, [0, 2]], (a0 @ base)[:, [0, 2]], svd_threshold=1e-10)
        res = dmd.exact_dmd(dup, a0 @ dup, svd_threshold=1e-10)
        assert res.rank_kept == 2 == full.rank_kept
        assert_allclose(
            sorted_eigs(res.eigenvalues), sorted_eigs(full.eigenvalues), atol=1e-8
        )

    def test_zero_eigenvalue_flagged(self):
        nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
        res = dmd.exact_dmd(np.eye(2), nilpotent, svd_threshold=1e-14)
        assert_allclose(res.eigenvalues, [0.0, 0.0], atol=1e-14)
        assert set(res.undefined_exact) == {0, 1}
        # flagged modes fall back to the projected definition
        assert_allclose(np.abs(res.modes), np.abs(res.projected_modes), atol=1e-12)

    def test_relative_threshold_is_scale_invariant(self):
        blk = rotation_block(m=32, n=8)
        base = dmd.exact_dmd(blk.H, blk.UH, svd_threshold=1e-10, threshold_mode="rel")
        for c in (1e-6, 1e6):
            scaled = dmd.exact_dmd(c * blk.H, c * blk.UH, svd_threshold=1e-10, threshold_mode="rel")
            assert scaled.rank_kept == base.rank_kept
            assert_allclose(
                sorted_eigs(scaled.eigenvalues), sorted_eigs(base.eigenvalues), atol=1e-10
            )

    def test_threshold_mode_semantics(self):
        x = np.diag([1.0, 1e-12])
        y = np.diag([0.5, 0.5e-12])
        rel = dmd.exact_dmd(x, y, svd_threshold=1e-10, threshold_mode="rel")
        assert rel.rank_kept == 1
        kept = dmd.exact_dmd(x, y, svd_threshold=1e-13, threshold_mode="abs")
        assert kept.rank_kept == 2
        dropped = dmd.exact_dmd(x, y, svd_threshold=1e-10, threshold_mode="abs")
        assert dropped.rank_kept == 1

    def test_all_below_threshold_raises(self):
        x = 1e-14 * np.eye(2)
        with pytest.raises(DecompositionError):
            dmd.exact_dmd(x, x, svd_threshold=1e-6, threshold_mode="abs")

    @pytest.mark.parametrize("kwargs", [
        {"threshold_mode": "rel"},
        {"threshold_mode": "abs", "svd_threshold": 0.0},
    ])
    def test_all_zero_data_raises_even_at_zero_cutoff(self, kwargs):
        x = np.zeros((6, 3))
        with pytest.raises(DecompositionError, match="below the threshold"):
            dmd.exact_dmd(x, x, **kwargs)

    def test_zero_cutoff_drops_exact_zero_singular_values(self):
        x = np.diag([1.0, 0.0])
        res = dmd.exact_dmd(x, 0.5 * x, svd_threshold=0.0, threshold_mode="abs")
        assert res.rank_kept == 1
        assert_allclose(res.eigenvalues, [0.5], atol=1e-14)

    def test_exact_modes_leave_the_data_range(self):
        # Y has components outside range(X), so the exact modes (eigenvectors
        # of the full-size operator Y V S^-1 W^T) differ from the projected
        # modes W w_j
        rng = np.random.default_rng(7)
        x = rng.standard_normal((6, 3))
        y = rng.standard_normal((6, 3))
        res = dmd.exact_dmd(x, y, svd_threshold=1e-12)
        w, s, vh = np.linalg.svd(x, full_matrices=False)
        a = y @ vh.T @ np.diag(1.0 / s) @ w.T
        assert res.rank_kept == 3 and res.undefined_exact == ()
        for j, lam in enumerate(res.eigenvalues):
            phi = res.modes[:, j]
            assert np.linalg.norm(a @ phi - lam * phi) <= 1e-10
            assert np.linalg.norm(phi - res.projected_modes[:, j]) > 1e-3

    def test_residual_tracks_discarded_energy(self):
        x = np.diag([1.0, 1e-12])
        res = dmd.exact_dmd(x, 0.5 * x, svd_threshold=1e-6, threshold_mode="rel")
        assert_allclose(res.residual, 1e-12, rtol=1e-6)

    @given(st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_conjugate_pair_property(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((4, 9))
        y = rng.standard_normal((4, 4)) @ x
        res = dmd.exact_dmd(x, y, svd_threshold=1e-12)
        vals = sorted_eigs(res.eigenvalues)
        assert_allclose(vals, sorted_eigs(np.conj(res.eigenvalues)), atol=1e-9)


class TestOneRankRule:
    """POD, DMD and pinv cut at sigma_j / sigma_0 > 1e-12 (strictly), and the
    companion and svd variants refuse what that rule calls rank deficient."""

    def test_boundary_value_is_dropped_everywhere(self):
        x = np.diag([1.0, 1e-12])
        y = 0.5 * x
        assert linalg.numerical_rank(linalg.svd(x).S) == 1
        block = embed.HankelBlock(H=x, UH=y, m=2, n=1, dt=1.0)
        assert pod.ergodic_pod(block).k == 1
        assert dmd.exact_dmd(x, y).rank_kept == 1
        assert dmd.hankel_dmd(embed.composite([block])).rank_kept == 1
        assert np.array_equal(linalg.pinv(x), np.diag([1.0, 0.0]))

    def test_rank_deficient_pair_is_refused_by_both(self):
        x = np.diag([1.0, 1e-13])
        with pytest.raises(RankDeficiencyError):
            dmd.companion_dmd(np.column_stack([x, [1.0, 1.0]]), k=2)
        with pytest.raises(DecompositionError, match="exact_dmd"):
            dmd.svd_dmd(x, 0.5 * x)

    @pytest.mark.parametrize("tol, absolute, want", [
        (1e-12, False, 2), (0.0, False, 3), (0.0, True, 3), (0.5, True, 1), (1.0, False, 0),
    ])
    def test_numerical_rank(self, tol, absolute, want):
        s = np.array([2.0, 0.5, 1e-300, 0.0])
        assert linalg.numerical_rank(s, tol, absolute) == want
        assert linalg.numerical_rank(0.0 * s, tol, absolute) == 0


class TestHankelDmd:
    def test_rotation_pair(self):
        blk = rotation_block(omega=0.1, m=64, n=8, dt=0.1)
        res = dmd.hankel_dmd(embed.composite([blk]), dt=0.1)
        assert res.rank_kept == 2
        want = [np.exp(-0.1j), np.exp(0.1j)]
        assert_allclose(sorted_eigs(res.eigenvalues), sorted_eigs(want), atol=1e-8)
        assert res.algorithm == "hankel"
        assert res.projected_modes is None
        assert res.modes.shape == (64, 2)

    def test_modes_are_unit_vectors(self):
        blk = rotation_block(m=32, n=8)
        res = dmd.hankel_dmd(embed.composite([blk]))
        assert_allclose(np.linalg.norm(res.modes, axis=0), 1.0, atol=1e-12)

    def test_measure_preserving_spectrum_on_torus(self):
        spec = systems.SystemSpec("torus", {"omega1": 0.97624, "omega2": 0.60892},
                                  (0.0, 0.0), 0.1, 700)
        traj = systems.integrate(spec)
        obs = systems.Observable("custom", expression="cos(z1) + 0.6*cos(z2)")
        blk = embed.hankel(systems.observe(traj, obs), m=600, n=100)
        res = dmd.hankel_dmd(embed.composite([blk]), dt=0.1)
        assert np.max(np.abs(np.abs(res.eigenvalues) - 1.0)) <= 1e-6

    def test_one_step_shift_residual(self):
        # an eigenfunction sample vector advances by its eigenvalue under the
        # single-sample shift
        blk = rotation_block(omega=0.1, m=64, n=8, dt=0.1)
        res = dmd.hankel_dmd(embed.composite([blk]), dt=0.1)
        for j, lam in enumerate(res.eigenvalues):
            chi = res.modes[:, j]
            gap = np.linalg.norm(chi[1:] - lam * chi[:-1]) / np.linalg.norm(chi)
            assert gap <= 1e-4

    def test_energy_ordering_puts_dominant_first(self):
        # amplitude 1 at +/-omega, amplitude 0.1 at +/-2 omega: the big pair
        # must come first, each pair ordered positive-frequency first
        m, n, dt, om = 128, 16, 1.0, 0.25
        k = np.arange(m + n + 1)
        vals = np.cos(om * k) + 0.1 * np.cos(2 * om * k)
        blk = embed.hankel(TimeSeries(vals, dt), m=m, n=n)
        res = dmd.hankel_dmd(embed.composite([blk]), dt=dt)
        phases = np.angle(res.eigenvalues[:4])
        assert_allclose(np.abs(phases), [om, om, 2 * om, 2 * om], atol=1e-8)
        assert phases[0] > 0 and phases[2] > 0  # positive member leads each pair

    def test_ordering_is_deterministic(self):
        blk = rotation_block(m=32, n=8)
        a = dmd.hankel_dmd(embed.composite([blk]))
        b = dmd.hankel_dmd(embed.composite([blk]))
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.modes, b.modes)

    def test_energy_lstsq_failure_is_decomposition_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

        monkeypatch.setattr(np.linalg, "lstsq", fail)
        with pytest.raises(DecompositionError, match="least squares"):
            dmd.hankel_dmd(embed.composite([rotation_block(m=32, n=8)]))

    def test_default_threshold_is_absolute(self):
        blk = rotation_block(m=32, n=8)
        res = dmd.hankel_dmd(embed.composite([blk]))
        assert res.rank_kept == 2  # cos data has exactly two directions


def lorenz_block(m=300, n=40):
    spec = systems.SystemSpec("lorenz", dict(systems.LORENZ_PARAMS),
                              systems.lorenz_initial_state(1), 0.01, 500 + m + n)
    traj = systems.transient_skip(systems.integrate(spec), 500)
    return embed.hankel(systems.observe(traj, systems.Observable("coordinate")), m=m, n=n)


class TestReducedCoordinates:
    def test_projected_modes_match_full_space_reference(self):
        # Ordering by W^T x0 = S V[0, :] and forming W e_j from normalized
        # e_j agrees with the full-space route: W @ E, unit columns, lstsq
        # against the first data column. Both routes take the projected
        # operator from the Hankel-coordinates W^T Y.
        data = embed.composite([lorenz_block()])
        w, s, v, _ = dmd._truncated_svd(data.X, linalg.DEFAULT_RANK_TOL, "rel")
        vals, vecs = dmd._core(dmd._hankel_wty(data, w, s, v), s, v)
        ref = dmd._unit_columns(w.astype(complex) @ vecs)
        order = dmd._energy_order(vals, ref, data.X[:, 0])
        # The old cut keeps the many modes this comparison is about (14 at
        # the default).
        res = dmd.hankel_dmd(data, svd_threshold=linalg.DEFAULT_RANK_TOL)
        assert res.rank_kept > 20
        assert np.array_equal(res.eigenvalues, vals[order])
        assert np.max(np.abs(res.modes - ref[:, order])) <= 1e-13
        assert_allclose(np.linalg.norm(res.modes, axis=0), 1.0, atol=1e-13)

    def test_given_factors_are_used(self):
        data = embed.composite([lorenz_block()])
        factors = linalg.svd(data.X)
        for a, b in [(dmd.hankel_dmd(data), dmd.hankel_dmd(data, factors=factors)),
                     (dmd.exact_dmd(data.X, data.Y), dmd.exact_dmd(data.X, data.Y, factors=factors))]:
            assert np.array_equal(a.eigenvalues, b.eigenvalues)
            assert np.array_equal(a.modes, b.modes)
        x, y = data.X[:40, :8], data.Y[:40, :8]
        assert np.array_equal(dmd.svd_dmd(x, y).modes,
                              dmd.svd_dmd(x, y, factors=linalg.svd(x)).modes)

    def test_mismatched_factors_raise(self):
        data = embed.composite([lorenz_block()])
        wrong = linalg.svd(data.X[:, :-1])
        with pytest.raises(ValueError, match="factors"):
            dmd.hankel_dmd(data, factors=wrong)
        with pytest.raises(ValueError, match="factors"):
            dmd.exact_dmd(data.X, data.Y, factors=wrong)
        with pytest.raises(ValueError, match="factors"):
            dmd.svd_dmd(data.X[:, :8], data.Y[:, :8], factors=wrong)


class TestConjugatePairEnergy:
    def test_pair_members_share_the_larger_energy(self):
        # The negative member carries 1e-10 more energy; shared energy puts
        # the positive member first.
        lam = np.exp(0.3j)
        vals = np.array([np.conj(lam), lam, 0.5])
        modes = np.eye(3, dtype=complex)
        x0 = np.array([1.0 + 1e-10, 1.0, 0.1])
        order = dmd._energy_order(vals, modes, x0)
        assert list(order) == [1, 0, 2]

    def test_repeated_pairs_are_paired_in_sequence(self):
        lam = np.exp(0.3j)
        vals = np.array([lam, np.conj(lam), lam, np.conj(lam)])
        x0 = np.array([1.0, 1.0 + 1e-10, 2.0, 2.0 - 1e-10])
        order = dmd._energy_order(vals, np.eye(4, dtype=complex), x0)
        assert list(order) == [2, 3, 0, 1]

    def test_energies_are_compared_exactly(self):
        # 1 + 1e-13 and 1 differ beyond twelve digits; the higher energy
        # still leads, although its modulus is the smaller one.
        vals = np.array([0.5, 0.9])
        order = dmd._energy_order(vals, np.eye(2, dtype=complex), np.array([1.0 + 1e-13, 1.0]))
        assert list(order) == [0, 1]


def csv_ingest_composite(n=150):
    """perfbench's csv-ingest input at seed 0 (workloads.py's
    write_quasiperiodic_csv and CsvIngest), built in memory: three
    observables of 200000 samples on a two-frequency torus, every 20th
    sample, three 4000 x (n + 1) Hankel blocks scaled to the first."""
    rng = np.random.default_rng(0)
    p1, p2 = rng.uniform(0.0, 2.0 * np.pi, 2)
    a = rng.uniform(0.5, 1.5, 6)
    t = np.arange(200_000) * 0.01
    th1, th2 = p1 + 0.97624 * t, p2 + 0.60892 * t
    columns = [a[0] * np.cos(th1) + a[1] * np.cos(th2),
               a[2] * np.sin(th1 - th2) + a[3] * np.cos(th1),
               a[4] * np.cos(th1 + th2) + a[5] * np.sin(2.0 * th1)]
    blocks = [embed.hankel(TimeSeries(c[::20], 0.2), m=4000, n=n) for c in columns]
    return embed.composite(blocks, [1.0] + [embed.scale_factor(b, blocks[0]) for b in blocks[1:]])


class TestCompositeEnergy:
    """hankel_dmd, exact_dmd and svd_dmd rank modes by their energy in the
    first column of every block, not of block 1 alone."""

    @staticmethod
    def assert_ranked_by_every_block(res, data):
        starts = [lo for lo, _ in data.block_offsets]
        coeffs, *_ = np.linalg.lstsq(res.modes, data.X[:, starts].astype(complex), rcond=None)
        energy = np.hypot.reduce(np.abs(coeffs), axis=1)
        assert energy.min() > 0.1 * energy.max()
        assert np.all(energy[1:] <= energy[:-1] * (1 + 1e-9))

    def test_no_mode_has_roundoff_energy(self):
        # Ranked by block 1's first column, 6 of these 10 modes had energies
        # of 1.2e-14 to 6.0e-13: the modes of blocks 2 and 3 only. Over all
        # three first columns the least is 16.3 and the largest 116.7.
        data = csv_ingest_composite()
        res = dmd.hankel_dmd(data, svd_threshold=1e-10)
        assert res.rank_kept == 10
        self.assert_ranked_by_every_block(res, data)

    def test_exact_ranks_by_every_block(self):
        # Ranked by block 1's first column, roundoff ordered the same 6
        # modes: the 0.3673 pair came third, not second.
        data = csv_ingest_composite()
        starts = tuple(lo for lo, _ in data.block_offsets)
        res = dmd.exact_dmd(data.X, data.Y, svd_threshold=1e-10, starts=starts)
        assert res.rank_kept == 10
        self.assert_ranked_by_every_block(res, data)
        assert_allclose(res.eigenvalues, dmd.hankel_dmd(data, svd_threshold=1e-10).eigenvalues,
                        rtol=0, atol=1e-9)

    def test_svd_ranks_by_every_block(self):
        # Two columns a block, so X has full rank; block 1's first column
        # alone put the 0.4975 pair before the 1.7971 one.
        data = csv_ingest_composite(n=1)
        starts = tuple(lo for lo, _ in data.block_offsets)
        res = dmd.svd_dmd(data.X, data.Y, starts=starts)
        assert res.rank_kept == 6
        self.assert_ranked_by_every_block(res, data)
        assert_allclose(res.eigenvalues, dmd.hankel_dmd(data).eigenvalues, rtol=0, atol=1e-9)

    def test_a_lone_block_keeps_its_order(self):
        # One first column as a k x 1 matrix gives the bits of the vector.
        data = embed.composite([lorenz_block()])
        w, s, v, _ = dmd._truncated_svd(data.X, linalg.TRUNCATION_TOL, "rel")
        vals, vecs = dmd._core(dmd._hankel_wty(data, w, s, v), s, v)
        order = dmd._energy_order(vals, vecs, s * v[0])
        assert np.array_equal(dmd.hankel_dmd(data).eigenvalues, vals[order])
        assert np.array_equal(dmd._energy_order(vals, vecs, (s * v[0])[:, None]), order)


def adjacent_pairs(vals):
    """Indices j whose eigenvalue at j + 1 is its conjugate, left to right."""
    return np.flatnonzero(dmd._conjugate_pairs(vals)) - 1


def recipe_data(name):
    """A recipe's config, Hankel blocks and composite pair."""
    cfg = cli.load_config(name)
    series, _, _ = cli._build_series(cfg)
    blocks = [embed.hankel(s, cfg.embedding.m, cfg.embedding.n) for s in series]
    scales = [1.0] + [embed.scale_factor(b, blocks[0]) for b in blocks[1:]]
    return cfg, blocks, embed.composite(blocks, scales)


def recipe_decomposition(name):
    """The decomposition a recipe run writes to modes.npy, without the files."""
    return cli._run_decomposition(*recipe_data(name))


def torus_composite():
    """Three observables of one torus trajectory, scaled to the first: a
    composite of three 400 x 61 blocks."""
    spec = systems.SystemSpec("torus", {"omega1": 0.97624, "omega2": 0.60892},
                              (0.3, 1.1), 0.1, 700)
    traj = systems.integrate(spec)
    blocks = [embed.hankel(systems.observe(traj, systems.Observable("custom", expression=e)),
                           m=400, n=60)
              for e in ("cos(z1)", "3*sin(z2)", "cos(z1) + 0.6*cos(z2) + 0.3*cos(z1 - z2)")]
    return embed.composite(blocks, [1.0] + [embed.scale_factor(b, blocks[0]) for b in blocks[1:]])


def eigenpair_residuals(data, s, v, vals, vecs):
    """||Y g_j - lambda_j X g_j|| / ||X g_j|| for g_j = V S^-1 e_j, on copies
    of X and Y."""
    g = (v / s) @ vecs
    x, y = np.ascontiguousarray(data.X), np.ascontiguousarray(data.Y)
    xg = x @ g.real + 1j * (x @ g.imag)
    yg = y @ g.real + 1j * (y @ g.imag)
    return np.linalg.norm(yg - vals * xg, axis=0) / np.linalg.norm(xg, axis=0)


class TestHankelCoordinates:
    """hankel_dmd takes W^T Y from S V^T plus one column per block; the
    direct product W^T Y gives the same spectrum and residuals, up to a
    gap that grows like eps * sigma_0 / sigma_k."""

    # name: (largest eigenvalue gap, largest relative gap between the
    # sorted residuals, or None where every residual must be <= 1e-12), at
    # the default cut. Measured at one and two BLAS threads: eigenvalues
    # 2.1e-15, 2.5e-10 to 3.5e-10 (vdp-phase), 1.4e-15, 3.6e-10 to 4.9e-10
    # (lorenz-pod) and 1.1e-15; sorted residuals up to 4.5e-9 (vdp-phase)
    # and 9.4e-8 (lorenz-pod) apart. The vdp and lorenz bounds are ten
    # times the largest of these, or more. At the old cut of 1e-12 the
    # eigenvalues moved by up to 1.0e-6 and 4.9e-6.
    BOUNDS = {
        "rotation-check": (1e-12, None),
        "vdp-phase": (5e-9, 1e-7),
        "torus-synth": (1e-12, None),
        "lorenz-pod": (5e-9, 1e-6),
        "torus-composite": (1e-12, None),
    }

    @pytest.mark.parametrize("name", list(BOUNDS))
    def test_both_routes_agree(self, name):
        data = torus_composite() if name == "torus-composite" else recipe_data(name)[2]
        w, s, v, _ = dmd._truncated_svd(data.X, linalg.TRUNCATION_TOL, "rel")
        direct = dmd._core(w.T @ np.ascontiguousarray(data.Y), s, v)
        hankel = dmd._core(dmd._hankel_wty(data, w, s, v), s, v)
        eig_bound, residual_bound = self.BOUNDS[name]
        assert max(np.min(np.abs(direct[0] - lam)) for lam in hankel[0]) <= eig_bound
        rd, rh = (np.sort(eigenpair_residuals(data, s, v, *route)) for route in (direct, hankel))
        if residual_bound is None:
            assert rd.max() <= 1e-12 and rh.max() <= 1e-12
        else:
            assert np.max(np.abs(rh - rd) / rd) <= residual_bound
            assert np.count_nonzero(rh < 1e-4) == np.count_nonzero(rd < 1e-4)

    @pytest.mark.parametrize("name", ["rotation-check", "vdp-phase", "torus-synth",
                                      "lorenz-pod"])
    def test_forward_error_bounds_the_gap(self, name):
        # The relative Frobenius gap between the two routes' operators is at
        # most 10 eps sigma_0 / sigma_k, the estimate that
        # DmdResult.forward_error and run.json report. Measured gap / estimate: 8.5 (rotation-check,
        # where both are at roundoff), 1.3 (torus-synth), 0.089 (vdp-phase
        # and lorenz-pod); so the bare estimate does not bound the gap at
        # roundoff level, and c = 10 does.
        data = recipe_data(name)[2]
        w, s, v, _ = dmd._truncated_svd(data.X, linalg.TRUNCATION_TOL, "rel")
        direct = (w.T @ np.ascontiguousarray(data.Y) @ v) / s
        hankel = (dmd._hankel_wty(data, w, s, v) @ v) / s
        estimate = dmd.hankel_dmd(data).forward_error
        assert estimate == np.finfo(float).eps * s[0] / s[-1]
        assert np.linalg.norm(hankel - direct) / np.linalg.norm(direct) <= 10 * estimate
        assert estimate < np.finfo(float).eps / linalg.TRUNCATION_TOL

    def test_vdp_certified_eigenvalues_hold_across_the_cut(self):
        # The eigenvalues certified by a residual below 1e-4 at the default
        # cut (54 triplets) and at DEFAULT_RANK_TOL (81): 4 at each cut,
        # each 7.49e-6 from its partner at most, at one and at two BLAS
        # threads (the two agree to 1e-15). The bound, 2e-5, is 2.7 times
        # that: room for the 1e-6 that a roundoff change moves them at the
        # old cut, where Ã holds about four digits.
        data = recipe_data("vdp-phase")[2]
        certified = []
        for tol in (linalg.TRUNCATION_TOL, linalg.DEFAULT_RANK_TOL):
            w, s, v, _ = dmd._truncated_svd(data.X, tol, "rel")
            vals, vecs = dmd._core(dmd._hankel_wty(data, w, s, v), s, v)
            certified.append(vals[eigenpair_residuals(data, s, v, vals, vecs) < 1e-4])
        new, old = certified
        assert new.size == old.size == 4
        gaps = np.abs(new[:, None] - old[None, :])
        partner = np.argmin(gaps, axis=1)
        assert sorted(partner) == list(range(old.size))
        assert gaps[np.arange(new.size), partner].max() <= 2e-5


def orthonormal(m, k, seed=0):
    return np.linalg.qr(np.random.default_rng(seed).standard_normal((m, k)))[0]


def conjugate_vectors(k, seed):
    """Reduced unit vectors a + ib and a - ib."""
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    e /= np.linalg.norm(e)
    return e, np.conj(e)


class TestPairedModes:
    """Projected modes are formed from the lead column of each conjugate
    pair; the second member is its exact conjugate."""

    @pytest.mark.parametrize("name", ["rotation-check", "vdp-phase", "torus-synth",
                                      "lorenz-pod"])
    def test_recipe_pairs_are_exact_conjugates(self, name):
        res = recipe_decomposition(name)
        leads = adjacent_pairs(res.eigenvalues)
        assert leads.size >= 1
        for j in leads:
            assert np.array_equal(res.modes[:, j + 1], np.conj(res.modes[:, j])), j

    def test_suite_pairs_are_exact_conjugates(self):
        pairs = 0
        for seed in range(20):
            d = systems.integrate(systems.seeded_linear_system(seed, dim=4)).states.T
            x, y = d[:, :4], d[:, 1:5]
            exact = dmd.exact_dmd(x, y, svd_threshold=1e-12, threshold_mode="rel")
            svd = dmd.svd_dmd(x, y)
            for vals, modes in [(exact.eigenvalues, exact.projected_modes),
                                (svd.eigenvalues, svd.modes)]:
                for j in adjacent_pairs(vals):
                    assert np.array_equal(modes[:, j + 1], np.conj(modes[:, j]))
                    pairs += 1
        assert pairs >= 20

    def assert_direct(self, w, vals, vecs, paired):
        modes = dmd._projected_modes(w, vals, vecs)
        direct = dmd._unit_columns(w.astype(complex) @ vecs)
        assert np.all(np.max(np.abs(modes - direct), axis=0) <= 1e-15)
        assert list(adjacent_pairs(vals)) == paired
        for j in paired:
            assert np.array_equal(modes[:, j + 1], np.conj(modes[:, j]))

    def test_all_real_spectrum(self):
        a = np.random.default_rng(1).standard_normal((6, 6))
        er = linalg.eig(a + a.T)
        assert er.eigenvalues.dtype == float
        self.assert_direct(orthonormal(50, 6), er.eigenvalues, er.eigenvectors, [])

    def test_one_mode(self):
        self.assert_direct(orthonormal(50, 1), np.array([0.5]), np.array([[-1.0]]), [])

    def test_lone_real_mode_between_pairs(self):
        k = 5
        e1, f1 = conjugate_vectors(k, 2)
        e2, f2 = conjugate_vectors(k, 3)
        real = np.random.default_rng(4).standard_normal(k)
        lam, mu = 0.9 * np.exp(0.4j), 0.8 * np.exp(1.1j)
        vals = np.array([lam, np.conj(lam), 0.7, mu, np.conj(mu)])
        vecs = np.stack([e1, f1, real / np.linalg.norm(real), e2, f2], axis=1)
        self.assert_direct(orthonormal(40, k), vals, vecs, [0, 3])

    def test_conjugates_split_by_the_phase_key(self):
        # Equal energies and moduli (exactly 5): ascending phase lists lam,
        # mu, conj(mu), conj(lam), so lam's pair is not adjacent and both its
        # members are formed as leads.
        e1, f1 = conjugate_vectors(4, 5)
        e2, f2 = conjugate_vectors(4, 6)
        lam, mu = 4 + 3j, 3 + 4j
        vals = np.array([lam, np.conj(lam), mu, np.conj(mu)])
        vecs = np.stack([e1, f1, e2, f2], axis=1)
        order = dmd._energy_order(vals, vecs, np.zeros(4))
        assert list(order) == [0, 2, 3, 1]
        self.assert_direct(orthonormal(30, 4), vals[order], vecs[:, order], [1])

    def test_bits_do_not_depend_on_the_threads(self, monkeypatch):
        # Three blocks of rows, two formed at a time: run inline, each block
        # gets the bits it gets on the worker thread, there with the threads
        # switching as often as they can.
        w = orthonormal(3000, 40)
        er = linalg.eig(np.random.default_rng(8).standard_normal((40, 40)))
        assert len(ioutil.row_blocks(3000)) == 3
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = dmd._projected_modes(w, er.eigenvalues, er.eigenvectors)
        finally:
            sys.setswitchinterval(interval)
        monkeypatch.setattr(dmd, "ThreadPoolExecutor", InlinePool)
        assert np.array_equal(dmd._projected_modes(w, er.eigenvalues, er.eigenvectors), pooled)

    def test_no_mode_sized_temporary(self):
        m, k = 20000, 60
        w = orthonormal(m, k)
        er = linalg.eig(np.random.default_rng(7).standard_normal((k, k)))
        tracemalloc.start()
        try:
            modes = dmd._projected_modes(w, er.eigenvalues, er.eigenvectors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * modes.nbytes

    def test_peak_rss_holds_one_mode_array(self):
        # tracemalloc does not see every temporary (a product written into a
        # strided view such as modes.real makes numpy take a mode-sized
        # buffer it misses), so also watch the peak RSS of a forked child of
        # a fresh process around the call. One BLAS thread: a second
        # thread's first call touches buffers of its own.
        script = """
import resource, sys
import numpy as np
from koopdmd import dmd, linalg
m, k = 10000, 300
w = np.random.default_rng(0).standard_normal((m, k))
w /= np.sqrt(m)
er = linalg.eig(np.random.default_rng(7).standard_normal((k, k)))
unit = 1 if sys.platform == "darwin" else 1024
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
modes = dmd._projected_modes(w, er.eigenvalues, er.eigenvectors)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print((after - before) * unit / modes.nbytes)
"""
        assert float(run_fresh(script, forked=True)) <= 1.25


def test_a_complex_to_real_cast_fails_the_suite():
    # pyproject.toml makes RuntimeWarning an error, and numpy's
    # ComplexWarning with it: a cast that drops the imaginary parts of
    # modes or eigenvalues cannot pass silently.
    complex_warning = getattr(np, "exceptions", np).ComplexWarning
    with pytest.raises(complex_warning):
        np.array([1j]).astype(float)


def test_decompositions_leave_shared_inputs_alone():
    # composite hands a lone block's H and UH, read-only views of the
    # series, to POD and DMD without a copy.
    blk = rotation_block(m=32, n=8)
    data = embed.composite([blk])
    X, Y = data.X, data.Y
    pod.ergodic_pod(blk)
    dmd.hankel_dmd(data)
    dmd.exact_dmd(X, Y)
    dmd.svd_dmd(X[:, :2], Y[:, :2])
    dmd.companion_dmd(X, 2)


@pytest.mark.parametrize("name", dmd.ALGORITHMS)
def test_a_block_view_gives_the_bits_of_its_copy(name):
    # H and UH overlap in memory, and numpy takes another loop for a
    # matrix-vector product that BLAS cannot take; no algorithm may see it.
    blk = lorenz_block(m=2000, n=8)
    copy = replace(blk, H=np.ascontiguousarray(blk.H), UH=np.ascontiguousarray(blk.UH))
    results = []
    for b in (blk, copy):
        if name == "companion":
            results.append(dmd.companion_dmd(b.H, k=b.n))
        elif name == "hankel":
            results.append(dmd.hankel_dmd(embed.composite([b])))
        else:
            algorithm = dmd.svd_dmd if name == "svd" else dmd.exact_dmd
            results.append(algorithm(b.H, b.UH))
    view, want = results
    assert np.array_equal(view.eigenvalues, want.eigenvalues)
    assert np.array_equal(view.modes, want.modes)
    assert view.residual == want.residual


class TestLinearConsistency:
    def test_consistent_with_nontrivial_null_space(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 5))  # wide: genuine 2-dim null space
        a = rng.standard_normal((3, 3))
        rep = dmd.check_linear_consistency(x, a @ x)
        assert rep.consistent
        assert rep.null_dim == 2
        assert rep.max_violation <= rep.threshold

    def test_full_column_rank_is_vacuously_consistent(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 3))
        rep = dmd.check_linear_consistency(x, rng.standard_normal((6, 3)))
        assert rep.consistent and rep.null_dim == 0

    def test_tall_pair_forms_no_square_left_basis(self):
        # A tall X has no null direction beyond its singular values, so the
        # check needs no m x m U (288 MB at m = 6000). Watched in a forked
        # child of a fresh process, whose peak RSS is the check's own.
        script = """
import resource, sys
import numpy as np
from koopdmd import dmd
x = np.random.default_rng(3).standard_normal((6000, 4))
x[:, 3] = x[:, 0]
y = 3.0 * x  # Y = A X with A = 3 I
dmd.check_linear_consistency(x[:50], y[:50])
unit = 1 if sys.platform == "darwin" else 1024
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
rep = dmd.check_linear_consistency(x, y)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(rep.consistent, rep.null_dim, (after - before) * unit)
"""
        consistent, null_dim, grown = run_fresh(script, forked=True).split()
        assert consistent == "True" and null_dim == "1"
        assert int(grown) <= 16 << 20

    def test_corrupted_pair_detected(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 5))
        x[:, 3] = x[:, 0]  # duplicate input column...
        y = rng.standard_normal((4, 4)) @ x
        y[:, 3] = rng.standard_normal(4)  # ...with an inconsistent image
        rep = dmd.check_linear_consistency(x, y)
        assert not rep.consistent
        assert rep.null_dim >= 1
        assert rep.max_violation > rep.threshold


class TestSerialization:
    def test_result_dict_fields(self):
        blk = rotation_block(omega=0.1, m=64, n=8, dt=0.1)
        res = dmd.hankel_dmd(embed.composite([blk]), dt=0.1)
        d = dmd.result_to_dict(res)
        assert d["algorithm"] == "hankel"
        assert d["dt"] == 0.1
        assert d["rank_kept"] == 2
        eigs = d["eigenvalues"]
        assert len(eigs) == 2
        got = sorted(e["freq_rad_per_s"] for e in eigs)
        assert_allclose(got, [-1.0, 1.0], atol=1e-8)
        assert_allclose([e["modulus"] for e in eigs], 1.0, atol=1e-8)

    def test_zero_eigenvalue_serializes_null_frequency(self):
        res = dmd.exact_dmd(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]), svd_threshold=1e-14)
        d = dmd.result_to_dict(res)
        assert all(e["freq_rad_per_s"] is None for e in d["eigenvalues"])

    def test_json_and_csv_round_trip(self, tmp_path):
        blk = rotation_block(m=32, n=8)
        res = dmd.hankel_dmd(embed.composite([blk]))
        jpath = tmp_path / "dmd.json"
        npath = tmp_path / "modes.npy"
        dmd.write_result_json(res, jpath)
        dmd.write_modes_csv(res, npath)
        loaded = json.loads(jpath.read_text())
        back = np.array([complex(e["re"], e["im"]) for e in loaded["eigenvalues"]])
        assert_allclose(back, res.eigenvalues, atol=1e-15)
        table = np.load(npath)
        assert table.shape == (32, 2) and table.dtype == np.complex128
        assert np.array_equal(table, res.modes)
