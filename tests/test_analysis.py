import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose

from koopdmd import analysis, dmd, embed, systems


class TestEigToFreq:
    def test_unit_rotation(self):
        assert_allclose(analysis.eig_to_freq(cmath.exp(0.1j), 0.1), 1.0, atol=1e-12)

    def test_negative_real_axis(self):
        assert_allclose(analysis.eig_to_freq(-1.0 + 0.0j, 1.0), math.pi, atol=1e-15)

    def test_trivial_eigenvalue(self):
        assert analysis.eig_to_freq(1.0 + 0.0j, 0.5) == 0.0

    def test_tabulated_frequency(self):
        lam = cmath.exp(1j * 1.00421 * 0.1)
        assert_allclose(analysis.eig_to_freq(lam, 0.1), 1.00421, atol=1e-12)

    def test_modulus_is_ignored(self):
        # only the argument carries frequency information
        assert_allclose(analysis.eig_to_freq(2.0 * cmath.exp(0.3j), 1.0), 0.3, atol=1e-14)

    def test_rejects_zero_and_bad_dt(self):
        with pytest.raises(ValueError):
            analysis.eig_to_freq(0.0 + 0.0j, 0.1)
        with pytest.raises(ValueError):
            analysis.eig_to_freq(1.0 + 0.0j, 0.0)

    @given(st.floats(-0.99, 0.99), st.floats(0.01, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, frac, dt):
        omega = frac * math.pi / dt
        lam = cmath.exp(1j * omega * dt)
        assert_allclose(analysis.eig_to_freq(lam, dt), omega, atol=1e-9 / dt)


class TestMatchLattice:
    BASICS = (0.97624, 0.60892)

    def test_difference_combination(self):
        m = analysis.match_lattice(0.36732, self.BASICS, K=5)
        assert m.k == (1, -1)
        assert_allclose(m.lattice_value, 0.36732, atol=1e-10)
        assert m.relative_error <= 1e-9

    def test_sum_combination(self):
        m = analysis.match_lattice(1.58516, self.BASICS, K=5)
        assert m.k == (1, 1)
        assert m.relative_error <= 1e-9

    def test_zero_frequency(self):
        m = analysis.match_lattice(0.0, self.BASICS, K=3)
        assert m.k == (0, 0)
        assert m.relative_error == 0.0
        assert m.lattice_value == 0.0

    def test_tie_prefers_smaller_k(self):
        # 0.5 sits exactly between k=0 and k=1 on a unit lattice
        m = analysis.match_lattice(0.5, (1.0,), K=4)
        assert m.k == (0,)

    def test_tie_breaks_lexicographically_after_norm(self):
        # both (1, 0) and (-1, 1) hit 0.5 exactly; the 1-norm rules
        m = analysis.match_lattice(0.5, (0.5, 1.0), K=3)
        assert m.k == (1, 0)

    def test_search_box_is_respected(self):
        m = analysis.match_lattice(7.0, (1.0,), K=6)
        assert m.k == (6,)
        assert m.relative_error > 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            analysis.match_lattice(1.0, (), K=3)
        with pytest.raises(ValueError):
            analysis.match_lattice(1.0, (1.0,), K=-1)
        with pytest.raises(ValueError):
            analysis.match_lattice(math.nan, (1.0,), K=3)

    def test_zero_search_box_only_matches_origin(self):
        m = analysis.match_lattice(0.9, (1.0,), K=0)
        assert m.k == (0,)

    @given(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
        st.floats(1e-3, 1e3),
        st.floats(-1e-6, 1e-6),
    )
    @settings(max_examples=60, deadline=None)
    def test_scale_consistency_property(self, k0, scale, jitter):
        assume(k0 != (0, 0))  # near the origin the error floor is absolute
        basics = (0.97624, 0.60892)
        omega = k0[0] * basics[0] + k0[1] * basics[1] + jitter
        a = analysis.match_lattice(omega, basics, K=4)
        b = analysis.match_lattice(scale * omega, tuple(scale * x for x in basics), K=4)
        assert a.k == b.k
        assert_allclose(b.lattice_value, scale * a.lattice_value, rtol=1e-9)
        assert_allclose(b.relative_error, a.relative_error, rtol=1e-6, atol=1e-12)


class TestEigenfunctionError:
    def test_identical_vectors(self):
        x = np.exp(1j * np.linspace(0.0, 4.0, 50))
        err = analysis.eigenfunction_error(x, x)
        assert err.variance <= 1e-28
        assert_allclose(abs(err.phase_alignment), 1.0, atol=1e-12)

    @given(st.integers(0, 200), st.floats(0.0, 2 * math.pi), st.floats(0.1, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_phase_and_scale_invariance(self, seed, alpha, scale):
        rng = np.random.default_rng(seed)
        ref = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        rotated = scale * np.exp(1j * alpha) * ref
        err = analysis.eigenfunction_error(rotated, ref)
        assert err.variance <= 1e-20

    def test_orthogonal_vectors_have_full_variance(self):
        m = 64
        x = np.exp(2j * np.pi * np.arange(m) / m)
        y = np.ones(m, dtype=complex)
        err = analysis.eigenfunction_error(x, y)
        assert_allclose(err.variance, 2.0, atol=1e-12)

    def test_rotation_samples_match_analytic_eigenfunction(self):
        # chi(theta) = e^{i theta} sampled along the orbit versus the
        # computed dominant mode of the cosine observable
        m, n, dt = 2000, 8, 1.0
        spec = systems.SystemSpec("circle", {"omega": np.pi / 4}, (0.0,), dt, m + n)
        traj = systems.integrate(spec)
        blk = embed.hankel(systems.observe(traj, systems.Observable("cos_angle")), m=m, n=n)
        res = dmd.hankel_dmd(embed.composite([blk]), dt=dt)
        analytic = np.exp(1j * traj.states[:m, 0])
        j = int(np.argmin(np.abs(res.eigenvalues - np.exp(1j * np.pi / 4))))
        err = analysis.eigenfunction_error(res.modes[:, j], analytic)
        assert err.variance < 1e-6

    def test_rejects_zero_or_mismatched(self):
        x = np.ones(4, dtype=complex)
        with pytest.raises(ValueError):
            analysis.eigenfunction_error(x, np.zeros(4, dtype=complex))
        with pytest.raises(ValueError):
            analysis.eigenfunction_error(x, np.ones(5, dtype=complex))


class TestPhaseAndDimension:
    def test_asymptotic_phase_advance(self):
        chi = np.exp(1j * 0.0995 * np.arange(200))
        ph = analysis.asymptotic_phase(chi)
        assert np.all((ph >= 0.0) & (ph < 2 * np.pi))
        adv = np.diff(ph) % (2 * np.pi)
        assert_allclose(adv, 0.0995, atol=1e-10)

    def test_zero_samples_give_nan(self):
        chi = np.array([1.0 + 0.0j, 0.0 + 0.0j, 1.0j])
        ph = analysis.asymptotic_phase(chi)
        assert np.isnan(ph[1])
        assert_allclose(ph[[0, 2]], [0.0, np.pi / 2], atol=1e-12)

    def test_effective_dimension(self):
        s = np.array([3.0, 2.0, 1e-12])
        assert analysis.effective_dimension(s, 1e-8) == 2
        assert analysis.effective_dimension(s, 2.0) == 2  # threshold is inclusive
        assert analysis.effective_dimension(s, 10.0) == 0

    def test_effective_dimension_requires_descending(self):
        with pytest.raises(ValueError):
            analysis.effective_dimension(np.array([1.0, 2.0]), 0.5)

    def test_dominant_nontrivial(self):
        vals = np.array([1.0 + 0.0j, np.exp(0.5j), np.exp(1.2j)])
        assert analysis.dominant_nontrivial(vals, dt=1.0) == 1

    def test_dominant_nontrivial_skips_zero_and_dc(self):
        vals = np.array([0.0 + 0.0j, 1.0 + 0.0j, np.exp(0.3j)])
        assert analysis.dominant_nontrivial(vals, dt=1.0) == 2

    def test_dominant_nontrivial_includes_its_bound(self):
        # At dt = 1, exp(0.01i) has eig_to_freq exactly MIN_NONTRIVIAL_OMEGA.
        lam = np.exp(1j * analysis.MIN_NONTRIVIAL_OMEGA)
        assert analysis.eig_to_freq(lam, 1.0) == analysis.MIN_NONTRIVIAL_OMEGA
        assert analysis.dominant_nontrivial([1.0, lam, np.conj(lam)], 1.0) == 1

    def test_dominant_nontrivial_all_trivial(self):
        vals = np.array([1.0 + 0.0j, np.exp(1e-5j)])
        assert analysis.dominant_nontrivial(vals, dt=1.0) is None


class TestLatticeEigenfunction:
    def test_values(self):
        angles = np.array([[0.0, 0.0], [np.pi / 2, 0.0], [0.0, np.pi / 2]])
        chi = analysis.lattice_eigenfunction(angles, (1, -1))
        assert_allclose(chi, [1.0, 1.0j, -1.0j], atol=1e-15)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            analysis.lattice_eigenfunction(np.zeros((3, 2)), (1,))


class TestFrequencyTable:
    def test_rows_and_blanks(self, tmp_path):
        rows = [
            {"k": (1, -1), "omega_computed": 0.36732, "omega_lattice": 0.36732,
             "relative_error": 3.2e-16, "eigfun_variance": 1.5e-7},
            {"k": (1, 0), "omega_computed": 0.97624, "omega_lattice": 0.97624,
             "relative_error": 0.0, "eigfun_variance": None},
        ]
        path = tmp_path / "freq.csv"
        analysis.write_frequency_table(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,omega_computed,omega_lattice,relative_error,eigfun_variance"
        assert lines[1].startswith('"(1,-1)",0.36731999999')
        assert lines[2].endswith(",")  # no variance recorded
