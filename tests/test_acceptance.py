"""End-to-end acceptance checks.

Each test exercises one shipped guarantee at its stated tolerance and prints a
single PASS/FAIL line (through pytest's capture) before asserting, so a plain
`pytest -v` run shows the whole scorecard.
"""

import time

import numpy as np
import pytest

from koopdmd import analysis, cli, dmd, embed, linalg, systems


def _report(capsys, num: int, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"acceptance {num} ({name}): {detail}"


def _timed_recipe(name: str, out_dir, **config_edits):
    raw = cli.recipe_config(name)
    raw["output_dir"] = str(out_dir)
    for path, value in config_edits.items():
        section, key = path.split(".")
        raw[section][key] = value
    cfg = cli.parse_config(raw, recipe=name)
    t0 = time.perf_counter()
    result = cli.execute(cfg)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def rotation_run(tmp_path_factory):
    return _timed_recipe("rotation-check", tmp_path_factory.mktemp("rot"))


@pytest.fixture(scope="module")
def vdp_run(tmp_path_factory):
    return _timed_recipe("vdp-phase", tmp_path_factory.mktemp("vdp"))


@pytest.fixture(scope="module")
def torus_run(tmp_path_factory):
    return _timed_recipe("torus-synth", tmp_path_factory.mktemp("torus"))


@pytest.fixture(scope="module")
def lorenz_runs(tmp_path_factory):
    t0 = time.perf_counter()
    small = _timed_recipe("lorenz-pod", tmp_path_factory.mktemp("lz1"))[0]
    big = _timed_recipe(
        "lorenz-pod", tmp_path_factory.mktemp("lz2"),
        **{"embedding.m": 20_000, "system.steps": 21_500},
    )[0]
    return small, big, time.perf_counter() - t0


def test_criterion_1_rotation_eigenvalue_exactness(rotation_run, capsys):
    result, seconds = rotation_run
    res = result.dmd_result
    count_ok = res.rank_kept == 2
    want = np.array([np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4)])
    err = max(
        min(abs(lam - w) for lam in res.eigenvalues) for w in want
    ) if count_ok else np.inf
    ok = count_ok and err <= 1e-8 and seconds < 1.0
    _report(capsys, 1, "rotation eigenvalue exactness", ok,
            f"kept {res.rank_kept} eigenvalues, worst componentwise error "
            f"{err:.2e} (<= 1e-8), runtime {seconds:.2f} s (< 1 s)")


def test_criterion_2_van_der_pol_frequency(vdp_run, capsys):
    result, seconds = vdp_run
    res = result.dmd_result
    idx = analysis.dominant_nontrivial(res.eigenvalues, res.dt, cli.MIN_NONTRIVIAL_OMEGA)
    omega = abs(analysis.eig_to_freq(res.eigenvalues[idx], res.dt))
    rel = abs(omega - 0.995) / 0.995
    chi = res.modes[:, idx]
    lam = res.eigenvalues[idx]
    c = result.blocks[0].channels
    shift_res = np.linalg.norm(chi[c:] - lam * chi[:-c]) / np.linalg.norm(chi)
    ok = rel <= 0.01 and shift_res <= 1e-3 and seconds < 5.0
    _report(capsys, 2, "van der pol frequency", ok,
            f"dominant frequency {omega:.6f} rad/s vs 0.995 (rel {rel:.2e} <= 1e-2), "
            f"one-step residual {shift_res:.2e} (<= 1e-3), runtime {seconds:.2f} s (< 5 s)")


def test_criterion_3_quasi_periodic_lattice(torus_run, capsys):
    result, seconds = torus_run
    res = result.dmd_result
    basics = (0.97624, 0.60892)
    freqs = np.array([
        analysis.eig_to_freq(lam, res.dt) for lam in res.eigenvalues if lam != 0
    ])
    moduli = np.abs(res.eigenvalues)
    worst_rel = 0.0
    worst_mod = float(np.max(np.abs(moduli - 1.0)))
    lines = []
    for k in ((1, 0), (0, 1), (1, -1)):
        target = k[0] * basics[0] + k[1] * basics[1]
        j = int(np.argmin(np.abs(freqs - target)))
        rel = abs(freqs[j] - target) / abs(target)
        worst_rel = max(worst_rel, rel)
        lines.append(f"k={k}: {freqs[j]:.6f} vs {target:.6f}")
    ok = worst_rel <= 1e-3 and worst_mod <= 1e-3 and seconds < 60.0
    _report(capsys, 3, "quasi-periodic lattice", ok,
            f"{'; '.join(lines)}; worst rel {worst_rel:.2e} (<= 1e-3), "
            f"worst | |lambda|-1 | {worst_mod:.2e} (<= 1e-3), runtime {seconds:.1f} s (< 60 s)")


def test_criterion_4_lorenz_pod_stability(lorenz_runs, capsys):
    small, big, seconds = lorenz_runs
    s1 = small.pod_result.singular_values[:6]
    s2 = big.pod_result.singular_values[:6]
    # normalize by sqrt(column count)... both runs share n=500, so the raw
    # values are directly comparable
    change = float(np.max(np.abs(s2 - s1) / s1))
    ok = len(s1) == 6 and len(s2) == 6 and change <= 0.05 and seconds < 180.0
    _report(capsys, 4, "lorenz pod stability", ok,
            f"top-6 singular values moved {100 * change:.2f}% from m=10000 to m=20000 "
            f"(<= 5%), runtime {seconds:.1f} s (< 3 min)")


def test_criterion_5_svd_pod_bridge(rotation_run, vdp_run, torus_run, lorenz_runs, capsys):
    datasets = {
        "rotation-check": rotation_run[0].blocks[0].H,
        "vdp-phase": vdp_run[0].blocks[0].H,
        "torus-synth": torus_run[0].blocks[0].H,
        "lorenz-pod": lorenz_runs[0].blocks[0].H,
        "equivalence-suite": systems.integrate(systems.seeded_linear_system(0, dim=4)).states.T,
    }
    worst = 0.0
    for name, h in datasets.items():
        m = h.shape[0]
        evals = np.sort(np.linalg.eigvalsh(linalg.gram(h, 1.0 / m)))[::-1]
        svals = linalg.svd(h / np.sqrt(m)).S
        k = min(evals.size, svals.size)
        gap = float(np.max(np.abs(evals[:k] - svals[:k] ** 2)))
        worst = max(worst, gap / max(1.0, svals[0] ** 2))
    ok = worst <= 1e-8
    _report(capsys, 5, "svd/pod bridge", ok,
            f"max relative gap between Gramian eigenvalues and squared singular "
            f"values over {len(datasets)} recipe datasets: {worst:.2e} (<= 1e-8)")


def test_pod_and_dmd_keep_one_rank(rotation_run, vdp_run, torus_run, lorenz_runs):
    # One SVD, one rank rule: modes.npy holds no direction that pod.json
    # calls zero.
    results = {"rotation-check": rotation_run[0], "vdp-phase": vdp_run[0],
               "torus-synth": torus_run[0], "lorenz-pod": lorenz_runs[0]}
    ranks = {name: (r.pod_result.k, r.dmd_result.rank_kept) for name, r in results.items()}
    assert all(k == kept for k, kept in ranks.values()), ranks
    assert ranks["rotation-check"] == (2, 2) and ranks["torus-synth"] == (6, 6), ranks


@pytest.mark.parametrize("factor", ["1000", "0.001"])
def test_units_do_not_move_ranks(vdp_run, tmp_path, factor):
    raw = cli.recipe_config("vdp-phase")
    raw["output_dir"] = str(tmp_path)
    raw["observables"] = [{"kind": "custom", "expression": f"{factor}*(z1+z2)"}]
    result = cli.execute(cli.parse_config(raw))
    want = vdp_run[0].pod_result.k
    assert (result.pod_result.k, result.dmd_result.rank_kept) == (want, want)


def test_criterion_6_algorithm_equivalence(tmp_path, capsys):
    raw = cli.recipe_config("equivalence-suite")
    raw["output_dir"] = str(tmp_path)
    result = cli.execute(cli.parse_config(raw, recipe="equivalence-suite"))
    report = result.suite_report
    ok = (report["pass"] is True
          and len(report["per_seed"]) == 20
          and report["max_eigenvalue_disagreement"] <= 1e-8
          and report["max_exact_vs_projected"] <= 1e-8)
    _report(capsys, 6, "algorithm equivalence", ok,
            f"20 seeded linear systems: eigenvalue multisets agree to "
            f"{report['max_eigenvalue_disagreement']:.2e}, exact vs projected modes to "
            f"{report['max_exact_vs_projected']:.2e} (both <= 1e-8)")


def test_criterion_7_generator_recovery_and_consistency(capsys):
    worst_spec = 0.0
    all_consistent = True
    for seed in range(5):
        rng = np.random.default_rng(seed)
        a0 = rng.standard_normal((4, 4))
        a0 *= 0.9 / np.max(np.abs(np.linalg.eigvals(a0)))
        x = rng.standard_normal((4, 9))
        y = a0 @ x
        res = dmd.exact_dmd(x, y, svd_threshold=1e-12, threshold_mode="rel")
        key = lambda z: (round(z.real, 10), round(z.imag, 10))
        got = np.array(sorted(res.eigenvalues, key=key))
        want = np.array(sorted(np.linalg.eigvals(a0), key=key))
        worst_spec = max(worst_spec, float(np.max(np.abs(got - want))))
        all_consistent &= dmd.check_linear_consistency(x, y).consistent
    corrupted_flagged = True
    for seed in range(3):
        rng = np.random.default_rng(100 + seed)
        x = rng.standard_normal((4, 9))
        x[:, -1] = x[:, 0]
        y = rng.standard_normal((4, 4)) @ x
        y[:, -1] = rng.standard_normal(4)  # breaks Y = A X at the repeat
        corrupted_flagged &= not dmd.check_linear_consistency(x, y).consistent
    ok = worst_spec <= 1e-8 and all_consistent and corrupted_flagged
    _report(capsys, 7, "generator recovery + consistency", ok,
            f"worst spectrum error over 5 constructed pairs {worst_spec:.2e} (<= 1e-8), "
            f"consistency holds on all, corrupted pairs flagged on all 3")


def test_criterion_8_gramian_convergence_rate(capsys):
    omega, theta0, n = 1.0, 0.5, 8
    idx = np.arange(n + 1)
    limit = 0.5 * np.cos((idx[:, None] - idx[None, :]) * omega)

    def empirical_gap(m):
        spec = systems.SystemSpec("circle", {"omega": omega}, (theta0,), 1.0, m + n)
        traj = systems.integrate(spec)
        blk = embed.hankel(systems.observe(traj, systems.Observable("cos_angle")), m=m, n=n)
        return float(np.max(np.abs(linalg.gram(blk.H, 1.0 / m) - limit)))

    gaps = {m: empirical_gap(m) for m in (1000, 4000, 16_000)}
    r1 = gaps[4000] / gaps[1000]
    r2 = gaps[16_000] / gaps[4000]
    ok = r1 <= 0.6 and r2 <= 0.6
    _report(capsys, 8, "gramian convergence rate", ok,
            f"sup-norm error {gaps[1000]:.3e} -> {gaps[4000]:.3e} -> {gaps[16000]:.3e}; "
            f"quadrupling m scales it by {r1:.3f} and {r2:.3f} (both <= 0.6)")
