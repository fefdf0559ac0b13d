"""The `spectra` workload: library calls in one process, no files written.

One pass decomposes five cases that differ in rank, block count and matrix
size, so a dmd or linalg change that helps one regime and costs another
shows up in the pass time:

* Lorenz x-coordinate at the lorenz-pod shape (10000 x 501, rank ~350);
* a two-observable torus composite (two 6000 x 501 blocks, rank 8);
* the vdp-phase config: two interleaved Van der Pol trajectories;
* the rotation-check config;
* the equivalence suite (twenty seeded 4 x 4 systems, three variants each).

Each case's output check reuses the tolerance of the acceptance criterion
that covers it in tests/test_acceptance.py.
"""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from koopdmd import analysis, cli, dmd, embed, pod, systems

#: Recipes whose configs a pass uses; loading and parsing them is set-up.
RECIPES = ("lorenz-pod", "torus-synth", "vdp-phase", "rotation-check", "equivalence-suite")

# A second observable adds the lattice point (0, 2) to torus-synth's (1, 0),
# (0, 1) and (1, -1): eight eigenvalues over a two-block composite.
TORUS_SECOND_OBSERVABLE = "sin(z1) + 0.5*sin(2*z2)"
TORUS_LATTICE = ((1, 0), (0, 1), (1, -1), (0, 2))

VDP_FREQUENCY = 0.995


def load_configs() -> dict:
    """The set-up a library user pays once: parse every recipe a pass uses."""
    return {name: cli.load_config(name) for name in RECIPES}


def _spec(cfg, z0) -> systems.SystemSpec:
    s = cfg.system
    return systems.SystemSpec(s.kind, dict(s.params), np.asarray(z0, dtype=float), s.dt, s.steps)


def _decompose(cfg, blocks, dt, scales=None):
    return dmd.hankel_dmd(embed.composite(blocks, scales), svd_threshold=cfg.dmd.svd_threshold,
                          dt=dt, threshold_mode=cfg.dmd.threshold_mode)


def _lorenz(cfg, seed: int):
    traj = systems.integrate(_spec(cfg, systems.lorenz_initial_state(seed)))
    traj = systems.transient_skip(traj, cfg.system.skip)
    series = systems.observe(traj, cfg.observables[0])
    block = embed.hankel(series, cfg.embedding.m, cfg.embedding.n)
    pod_result = pod.ergodic_pod(block)
    res = _decompose(cfg, [block], series.dt)
    analysis.dominant_nontrivial(res.eigenvalues, res.dt, cli.MIN_NONTRIVIAL_OMEGA)

    def check():
        # Acceptance criterion 5: Gramian eigenvalues against squared POD values.
        h, s = block.H, pod_result.singular_values
        evals = np.sort(np.linalg.eigvalsh(h.T @ h / h.shape[0]))[::-1]
        k = min(evals.size, s.size)
        gap = float(np.max(np.abs(evals[:k] - s[:k] ** 2)) / max(1.0, s[0] ** 2))
        return [("lorenz svd/pod bridge gap", gap, 1e-8)]

    return check


def _torus(cfg, seed: int):
    traj = systems.integrate(_spec(cfg, np.random.default_rng(seed).uniform(0, 2 * math.pi, 2)))
    observables = [cfg.observables[0],
                   systems.Observable("custom", expression=TORUS_SECOND_OBSERVABLE)]
    blocks = [embed.hankel(systems.observe(traj, o), cfg.embedding.m, cfg.embedding.n)
              for o in observables]
    scales = [1.0, embed.scale_factor(blocks[1], blocks[0])]
    pod.ergodic_pod(blocks[0])
    res = _decompose(cfg, blocks, traj.dt, scales)
    angles = traj.states[: res.modes.shape[0]]
    for j, lam in enumerate(res.eigenvalues):
        omega = analysis.eig_to_freq(lam, res.dt)
        if omega >= 0:
            match = analysis.match_lattice(omega, cfg.analysis.basics, K=cfg.analysis.K)
            ref = analysis.lattice_eigenfunction(angles, match.k)
            analysis.eigenfunction_error(res.modes[:, j], ref)

    def check():
        # Acceptance criterion 3: the frequency closest to each lattice point,
        # and every eigenvalue on the unit circle.
        worst_rel, worst_mod = lattice_errors(res.eigenvalues, res.dt, cfg.analysis.basics,
                                              TORUS_LATTICE)
        return [("torus lattice rel error", worst_rel, 1e-3),
                ("torus | |lambda| - 1 |", worst_mod, 1e-3)]

    return check


def _vdp(cfg):
    trajs = [systems.integrate(_spec(cfg, z)) for z in cfg.system.z0s]
    series = embed.interleave([systems.observe(t, cfg.observables[0]) for t in trajs])
    block = embed.hankel(series, cfg.embedding.m, cfg.embedding.n)
    pod.ergodic_pod(block)
    res = _decompose(cfg, [block], series.dt)
    idx = analysis.dominant_nontrivial(res.eigenvalues, res.dt, cli.MIN_NONTRIVIAL_OMEGA)
    analysis.asymptotic_phase(res.modes[:, idx])

    def check():
        # Acceptance criterion 2: dominant frequency and one-step residual.
        chi, lam, c = res.modes[:, idx], res.eigenvalues[idx], block.channels
        omega = abs(float(np.angle(lam)) / res.dt)
        shift = float(np.linalg.norm(chi[c:] - lam * chi[:-c]) / np.linalg.norm(chi))
        return [("vdp frequency rel error", abs(omega - VDP_FREQUENCY) / VDP_FREQUENCY, 1e-2),
                ("vdp one-step residual", shift, 1e-3)]

    return check


def _rotation(cfg, seed: int):
    z0 = np.random.default_rng(seed + 1).uniform(0, 2 * math.pi, 1)
    traj = systems.integrate(_spec(cfg, z0))
    block = embed.hankel(systems.observe(traj, cfg.observables[0]),
                         cfg.embedding.m, cfg.embedding.n)
    res = _decompose(cfg, [block], traj.dt)
    for lam in res.eigenvalues:
        omega = analysis.eig_to_freq(lam, res.dt)
        if omega >= 0:
            analysis.match_lattice(omega, cfg.analysis.basics, K=cfg.analysis.K)

    def check():
        # Acceptance criterion 1: two eigenvalues, at exp(+-i pi/4).
        want = (np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4))
        err = max(min(abs(lam - w) for lam in res.eigenvalues) for w in want)
        return [("rotation rank kept - 2", abs(res.rank_kept - 2), 0),
                ("rotation eigenvalue error", float(err), 1e-8)]

    return check


def _suite(cfg, seed: int):
    report = cli.run_equivalence_suite(replace(cfg.suite, seed_base=seed))
    return lambda: [("equivalence suite failed", int(not report["pass"]), 0)]


def lattice_errors(eigenvalues, dt: float, basics, targets) -> tuple[float, float]:
    """Worst relative error of the frequency closest to each lattice target,
    and worst distance of an eigenvalue's modulus from 1."""
    lam = np.asarray(eigenvalues, dtype=complex)
    freqs = np.angle(lam[lam != 0]) / dt
    worst_rel = 0.0
    for k in targets:
        target = float(np.dot(k, basics))
        worst_rel = max(worst_rel, float(np.min(np.abs(freqs - target))) / abs(target))
    return worst_rel, float(np.max(np.abs(np.abs(lam) - 1.0)))


def run_pass(configs: dict, seed: int) -> list:
    """One pass. Returns its output checks, to be run outside the timing;
    each yields (label, value, limit) tuples that pass when value <= limit."""
    return [
        _lorenz(configs["lorenz-pod"], seed),
        _torus(configs["torus-synth"], seed),
        _vdp(configs["vdp-phase"]),
        _rotation(configs["rotation-check"], seed),
        _suite(configs["equivalence-suite"], seed),
    ]
