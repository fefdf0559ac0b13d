"""Command line pipeline: simulate or ingest, embed, decompose, report.

    koopdmd run <config.json | recipe-name> [--out DIR] [--seed N]
    koopdmd recipes
    koopdmd --version

A run reads one JSON config (schema documented in the README), executes
the pipeline, and writes its artifacts into the output directory:
trajectory and observable CSVs, Hankel metadata, POD and DMD
serializations (the mode and POD matrices as .npy files), a frequency
table when basic frequencies are configured, and a per-state phase table
when requested, both built by analysis from the strided states. Identical
config and seed produce byte-identical outputs.
Once the new run.json is in place, the files that the directory's
previous run.json listed and this run did not write are deleted
(_remove_stale). --seed seeds the Lorenz default start (system.seed) or
the equivalence suite (suite.seed_base); on a CSV source it is refused.
A run computes every value first (_run_pipeline) and then writes one
table of artifacts (execute): the output directory is made only then, by
the first artifact's write, so a failure before writing leaves the
directory as it was, or absent. A
failure while writing can still leave part of a run: an i/o error (exit
4), a non-finite value that a writer refuses (exit 2), or Ctrl-C. Each
file is still complete or absent. POD and DMD cut their SVD by
linalg.truncation_rank, by default both at sigma_j / sigma_0 > 1e-8 (the
projected operator then holds about eight digits); the dmd section's keys
alone change DMD's cut. A lone Hankel block is factored once, for both
(_decompose).

parse_config refuses keys that a run would ignore: dmd or analysis next
to a suite, a system parameter that its kind does not read, system.seed
next to system.z0, dmd.svd_threshold and dmd.threshold_mode with the svd
or companion algorithm, analysis.K without analysis.basics, an observable
key that its kind does not read, and the companion algorithm with more
than one Hankel block (for a CSV source, when the file is read) or with
embedding.n = 0. So is a run whose arrays exceed the physical memory,
and a config file that json cannot read (invalid UTF-8, an over-long
integer, nesting beyond the recursion limit).

Each config section's dataclass owns its defaults and checks (SuiteConfig,
EmbeddingConfig, DmdConfig, AnalysisConfig, systems.Observable; a system is
a SystemConfig of systems.SystemSpec). Its ValueError messages start with
the field name; parse_config prefixes the section and checks only what
spans sections.

Exit codes: 0 success, 2 configuration problem, 3 numerical failure,
4 i/o error, 5 out of memory. A requested phase export with no nontrivial
mode still exits 0, since every decomposition succeeded; the reason goes
to stderr as one warning line and into run.json.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__, analysis, dmd, embed, ioutil, linalg, pod, systems
from .analysis import MIN_NONTRIVIAL_OMEGA
from .errors import ConfigError, DecompositionError, KoopdmdError, NumericalError
from .ioutil import write_json
from .systems import _integer, _real


# ----------------------------------------------------------------------
# Configuration


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


@dataclass(frozen=True)
class SystemConfig:
    specs: tuple[systems.SystemSpec, ...]  # one per start state
    skip: int = 0

    # What every start state shares (perfbench's spectra workload reads these).
    kind = property(lambda self: self.specs[0].kind)
    params = property(lambda self: self.specs[0].params)
    dt = property(lambda self: self.specs[0].dt)
    steps = property(lambda self: self.specs[0].steps)
    z0s = property(lambda self: tuple(tuple(s.z0) for s in self.specs))

    def __post_init__(self):
        _check(_integer(self.skip) and 0 <= self.skip < self.steps,
               f"skip: integer in [0, steps) required, got {self.skip!r}")


@dataclass(frozen=True)
class SuiteConfig:
    count: int = 20
    dim: int = 4
    seed_base: int = 0

    def __post_init__(self):
        _check(_integer(self.count) and self.count >= 1,
               f"count: integer >= 1, got {self.count!r}")
        _check(_integer(self.dim) and self.dim >= 2, f"dim: integer >= 2, got {self.dim!r}")
        _check(_integer(self.seed_base) and self.seed_base >= 0,
               f"seed_base: integer >= 0 required, got {self.seed_base!r}")


@dataclass(frozen=True)
class EmbeddingConfig:
    m: int = None  # required: None is refused like any other bad value
    n: int = None
    stride: int = 1
    interleave: bool = False

    def __post_init__(self):
        _check(_integer(self.m) and self.m >= 1,
               f"m: integer >= 1 required, got {self.m!r}")
        _check(_integer(self.n) and self.n >= 0,
               f"n: integer >= 0 required, got {self.n!r}")
        _check(_integer(self.stride) and self.stride >= 1,
               f"stride: integer >= 1, got {self.stride!r}")
        _check(isinstance(self.interleave, bool), "interleave: true/false expected")


@dataclass(frozen=True)
class DmdConfig:
    """The threshold keys act only on the truncating algorithms (hankel,
    exact), where they default to linalg.TRUNCATION_TOL and rel, the rank
    rule of POD; svd and companion refuse them and leave both None."""

    algorithm: str = "hankel"
    svd_threshold: float | None = None
    threshold_mode: str | None = None

    def __post_init__(self):
        _check(self.algorithm in dmd.ALGORITHMS,
               f"algorithm: expected one of {dmd.ALGORITHMS}, got {self.algorithm!r}")
        if self.algorithm in ("svd", "companion"):
            for name in ("svd_threshold", "threshold_mode"):
                _check(getattr(self, name) is None,
                       f"{name}: the {self.algorithm} algorithm truncates nothing; "
                       "drop the key")
            return
        threshold = (linalg.TRUNCATION_TOL if self.svd_threshold is None
                     else self.svd_threshold)
        mode = "rel" if self.threshold_mode is None else self.threshold_mode
        _check(_real(threshold) and threshold >= 0,
               f"svd_threshold: finite number >= 0 required, got {threshold!r}")
        _check(mode in ("abs", "rel"), f"threshold_mode: 'abs' or 'rel', got {mode!r}")
        object.__setattr__(self, "svd_threshold", float(threshold))
        object.__setattr__(self, "threshold_mode", mode)


@dataclass(frozen=True)
class AnalysisConfig:
    """K bounds the lattice search over basics, so it defaults to 6 with
    basics and is refused without them."""

    basics: tuple[float, ...] | None = None
    K: int | None = None
    export_phase: bool = False

    def __post_init__(self):
        if self.basics is None:
            _check(self.K is None,
                   "K: bounds the lattice of analysis.basics; set basics or drop K")
        else:
            _check(isinstance(self.basics, (list, tuple)) and self.basics
                   and all(_real(b) for b in self.basics),
                   "basics: list of finite numbers expected")
            object.__setattr__(self, "basics", tuple(float(b) for b in self.basics))
            K = 6 if self.K is None else self.K
            _check(_integer(K) and K >= 0, f"K: integer >= 0, got {K!r}")
            object.__setattr__(self, "K", K)
        _check(isinstance(self.export_phase, bool), "export_phase: true/false expected")


@dataclass(frozen=True)
class RunConfig:
    """Validated run description; exactly one of system/csv/suite is set."""

    output_dir: str
    system: SystemConfig | None = None
    csv: str | None = None
    suite: SuiteConfig | None = None
    observables: tuple[systems.Observable, ...] = ()
    embedding: EmbeddingConfig | None = None
    dmd: DmdConfig = field(default_factory=DmdConfig)
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)
    recipe: str | None = None


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _take(d: dict, section: str, known: tuple[str, ...]) -> None:
    unknown = sorted(set(d) - set(known))
    _require(not unknown, f"{section}: unknown keys {unknown} (known: {sorted(known)})")


def _section(cls, name: str, d):
    """One config section as cls, whose fields are the section's keys and
    whose construction checks their values. Absent or null gives cls()."""
    d = {} if d is None else d
    _require(isinstance(d, dict), f"{name}: object expected")
    _take(d, name, tuple(f.name for f in fields(cls) if f.init))
    try:
        return cls(**d)
    except ValueError as exc:
        raise ConfigError(f"{name}.{exc}") from None


def _parse_system(d: dict) -> SystemConfig:
    """JSON's part of a system: known keys, z0 as one state or a list of
    states, and seed. systems.SystemSpec and SystemConfig check the rest."""
    keys = tuple(p for names in systems.REQUIRED_PARAMS.values() for p in names)
    _take(d, "system", ("kind", "z0", "dt", "steps", "skip", "seed") + keys)
    kind = d.get("kind")
    params = {p: d[p] for p in keys if p in d}
    seed = d.get("seed", 0)
    _require(_integer(seed) and seed >= 0,
             f"system.seed: integer >= 0 required, got {seed!r}")
    z0 = d.get("z0")
    if z0 is None:
        _require(kind == "lorenz",
                 "system.z0: required (only the lorenz kind has a seeded default)")
        z0s = [systems.lorenz_initial_state(seed)]
    else:
        _require(isinstance(z0, list) and z0, "system.z0: non-empty list expected")
        z0s = z0 if isinstance(z0[0], list) else [z0]
    try:
        specs = tuple(systems.SystemSpec(kind, params, z, d.get("dt"), d.get("steps"))
                      for z in z0s)
        system = SystemConfig(specs, d.get("skip", SystemConfig.skip))
    except ValueError as exc:
        raise ConfigError(f"system.{exc}") from None
    _require(z0 is None or "seed" not in d,
             "system.seed: seeds only the lorenz default start; drop it or system.z0")
    return system


def parse_config(raw: dict, recipe: str | None = None) -> RunConfig:
    """Validate a raw config dict into a RunConfig (raises ConfigError)."""
    _require(isinstance(raw, dict), "config root must be a JSON object")
    _take(raw, "config", ("system", "csv", "suite", "observables", "embedding",
                          "dmd", "analysis", "output_dir"))
    present = [k for k in ("system", "csv", "suite") if raw.get(k) is not None]
    _require(len(present) == 1,
             f"exactly one of system/csv/suite must be present, got {present or 'none'}")
    output_dir = raw.get("output_dir", "out")
    _require(isinstance(output_dir, str) and output_dir, "output_dir: non-empty string expected")

    system = csv_path = suite = embedding = None
    observables: tuple[systems.Observable, ...] = ()
    if raw.get("suite") is not None:
        suite = _section(SuiteConfig, "suite", raw["suite"])
        for key in ("observables", "embedding", "dmd", "analysis"):
            _require(raw.get(key) is None, f"{key}: not applicable to a suite run")
    else:
        if raw.get("system") is not None:
            _require(isinstance(raw["system"], dict), "system: object expected")
            system = _parse_system(raw["system"])
            obs_raw = raw.get("observables")
            _require(isinstance(obs_raw, list) and obs_raw,
                     "observables: non-empty list required with a system")
            observables = tuple(_section(systems.Observable, f"observables[{i}]", o)
                                for i, o in enumerate(obs_raw))
            state = system.specs[0].z0[None, :]
            for i, obs in enumerate(observables):
                try:
                    obs.evaluate(state)
                except ValueError as exc:
                    raise ConfigError(f"observables[{i}]: {exc}") from None
        else:
            csv_path = raw.get("csv")
            _require(isinstance(csv_path, str) and csv_path, "csv: file path expected")
            _require(raw.get("observables") in (None, []),
                     "observables: CSV columns are the observables; leave empty")
        _require(isinstance(raw.get("embedding"), dict), "embedding: object with m and n required")
        embedding = _section(EmbeddingConfig, "embedding", raw["embedding"])

    dmd_cfg = _section(DmdConfig, "dmd", raw.get("dmd"))
    ana = _section(AnalysisConfig, "analysis", raw.get("analysis"))
    _require(csv_path is None or not ana.export_phase,
             "analysis.export_phase: needs a system source")
    _require(dmd_cfg.algorithm != "companion" or len(observables) <= 1,
             f"dmd.algorithm: companion takes one Hankel block, got {len(observables)} observables")
    _require(dmd_cfg.algorithm != "companion" or embedding is None or embedding.n >= 1,
             "embedding.n: the companion algorithm needs n >= 1 delayed columns, got 0")
    if system is not None and embedding is not None:
        _require(embedding.interleave or len(system.specs) == 1,
                 "embedding.interleave must be true when system.z0 lists several states")
    cfg = RunConfig(output_dir=output_dir, system=system, csv=csv_path, suite=suite,
                    observables=observables, embedding=embedding, dmd=dmd_cfg,
                    analysis=ana, recipe=recipe)
    _validate_lengths(cfg)
    return cfg


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where sysconf cannot tell."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _require_memory(cfg: RunConfig, columns: int) -> None:
    """Refuse a run whose trajectories (8 (steps+1) d bytes per start state)
    and Hankel pairs (8 m (n+2) per column: each observable of each
    trajectory, or CSV column) exceed the physical memory. A Hankel pair
    is a view of its series, so its count stands for what factoring a
    block holds: one copy of it, plus the kept columns of W. That is a
    lower bound on what a run holds."""
    e, memory = cfg.embedding, _physical_memory()
    if memory is None:
        return
    states = sum(8 * (s.steps + 1) * s.z0.size for s in cfg.system.specs) if cfg.system else 0
    hankel = 8 * e.m * (e.n + 2) * columns
    key = (f"system.steps: {cfg.system.steps} steps" if states > hankel
           else f"embedding: m={e.m}, n={e.n}")
    _require(states + hankel <= memory,
             f"{key} need at least {(states + hankel) >> 30} GiB, more than the "
             f"{memory >> 30} GiB of physical memory")


def _validate_lengths(cfg: RunConfig) -> None:
    e, s = cfg.embedding, cfg.system
    if s is None:
        return  # _build_series and embed.hankel check a CSV once it is read
    _require_memory(cfg, len(cfg.observables) * len(s.specs))
    samples = s.steps + 1 - s.skip
    usable = 1 + (samples - 1) // e.stride
    needed = e.m + e.n + 1
    _require(usable >= needed,
             f"embedding: m={e.m}, n={e.n} need {needed} samples per trajectory, "
             f"but system provides {usable} after skip/stride")


# ----------------------------------------------------------------------
# Recipes


#: name -> (description, raw config). recipe_config hands out copies.
RECIPES = {
    "lorenz-pod": ("Lorenz first-coordinate Hankel POD (m=10000, n=500)", {
        "system": {"kind": "lorenz", **systems.LORENZ_PARAMS, "seed": 2,
                   "dt": 0.01, "steps": 11500, "skip": 1000},
        "observables": [{"kind": "coordinate"}],
        "embedding": {"m": 10000, "n": 500},
        "output_dir": "out/lorenz-pod",
    }),
    "vdp-phase": ("Van der Pol asymptotic phase from two interleaved trajectories", {
        "system": {"kind": "vanderpol", "mu": systems.VDP_MU,
                   "z0": [list(systems.VDP_Z1), list(systems.VDP_Z2)],
                   "dt": 0.1, "steps": 350},
        "observables": [{"kind": "sum", "indices": [0, 1]}],
        "embedding": {"m": 250, "n": 100, "interleave": True},
        "analysis": {"export_phase": True},
        "output_dir": "out/vdp-phase",
    }),
    "rotation-check": ("circle rotation eigenvalue check (omega = pi/4)", {
        "system": {"kind": "circle", "omega": math.pi / 4, "z0": [0.0],
                   "dt": 1.0, "steps": 2008},
        "observables": [{"kind": "cos_angle"}],
        "embedding": {"m": 2000, "n": 8},
        "analysis": {"basics": [math.pi / 4]},
        "output_dir": "out/rotation-check",
    }),
    "torus-synth": ("synthetic two-frequency quasi-periodic signal, lattice recovery", {
        "system": {"kind": "torus", "omega1": 0.97624, "omega2": 0.60892,
                   "z0": [0.0, 0.0], "dt": 0.1, "steps": 6500},
        "observables": [{"kind": "custom",
                         "expression": "cos(z1) + 0.6*cos(z2) + 0.3*cos(z1 - z2)"}],
        "embedding": {"m": 6000, "n": 500},
        "analysis": {"basics": [0.97624, 0.60892]},
        "output_dir": "out/torus-synth",
    }),
    "equivalence-suite": ("companion/svd/exact agreement on seeded linear systems",
                          {"suite": {}, "output_dir": "out/equivalence-suite"}),
}


def recipe_config(name: str) -> dict:
    """Raw config dict of a named recipe (copy, safe to modify)."""
    if name not in RECIPES:
        raise ConfigError(f"unknown recipe {name!r}; available: {', '.join(sorted(RECIPES))}")
    return json.loads(json.dumps(RECIPES[name][1]))


# ----------------------------------------------------------------------
# Pipeline


@dataclass
class RunResult:
    """The record of one run: its files in output_dir, and what run.json
    and the command line's report read (_run_summary, main)."""

    config: RunConfig
    output_dir: Path
    outputs: list[str] = field(default_factory=list)
    trajectories: list[systems.Trajectory] | None = None
    blocks: list[embed.HankelBlock] | None = None
    data: embed.CompositeData | None = None
    pod_result: pod.PodResult | None = None
    dmd_result: dmd.DmdResult | None = None
    frequency_rows: list[dict] | None = None
    dominant: int | None = None  # index of analysis.dominant_nontrivial's mode
    phase_skipped: str | None = None  # why a requested phase.csv was not written
    suite_report: dict | None = None

    @property
    def dominant_freq(self) -> float | None:
        """Frequency in rad/s of the dominant nontrivial mode, if there is one."""
        if self.dominant is None:
            return None
        return analysis.eig_to_freq(self.dmd_result.eigenvalues[self.dominant],
                                    self.dmd_result.dt)


def _build_series(cfg: RunConfig):
    """Observable time series per block, plus trajectories when simulated.

    Returns (series_per_observable, trajectories, observed). Each entry of
    series_per_observable is the (possibly interleaved) series that one
    Hankel block embeds; observed[k][i] is observable k along trajectory i
    before striding. The last two are None for a CSV source.
    """
    e = cfg.embedding
    if cfg.csv is not None:
        path = Path(cfg.csv)
        _require(path.exists(), f"csv: file not found: {path}")
        try:
            columns = embed.read_timeseries_csv(path)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        _require(e.interleave or len(columns) == 1 or cfg.dmd.algorithm != "companion",
                 f"dmd.algorithm: companion takes one Hankel block, but {path} has "
                 f"{len(columns)} columns and embedding.interleave is false")
        _require_memory(cfg, len(columns))
        columns = [embed.strided_series(s, e.stride) for s in columns]
        return ([embed.interleave(columns)] if e.interleave else columns), None, None

    trajectories = [systems.transient_skip(systems.integrate(spec), cfg.system.skip)
                    for spec in cfg.system.specs]
    observed = []
    for k, obs in enumerate(cfg.observables):
        try:
            observed.append([systems.observe(t, obs) for t in trajectories])
        except ValueError as exc:
            raise ConfigError(f"observables[{k}]: {exc}") from None
    series_list = []
    for per_traj in observed:
        per_traj = [embed.strided_series(s, e.stride) for s in per_traj]
        series_list.append(embed.interleave(per_traj) if e.interleave else per_traj[0])
    return series_list, trajectories, observed


def _decompose(cfg: RunConfig, blocks, data) -> tuple[dmd.DmdResult, pod.PodResult]:
    """The configured DMD of the composite pair and the POD of the first block.

    A lone block is both POD's input and X (embed.composite): it is
    factored once, keeping the columns of W that POD or DMD keeps (every
    column for svd). DMD reads that read-only W and POD holds a view of it,
    so the run holds W and the m x k complex modes; while k <= (n+1)/2 the
    modes take no more than the copy of H that the SVD held beside W.
    companion fits the block's columns with an SVD of its own, so POD
    factors the block itself, as it does beside a composite.
    """
    d, block = cfg.dmd, blocks[0]
    if d.algorithm == "companion":
        return dmd.companion_dmd(block.H, k=block.n, dt=block.dt), pod.ergodic_pod(block)
    factors = None
    if len(blocks) == 1:
        rank = None
        if d.algorithm != "svd":
            rule = dmd.truncation_rule(d.svd_threshold, d.threshold_mode)
            rank = lambda s: max(linalg.truncation_rank(s), rule(s))
        factors = linalg.svd(data.X, rank)
    starts = tuple(lo for lo, _ in data.block_offsets)
    if d.algorithm == "hankel":
        result = dmd.hankel_dmd(data, svd_threshold=d.svd_threshold, dt=block.dt,
                                threshold_mode=d.threshold_mode, factors=factors)
    elif d.algorithm == "exact":
        result = dmd.exact_dmd(data.X, data.Y, svd_threshold=d.svd_threshold,
                               threshold_mode=d.threshold_mode, dt=block.dt, factors=factors,
                               starts=starts)
    else:
        result = dmd.svd_dmd(data.X, data.Y, dt=block.dt, factors=factors, starts=starts)
    return result, pod.ergodic_pod(block, factors=factors)


#: The fixed names of the files a run writes, and those of the matrices
#: that runs before .npy output wrote as CSV; with trajectory_N.csv and
#: series_N.csv, the only names a rerun deletes.
_ARTIFACT_NAMES = frozenset({
    "run.json", "equivalence.json", "hankel.json", "pod.json", "pod_basis.npy",
    "pod_coords.npy", "dmd.json", "modes.npy", "frequency_table.csv", "phase.csv",
    "pod_basis.csv", "pod_coords.csv", "modes.csv"})
_NUMBERED_ARTIFACT = re.compile(r"(trajectory|series)_[1-9][0-9]*\.csv")


def _listed_outputs(out: Path) -> list[str]:
    """The outputs that out/run.json lists; none if it does not parse or
    its outputs are not a list of names."""
    try:
        listed = json.loads((out / "run.json").read_text(encoding="utf-8"))["outputs"]
    except (OSError, ValueError, LookupError, TypeError):
        return []
    if isinstance(listed, list) and all(isinstance(name, str) for name in listed):
        return listed
    return []


def _remove_stale(out: Path, previous: list[str], written: list[str]) -> None:
    """Delete the files that the previous run.json listed and this run did
    not write. Only names of the kinds a run writes qualify, so no path
    with a separator or '..' and no file that no run.json listed."""
    for name in sorted(set(previous) - set(written)):
        if name in _ARTIFACT_NAMES or _NUMBERED_ARTIFACT.fullmatch(name):
            (out / name).unlink(missing_ok=True)


def execute(cfg: RunConfig) -> RunResult:
    """Run a validated config, then write its artifacts into
    cfg.output_dir and return the results. Nothing is written, and the
    directory is not made, before every decomposition has succeeded: the
    first artifact's write makes it. The files of a previous run there that
    this one did not write are deleted once its run.json is in place."""
    out = Path(cfg.output_dir)
    previous = _listed_outputs(out)
    if cfg.suite is not None:
        report = run_equivalence_suite(cfg.suite)
        result = RunResult(config=cfg, output_dir=out, suite_report=report)
        writers = {"equivalence.json": lambda path: write_json(path, report)}
    else:
        result, writers = _run_pipeline(cfg, out)
    for name, write in writers.items():
        write(out / name)
    result.outputs = list(writers)
    write_json(out / "run.json", _run_summary(result))
    result.outputs.append("run.json")
    _remove_stale(out, previous, result.outputs)
    return result


def _run_pipeline(cfg: RunConfig, out: Path) -> tuple[RunResult, dict]:
    """Every value of a system or CSV run, and the table of its artifacts
    but run.json: file name -> writer(path), in the order they are written.
    Each writer looks up its module's write function when it is called,
    so a tracer that wraps that attribute sees the write."""
    series_list, trajectories, observed = _build_series(cfg)
    e = cfg.embedding
    blocks = [embed.hankel(s, e.m, e.n) for s in series_list]
    # Refused here by name, not by scale_factor's zero-norm error: a zero
    # block, or one of several whose last column (its scale) is zero.
    for b in blocks:
        if not np.any(b.H):
            raise DecompositionError("Hankel block is identically zero; nothing to decompose")
        if len(blocks) > 1 and np.linalg.norm(b.H[:, -1]) == 0.0:
            raise DecompositionError(f"Hankel block {b.label!r} is zero in its last column, "
                                     "so it has no scale against the other blocks")
    scales = [1.0]
    for b in blocks[1:]:
        scales.append(embed.scale_factor(b, blocks[0]))
    data = embed.composite(blocks, scales)
    dmd_result, pod_result = _decompose(cfg, blocks, data)
    sampled = [t.states[:: e.stride] for t in trajectories or []]  # what mode rows sample
    ana, freq_rows = cfg.analysis, None
    if ana.basics is not None:
        # A circle or torus with one start state and one basic per angle
        # has exp(i k . theta) as a reference eigenfunction.
        reference = (len(sampled) == 1 and cfg.system.kind in ("circle", "torus")
                     and sampled[0].shape[1] == len(ana.basics))
        freq_rows = analysis.frequency_rows(dmd_result.eigenvalues, dmd_result.dt, dmd_result.modes,
                                            ana.basics, ana.K, sampled[0] if reference else None)
    dominant = analysis.dominant_nontrivial(dmd_result.eigenvalues, dmd_result.dt)
    phase_skipped = None
    if ana.export_phase and dominant is None:
        phase_skipped = f"no eigenvalue has |omega| >= {MIN_NONTRIVIAL_OMEGA:g} rad/s"

    writers = {}
    for i, traj in enumerate(trajectories or [], start=1):
        # The states need no TimeSeries: integrate has checked them finite.
        labels = [f"z{d + 1}" for d in range(traj.states.shape[1])]
        writers[f"trajectory_{i}.csv"] = lambda path, traj=traj, labels=labels: (
            ioutil.write_columns_csv(path, labels, traj.dt, traj.states.T))
    for i in range(len(trajectories or [])):
        writers[f"series_{i + 1}.csv"] = lambda path, i=i: (
            embed.write_timeseries_csv(path, [per_traj[i] for per_traj in observed]))
    hankel_meta = {
        "m": e.m, "n": e.n, "dt": blocks[0].dt, "stride": e.stride,
        "interleave": e.interleave, "rows": int(data.X.shape[0]),
        "cols": int(data.X.shape[1]),
        "blocks": [{"label": b.label, "channels": b.channels, "scale": s,
                    "start": o[0], "stop": o[1]}
                   for b, s, o in zip(blocks, scales, data.block_offsets)],
    }
    writers["hankel.json"] = lambda path: write_json(path, hankel_meta)
    writers["pod.json"] = lambda path: pod.write_result_json(pod_result, path)
    writers["pod_basis.npy"] = lambda path: pod.write_basis_csv(pod_result, path)
    writers["pod_coords.npy"] = lambda path: pod.write_coords_csv(pod_result, path)
    writers["dmd.json"] = lambda path: dmd.write_result_json(dmd_result, path)
    writers["modes.npy"] = lambda path: dmd.write_modes_csv(dmd_result, path)
    if freq_rows is not None:
        writers["frequency_table.csv"] = lambda path: (
            analysis.write_frequency_table(path, freq_rows))
    if ana.export_phase and dominant is not None:
        writers["phase.csv"] = lambda path: analysis.write_phase_table(
            path, dmd_result.modes[:, dominant], dmd_result.dt, sampled)

    result = RunResult(config=cfg, output_dir=out, trajectories=trajectories, blocks=blocks,
                       data=data, pod_result=pod_result, dmd_result=dmd_result,
                       frequency_rows=freq_rows, dominant=dominant, phase_skipped=phase_skipped)
    return result, writers


def _run_summary(result: RunResult) -> dict:
    """run.json: the run's record, outputs as written before run.json itself."""
    cfg, d, p = result.config, result.dmd_result, result.pod_result
    summary: dict = {
        "recipe": cfg.recipe,
        "outputs": sorted(result.outputs),
        "version": __version__,
    }
    if d is not None:
        summary["dmd"] = {
            "algorithm": d.algorithm,
            "svd_threshold": cfg.dmd.svd_threshold,
            "threshold_mode": cfg.dmd.threshold_mode,
            "rank_kept": d.rank_kept,
            "residual": float(d.residual),
            "forward_error": d.forward_error,
            "dominant_nontrivial_freq": result.dominant_freq,
        }
        summary["dt"] = float(d.dt)
    if result.phase_skipped is not None:
        summary["phase_skipped"] = result.phase_skipped
    if p is not None:
        summary["pod"] = {"k": p.k,
                          "top_singular_values": [float(s) for s in p.singular_values[:8]]}
    if result.suite_report is not None:
        summary["suite"] = {"pass": result.suite_report["pass"],
                            "count": len(result.suite_report["per_seed"])}
    return summary


#: Largest eigenvalue disagreement and exact-vs-projected mode gap with
#: which the equivalence suite passes.
SUITE_TOL = 1e-8


def run_equivalence_suite(cfg: SuiteConfig) -> dict:
    """Companion / svd-enhanced / exact DMD agreement on seeded linear maps.

    Each seed draws a well-conditioned linear system, generates dim+1
    sequential states, and runs all three variants; eigenvalue multisets
    are compared pairwise after sorting by (re, im), and exact modes are
    compared against projected modes (the data range contains its own
    one-step image, so they must coincide). Both gaps pass at SUITE_TOL.
    """
    per_seed = []
    worst_eig = 0.0
    worst_mode = 0.0
    for seed in range(cfg.seed_base, cfg.seed_base + cfg.count):
        spec = systems.seeded_linear_system(seed, dim=cfg.dim)
        traj = systems.integrate(spec)
        d_mat = traj.states.T
        x, y = d_mat[:, : cfg.dim], d_mat[:, 1 : cfg.dim + 1]
        results = {
            "companion": dmd.companion_dmd(d_mat, k=cfg.dim),
            "svd": dmd.svd_dmd(x, y),
            "exact": dmd.exact_dmd(x, y),
        }

        def _sorted_eigs(r):
            return np.array(sorted(r.eigenvalues, key=lambda l: (l.real, l.imag)))

        eigs = {name: _sorted_eigs(r) for name, r in results.items()}
        names = list(results)
        eig_gap = max(
            float(np.max(np.abs(eigs[a] - eigs[b])))
            for i, a in enumerate(names) for b in names[i + 1:]
        )
        exact_res = results["exact"]
        mode_gap = float(np.max(np.abs(exact_res.modes - exact_res.projected_modes)))
        worst_eig = max(worst_eig, eig_gap)
        worst_mode = max(worst_mode, mode_gap)
        per_seed.append({"seed": seed, "eigenvalue_disagreement": eig_gap,
                         "exact_vs_projected": mode_gap})
    return {
        "suite": "equivalence",
        "dim": cfg.dim,
        "tol": SUITE_TOL,
        "per_seed": per_seed,
        "max_eigenvalue_disagreement": worst_eig,
        "max_exact_vs_projected": worst_mode,
        "pass": bool(worst_eig <= SUITE_TOL and worst_mode <= SUITE_TOL),
    }


# ----------------------------------------------------------------------
# Entry point


def _raw_config(target: str) -> tuple[object, str | None]:
    """Raw config dict and recipe name (None for a file) of a run target."""
    if target in RECIPES:
        return recipe_config(target), target
    path = Path(target)
    if not path.exists():
        raise ConfigError(
            f"{target!r} is neither a recipe ({', '.join(sorted(RECIPES))}) "
            "nor an existing config file"
        )
    try:
        return json.loads(path.read_text(encoding="utf-8")), None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:
        # Invalid UTF-8, an integer beyond Python's digit limit, or nesting
        # deeper than the parser's recursion limit.
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None


def load_config(target: str) -> RunConfig:
    """Resolve a run target: recipe name or JSON config path."""
    return parse_config(*_raw_config(target))


def _apply_overrides(raw, args) -> None:
    """Write the command-line overrides into a raw config, where
    parse_config checks them like any other value."""
    if not isinstance(raw, dict):
        return  # parse_config refuses the root
    if args.out is not None:
        raw["output_dir"] = args.out
    _require(args.seed is None or raw.get("csv") is None,
             "--seed: a CSV source has nothing to seed; drop it")
    for section, key in (("system", "seed"), ("suite", "seed_base")):
        if args.seed is not None and isinstance(raw.get(section), dict):
            raw[section][key] = args.seed


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="koopdmd",
        description="Koopman eigenvalues, eigenfunctions and POD from time series",
    )
    parser.add_argument("--version", action="version", version=f"koopdmd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute a config file or a named recipe")
    run_p.add_argument("target", help="path to a JSON config, or a recipe name")
    run_p.add_argument("--out", help="output directory (overrides config output_dir)")
    run_p.add_argument("--seed", type=int, help="seed of lorenz's default start or the suite")
    sub.add_parser("recipes", help="list built-in recipes")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "recipes":
            for name in sorted(RECIPES):
                print(f"{name:20s} {RECIPES[name][0]}")
            return 0
        raw, recipe = _raw_config(args.target)
        _apply_overrides(raw, args)
        result = execute(parse_config(raw, recipe))
        where = result.output_dir
        print(f"wrote {len(result.outputs)} artifacts to {where}")
        if result.phase_skipped is not None:
            print(f"warning: phase.csv not written: {result.phase_skipped}", file=sys.stderr)
        if result.dominant is not None:
            print(f"dominant nontrivial frequency: {result.dominant_freq:.6f} rad/s")
        if result.suite_report is not None:
            status = "pass" if result.suite_report["pass"] else "FAIL"
            print(f"equivalence suite: {status} "
                  f"(max eigenvalue disagreement "
                  f"{result.suite_report['max_eigenvalue_disagreement']:.3e})")
        return 0
    except (ConfigError, ValueError) as exc:
        # A ValueError is a library precondition that only the data can
        # break, such as a CSV too short for the embedding (embed.hankel):
        # a configuration problem too.
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except MemoryError:
        print("out of memory: the run needs more memory than is free; "
              "lower embedding.m, embedding.n or system.steps", file=sys.stderr)
        return 5
    except KoopdmdError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
