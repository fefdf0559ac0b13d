"""The two CLI workloads. A pass is one fresh `koopdmd run` process, because
a CLI user pays the interpreter, the imports and BLAS warm-up on every run.

* lorenz-pod: the paper's headline POD recipe, the heaviest one. It writes
  ~210 MiB of CSV, so serialization and peak RSS dominate.
* csv-ingest: a seeded three-observable CSV of 200k rows, read with stride
  20 into a scaled three-block composite, exact DMD at a relative threshold.
  It is the only workload that parses text, and its multi-block composite
  bypasses any single-block shortcut.

Each workload's output check reuses the tolerance of the acceptance
criterion that covers it in tests/test_acceptance.py; none depends on
byte identity, so a change that moves roundoff still passes.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from spectra import lattice_errors

# csv-ingest input: the torus-synth basic frequencies, sampled every 0.01 s.
CSV_BASICS = (0.97624, 0.60892)
CSV_ROWS = 200_000
CSV_DT = 0.01
# Three zero-mean observables over five lattice points: ten eigenvalues.
CSV_LATTICE = ((1, 0), (0, 1), (1, -1), (1, 1), (2, 0))


def _svd_pod_gap(pod_values: np.ndarray, h: np.ndarray) -> float:
    """Acceptance criterion 5's measure: squared POD singular values against
    an independent numpy SVD of the Hankel matrix, relative to max(1, s_0^2)."""
    s = np.linalg.svd(h / math.sqrt(h.shape[0]), compute_uv=False)
    k = min(s.size, pod_values.size)
    return float(np.max(np.abs(pod_values[:k] ** 2 - s[:k] ** 2)) / max(1.0, s[0] ** 2))


class LorenzPod:
    name = "lorenz-pod"

    def __init__(self, work: Path, seed: int):
        self.seed = seed

    def setup_targets(self) -> list[str]:
        return [self.name]

    def argv(self, out: Path) -> list[str]:
        return ["run", self.name, "--seed", str(self.seed), "--out", str(out)]

    def check(self, out: Path) -> list[tuple]:
        """POD singular values against a numpy SVD of the Hankel matrix
        rebuilt from the written series_1.csv."""
        hankel = json.loads((out / "hankel.json").read_text(encoding="utf-8"))
        m, n = hankel["m"], hankel["n"]
        f = np.loadtxt(out / "series_1.csv", delimiter=",", skiprows=1)[:, 1]
        h = np.lib.stride_tricks.sliding_window_view(f[: m + n], n + 1)
        pod = json.loads((out / "pod.json").read_text(encoding="utf-8"))
        pod_values = np.array(pod["singular_values"])
        return [("POD vs numpy SVD gap", _svd_pod_gap(pod_values, h), 1e-8),
                ("POD singular values short of 6", max(0, 6 - pod_values.size), 0)]


def write_quasiperiodic_csv(path: Path, seed: int) -> None:
    """Seeded phases and amplitudes over the fixed CSV_BASICS lattice."""
    rng = np.random.default_rng(seed)
    p1, p2 = rng.uniform(0.0, 2.0 * math.pi, 2)
    a = rng.uniform(0.5, 1.5, 6)
    t = np.arange(CSV_ROWS) * CSV_DT
    th1, th2 = p1 + CSV_BASICS[0] * t, p2 + CSV_BASICS[1] * t
    columns = [
        a[0] * np.cos(th1) + a[1] * np.cos(th2),             # (1, 0), (0, 1)
        a[2] * np.sin(th1 - th2) + a[3] * np.cos(th1),       # (1, -1)
        a[4] * np.cos(th1 + th2) + a[5] * np.sin(2.0 * th1),  # (1, 1), (2, 0)
    ]
    np.savetxt(path, np.column_stack([t, *columns]), fmt="%.17g", delimiter=",",
               header="t,f1,f2,f3", comments="")


class CsvIngest:
    name = "csv-ingest"

    def __init__(self, work: Path, seed: int):
        self.csv = work / f"csv-ingest-{seed}.csv"
        self.config = work / f"csv-ingest-{seed}.json"
        write_quasiperiodic_csv(self.csv, seed)
        self.config.write_text(json.dumps({
            "csv": str(self.csv),
            "embedding": {"m": 4000, "n": 150, "stride": 20},
            "dmd": {"algorithm": "exact", "svd_threshold": 1e-10, "threshold_mode": "rel"},
            "analysis": {"basics": list(CSV_BASICS), "K": 6},
            "output_dir": "out/csv-ingest",
        }), encoding="utf-8")

    def setup_targets(self) -> list[str]:
        return [str(self.config)]

    def argv(self, out: Path) -> list[str]:
        return ["run", str(self.config), "--out", str(out)]

    def check(self, out: Path) -> list[tuple]:
        """Acceptance criterion 3 on the generator's lattice."""
        result = json.loads((out / "dmd.json").read_text(encoding="utf-8"))
        lam = [complex(e["re"], e["im"]) for e in result["eigenvalues"]]
        worst_rel, worst_mod = lattice_errors(lam, result["dt"], CSV_BASICS, CSV_LATTICE)
        return [("lattice rel error", worst_rel, 1e-3), ("| |lambda| - 1 |", worst_mod, 1e-3)]


CLI_WORKLOADS = {w.name: w for w in (LorenzPod, CsvIngest)}
