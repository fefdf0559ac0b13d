"""Smoke runs of the example scripts with small arguments."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_lorenz_pod_sweep():
    out = run_script("lorenz_pod_sweep.py", "--windows", "600", "900", "--top", "3")
    rows = [line.split() for line in out.splitlines()[1:]]
    assert [r[0] for r in rows] == ["600", "900"]
    assert all(float(v) > 0 for v in rows[1][1:4])


def test_vdp_phase_demo(tmp_path):
    out = run_script("vdp_phase_demo.py", "--out", str(tmp_path))
    assert "dominant oscillation: 0.994" in out
    assert (tmp_path / "phase.csv").exists()


def test_algorithm_agreement():
    out = run_script("algorithm_agreement.py", "--dims", "2", "3", "--count", "3")
    assert "DISAGREE" not in out
    assert out.splitlines()[-1].startswith("worst gap overall:")


def test_compare_artifacts_of_one_tree():
    src = str(ROOT / "src")
    out = run_script("compare_artifacts.py", src, src,
                     "--targets", "rotation-check", "equivalence-suite")
    assert out == ("rotation-check: 10 artifacts byte-identical, stdout identical\n"
                   "equivalence-suite: 2 artifacts byte-identical, stdout identical\n")
