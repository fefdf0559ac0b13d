"""Smoke runs of the example scripts with small arguments."""

import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from koopdmd import cli

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
                     "--targets", "rotation-check", "equivalence-suite", "companion")
    assert out == ("rotation-check: 10 artifacts byte-identical, stdout identical\n"
                   "equivalence-suite: 2 artifacts byte-identical, stdout identical\n"
                   "companion: 9 artifacts byte-identical, stdout identical\n")


def test_compare_artifacts_at_two_thread_counts():
    src = str(ROOT / "src")
    out = run_script("compare_artifacts.py", src, src, "--targets", "equivalence-suite",
                     "--blas-threads", "1", "2")
    same = "2 artifacts byte-identical, stdout identical\n"
    assert out == (f"equivalence-suite, BLAS threads 1: {same}"
                   f"equivalence-suite, BLAS threads 2: {same}")


def load_script(name):
    """scripts/<name>.py as a module, without putting scripts on sys.path."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_eigenvalues(path, eigenvalues):
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"eigenvalues": [{"re": z.real, "im": z.imag}
                                                for z in eigenvalues]}))


def test_compare_artifacts_says_how_far_a_file_moved(tmp_path):
    how_far = load_script("compare_artifacts").how_far
    modes = np.array([[1 + 1j, 2.0], [0.5j, -1.0]])
    moved = modes * np.array([1j, 1.0])  # column 0 turned by a unit factor
    moved[1, 1] += 1e-9
    np.save(tmp_path / "a.npy", modes)
    np.save(tmp_path / "b.npy", moved)
    assert how_far(tmp_path / "a.npy", tmp_path / "b.npy") == "2.0e+00, 1.0e-09 after unit factors"
    for side, im in (("old", 0.5), ("new", 0.5 + 3e-7)):
        write_eigenvalues(tmp_path / side / "dmd.json", [complex(1.0, im), 0.25])
    assert how_far(tmp_path / "old" / "dmd.json", tmp_path / "new" / "dmd.json") == \
        "eigenvalues 3.0e-07 by position, 3.0e-07 as sets"
    assert how_far(tmp_path / "a.npy", tmp_path / "missing.npy") == ""
    table = "k,omega,phase\n(1),0.5,\n(2),1.25,3\n"
    (tmp_path / "old" / "f.csv").write_text(table)
    (tmp_path / "new" / "f.csv").write_text(table.replace("1.25", "1.2500001"))
    assert how_far(tmp_path / "old" / "f.csv", tmp_path / "new" / "f.csv") == "1.0e-07"
    (tmp_path / "new" / "f.csv").write_text(table.replace("0.5,", "0.5,0"))
    assert how_far(tmp_path / "old" / "f.csv", tmp_path / "new" / "f.csv") == "line 2: '' vs '0'"


def test_compare_artifacts_runs_every_recipe():
    # A recipe missing from the tuple would be left out of every
    # byte-identity check.
    assert set(cli.RECIPES) <= set(load_script("compare_artifacts").RECIPES)


def test_compare_artifacts_tells_a_reordered_spectrum(tmp_path):
    how_far = load_script("compare_artifacts").how_far
    spectrum = [complex(0.8, 0.6), complex(0.8, -0.6), complex(0.3, 0.95), 0.5]
    write_eigenvalues(tmp_path / "old" / "dmd.json", spectrum)
    write_eigenvalues(tmp_path / "new" / "dmd.json", spectrum[2:] + spectrum[:2])
    assert how_far(tmp_path / "old" / "dmd.json", tmp_path / "new" / "dmd.json") == \
        "eigenvalues 6.7e-01 by position, 0.0e+00 as sets"


def test_readme_library_example(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    for line in lines:  # omega, then its lattice point k on (0.97624, 0.60892)
        omega, k = line.split(" ", 1)
        k = ast.literal_eval(k)
        assert abs(float(omega) - (k[0] * 0.97624 + k[1] * 0.60892)) < 1e-9


def test_mutants_kills_one_mutant_in_a_copy(tmp_path):
    # One mutant against one test file; the copy goes under TMPDIR, which is
    # empty again afterwards, and the checkout's file is unchanged.
    # TestFrequencyTable asks for a tmp_path before the mutant fails a test,
    # so the nested pytest's basetemp must stay inside the copy.
    source = (ROOT / "src" / "koopdmd" / "analysis.py").read_bytes()
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    env = dict(os.environ, TMPDIR=str(scratch))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "mutants.py"), "--only",
         "zero samples keep a phase", "--json", str(tmp_path / "score.json"), "--",
         "tests/test_analysis.py::TestFrequencyTable",
         "tests/test_analysis.py::TestPhaseAndDimension"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    first, score = proc.stdout.splitlines()
    assert first.startswith("zero samples keep a phase: killed by tests/test_analysis.py::"
                            "TestPhaseAndDimension::test_zero_samples_give_nan (")
    assert score == "score: 1/1 killed"
    report = json.loads((tmp_path / "score.json").read_text())
    assert (report["killed"], report["total"]) == (1, 1)
    assert list(scratch.iterdir()) == []
    assert (ROOT / "src" / "koopdmd" / "analysis.py").read_bytes() == source


def test_mutants_match_the_checkout_once(tmp_path):
    mutants = load_script("mutants")
    for mutant in mutants.MUTANTS:
        mutants.check(mutant)  # a stale mutant would test nothing
    (tmp_path / "f.py").write_text("a = 1\nb = 1\n")
    for old, count in (("c = 1", 0), ("= 1", 2)):
        with pytest.raises(ValueError, match=f"appears {count} times"):
            mutants.check(mutants.Mutant("m", "f.py", old, "x"), tmp_path)
