#!/usr/bin/env python3
"""Mutation score of the test suite: does it catch each listed bug?

Each mutant is a one-line change of a source file, given as (name, file,
old text, new text). The old text must appear exactly once in its file;
the script refuses a list that does not match the checkout before it runs
anything. Each mutant is applied to a temporary copy of the checkout (src,
tests, scripts, perfbench, pyproject.toml, README.md), and pytest runs
there with `-x -q -p no:cacheprovider` at one BLAS thread, its basetemp
inside the copy. The mutant is killed when a test fails and survives when
every test passes. The pytest run starts in a session of its own, and
after TIMEOUT_S seconds its whole process group is killed. The copy is
deleted afterwards; nothing in the checkout or elsewhere is written.

Usage: python3 scripts/mutants.py [--only NAME ...] [--json PATH] [-- PYTEST_ARGS ...]

Prints one line per mutant, `<name>: killed by <first failing test>` or
`<name>: SURVIVED`, then `score: K/N killed`, and exits 1 unless every
mutant run was killed. --json writes the score, the commit and each
mutant's result. The arguments after `--` replace pytest's default of the
whole suite, for example a test file or `-k` expression.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "scripts", "perfbench", "pyproject.toml", "README.md")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TIMEOUT_S = 600  # seconds a mutant's pytest run may take before it is killed


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the checkout
    old: str
    new: str


MUTANTS = (
    Mutant("interleave order reversed", "src/koopdmd/embed.py",
           "np.column_stack([s.values for s in series_list])",
           "np.column_stack([s.values for s in series_list[::-1]])"),
    Mutant("composite leaves Y unscaled", "src/koopdmd/embed.py",
           "np.multiply(b.UH, s, out=Y[:, lo:hi])",
           "np.multiply(b.UH, 1.0, out=Y[:, lo:hi])"),
    Mutant("block scale from the first column", "src/koopdmd/embed.py",
           "num = float(np.linalg.norm(block.H[:, -1]))",
           "num = float(np.linalg.norm(block.H[:, 0]))"),
    Mutant("mode energy from block 1 only", "src/koopdmd/dmd.py",
           "s[:, None] * v[list(starts)].T",
           "s[:, None] * v[list(starts[:1])].T"),
    Mutant("conjugate pairs do not share energy", "src/koopdmd/dmd.py",
           "    energy[second] = energy[second - 1] = np.maximum(energy[second], "
           "energy[second - 1])\n",
           ""),
    Mutant("WtY not shifted", "src/koopdmd/dmd.py",
           "wty[:, lo:hi - 1] = svt[:, lo + 1:hi]",
           "wty[:, lo:hi - 1] = svt[:, lo:hi - 1]"),
    Mutant(">= in numerical_rank", "src/koopdmd/linalg.py",
           "np.count_nonzero(S > (tol",
           "np.count_nonzero(S >= (tol"),
    Mutant("forward_error as sigma_0/sigma_0", "src/koopdmd/dmd.py",
           "np.finfo(float).eps * s[0] / s[-1]",
           "np.finfo(float).eps * s[0] / s[0]"),
    Mutant("zero samples keep a phase", "src/koopdmd/analysis.py",
           "    out[z == 0] = np.nan\n",
           ""),
    Mutant("> at the nontrivial bound", "src/koopdmd/analysis.py",
           "if abs(eig_to_freq(lam, dt)) >= min_omega:",
           "if abs(eig_to_freq(lam, dt)) > min_omega:"),
    Mutant("the .npy writer ignores scale", "src/koopdmd/ioutil.py",
           "rows = matrix[lo:hi] if scale is None else scale * matrix[lo:hi]",
           "rows = matrix[lo:hi]"),
    Mutant("time column restarts in every block", "src/koopdmd/ioutil.py",
           "t = np.arange(lo, hi) * dt",
           "t = np.arange(hi - lo) * dt"),
    Mutant("a dropped conjugate in _projected_modes", "src/koopdmd/dmd.py",
           "rows[:, pair] = np.conj(rows[:, pair - 1])",
           "rows[:, pair] = rows[:, pair - 1]"),
    Mutant("POD sigma over sqrt(m - 1)", "src/koopdmd/pod.py",
           "sigma = r.S[:k] / np.sqrt(m)",
           "sigma = r.S[:k] / np.sqrt(m - 1)"),
    Mutant("negative frequencies listed in the table", "src/koopdmd/analysis.py",
           "    listed = [(j, omega) for j, omega in listed if omega >= 0]\n",
           ""),
    Mutant("every start observed along the first trajectory", "src/koopdmd/cli.py",
           "[systems.observe(t, obs) for t in trajectories]",
           "[systems.observe(trajectories[0], obs) for t in trajectories]"),
    Mutant("the tables read unstrided states", "src/koopdmd/cli.py",
           "sampled = [t.states[:: e.stride] for t in trajectories or []]",
           "sampled = [t.states for t in trajectories or []]"),
    Mutant("an unscalable block reaches scale_factor", "src/koopdmd/cli.py",
           "if len(blocks) > 1 and np.linalg.norm(b.H[:, -1]) == 0.0:",
           "if False:"),
    Mutant("the shared factorization keeps only DMD's columns", "src/koopdmd/cli.py",
           "rank = lambda s: max(linalg.truncation_rank(s), rule(s))",
           "rank = rule"),
    Mutant("a truncation that keeps nothing is not refused", "src/koopdmd/linalg.py",
           "    if k == 0:\n        raise DecompositionError(",
           "    if False:\n        raise DecompositionError("),
    Mutant("the tail energy squares unscaled values", "src/koopdmd/dmd.py",
           "e = np.frexp(tail[0])[1] if tail.size else 0",
           "e = 0"),
)


def check(mutant: Mutant, root: Path = ROOT) -> None:
    """Raise ValueError unless mutant's old text appears exactly once in
    its file under root."""
    count = (root / mutant.file).read_text(encoding="utf-8").count(mutant.old)
    if count != 1:
        raise ValueError(f"mutant {mutant.name!r}: its old text appears {count} times "
                         f"in {mutant.file}, not once")


def first_failure(output: str) -> str:
    """The first test that pytest's short summary names as failed."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return "(no test named)"


def run_mutant(mutant: Mutant, pytest_args: list[str]) -> dict:
    """Apply mutant to a fresh copy of the checkout and run pytest there."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="koopdmd-mutant-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, copy / name,
                                ignore=shutil.ignore_patterns("__pycache__", ".bench_out"))
            else:
                shutil.copy2(ROOT / name, copy / name)
        target = copy / mutant.file
        text = target.read_text(encoding="utf-8")
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1",
                   **{var: "1" for var in BLAS_VARS})
        proc = subprocess.Popen(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             f"--basetemp={copy / '.pytest_tmp'}", *pytest_args],
            cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            start_new_session=True)
        try:
            output, _ = proc.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            status, test = "timeout", None
        else:
            if proc.returncode == 0:
                status, test = "survived", None
            elif proc.returncode == 1:
                status, test = "killed", first_failure(output)
            else:  # no test collected, a usage error or a collection error
                status, test = "error", (output.strip().splitlines() or [""])[-1]
    return {"name": mutant.name, "file": mutant.file, "status": status, "test": test,
            "seconds": round(time.perf_counter() - start, 1)}


def report(result: dict) -> str:
    if result["status"] == "killed":
        what = f"killed by {result['test']}"
    elif result["status"] == "survived":
        what = "SURVIVED"
    elif result["status"] == "timeout":
        what = "TIMEOUT"
    else:
        what = f"ERROR {result['test']}"
    return f"{result['name']}: {what} ({result['seconds']} s)"


def commit() -> str | None:
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv: list[str]) -> int:
    pytest_args = []
    if "--" in argv:
        cut = argv.index("--")
        argv, pytest_args = argv[:cut], argv[cut + 1:]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", action="append", metavar="NAME",
                        help="run only this mutant (repeatable)")
    parser.add_argument("--json", type=Path, metavar="PATH",
                        help="write the score, the commit and each result here")
    args = parser.parse_args(argv)
    names = [m.name for m in MUTANTS]
    unknown = sorted(set(args.only or ()) - set(names))
    if unknown:
        parser.error(f"unknown mutant(s) {unknown}; listed: {names}")
    chosen = [m for m in MUTANTS if args.only is None or m.name in args.only]
    try:
        for mutant in chosen:
            check(mutant)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    results = []
    for mutant in chosen:
        results.append(run_mutant(mutant, pytest_args))
        print(report(results[-1]), flush=True)
    killed = sum(r["status"] == "killed" for r in results)
    print(f"score: {killed}/{len(results)} killed")
    if args.json is not None:
        args.json.write_text(json.dumps({"commit": commit(), "killed": killed,
                                         "total": len(results), "pytest_args": pytest_args,
                                         "mutants": results}, indent=1) + "\n",
                             encoding="utf-8")
    return 0 if killed == len(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
