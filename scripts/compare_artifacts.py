#!/usr/bin/env python3
"""Check that two source trees of koopdmd write the same bytes.

Runs every target once under each tree, each in a fresh `koopdmd run`
process at one BLAS thread (the thread count can move roundoff), and
compares the two output directories file by file and the two stdouts with
the output path masked. The targets are the five recipes and the
csv-ingest config of perfbench (its generator, seed 0).

Usage: python3 scripts/compare_artifacts.py OLD_SRC NEW_SRC [--targets T ...]

OLD_SRC and NEW_SRC are directories holding a `koopdmd` package, such as
`src` and a copy made with `git archive HEAD src | tar -x -C old`. Prints
one line per target and exits 1 if any target differs.
"""

import argparse
import filecmp
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RECIPES = ("rotation-check", "vdp-phase", "torus-synth", "equivalence-suite", "lorenz-pod")
CSV_INGEST = "csv-ingest"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run(src: Path, target: str, out: Path) -> tuple[int, str]:
    """Exit code and stdout (output path masked) of one run under src."""
    env = dict(os.environ, PYTHONPATH=str(src), **{var: "1" for var in BLAS_VARS})
    out.parent.mkdir(parents=True, exist_ok=True)
    # `python -m` puts its working directory first on sys.path, ahead of src.
    proc = subprocess.run([sys.executable, "-m", "koopdmd.cli", "run", target, "--out", str(out)],
                          capture_output=True, text=True, env=env, cwd=out.parent)
    if proc.returncode != 0:
        print(proc.stderr, end="", file=sys.stderr)
    return proc.returncode, proc.stdout.replace(str(out), "OUT")


def csv_ingest_config(work: Path, src: Path) -> str:
    """perfbench's csv-ingest config for seed 0, with its CSV, written into work."""
    sys.path[:0] = [str(ROOT / "perfbench"), str(src)]  # workloads imports koopdmd
    from workloads import CsvIngest

    return str(CsvIngest(work, 0).config)


def differing_files(a: Path, b: Path) -> list[str]:
    """Names present in only one directory or whose bytes differ."""
    names_a = {p.name for p in a.iterdir()} if a.is_dir() else set()
    names_b = {p.name for p in b.iterdir()} if b.is_dir() else set()
    both = sorted(names_a & names_b)
    _, mismatch, errors = filecmp.cmpfiles(a, b, both, shallow=False)
    return sorted(set(mismatch) | set(errors) | (names_a ^ names_b))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--targets", nargs="+", choices=RECIPES + (CSV_INGEST,),
                        default=list(RECIPES + (CSV_INGEST,)))
    args = parser.parse_args()
    sides = {"old": args.old_src.resolve(), "new": args.new_src.resolve()}
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in args.targets:
            target = csv_ingest_config(work, sides["new"]) if name == CSV_INGEST else name
            runs = {side: run(src, target, work / side / name) for side, src in sides.items()}
            files = differing_files(work / "old" / name, work / "new" / name)
            problems = []
            if runs["old"][0] or runs["new"][0]:
                problems.append(f"exit codes {runs['old'][0]} / {runs['new'][0]}")
            if files:
                problems.append("artifacts differ: " + ", ".join(files))
            if runs["old"][1] != runs["new"][1]:
                problems.append("stdout differs")
            count = len(list((work / "new" / name).glob("*")))
            print(f"{name}: " + ("; ".join(problems) if problems else
                                 f"{count} artifacts byte-identical, stdout identical"))
            for side in sides:  # lorenz-pod writes ~210 MB per side
                shutil.rmtree(work / side / name, ignore_errors=True)
            failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
