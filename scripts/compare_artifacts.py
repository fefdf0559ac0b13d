#!/usr/bin/env python3
"""Check that two source trees of koopdmd write the same bytes.

Runs every target under each tree, each in a fresh `koopdmd run` process,
once per BLAS thread count of --blas-threads (default one thread; the
count can move roundoff, so compare at each count that matters), and
compares the two output directories file by file and the two stdouts with
the output path masked. The targets are the five recipes, the csv-ingest
config of perfbench (its generator, seed 0), and `companion`, `svd` and
`exact`: lorenz-pod shortened to 4000 steps, m = 2000 and n = 8, decomposed
by that algorithm, so each algorithm runs on one Hankel block.

Usage: python3 scripts/compare_artifacts.py OLD_SRC NEW_SRC [--targets T ...]
                                           [--blas-threads N ...]

OLD_SRC and NEW_SRC are directories holding a `koopdmd` package, such as
`src` and a copy made with `git archive HEAD src | tar -x -C old`. Prints
one line per target, `<target>: ...`, or with several thread counts one
line per target and count, `<target>, BLAS threads N: ...`, and exits 1
if any run differs. A differing file is named with how far it moved: for a
`.npy` matrix the largest absolute difference (for a complex one also
after one unit factor per column, which takes out each mode's phase), for
`dmd.json` the largest gap between eigenvalues at the same position and
their distance as sets: the largest distance from an eigenvalue of either
file to the nearest one of the other, which reads 0 when the eigenvalues
were only reordered, and for a `.csv` table the largest gap between
number cells at the same place (a blank or text cell must match exactly).
"""

import argparse
import csv
import filecmp
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
RECIPES = ("rotation-check", "vdp-phase", "torus-synth", "equivalence-suite", "lorenz-pod")
CSV_INGEST = "csv-ingest"
LONE_BLOCK = ("companion", "svd", "exact")
TARGETS = RECIPES + (CSV_INGEST,) + LONE_BLOCK
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run(src: Path, target: str, out: Path, threads: int) -> tuple[int, str]:
    """Exit code and stdout (output path masked) of one run under src at
    the given BLAS thread count."""
    env = dict(os.environ, PYTHONPATH=str(src), **{var: str(threads) for var in BLAS_VARS})
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


def lone_block_config(work: Path, src: Path, algorithm: str) -> str:
    """lorenz-pod at 4000 steps, m = 2000 and n = 8, decomposed by
    algorithm, written into work."""
    sys.path[:0] = [str(src)]
    from koopdmd import cli

    config = cli.recipe_config("lorenz-pod")
    config["system"]["steps"] = 4000
    config["embedding"] = {"m": 2000, "n": 8}
    config["dmd"] = {"algorithm": algorithm}
    path = work / f"{algorithm}.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


def differing_files(a: Path, b: Path) -> list[str]:
    """Names present in only one directory or whose bytes differ."""
    names_a = {p.name for p in a.iterdir()} if a.is_dir() else set()
    names_b = {p.name for p in b.iterdir()} if b.is_dir() else set()
    both = sorted(names_a & names_b)
    _, mismatch, errors = filecmp.cmpfiles(a, b, both, shallow=False)
    return sorted(set(mismatch) | set(errors) | (names_a ^ names_b))


def _gap(a, b) -> str:
    return f"{np.max(np.abs(a - b), initial=0.0):.1e}"


def set_distance(x, y) -> float:
    """The largest distance from a point of x or of y to the nearest
    point of the other (the Hausdorff distance of two point sets)."""
    gaps = np.abs(np.subtract.outer(np.asarray(x), np.asarray(y)))
    return float(max(gaps.min(axis=1, initial=np.inf).max(initial=0.0),
                     gaps.min(axis=0, initial=np.inf).max(initial=0.0)))


def csv_gap(a: Path, b: Path) -> str:
    """The largest gap between the number cells at the same place in two
    CSV tables, or the first place where their layout, a header cell, a
    blank cell or a text cell differs."""
    x, y = (list(csv.reader(p.read_text(encoding="utf-8").splitlines())) for p in (a, b))
    if len(x) != len(y):
        return f"{len(x)} vs {len(y)} lines"
    gap = 0.0
    for line, (row_x, row_y) in enumerate(zip(x, y), start=1):
        if len(row_x) != len(row_y):
            return f"line {line}: {len(row_x)} vs {len(row_y)} cells"
        for cell_x, cell_y in zip(row_x, row_y):
            if cell_x == cell_y:
                continue
            try:
                gap = max(gap, abs(float(cell_x) - float(cell_y)))
            except ValueError:  # a blank or text cell, or a header
                return f"line {line}: {cell_x!r} vs {cell_y!r}"
    return f"{gap:.1e}"


def how_far(a: Path, b: Path) -> str:
    """How far the file b moved from a, or "" when one of them is missing
    or there is no measure for its kind."""
    if not (a.is_file() and b.is_file()):
        return ""
    if a.suffix == ".npy":
        x, y = np.load(a), np.load(b)
        if x.shape != y.shape:
            return f"shape {x.shape} vs {y.shape}"
        moved = _gap(x, y)
        if np.iscomplexobj(x):
            inner = np.sum(np.conj(y) * x, axis=0)
            unit = np.divide(inner, np.abs(inner), out=np.ones_like(inner), where=inner != 0)
            moved += f", {_gap(x, y * unit)} after unit factors"
        return moved
    if a.name == "dmd.json":
        x, y = ([complex(e["re"], e["im"]) for e in json.loads(p.read_text())["eigenvalues"]]
                for p in (a, b))
        if len(x) != len(y):
            return f"{len(x)} vs {len(y)} eigenvalues"
        return (f"eigenvalues {_gap(np.array(x), np.array(y))} by position, "
                f"{set_distance(x, y):.1e} as sets")
    if a.suffix == ".csv":
        return csv_gap(a, b)
    return ""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--targets", nargs="+", choices=TARGETS, default=list(TARGETS))
    parser.add_argument("--blas-threads", type=int, nargs="+", default=[1], metavar="N",
                        help="BLAS threads of every run; each count runs every target (default 1)")
    args = parser.parse_args()
    if min(args.blas_threads) < 1:
        parser.error("--blas-threads must be >= 1")
    sides = {"old": args.old_src.resolve(), "new": args.new_src.resolve()}
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in args.targets:
            if name == CSV_INGEST:
                target = csv_ingest_config(work, sides["new"])
            elif name in LONE_BLOCK:
                target = lone_block_config(work, sides["new"], name)
            else:
                target = name
            for threads in args.blas_threads:
                runs = {side: run(src, target, work / side / name, threads)
                        for side, src in sides.items()}
                files = differing_files(work / "old" / name, work / "new" / name)
                problems = []
                if runs["old"][0] or runs["new"][0]:
                    problems.append(f"exit codes {runs['old'][0]} / {runs['new'][0]}")
                if files:
                    moved = {f: how_far(work / "old" / name / f, work / "new" / name / f)
                             for f in files}
                    problems.append("artifacts differ: " + ", ".join(
                        f"{f} ({m})" if m else f for f, m in moved.items()))
                if runs["old"][1] != runs["new"][1]:
                    problems.append("stdout differs")
                count = len(list((work / "new" / name).glob("*")))
                label = name if len(args.blas_threads) == 1 else f"{name}, BLAS threads {threads}"
                print(f"{label}: " + ("; ".join(problems) if problems else
                                      f"{count} artifacts byte-identical, stdout identical"))
                for side in sides:  # lorenz-pod writes ~75 MB per side
                    shutil.rmtree(work / side / name, ignore_errors=True)
                failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
