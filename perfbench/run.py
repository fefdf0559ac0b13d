"""koopdmd benchmark: one workload per invocation, result JSON on the last line.

    python3 perfbench/run.py --workload lorenz-pod|spectra|csv-ingest|all
                             --seed N --seconds S --trace 0|1

Run it from the root of a koopdmd checkout; the program is imported from the
checkout's src/ directory, so there is nothing to build.

--trace 0 runs plain passes back to back until S seconds have passed (at
least one) and reports the end-to-end metrics of BENCHMARK.json. --trace 1 reports the
per-layer metrics: it runs a traced, a plain and an alloc pass, then
alternates traced and plain passes for the rest of the window. Traced
passes give the span times and counts; trace.overhead_s is their pass_s
minus the plain passes' pass_s. The alloc pass also records tracemalloc
peaks, which slow it severalfold, and gives the *.alloc_peak_mib metrics;
counts must repeat exactly between all traced and alloc passes. Every pass
is checked, and a pass that exits nonzero, raises or fails a check counts
as failed. Human-readable lines, the environment among them, come first.
The result with the environment, and the spans of traced passes, are also
written under .bench_out/results/. `--workload all` runs the three
workloads one after another, each in its own process.

Waiting time is not reported: the pipeline is one process without queues.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from tracer import ALLOC_LAYERS, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_out"
WORKLOADS = ("lorenz-pod", "spectra", "csv-ingest")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread. With two, lorenz-pod used ~30% more CPU than wall time
# and ran no faster; artifacts are byte-identical only per thread count.
BLAS_THREADS = 1
SETUP_SAMPLES = 11
# A fresh process that loads and parses the configs a pass starts from.
SETUP_CODE = "import sys\nfrom koopdmd import cli\nfor t in sys.argv[1:]:\n    cli.load_config(t)"


def parse_args(argv=None) -> argparse.Namespace:
    def natural(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text}")
        return value

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=natural, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ----------------------------------------------------------------------
# Processes and passes


def spawn(argv: list[str], env: dict, err_path: Path) -> dict:
    """Run one child to completion; wall time, CPU time and peak RSS."""
    with open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
        err.seek(0)
        stderr = err.read()[-2000:].decode("utf-8", "replace")
    return {"exit_code": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime, "rss_mib": usage.ru_maxrss / 1024,
            "stderr": stderr if proc.returncode else ""}


class SetupSampler:
    """Fresh processes that import koopdmd and parse the configs a pass
    starts from. On a shared host their time moves between levels that
    last several seconds, so the samples are spread over the run: before
    each pass the sampler catches up with its share of SETUP_SAMPLES."""

    def __init__(self, targets: list[str], env: dict, work: Path):
        self.argv = [sys.executable, "-c", SETUP_CODE, *targets]
        self.env, self.err = env, work / "setup.err"
        self.times: list[float] = []
        self._launch()  # untimed: fills the file cache and compiles bytecode

    def _launch(self) -> float:
        proc = spawn(self.argv, self.env, self.err)
        if proc["exit_code"] != 0:
            raise RuntimeError(f"set-up process failed: {proc['stderr']}")
        return proc["wall_s"]

    def catch_up(self, share: float) -> None:
        while len(self.times) < max(1, round(SETUP_SAMPLES * min(share, 1.0))):
            self.times.append(self._launch())


def pass_kinds(seconds: float, trace: bool, setup: SetupSampler | None = None):
    """Plain passes until the window closes, at least one. A traced run
    starts with a traced, a plain and an alloc pass whatever the window,
    then alternates traced and plain."""
    start = time.perf_counter()
    first = ("traced", "plain", "alloc") if trace else ("plain",)
    i = 0
    while True:
        if setup is not None:
            setup.catch_up((time.perf_counter() - start) / seconds)
        if i >= len(first) and time.perf_counter() - start >= seconds:
            break
        if i < len(first):
            yield first[i]
        else:
            yield "traced" if trace and i % 2 == 0 else "plain"
        i += 1
    if setup is not None:
        setup.catch_up(1.0)


def alloc_layers(kind: str) -> frozenset:
    return ALLOC_LAYERS if kind == "alloc" else frozenset()


def failed_checks(check, *args) -> list[str]:
    try:
        results = check(*args)
    except Exception:
        return ["check raised: " + traceback.format_exc(limit=3)]
    return [f"{label} = {value:.3e} exceeds {limit}"
            for label, value, limit in results if not value <= limit]


def cli_passes(wl, seconds: float, trace: bool, env: dict, work: Path,
               setup: SetupSampler | None) -> list[dict]:
    spans_path = work / "spans.json"
    passes = []
    for kind in pass_kinds(seconds, trace, setup):
        out = Path(tempfile.mkdtemp(prefix="pass-", dir=work))
        try:
            if kind != "plain":
                argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path),
                        ",".join(sorted(alloc_layers(kind)))]
            else:
                argv = [sys.executable, "-m", "koopdmd.cli"]
            rec = {"kind": kind, **spawn(argv + wl.argv(out), env, work / "pass.err")}
            if rec["exit_code"] != 0:
                rec["failures"] = [f"exit code {rec['exit_code']}: {rec['stderr']}"]
            else:
                rec["bytes"] = sum(p.stat().st_size for p in out.iterdir())
                rec["failures"] = failed_checks(wl.check, out)
                if kind != "plain":
                    rec["spans"] = json.loads(spans_path.read_text(encoding="utf-8"))
                    rec["layers"] = layer_metrics(rec["spans"])
        finally:
            shutil.rmtree(out)
        passes.append(rec)
    return passes


def spectra_passes(configs: dict, seed: int, seconds: float, trace: bool,
                   setup: SetupSampler | None) -> list[dict]:
    import spectra

    passes = []
    for kind in pass_kinds(seconds, trace, setup):
        tracer = Tracer(alloc_layers(kind))
        if kind != "plain":
            tracer.install()
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        try:
            checks, error = spectra.run_pass(configs, seed), None
        except Exception:
            checks, error = [], traceback.format_exc(limit=3)
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        tracer.restore()
        rec = {"kind": kind, "wall_s": wall, "bytes": 0,
               "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
               "failures": [f"pass raised: {error}"] if error else []}
        for check in checks:
            rec["failures"] += failed_checks(check)
        if kind != "plain":
            rec["spans"] = tracer.take()
            rec["layers"] = layer_metrics(rec["spans"])
            if not tracer.restored():
                rec["failures"].append("a tracer wrapper was left installed")
        passes.append(rec)
        if len(passes) == 1:
            # The high-water mark of the process up to its first pass. Later
            # passes reuse a heap their predecessors fragmented, so the mark
            # at the end grows with the pass count, which depends on speed.
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for rec in passes:
        rec["rss_mib"] = peak
    return passes


# ----------------------------------------------------------------------
# Metrics


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(passes: list[dict], setup: list[float]) -> dict:
    """Pass times are means over the run: the host's speed switches between
    levels ~1.5x apart every 5-20 s, so a run's median snaps to one level
    while the mean weighs each by its share of the run."""
    plain = [p for p in passes if p["kind"] == "plain"]
    return {
        "pass_s": statistics.fmean(p["wall_s"] for p in plain),
        "cpu_s": statistics.fmean(p["cpu_s"] for p in plain),
        "peak_rss_mib": median(p["rss_mib"] for p in plain),
        "setup_s": median(setup),
    }


def per_layer(passes: list[dict], count_names: set[str]) -> tuple[dict, list[str]]:
    """Medians over traced passes (alloc passes for *.alloc_peak_mib), plus
    run-level failures: counts that do not repeat exactly, and self times
    that add up to more than a pass."""
    traced = [p for p in passes if p["kind"] == "traced" and "layers" in p]
    alloc = [p for p in passes if p["kind"] == "alloc" and "layers" in p]
    plain = [p for p in passes if p["kind"] == "plain"]
    if not (traced and alloc and plain):
        return {}, ["no traced, alloc or plain pass completed"]
    metrics = {}
    for k in traced[0]["layers"]:
        source = alloc if k.endswith(".alloc_peak_mib") else traced
        # Counts must repeat exactly (checked below), so they are not averaged.
        metrics[k] = (source[0]["layers"][k] if k in count_names
                      else median(p["layers"][k] for p in source))
    metrics["trace.pass_s"] = median(p["wall_s"] for p in traced)
    metrics["trace.overhead_s"] = metrics["trace.pass_s"] - median(p["wall_s"] for p in plain)
    problems = []
    for k in sorted(count_names & set(metrics)):
        values = sorted({p["layers"][k] for p in traced + alloc})
        if len(values) > 1:
            problems.append(f"count {k} differs between traced passes: {values}")
    problems += [f"self times {p['layers']['trace.self_sum_s']:.4f} s exceed pass wall "
                 f"{p['wall_s']:.4f} s" for p in traced + alloc
                 if p["layers"]["trace.self_sum_s"] > p["wall_s"]]
    return metrics, problems


# ----------------------------------------------------------------------
# Environment


def openblas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_in_effect": openblas_threads(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "seed": args.seed,
    }


# ----------------------------------------------------------------------
# Entry point


def run_workload(args, env: dict, work: Path) -> dict:
    """Set-up times (plain runs only: a traced run does not report them)
    and the passes of one workload."""
    trace = bool(args.trace)
    if args.workload == "spectra":
        import spectra

        setup = None if trace else SetupSampler(list(spectra.RECIPES), env, work)
        configs = spectra.load_configs()
        passes = spectra_passes(configs, args.seed, args.seconds, trace, setup)
    else:
        from workloads import CLI_WORKLOADS

        wl = CLI_WORKLOADS[args.workload](work, args.seed)
        setup = None if trace else SetupSampler(wl.setup_targets(), env, work)
        passes = cli_passes(wl, args.seconds, trace, env, work, setup)
    return {"setup": setup.times if setup else [], "passes": passes}


def report(args, declared: dict, run: dict, environ: dict) -> dict:
    passes = run["passes"]
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    problems = []
    sizes = {p["bytes"] for p in passes if "bytes" in p}
    if len(sizes) > 1:
        problems.append(f"artifact bytes differ between passes: {sorted(sizes)}")
    if args.trace:
        counts = {n for n, u in units.items() if u == "count"}
        metrics, more = per_layer(passes, counts)
        problems += more
    else:
        metrics = end_to_end(passes, run["setup"])
    failed = sum(1 for p in passes if p["failures"])
    plain = [p["wall_s"] for p in passes if p["kind"] == "plain"]
    kinds = ", ".join(f"{sum(p['kind'] == k for p in passes)} {k}"
                      for k in ("traced", "alloc", "plain"))
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: {len(passes)} passes "
          f"({kinds}) in a {args.seconds:g} s window")
    for name, value in metrics.items():
        print(f"  {name:30s} {value:14.6f} {units.get(name, '')}")
    print(f"  plain pass_s over {len(plain)} passes: min {min(plain):.4f} max {max(plain):.4f} s"
          + (f"; setup_s over {len(run['setup'])} processes" if run["setup"] else ""))
    if sizes:
        print(f"  artifact_mib {max(sizes) / 2**20:.4f} MiB per pass ({max(sizes)} bytes, exact)")
    print(f"  fail_frac {failed / len(passes):.4f} ({failed} of {len(passes)} passes failed)")
    print("  waiting time: not applicable (single-process pipeline, no queues)")
    print("  env " + ", ".join(f"{k}={v}" for k, v in environ.items()))
    for p in passes:
        for f in p["failures"]:
            print(f"  FAILED {p['kind']} pass: {f}")
    for msg in problems:
        print(f"  FAILED run: {msg}")

    correct = failed == 0 and not problems
    wanted = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    if correct and set(wanted) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json's "
                           f"{sorted(wanted)}")

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    summary = {"correct": correct, "attempted": len(passes), "failed": failed,
               "environment": environ, "seconds": args.seconds, "setup_s": run["setup"],
               "metrics": metrics, "problems": problems,
               "passes": [{k: v for k, v in p.items() if k != "spans"} for p in passes]}
    (results / f"{stem}.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    if args.trace:
        spans = [p["spans"] for p in passes if "spans" in p]
        (results / f"{stem}-spans.json").write_text(json.dumps(spans), encoding="utf-8")
    return {"correct": correct, "attempted": len(passes), "failed": failed,
            "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in wanted if n in metrics}}


def run_all(args) -> dict:
    """Each workload in its own process, so peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
        lines = out.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return combined


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "koopdmd" / "__init__.py").is_file():
        print(f"perfbench: no koopdmd sources under {src}; run from a koopdmd checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # BLAS reads its thread count when numpy loads it, in this process and
    # in every child.
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
    sys.path.insert(0, str(src))
    environ = environment(args)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        run = run_workload(args, dict(os.environ), work)
    finally:
        shutil.rmtree(work)
    result = report(args, declared, run, environ)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
