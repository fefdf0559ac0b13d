"""Summarize the result files under .bench_out/results/ into one baseline.

    python3 perfbench/summarize.py [OUT.json]

For each workload and end-to-end metric it gives the median, the quartiles
(statistics.quantiles, n=4) and their distance as a share of the median,
over all correct `--trace 0` results. From correct `--trace 1` results it
gives the median of each per-layer metric. Failed runs are listed by file;
the environment of every result is kept. Prints
to standard output unless OUT.json is named.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

RESULTS = Path(__file__).resolve().parent.parent / ".bench_out" / "results"


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else None, "runs": len(values)}


def summarize() -> dict:
    out: dict = {}
    for path in sorted(RESULTS.glob("*-seed*-trace[01].json")):
        workload, rest = path.stem.split("-seed")
        seed, trace = rest.split("-trace")
        result = json.loads(path.read_text(encoding="utf-8"))
        entry = out.setdefault(workload, {"seeds": {"0": [], "1": []}, "runs": {"0": {}, "1": {}},
                                          "failed_runs": [], "environments": []})
        if not result["correct"]:
            entry["failed_runs"].append(path.name)
            continue
        entry["seeds"][trace].append(int(seed))
        if result["environment"] not in entry["environments"]:
            entry["environments"].append(result["environment"])
        for name, value in result["metrics"].items():
            entry["runs"][trace].setdefault(name, []).append(value)
    for entry in out.values():
        runs = entry.pop("runs")
        entry["end_to_end"] = {k: spread(v) for k, v in runs["0"].items()}
        entry["per_layer_median"] = {k: statistics.median(v) for k, v in runs["1"].items()}
    return out


def main() -> int:
    text = json.dumps(summarize(), indent=1, sort_keys=True) + "\n"
    if len(sys.argv) > 1:
        Path(sys.argv[1]).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
