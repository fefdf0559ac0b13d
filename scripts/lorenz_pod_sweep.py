#!/usr/bin/env python3
"""Sweep the Lorenz POD spectrum over the averaging window length.

For each window length m the script embeds the first Lorenz coordinate in a
Hankel matrix (n=500 delays, dt=0.01, 10 s transient skip) and prints the top
singular values of the scaled embedding. Long windows should leave the leading
spectrum nearly unchanged; the final column reports the relative movement from
the previous row.

Usage: python3 scripts/lorenz_pod_sweep.py [--seed 2] [--windows 5000 10000 20000]
"""

import argparse

import numpy as np

from koopdmd import embed, pod, systems


def pod_spectrum(seed: int, m: int, n: int = 500, dt: float = 0.01, skip: int = 1000):
    z0 = systems.lorenz_initial_state(seed)
    spec = systems.SystemSpec("lorenz", dict(systems.LORENZ_PARAMS), z0, dt, skip + m + n)
    traj = systems.transient_skip(systems.integrate(spec), skip)
    ts = systems.observe(traj, systems.Observable("coordinate", index=0))
    return pod.ergodic_pod(embed.hankel(ts, m=m, n=n))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=2, help="initial-state seed (default 2)")
    ap.add_argument("--windows", type=int, nargs="+", default=[5000, 10000, 20000],
                    help="window lengths m to sweep")
    ap.add_argument("--top", type=int, default=6, help="how many singular values to track")
    args = ap.parse_args()

    prev = None
    header = ["m".rjust(7)] + [f"sigma_{j + 1}".rjust(10) for j in range(args.top)]
    print("  ".join(header) + "  max rel change")
    for m in args.windows:
        res = pod_spectrum(args.seed, m)
        top = res.singular_values[: args.top]
        cells = [f"{m:7d}"] + [f"{s:10.4f}" for s in top]
        if prev is not None and len(prev) == len(top):
            change = np.max(np.abs(top - prev) / prev)
            cells.append(f"{100 * change:14.2f}%")
        else:
            cells.append("             --")
        print("  ".join(cells))
        prev = top
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
