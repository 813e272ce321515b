"""Steadiness of the benchmark: one workload, N runs with N seeds.

    python3 perfbench/steady.py --workload walk --runs 10 --seconds 30

Runs `run.py` once per seed, one run at a time, and prints for every
metric its median, first and third quartile, and the spread (the distance
between the quartiles as a share of the median), plus the share of failed
operations in each run.  The runs' result objects are also written to
perfbench/out/steady-<workload>-<first seed>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    ns = p.parse_args(argv)

    results = []
    for seed in range(ns.first_seed, ns.first_seed + ns.runs):
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", ns.workload, "--seed", str(seed),
               "--seconds", str(ns.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: run.py exited {proc.returncode}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}"
                         for k, v in result["metrics"].items()), flush=True)

    print(f"\n{ns.workload}: {ns.runs} runs, seeds {ns.first_seed}.."
          f"{ns.first_seed + ns.runs - 1}")
    shares = sorted({(r["failed"], r["attempted"]) for r in results})
    print("failed/attempted: "
          + ", ".join(f"{f}/{a}" for f, a in shares)
          + ("" if len({f / a for f, a in shares}) == 1 else "  (NOT EQUAL)"))
    print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:40s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.3f}")
    os.makedirs(os.path.join("perfbench", "out"), exist_ok=True)
    out = os.path.join("perfbench", "out",
                       f"steady-{ns.workload}-{ns.first_seed}.json")
    with open(out, "w", encoding="ascii") as fh:
        json.dump(results, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
