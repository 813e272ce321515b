"""Benchmark command: one workload, in its own single-threaded process.

    python3 perfbench/run.py --workload walk|setalg|algebra --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  The workload process imports the
program from `src/` with a fixed string-hash seed, so that dictionary and
set layouts, and with them the timings, do not vary from process to
process.  The last line printed is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TIMEOUT_S = 170


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = p.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "cantorbet", "__init__.py")):
        print("run.py: no program at src/cantorbet; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    os.makedirs(os.path.join("perfbench", "out"), exist_ok=True)
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH="src",
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", ns.workload, "--seed", str(ns.seed),
           "--seconds", str(ns.seconds), "--trace", str(ns.trace)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: workload did not finish in {TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"run.py: workload exited with status {proc.returncode}",
              file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
