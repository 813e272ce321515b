"""One workload in one process: set up, run whole rounds, check, report.

Started by run.py; prints one JSON object as its last line of output.

    python3 perfbench/worker.py --workload walk --seed 1 --seconds 30 --trace 0

Times are CPU seconds of this process scaled to a reference CPU speed.
The host's CPU speed drifts: identical rounds of operations took from 1.0
to 1.8 s within one minute on the machine this was written on.  So the
worker interleaves a fixed calibration loop (pure Python, no program code)
between blocks of about 0.1 s of operations, and multiplies each block's
times by CALIBRATION_S / (the mean of the calibrations on either side).
A time reported as 1 ms is 1 ms on a CPU that runs the calibration loop in
CALIBRATION_S seconds.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction

import tracer as tracing
from workloads import WORKLOADS

SETUP_REPEATS = 5
WARM_UP_S = 3.0
BLOCK_S = 0.1
# median time of calibrate() on a 2-core cloud VM under sustained load
CALIBRATION_S = 0.0035
OUT_DIR = os.path.join("perfbench", "out")
clock = time.process_time


def calibrate() -> float:
    """CPU time of a fixed loop of fraction, string and dictionary work."""
    start = clock()
    acc, grow, seen = Fraction(0), Fraction(1, 3), {}
    for i in range(1, 240):
        acc += Fraction(1, i * (i + 1))
        grow = grow * Fraction(3, 2) + Fraction(1, 7)
        seen[format(i, "b")] = acc
    return clock() - start


class ScaledTimes:
    """Operation times, scaled block by block to the reference speed."""

    def __init__(self):
        self.times: list[float] = []
        self._block: list[float] = []
        self._last = calibrate()

    def add(self, seconds):
        self._block.append(seconds)
        if sum(self._block) >= BLOCK_S:
            self.flush()

    def flush(self):
        if not self._block:
            return
        cal = calibrate()
        factor = CALIBRATION_S / ((self._last + cal) / 2)
        self._last = cal
        self.times.extend(t * factor for t in self._block)
        self._block = []


def run_round(ops, times, stats):
    """Run every operation once, in order; time each, then check it."""
    for op in ops:
        start = clock()
        try:
            out = op.run()
        except Exception as exc:  # an escaping exception is a failed op
            out = exc
        times.add(clock() - start)
        stats["attempted"] += 1
        ok = not isinstance(out, Exception) and op.check(out)
        if not ok:
            stats["failed"] += 1
            if op.fault:
                stats["fault_kinds"][op.kind] = \
                    stats["fault_kinds"].get(op.kind, 0) + 1
            else:
                stats["correct"] = False
                stats["wrong"].append(f"{op.kind}: {out!r}"[:300])
    times.flush()


def warm_up(ops):
    """Run operations, untimed and unchecked, for WARM_UP_S seconds.

    A CPU that has been idle runs faster for its first seconds of load
    and then settles; timing starts once it has settled.
    """
    end = time.perf_counter() + WARM_UP_S
    while True:
        for op in ops:
            try:
                op.run()
            except Exception:  # a kept fault; outcomes are not judged here
                pass
            if time.perf_counter() >= end:
                return


def setup_once(workload, seed, root):
    """Set up from scratch; returns the scaled set-up time and the inputs.

    The workload calls `lap()` between its steps, so that set-up time is
    scaled in blocks like the operations' times.
    """
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(root)
    gc.collect()
    times = ScaledTimes()
    start = clock()

    def lap():
        nonlocal start
        times.add(clock() - start)
        start = clock()

    ctx = workload.setup(seed, root, lap)
    lap()
    times.flush()
    return sum(times.times), ctx


def traced_run(workload, name, seed, root, stats):
    """One traced set-up, then one round untraced and one round traced."""
    tracer = tracing.Tracer()
    tracer.install()
    _, ctx = setup_once(workload, seed, root)
    tracer.uninstall()
    ops = workload.operations(ctx)
    plain, traced = ScaledTimes(), ScaledTimes()
    gc.collect()
    run_round(ops, plain, stats)
    tracer.install()
    gc.collect()
    run_round(ops, traced, stats)
    tracer.uninstall()
    plain_s, traced_s = sum(plain.times), sum(traced.times)
    metrics = tracer.metrics()
    metrics["trace.overhead_pct"] = {
        "value": 100.0 * (traced_s - plain_s) / plain_s, "unit": "%"}
    tracer.write_spans(os.path.join(OUT_DIR, f"spans-{name}-{seed}.jsonl"))
    print(f"round {plain_s:.3f} s untraced, {traced_s:.3f} s traced "
          f"(scaled), "
          f"{sum(s is not None for s in tracer.spans)} spans kept",
          file=sys.stderr)
    return metrics


def timed_run(workload, seed, root, seconds, stats):
    """Warm up, set up SETUP_REPEATS times, then whole rounds for `seconds`."""
    _, ctx = setup_once(workload, seed, root)
    warm_up(workload.operations(ctx))
    setups = []
    for _ in range(SETUP_REPEATS):
        ctx = None      # let the previous inputs go before the next set-up
        setup_s, ctx = setup_once(workload, seed, root)
        setups.append(setup_s)
    ops = workload.operations(ctx)
    gc.collect()
    gc.freeze()     # keep the inputs out of the collector's later passes
    times = ScaledTimes()
    rounds = 0
    start = time.perf_counter()
    while True:
        run_round(ops, times, stats)
        rounds += 1
        elapsed = time.perf_counter() - start
        # start another round only if it should end within the budget
        if elapsed + elapsed / rounds > seconds:
            break
    samples = times.times
    completed = stats["attempted"] - stats["failed"]
    print(f"{rounds} round(s) of {len(ops)} ops in {elapsed:.3f} s; "
          f"scaled set-ups {[round(s, 4) for s in setups]}", file=sys.stderr)
    return {
        "ops_per_s": {"value": completed / sum(samples), "unit": "1/s"},
        "op_p50_ms": {"value": 1000.0 * statistics.median(samples),
                      "unit": "ms"},
        "op_p90_ms": {"value": 1000.0 * statistics.quantiles(
            samples, n=10)[8], "unit": "ms"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = p.parse_args(argv)

    workload = WORKLOADS[ns.workload]()
    root = os.path.join(OUT_DIR, f"{ns.workload}-{ns.seed}")
    stats = {"attempted": 0, "failed": 0, "correct": True, "wrong": [],
             "fault_kinds": {}}
    if ns.trace:
        metrics = traced_run(workload, ns.workload, ns.seed, root, stats)
    else:
        metrics = timed_run(workload, ns.seed, root, ns.seconds, stats)
    for line in stats["wrong"][:10]:
        print(f"wrong output: {line}", file=sys.stderr)
    if stats["fault_kinds"]:
        print(f"kept faults: {stats['fault_kinds']}", file=sys.stderr)
    print(json.dumps({"correct": stats["correct"],
                      "attempted": stats["attempted"],
                      "failed": stats["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
