"""The benchmark's tracer against the package: every name it patches
exists, and uninstalling puts every original back.

`perfbench/tracer.py` patches public calls of `cantorbet` by name (for
example `approx` in `RegularizedMartingale.__dict__`, the `plus`/`minus`
views of each splitting operator, `regularize`).  A change to the package
that drops or moves one of those names breaks the traced benchmark run;
this test catches it without running the benchmark.  A traced smoke run
checks that the kernel's own calls still go through the patched names:
one that goes round them leaves its layer's counters at 0.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
from pathlib import Path

import cantorbet
from cantorbet import cli, diagonal, martingale
from cantorbet.core import Dyadic
from cantorbet.measure import uniform

from helpers import load_bench_module

ROOT = Path(__file__).resolve().parent.parent


def _namespaces():
    """Every module of the package and every class defined in one."""
    for info in pkgutil.iter_modules(cantorbet.__path__):
        mod = importlib.import_module(f"cantorbet.{info.name}")
        yield mod
        yield from (v for v in vars(mod).values()
                    if isinstance(v, type) and v.__module__ == mod.__name__)


def _snapshot():
    return {(ns, attr): value for ns in _namespaces()
            for attr, value in list(vars(ns).items())}


def test_tracer_installs_and_uninstalls_cleanly():
    before = _snapshot()
    tracer = load_bench_module("tracer").Tracer()
    try:
        tracer.install()
        during = _snapshot()
        patched = {(getattr(ns, "__name__", ns), attr)
                   for (ns, attr), value in during.items()
                   if before.get((ns, attr)) is not value}
        for key in [("RegularizedMartingale", "approx"),
                    ("RegularizedMartingale", "value"),
                    ("CylinderPos", "plus"), ("CylinderPos", "minus"),
                    ("cantorbet.martingale", "regularize")]:
            assert key in patched, key
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert [key for key, value in after.items()
            if before[key] is not value] == []


def test_traced_smoke_run_counts_every_layer(tmp_path):
    # the package's functions are read through their modules, so that the
    # tracer's replacements are the ones called
    oracle = tmp_path / "table.orc"
    oracle.write_text("~ 11\n0 10110\n01 1\ndefault 0\n")
    nu = uniform()
    half = {"": Dyadic(1, 1), "0": Dyadic(3, 2), "1": Dyadic(1, 2),
            "00": Dyadic(7, 3), "01": Dyadic(5, 3),
            "10": Dyadic(1, 2), "11": Dyadic(1, 2)}
    tracer = load_bench_module("tracer").Tracer()
    try:
        tracer.install()
        lam = martingale.regularize(
            martingale.TableMartingale(half, 2, nu), nu)
        m = diagonal.capital_margin(lam, "")
        diagonal.conservation_check(lam, nu, "", m, 12)
        assert cli.run(["measure-value", "--expr", "(cup (cyl 00) (cyl 01))",
                        "--measure", "uniform", "--precision", "5"]) == 0
        assert cli.run(["eval", "--term", "(ap)", "--oracle", str(oracle),
                        "--arg", "0", "--meter"]) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    for name in ["martingale.approx.calls", "martingale.value.calls",
                 "measure.mass.calls", "splitting.apply.calls",
                 "diagonal.steps", "funalg.steps", "cli.calls"]:
        assert metrics[name]["value"] > 0, name
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {layer["name"] for layer in bench["per_layer"]} \
        - {"trace.overhead_pct"}
