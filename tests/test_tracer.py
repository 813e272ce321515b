"""The benchmark's tracer against the package: every name it patches
exists, and uninstalling puts every original back.

`perfbench/tracer.py` patches public calls of `cantorbet` by name (for
example `approx` in `RegularizedMartingale.__dict__`, the `plus`/`minus`
views of each splitting operator, `regularize`).  A change to the package
that drops or moves one of those names breaks the traced benchmark run;
this test catches it without running the benchmark.
"""

from __future__ import annotations

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import cantorbet

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    # loaded from its file, leaving no bytecode beside it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def test_tracer_installs_and_uninstalls_cleanly(monkeypatch):
    before = _snapshot()
    tracer = _load_tracer(monkeypatch).Tracer()
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
