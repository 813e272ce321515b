"""Spans and counts around the program's public calls, for the traced run.

The tracer replaces functions and methods of the `cantorbet` modules with
wrappers that time each call.  Every call is a span (name, start, end,
parent); a span's self time is its duration minus the time its child spans
cover.  Calls into the hot leaf layers (Dyadic arithmetic, cylinder mass,
the transfer, canonical rounding) and the exact regularization route's
recursive `value` calls run up to millions of times, so for them only the
per-name totals are kept; every other span is also kept in memory as a
record and written out when the run ends.
"""

from __future__ import annotations

import json
import sys
import time

# per-name aggregates only, no span records
HOT = frozenset({"core.dyadic", "core.frac_round_at", "measure.mass",
                 "realfun.robin_hood_exact", "martingale.value"})

_DYADIC_METHODS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__abs__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__",
    "round_at", "mantissa_at", "to_fraction", "render",
)


class Tracer:
    """Installs the wrappers, records spans and counts, reports metrics."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.max_den_bits = 0
        self.diagonal_steps = 0
        self.funalg = {"steps": 0, "max_len": 0, "oracle_queries": 0}
        self._stack: list[list] = []   # [name, start, child_s, span_id]
        self._undo: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _enter(self, name):
        span_id = -1
        if name not in HOT:
            span_id = len(self.spans)
            self.spans.append(None)
        frame = [name, time.perf_counter(), 0.0, span_id]
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        name, start, child_s, span_id = frame
        dur = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child_s
        self.total_s[name] = self.total_s.get(name, 0.0) + dur
        if stack:
            stack[-1][2] += dur
        if span_id >= 0:
            parent = stack[-1][3] if stack else -1
            self.spans[span_id] = (name, start, end, parent)

    def wrap(self, name, fn, after=None):
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            frame = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(frame)
            if after is not None:
                after(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, name, after=None):
        orig = owner.__dict__[attr]
        setattr(owner, attr, self.wrap(name, orig, after))
        self._undo.append((owner, attr, orig))

    def _patch_function(self, module, attr, name, after=None):
        """Replace a module function everywhere the package bound it."""
        orig = getattr(module, attr)
        traced = self.wrap(name, orig, after)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("cantorbet") \
                    and getattr(mod, attr, None) is orig:
                setattr(mod, attr, traced)
                self._undo.append((mod, attr, orig))

    def install(self):
        from cantorbet import cli, core, diagonal, funalg, martingale, \
            measure, realfun, splitting

        for attr in _DYADIC_METHODS:
            self._patch(core.Dyadic, attr, "core.dyadic")
        self._patch_function(core, "frac_round_at", "core.frac_round_at")
        self._patch(measure.ProbabilityMeasure, "mass", "measure.mass")
        self._patch_function(measure, "load_measure", "measure.load")
        self._patch_function(realfun, "robin_hood_exact",
                             "realfun.robin_hood_exact")
        reg = martingale.RegularizedMartingale
        self._patch(reg, "value", "martingale.value", self._after_value)
        self._patch(reg, "approx", "martingale.approx")
        self._patch_function(martingale, "regularize", "martingale.regularize")
        self._patch_function(martingale, "load_martingale", "martingale.load")
        for cls in (splitting.CylinderNull, splitting.CylinderPos,
                    splitting.Complement, splitting.IntersectUnion,
                    splitting.LimitMeasurement):
            for attr in ("plus", "minus"):
                self._patch(cls, attr, "splitting.apply")
        self._patch_function(splitting, "parse_operator", "splitting.parse")
        self._patch_function(diagonal, "conservation_check",
                             "diagonal.conservation_check", self._after_walk)
        self._patch_evaluate(funalg)
        self._patch_function(funalg, "parse_term", "funalg.parse")
        self._patch_function(funalg, "load_oracle", "funalg.load_oracle")
        self._patch_function(cli, "run", "cli.run")

    def _patch_evaluate(self, funalg):
        """Term.evaluate, with a meter passed in so its totals can be read."""
        orig = funalg.Term.__dict__["evaluate"]
        traced = self.wrap("funalg.evaluate", orig)
        ledger = self.funalg

        def evaluate(term, oracles=(), args=(), meter=None):
            if meter is None:
                meter = funalg.Meter()
            result = traced(term, oracles, args, meter)
            ledger["steps"] += meter.steps
            ledger["max_len"] = max(ledger["max_len"], meter.max_len)
            ledger["oracle_queries"] += len(meter.oracle_log)
            return result

        funalg.Term.evaluate = evaluate
        self._undo.append((funalg.Term, "evaluate", orig))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- ledgers fed from results -----------------------------------------

    def _after_value(self, result, args, kwargs):
        bits = result.denominator.bit_length()
        if bits > self.max_den_bits:
            self.max_den_bits = bits

    def _after_walk(self, report, args, kwargs):
        self.diagonal_steps += len(report.steps)

    # -- output ------------------------------------------------------------

    def metrics(self) -> dict:
        def calls(name):
            return self.calls.get(name, 0)

        def ms(table, name):
            return table.get(name, 0.0) * 1000.0

        out = {
            "core.dyadic.calls": (calls("core.dyadic"), "count"),
            "core.dyadic.self_ms": (ms(self.self_s, "core.dyadic"), "ms"),
            "core.frac_round_at.calls": (calls("core.frac_round_at"), "count"),
            "measure.mass.calls": (calls("measure.mass"), "count"),
            "measure.mass.self_ms": (ms(self.self_s, "measure.mass"), "ms"),
            "measure.load.self_ms": (ms(self.self_s, "measure.load"), "ms"),
            "martingale.load.self_ms": (ms(self.self_s, "martingale.load"),
                                        "ms"),
            "realfun.robin_hood_exact.calls":
                (calls("realfun.robin_hood_exact"), "count"),
            "realfun.robin_hood_exact.self_ms":
                (ms(self.self_s, "realfun.robin_hood_exact"), "ms"),
            "martingale.approx.calls": (calls("martingale.approx"), "count"),
            "martingale.approx.self_ms": (ms(self.self_s, "martingale.approx"),
                                          "ms"),
            "martingale.value.calls": (calls("martingale.value"), "count"),
            "martingale.value.self_ms": (ms(self.self_s, "martingale.value"),
                                         "ms"),
            "martingale.regularize.calls": (calls("martingale.regularize"),
                                            "count"),
            "martingale.max_den_bits": (self.max_den_bits, "bits"),
            "splitting.apply.calls": (calls("splitting.apply"), "count"),
            "splitting.apply.self_ms": (ms(self.self_s, "splitting.apply"),
                                        "ms"),
            "splitting.parse.self_ms": (ms(self.self_s, "splitting.parse"),
                                        "ms"),
            "diagonal.steps": (self.diagonal_steps, "count"),
            "diagonal.conservation_check.total_ms":
                (ms(self.total_s, "diagonal.conservation_check"), "ms"),
            "funalg.steps": (self.funalg["steps"], "count"),
            "funalg.max_len": (self.funalg["max_len"], "count"),
            "funalg.oracle_queries": (self.funalg["oracle_queries"], "count"),
            "funalg.evaluate.self_ms": (ms(self.self_s, "funalg.evaluate"),
                                        "ms"),
            "funalg.parse.self_ms": (ms(self.self_s, "funalg.parse"), "ms"),
            "cli.calls": (calls("cli.run"), "count"),
            "cli.run.self_ms": (ms(self.self_s, "cli.run"), "ms"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}

    def write_spans(self, path):
        with open(path, "w", encoding="ascii") as fh:
            for span_id, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent = span
                fh.write(json.dumps({"id": span_id, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent}) + "\n")
