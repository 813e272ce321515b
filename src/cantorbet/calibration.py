"""Measured evaluator-overhead constants for bound checking.

The metered evaluator charges bookkeeping steps that a raw machine
model would not, so growth-bound checks allow an additive slack.
EVALUATOR_MARGIN was fixed by running the reference workloads below and
rounding the worst observed slack up with headroom; recalibrate()
re-runs them so a test can confirm the frozen value still covers the
implementation.
"""

from __future__ import annotations

from .funalg import (
    Meter, Oracle, Pad, check_bound, length_term, parse_secpoly,
)

__all__ = [
    "EVALUATOR_MARGIN",
    "recalibrate",
]

EVALUATOR_MARGIN = 8


def _pad_steps_slack(max_len: int = 12) -> int:
    """Least c with steps(pad 1 on 1^n) <= n*n + c for n up to max_len."""
    worst = 0
    for n in range(max_len + 1):
        meter = Meter()
        Pad(1).evaluate((), ("1" * n,), meter)
        worst = max(worst, meter.steps - n * n)
    return worst


def _length_space_slack(sizes=(0, 2, 4, 6)) -> int:
    """Least c making the space bound hold for the length functional.

    Checks max intermediate length against (L1(n1) + n1 + c)^2 for a
    worst-case-ish pair of oracles: one answering nothing anywhere and
    one with long answers.
    """
    oracles = [
        Oracle(lambda w: ""),
        Oracle(lambda w: w + w + "1"),
    ]
    term = length_term()
    worst = 0
    for f in oracles:
        for n in sizes:
            for c in range(0, 64):
                poly = parse_secpoly(f"g1(L1(n1) + n1 + {c})")
                if check_bound(term, poly, (f,), ("1" * n,)).within_length:
                    worst = max(worst, c)
                    break
            else:
                raise AssertionError("no margin under 64 fits")
    return worst


def recalibrate() -> dict[str, int]:
    """Re-measure the slacks the frozen margin has to cover."""
    return {
        "pad_steps": _pad_steps_slack(),
        "length_space": _length_space_slack(),
    }
