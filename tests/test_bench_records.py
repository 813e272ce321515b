"""The committed benchmark records (`BENCH_*.json`): each names its change,
command, host, method and parent commit, and gives per workload the number
of run pairs and both sides' results in `perfbench/run.py`'s format, with
the end-to-end metrics that `BENCHMARK.json` declares."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
END_TO_END = {m["name"]: m["unit"] for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def test_records_exist():
    assert len(RECORDS) >= 2


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_fields(path):
    record = json.loads(path.read_text())
    assert set(record) == {"change", "command", "host", "method", "parent",
                           "workloads"}
    assert record["workloads"]
    for name, workload in record["workloads"].items():
        assert set(workload) == {"pairs", "parent", "change"}, name
        assert isinstance(workload["pairs"], int) and workload["pairs"] >= 1, \
            name
        for side in ("parent", "change"):
            result = workload[side]
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, (name, side)
            assert result["correct"] is True and result["failed"] == 0, \
                (name, side)
            metrics = result["metrics"]
            assert {m: v["unit"] for m, v in metrics.items()} == END_TO_END, \
                (name, side)
            assert all(isinstance(v["value"], (int, float))
                       for v in metrics.values()), (name, side)
