"""Shape of the committed benchmark records (``BENCH_*.json`` at the
repository root): what changed, against which parent, how it was run,
what it claims, on which machine, and every run with its pair design."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
TOP_KEYS = {"change", "parent", "command", "claim", "environment", "runs"}
RUN_KEYS = {"workload", "seed", "side", "design", "first", "correct", "metrics"}


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_shape(path):
    record = json.loads(path.read_text())
    assert TOP_KEYS <= record.keys(), f"missing {sorted(TOP_KEYS - record.keys())}"
    assert record["runs"], "no runs"
    for i, run in enumerate(record["runs"]):
        assert RUN_KEYS <= run.keys(), f"run {i} missing {sorted(RUN_KEYS - run.keys())}"
        assert run["side"] in ("parent", "change"), f"run {i}"
        assert isinstance(run["correct"], bool), f"run {i}"
        assert run["metrics"] and all(
            isinstance(v, (int, float)) for v in run["metrics"].values()), f"run {i}"


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_claim_names_a_benchmark_metric_with_runs_on_both_sides(path):
    record = json.loads(path.read_text())
    claim = record["claim"]
    if claim is None:
        return
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert claim["metric"] in {m["name"] for m in bench["end_to_end"]}, claim
    assert claim["workload"] in {w["name"] for w in bench["workloads"]}, claim
    sides = {run["side"] for run in record["runs"]
             if run["workload"] == claim["workload"] and claim["metric"] in run["metrics"]}
    assert sides == {"parent", "change"}, f"claimed workload has runs on {sorted(sides)}"
