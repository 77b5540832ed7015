"""The benchmark's own checks, on tiny corpora.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import core
import tracing
from workloads import WORKLOADS, generate

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], n_utts=3)


def run(name: str, seed: int, trace: bool, tmp_path: Path) -> core.Result:
    w = tiny(name)
    files, refs = core.prepare(w, seed, tmp_path)
    if trace:
        return core.run_traced(files, refs, tmp_path, 0.0, tracing.Tracer())
    return core.run_untraced(files, refs, tmp_path, 0.0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    a, b = generate(tiny(name), 11), generate(tiny(name), 11)
    assert (a.lexicon_text, a.arpa_text, a.refs) == (b.lexicon_text, b.arpa_text, b.refs)
    for (ua, ma), (ub, mb) in zip(a.utts, b.utts):
        assert ua == ub and np.array_equal(ma.values, mb.values)
    c = generate(tiny(name), 12)
    assert [m.values.tobytes() for _, m in a.utts] != [m.values.tobytes() for _, m in c.utts]


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why


@pytest.mark.parametrize("trace,key", [(False, "end_to_end"), (True, "per_layer")])
def test_every_named_metric_is_reported_with_its_unit(trace, key, tmp_path):
    result = run("blank_heavy", 1, trace, tmp_path)
    assert {k: u for k, (_, u) in result.metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC[key]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_non_default_seed_runs_clean(name, tmp_path):
    result = run(name, 987654, trace=True, tmp_path=tmp_path)
    assert result.failed == 0 and result.attempted > 0
    assert result.metrics["posterior.frames"][0] > result.metrics["compress.rows_out"][0]


def test_mismatched_stage_replay_fails_the_run(tmp_path, monkeypatch):
    # Keeping the disambiguation symbols drops every path through a word
    # whose pronunciation prefixes another's, so the replay cannot match.
    monkeypatch.setattr(core, "relabel_input_epsilon", lambda f, labels: f)
    with pytest.raises(core.GateError, match="stage replay"):
        run("blank_heavy", 1, trace=True, tmp_path=tmp_path)


def test_a_pass_that_differs_from_the_first_fails_the_gate(tmp_path, monkeypatch):
    real = core.decode_batch
    calls = []

    def drifting(graph, utts, cfg, jobs=1):
        batch = real(graph, utts, cfg, jobs=jobs)
        calls.append(1)
        if len(calls) == 3:  # the second ioo_koo pass
            r = batch.results[0]
            batch.results[0] = dataclasses.replace(r, total_cost=r.total_cost + 1e-12)
        return batch

    monkeypatch.setattr(core, "decode_batch", drifting)
    with pytest.raises(core.GateError, match="ioo_koo pass differs"):
        run("blank_heavy", 1, trace=False, tmp_path=tmp_path)


def test_self_time_subtracts_child_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0])
    t = tracing.Tracer(clock=lambda: next(ticks))
    with t.span("pass.x"):
        with t.span("a", "u1"):
            pass
        with t.span("a", "u2"):
            pass
    assert t.self_times() == [6.0, 2.0, 2.0]
    assert t.layer_self_time("pass.x") == [{"pass.x": 6.0, "a": 4.0}]
    assert t.spans[1]["parent"] == 0 and t.spans[2]["utt"] == "u2"


def test_without_the_package_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "blank_heavy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "correct" not in done.stdout
