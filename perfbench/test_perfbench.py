"""Tiny-scale self-test of the benchmark.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from spans import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Flows per template relative to the committed size. The recorded digests
# hold only for the committed size, so every test checks against a digest
# file of its own.
SCALE = 0.2


@pytest.fixture(autouse=True)
def digests(tmp_path, monkeypatch):
    path = tmp_path / "digests.json"
    path.write_text("{}")
    monkeypatch.setattr(run, "DIGESTS", str(path))
    return path


def _spec() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _assert_schema(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {
        name: v["unit"] for name, v in result["metrics"].items()
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_benchmark_json_matches_the_code():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, u) for n, u, _ in LAYERS]
    assert spec["paths"] == ["perfbench"]


def test_end_to_end_schema():
    result = run.run_workload("ingest-dup", seed=3, seconds=0, trace=False, scale=SCALE)
    _assert_schema(result, _spec()["end_to_end"])


def test_traced_run_sees_the_right_calls():
    result = run.run_workload("snapshot-sweep", seed=3, seconds=0, trace=True, scale=SCALE)
    _assert_schema(result, _spec()["per_layer"])
    value = {name: v["value"] for name, v in result["metrics"].items()}
    assert value["labeling.calls_per_record"] == 2.0
    assert value["forest.train.calls"] == value["evaluation.cells"] == 42
    # The meter stage reads back every PF file it wrote, one per default trigger.
    assert value["dataset.read_csv.meter_stage_calls"] == 31


def test_missing_sources_exit_without_a_result(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    assert run.main(["--workload", "ingest-dup", "--seed", "0", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


@pytest.fixture()
def bench(tmp_path):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    b = run.Bench(WORKLOADS["ingest-dup"], seed=5, scale=SCALE, run_dir=str(run_dir))
    assert b.set_up(builds=2)
    assert b.pipeline("first", traced=False) is not None
    assert not b.tally.failures
    return b


def test_corrupted_output_fails_the_recorded_digest(bench, digests):
    (recorded,) = bench.digests
    digests.write_text(json.dumps({"ingest-dup": {"5": recorded}}))
    bench.check("again")
    assert not bench.tally.failures
    path = os.path.join(bench.run_dir, "out", "pf_pc_2.csv")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(".", "0.", 1))  # one changed digit, still valid CSV
    attempted = bench.tally.attempted
    bench.check("corrupted")
    assert bench.tally.attempted == attempted + 1
    assert len(bench.tally.failures) == 1
    assert f"differs from the recorded {recorded[:12]}" in bench.tally.failures[0]


def test_mislabelled_flow_fails_the_truth_check(bench):
    some_hash = next(iter(bench.truth))
    bench.truth[some_hash] = "NOT-A-LABEL"
    bench.check("relabelled")
    assert len(bench.tally.failures) == 1
    assert "1 mislabelled" in bench.tally.failures[0]
