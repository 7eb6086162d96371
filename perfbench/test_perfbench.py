"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q

Each workload runs traced (which also runs it untraced) and must emit every
metric BENCHMARK.json names; a corrupted oracle result must be caught; the
same seed must repeat the work counters exactly.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pyarrow as pa
import pytest

from perfbench import harness, run, trace, workloads

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
REPEATED_COUNTERS = ("merge.files_written", "merge.rows_written_per_event",
                     "manifest.dir_bytes")


def _tiny(workload, seed=3, trace_on=True):
    return run.run(workload, seed, 2, trace_on, workloads.TINY)


def test_spec_matches_code():
    assert WORKLOADS == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} \
        == trace.LAYER_METRICS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric_and_repeats_counters(workload):
    first, record = _tiny(workload)
    assert first["correct"] and first["failed"] == 0 and first["attempted"] > 0
    assert set(first) == {"correct", "attempted", "failed", "metrics"}
    for m in SPEC["per_layer"]:
        got = first["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float))
    for m in SPEC["end_to_end"]:
        value = record["end_to_end"][m["name"]]
        assert isinstance(value, float) and value > 0, (m["name"], value)
    assert record["spans"] and all(
        s["end"] >= s["start"] and s["workload"] == workload
        for s in record["spans"])

    again, _ = _tiny(workload)
    for name in REPEATED_COUNTERS:
        assert again["metrics"][name] == first["metrics"][name], name


def test_corrupted_expected_result_is_caught(monkeypatch):
    real = workloads.expected_final_table

    def corrupted(events):
        want = real(events)
        text = want["text"].to_pylist()
        text[0] = "corrupted"
        i = want.schema.get_field_index("text")
        return want.set_column(i, "text", pa.array(text, pa.string()))

    monkeypatch.setattr(workloads, "expected_final_table", corrupted)
    result, record = _tiny("backfill", trace_on=False)
    assert not result["correct"] and result["failed"] >= 1
    assert any("differs from oracle" in e for e in record["untraced"]["errors"])


def test_cli_prints_one_result_line():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "backfill",
         "--seed", "5", "--seconds", "1", "--trace", "0"],
        cwd=harness.ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    lines = out.stdout.splitlines()
    assert len(lines) == 1
    result = json.loads(lines[0])
    assert list(result["metrics"]) == list(run.END_TO_END)


def test_fails_without_the_engine(tmp_path):
    shutil.copytree(harness.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tail", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0 and out.stdout == ""
