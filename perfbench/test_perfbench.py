"""Self-tests of the benchmark's own helpers, plus a tiny run of each workload.

Run with ``python -m pytest -q perfbench`` from the root of a checkout.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from loadgen import (
    Exchange,
    latencies_ms,
    lateness_ms,
    open_loop,
    percentile,
    resolvable_percentile,
    samples_beyond,
)
from probes import LAYER_METRICS
from spans import Span, SpanRecorder, interval_union, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


# ----------------------------------------------------------------------
# Percentile rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "count, expected",
    [(19, None), (20, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0), (10000, 99.9)],
)
def test_highest_percentile_with_ten_samples_beyond(count, expected):
    assert resolvable_percentile(count) == expected
    if expected is not None:
        assert samples_beyond(count, expected) >= 10


def test_percentile_is_a_measured_value():
    values = list(range(1, 1001))
    assert percentile(values, 50.0) == 500
    assert percentile(values, 99.0) == 990
    assert sum(v > percentile(values, 99.0) for v in values) == 10
    assert percentile([3.0], 99.0) == 3.0


# ----------------------------------------------------------------------
# Open-loop due times and lateness
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def stalling_sender(clock: FakeClock, stall_index: int = 2):
    """Answers each request after 10 ms; request ``stall_index`` takes 350 ms."""
    calls = []

    def send(_body: bytes) -> tuple[int, bytes]:
        clock.now += 0.35 if len(calls) == stall_index else 0.01
        calls.append(_body)
        return 200, b"{}"

    return send


def test_open_loop_charges_a_stall_to_every_request_it_delays():
    clock = FakeClock()
    exchanges = open_loop(
        stalling_sender(clock), [b"{}"], rate=10.0, count=6, callers=1,
        clock=clock, sleep=clock.sleep,
    )
    start = exchanges[0].due
    assert [round(ex.due - start, 9) for ex in exchanges] == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    # Request 2 (due 0.2) takes 350 ms, so 3 and 4 go out late at 0.55
    # and 0.56; latency counts from the due time, lateness included.
    assert exchanges[3].lateness == pytest.approx(0.25)
    assert exchanges[3].latency == pytest.approx(0.26)
    assert exchanges[4].lateness == pytest.approx(0.16)
    assert exchanges[5].lateness == pytest.approx(0.07)
    assert exchanges[1].lateness == pytest.approx(0.0)
    assert lateness_ms(exchanges)["late_max_ms"] == pytest.approx(250.0)
    assert percentile(latencies_ms(exchanges), 50.0) == pytest.approx(80.0)


def test_refused_requests_miss_every_latency_limit():
    ok = [Exchange(i, 0.0, 0.0, 0.001, 200, b"") for i in range(9)]
    refused = Exchange(9, 0.0, 0.0, 0.001, 429, b"")
    assert percentile(latencies_ms(ok + [refused]), 99.0) == math.inf


# ----------------------------------------------------------------------
# Block quartiles
# ----------------------------------------------------------------------
def test_first_quartile_ignores_blocks_a_neighbour_slowed():
    from workloads import first_quartile

    assert first_quartile([1.2, 1.0, 5.0]) == 1.0
    # Seven of ten blocks stalled: the third quickest is still unstalled.
    assert first_quartile([9.0, 1.1, 9.5, 8.0, 1.0, 7.5, 9.9, 1.2, 8.8, 9.1]) == 1.2


# ----------------------------------------------------------------------
# Spans and self time
# ----------------------------------------------------------------------
def test_interval_union_merges_overlaps():
    assert interval_union([(1, 3), (2, 5), (7, 8)]) == 5
    assert interval_union([]) == 0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, "parent", 0.0, 10.0, None, 1),
        Span(1, "a", 1.0, 3.0, 0, 1),
        Span(2, "b", 2.0, 5.0, 0, 2),  # overlaps a (another thread)
        Span(3, "c", 7.0, 8.0, 0, 1),
        Span(4, "grandchild", 7.2, 7.7, 3, 1),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(5.0)
    assert selfs[3] == pytest.approx(0.5)
    assert selfs[4] == pytest.approx(0.5)


def test_recorder_nests_spans_per_thread_and_covers_top_level():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)
    outer = recorder.open("outer")
    clock.sleep(1.0)
    inner = recorder.open("inner")
    clock.sleep(2.0)
    inner_span = recorder.close(inner)
    clock.sleep(1.0)
    outer_span = recorder.close(outer)
    assert inner_span.parent == outer_span.id
    assert outer_span.parent is None
    summary = recorder.summary()
    assert summary["outer"] == {"calls": 1, "busy_s": 4.0, "self_s": 2.0}
    assert recorder.top_level_cover(outer_span.start - 1, outer_span.end + 1) == 4.0


def test_benchmark_json_matches_the_catalogue():
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [c.why for c in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        row[:3] for row in LAYER_METRICS
    ]


# ----------------------------------------------------------------------
# Tiny runs
# ----------------------------------------------------------------------
def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize(
    "workload",
    ["campaign-resnet18", "campaign-lenet-coord", "serve-lenet", "protect-resnet18"],
)
def test_tiny_run_of_each_workload(workload):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    completed = _run(
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0"
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_tiny_traced_run_reports_every_layer_metric():
    completed = _run(
        "--workload", "campaign-lenet-coord", "--seed", "3", "--seconds", "1", "--trace", "1"
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert list(result["metrics"]) == [row[0] for row in LAYER_METRICS]
    assert result["metrics"]["store.scan_progress.calls"]["value"] > 0
    trace = ROOT / ".perfbench" / "traces" / "trace-campaign-lenet-coord-seed3.json"
    assert json.loads(trace.read_text())["traceEvents"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    completed = _run("--workload", "campaign-resnet18", "--seed", "1", cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
