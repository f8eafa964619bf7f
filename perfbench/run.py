"""FitAct reproduction benchmark: campaigns, coordinated drains, serving and
bound post-training, with a traced per-layer breakdown.

Run from the root of a checkout::

    python3 perfbench/run.py --workload campaign-resnet18 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
fixed work twice, untraced and then with timing wrappers around the
program's layer functions, and prints the per-layer metrics, each beside
the end-to-end metric it should move.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A correctness failure exits with code 1.  See
``perfbench/README.md`` for the design.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def _metric(value: float, unit: str) -> dict[str, object]:
    return {"value": float(value), "unit": unit}


def _print_table(rows: list[tuple[str, float, str, str]]) -> None:
    for name, value, unit, note in rows:
        print(f"  {name:<36} {value:>14.6g} {unit:<6} {note}")


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def _run_pass(workload, probes=None, repeats: int = 1):
    """Set up (``repeats`` times, keeping the last), measure, check.

    Returns ``(setup_times, measured, check, peak_rss_mb, extra, window)``
    where ``window`` spans the last set-up and the measurement.  Every
    state is torn down, including on error, so no server outlives a run.
    """
    setups: list[float] = []
    state = None
    try:
        for _ in range(repeats):
            if state is not None:
                workload.teardown(state)
                state = None
            start = time.perf_counter()
            state = workload.setup(probes)
            setups.append(time.perf_counter() - start)
        measured = workload.measure(state)
        window = (start, time.perf_counter())
        if probes is not None:
            probes.uninstall()
        rss = workload.peak_rss_mb() if workload.in_process else 0.0
        extra = workload.layer_metrics(state) if probes is not None else {}
        check = workload.check(state, measured)
    finally:
        if probes is not None:
            probes.uninstall()
        if state is not None:
            workload.teardown(state)
    if not workload.in_process:
        rss = workload.peak_rss_mb()
    return setups, measured, check, rss, extra, window


def _layer_rows(recorder, measured, window, untraced, extra):
    from probes import LAYER_METRICS, SPANS

    wall = window[1] - window[0]
    summary = recorder.summary()
    counters = recorder.counters
    values: dict[str, float] = {}
    for name in SPANS:
        row = summary.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        values[f"{name}.calls"] = row["calls"]
        values[f"{name}.busy_s"] = row["busy_s"]
        values[f"{name}.self_s"] = row["self_s"]
        values[f"{name}.share"] = row["busy_s"] / wall

    def ratio(num: str, den: float) -> float:
        return counters.get(num, 0.0) / den if den else 0.0

    forward_rows = sum(
        span.args.get("rows", 0) for span in recorder.spans if span.name == "serve.forward"
    )
    forward_calls = summary.get("serve.forward", {}).get("calls", 0)
    lane_calls = summary.get("eval.lane_accuracies", {}).get("calls", 0)
    values.update(
        {
            "coord.fenced": counters.get("coord.fenced", 0.0),
            "coord.steals": counters.get("coord.steals", 0.0),
            "runtime.suffix_frac": ratio(
                "runtime.suffix_steps", counters.get("runtime.suffix_lanes", 0.0)
            ),
            "eval.lanes_per_call": ratio("eval.lanes", lane_calls),
            "eval.zero_flip_frac": ratio(
                "eval.zero_flip_lanes", counters.get("eval.lanes", 0.0)
            ),
            "fault.flips_per_trial": ratio(
                "fault.sampled_flips", summary.get("fault.sample", {}).get("calls", 0)
            ),
            "serve.rows_per_forward": forward_rows / max(1, forward_calls),
            "serve.server_batches": 0.0,
            "serve.server_mean_batch": 0.0,
            "serve.server_errors": 0.0,
            "wall_s": wall,
            "unattributed_s": wall - recorder.top_level_cover(*window),
            "trace_overhead_per_s": untraced - measured.throughput,
        }
    )
    values.update(extra)
    return [
        (name, values.get(name, 0.0), unit, moves)
        for name, unit, _better, moves in LAYER_METRICS
    ]


def _open_workload(name: str, seed: int, seconds: float):
    """Import the program modules the workload uses, then build it.

    Returns ``(workload, imports_s)``; import time is measured from
    process start, because a user's process pays it before any set-up.
    """
    from workloads import WORKLOADS

    workload_cls = WORKLOADS[name]
    for module in workload_cls.modules:
        importlib.import_module(module)
    imports_s = time.perf_counter() - PROCESS_START
    workdir = WORKDIR / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return workload_cls(seed, seconds, workdir), imports_s


def setup_only(name: str, seed: int, seconds: float) -> float:
    """One cold set-up in this fresh process: seconds from process start."""
    workload, _imports_s = _open_workload(name, seed, seconds)
    try:
        workload.prepare()
        state = workload.setup()
        elapsed = time.perf_counter() - PROCESS_START
        workload.teardown(state)
    finally:
        shutil.rmtree(workload.workdir, ignore_errors=True)
    return elapsed


def _cold_setups(name: str, seed: int, seconds: float, count: int) -> list[float]:
    """``setup_only`` in ``count`` fresh processes, one after another."""
    times = []
    for _ in range(count):
        completed = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", f"{seconds:g}", "--setup-only",
            ],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
        )
        times.append(float(completed.stdout.strip().splitlines()[-1]))
    return times


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict[str, object]:
    from fingerprint import cpu_steal, fingerprint
    from loadgen import percentile, resolvable_percentile
    from workloads import SETUP_REPEATS

    workload, imports_s = _open_workload(name, seed, seconds)
    print(f"# {name} seed {seed} seconds {seconds:g} trace {int(trace)}")
    print(f"# machine {json.dumps(fingerprint(), sort_keys=True)}")
    # A server launch is a cold process already; in-process workloads time
    # their other cold set-ups in fresh processes (import time included).
    repeats = SETUP_REPEATS if not workload.in_process and not trace else 1
    try:
        workload.prepare()
        steal_before = cpu_steal()
        setups, measured, (attempted, failed, problems), rss, _, _ = _run_pass(
            workload, repeats=repeats
        )
        steal_after = cpu_steal()
        if trace:
            layer_rows, traced_check = _traced_pass(workload, measured)
            attempted += traced_check[0]
            failed += traced_check[1]
            problems += traced_check[2]
    finally:
        shutil.rmtree(workload.workdir, ignore_errors=True)
    if workload.in_process and not trace:
        setups = [imports_s + setups[0]] + _cold_setups(
            name, seed, seconds, SETUP_REPEATS - 1
        )
    for problem in problems:
        print(f"# check failed: {problem}")
    count = len(measured.latencies_ms)
    print(
        f"# work: {measured.units} units in {measured.elapsed:.3f}s; "
        f"set-ups {[round(s, 4) for s in setups]}"
    )
    # Tails are printed, not gated: see perfbench/README.md.
    print(
        f"# {count} latency samples: p90 {percentile(measured.latencies_ms, 90.0):.4g} ms, "
        f"p99 {percentile(measured.latencies_ms, 99.0):.4g} ms; highest percentile "
        f"with 10 samples beyond it: {resolvable_percentile(count)}"
    )
    for key, value in sorted(measured.extra.items()):
        if not key.startswith("window"):
            print(f"# {key} {value:.6g}")
    if measured.blocks:
        print(f"# block seconds {[round(b, 4) for b in measured.blocks]}")
    if steal_before and steal_after and steal_after[1] > steal_before[1]:
        # Neighbours' load shows here; compare runs with similar steal.
        share = (steal_after[0] - steal_before[0]) / (steal_after[1] - steal_before[1])
        print(f"# cpu steal {share:.4f} of all cpu time during the untraced pass")
    if trace:
        print("# per-layer metrics (value, unit, end-to-end metric it should move):")
        _print_table(layer_rows)
        metrics = {row[0]: _metric(row[1], row[2]) for row in layer_rows}
    else:
        setup_s = statistics.median(setups)
        values = {
            "setup_s": setup_s,
            "throughput_per_s": measured.throughput,
            "p50_ms": measured.p50_ms,
            "peak_rss_mb": rss,
        }
        metrics = {key: _metric(values[key], unit) for key, unit in END_TO_END}
        _print_table([(key, values[key], unit, "") for key, unit in END_TO_END])
    return {
        "correct": failed == 0 and not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }


def _traced_pass(workload, untraced):
    """The same fixed work again, with every layer probe installed."""
    from fingerprint import fingerprint
    from probes import Probes
    from spans import Span, SpanRecorder

    recorder = SpanRecorder()
    probes = Probes(recorder)
    _setups, measured, check, _rss, extra, window = _run_pass(workload, probes=probes)
    if not workload.in_process:
        # Serve spans come from the server process; perf_counter is the
        # system-wide monotonic clock, so both processes share one timeline.
        window = (measured.extra["window_start"], measured.extra["window_end"])
        dump = json.loads((workload.workdir / "server-spans.json").read_text())
        recorder.spans = [
            Span(**span)
            for span in dump["spans"]
            if window[0] <= span["start"] <= window[1]
        ]
        recorder.counters = dump["counters"]
    trace_dir = WORKDIR / "traces"
    path = recorder.write_chrome_trace(
        str(trace_dir / f"trace-{workload.name}-seed{workload.seed}.json"),
        {"workload": workload.name, "seed": workload.seed, "machine": fingerprint()},
    )
    print(f"# chrome trace: {os.path.relpath(path, ROOT)}")
    rows = _layer_rows(recorder, measured, window, untraced.throughput, extra)
    return rows, check


# ----------------------------------------------------------------------
# Every workload
# ----------------------------------------------------------------------
def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a fresh process; prints every metric by name."""
    from workloads import WORKLOADS

    combined: dict[str, object] = {}
    correct = True
    attempted = failed = 0
    for name in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(int(trace)),
        ]
        completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"# {name}: no result (exit code {completed.returncode})")
            correct = False
            continue
        correct = correct and bool(result["correct"]) and completed.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        print(f"# {name}: attempted {result['attempted']}, failed {result['failed']}")
        for metric, entry in result["metrics"].items():
            combined[f"{name}/{metric}"] = entry
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": combined}
        )
    )
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(
            f"error: {SRC / 'repro'} not found; run from the root of a "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all"
        )
    if args.setup_only:
        print(setup_only(args.workload, args.seed, args.seconds))
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
