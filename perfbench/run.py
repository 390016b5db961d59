#!/usr/bin/env python3
"""The LagAlyzer benchmark of record: study, analyze and ingest workloads.

Run from the repository root::

    python3 perfbench/run.py --workload study --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing in between
the benchmark and the program but a speed probe (``probe.py``): the
times it reports, ``setup_s`` and ``pass_cpu_s``, are rescaled to a
machine of nominal speed so that a shared host's drift cancels. ``--trace 1``
alternates untraced passes with passes in which the benchmark spans
every call into a layer's public functions, and prints the per-layer
self times and counts plus the tracing overhead. Every run checks the program's outputs and exits
1 when one is wrong. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

See ``perfbench/README.md`` for the workloads, the metrics, and which
layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout; removed when the run ends.
WORK = ROOT / ".perfbench"

#: Set-ups per run; setup_s is their median. The study's warm-up takes
#: about 2 s; analyze and ingest simulate 28 and 14 sessions, 18 s and
#: 6 s, so they set up once.
SETUP_REPEATS = {"study": 3, "analyze": 1, "ingest": 1}

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_cpu_s": "s",
}

#: The named end-to-end metrics each workload prints beside the generic ones.
NAMED_UNITS = {
    "study_s": "s",
    "analyze_cold_rec_per_s": "1/s",
    "analyze_warm_rec_per_s": "1/s",
    "ingest_rec_per_s": "1/s",
    "ingest_session_p50_ms": "ms",
    "ingest_session_p90_ms": "ms",
    "compact_ms_per_session": "ms",
    "dashboard_p50_ms": "ms",
    "dashboard_p90_ms": "ms",
    "error_rate": "ratio",
}

PER_LAYER_UNITS = {
    "vm.simulate_s": "s",
    "vm.records": "count",
    "store.columnarize_s": "s",
    "store.build_s": "s",
    "store.rows": "count",
    "lila.digest_s": "s",
    "lila.load_text_s": "s",
    "lila.load_binary_s": "s",
    "lila.bytes_read": "bytes",
    "lila.colfile_write_s": "s",
    "lila.colfile_open_s": "s",
    "plan.map_s": "s",
    "plan.episodes": "count",
    "engine.reduce_s": "s",
    "engine.cache_get_s": "s",
    "engine.cache_put_s": "s",
    "engine.cache_hit_ratio": "ratio",
    "engine.cache_lookups": "count",
    "engine.cache_bytes": "bytes",
    "study.render_s": "s",
    "viz.svg_bytes": "bytes",
    "ingest.send_s": "s",
    "ingest.ack_wait_s": "s",
    "ingest.nacks": "count",
    "ingest.retries": "count",
    "ingest.delivery_ratio": "ratio",
    "ingest.delivery_attempts": "count",
    "ingest.records_flushed": "count",
    "warehouse.write_s": "s",
    "warehouse.rows_written": "count",
    "warehouse.write_failures": "count",
    "warehouse.query_top_ms": "ms",
    "warehouse.query_aggregate_ms": "ms",
    "warehouse.query_regression_ms": "ms",
    "warehouse.query_series_ms": "ms",
    "warehouse.query_diff_ms": "ms",
    "trace_overhead_pct": "%",
}

#: Per-layer time metric -> the span names whose self time it sums.
LAYER_SPANS = {
    "vm.simulate_s": ("vm.simulate",),
    "store.columnarize_s": ("store.columnarize",),
    "store.build_s": ("store.build",),
    "lila.digest_s": ("lila.digest",),
    "lila.load_text_s": ("lila.load_text", "lila.parse_text"),
    "lila.load_binary_s": ("lila.load_binary", "lila.parse_binary"),
    "lila.colfile_write_s": ("lila.colfile_write",),
    "lila.colfile_open_s": ("lila.colfile_open",),
    "plan.map_s": ("plan.map",),
    "engine.reduce_s": ("engine.reduce",),
    "engine.cache_get_s": ("engine.cache_get",),
    "engine.cache_put_s": ("engine.cache_put",),
    "study.render_s": ("study.render",),
    "ingest.send_s": ("ingest.send",),
    "ingest.ack_wait_s": ("ingest.ack_wait",),
    "warehouse.write_s": ("warehouse.compact", "warehouse.ingest_trace", "warehouse.write"),
}


def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def machine_stamp(args: argparse.Namespace, size: Dict[str, Any], repro_numpy: Optional[str]) -> Dict[str, Any]:
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "workload_sizes": size,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "REPRO_NUMPY": repro_numpy,
        "git_commit": git_commit(),
    }


def run_passes(workload: Any, args: argparse.Namespace, tracer: Any) -> Dict[str, List[Any]]:
    """Passes until ``--seconds`` is spent; traced runs alternate passes.

    An untraced run also makes at least the workload's ``min_passes``.
    """
    untraced: List[Any] = []
    traced: List[Any] = []
    deadline = time.perf_counter() + args.seconds
    min_passes = workload.size.get("min_passes", 1)
    index = 0
    while True:
        if args.trace and index % 2 == 1:
            with tracer.installed(workload.install_spans):
                with tracer.span("pass"):
                    traced.append(workload.run_pass(index, tracer))
        else:
            untraced.append(workload.run_pass(index, None))
        index += 1
        done = time.perf_counter() >= deadline
        if args.trace:
            done = done and bool(traced)
        else:
            done = done and len(untraced) >= min_passes
        if done:
            return {"untraced": untraced, "traced": traced}


def seconds(interval: Tuple[float, float]) -> float:
    start, end = interval
    return end - start


def end_to_end(
    name: str, setups: List[Tuple[float, float]], passes: List[Any], probe: Optional[Any]
) -> Dict[str, float]:
    """The generic end-to-end metrics plus the workload's named ones.

    ``setup_s`` and ``pass_cpu_s`` are at nominal machine speed when a
    ``probe`` ran; the named metrics are wall clock.
    """
    def nominal(interval: Tuple[float, float]) -> float:
        return probe.nominal_seconds(interval) if probe is not None else seconds(interval)

    def nominal_cpu(p: Any) -> float:
        return probe.nominal_cpu_seconds(p.intervals["pass"][0], p.cpu_s) if probe is not None else p.cpu_s

    def pooled(key: str) -> List[float]:
        return [seconds(interval) for p in passes for interval in p.intervals[key]]

    def per_pass(key: str) -> List[float]:
        return [sum(map(seconds, p.intervals[key])) for p in passes]

    def fastest_per_app(key: str) -> float:
        """Each app's fastest time over the passes, summed."""
        return sum(min(times) for times in zip(*(map(seconds, p.intervals[key]) for p in passes)))

    named: Dict[str, float] = {}
    if name == "study":
        named["study_s"] = statistics.median(pooled("pass"))
    elif name == "analyze":
        records = passes[0].counts["records"]
        named["analyze_cold_rec_per_s"] = records / fastest_per_app("cold")
        named["analyze_warm_rec_per_s"] = records / fastest_per_app("warm")
    else:
        sessions = [value * 1000.0 for value in pooled("session")]
        dashboards = [value * 1000.0 for value in pooled("dashboard")]
        named["ingest_rec_per_s"] = statistics.median(
            p.counts["acked"] / s for p, s in zip(passes, per_pass("stream")))
        named["ingest_session_p50_ms"] = statistics.median(sessions)
        named["ingest_session_p90_ms"] = percentile(sessions, 0.9)
        named["compact_ms_per_session"] = statistics.median(
            s * 1000.0 / len(p.intervals["session"]) for p, s in zip(passes, per_pass("stop")))
        named["dashboard_p50_ms"] = statistics.median(dashboards)
        named["dashboard_p90_ms"] = percentile(dashboards, 0.9)
    generic = {
        "setup_s": statistics.median(map(nominal, setups)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_cpu_s": statistics.median(map(nominal_cpu, passes)),
    }
    return {**generic, **named}


def per_layer(tracer: Any, runs: Dict[str, List[Any]]) -> Dict[str, float]:
    """Per-layer metrics, per traced pass, from the spans and counts."""
    traced = runs["traced"]
    count = len(traced)
    self_times = tracer.self_times()
    metrics: Dict[str, float] = {
        name: sum(self_times.get(span, 0.0) for span in spans) / count
        for name, spans in LAYER_SPANS.items()
    }

    def total(key: str) -> float:
        return sum(p.counts.get(key, 0) for p in traced) + tracer.counts.get(key, 0)

    for name in ("vm.records", "store.rows", "lila.bytes_read", "plan.episodes",
                 "engine.cache_lookups", "engine.cache_bytes", "viz.svg_bytes",
                 "ingest.nacks", "ingest.retries", "ingest.records_flushed",
                 "warehouse.rows_written", "warehouse.write_failures"):
        metrics[name] = total(name) / count
    lookups = total("engine.cache_lookups")
    metrics["engine.cache_hit_ratio"] = total("engine.cache_hits") / lookups if lookups else 0.0
    attempts = total("ingest.batches_sent") + total("ingest.retries")
    metrics["ingest.delivery_attempts"] = attempts / count
    metrics["ingest.delivery_ratio"] = total("ingest.batches_sent") / attempts if attempts else 0.0
    for name in PER_LAYER_UNITS:
        if name.startswith("warehouse.query_"):
            key = name.split(".", 1)[1][: -len("_ms")]
            samples = [seconds(interval) * 1000.0 for p in traced for interval in p.intervals.get(key, ())]
            metrics[name] = statistics.median(samples) if samples else 0.0
    plain, spanned = (
        statistics.median(seconds(p.intervals["pass"][0]) for p in runs[kind])
        for kind in ("untraced", "traced")
    )
    metrics["trace_overhead_pct"] = (spanned / plain - 1.0) * 100.0
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("study", "analyze", "ingest"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="workload sizes; 'tiny' is for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are not at {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    # The benchmark measures the default (pure-Python) kernels.
    repro_numpy = os.environ.pop("REPRO_NUMPY", None)

    import workloads
    from probe import SpeedProbe
    from spans import Tracer

    size = workloads.SIZES[args.size][args.workload]
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    # Untraced runs probe the machine's speed; traced runs leave the
    # spans undisturbed.
    probe = None if args.trace else SpeedProbe()
    try:
        with probe or contextlib.nullcontext():
            workload = workloads.WORKLOADS[args.workload](args.seed, size, workdir)
            attempted = failed = 0
            problems: List[str] = []
            setups: List[Tuple[float, float]] = []
            for _ in range(SETUP_REPEATS[args.workload]):
                started = time.perf_counter()
                problem = workloads.check_golden(ROOT)
                workload.setup()
                setups.append((started, time.perf_counter()))
                attempted += 1
                if problem is not None:
                    failed += 1
                    problems.append(problem)
            tracer = Tracer()
            runs = run_passes(workload, args, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    every_pass = runs["untraced"] + runs["traced"]
    attempted += sum(p.attempted for p in every_pass)
    failed += sum(p.failed for p in every_pass)
    problems += [problem for p in every_pass for problem in p.problems]
    stamp = machine_stamp(args, size, repro_numpy)

    measured = end_to_end(args.workload, setups, runs["untraced"], probe)
    measured["error_rate"] = failed / attempted
    print(f"workload {args.workload}, seed {args.seed}: {len(runs['untraced'])} untraced "
          f"and {len(runs['traced'])} traced passes, {attempted} operations")
    for name, value in measured.items():
        unit = END_TO_END_UNITS.get(name) or NAMED_UNITS[name]
        print(f"  {name:<26} {value:>14.4f} {unit}")
    if args.workload == "ingest":
        sessions = sum(len(p.intervals["session"]) for p in runs["untraced"])
        dashboards = sum(len(p.intervals["dashboard"]) for p in runs["untraced"])
        beyond = sessions - math.ceil(0.9 * sessions)
        print(f"  (p50/p90 over {sessions} sessions, {beyond} beyond p90, "
              f"and {dashboards} dashboard passes)")
    print("  pass seconds: " + " ".join(f"{seconds(p.intervals['pass'][0]):.3f}" for p in runs["untraced"]))
    if probe is not None:
        print("  pass CPU seconds at nominal speed: " + " ".join(
            f"{probe.nominal_cpu_seconds(p.intervals['pass'][0], p.cpu_s):.3f}"
            for p in runs["untraced"]))
        print(f"  machine slowdown {probe.slowdown():.3f} over {len(probe.samples)} probes")
    for problem in problems[:20]:
        print(f"  FAILED: {problem}")

    if args.trace:
        metrics = per_layer(tracer, runs)
        units = PER_LAYER_UNITS
        print("per-layer, per traced pass:")
        for name, unit in units.items():
            print(f"  {name:<30} {metrics[name]:>16.6f} {unit}")
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(spans_path, stamp)
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        metrics = {name: measured[name] for name in END_TO_END_UNITS}
        units = END_TO_END_UNITS
    print("stamp " + json.dumps(stamp, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
