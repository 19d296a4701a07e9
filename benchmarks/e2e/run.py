#!/usr/bin/env python3
"""The repo's end-to-end benchmark: four pinned closed-loop workloads.

Two ways in:

* ``run.py --workload W --seed N --seconds S --trace 0|1`` measures one
  workload in this process and prints, as the last line of stdout, one JSON
  object ``{correct, attempted, failed, metrics}`` — the end-to-end metrics
  with ``--trace 0``, the per-layer metrics (cost ladder + traced pass) with
  ``--trace 1``.
* ``run.py [--seed N] [--smoke] [--out PATH]`` runs every workload both ways
  and the ladder once, each in a fresh subprocess, prints every metric by
  name with its unit and writes the result document ``compare.py`` reads.

See README.md for the load shape and what each metric is expected to move.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402 - needs its directory on sys.path; starts nothing

sys.path.insert(0, os.path.join(harness.REPO_ROOT, "src"))

#: A hang becomes a failed workload, never a stuck benchmark.
WALL_CAP_S = 90
#: A child that measures the ladder (alone ~60 s, or ahead of a traced pass
#: as the driver's traced run does) gets longer, but stays inside the
#: driver's own 180 s.
LADDER_CAP_S = 170
#: Output checks failing on more than this share of ops fail the command.
MAX_FAILED_SHARE = 0.01
DETAIL_PREFIX = "DETAIL "
#: Not a workload: ``--workload ladder`` measures the cost ladder alone.
LADDER = "ladder"

Metrics = Dict[str, Tuple[float, str]]


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(harness.REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


class Plan:
    """How long each phase of one child run lasts."""

    def __init__(self, seconds: float, smoke: bool):
        self.seconds = seconds
        self.smoke = smoke
        self.warmup_s = 1.0 if smoke else 2.0
        self.window_s = 1.0 if smoke else harness.WINDOW_S
        #: Length of each pass of a traced run (plain, traced, unpinned).
        self.traced_s = 1.0 if smoke else 10.0
        #: Set-up is repeated and its median reported: at least this often,
        #: and again while set-up and tear-down so far took under the budget
        #: (a gateway tear-down alone is 1 s: the accept thread's join).
        self.setup_reps = (1, 1) if smoke else (3, 7)
        self.setup_budget_s = 3.0
        self.put_calls = 200 if smoke else 2000
        self.gmw_calls = 3 if smoke else 200
        self.count_scale = 0.05 if smoke else 1.0


# ----------------------------------------------------------- one workload --


def timed_setups(workload: Any, plan: Plan) -> Tuple[List[float], List[float]]:
    """Set the system up repeatedly; leave the last one standing.

    Returns ``(seconds at reference host speed, raw seconds)`` per repeat.
    """
    least, most = plan.setup_reps
    scaled: List[float] = []
    raw: List[float] = []
    began = time.perf_counter()
    while True:
        before = harness.host_speed_factor()
        start = time.perf_counter()
        workload.setup()
        raw.append(time.perf_counter() - start)
        scaled.append(raw[-1] / ((before + harness.host_speed_factor()) / 2))
        spent = time.perf_counter() - began
        if len(raw) >= most or (len(raw) >= least and spent >= plan.setup_budget_s):
            return scaled, raw
        workload.teardown()


def run_untraced(workload: Any, plan: Plan) -> Tuple[Metrics, Dict, int, int]:
    setups, raw_setups = timed_setups(workload, plan)
    harness.closed_loop(workload, seconds=plan.warmup_s)
    measured = harness.closed_loop(workload, seconds=plan.seconds, window_s=plan.window_s)
    failed = measured.failed + workload.final_check()
    workload.teardown()
    tail = workload.tail_pct
    rates = measured.window_rates()
    windows = [sorted(window) for window in measured.latencies_ms() if window]
    raw_windows = [sorted(window) for window in measured.raw_latencies_ms() if window]

    def over_windows(sorted_windows: List[List[float]], pct: float) -> List[float]:
        return [harness.percentile(window, pct) for window in sorted_windows]

    # Medians over windows, not pooled statistics: a disturbance the speed
    # reading misses (a neighbour thrashing the cache for a few seconds)
    # then costs one window instead of the whole tail.
    p50s, tails = over_windows(windows, 50.0), over_windows(windows, tail)
    metrics = {
        "ops_per_s": (statistics.median(rates), "1/s"),
        "p50_ms": (statistics.median(p50s), "ms"),
        "tail_ms": (statistics.median(tails), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (harness.peak_rss_mb(), "MiB"),
    }
    detail = {
        "tail_pct": tail,
        "samples": sum(len(window) for window in windows),
        "window_rates": rates,
        "speed_factors": measured.speed_factors(),
        "setups_s": setups,
        # The same figures as the wall clock saw them, before scaling.
        "raw": {
            "ops_per_s": statistics.median(measured.raw_window_rates()),
            "p50_ms": statistics.median(over_windows(raw_windows, 50.0)),
            "tail_ms": statistics.median(over_windows(raw_windows, tail)),
            "setup_s": statistics.median(raw_setups),
        },
        # Window IQR as a share of the median: compare.py resolves nothing
        # finer than what one run's own windows disagree by.
        "spread": {
            "ops_per_s": harness.iqr_share(rates),
            "p50_ms": harness.iqr_share(p50s),
            "tail_ms": harness.iqr_share(tails),
            "setup_s": harness.iqr_share(setups),
            "peak_rss_mb": 0.0,
        },
    }
    return metrics, detail, measured.attempted, failed


def run_ladder_part(plan: Plan) -> Tuple[Metrics, Dict, int, int]:
    from ladder import run_ladder

    spans = harness.Spans()
    metrics = run_ladder(spans, plan.put_calls, plan.gmw_calls)
    spans.dump(os.path.join(harness.OUT_DIR, "trace-ladder.json"))
    # A rung whose call fails raises; every span is a call that succeeded.
    return metrics, {"spans": len(spans)}, len(spans), 0


def run_traced(workload: Any, plan: Plan, affinity: Any) -> Tuple[Metrics, Dict, int, int]:
    """The workload under trace: counted prefix, the traced pass with outside
    counters between two halves of a plain pass, and where asked for a plain
    pass unpinned."""
    metrics: Metrics = {}
    workload.setup()

    # Exact counts: the first requests the seed generates, a fixed number of
    # them, fully drained, so the ChannelStats delta belongs to those
    # requests and to nothing else and repeats run after run.  They also
    # warm the system up.
    msgs0, bytes0 = workload.counters()
    counted = harness.closed_loop(
        workload, requests=max(1, int(workload.count_requests * plan.count_scale))
    )
    msgs1, bytes1 = workload.counters()
    metrics["msgs_per_op"] = ((msgs1 - msgs0) / counted.attempted, "count")
    metrics["wire_bytes_per_op"] = ((bytes1 - bytes0) / counted.attempted, "bytes")

    # The plain pass is split around the traced one: throughput that drifts
    # as the stores grow (txn_durable) would otherwise read as tracing cost.
    def plain_half() -> harness.PassResult:
        return harness.closed_loop(workload, seconds=plan.traced_s / 2, window_s=plan.window_s)

    halves = [plain_half()]
    spans = harness.Spans()
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    cpu0, wall0 = time.process_time(), time.perf_counter()
    traced = harness.closed_loop(workload, seconds=plan.traced_s, window_s=plan.window_s,
                                 spans=spans)
    cpu1, wall1 = time.process_time(), time.perf_counter()
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    halves.append(plain_half())
    plain_ops_per_s = statistics.fmean(half.ops_per_s() for half in halves)
    done = max(1, sum(units for _at, _latency, units in traced.samples))
    switches = (usage1.ru_nvcsw + usage1.ru_nivcsw) - (usage0.ru_nvcsw + usage0.ru_nivcsw)
    metrics["ctx_switches_per_op"] = (switches / done, "count")
    slow = statistics.fmean(traced.speed_factors())
    metrics["cpu_s_per_kop"] = ((cpu1 - cpu0) / done * 1000.0 / slow, "s")
    metrics["cpu_util"] = ((cpu1 - cpu0) / (wall1 - wall0), "ratio")
    metrics["threads_live"] = (float(threading.active_count()), "count")
    metrics["gateway.shed_busy"] = (float(workload.shed_busy()), "count")
    # Same process, same system, back to back: as close an A/B as one run
    # gives.  What it cannot resolve it reports as it read, sign included.
    metrics["trace_overhead_pct"] = (
        (1.0 - traced.ops_per_s() / plain_ops_per_s) * 100.0, "%")
    final_failures = workload.final_check()
    workload.teardown()
    spans.dump(os.path.join(harness.OUT_DIR, f"trace-{workload.name}.json"))
    passes = [counted, traced] + halves

    diagnostics: Metrics = {}
    if workload.unpinned_pass:
        # Threads inherit affinity at creation, so the system is rebuilt
        # after un-pinning.
        harness.unpin(affinity)
        workload.setup()
        harness.closed_loop(workload, seconds=plan.warmup_s)
        loose = harness.closed_loop(workload, seconds=plan.traced_s, window_s=plan.window_s)
        workload.teardown()
        diagnostics["sched.unpinned_ratio"] = (loose.ops_per_s() / plain_ops_per_s, "ratio")
        passes.append(loose)

    detail = {"spans": len(spans), "plain_ops_per_s": plain_ops_per_s,
              "traced_ops_per_s": traced.ops_per_s(), "diagnostics": as_readings(diagnostics)}
    return (metrics, detail, sum(part.attempted for part in passes),
            sum(part.failed for part in passes) + final_failures)


def wall_cap(args: argparse.Namespace) -> int:
    with_ladder = args.workload == LADDER or (args.trace and not args.no_ladder)
    return LADDER_CAP_S if with_ladder else WALL_CAP_S


def as_readings(metrics: Metrics) -> Dict[str, Dict[str, Any]]:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def run_one(args: argparse.Namespace) -> int:
    """Measure one workload (or the ladder) in this process.

    ``--workload W --trace 1`` is the driver's traced run: ladder and traced
    pass together, so one result line carries every per-layer metric.
    ``run_all`` measures the ladder once (``--workload ladder``) and gives
    the traced children ``--no-ladder``.
    """
    both = bool(args.trace) and not args.no_ladder and args.workload != LADDER
    faulthandler.dump_traceback_later(wall_cap(args), exit=True)
    affinity, pinned = harness.pin_to_one_cpu(args.cpu)  # before the first thread exists
    from workloads import WORKLOADS

    plan = Plan(args.seconds, args.smoke)
    os.makedirs(harness.OUT_DIR, exist_ok=True)
    host = harness.fingerprint(args.seed, affinity, pinned)
    errors: Dict[str, int] = {}
    if args.workload == LADDER:
        metrics, detail, attempted, failed = run_ladder_part(plan)
    else:
        workload = WORKLOADS[args.workload](args.seed)
        errors = workload.errors
        if not args.trace:
            metrics, detail, attempted, failed = run_untraced(workload, plan)
        else:
            metrics, detail, attempted, failed = (
                run_ladder_part(plan) if both else ({}, {}, 0, 0))
            traced = run_traced(workload, plan, affinity)
            metrics.update(traced[0])
            detail.update(traced[1])
            attempted, failed = attempted + traced[2], failed + traced[3]
    faulthandler.cancel_dump_traceback_later()

    lingering = harness.lingering_threads()
    if lingering:
        raise RuntimeError(f"workload left non-daemon threads alive: {lingering}")
    host["loadavg_end"] = harness.load_average()
    failed_share = failed / max(1, attempted)
    correct = failed_share <= MAX_FAILED_SHARE
    readings = as_readings(metrics)
    print_readings(args.workload, {**readings, **detail.get("diagnostics", {})})
    print(f"{args.workload:12s} {'failed_share':36s} {failed_share:14.6f} fraction")
    detail.update(fingerprint=host, failed_share=failed_share, errors=errors,
                  seconds=plan.seconds, smoke=plan.smoke)
    print(DETAIL_PREFIX + json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": readings}))
    sys.stdout.flush()
    return 0 if correct else 1


def print_readings(label: str, readings: Dict[str, Dict[str, Any]]) -> None:
    for name, reading in readings.items():
        print(f"{label:12s} {name:36s} {reading['value']:14.4f} {reading['unit']}")


# ---------------------------------------------------------- every workload --


def spawn(workload: str, trace: int, cpu: Optional[int],
          args: argparse.Namespace) -> Dict[str, Any]:
    """Run one child; a crash or a hang is a workload with failed_share 1."""
    command = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(trace)]
    if trace and workload != LADDER:
        command.append("--no-ladder")  # measured once, by its own child
    if cpu is not None:
        command += ["--cpu", str(cpu)]
    if args.smoke:
        command.append("--smoke")
    try:
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                               timeout=(LADDER_CAP_S if workload == LADDER else WALL_CAP_S) + 30)
        lines, code = child.stdout.strip().splitlines(), child.returncode
    except subprocess.TimeoutExpired:
        lines, code = [], -1
    entry: Dict[str, Any] = {"exit": code, "metrics": {}, "failed_share": 1.0,
                             "attempted": 0, "failed": 0, "detail": {}}
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
        entry.update(metrics=result["metrics"], attempted=result["attempted"],
                     failed=result["failed"])
        for line in lines:
            if line.startswith(DETAIL_PREFIX):
                entry["detail"] = json.loads(line[len(DETAIL_PREFIX):])
        entry["failed_share"] = entry["detail"].get("failed_share", 1.0)
    return entry


def run_all(args: argparse.Namespace) -> int:
    spec = load_spec()
    # Taken before the first child runs: afterwards the load average is
    # mostly the benchmark's own threads.
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    host = harness.fingerprint(args.seed, affinity, pinned=True)
    names = [item["name"] for item in spec["workloads"]]
    jobs = [(name, 0) for name in names]
    if args.trace != 0:
        jobs += [(LADDER, 1)] + [(name, 1) for name in names]
    # Measured runs go one at a time, all on the same CPU.  A smoke run only
    # proves the plumbing, so its children share out the CPUs and overlap.
    width = len(affinity) if args.smoke and affinity else 1

    def run_job(index: int) -> Dict[str, Any]:
        name, trace = jobs[index]
        return spawn(name, trace, affinity[-1 - index % width] if affinity else None, args)

    with ThreadPoolExecutor(max_workers=width) as pool:
        entries = list(pool.map(run_job, range(len(jobs))))

    document: Dict[str, Any] = {
        "schema": 2, "seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
        "fingerprint": host, "ladder": None,
        "workloads": {name: {"end_to_end": None, "per_layer": None} for name in names},
    }
    status = 0
    for (name, trace), entry in zip(jobs, entries):
        if name == LADDER:
            document["ladder"] = entry
        else:
            document["workloads"][name]["per_layer" if trace else "end_to_end"] = entry
        host["pinned"] &= bool(entry["detail"].get("fingerprint", {}).get("pinned"))
        print_readings(name, {**entry["metrics"], **entry["detail"].get("diagnostics", {})})
        if not trace:
            print(f"{name:12s} {'failed_share':36s} {entry['failed_share']:14.6f} fraction")
        if entry["exit"] != 0 or entry["failed_share"] > MAX_FAILED_SHARE:
            status = 1
    host["loadavg_end"] = harness.load_average()
    out = args.out or os.path.join(harness.OUT_DIR, "result.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="measure only this workload, in this process")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, help="measured seconds per run "
                        "(default: run_seconds in BENCHMARK.json; 2 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1,
                        help="1: per-layer metrics from the traced run; 0: end-to-end only")
    parser.add_argument("--cpu", type=int,
                        help="CPU to pin to (default: the last of the affinity set)")
    parser.add_argument("--no-ladder", action="store_true",
                        help="with --workload W --trace 1: the traced pass only")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run that only proves the benchmark still works")
    parser.add_argument("--out", help="result document path (all-workload mode)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 2.0 if args.smoke else float(load_spec()["run_seconds"])
    try:
        import repro  # noqa: F401 - the benchmark is useless without the program
    except ImportError as exc:
        print(f"cannot import the program under test from {harness.REPO_ROOT}/src: {exc}",
              file=sys.stderr)
        return 2
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
