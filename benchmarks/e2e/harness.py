"""Measurement plumbing shared by the workloads and the cost ladder.

Everything here observes the system from outside: CPU pinning, the host
fingerprint, the window-W closed loop, percentile maths, and the in-memory
span recorder.  Nothing under ``src/`` is instrumented.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")


# ------------------------------------------------------------------ host --


def pin_to_one_cpu(cpu: Optional[int] = None) -> Tuple[Optional[List[int]], bool]:
    """Pin the calling thread (and every thread it later spawns) to one CPU.

    Dozens of GIL-sharing threads spread over two cores hand the lock across
    cores on every switch, and where the kernel happens to put them decides
    the reading: ``gw_request`` unpinned runs at ~0.3x its pinned rate
    (``sched.unpinned_ratio``).  One CPU removes that coin toss.

    ``cpu`` defaults to the last CPU of the affinity set.  Returns
    ``(affinity before pinning, pinned)``; ``(None, False)`` where the
    platform has no ``sched_setaffinity``.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None, False
    before = sorted(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {before[-1] if cpu is None else cpu})
    except OSError:
        return before, False
    return before, True


def unpin(affinity: Optional[Sequence[int]]) -> None:
    """Give the calling thread its original affinity set back."""
    if affinity and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, set(affinity))


def git_rev() -> str:
    """The checkout's commit, or ``"unknown"`` outside a git repository."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, timeout=5,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def load_average() -> Optional[float]:
    try:
        return os.getloadavg()[0]
    except (OSError, AttributeError):
        return None


def fingerprint(seed: int, affinity: Optional[Sequence[int]], pinned: bool) -> Dict[str, Any]:
    """What a reader needs to judge whether two result documents are comparable."""
    cores = os.cpu_count() or 1
    load = load_average()
    return {
        "cpu_count": cores,
        "affinity": list(affinity) if affinity is not None else None,
        "pinned": pinned,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_rev": git_rev(),
        "seed": seed,
        "loadavg_start": load,
        # A busy neighbour shows up as lost throughput; flag it, don't hide it.
        "noisy_host": bool(load is not None and load > 0.5 * cores),
    }


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MiB (Linux reports KiB, macOS bytes)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0


def lingering_threads() -> List[str]:
    """Non-daemon threads other than main that are still alive."""
    return [
        thread.name for thread in threading.enumerate()
        if thread is not threading.main_thread() and not thread.daemon
    ]


# ------------------------------------------------------------------ stats --


def percentile(ordered: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    rank = min(len(ordered) - 1, max(0, int(len(ordered) * pct / 100.0)))
    return ordered[rank]


def iqr_share(values: Sequence[float]) -> float:
    """Inter-quartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else 0.0


# ------------------------------------------------------------------ spans --


class Spans:
    """In-memory span log, written out once when the run ends.

    A span is ``{name, layer, req, parent, start_ns, end_ns}``: ``req`` ties
    the spans of one request (ladder iteration or workload op) together and
    ``parent`` names the span that caused this one.
    """

    def __init__(self) -> None:
        self._rows: List[Tuple[str, str, int, Optional[str], int, int]] = []

    def record(self, name: str, layer: str, req: int, parent: Optional[str],
               start_ns: int, end_ns: int) -> None:
        self._rows.append((name, layer, req, parent, start_ns, end_ns))

    def __len__(self) -> int:
        return len(self._rows)

    def dump(self, path: str) -> None:
        keys = ("name", "layer", "req", "parent", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([dict(zip(keys, row)) for row in self._rows], handle)


# ------------------------------------------------------------ host speed --

#: The calibration spin, the thread-CPU time it takes on the reference host,
#: and how often the load thread takes a reading.
SPIN_LOOPS = 40_000
SPIN_REF_S = 1.0e-3
SPIN_EVERY_S = 0.5


def host_speed_factor() -> float:
    """How slow the CPU is right now: 1.25 = 25 % slower than the reference.

    The sandbox hosts this benchmark runs on execute the same code in two
    speed modes ~1 : 1.27 apart, each held for seconds to minutes (no steal
    time is reported; it looks like a neighbour on the sibling hardware
    thread).  All four workloads are CPU-bound (``cpu_util`` >= 0.97) and
    follow the mode: over ten runs, raw ``ops_per_s`` spreads by 8-25 % of
    its median where the scaled figure spreads by 3-9 % (README).  A fixed
    spin, timed in *thread CPU time* so neither the GIL nor a descheduling
    inflates it, measures the mode of the moment; multiplying a rate (or
    dividing a time) by it reports what a host that runs the spin in exactly
    ``SPIN_REF_S`` would have seen.  Best of three ~1 ms spins.
    """
    best = float("inf")
    for _ in range(3):
        count = 0
        begin = time.thread_time()
        for _ in range(SPIN_LOOPS):
            count += 1
        best = min(best, time.thread_time() - begin)
    return best / SPIN_REF_S


# ------------------------------------------------------------ closed loop --

#: ``ops_per_s`` is the median completion rate over windows of this length.
WINDOW_S = 5.0


@dataclass
class PassResult:
    """One closed-loop pass.  ``raw_*`` is what the wall clock saw; the
    other figures are the same ones at reference host speed, each window
    scaled by the speed readings taken inside it."""

    seconds: float
    window_s: float = WINDOW_S
    attempted: int = 0          # unit ops issued
    failed: int = 0             # unit ops refused, errored or failing the check
    #: ``(completion time since pass start, latency seconds, unit ops)``.
    samples: List[Tuple[float, float, int]] = field(default_factory=list)
    #: ``(time since pass start, host speed factor)``.
    readings: List[Tuple[float, float]] = field(default_factory=list)

    def _windows(self) -> int:
        return max(1, round(self.seconds / self.window_s))

    def _per_window(self, timed: Sequence[Tuple[float, Any]]) -> List[List[Any]]:
        count = self._windows()
        buckets: List[List[Any]] = [[] for _ in range(count)]
        for at, item in timed:
            # What drains after the last window closes belongs to that window.
            buckets[min(count - 1, int(at * count / self.seconds))].append(item)
        return buckets

    def speed_factors(self) -> List[float]:
        """Per window, the factor its rate is multiplied by.

        Work done in a window is proportional to the *mean speed* across it,
        and speed is the reciprocal of the factor.  A window without a
        reading of its own (smoke runs) takes the whole pass's.
        """
        everywhere = [1.0 / factor for _at, factor in self.readings] or [1.0]
        return [
            1.0 / statistics.fmean(speeds or everywhere)
            for speeds in self._per_window([(at, 1.0 / f) for at, f in self.readings])
        ]

    def raw_window_rates(self) -> List[float]:
        """Unit ops completed per wall-clock second inside each window."""
        width = self.seconds / self._windows()
        done = self._per_window([(at, units) for at, _latency, units in self.samples])
        return [sum(units) / width for units in done]

    def window_rates(self) -> List[float]:
        return [rate * factor
                for rate, factor in zip(self.raw_window_rates(), self.speed_factors())]

    def ops_per_s(self) -> float:
        return statistics.median(self.window_rates())

    def raw_latencies_ms(self) -> List[List[float]]:
        """Per window, every request's send -> verified-reply latency."""
        return self._per_window([(at, latency * 1e3) for at, latency, _units in self.samples])

    def latencies_ms(self) -> List[List[float]]:
        return [[ms / factor for ms in window]
                for window, factor in zip(self.raw_latencies_ms(), self.speed_factors())]


def closed_loop(workload: Any, *, seconds: Optional[float] = None,
                requests: Optional[int] = None, window_s: float = WINDOW_S,
                spans: Optional[Spans] = None) -> PassResult:
    """Drive ``workload`` from this one thread, ``workload.window`` in flight.

    Closed loop: the next request is issued only when a slot frees, so a
    slower system is offered less load.  Runs for ``seconds``, or for exactly
    ``requests`` requests; either way every in-flight request is drained
    before returning, so outside counters read after the call are settled.
    """
    clock = time.perf_counter
    inflight: deque = deque()
    issued = 0
    next_reading = 0.0
    start = clock()
    result = PassResult(seconds=seconds or 0.0, window_s=window_s)

    def finish_one() -> None:
        sent_at, units, token = inflight.popleft()
        try:
            bad = workload.complete(token)
        except Exception as exc:  # noqa: BLE001 - a failed op, not a failed benchmark
            workload.note_error(exc)
            bad = units
        done_at = clock()
        result.failed += bad
        result.samples.append((done_at - start, done_at - sent_at, units))
        if spans is not None:
            spans.record(workload.name + ".op", "client", len(result.samples) - 1,
                         None, int(sent_at * 1e9), int(done_at * 1e9))

    while True:
        now = clock() - start
        if issued >= requests if requests is not None else now >= seconds:
            break
        if now >= next_reading:  # ~3 ms every half second: < 1 % of the load thread
            result.readings.append((now, host_speed_factor()))
            next_reading = now + SPIN_EVERY_S
        sent_at = clock()
        issued += 1
        try:
            units, token = workload.issue()
        except Exception as exc:  # noqa: BLE001 - counted, see finish_one
            workload.note_error(exc)
            result.attempted += workload.units_per_request
            result.failed += workload.units_per_request
            continue
        result.attempted += units
        inflight.append((sent_at, units, token))
        if len(inflight) >= workload.window:
            finish_one()
    while inflight:
        finish_one()
    if requests is not None:
        result.seconds = clock() - start
    return result
