"""Machine-readable benchmark results: ``bench-report.json``.

Benchmark numbers used to live only in prose (docs/performance.md tables and
terminal output), which makes the perf trajectory across PRs impossible to
track mechanically.  Benchmarks now call :func:`record` with each headline
number; when reporting is enabled the collected records are written as one
JSON document — a list of ``{name, metric, value, unit}`` entries plus the
git revision they were measured at — by the pytest hook in ``conftest.py``.

Enable with the ``BENCH_REPORT`` environment variable:

* ``BENCH_REPORT=1`` writes :data:`DEFAULT_PATH` in the current directory;
* ``BENCH_REPORT=/some/path.json`` writes there instead.

Recording itself is unconditional and costs one dict append per call, so
benchmark modules never need to guard their ``record`` calls.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import time
from typing import Any, Dict, List, Optional

#: PR-independent, so no PR has to rename it (and the CI artifact path with it).
DEFAULT_PATH = "bench-report.json"

#: Collected records for the current process, in call order.
RESULTS: List[Dict[str, Any]] = []


def enabled() -> bool:
    """True when the environment asks for a JSON report."""
    return bool(os.environ.get("BENCH_REPORT"))


def output_path() -> str:
    """Where :func:`write` puts the report."""
    value = os.environ.get("BENCH_REPORT", "")
    if value and value not in ("1", "true", "yes"):
        return value
    return DEFAULT_PATH


def record(name: str, metric: str, value: float, unit: str) -> None:
    """Collect one benchmark result.

    ``name`` is the benchmark (module or scenario) identifier, ``metric``
    the quantity measured within it (e.g. ``"coalesced"``, ``"speedup"``),
    ``value`` the number, ``unit`` its unit (``"msgs/sec"``, ``"x"``, ...).
    """
    RESULTS.append(
        {"name": name, "metric": metric, "value": value, "unit": unit}
    )


def git_rev() -> str:
    """The current git revision, or ``"unknown"`` outside a checkout."""
    try:
        return (
            subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=pathlib.Path(__file__).resolve().parent,
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
            or "unknown"
        )
    except Exception:  # noqa: BLE001 - report must not fail the bench run
        return "unknown"


def write(path: Optional[str] = None) -> str:
    """Write the collected records as JSON; returns the path written."""
    target = path or output_path()
    document = {
        "git_rev": git_rev(),
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "smoke": os.environ.get("BENCH_SMOKE") == "1",
        "results": RESULTS,
    }
    with open(target, "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    return target
