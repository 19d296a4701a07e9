#!/usr/bin/env python3
"""Noise-aware diff of two result documents written by ``run.py``.

``compare.py OLD.json NEW.json`` prints, per workload × end-to-end metric,
the old and new value, their ratio (new ÷ old, with the base), and one of

* ``better`` / ``worse`` — the value moved past the metric's bound in
  ``BENCHMARK.json``;
* ``same`` — it stayed inside the bound;
* ``unresolved`` — the spread recorded inside either run is wider than the
  bound, so this pair of documents cannot tell a change from noise.

Exits non-zero on any ``worse`` and on any rise in ``failed_share``.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
#: ``setup_s`` on a 50 ms set-up would trip a relative bound on scheduler
#: jitter alone; it also has to move by this much to count.
SETUP_FLOOR_S = 0.05


def load(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def verdict(old: float, new: float, spread: float, bound: float, better: str,
            floor: float = 0.0) -> str:
    if new == old:
        return "same"
    worsening = (new - old) / old if better == "lower" else (old - new) / old
    if abs(worsening) <= bound or abs(new - old) <= floor:
        return "same" if spread <= bound else "unresolved"
    if spread > bound:
        return "unresolved"
    return "worse" if worsening > 0 else "better"


def compare(old: Dict[str, Any], new: Dict[str, Any], spec: Dict[str, Any]) -> List[List[str]]:
    rows = []
    for workload in (item["name"] for item in spec["workloads"]):
        before = old["workloads"][workload]["end_to_end"]
        after = new["workloads"][workload]["end_to_end"]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            was, now = (side["metrics"].get(name, {}).get("value") for side in (before, after))
            if was is None or now is None:
                rows.append([workload, name, "-", "-", "-", "unresolved"])
                continue
            spread = max(
                side["detail"].get("spread", {}).get(name, 0.0) for side in (before, after)
            )
            rows.append([
                workload, name, f"{was:.4f}", f"{now:.4f}",
                f"{now / was:.3f} of {was:.4f} {metric['unit']}",
                verdict(was, now, spread, metric["bound"], metric["better"],
                        SETUP_FLOOR_S if name == "setup_s" else 0.0),
            ])
        was, now = before["failed_share"], after["failed_share"]
        rows.append([workload, "failed_share", f"{was:.6f}", f"{now:.6f}", "-",
                     "worse" if now > was else "same"])
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    spec = load(os.path.join(REPO_ROOT, "BENCHMARK.json"))
    rows = compare(load(argv[0]), load(argv[1]), spec)
    header = ["workload", "metric", "old", "new", "ratio (new/old)", "verdict"]
    widths = [max(len(row[col]) for row in [header] + rows) for col in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
