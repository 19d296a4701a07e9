"""Tier-1 self-test: the benchmark still runs and still says what it promises.

Runs ``run.py --smoke`` (seconds, not minutes; the numbers mean nothing) and
checks the *shape* of what comes out against ``BENCHMARK.json``: every
workload and every metric is present under a well-formed name, every output
check passed, and ``compare.py`` finds a result identical to itself.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_smoke_run_reports_every_declared_metric(tmp_path):
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    out = tmp_path / "smoke.json"
    run = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=150,
    )
    assert run.returncode == 0, run.stdout
    document = json.loads(out.read_text(encoding="utf-8"))

    fingerprint = document["fingerprint"]
    for key in ("cpu_count", "affinity", "pinned", "python", "platform", "git_rev",
                "seed", "loadavg_start", "loadavg_end", "noisy_host"):
        assert key in fingerprint, key

    def check(part, where):
        assert part["exit"] == 0, where
        assert part["failed"] == 0 and part["attempted"] >= 1, where
        assert part["failed_share"] == 0.0, where
        for name, reading in part["metrics"].items():
            assert NAME.fullmatch(name) and reading["unit"], (where, name)

    # The ladder is measured once; with each workload's own traced metrics
    # it makes up the declared per-layer list exactly.
    ladder = document["ladder"]
    check(ladder, "ladder")
    assert os.path.exists(os.path.join(HERE, "out", "trace-ladder.json"))
    units = {section: {metric["name"]: metric["unit"] for metric in spec[section]}
             for section in ("end_to_end", "per_layer")}
    for workload in (item["name"] for item in spec["workloads"]):
        assert NAME.fullmatch(workload)
        entry = document["workloads"][workload]
        check(entry["end_to_end"], (workload, "end_to_end"))
        check(entry["per_layer"], (workload, "per_layer"))
        reported = {
            "end_to_end": entry["end_to_end"]["metrics"],
            "per_layer": {**ladder["metrics"], **entry["per_layer"]["metrics"]},
        }
        for section, declared in units.items():
            assert set(reported[section]) == set(declared), (workload, section)
            for name, unit in declared.items():
                assert reported[section][name]["unit"] == unit, (workload, name)
        diagnostics = entry["per_layer"]["detail"]["diagnostics"]
        assert ("sched.unpinned_ratio" in diagnostics) == (workload == "gw_request")
        assert os.path.exists(os.path.join(HERE, "out", f"trace-{workload}.json"))

    same = subprocess.run(
        [sys.executable, os.path.join(HERE, "compare.py"), str(out), str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=30,
    )
    assert same.returncode == 0, same.stdout
    verdicts = [line.split()[-1] for line in same.stdout.strip().splitlines()[1:]]
    assert verdicts and set(verdicts) == {"same"}, same.stdout
