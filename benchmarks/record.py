"""Compact a pytest-benchmark JSON dump into a diffable throughput record.

Usage::

    python benchmarks/record.py RAW_JSON OUT_JSON

``RAW_JSON`` is the file produced by ``pytest --benchmark-json=...``; the
output keeps only the stable per-benchmark statistics (seconds and ops/s)
plus a provenance header — Python version, CPU model, effective core
count (``len(os.sched_getaffinity(0))``: the CPUs this process may run
on), recording time and the git commit (suffixed ``-dirty`` when
tracked files differ from it; ``null`` without git) — so successive PRs
can diff throughput without churn from host-specific noise fields.

A recording replaces the header and the whole ``benchmarks`` map: every
row in the output comes from this run, so a benchmark deleted from the
suite disappears from the record instead of living on under a fresh
header. Other top-level sections of an existing ``OUT_JSON`` — written
directly by the benchmark tests themselves, e.g. the ``workload_plan``
rows in ``BENCH_answers.json`` — survive the recording step.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git_commit(cwd: str = ROOT) -> Optional[str]:
    """SHA of ``HEAD`` (``-dirty`` when tracked files differ), or None."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=cwd,
                             capture_output=True, text=True, timeout=10)
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=cwd, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if sha.returncode != 0:
        return None
    dirty = status.returncode == 0 and status.stdout.strip()
    return sha.stdout.strip() + ("-dirty" if dirty else "")


def effective_cores() -> int:
    """CPUs this process may run on (``os.cpu_count()`` on platforms
    without an affinity API)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def compact(raw: dict, commit: Optional[str], cores: int) -> dict:
    out = {
        "machine": {
            "python": raw.get("machine_info", {}).get("python_version"),
            "cpu": raw.get("machine_info", {}).get("cpu", {}).get("brand_raw"),
            "effective_cores": cores,
        },
        "datetime": raw.get("datetime"),
        "commit": commit,
        "benchmarks": {},
    }
    for bench in raw.get("benchmarks", []):
        stats = bench.get("stats", {})
        mean = stats.get("mean")
        out["benchmarks"][bench["name"]] = {
            "mean_s": mean,
            "stddev_s": stats.get("stddev"),
            "min_s": stats.get("min"),
            "rounds": stats.get("rounds"),
            "ops_per_s": (1.0 / mean) if mean else None,
        }
    return out


def merge(existing: dict, fresh: dict) -> dict:
    """Replace every key a compaction owns (the header and the whole
    ``benchmarks`` map), preserving the sections it does not own."""
    return {**existing, **fresh}


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as fh:
        raw = json.load(fh)
    record = compact(raw, git_commit(), effective_cores())
    if os.path.exists(argv[2]):
        try:
            with open(argv[2]) as fh:
                record = merge(json.load(fh), record)
        except (json.JSONDecodeError, OSError):
            pass  # corrupt or unreadable previous record: start fresh
    with open(argv[2], "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {argv[2]} ({len(raw.get('benchmarks', []))} benchmarks)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
