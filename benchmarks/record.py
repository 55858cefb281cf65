"""Compact a pytest-benchmark JSON dump into a diffable throughput record.

Usage::

    python benchmarks/record.py RAW_JSON OUT_JSON

``RAW_JSON`` is the file produced by ``pytest --benchmark-json=...``; the
output keeps only the stable per-benchmark statistics (seconds and ops/s)
plus minimal machine context, so successive PRs can diff kernel throughput
without churn from host-specific noise fields.

An existing ``OUT_JSON`` is *merged into*, not overwritten: only the
``machine`` / ``datetime`` / ``benchmarks`` keys are replaced (and new
benchmark rows update old ones by name), so sections written directly by
the benchmark tests themselves — e.g. the ``workload_plan`` rows in
``BENCH_answers.json`` — survive the recording step.
"""

from __future__ import annotations

import json
import os
import sys


def compact(raw: dict) -> dict:
    out = {
        "machine": {
            "python": raw.get("machine_info", {}).get("python_version"),
            "cpu": raw.get("machine_info", {}).get("cpu", {}).get("brand_raw"),
        },
        "datetime": raw.get("datetime"),
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
    """Fold a fresh compaction into an existing record, preserving any
    sections the compactor does not own."""
    out = dict(existing)
    out["machine"] = fresh["machine"]
    out["datetime"] = fresh["datetime"]
    benches = dict(existing.get("benchmarks", {}))
    benches.update(fresh["benchmarks"])
    out["benchmarks"] = benches
    return out


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as fh:
        raw = json.load(fh)
    record = compact(raw)
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
