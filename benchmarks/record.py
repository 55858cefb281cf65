"""Compact a pytest-benchmark JSON dump into a diffable throughput record.

Usage::

    python benchmarks/record.py RAW_JSON OUT_JSON
    python benchmarks/record.py --check RAW_JSON RECORD_JSON

``RAW_JSON`` is the file produced by ``pytest --benchmark-json=...``; the
output keeps only the stable per-benchmark statistics (seconds and ops/s,
and under ``extra`` what a benchmark put in its ``extra_info``, such as a
mean sweep count) plus a provenance header — Python version, CPU model,
effective core count (``len(os.sched_getaffinity(0))``: the CPUs this
process may run on), recording time and the git commit (suffixed
``-dirty`` when tracked files differ from it; ``null`` without git) — so
successive PRs can diff throughput without churn from host-specific
noise fields.

A recording replaces the header and the whole ``benchmarks`` map: every
row in the output comes from this run, so a benchmark deleted from the
suite disappears from the record instead of living on under a fresh
header. Other top-level sections of an existing ``OUT_JSON`` — written
directly by the benchmark tests themselves, e.g. the ``workload_plan``
rows in ``BENCH_answers.json`` — survive the recording step.

``--check`` writes nothing. It compares each row's ``min_s`` in
``RAW_JSON`` with the committed ``RECORD_JSON``, lists the rows more than
:data:`CHECK_TOLERANCE` slower and the rows missing on either side, and
exits 1 if there are any. The fastest round is the statistic: host noise
only ever adds time, so a mean moves with how many rounds a busy host
slowed, while the minimum moves when the code does.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import subprocess
import sys
from typing import List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: a row whose fastest round is more than this fraction above the
#: record's has regressed (the timing bound BENCHMARK.json gives its
#: metrics)
CHECK_TOLERANCE = 0.25


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


def cpu_model() -> Optional[str]:
    """The CPU model name from ``/proc/cpuinfo`` (Linux), else
    ``platform.processor()``; None when neither names one."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def header(*, python: Optional[str], cpu: Optional[str],
           when: Optional[str], commit: Optional[str], cores: int) -> dict:
    """The provenance header every record carries."""
    return {
        "machine": {"python": python, "cpu": cpu,
                    "effective_cores": cores},
        "datetime": when,
        "commit": commit,
    }


def host_header() -> dict:
    """:func:`header` for a record written by a benchmark itself rather
    than compacted from a pytest-benchmark dump: this interpreter, this
    host's CPU and effective cores, now, and the checkout's commit."""
    return header(python=platform.python_version(), cpu=cpu_model(),
                  when=datetime.datetime.now(datetime.timezone.utc)
                  .isoformat(),
                  commit=git_commit(), cores=effective_cores())


def compact(raw: dict, commit: Optional[str], cores: int) -> dict:
    machine = raw.get("machine_info", {})
    out = header(python=machine.get("python_version"),
                 cpu=machine.get("cpu", {}).get("brand_raw"),
                 when=raw.get("datetime"), commit=commit, cores=cores)
    out["benchmarks"] = {}
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
        if bench.get("extra_info"):
            out["benchmarks"][bench["name"]]["extra"] = bench["extra_info"]
    return out


def merge(existing: dict, fresh: dict) -> dict:
    """Replace every key a compaction owns (the header and the whole
    ``benchmarks`` map), preserving the sections it does not own."""
    return {**existing, **fresh}


def check(raw: dict, record: dict) -> List[str]:
    """One line per row of ``raw`` whose ``min_s`` is above
    ``record``'s beyond :data:`CHECK_TOLERANCE`, and per row only one
    side has."""
    fresh = compact(raw, None, 0)["benchmarks"]
    recorded = record.get("benchmarks", {})
    problems = []
    for name in sorted(set(fresh) | set(recorded)):
        if name not in recorded:
            problems.append(f"{name}: not in the record")
        elif name not in fresh:
            problems.append(f"{name}: not in this run")
        else:
            now, then = fresh[name]["min_s"], recorded[name]["min_s"]
            if now > then * (1.0 + CHECK_TOLERANCE):
                problems.append(f"{name}: {now:.4g} s against {then:.4g} s "
                                f"recorded (+{now / then - 1.0:.0%})")
    return problems


def main(argv) -> int:
    if len(argv) == 4 and argv[1] == "--check":
        with open(argv[2]) as fh:
            raw = json.load(fh)
        with open(argv[3]) as fh:
            record = json.load(fh)
        problems = check(raw, record)
        for line in problems:
            print(line)
        rows = len(raw.get("benchmarks", []))
        print(f"{len(problems)} problem(s) over {rows} rows against "
              f"{argv[3]} (bound +{CHECK_TOLERANCE:.0%})")
        return 1 if problems else 0
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
