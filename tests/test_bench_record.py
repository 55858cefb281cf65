"""Tests for ``benchmarks/record.py``, the BENCH_*.json recorder."""

import json
import os

from benchmarks.record import main


def _raw(*names):
    return {
        "machine_info": {"python_version": "3.x",
                         "cpu": {"brand_raw": "test cpu"}},
        "datetime": "2026-01-01T00:00:00",
        "benchmarks": [{"name": name,
                        "stats": {"mean": 0.5, "stddev": 0.1, "min": 0.4,
                                  "rounds": 3}}
                       for name in names],
    }


def _record(tmp_path, raw, existing=None):
    raw_path, out_path = tmp_path / "raw.json", tmp_path / "out.json"
    raw_path.write_text(json.dumps(raw))
    if existing is not None:
        out_path.write_text(json.dumps(existing))
    assert main(["record.py", str(raw_path), str(out_path)]) == 0
    return json.loads(out_path.read_text())


def test_recording_replaces_rows_and_keeps_foreign_sections(tmp_path):
    """A benchmark deleted from the suite must leave the record; sections
    the benchmark tests write themselves must survive."""
    existing = {
        "machine": {"cpu": "old host"},
        "datetime": "2020-01-01T00:00:00",
        "benchmarks": {"test_kept": {"mean_s": 9.0},
                       "test_deleted[process]": {"mean_s": 9.0}},
        "workload_plan": {"pairs": 8},
    }
    record = _record(tmp_path, _raw("test_kept", "test_new"), existing)
    assert set(record["benchmarks"]) == {"test_kept", "test_new"}
    assert record["benchmarks"]["test_kept"]["mean_s"] == 0.5
    assert record["workload_plan"] == {"pairs": 8}
    assert record["machine"]["cpu"] == "test cpu"
    assert record["datetime"] == "2026-01-01T00:00:00"


def test_header_names_commit_and_effective_cores(tmp_path):
    record = _record(tmp_path, _raw("test_row"))
    assert record["machine"]["effective_cores"] == \
        len(os.sched_getaffinity(0))
    commit = record["commit"]
    assert commit is None or len(commit.split("-")[0]) == 40
