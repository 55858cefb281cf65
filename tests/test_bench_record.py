"""Tests for ``benchmarks/record.py``, the BENCH_*.json recorder."""

import json
import os

from benchmarks.record import host_header, main


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


def test_extra_info_is_kept_under_extra(tmp_path):
    raw = _raw("test_counted", "test_plain")
    raw["benchmarks"][0]["extra_info"] = {"sweeps_mean": 29.7}
    raw["benchmarks"][1]["extra_info"] = {}
    rows = _record(tmp_path, raw)["benchmarks"]
    assert rows["test_counted"]["extra"] == {"sweeps_mean": 29.7}
    assert "extra" not in rows["test_plain"]


def test_header_names_commit_and_effective_cores(tmp_path):
    record = _record(tmp_path, _raw("test_row"))
    assert record["machine"]["effective_cores"] == \
        len(os.sched_getaffinity(0))
    commit = record["commit"]
    assert commit is None or len(commit.split("-")[0]) == 40


def test_host_header_stamps_this_host_and_now():
    """Records a benchmark writes itself (``BENCH_service.json``) carry
    the same header as compacted ones."""
    stamped = host_header()
    assert set(stamped) == {"machine", "datetime", "commit"}
    assert stamped["machine"]["effective_cores"] == \
        len(os.sched_getaffinity(0))
    assert stamped["machine"]["python"].count(".") == 2
    assert stamped["datetime"].endswith("+00:00")
    commit = stamped["commit"]
    assert commit is None or len(commit.split("-")[0]) == 40


def _check(tmp_path, raw, record):
    raw_path, record_path = tmp_path / "raw.json", tmp_path / "record.json"
    raw_path.write_text(json.dumps(raw))
    record_path.write_text(json.dumps(record))
    return main(["record.py", "--check", str(raw_path), str(record_path)])


def test_check_flags_slow_and_missing_rows(tmp_path, capsys):
    """Fastest rounds of 0.4 s: within the 25% bound of 0.35 s, beyond
    it of 0.28 s; one row only in the run, one only in the record."""
    record = {"benchmarks": {"test_within": {"min_s": 0.35},
                             "test_beyond": {"min_s": 0.28},
                             "test_gone": {"min_s": 0.4}}}
    raw = _raw("test_within", "test_beyond", "test_new")
    assert _check(tmp_path, raw, record) == 1
    lines = capsys.readouterr().out.splitlines()
    flagged = {line.split(":")[0] for line in lines[:-1]}
    assert flagged == {"test_beyond", "test_gone", "test_new"}
    assert "+43%" in next(line for line in lines
                          if line.startswith("test_beyond"))


def test_check_passes_rows_within_the_bound(tmp_path):
    record = {"benchmarks": {"test_a": {"min_s": 0.35},
                             "test_b": {"min_s": 0.9}}}
    assert _check(tmp_path, _raw("test_a", "test_b"), record) == 0
    assert json.loads((tmp_path / "record.json").read_text()) == record


def test_check_compares_fastest_rounds_not_means(tmp_path, capsys):
    """A noisy run (mean 0.5 s, +67% over the recorded mean) passes when
    its fastest round (0.4 s) is within the bound of the recorded one;
    a run whose fastest round regressed fails even if its mean did not."""
    record = {"benchmarks": {"test_noisy": {"mean_s": 0.3, "min_s": 0.35},
                             "test_slower": {"mean_s": 0.6,
                                             "min_s": 0.3}}}
    assert _check(tmp_path, _raw("test_noisy"),
                  {"benchmarks": {"test_noisy":
                                  record["benchmarks"]["test_noisy"]}}) == 0
    capsys.readouterr()
    assert _check(tmp_path, _raw("test_noisy", "test_slower"), record) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == ["test_slower"]
