"""Repository benchmark: one workload, one seed, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload answer --seed 1 --seconds 26 --trace 0

``--trace 0`` measures the end-to-end metrics untraced. ``--trace 1``
runs an untraced pass and then a traced pass of fixed size, and reports
the per-layer metrics plus how much tracing worsened each end-to-end
timing. Metric names, units and directions come from ``BENCHMARK.json``.

The last line of standard output is the result object; a failed
correctness gate prints it with ``"correct": false`` and exits 1. Full
results with provenance (and, traced, every span) are written under
``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))
# A benchmark-owned kernel cache: the C tier compiles here, never in a
# shared temp directory another checkout could have filled.
os.environ["REPRO_KERNEL_CACHE"] = str(ROOT / ".bench_build" / "kernels")

import common  # noqa: E402
import answer  # noqa: E402
import batch_fit  # noqa: E402
import wire_ingest  # noqa: E402
from layers import overhead_pct  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = {
    wire_ingest.NAME: wire_ingest,
    batch_fit.NAME: batch_fit,
    answer.NAME: answer,
}

def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def source_digest() -> str:
    """SHA-256 over the program's sources (the checkout has no git)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def measure(module, seed: int, seconds: float, trace: bool, spec: dict,
            sizes=None, panel_users: int = 1_000_000) -> tuple:
    """Run one workload; returns ``(metrics, attempted, failed, record)``.

    ``sizes`` and ``panel_users`` shrink the workload for the self-tests.
    """
    tier = common.pin_kernel_tier()
    started = time.perf_counter()
    inputs = (module.prepare(seed) if sizes is None
              else module.prepare(seed, sizes))
    prepare_s = time.perf_counter() - started
    record = {"prepare_s": prepare_s, "kernel_tier": tier}
    if not trace:
        result = module.run(inputs, seconds)
        metrics = dict(result.metrics)
        metrics.update(module.accuracy(panel_users))
        record["details"] = result.details
        return metrics, result.attempted, result.failed, record
    untraced = module.run(inputs, seconds / 2)
    tracer = Tracer()
    traced = module.run(inputs, seconds / 2, tracer)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    metrics = dict(traced.layer)
    metrics.update(overhead_pct(untraced.metrics, traced.metrics, better))
    tracer.write(common.WORK / "traces"
                 / f"{module.NAME}-seed{seed}.jsonl.gz")
    record["details"] = {"untraced": untraced.details,
                         "traced": traced.details,
                         "untraced_metrics": untraced.metrics,
                         "traced_metrics": traced.metrics,
                         "spans": len(tracer.spans)}
    return (metrics, untraced.attempted + traced.attempted,
            untraced.failed + traced.failed, record)


def result_line(workload: str, seed: int, seconds: float, trace: bool,
                spec: dict, **shrink) -> tuple:
    """The result object and the full record of one run.

    Raises ``ValueError`` when the metrics measured are not exactly the
    set ``BENCHMARK.json`` names for this mode.
    """
    correct = True
    try:
        metrics, attempted, failed, record = measure(
            WORKLOADS[workload], seed, seconds, trace, spec, **shrink)
    except common.GateError as exc:
        correct, metrics, attempted, failed = False, {}, 1, 1
        record = {"gate": str(exc)}
    wanted = spec["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in wanted}
    if correct and set(metrics) != names:
        raise ValueError(f"metric set mismatch: missing "
                         f"{sorted(names - set(metrics))}, unexpected "
                         f"{sorted(set(metrics) - names)}")
    units = {m["name"]: m["unit"] for m in wanted}
    result = {
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    warnings.simplefilter("ignore")  # sweep-cap ConvergenceWarnings
    result, record = result_line(args.workload, args.seed, args.seconds,
                                 bool(args.trace), load_spec())
    if "gate" in record:
        print(f"correctness gate failed: {record['gate']}",
              file=sys.stderr)
    provenance = common.provenance()
    provenance["source_sha256"] = source_digest()
    record.update(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  provenance=provenance, result=result)
    out = (common.WORK / "results"
           / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=2, default=str) + "\n")
    print("provenance: " + json.dumps(provenance, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
