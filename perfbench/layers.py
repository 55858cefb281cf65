"""Which program entry points the traced run wraps, and the per-layer table.

Every wrapper is installed where the caller looks the name up, so the
program's own call sites record spans without any change to the program.
:func:`layer_metrics` turns the spans plus the program's own stats
objects into the fixed per-layer metric set; a layer a workload never
enters reads 0.
"""

from __future__ import annotations

from typing import Dict, Iterable

import numpy as np

from tracer import Tracer

#: fo.kernels dispatch functions reported per kernel
KERNELS = ("grr_apply", "support_counts")

#: Aggregator.timings stages reported under core.server
STAGES = ("warm", "collect", "estimate", "postprocess", "materialize",
          "answer")


def _rows(report) -> int:
    from repro.robustness.ingest import report_user_count
    return 0 if report is None else report_user_count(report)


def _kernel_elements(name: str):
    if name == "support_counts":
        def work(args, kwargs, result):
            candidates = np.asarray(args[3])
            return {"elements": len(args[0]) * len(candidates)}
    else:
        def work(args, kwargs, result):
            return {"elements": len(args[0])}
    return work


def instrument(tracer: Tracer) -> None:
    """Wrap every layer's entry points (undo with ``tracer.uninstall()``)."""
    import repro.core.client as client
    import repro.core.planner as planner
    import repro.core.server as server
    import repro.core.streaming as streaming
    import repro.service.checkpoint as checkpoint
    import repro.service.ingest as ingest
    import repro.wire.session as session
    from repro.estimation.engine import SummedAreaTable
    from repro.fo import kernels
    from repro.queries.predicate import Predicate
    from repro.queries.query import Query

    # wire: frame decode inside the session decoder, checkpoint encodes
    tracer.wrap(session, "decode_frame", "wire.decode_frame", memory=True)
    tracer.wrap_generator(session.SequencedDecoder, "feed",
                          "wire.session_feed")
    tracer.wrap(checkpoint, "encode_report", "wire.encode_report",
                memory=True)

    # service: per-frame admission carries the frame's sequence number
    tracer.wrap_request(ingest.IngestionService, "_admit_entry",
                        lambda service, entry: ("frame", entry.seq))
    tracer.wrap(ingest, "save_checkpoint", "service.save_checkpoint",
                work=lambda a, k, blob: {"bytes": len(blob)})
    tracer.wrap(ingest, "write_checkpoint_file",
                "service.write_checkpoint_file")

    # robustness
    for module in (streaming, client):
        tracer.wrap(module, "sanitize_report",
                    "robustness.sanitize_report")

    # core.streaming / core.merge
    collector = streaming.StreamingCollector
    tracer.wrap(collector, "ingest_report", "core.streaming.ingest_report")
    tracer.wrap(collector, "compact", "core.streaming.compact")
    tracer.wrap(collector, "finalize", "core.streaming.finalize")
    for module in (streaming, client):
        tracer.wrap(module, "merge_reports", "core.merge.merge_reports",
                    work=lambda a, k, r: {
                        "rows": sum(_rows(x) for x in a[0])})

    # core.planner / core.partition / core.client / core.parallel
    for module in (server, streaming, planner):
        tracer.wrap(module, "plan_grids", "core.planner.plan_grids",
                    work=lambda a, k, plans: {"grids": len(plans)})
    tracer.wrap(server, "partition_users", "core.partition.partition_users")
    tracer.wrap(server, "collect_reports", "core.client.collect_reports")
    for module in (server, client, streaming):
        tracer.wrap(module, "run_sharded", "core.parallel.run_sharded",
                    work=lambda a, k, r: {"tasks": len(a[0])})

    # postprocess / estimation / optimizer / grids / queries
    tracer.wrap(server, "postprocess_grids", "postprocess.postprocess_grids")
    tracer.wrap(server, "fit_response_matrix",
                "estimation.fit_response_matrix")
    tracer.wrap(SummedAreaTable, "__init__", "estimation.sat.build")
    for method in ("rectangle", "sign_tables"):
        tracer.wrap(SummedAreaTable, method, "estimation.sat.lookup",
                    work=lambda a, k, r: {
                        "rectangles": int(np.size(a[1]))})
    tracer.wrap(server, "pair_answers_tables",
                "estimation.pair_answers_tables")
    tracer.wrap(server, "fit_lambda_queries",
                "estimation.fit_lambda_queries",
                work=lambda a, k, r: {"queries": len(a[0])})
    tracer.wrap(server, "build_answer_plan", "optimizer.build_answer_plan",
                work=lambda a, k, plan: {"nodes": len(plan.nodes)})
    tracer.wrap(server, "predicate_cell_weights",
                "grids.predicate_cell_weights")
    tracer.wrap(Query, "validate_for", "queries.validate_for")
    tracer.wrap(Predicate, "indicator", "queries.indicator")

    # fo.kernels dispatch (every caller goes through the module attribute)
    for name in kernels.KERNEL_NAMES:
        tracer.wrap(kernels, name, f"fo.kernels.{name}",
                    work=_kernel_elements(name))


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(tracer: Tracer, *, aggregators: Iterable = (),
                  service=None, client=None, ingest_stats=None,
                  exec_stats=None, queries_answered: int = 0,
                  rows_admitted: int = 0) -> Dict[str, float]:
    """The per-layer table (values only; units live in BENCHMARK.json).

    ``aggregators`` are the models the traced pass built or queried;
    their ``timings`` and ``fit_diagnostics()`` are summed.
    """
    times = tracer.layer_times()
    counters = tracer.counters

    def self_s(name: str) -> float:
        return times.get(name, {}).get("self_s", 0.0)

    def count(name: str) -> float:
        return float(counters.get(name, 0.0))

    out: Dict[str, float] = {
        "wire.decode_frame.calls": count("wire.decode_frame.calls"),
        "wire.decode_frame.s": self_s("wire.decode_frame"),
        "wire.decode_frame.mb": tracer.peak_mb.get("wire.decode_frame",
                                                   0.0),
        "wire.session_feed.s": self_s("wire.session_feed"),
        "wire.encode_report.s": self_s("wire.encode_report"),
        "wire.encode_report.mb": tracer.peak_mb.get("wire.encode_report",
                                                    0.0),
        "service.save_checkpoint.calls":
            count("service.save_checkpoint.calls"),
        "service.save_checkpoint.s": self_s("service.save_checkpoint"),
        "service.write_checkpoint_file.s":
            self_s("service.write_checkpoint_file"),
        "robustness.sanitize_report.calls":
            count("robustness.sanitize_report.calls"),
        "robustness.sanitize_report.s": self_s("robustness.sanitize_report"),
        "core.streaming.ingest_report.s":
            self_s("core.streaming.ingest_report"),
        "core.streaming.compact.calls":
            count("core.streaming.compact.calls"),
        "core.streaming.compact.s": self_s("core.streaming.compact"),
        "core.streaming.finalize.s": self_s("core.streaming.finalize"),
        "core.merge.merge_reports.s": self_s("core.merge.merge_reports"),
        "core.merge.copy_amplification": _ratio(
            count("core.merge.merge_reports.rows"), rows_admitted),
        "core.planner.plan_grids.s": self_s("core.planner.plan_grids"),
        "core.planner.grids": _ratio(count("core.planner.plan_grids.grids"),
                                     count("core.planner.plan_grids.calls")),
        "core.partition.partition_users.s":
            self_s("core.partition.partition_users"),
        "core.client.collect_reports.s":
            self_s("core.client.collect_reports"),
        "core.parallel.run_sharded.calls":
            count("core.parallel.run_sharded.calls"),
        "core.parallel.run_sharded.tasks":
            count("core.parallel.run_sharded.tasks"),
        "core.parallel.retried_shards":
            float(exec_stats.retries) if exec_stats is not None else 0.0,
        "postprocess.postprocess_grids.s":
            self_s("postprocess.postprocess_grids"),
        "estimation.fit_response_matrix.calls":
            count("estimation.fit_response_matrix.calls"),
        "estimation.fit_response_matrix.s":
            self_s("estimation.fit_response_matrix"),
        "estimation.sat.builds": count("estimation.sat.build.calls"),
        "estimation.sat.lookups":
            count("estimation.sat.lookup.rectangles"),
        "estimation.sat.s": (self_s("estimation.sat.build")
                             + self_s("estimation.sat.lookup")),
        "estimation.pair_answers_tables.s":
            self_s("estimation.pair_answers_tables"),
        "estimation.fit_lambda_queries.calls":
            count("estimation.fit_lambda_queries.calls"),
        "estimation.fit_lambda_queries.queries":
            count("estimation.fit_lambda_queries.queries"),
        "estimation.fit_lambda_queries.s":
            self_s("estimation.fit_lambda_queries"),
        "optimizer.build_answer_plan.s":
            self_s("optimizer.build_answer_plan"),
        "optimizer.plan_nodes_per_batch": _ratio(
            count("optimizer.build_answer_plan.nodes"),
            count("optimizer.build_answer_plan.calls")),
        "grids.predicate_cell_weights.s":
            self_s("grids.predicate_cell_weights"),
        "queries.validate_for.calls_per_query": _ratio(
            count("queries.validate_for.calls"), queries_answered),
        "queries.indicator.calls": count("queries.indicator.calls"),
    }
    for name in KERNELS:
        prefix = f"fo.kernels.{name}"
        out[f"{prefix}.calls"] = count(f"{prefix}.calls")
        out[f"{prefix}.elements"] = count(f"{prefix}.elements")
        out[f"{prefix}.s"] = self_s(prefix)

    # the program's own stats objects
    stats = service.stats if service is not None else None
    latency = stats.latency_summary() if stats is not None else {}
    out["service.admit_p50_ms"] = float(latency.get("p50_ms", 0.0))
    out["service.admit_p99_ms"] = float(latency.get("p99_ms", 0.0))
    out["service.queue_high_watermark"] = (
        float(stats.queue_high_watermark) if stats is not None else 0.0)
    out["service.checkpoint_write_amplification"] = _ratio(
        count("service.save_checkpoint.bytes"),
        stats.bytes_received if stats is not None else 0)
    out["service.client_resends"] = (
        float(client.stats.frames_resent) if client is not None else 0.0)
    out["service.client_reconnects"] = (
        float(client.stats.reconnects) if client is not None else 0.0)
    out["robustness.rejected_frames"] = (
        float(stats.frames_rejected) if stats is not None else 0.0)
    out["robustness.rejected_users"] = (
        float(ingest_stats.dropped_users) if ingest_stats is not None
        else 0.0)

    stage_s = {stage: 0.0 for stage in STAGES}
    matrix_sweeps, matrix_converged = [], []
    lambda_queries = lambda_sweeps = lambda_behind = 0
    for aggregator in aggregators:
        for stage, seconds in aggregator.timings.as_dict().items():
            if stage in stage_s:
                stage_s[stage] += seconds
        diagnostics = aggregator.fit_diagnostics()
        for diag in diagnostics["response_matrices"].values():
            matrix_sweeps.append(diag["sweeps"])
            matrix_converged.append(bool(diag["converged"]))
        lam = diagnostics["lambda_queries"]
        lambda_queries += lam["queries"]
        lambda_sweeps += lam["total_sweeps"]
        lambda_behind += lam["non_converged"]
    for stage, seconds in stage_s.items():
        out[f"core.server.{stage}.s"] = seconds
    out["estimation.response_matrix.sweeps_mean"] = (
        float(np.mean(matrix_sweeps)) if matrix_sweeps else 0.0)
    out["estimation.response_matrix.converged_share"] = (
        float(np.mean(matrix_converged)) if matrix_converged else 0.0)
    out["estimation.lambda.sweeps_per_query"] = _ratio(lambda_sweeps,
                                                       lambda_queries)
    out["estimation.lambda.converged_share"] = (
        1.0 - _ratio(lambda_behind, lambda_queries)
        if lambda_queries else 0.0)
    return out


def overhead_pct(untraced: Dict[str, float], traced: Dict[str, float],
                 better: Dict[str, str]) -> Dict[str, float]:
    """How much worse each end-to-end metric read with tracing on, in %."""
    out = {}
    for name, base in untraced.items():
        value = traced[name]
        if not base or not value:
            out[f"trace.overhead_pct.{name}"] = 0.0
        elif better[name] == "lower":
            out[f"trace.overhead_pct.{name}"] = (value / base - 1.0) * 100
        else:
            out[f"trace.overhead_pct.{name}"] = (base / value - 1.0) * 100
    return out

