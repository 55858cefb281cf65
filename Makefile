# Developer entry points. PYTHONPATH=src everywhere: the package is laid
# out src/-style but is exercised in place, uninstalled.

PY := PYTHONPATH=src python

.PHONY: test test-nojit test-faults test-service lint \
	bench-kernels bench-pipeline bench-answers bench-figures \
	bench-service bench-selftest

# Tier-1: the gate every PR must keep green. Includes the fault and
# service suites (they collect by default; `test-faults` and
# `test-service` run just those slices).
test:
	$(PY) -m pytest -x -q

# The whole suite with every compiled kernel backend disabled
# (REPRO_NO_JIT=1): proves the numpy fallback is complete and that
# results are bit-identical to the compiled path (the determinism
# contract makes backend choice unobservable in outputs).
test-nojit:
	REPRO_NO_JIT=1 $(PY) -m pytest -x -q

# Static checks: no string-literal protocol dispatch outside the
# registry (also collected by the default pytest run).
lint:
	$(PY) -m pytest tests/test_registry_lint.py -q

# Robustness slice: failure-injection + chaos tests only.
test-faults:
	$(PY) -m pytest -m faults -q

# Deployment slice: ingestion service, resilient wire client, per-peer
# admission, incremental checkpoints, and the chaos kill/restore
# recovery suites (also part of the default `test` run).
test-service:
	$(PY) -m pytest tests/test_service.py tests/test_service_client.py -q

# Micro-primitive benchmarks (tiled OLH kernel, perturb/estimate, HIO
# answer throughput). Writes BENCH_kernels.json so PRs can diff kernel
# throughput over time.
bench-kernels:
	$(PY) -m pytest benchmarks/test_micro_primitives.py -m benchmarks -q \
	    --benchmark-json=.bench_raw.json
	$(PY) benchmarks/record.py .bench_raw.json BENCH_kernels.json
	@rm -f .bench_raw.json

# Collection-pipeline throughput at n=10^6: serial reference vs the
# sharded executor. Writes BENCH_pipeline.json for PR-over-PR diffing.
bench-pipeline:
	$(PY) -m pytest benchmarks/test_pipeline_parallel.py -m benchmarks -q \
	    --benchmark-json=.bench_raw.json
	$(PY) benchmarks/record.py .bench_raw.json BENCH_pipeline.json
	@rm -f .bench_raw.json

# Answering-engine throughput: eager materialization, summed-area
# lookups, and the batched 1000-query mixed-λ workload vs one `answer`
# call per query (which must be ≥10x slower). Writes BENCH_answers.json.
bench-answers:
	$(PY) -m pytest benchmarks/test_answer_throughput.py -m benchmarks -q \
	    --benchmark-json=.bench_raw.json
	$(PY) benchmarks/record.py .bench_raw.json BENCH_answers.json
	@rm -f .bench_raw.json

# Ingestion-service soak: 10^6 wire clients through the asyncio front
# door (frame decode → pin check → sanitize → merge with periodic
# compaction), plus a checkpoint save/restore cycle verified
# bit-identical, plus a chaos soak (faulted links, mid-stream service
# kill restored from the latest incremental checkpoint). The tests
# merge their records into BENCH_service.json themselves (throughput,
# p99 admission latency, checkpoint size/save/restore time,
# throughput-under-chaos, recovery-point lag).
bench-service:
	$(PY) -m pytest benchmarks/test_service_soak.py -m benchmarks -q

# The full figure-regeneration benchmark suite (slow).
bench-figures:
	$(PY) -m pytest benchmarks -m benchmarks -q

# Self-tests of the repository benchmark (perfbench/, ~30 s): metric
# sets, every correctness gate failing on a broken input, and the
# tracer. Fails fast when a rename breaks an entry point the traced
# benchmark wraps (e.g. repro.core.server.build_answer_plan).
bench-selftest:
	python3 perfbench/selftest.py
