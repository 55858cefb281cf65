"""Tests for the compiled-kernel layer (:mod:`repro.fo.kernels`).

The load-bearing property is **bit-identity**: every compiled backend
must return exactly what the numpy reference returns, on every input —
integer kernels by exact modular arithmetic, float kernels by replicated
accumulation order (no FMA, no reassociation). Hypothesis drives the
per-kernel properties; the pipeline classes check the same contract
end-to-end for all eight protocols across {compiled, numpy-fallback} ×
{serial, sharded}.

Also covered: dispatch rules (preference order, ``REPRO_NO_JIT``,
unknown ``REPRO_JIT``), the guaranteed fallback, warm idempotence and
the warm-keeps-timings-stable regression, validation errors, and the
registry's kernel declarations.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import partition_users, plan_grids
from repro.core.client import collect_reports, collect_reports_serial
from repro.errors import ProtocolError
from repro.fo import kernels
from repro.fo import registry
from repro.fo.kernels import numpy_impl
from repro.rng import ensure_rng

from tests.test_parallel_pipeline import (
    ALL_PROTOCOLS,
    assert_same_reports,
    config_for,
    planned_collection,
)

#: every compiled backend that actually loads here (empty when no C
#: toolchain is present — then only the dispatch and fallback tests run)
COMPILED = tuple(b for b in kernels.available_backends() if b != "numpy")

needs_compiled = pytest.mark.skipif(
    not COMPILED, reason="no compiled kernel backend available")


@pytest.fixture(autouse=True)
def _clean_dispatch():
    """Each test starts and ends with a pristine dispatch table."""
    kernels.reset_for_tests()
    yield
    kernels.reset_for_tests()


def bit_equal(a, b):
    """Bitwise array equality: exact for ints, bit-pattern for floats
    (distinguishes -0.0 from +0.0, which plain == does not)."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape, (a.dtype, b.dtype)
    if a.dtype.kind == "f":
        np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))
    else:
        np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# Per-kernel bit-equality properties: compiled backend == numpy reference
# ---------------------------------------------------------------------------


def seeded_case(draw_seed, n, d):
    """Deterministic random inputs shared by the kernel properties."""
    rng = np.random.default_rng(draw_seed)
    values = rng.integers(0, d, size=n).astype(np.int64)
    uniforms = rng.random(n)
    return rng, values, uniforms


@needs_compiled
@pytest.mark.parametrize("backend", COMPILED)
class TestKernelBitEquality:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 400),
           d=st.integers(2, 50), p=st.floats(0.01, 0.99))
    @settings(max_examples=40, deadline=None)
    def test_grr_apply(self, backend, seed, n, d, p):
        rng, values, keep_u = seeded_case(seed, n, d)
        others = rng.integers(0, d - 1, size=n).astype(np.int64)
        reference = numpy_impl.grr_apply(values, keep_u, others, p)
        with kernels.use_backend(backend):
            bit_equal(kernels.grr_apply(values, keep_u, others, p),
                      reference)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 200),
           d=st.integers(2, 40), p=st.floats(0.01, 0.99),
           q=st.floats(0.01, 0.99))
    @settings(max_examples=40, deadline=None)
    def test_ue_accumulate(self, backend, seed, n, d, p, q):
        rng, values, true_u = seeded_case(seed, n, d)
        uniforms = rng.random((n, d))
        reference = numpy_impl.ue_accumulate(uniforms.copy(), values,
                                             true_u, p, q)
        with kernels.use_backend(backend):
            bit_equal(kernels.ue_accumulate(uniforms, values, true_u, p, q),
                      reference)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 200),
           d=st.integers(2, 40))
    @settings(max_examples=40, deadline=None)
    def test_he_sum_accumulate(self, backend, seed, n, d):
        rng, values, _ = seeded_case(seed, n, d)
        noisy = rng.laplace(0.0, 2.0, size=(n, d))
        if n and d > 2:
            noisy[0, 1] = -0.0  # the accumulation-order tripwire
        reference = numpy_impl.he_sum_accumulate(noisy.copy(), values)
        with kernels.use_backend(backend):
            bit_equal(kernels.he_sum_accumulate(noisy.copy(), values),
                      reference)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 200),
           d=st.integers(2, 40), threshold=st.floats(-1.0, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_he_threshold_accumulate(self, backend, seed, n, d, threshold):
        rng, values, _ = seeded_case(seed, n, d)
        noisy = rng.laplace(0.0, 2.0, size=(n, d))
        reference = numpy_impl.he_threshold_accumulate(
            noisy.copy(), values, threshold)
        with kernels.use_backend(backend):
            bit_equal(
                kernels.he_threshold_accumulate(noisy.copy(), values,
                                                threshold),
                reference)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 300),
           g=st.sampled_from([2, 13, 16, 17, 64, 101]),
           terms=st.integers(1, 20), components=st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_support_counts(self, backend, seed, n, g, terms, components):
        rng = np.random.default_rng(seed)
        mixed = rng.integers(0, 2**64, size=n, dtype=np.uint64)
        buckets = rng.integers(0, g, size=n).astype(np.uint64)
        cand = rng.integers(0, 2**64, size=(terms, components),
                            dtype=np.uint64)
        reference = numpy_impl.support_counts(mixed, buckets, g, cand,
                                              1 << 20)
        with kernels.use_backend(backend):
            bit_equal(kernels.support_counts(mixed, buckets, g, cand),
                      reference)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 300),
           d=st.integers(2, 60), p=st.floats(0.01, 0.99))
    @settings(max_examples=40, deadline=None)
    def test_hr_apply(self, backend, seed, n, d, p):
        rng, values, keep_u = seeded_case(seed, n, d)
        order = 1 << int(d).bit_length()
        rows = rng.integers(0, order, size=n).astype(np.int64)
        reference = numpy_impl.hr_apply(rows, values, keep_u, p)
        with kernels.use_backend(backend):
            bit_equal(kernels.hr_apply(rows, values, keep_u, p), reference)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 300),
           d=st.integers(1, 300))
    @settings(max_examples=40, deadline=None)
    def test_hr_supports(self, backend, seed, n, d):
        rng = np.random.default_rng(seed)
        order = 1 << int(d).bit_length()
        rows = rng.integers(0, order, size=n).astype(np.int64)
        bits = rng.choice(np.array([-1, 1], dtype=np.int8), size=n)
        reference = numpy_impl.hr_supports(rows, bits, d)
        with kernels.use_backend(backend):
            bit_equal(kernels.hr_supports(rows, bits, d), reference)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 300),
           b=st.floats(0.01, 0.5), buckets=st.integers(2, 64))
    @settings(max_examples=40, deadline=None)
    def test_sw_transform(self, backend, seed, n, b, buckets):
        rng = np.random.default_rng(seed)
        v = rng.random(n)
        close = rng.random(n) < 0.5
        close_draws = rng.uniform(-b, b, size=int(close.sum()))
        far_draws = rng.uniform(0.0, 1.0, size=int((~close).sum()))
        width = (1.0 + 2.0 * b) / buckets
        reference = numpy_impl.sw_transform(v, close, close_draws,
                                            far_draws, b, width, buckets)
        with kernels.use_backend(backend):
            bit_equal(
                kernels.sw_transform(v, close, close_draws, far_draws, b,
                                     width, buckets),
                reference)

    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 8),
           m=st.integers(1, 50), kind=st.sampled_from(["i", "f"]))
    @settings(max_examples=40, deadline=None)
    def test_fold_arrays(self, backend, seed, k, m, kind):
        rng = np.random.default_rng(seed)
        if kind == "i":
            arrays = [rng.integers(-100, 100, size=m) for _ in range(k)]
        else:
            arrays = [rng.laplace(0.0, 1.0, size=m) for _ in range(k)]
            arrays[0][0] = -0.0
        reference = numpy_impl.fold_arrays(
            [np.asarray(a) for a in arrays])
        with kernels.use_backend(backend):
            bit_equal(kernels.fold_arrays(arrays), reference)

    def test_fold_arrays_mixed_dtype_falls_back(self, backend):
        arrays = [np.arange(4, dtype=np.int32), np.arange(4, dtype=np.int32)]
        with kernels.use_backend(backend):
            bit_equal(kernels.fold_arrays(arrays),
                      numpy_impl.fold_arrays(arrays))

    def test_fold_arrays_2d(self, backend):
        rng = np.random.default_rng(3)
        arrays = [rng.laplace(0.0, 1.0, size=(4, 5)) for _ in range(3)]
        with kernels.use_backend(backend):
            bit_equal(kernels.fold_arrays(arrays),
                      numpy_impl.fold_arrays(arrays))


# ---------------------------------------------------------------------------
# Full-pipeline bit-identity: {compiled, numpy} × {serial, sharded}
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pipeline_dataset():
    from repro.data import normal_dataset
    return normal_dataset(6_000, num_numerical=2, num_categorical=1,
                          numerical_domain=32, categorical_domain=4,
                          rng=5)


@needs_compiled
class TestPipelineBitIdentity:
    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_backend_invisible_serial_and_sharded(self, pipeline_dataset,
                                                  protocol):
        """Collection output is a pure function of (seed, chunk_size):
        switching kernel backends or shard executors never changes a
        single bit of any report."""
        config = config_for(protocol)
        plans, assignment = planned_collection(pipeline_dataset, config)

        def collect(serial):
            if serial:
                return collect_reports_serial(
                    pipeline_dataset.records, assignment, plans,
                    config.epsilon, rng=17)
            return collect_reports(
                pipeline_dataset.records, assignment, plans,
                config.epsilon, rng=17, workers=4, backend="thread",
                chunk_size=1_000)

        with kernels.use_backend("numpy"):
            reference_serial = collect(serial=True)
            reference_sharded = collect(serial=False)
        for backend in COMPILED:
            with kernels.use_backend(backend):
                assert_same_reports(collect(serial=True), reference_serial)
                assert_same_reports(collect(serial=False),
                                    reference_sharded)


# ---------------------------------------------------------------------------
# Dispatch rules, fallback guarantees, environment switches
# ---------------------------------------------------------------------------


class TestDispatch:
    def test_numpy_always_available_and_last(self):
        backends = kernels.available_backends()
        assert backends[-1] == "numpy"
        assert backends.count("numpy") == 1

    def test_active_backends_cover_every_kernel(self):
        active = kernels.active_backends()
        assert set(active) == set(kernels.KERNEL_NAMES)

    def test_use_backend_numpy_forces_fallback(self):
        with kernels.use_backend("numpy"):
            assert set(kernels.active_backends().values()) == {"numpy"}
        # Restored afterwards: the default preference applies again.
        assert set(kernels.active_backends().values()) <= \
            set(kernels.BACKEND_PREFERENCE)

    def test_use_backend_rejects_unknown(self):
        with pytest.raises(ProtocolError, match="unknown kernel backend"):
            with kernels.use_backend("fortran"):
                pass

    def test_no_jit_env_selects_numpy_only(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_JIT", "1")
        kernels.reset_for_tests()
        assert set(kernels.active_backends().values()) == {"numpy"}

    def test_unknown_forced_backend_degrades_to_numpy(self, monkeypatch):
        # NO_JIT outranks REPRO_JIT, so clear it in case the suite itself
        # is running under `make test-nojit` — the forced-name path must
        # still degrade (and record its error) in that configuration.
        monkeypatch.delenv("REPRO_NO_JIT", raising=False)
        monkeypatch.setenv("REPRO_JIT", "fortran")
        kernels.reset_for_tests()
        assert set(kernels.active_backends().values()) == {"numpy"}
        assert "fortran" in kernels.backend_report()["errors"]

    def test_no_jit_subprocess_runs_pure_numpy(self):
        """The documented deployment switch: a fresh interpreter with
        REPRO_NO_JIT=1 must never load a compiled backend."""
        env = dict(os.environ, REPRO_NO_JIT="1")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = "src" + (os.pathsep + existing
                                     if existing else "")
        out = subprocess.run(
            [sys.executable, "-c",
             "from repro.fo import kernels; kernels.warm(); "
             "print(sorted(set(kernels.active_backends().values())))"],
            capture_output=True, text=True, env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "['numpy']"

    def test_backend_report_shape(self):
        report = kernels.backend_report()
        assert set(report) == {"active", "errors", "override", "no_jit"}

    def test_registry_kernel_declarations_are_known(self):
        for spec in registry.all_specs():
            for name in spec.kernels:
                assert name in kernels.KERNEL_NAMES, (spec.name, name)

    def test_kernels_for_unions_and_orders(self):
        names = registry.kernels_for(["oue", "grr"])
        assert set(names) == {"grr_apply", "ue_accumulate", "fold_arrays"}
        assert list(names) == [k for k in kernels.KERNEL_NAMES
                               if k in names]
        adaptive = registry.kernels_for([registry.ADAPTIVE])
        assert "grr_apply" in adaptive  # GRR is always a candidate
        assert registry.kernels_for([]) == ()


class TestValidation:
    def test_grr_apply_length_mismatch(self):
        with pytest.raises(ProtocolError, match="lengths disagree"):
            kernels.grr_apply(np.arange(3), np.zeros(2), np.zeros(3), 0.5)

    def test_ue_accumulate_rejects_out_of_range_values(self):
        with pytest.raises(ProtocolError, match="out of range"):
            kernels.ue_accumulate(np.zeros((2, 3)), np.array([0, 7]),
                                  np.zeros(2), 0.5, 0.5)

    def test_he_sum_rejects_out_of_range_values(self):
        with pytest.raises(ProtocolError, match="out of range"):
            kernels.he_sum_accumulate(np.zeros((2, 3)), np.array([-1, 0]))

    def test_sw_transform_rejects_wrong_draw_lengths(self):
        with pytest.raises(ProtocolError, match="draw array lengths"):
            kernels.sw_transform(np.zeros(2), np.array([True, False]),
                                 np.zeros(2), np.zeros(1), 0.2, 0.1, 4)

    def test_support_counts_rejects_bad_hash_range(self):
        with pytest.raises(ProtocolError, match="hash_range"):
            kernels.support_counts(np.zeros(2, np.uint64),
                                   np.zeros(2, np.uint64), 0,
                                   np.zeros(1, np.uint64))

    def test_fold_arrays_rejects_empty_and_mismatched(self):
        with pytest.raises(ProtocolError, match="at least one"):
            kernels.fold_arrays([])
        with pytest.raises(ProtocolError, match="shapes disagree"):
            kernels.fold_arrays([np.zeros(2), np.zeros(3)])


# ---------------------------------------------------------------------------
# Warm-up: idempotence and the no-compile-cost-in-timed-runs regression
# ---------------------------------------------------------------------------


class TestWarm:
    def test_warm_is_idempotent(self):
        kernels.warm()
        first = kernels.active_backends()
        kernels.warm()
        assert kernels.active_backends() == first

    def test_warm_subset(self):
        kernels.warm(["grr_apply"])
        # Only the requested kernel needs to be resolved afterwards; a
        # full warm still succeeds on top.
        kernels.warm()

    def test_warm_rejects_unknown_kernel(self):
        with pytest.raises(ProtocolError, match="unknown kernel"):
            kernels.warm(["warp_drive"])

    def test_back_to_back_timed_runs_agree(self, pipeline_dataset):
        """Once make_oracle's warm has run, two identical timed
        collections must not differ by a compile-shaped cliff. The bound
        is deliberately loose (20x + 50ms): it catches a first-call JIT
        compile or cc invocation (hundreds of ms), never scheduler
        noise."""
        config = config_for("olh")
        plans, assignment = planned_collection(pipeline_dataset, config)

        def timed():
            start = time.perf_counter()
            collect_reports_serial(pipeline_dataset.records, assignment,
                                   plans, config.epsilon, rng=31)
            return time.perf_counter() - start

        first = timed()
        second = timed()
        assert first <= 20.0 * second + 0.05, (first, second)
