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
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import partition_users, plan_grids
from repro.core.client import collect_reports
from repro.errors import GridError, ProtocolError
from repro.fo import kernels
from repro.fo import registry
from repro.fo.hashing import splitmix64
from repro.fo.kernels import c_impl, numpy_impl
from repro.grids.binning import Binning
from repro.rng import ensure_rng, label_dtype

from tests.collect_reference import collect_reports_serial, folded
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

#: the C library's support sweep on this CPU ("avx512" or "scalar")
SWEEP_PATH = c_impl.support_path() if "cc" in COMPILED else None


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


#: hash ranges for the support sweep: powers of two (the mask compare,
#: g=4 at ε=1) and not (the divisibility compare, g=56 at ε=4), up to
#: the uint64 extremes
SUPPORT_HASH_RANGES = [1, 2, 4, 13, 16, 17, 56, 64, 101, 3 * 2**33,
                       2**63 + 1, 2**64 - 1]

#: OLH hash ranges: powers of two (g=4 at ε=1) and not (g=56 at ε=4)
OLH_HASH_RANGES = [2, 3, 4, 13, 16, 56, 64, 101, 2**40, 2**40 + 3]

#: one support-sweep input: n crosses the 8-lane and user-tile edges,
#: candidate counts are often not a multiple of the interleave width
support_inputs = dict(
    seed=st.integers(0, 2**32 - 1), n=st.integers(0, 5000),
    g=st.sampled_from(SUPPORT_HASH_RANGES), terms=st.integers(1, 21),
    components=st.integers(1, 3), wide_buckets=st.booleans())


def support_case(seed, n, g, terms, components, wide_buckets):
    """Seeds, buckets and candidates where a third of the users report
    candidate 0's true bucket, so every hash range sees hits. With
    ``wide_buckets`` the rest report any uint64, and some report a bucket
    b >= g with b <= s and b == s (mod g): a hit for ``s % g == b``
    restated as divisibility, unless out-of-range buckets are excluded."""
    rng = np.random.default_rng(seed)
    mixed = rng.integers(0, 2**64, size=n, dtype=np.uint64)
    high = 2**64 if wide_buckets else g
    buckets = rng.integers(0, high, size=n, dtype=np.uint64)
    cand = rng.integers(0, 2**64, size=(terms, components), dtype=np.uint64)
    state = mixed
    for component in cand[0]:
        state = splitmix64(state ^ component)
    truth = state % np.uint64(g)
    pick = rng.integers(0, 3, size=n)
    buckets[pick == 0] = truth[pick == 0]
    if wide_buckets:
        trap = (pick == 1) & (state - truth >= np.uint64(g))
        buckets[trap] = truth[trap] + np.uint64(g)
    return mixed, buckets, cand


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

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 400),
           d=st.integers(2, 300),
           g=st.one_of(st.sampled_from(OLH_HASH_RANGES),
                       st.integers(2, 2**62)),
           p=st.floats(0.01, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_olh_perturb(self, backend, seed, n, d, g, p):
        rng, values, keep_u = seeded_case(seed, n, d)
        seeds = rng.integers(0, 2**64, size=n, dtype=np.uint64)
        others = rng.integers(0, g - 1, size=n)
        reference = numpy_impl.olh_perturb(seeds, values, keep_u, others,
                                           p, g)
        with kernels.use_backend(backend):
            bit_equal(kernels.olh_perturb(seeds, values, keep_u, others, p,
                                          g),
                      reference)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 3000))
    @settings(max_examples=40, deadline=None)
    def test_mix_seeds(self, backend, seed, n):
        seeds = np.random.default_rng(seed).integers(0, 2**64, size=n,
                                                     dtype=np.uint64)
        reference = numpy_impl.mix_seeds(seeds)
        with kernels.use_backend(backend):
            bit_equal(kernels.mix_seeds(seeds), reference)

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

    @given(**support_inputs)
    @settings(max_examples=60, deadline=None)
    def test_support_counts(self, backend, seed, n, g, terms, components,
                            wide_buckets):
        mixed, buckets, cand = support_case(seed, n, g, terms, components,
                                            wide_buckets)
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
# The C library's two support sweeps: scalar loop and AVX-512 vectors
# ---------------------------------------------------------------------------


@pytest.fixture
def scalar_probe(monkeypatch):
    """Reload the C library as on a CPU without AVX-512."""
    monkeypatch.setattr(c_impl, "_cpu_has_avx512", lambda lib: False)
    c_impl.reset_for_tests()
    yield
    monkeypatch.undo()
    c_impl.reset_for_tests()


@pytest.mark.skipif("cc" not in COMPILED, reason="no C toolchain")
class TestSupportSweepPaths:
    @pytest.mark.skipif(SWEEP_PATH != "avx512",
                        reason="CPU lacks AVX-512F/AVX-512DQ")
    @given(**support_inputs)
    @settings(max_examples=60, deadline=None)
    def test_scalar_and_vector_entry_points_agree(
            self, seed, n, g, terms, components, wide_buckets):
        mixed, buckets, cand = support_case(seed, n, g, terms, components,
                                            wide_buckets)
        reference = numpy_impl.support_counts(mixed, buckets, g, cand,
                                              1 << 20)
        for path in ("scalar", "avx512"):
            bit_equal(c_impl.support_counts(mixed, buckets, g, cand, 0,
                                            path=path),
                      reference)

    def test_probe_false_serves_scalar_loop(self, scalar_probe):
        mixed, buckets, cand = support_case(5, 2_000, 56, 7, 2, True)
        reference = numpy_impl.support_counts(mixed, buckets, 56, cand,
                                              1 << 20)
        with kernels.use_backend("cc"):
            assert kernels.backend_report()["support_sweep"] == "scalar"
            bit_equal(kernels.support_counts(mixed, buckets, 56, cand),
                      reference)

    @pytest.mark.parametrize("g", [4, 56])
    def test_out_of_range_buckets_support_nothing(self, g):
        """Only users with a bucket b >= g remain, about a third of them
        ones the divisibility compare alone would count; no backend or
        path counts any."""
        mixed, buckets, cand = support_case(9, 5_000, g, 5, 1, True)
        keep = buckets >= np.uint64(g)
        mixed, buckets = mixed[keep], buckets[keep]
        expected = np.zeros(len(cand), dtype=np.int64)
        bit_equal(numpy_impl.support_counts(mixed, buckets, g, cand,
                                            1 << 20), expected)
        for path in dict.fromkeys(("scalar", SWEEP_PATH)):
            bit_equal(c_impl.support_counts(mixed, buckets, g, cand, 0,
                                            path=path), expected)


# ---------------------------------------------------------------------------
# The grouping pass: records to grouped cells, no draws
# ---------------------------------------------------------------------------

#: group counts on both sides of the uint8/uint16 label boundary
GROUP_COUNTS = [1, 19, 255, 256, 257]


def group_case(seed, n, m, empty_groups):
    """Records over 5 columns, labels over ``m`` groups and each group's
    axes: equal-split 1-D and 2-D grids, ``Binning.from_edges`` axes and
    identity tables. No grid reads the last column, which holds codes
    outside every domain; with ``empty_groups`` the labels skip half the
    groups."""
    rng = np.random.default_rng(seed)
    domains = rng.integers(1, 40, size=4)
    records = np.empty((n, 5), dtype=np.int64)
    for column, d in enumerate(domains):
        records[:, column] = rng.integers(0, d, size=n)
    records[:, 4] = rng.integers(-50, 50, size=n) * 1000

    def binning(d):
        if d > 2 and rng.random() < 0.5:
            cuts = rng.choice(np.arange(1, d), size=rng.integers(1, d - 1),
                              replace=False)
            return Binning.from_edges(np.sort(np.r_[0, cuts, d]))
        return Binning(d, int(rng.integers(1, d + 1)))

    def table(d, scale=1):
        return binning(d).cell_of(np.arange(d)) * scale

    axes = []
    for _ in range(m):
        kind = rng.integers(0, 3)
        x, y = rng.choice(4, size=2, replace=False)
        if kind == 0:
            axes.append(((x, table(domains[x])),))
        elif kind == 1:
            cells_y = binning(domains[y])
            axes.append(((x, table(domains[x], cells_y.num_cells)),
                         (y, cells_y.cell_of(np.arange(domains[y])))))
        else:
            axes.append(((x, np.arange(domains[x])),))
    pool = m // 2 if empty_groups and m > 1 else m
    labels = rng.integers(0, pool, size=n)
    return records, labels, axes


@pytest.mark.parametrize("backend", ("numpy",) + COMPILED)
class TestGroupCells:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 3000),
           m=st.sampled_from(GROUP_COUNTS), empty_groups=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_matches_reference(self, backend, seed, n, m, empty_groups):
        """Both tiers give the cells and offsets of a per-group loop,
        bytes and dtype: each group's rows in row order (a boolean mask
        per group), each row's cell the sum of its axes' tables."""
        records, labels, axes = group_case(seed, n, m, empty_groups)
        with kernels.use_backend(backend):
            cells, offsets = kernels.group_cells(records, labels, axes)
        expected_offsets = np.zeros(m + 1, dtype=np.int64)
        expected_offsets[1:] = np.cumsum(np.bincount(labels, minlength=m))
        bit_equal(offsets, expected_offsets)
        expected = np.zeros(n, dtype=np.int64)
        for g, pairs in enumerate(axes):
            rows = np.flatnonzero(labels == g)
            group = np.zeros(len(rows), dtype=np.int64)
            for column, table in pairs:
                group += table[records[rows, column]]
            expected[offsets[g]:offsets[g + 1]] = group
        bit_equal(cells, expected)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 3000),
           m=st.sampled_from(GROUP_COUNTS))
    @settings(max_examples=20, deadline=None)
    def test_tier_agrees_with_numpy_for_every_label_dtype(
            self, backend, seed, n, m):
        records, labels, axes = group_case(seed, n, m, False)
        reference = numpy_impl.group_cells(
            records, labels.astype(label_dtype(m)), axes)
        for dtype in (np.int64, np.int32, label_dtype(m)):
            with kernels.use_backend(backend):
                result = kernels.group_cells(records, labels.astype(dtype),
                                             axes)
            for got, want in zip(result, reference):
                bit_equal(got, want)

    def test_beyond_uint16_labels(self, backend):
        """65 537 groups keep int64 labels on every tier."""
        m = (1 << 16) + 1
        rng = np.random.default_rng(1)
        records = rng.integers(0, 3, size=(5_000, 2))
        labels = rng.integers(0, m, size=5_000)
        labels[:2] = (0, m - 1)
        axes = [((g % 2, np.array([0, 1, 2]) * (g % 5)),)
                for g in range(m)]
        reference = numpy_impl.group_cells(records, labels, axes)
        with kernels.use_backend(backend):
            result = kernels.group_cells(records, labels, axes)
        for got, want in zip(result, reference):
            bit_equal(got, want)

    @pytest.mark.parametrize("bad", [19, -1, -256, -65536])
    def test_label_outside_the_groups_raises(self, backend, bad):
        """Checked before the labels narrow: -256 and -65536 would wrap
        to group 0 as uint8 and uint16."""
        records, labels, axes = group_case(3, 500, 19, False)
        labels[123] = bad
        with kernels.use_backend(backend):
            with pytest.raises(ProtocolError, match="outside"):
                kernels.group_cells(records, labels, axes)

    @pytest.mark.parametrize("dtype", [np.float64, np.bool_])
    def test_non_integer_labels_raise(self, backend, dtype):
        records, labels, axes = group_case(3, 500, 2, False)
        with kernels.use_backend(backend):
            with pytest.raises(ProtocolError, match=np.dtype(dtype).name):
                kernels.group_cells(records, labels.astype(dtype), axes)

    def test_non_integer_records_raise(self, backend):
        records, labels, axes = group_case(3, 500, 19, False)
        with kernels.use_backend(backend):
            with pytest.raises(ProtocolError, match="float64"):
                kernels.group_cells(records + 0.5, labels, axes)

    @pytest.mark.parametrize("side", ["below", "above"])
    def test_code_outside_a_read_domain_raises(self, backend, side):
        """Only codes a row's group reads are checked: the last column's
        codes are outside every domain and never raise."""
        records, labels, axes = group_case(5, 2_000, 19, False)
        column, table = axes[labels[7]][0]
        records[7, column] = -1 if side == "below" else len(table)
        with kernels.use_backend(backend):
            with pytest.raises(GridError, match=f"column {column}"):
                kernels.group_cells(records, labels, axes)


# ---------------------------------------------------------------------------
# The partition shuffle: numpy's own draws, on every BitGenerator
# ---------------------------------------------------------------------------

#: every numpy BitGenerator: the shuffle draws through each one's own
#: bitgen_t functions
BIT_GENERATORS = (np.random.PCG64, np.random.PCG64DXSM, np.random.Philox,
                  np.random.SFC64, np.random.MT19937)


def same_state(a, b):
    """Deep equality of two ``bit_generator.state`` dicts (Philox and
    MT19937 keep arrays in theirs)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k])
                                            for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("backend", ("numpy",) + COMPILED)
class TestPermute:
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS,
                             ids=lambda b: b.__name__)
    @pytest.mark.parametrize("n", [0, 1, 2, 100_003])
    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64])
    @pytest.mark.parametrize("buffered", [False, True],
                             ids=["fresh", "buffered"])
    def test_is_generator_permutation(self, backend, bit_generator, n,
                                      dtype, buffered):
        """The labels, their dtype, the generator's state afterwards and
        its next draws all equal ``Generator.permutation``'s, also from
        a state holding half a 64-bit output as a buffered uint32."""
        labels = (np.arange(n) % 19).astype(dtype)
        ours, theirs = (np.random.Generator(bit_generator(11))
                        for _ in range(2))
        if buffered:
            for rng in (ours, theirs):
                rng.integers(0, 2**32, dtype=np.uint32)
            # MT19937 draws 32 bits natively and buffers nothing.
            assert ours.bit_generator.state.get("has_uint32", 1) == 1
        expected = theirs.permutation(labels)
        with kernels.use_backend(backend):
            got = kernels.permute(labels, ours)
        bit_equal(got, expected)
        assert same_state(ours.bit_generator.state,
                          theirs.bit_generator.state)
        bit_equal(ours.integers(0, 2**63, size=8),
                  theirs.integers(0, 2**63, size=8))
        bit_equal(labels, (np.arange(n) % 19).astype(dtype))

    def test_waits_for_the_generator_lock(self, backend):
        """Like numpy's own shuffle, the kernel draws only while it holds
        the generator's lock."""
        rng = np.random.default_rng(5)
        labels = np.arange(1_000, dtype=np.uint16)
        expected = np.random.default_rng(5).permutation(labels)
        done = {}

        def shuffle():
            done["labels"] = kernels.permute(labels, rng)

        with kernels.use_backend(backend):
            kernels.warm(["permute"])
            worker = threading.Thread(target=shuffle)
            with rng.bit_generator.lock:
                worker.start()
                worker.join(timeout=0.5)
                assert worker.is_alive() and "labels" not in done
            worker.join(timeout=30)
        assert not worker.is_alive()
        bit_equal(done["labels"], expected)

    def test_rejects_bad_inputs(self, backend):
        rng = np.random.default_rng(1)
        with kernels.use_backend(backend):
            with pytest.raises(ProtocolError, match="float64"):
                kernels.permute(np.zeros(3), rng)
            with pytest.raises(ProtocolError, match="1-D"):
                kernels.permute(np.zeros((2, 2), np.int64), rng)
            with pytest.raises(ProtocolError, match="Generator"):
                kernels.permute(np.arange(3), 7)


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
        single bit of any report or folded state, and a whole-group
        shard's state is the fold of the serial reference's report."""
        config = config_for(protocol)
        plans, assignment = planned_collection(pipeline_dataset, config)

        def serial():
            return collect_reports_serial(
                pipeline_dataset.records, assignment, plans,
                config.epsilon, rng=17)

        def sharded(chunk_size):
            return collect_reports(
                pipeline_dataset.records, assignment, plans,
                config.epsilon, rng=17, workers=4, chunk_size=chunk_size)

        with kernels.use_backend("numpy"):
            reference_serial = serial()
            reference_folded = folded(reference_serial, config.epsilon)
            reference_sharded = sharded(1_000)
        assert_same_reports(sharded(None), reference_folded)
        for backend in COMPILED:
            with kernels.use_backend(backend):
                assert_same_reports(serial(), reference_serial)
                assert_same_reports(sharded(None), reference_folded)
                assert_same_reports(sharded(1_000), reference_sharded)


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
        base = {"active", "errors", "override", "no_jit"}
        report = kernels.backend_report()
        if report["active"]["support_counts"] == "cc":
            assert set(report) == base | {"support_sweep"}
            assert report["support_sweep"] in ("avx512", "scalar")
        else:
            assert set(report) == base
        with kernels.use_backend("numpy"):
            assert set(kernels.backend_report()) == base

    def test_registry_kernel_declarations_are_known(self):
        for spec in registry.all_specs():
            for name in spec.kernels:
                assert name in kernels.KERNEL_NAMES, (spec.name, name)

    @pytest.mark.parametrize("name", [spec.name
                                      for spec in registry.all_specs()
                                      if spec.factory is not None])
    def test_protocol_calls_exactly_its_declared_kernels(self, name,
                                                         monkeypatch):
        """``ProtocolSpec.kernels`` is what gets warmed before timed work,
        so it must name exactly the kernels a perturb and a fold call:
        a stale entry moves a kernel's first resolution into a timed
        stage."""
        spec = registry.get(name)
        oracle = spec.factory(2.0, 16)
        values = np.random.default_rng(3).integers(0, 16, size=500)
        called = set()
        for kernel in kernels.KERNEL_NAMES:
            def recorder(*args, _kernel=kernel,
                         _original=getattr(kernels, kernel), **kwargs):
                called.add(_kernel)
                return _original(*args, **kwargs)
            monkeypatch.setattr(kernels, kernel, recorder)
        oracle.fold(None, [oracle.perturb(values, rng=4)])
        assert called == set(spec.kernels)

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
        # 2**64 would wrap to 0 in the C library's uint64 argument.
        for hash_range in (0, 2**64):
            with pytest.raises(ProtocolError, match="hash_range"):
                kernels.support_counts(np.zeros(2, np.uint64),
                                       np.zeros(2, np.uint64), hash_range,
                                       np.zeros(1, np.uint64))

    def test_olh_perturb_rejects_bad_inputs(self):
        seeds = np.zeros(3, np.uint64)
        with pytest.raises(ProtocolError, match="lengths disagree"):
            kernels.olh_perturb(seeds, np.arange(3), np.zeros(2),
                                np.zeros(3, np.int64), 0.5, 4)
        for g in (0, 2**64):
            with pytest.raises(ProtocolError, match="g must be"):
                kernels.olh_perturb(seeds, np.arange(3), np.zeros(3),
                                    np.zeros(3, np.int64), 0.5, g)

    def test_mix_seeds_rejects_2d(self):
        with pytest.raises(ProtocolError, match="1-D"):
            kernels.mix_seeds(np.zeros((2, 2), np.uint64))

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
