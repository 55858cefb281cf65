"""Compiled-kernel dispatch with a guaranteed numpy fallback.

The hot loops of every frequency oracle — perturb-apply (OLH's in one
pass from cells to buckets, :func:`olh_perturb`), seed mixing,
unary-encoding accumulation, support-counting sweeps, SW bucketing,
merge folds — the collection's partition shuffle (:func:`permute`)
and grouping pass (:func:`group_cells`: records to every user's grid
cell, grouped by label), and Algorithm 3's sweep (:func:`ipf_sweep`) are
defined once in
:mod:`repro.fo.kernels.numpy_impl` and optionally *replaced* by a
compiled implementation at call time:

========  =====================================================
backend   provided by
========  =====================================================
cc        :mod:`c_impl` — C source compiled at first use with the
          host toolchain (``cc``/``gcc``/``clang``), cached as a
          shared library, loaded via ctypes; its support sweep runs
          on AVX-512 when the CPU has it (:func:`backend_report`),
          its grouping pass is one sequential pass over the
          records, and its shuffle is numpy's Fisher–Yates loop
          drawing from the generator's own ``bitgen_t``
numpy     :mod:`numpy_impl` — always present, always last; groups
          with a stable argsort of the labels, a gather and a table
          lookup per grid axis, and shuffles with
          ``Generator.permutation``
========  =====================================================

Selection is *per kernel*, lazy, and failure-proof: backends are tried
in preference order (cc → numpy) and any backend that fails to
import, compile, or load is recorded in :func:`backend_report` and
skipped — the numpy implementation can never fail to be selected, so the
library never *requires* a compiler.

Environment switch (read at each resolution, so subprocess tests and
monkeypatching both work): ``REPRO_NO_JIT=1`` (also ``true``/``yes``/
``on``) — numpy only.

**Bit-identity contract.** Every compiled kernel returns bit-identical
output to its numpy reference on every input, and raises the same error
type on the same invalid input: kernels are pure transforms of
*pre-drawn* random arrays (the orchestration layer owns the single
``np.random.Generator`` and the draw order; :func:`group_cells` takes
no draws at all), integer kernels share exact modular arithmetic, and
float kernels replicate numpy's summation order without FMA or
reassociation: sequential accumulation for the axis-0 reduces, and for
:func:`ipf_sweep` numpy's pairwise sum (under 8 elements in order from
-0.0, up to 128 in 8 interleaved accumulators, longer runs split at n/2
rounded down to a multiple of 8), which every ``reduceat`` segment and
``ndarray.sum`` of its numpy tier uses. :func:`permute` is the one
kernel that draws: it is ``rng.permutation``, and its compiled tier
stays exact because it makes numpy's own draws — the masked-rejection
Fisher–Yates of
``Generator.shuffle``, through the generator's own ``bitgen_t``
functions while holding its lock — so the labels *and* the generator's
state afterwards equal numpy's, for every numpy BitGenerator. Property
tests in ``tests/test_kernels.py`` enforce this per kernel and
end-to-end. Consequently pipeline output remains a pure function of
``(seed, chunk_size)`` regardless of backend — switching backends is
never observable in results, only in wall time.

Call :func:`warm` (done automatically by
:func:`repro.fo.adaptive.make_oracle` and by ``Aggregator.fit``, which
also warms :func:`ipf_sweep`) to force compilation/loading before timed
work.
"""

from __future__ import annotations

import contextlib
import os
import threading
from typing import Callable, Dict, Iterable, Optional, Tuple

import numpy as np

from repro.errors import ProtocolError
from repro.fo.hashing import DEFAULT_TILE_BYTES
from repro.fo.kernels import c_impl, numpy_impl
from repro.rng import label_dtype

#: canonical kernel set — numpy implements all of them by construction
KERNEL_NAMES: Tuple[str, ...] = tuple(numpy_impl.KERNELS)

#: resolution order; numpy is the mandatory terminal fallback
BACKEND_PREFERENCE: Tuple[str, ...] = ("cc", "numpy")

_TRUTHY = frozenset({"1", "true", "yes", "on"})

_lock = threading.RLock()
_table: Dict[str, Tuple[str, Callable]] = {}
_backend_kernels: Dict[str, Dict[str, Callable]] = {}
_errors: Dict[str, str] = {}
_warmed: set = set()
_override: Optional[str] = None


def _no_jit() -> bool:
    return os.environ.get("REPRO_NO_JIT", "").strip().lower() in _TRUTHY


def _candidates() -> Tuple[str, ...]:
    if _override is not None:
        return ("numpy",) if _override == "numpy" else (_override, "numpy")
    if _no_jit():
        return ("numpy",)
    return BACKEND_PREFERENCE


def _load_backend(backend: str) -> Dict[str, Callable]:
    cached = _backend_kernels.get(backend)
    if cached is not None:
        return cached
    if backend == "numpy":
        table = dict(numpy_impl.KERNELS)
    elif backend == "cc":
        table = c_impl.kernels()
    else:
        raise RuntimeError(f"unknown kernel backend {backend!r}")
    _backend_kernels[backend] = table
    return table


def _resolve(name: str) -> Tuple[str, Callable]:
    with _lock:
        cached = _table.get(name)
        if cached is not None:
            return cached
        for backend in _candidates():
            try:
                fn = _load_backend(backend)[name]
            except Exception as exc:
                _errors[backend] = f"{type(exc).__name__}: {exc}"
                continue
            _table[name] = (backend, fn)
            return backend, fn
        # Unreachable: loading the numpy table cannot raise and it holds
        # every KERNEL_NAMES entry. Kept as a hard stop for typos.
        raise ProtocolError(f"no backend implements kernel {name!r}")


# ---------------------------------------------------------------------------
# Introspection / control surface
# ---------------------------------------------------------------------------


def available_backends() -> Tuple[str, ...]:
    """Backends that actually load on this host, in preference order
    (numpy always last). Attempts the load, so this may compile."""
    out = []
    with _lock:
        for backend in BACKEND_PREFERENCE:
            if backend == "numpy":
                continue
            try:
                _load_backend(backend)
            except Exception as exc:
                _errors[backend] = f"{type(exc).__name__}: {exc}"
                continue
            out.append(backend)
    out.append("numpy")
    return tuple(out)


def active_backends() -> Dict[str, str]:
    """Map every kernel name to the backend that will serve it."""
    return {name: _resolve(name)[0] for name in KERNEL_NAMES}


def backend_report() -> Dict[str, object]:
    """Diagnostic snapshot: active selection, recorded failures, env.

    When the ``cc`` library serves ``support_counts``, ``"support_sweep"``
    names the sweep it chose at load from the CPU: ``"avx512"`` or
    ``"scalar"``. The key is absent when numpy serves.
    """
    with _lock:
        errors = dict(_errors)
    active = active_backends()
    report = {
        "active": active,
        "errors": errors,
        "override": _override,
        "no_jit": _no_jit(),
    }
    if active["support_counts"] == "cc":
        report["support_sweep"] = c_impl.support_path()
    return report


@contextlib.contextmanager
def use_backend(backend: str):
    """Force every kernel onto ``backend`` (numpy remains the safety
    net) within the block. Test/bench hook; not thread-safe against
    concurrent resolution from other threads."""
    global _override
    if backend not in BACKEND_PREFERENCE:
        raise ProtocolError(
            f"unknown kernel backend {backend!r}; "
            f"known: {', '.join(BACKEND_PREFERENCE)}")
    with _lock:
        previous = _override
        _override = backend
        _table.clear()
        _warmed.clear()
    try:
        yield
    finally:
        with _lock:
            _override = previous
            _table.clear()
            _warmed.clear()


def reset_for_tests() -> None:
    """Drop all cached resolutions, warm marks, and recorded errors."""
    global _override
    with _lock:
        _override = None
        _table.clear()
        _backend_kernels.clear()
        _errors.clear()
        _warmed.clear()


# ---------------------------------------------------------------------------
# Warm-up: force compile/load cost outside timed work
# ---------------------------------------------------------------------------


def _sample_calls() -> Dict[str, Callable[[], None]]:
    i64 = np.int64
    f64 = np.float64

    def _grr():
        grr_apply(np.array([0, 1], i64), np.array([0.1, 0.9]),
                  np.array([0, 0], i64), 0.5)

    def _olh():
        olh_perturb(np.array([1, 2], np.uint64), np.array([0, 1], i64),
                    np.array([0.1, 0.9]), np.array([0, 1], i64), 0.5, 3)

    def _mix():
        mix_seeds(np.array([1, 2], np.uint64))

    def _ue():
        ue_accumulate(np.array([[0.1, 0.6, 0.3], [0.8, 0.2, 0.4]], f64),
                      np.array([0, 2], i64), np.array([0.1, 0.9]),
                      0.5, 0.25)

    def _he_sum():
        he_sum_accumulate(np.zeros((2, 3), f64), np.array([0, 1], i64))

    def _he_thr():
        he_threshold_accumulate(np.zeros((2, 3), f64),
                                np.array([0, 1], i64), 0.5)

    def _support():
        support_counts(np.array([1, 2], np.uint64),
                       np.array([0, 1], np.uint64), 4,
                       np.arange(2, dtype=np.uint64), DEFAULT_TILE_BYTES)

    def _hr():
        hr_apply(np.array([1, 2], i64), np.array([0, 1], i64),
                 np.array([0.1, 0.9]), 0.6)

    def _hr_sup():
        hr_supports(np.array([1, 2], i64),
                    np.array([1, -1], np.int8), 3)

    def _sw():
        sw_transform(np.array([0.2, 0.8]), np.array([True, False]),
                     np.array([0.05]), np.array([0.3]), 0.25, 0.05, 30)

    def _fold():
        fold_arrays([np.arange(3, dtype=i64), np.arange(3, dtype=i64)])
        fold_arrays([np.linspace(0, 1, 3), np.linspace(1, 2, 3)])

    def _group():
        group_cells(np.zeros((2, 1), i64), np.array([1, 0], np.uint8),
                    [((0, np.zeros(1, i64)),), ()])

    def _permute():
        # A generator of its own: warming draws from no caller's stream.
        permute(np.array([0, 1, 1], np.uint8), np.random.default_rng(0))

    def _ipf():
        ipf_sweep(np.full((2, 2), 0.25), np.ones((2, 2)), None,
                  np.array([0, 1, 2, 0, 2], i64), np.array([[2, 1]], i64),
                  np.array([0.5, 0.5]), np.empty(2), np.empty((2, 2)))

    return {
        "grr_apply": _grr,
        "olh_perturb": _olh,
        "mix_seeds": _mix,
        "ue_accumulate": _ue,
        "he_sum_accumulate": _he_sum,
        "he_threshold_accumulate": _he_thr,
        "support_counts": _support,
        "hr_apply": _hr,
        "hr_supports": _hr_sup,
        "sw_transform": _sw,
        "fold_arrays": _fold,
        "group_cells": _group,
        "permute": _permute,
        "ipf_sweep": _ipf,
    }


def warm(names: Optional[Iterable[str]] = None) -> None:
    """Resolve and exercise the named kernels (all by default) on tiny
    inputs so compilation, shared-library loading, and dispatch-table
    population happen *now* rather than inside a timed or latency-bound
    region. Idempotent per (backend-selection, kernel)."""
    wanted = tuple(names) if names is not None else KERNEL_NAMES
    samples = _sample_calls()
    for name in wanted:
        if name in _warmed:
            continue
        if name not in samples:
            raise ProtocolError(f"unknown kernel {name!r}")
        samples[name]()
        with _lock:
            _warmed.add(name)


# ---------------------------------------------------------------------------
# Public kernels: validate + normalize, then dispatch
# ---------------------------------------------------------------------------


def _c(array, dtype=None) -> np.ndarray:
    """Contiguous and aligned: the compiled kernels take typed pointers.

    A zero-copy view into a byte buffer (a report restored from a
    checkpoint, whose frames start at any byte offset) can sit off its
    dtype's alignment; only such an array is copied.
    """
    array = np.ascontiguousarray(array, dtype=dtype)
    return array if array.flags.aligned else array.copy()


def _check_values(values: np.ndarray, d: int, kernel: str) -> None:
    if len(values) and (values.min() < 0 or values.max() >= d):
        raise ProtocolError(
            f"{kernel}: encoded values out of range [0, {d})")


def grr_apply(values, keep_uniforms, others, p):
    """GRR response given drawn randomness: keep ``values[i]`` when
    ``keep_uniforms[i] < p``, else the drawn other value (shifted past
    the true one)."""
    values = _c(values, np.int64)
    keep_uniforms = _c(keep_uniforms, np.float64)
    others = _c(others, np.int64)
    if not len(values) == len(keep_uniforms) == len(others):
        raise ProtocolError("grr_apply: input lengths disagree")
    return _resolve("grr_apply")[1](values, keep_uniforms, others, float(p))


def olh_perturb(seeds, values, keep_uniforms, others, p, g):
    """OLH's buckets given drawn randomness, in one pass from cells:
    ``values[i]`` hashed under ``seeds[i]`` into ``[0, g)``
    (``splitmix64(splitmix64(seed) ^ value) % g``), then the GRR step
    over ``[0, g)`` as :func:`grr_apply` takes it. Returns uint64."""
    g = int(g)
    if not 1 <= g < 2**64:
        raise ProtocolError("olh_perturb: g must be in [1, 2**64)")
    seeds = _c(seeds, np.uint64)
    values = _c(values, np.int64)
    keep_uniforms = _c(keep_uniforms, np.float64)
    others = _c(others, np.int64)
    if not len(seeds) == len(values) == len(keep_uniforms) == len(others):
        raise ProtocolError("olh_perturb: input lengths disagree")
    return _resolve("olh_perturb")[1](seeds, values, keep_uniforms, others,
                                      float(p), g)


def mix_seeds(seeds):
    """The hash chain's starting state ``splitmix64(seed)`` of each seed
    (:func:`repro.fo.hashing.mix_seeds`): what :func:`support_counts`
    takes as ``mixed_seeds``."""
    seeds = _c(seeds, np.uint64)
    if seeds.ndim != 1:
        raise ProtocolError("mix_seeds: seeds must be 1-D")
    return _resolve("mix_seeds")[1](seeds)


def ue_accumulate(uniforms, values, true_uniforms, p, q):
    """Unary-encoding per-column 1-counts for one block of users."""
    uniforms = _c(uniforms, np.float64)
    values = _c(values, np.int64)
    true_uniforms = _c(true_uniforms, np.float64)
    if uniforms.ndim != 2:
        raise ProtocolError("ue_accumulate: uniforms must be 2-D")
    n, d = uniforms.shape
    if not n == len(values) == len(true_uniforms):
        raise ProtocolError("ue_accumulate: input lengths disagree")
    _check_values(values, d, "ue_accumulate")
    return _resolve("ue_accumulate")[1](uniforms, values, true_uniforms,
                                        float(p), float(q))


def he_sum_accumulate(noisy, values):
    """SHE per-column sums for one block (``noisy`` may be clobbered)."""
    noisy = _c(noisy, np.float64)
    values = _c(values, np.int64)
    if noisy.ndim != 2 or noisy.shape[0] != len(values):
        raise ProtocolError("he_sum_accumulate: shape mismatch")
    _check_values(values, noisy.shape[1], "he_sum_accumulate")
    return _resolve("he_sum_accumulate")[1](noisy, values)


def he_threshold_accumulate(noisy, values, threshold):
    """THE per-column above-threshold counts for one block (``noisy``
    may be clobbered)."""
    noisy = _c(noisy, np.float64)
    values = _c(values, np.int64)
    if noisy.ndim != 2 or noisy.shape[0] != len(values):
        raise ProtocolError("he_threshold_accumulate: shape mismatch")
    _check_values(values, noisy.shape[1], "he_threshold_accumulate")
    return _resolve("he_threshold_accumulate")[1](noisy, values,
                                                  float(threshold))


def support_counts(mixed_seeds, buckets, hash_range, candidates,
                   tile_bytes=DEFAULT_TILE_BYTES):
    """OLH-family support counting: for each candidate row, how many
    users' hash chains land in their reported bucket. Mirrors
    :func:`repro.fo.hashing.tiled_support_counts` validation.

    Buckets are not range-checked here (``OLHReport`` does that at
    construction): a bucket outside ``[0, hash_range)`` supports no
    candidate, on every backend and every sweep path."""
    hash_range = int(hash_range)
    if not 1 <= hash_range < 2**64:
        raise ProtocolError("support_counts: hash_range must be in "
                            "[1, 2**64)")
    if int(tile_bytes) < 8:
        raise ProtocolError("support_counts: tile_bytes must be >= 8")
    mixed_seeds = _c(mixed_seeds, np.uint64)
    buckets = _c(buckets, np.uint64)
    candidates = _c(candidates, np.uint64)
    if mixed_seeds.ndim != 1 or buckets.shape != mixed_seeds.shape:
        raise ProtocolError(
            "support_counts: mixed_seeds/buckets must be equal-length 1-D")
    if candidates.ndim == 1:
        candidates = candidates.reshape(-1, 1)
    if candidates.ndim != 2 or candidates.shape[1] < 1:
        raise ProtocolError(
            "support_counts: candidates must be (T,) or (T, k>=1)")
    return _resolve("support_counts")[1](mixed_seeds, buckets, hash_range,
                                         candidates, int(tile_bytes))


def hr_apply(rows, values, keep_uniforms, p):
    """Hadamard-response ±1 bits given drawn randomness."""
    rows = _c(rows, np.int64)
    values = _c(values, np.int64)
    keep_uniforms = _c(keep_uniforms, np.float64)
    if not len(rows) == len(values) == len(keep_uniforms):
        raise ProtocolError("hr_apply: input lengths disagree")
    return _resolve("hr_apply")[1](rows, values, keep_uniforms, float(p))


def hr_supports(rows, bits, domain_size):
    """HR support sweep ``out[v] = Σ_i bits[i]·H(rows[i], v+1)``."""
    rows = _c(rows, np.int64)
    bits = _c(bits, np.int8)
    domain_size = int(domain_size)
    if len(rows) != len(bits):
        raise ProtocolError("hr_supports: input lengths disagree")
    if domain_size < 0:
        raise ProtocolError("hr_supports: domain_size must be >= 0")
    return _resolve("hr_supports")[1](rows, bits, domain_size)


def sw_transform(v, close, close_draws, far_draws, b, width, buckets):
    """Square-wave report synthesis + histogram bucketing given drawn
    randomness (draw arrays are consumed in user order)."""
    v = _c(v, np.float64)
    close = _c(close, np.bool_)
    close_draws = _c(close_draws, np.float64)
    far_draws = _c(far_draws, np.float64)
    buckets = int(buckets)
    if len(close) != len(v):
        raise ProtocolError("sw_transform: close mask length disagrees")
    n_close = int(close.sum())
    if len(close_draws) != n_close or \
            len(far_draws) != len(v) - n_close:
        raise ProtocolError("sw_transform: draw array lengths disagree "
                            "with the close mask")
    if buckets < 1:
        raise ProtocolError("sw_transform: buckets must be >= 1")
    return _resolve("sw_transform")[1](v, close, close_draws, far_draws,
                                       float(b), float(width), buckets)


def fold_arrays(arrays):
    """Elementwise left fold ``((a0 + a1) + a2) + …`` of same-shape
    arrays — the merge monoid's sufficient-statistic addition."""
    arrays = [_c(a) for a in arrays]
    if not arrays:
        raise ProtocolError("fold_arrays: need at least one array")
    shape = arrays[0].shape
    if any(a.shape != shape for a in arrays[1:]):
        raise ProtocolError("fold_arrays: array shapes disagree")
    return _resolve("fold_arrays")[1](arrays)


def group_cells(records, labels, axes):
    """Every user's grid cell, grouped by label: ``(cells, offsets)``.

    ``records`` is the ``(n, k)`` integer code matrix and ``labels`` each
    row's group in ``[0, len(axes))``. ``axes[g]`` lists group ``g``'s
    ``(record column, table)`` pairs, and a row's cell is the sum of
    ``table[records[row, column]]`` over its group's pairs (a 2-D grid's
    x table comes pre-multiplied by its y cell count; an identity table
    passes raw codes through). Returns the int64 cells and the int64
    ``offsets``: ``cells[offsets[g]:offsets[g + 1]]`` are group ``g``'s
    cells in row order. Only the columns a row's group reads are
    checked: a code outside its table raises
    :class:`~repro.errors.GridError`.
    """
    records = np.asarray(records)
    labels = np.asarray(labels)
    if records.ndim != 2 or records.dtype.kind not in "iu":
        raise ProtocolError(
            f"group_cells: records must be a 2-D integer matrix, got "
            f"{records.dtype} of shape {records.shape}")
    if labels.ndim != 1 or labels.dtype.kind not in "iu":
        raise ProtocolError(
            f"group_cells: labels must be a 1-D array of integer group "
            f"labels, got {labels.dtype} of shape {labels.shape}")
    if len(labels) != len(records):
        raise ProtocolError(
            f"group_cells: {len(labels)} labels for {len(records)} "
            f"records")
    # Range first, then narrow: a negative int64 label must not wrap
    # into range as an unsigned one.
    if labels.size and (labels.min() < 0 or labels.max() >= len(axes)):
        raise ProtocolError(
            f"group_cells: labels [{labels.min()}, {labels.max()}] "
            f"outside [0, {len(axes)}) groups")
    checked = []
    for pairs in axes:
        group = []
        for column, table in pairs:
            table = _c(table, np.int64)
            if not 0 <= column < records.shape[1] or table.ndim != 1:
                raise ProtocolError(
                    f"group_cells: axis ({column}, table of shape "
                    f"{table.shape}) does not fit {records.shape[1]} "
                    f"record columns")
            group.append((int(column), table))
        checked.append(tuple(group))
    return _resolve("group_cells")[1](_c(records, np.int64),
                                      _c(labels, label_dtype(len(axes))),
                                      tuple(checked))


def permute(labels, rng):
    """A uniformly random permutation of the 1-D integer ``labels``,
    drawn from the :class:`numpy.random.Generator` ``rng``: equal to
    ``rng.permutation(labels)`` in values and dtype, and ``rng`` is left
    in the state that call leaves it in. The only kernel that draws."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.dtype.kind not in "iu":
        raise ProtocolError(
            f"permute: labels must be a 1-D integer array, got "
            f"{labels.dtype} of shape {labels.shape}")
    if not isinstance(rng, np.random.Generator):
        raise ProtocolError(f"permute: rng must be a numpy Generator, "
                            f"got {type(rng).__name__}")
    return _resolve("permute")[1](labels, rng)


def _in_place(array, dtype, shape, kernel: str, name: str) -> None:
    """An array a kernel writes in place must already be exactly
    ``dtype`` and ``shape``, C-contiguous, aligned and writeable."""
    if not (isinstance(array, np.ndarray) and array.dtype == dtype
            and array.shape == shape and array.flags.carray):
        raise ProtocolError(
            f"{kernel}: {name} must be a writeable C-contiguous "
            f"{np.dtype(dtype)} array of shape {shape}")


def ipf_sweep(mass, areas, uniform, edges, cells, targets, sums, moved):
    """One Algorithm 3 sweep over a pair's atom masses, in place; returns
    its movement.

    ``mass`` is the ``(rows, cols)`` float64 matrix of atom masses and
    ``areas`` each atom's value count. ``cells`` is the ``(G, 2)`` shape
    of every related grid, in cells; grid ``g``'s row, then column, atom
    edges (``0 = e_0 < … < e_k = rows`` or ``cols``) come next in
    ``edges`` and its row-major cell targets next in ``targets``; edges
    that do not rise so raise, on every tier, before ``mass`` is
    touched. Grid by grid, every cell with positive mass is scaled to its
    target, and a zero-mass cell with a positive target is refilled: its
    target spread over its atoms by area and its atoms marked in the bool
    ``uniform`` (None: no marks are kept). ``sums`` gets each cell's
    block sum from before its grid's update, ``moved`` each atom's
    |change|, and the sweep returns ``moved.sum()``. ``mass``,
    ``uniform``, ``sums`` and ``moved`` are written in place and must
    not overlap the inputs.
    """
    if not isinstance(mass, np.ndarray) or mass.ndim != 2:
        raise ProtocolError("ipf_sweep: mass must be a 2-D float64 array")
    shape = mass.shape
    _in_place(mass, np.float64, shape, "ipf_sweep", "mass")
    _in_place(moved, np.float64, shape, "ipf_sweep", "moved")
    if uniform is not None:
        _in_place(uniform, np.bool_, shape, "ipf_sweep", "uniform")
    areas = _c(areas, np.float64)
    if areas.shape != shape:
        raise ProtocolError(f"ipf_sweep: areas of shape {areas.shape} for "
                            f"masses of shape {shape}")
    cells = _c(cells, np.int64)
    grids = cells.tolist()
    if cells.ndim != 2 or cells.shape[1] != 2 or \
            any(r < 1 or c < 1 for r, c in grids):
        raise ProtocolError("ipf_sweep: cells must be a (grids, 2) array "
                            "of positive cell counts")
    edges = _c(edges, np.int64)
    targets = _c(targets, np.float64)
    if edges.shape != (sum(r + c + 2 for r, c in grids),) or \
            targets.shape != (sum(r * c for r, c in grids),):
        raise ProtocolError(
            f"ipf_sweep: {edges.shape} edges and {targets.shape} targets "
            f"for grids of {grids} cells")
    _in_place(sums, np.float64, targets.shape, "ipf_sweep", "sums")
    return _resolve("ipf_sweep")[1](mass, areas, uniform, edges, cells,
                                    targets, sums, moved)


__all__ = [
    "KERNEL_NAMES", "BACKEND_PREFERENCE",
    "available_backends", "active_backends", "backend_report",
    "use_backend", "warm", "reset_for_tests",
    "grr_apply", "olh_perturb", "mix_seeds", "ue_accumulate",
    "he_sum_accumulate", "he_threshold_accumulate", "support_counts",
    "hr_apply", "hr_supports", "sw_transform", "fold_arrays",
    "group_cells", "permute", "ipf_sweep",
]
