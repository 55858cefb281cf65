"""Compiled C backend: runtime-compiled kernels loaded through ctypes.

The kernel source below is compiled once per machine (``cc -O3 -fPIC
-shared``) with the host C toolchain into a content-addressed shared
library under a cache directory, then loaded with :mod:`ctypes`.
Compilation is concurrency-safe (build to a private temp file,
``os.replace`` into place) and amortized — every later process,
including pool workers, just dlopens the cached ``.so``.

Bit-identity with :mod:`repro.fo.kernels.numpy_impl` is a hard contract:

* Integer kernels perform the identical modular arithmetic (the splitmix64
  chain is the same three multiply-xor-shift rounds numpy evaluates).
* Floating-point kernels accumulate in the exact order numpy's axis-0
  reduce does (first row initializes, later rows add sequentially), and
  the library is compiled with ``-ffp-contract=off`` and *without*
  ``-ffast-math``, so the compiler may neither fuse multiply-adds nor
  reassociate sums.

Every function here assumes the dispatch layer already normalized its
inputs (dtype, C-contiguity, matching lengths); see
:mod:`repro.fo.kernels`.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from typing import Callable, Dict, Optional

import numpy as np

from repro.fo.kernels import numpy_impl

_C_SOURCE = r"""
#include <math.h>
#include <stdint.h>

static inline uint64_t repro_sm64(uint64_t x) {
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

void repro_grr_apply(const int64_t *values, const double *keep_u,
                     const int64_t *others, double p, int64_t n,
                     int64_t *out) {
    for (int64_t i = 0; i < n; i++) {
        int64_t other = others[i] + (others[i] >= values[i]);
        out[i] = (keep_u[i] < p) ? values[i] : other;
    }
}

void repro_ue_accumulate(const double *uniforms, const int64_t *values,
                         const double *true_u, double p, double q,
                         int64_t n, int64_t d, int64_t *out) {
    for (int64_t j = 0; j < d; j++) out[j] = 0;
    for (int64_t i = 0; i < n; i++) {
        const double *row = uniforms + i * d;
        for (int64_t j = 0; j < d; j++) out[j] += row[j] < q;
        int64_t v = values[i];
        out[v] += (int64_t)(true_u[i] < p) - (int64_t)(row[v] < q);
    }
}

void repro_he_sum_accumulate(const double *noisy, const int64_t *values,
                             int64_t n, int64_t d, double *out) {
    /* numpy's axis-0 reduce: a +0.0-initialized accumulator with rows
       added in order. Zero-init (not first-row assignment) matters for
       bit-identity: a lone -0.0 column must sum to +0.0 exactly as
       numpy's identity-initialized reduce does; every other case is
       unchanged because 0.0 + x == x bitwise for nonzero x. */
    for (int64_t j = 0; j < d; j++) out[j] = 0.0;
    for (int64_t i = 0; i < n; i++) {
        const double *row = noisy + i * d;
        int64_t v = values[i];
        for (int64_t j = 0; j < d; j++) {
            double x = row[j];
            if (j == v) x += 1.0;
            out[j] += x;
        }
    }
}

void repro_he_threshold_accumulate(const double *noisy,
                                   const int64_t *values, double threshold,
                                   int64_t n, int64_t d, int64_t *out) {
    for (int64_t j = 0; j < d; j++) out[j] = 0;
    for (int64_t i = 0; i < n; i++) {
        const double *row = noisy + i * d;
        int64_t v = values[i];
        for (int64_t j = 0; j < d; j++) {
            double x = row[j];
            if (j == v) x += 1.0;
            out[j] += x > threshold;
        }
    }
}

void repro_support_counts(const uint64_t *mixed, const uint64_t *buckets,
                          uint64_t g, int64_t pow2, const uint64_t *cand,
                          int64_t num_candidates, int64_t components,
                          int64_t n, int64_t *out) {
    uint64_t mask = g - 1;
    for (int64_t t = 0; t < num_candidates; t++) {
        const uint64_t *c = cand + t * components;
        int64_t count = 0;
        for (int64_t i = 0; i < n; i++) {
            uint64_t s = mixed[i];
            for (int64_t j = 0; j < components; j++)
                s = repro_sm64(s ^ c[j]);
            uint64_t h = pow2 ? (s & mask) : (s % g);
            count += h == buckets[i];
        }
        out[t] = count;
    }
}

void repro_hr_apply(const int64_t *rows, const int64_t *values,
                    const double *keep_u, double p, int64_t n,
                    int64_t *out) {
    for (int64_t i = 0; i < n; i++) {
        uint64_t m = (uint64_t)rows[i] & (uint64_t)(values[i] + 1);
        int64_t truth = 1 - 2 * (int64_t)(__builtin_popcountll(m) & 1);
        out[i] = (keep_u[i] < p) ? truth : -truth;
    }
}

void repro_hr_supports(const int64_t *rows, const int8_t *bits, int64_t n,
                       int64_t d, int64_t *out) {
    for (int64_t v = 0; v < d; v++) out[v] = 0;
    for (int64_t i = 0; i < n; i++) {
        uint64_t row = (uint64_t)rows[i];
        int64_t bit = bits[i];
        for (int64_t v = 0; v < d; v++) {
            uint64_t m = row & (uint64_t)(v + 1);
            out[v] += bit * (1 - 2 * (int64_t)(__builtin_popcountll(m) & 1));
        }
    }
}

void repro_sw_transform(const double *v, const uint8_t *close,
                        const double *close_draws, const double *far_draws,
                        double b, double width, int64_t buckets, int64_t n,
                        int64_t *out) {
    for (int64_t t = 0; t < buckets; t++) out[t] = 0;
    int64_t ci = 0, fi = 0;
    for (int64_t i = 0; i < n; i++) {
        double r;
        if (close[i]) {
            r = v[i] + close_draws[ci++];
        } else {
            double u = far_draws[fi++];
            double fv = v[i];
            r = (u < fv) ? (-b + u) : (fv + b + (u - fv));
        }
        double f = floor((r + b) / width);
        int64_t idx;
        if (!(f >= 0.0)) idx = 0;
        else if (f >= (double)buckets) idx = buckets - 1;
        else idx = (int64_t)f;
        out[idx] += 1;
    }
}

void repro_fold_i64(const int64_t **arrs, int64_t k, int64_t m,
                    int64_t *out) {
    const int64_t *first = arrs[0];
    for (int64_t j = 0; j < m; j++) out[j] = first[j];
    for (int64_t a = 1; a < k; a++) {
        const int64_t *src = arrs[a];
        for (int64_t j = 0; j < m; j++) out[j] += src[j];
    }
}

void repro_fold_f64(const double **arrs, int64_t k, int64_t m,
                    double *out) {
    const double *first = arrs[0];
    for (int64_t j = 0; j < m; j++) out[j] = first[j];
    for (int64_t a = 1; a < k; a++) {
        const double *src = arrs[a];
        for (int64_t j = 0; j < m; j++) out[j] += src[j];
    }
}
"""

#: no FMA contraction, no fast-math: float adds must round exactly like
#: numpy's, one at a time, in order
_CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math")

_SOURCE_TAG = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]

_lock = threading.RLock()
_lib: Optional[ctypes.CDLL] = None
_load_error: Optional[str] = None


def _cache_dir() -> str:
    configured = os.environ.get("REPRO_KERNEL_CACHE", "").strip()
    if configured:
        return configured
    uid = os.getuid() if hasattr(os, "getuid") else "any"
    return os.path.join(tempfile.gettempdir(), f"repro-kernels-{uid}")


def _lib_path() -> str:
    return os.path.join(_cache_dir(), f"repro_kernels_{_SOURCE_TAG}.so")


def _compiler() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def available() -> bool:
    """Cheap availability probe: a cached build or a usable compiler."""
    return os.path.exists(_lib_path()) or _compiler() is not None


def load_error() -> Optional[str]:
    """Why the backend is unusable (``None`` while healthy/unloaded)."""
    return _load_error


def _compile() -> str:
    compiler = _compiler()
    if compiler is None:
        raise RuntimeError("no C compiler (cc/gcc/clang) on PATH")
    cache = _cache_dir()
    os.makedirs(cache, exist_ok=True)
    src = os.path.join(cache, f"repro_kernels_{_SOURCE_TAG}.c")
    with open(src, "w") as handle:
        handle.write(_C_SOURCE)
    # Private temp output + atomic rename: concurrent processes may race
    # to build the same library; whoever finishes last wins harmlessly.
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
    os.close(fd)
    try:
        subprocess.run(
            [compiler, *_CFLAGS, "-o", tmp, src, "-lm"],
            check=True, capture_output=True, text=True, timeout=120)
        os.replace(tmp, _lib_path())
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return _lib_path()


def _bind(lib: ctypes.CDLL) -> None:
    c_double, c_int64, c_void_p = (ctypes.c_double, ctypes.c_int64,
                                   ctypes.c_void_p)
    signatures = {
        "repro_grr_apply": (c_void_p, c_void_p, c_void_p, c_double,
                            c_int64, c_void_p),
        "repro_ue_accumulate": (c_void_p, c_void_p, c_void_p, c_double,
                                c_double, c_int64, c_int64, c_void_p),
        "repro_he_sum_accumulate": (c_void_p, c_void_p, c_int64, c_int64,
                                    c_void_p),
        "repro_he_threshold_accumulate": (c_void_p, c_void_p, c_double,
                                          c_int64, c_int64, c_void_p),
        "repro_support_counts": (c_void_p, c_void_p, ctypes.c_uint64,
                                 c_int64, c_void_p, c_int64, c_int64,
                                 c_int64, c_void_p),
        "repro_hr_apply": (c_void_p, c_void_p, c_void_p, c_double, c_int64,
                           c_void_p),
        "repro_hr_supports": (c_void_p, c_void_p, c_int64, c_int64,
                              c_void_p),
        "repro_sw_transform": (c_void_p, c_void_p, c_void_p, c_void_p,
                               c_double, c_double, c_int64, c_int64,
                               c_void_p),
        "repro_fold_i64": (c_void_p, c_int64, c_int64, c_void_p),
        "repro_fold_f64": (c_void_p, c_int64, c_int64, c_void_p),
    }
    for name, argtypes in signatures.items():
        fn = getattr(lib, name)
        fn.argtypes = list(argtypes)
        fn.restype = None


def _load() -> ctypes.CDLL:
    global _lib, _load_error
    with _lock:
        if _lib is not None:
            return _lib
        if _load_error is not None:
            raise RuntimeError(_load_error)
        try:
            path = _lib_path()
            if not os.path.exists(path):
                path = _compile()
            lib = ctypes.CDLL(path)
            _bind(lib)
        except subprocess.CalledProcessError as exc:
            _load_error = (f"kernel compile failed "
                           f"({exc.returncode}): {exc.stderr!s:.500}")
            raise RuntimeError(_load_error) from exc
        except Exception as exc:
            _load_error = f"{type(exc).__name__}: {exc}"
            raise
        _lib = lib
        return lib


def reset_for_tests() -> None:
    """Forget the loaded library and any recorded failure (test hook)."""
    global _lib, _load_error
    with _lock:
        _lib = None
        _load_error = None


# ---------------------------------------------------------------------------
# Python wrappers with the unified kernel signatures. Inputs arrive
# normalized; each wrapper allocates the output and hands raw pointers to
# the library.
# ---------------------------------------------------------------------------


def _ptr(array: np.ndarray) -> int:
    return array.ctypes.data


def grr_apply(values, keep_uniforms, others, p):
    out = np.empty(len(values), dtype=np.int64)
    _load().repro_grr_apply(_ptr(values), _ptr(keep_uniforms), _ptr(others),
                            float(p), len(values), _ptr(out))
    return out


def ue_accumulate(uniforms, values, true_uniforms, p, q):
    n, d = uniforms.shape
    out = np.empty(d, dtype=np.int64)
    _load().repro_ue_accumulate(_ptr(uniforms), _ptr(values),
                                _ptr(true_uniforms), float(p), float(q),
                                n, d, _ptr(out))
    return out


def he_sum_accumulate(noisy, values):
    n, d = noisy.shape
    out = np.empty(d, dtype=np.float64)
    _load().repro_he_sum_accumulate(_ptr(noisy), _ptr(values), n, d,
                                    _ptr(out))
    return out


def he_threshold_accumulate(noisy, values, threshold):
    n, d = noisy.shape
    out = np.empty(d, dtype=np.int64)
    _load().repro_he_threshold_accumulate(_ptr(noisy), _ptr(values),
                                          float(threshold), n, d, _ptr(out))
    return out


def support_counts(mixed_seeds, buckets, hash_range, candidates,
                   tile_bytes):
    # The fused per-(candidate, user) loop never materializes tile
    # matrices, so tile_bytes (the numpy kernel's scratch cap) is moot.
    num_candidates, components = candidates.shape
    out = np.empty(num_candidates, dtype=np.int64)
    pow2 = 1 if hash_range & (hash_range - 1) == 0 else 0
    _load().repro_support_counts(_ptr(mixed_seeds), _ptr(buckets),
                                 hash_range, pow2, _ptr(candidates),
                                 num_candidates, components,
                                 len(mixed_seeds), _ptr(out))
    return out


def hr_apply(rows, values, keep_uniforms, p):
    out = np.empty(len(rows), dtype=np.int64)
    _load().repro_hr_apply(_ptr(rows), _ptr(values), _ptr(keep_uniforms),
                           float(p), len(rows), _ptr(out))
    return out


def hr_supports(rows, bits, domain_size):
    out = np.empty(domain_size, dtype=np.int64)
    _load().repro_hr_supports(_ptr(rows), _ptr(bits), len(rows),
                              domain_size, _ptr(out))
    return out


def sw_transform(v, close, close_draws, far_draws, b, width, buckets):
    out = np.empty(buckets, dtype=np.int64)
    _load().repro_sw_transform(_ptr(v), _ptr(close.view(np.uint8)),
                               _ptr(close_draws), _ptr(far_draws),
                               float(b), float(width), buckets, len(v),
                               _ptr(out))
    return out


def fold_arrays(arrays):
    first = arrays[0]
    uniform = first.dtype in (np.dtype(np.int64), np.dtype(np.float64)) \
        and all(a.dtype == first.dtype and a.shape == first.shape
                for a in arrays[1:])
    if not uniform:
        # Mixed/exotic dtypes (third-party reports): numpy handles them.
        return numpy_impl.fold_arrays(arrays)
    lib = _load()
    fn = (lib.repro_fold_i64 if first.dtype == np.int64
          else lib.repro_fold_f64)
    out = np.empty_like(first)
    pointers = (ctypes.c_void_p * len(arrays))(
        *[a.ctypes.data for a in arrays])
    fn(pointers, len(arrays), first.size, _ptr(out))
    return out


def kernels() -> Dict[str, Callable]:
    """Load (compiling if needed) and return every kernel this backend
    implements. Raises when no compiler/library is usable; the dispatch
    layer records the failure and falls back to numpy."""
    _load()
    return {
        "grr_apply": grr_apply,
        "ue_accumulate": ue_accumulate,
        "he_sum_accumulate": he_sum_accumulate,
        "he_threshold_accumulate": he_threshold_accumulate,
        "support_counts": support_counts,
        "hr_apply": hr_apply,
        "hr_supports": hr_supports,
        "sw_transform": sw_transform,
        "fold_arrays": fold_arrays,
    }
