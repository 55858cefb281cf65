"""Compiled C backend: runtime-compiled kernels loaded through ctypes.

The kernel source below is compiled once per machine (``cc -O3 -fPIC
-shared``) with the host C toolchain into a content-addressed shared
library under a cache directory, then loaded with :mod:`ctypes`.
Compilation is concurrency-safe (build to a private temp file,
``os.replace`` into place) and amortized — every later process,
including pool workers, just dlopens the cached ``.so``.

Bit-identity with :mod:`repro.fo.kernels.numpy_impl` is a hard contract:

* Integer kernels compute the same integers: the splitmix64 chain is the
  same three multiply-xor-shift rounds numpy evaluates.
* The shuffle (:func:`permute`) is numpy's own Fisher–Yates: the same
  masked-rejection draws (``random_interval``), made through the
  generator's own ``bitgen_t`` functions while holding its lock, and
  the same swaps.
* The support sweep has two entry points in the one library, and the CPU
  probe picks one per load (:func:`support_path`). The scalar loop takes
  ``s % g`` as numpy does. The AVX-512 loop (x86-64 builds, run only when
  the CPU has AVX-512F and AVX-512DQ) rests on an identity instead: for
  ``b < g``, ``s % g == b`` exactly when ``s >= b`` and ``g`` divides
  ``s - b``, and divisibility by ``g = d0 * 2**k`` (``d0`` odd) is one
  multiply by ``d0``'s inverse mod 2**64, a rotate and a compare. It is
  exact integer arithmetic, and buckets ``>= g`` are masked out, so both
  paths count what numpy counts.
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

/* OLH's perturbation in one pass from cells to buckets: the user's
   value hashed under the user's seed, splitmix64(splitmix64(seed) ^
   value) % g, then the GRR keep/other selection over [0, g). */
void repro_olh_perturb(const uint64_t *seeds, const int64_t *values,
                       const double *keep_u, const int64_t *others,
                       double p, uint64_t g, int64_t n, uint64_t *out) {
    for (int64_t i = 0; i < n; i++) {
        uint64_t h = repro_sm64(repro_sm64(seeds[i]) ^ (uint64_t)values[i])
                     % g;
        uint64_t other = (uint64_t)others[i];
        other += other >= h;
        out[i] = (keep_u[i] < p) ? h : other;
    }
}

void repro_mix_seeds(const uint64_t *seeds, int64_t n, uint64_t *out) {
    for (int64_t i = 0; i < n; i++) out[i] = repro_sm64(seeds[i]);
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

/* Group rows by label and map each to its grid cell in one pass over
   the records. A counting pass sizes the groups; the second pass writes
   each row's cell into its group's next slot, so a group's cells keep
   row order. A row's cell is the sum of its group's axis tables at the
   row's codes (group g's axes are bounds[g] .. bounds[g+1]-1; axis a
   reads record column columns[a] through lookup[starts[a] ..
   starts[a+1]-1]). Labels are in [0, m) (checked by the caller); a code
   outside its table stops the pass and returns its axis, else -1. */
#define REPRO_GROUP_CELLS(NAME, LABEL_T)                                   \
int64_t NAME(const int64_t *records, int64_t n, int64_t k,                 \
             const LABEL_T *labels, int64_t m, const int64_t *bounds,      \
             const int64_t *columns, const int64_t *starts,                \
             const int64_t *lookup, int64_t *offsets, int64_t *cursor,     \
             int64_t *out) {                                               \
    for (int64_t g = 0; g <= m; g++) offsets[g] = 0;                       \
    for (int64_t i = 0; i < n; i++) offsets[(int64_t)labels[i] + 1]++;     \
    for (int64_t g = 0; g < m; g++) {                                      \
        cursor[g] = offsets[g];                                            \
        offsets[g + 1] += offsets[g];                                      \
    }                                                                      \
    for (int64_t i = 0; i < n; i++) {                                      \
        int64_t g = (int64_t)labels[i];                                    \
        const int64_t *row = records + i * k;                              \
        int64_t cell = 0;                                                  \
        for (int64_t a = bounds[g]; a < bounds[g + 1]; a++) {              \
            uint64_t code = (uint64_t)row[columns[a]];                     \
            if (code >= (uint64_t)(starts[a + 1] - starts[a])) return a;   \
            cell += lookup[starts[a] + (int64_t)code];                     \
        }                                                                  \
        out[cursor[g]++] = cell;                                           \
    }                                                                      \
    return -1;                                                             \
}

REPRO_GROUP_CELLS(repro_group_cells_u8, uint8_t)
REPRO_GROUP_CELLS(repro_group_cells_u16, uint16_t)
REPRO_GROUP_CELLS(repro_group_cells_i64, int64_t)

/* numpy's bitgen_t (numpy/random/bitgen.h): a BitGenerator's state and
   the functions that draw from it. */
typedef struct repro_bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} repro_bitgen_t;

/* numpy's random_interval: a uniform draw from [0, max] by masked
   rejection, on 32-bit draws while max fits in 32 bits. */
static inline uint64_t repro_interval(repro_bitgen_t *bg, uint64_t max) {
    uint64_t mask = max, value;
    if (max == 0) return 0;
    mask |= mask >> 1;
    mask |= mask >> 2;
    mask |= mask >> 4;
    mask |= mask >> 8;
    mask |= mask >> 16;
    mask |= mask >> 32;
    if (max <= 0xffffffffULL) {
        while ((value = (bg->next_uint32(bg->state) & mask)) > max)
            ;
    } else {
        while ((value = (bg->next_uint64(bg->state) & mask)) > max)
            ;
    }
    return value;
}

/* numpy's Fisher–Yates (Generator.shuffle's _shuffle_raw): for i = n-1
   down to 1, swap item i with the item at a draw from [0, i]. The draws
   go through the generator's own functions, so the items and the
   generator's state afterwards are numpy's. The caller holds the
   generator's lock. */
#define REPRO_PERMUTE(NAME, ITEM_T)                                        \
void NAME(repro_bitgen_t *bg, int64_t n, ITEM_T *items) {                  \
    for (int64_t i = n - 1; i >= 1; i--) {                                 \
        int64_t j = (int64_t)repro_interval(bg, (uint64_t)i);              \
        ITEM_T item = items[j];                                            \
        items[j] = items[i];                                               \
        items[i] = item;                                                   \
    }                                                                      \
}

REPRO_PERMUTE(repro_permute_u8, uint8_t)
REPRO_PERMUTE(repro_permute_u16, uint16_t)
REPRO_PERMUTE(repro_permute_u32, uint32_t)
REPRO_PERMUTE(repro_permute_u64, uint64_t)

int repro_has_avx512(void) {
#if defined(__x86_64__)
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f")
        && __builtin_cpu_supports("avx512dq");
#else
    return 0;
#endif
}

#if defined(__x86_64__)
#include <immintrin.h>

/* The support sweep on AVX-512: 8 users per vector, REPRO_SC_WIDTH
   candidates per loaded user vector (independent multiply chains hide
   vpmullq's latency), users in REPRO_SC_TILE tiles so the seeds and
   buckets stay cache-resident across all candidates. Counts equal
   repro_support_counts' on every input:
   - g = 2^k: s % g == b  <=>  (s & (g-1)) == b, no lane mask needed
     (a bucket b >= g never equals a masked value);
   - g = d0*2^k, d0 odd, b < g: s % g == b  <=>  s >= b and g | s-b, and
     g | x  <=>  ror(x * d0^-1 mod 2^64, k) <= (2^64-1)/g;
   - a bucket b >= g would pass that test whenever s >= b and s == b
     (mod g), so those lanes are masked out. */
#define REPRO_SC_WIDTH 4
#define REPRO_SC_TILE 2048
#define REPRO_AVX512 __attribute__((target("avx512f,avx512dq")))

REPRO_AVX512 static inline __m512i repro_sm64_x8(__m512i x) {
    const __m512i golden = _mm512_set1_epi64((long long)0x9E3779B97F4A7C15ULL);
    const __m512i mix1 = _mm512_set1_epi64((long long)0xBF58476D1CE4E5B9ULL);
    const __m512i mix2 = _mm512_set1_epi64((long long)0x94D049BB133111EBULL);
    x = _mm512_add_epi64(x, golden);
    x = _mm512_mullo_epi64(_mm512_xor_si512(x, _mm512_srli_epi64(x, 30)),
                           mix1);
    x = _mm512_mullo_epi64(_mm512_xor_si512(x, _mm512_srli_epi64(x, 27)),
                           mix2);
    return _mm512_xor_si512(x, _mm512_srli_epi64(x, 31));
}

/* out[c] += support of candidate c (c < w) among users [lo, hi). */
REPRO_AVX512 __attribute__((always_inline))
static inline void repro_sc_block(const uint64_t *mixed,
                                  const uint64_t *buckets, int64_t lo,
                                  int64_t hi, const uint64_t *cand, int w,
                                  int64_t components, int pow2, __m512i g,
                                  __m512i inv, __m512i rot, __m512i limit,
                                  int64_t *out) {
    const __m512i one = _mm512_set1_epi64(1);
    const __m512i mask = _mm512_sub_epi64(g, one);
    __m512i acc[REPRO_SC_WIDTH];
    for (int c = 0; c < w; c++) acc[c] = _mm512_setzero_si512();
    for (int64_t i = lo; i < hi; i += 8) {
        __mmask8 lanes = hi - i >= 8 ? 0xFF
                                     : (__mmask8)((1u << (hi - i)) - 1);
        __m512i m = _mm512_maskz_loadu_epi64(lanes, mixed + i);
        __m512i b = _mm512_maskz_loadu_epi64(lanes, buckets + i);
        __mmask8 valid = _mm512_mask_cmplt_epu64_mask(lanes, b, g);
        __m512i s[REPRO_SC_WIDTH];
        for (int c = 0; c < w; c++) s[c] = m;
        for (int64_t j = 0; j < components; j++)
            for (int c = 0; c < w; c++)
                s[c] = repro_sm64_x8(_mm512_xor_si512(
                    s[c], _mm512_set1_epi64(
                              (long long)cand[c * components + j])));
        for (int c = 0; c < w; c++) {
            __mmask8 hit;
            if (pow2) {
                hit = _mm512_mask_cmpeq_epu64_mask(
                    lanes, _mm512_and_si512(s[c], mask), b);
            } else {
                __mmask8 ge = _mm512_mask_cmpge_epu64_mask(valid, s[c], b);
                __m512i q = _mm512_rorv_epi64(
                    _mm512_mullo_epi64(_mm512_sub_epi64(s[c], b), inv), rot);
                hit = _mm512_mask_cmple_epu64_mask(ge, q, limit);
            }
            acc[c] = _mm512_mask_add_epi64(acc[c], hit, acc[c], one);
        }
    }
    for (int c = 0; c < w; c++) {
        int64_t part[8];
        _mm512_storeu_si512((void *)part, acc[c]);
        for (int l = 0; l < 8; l++) out[c] += part[l];
    }
}

REPRO_AVX512 __attribute__((always_inline))
static inline void repro_sc_tile(const uint64_t *mixed,
                                 const uint64_t *buckets, int64_t lo,
                                 int64_t hi, const uint64_t *cand,
                                 int64_t num_candidates, int64_t components,
                                 int pow2, __m512i g, __m512i inv,
                                 __m512i rot, __m512i limit, int64_t *out) {
    int64_t t = 0;
    for (; t + REPRO_SC_WIDTH <= num_candidates; t += REPRO_SC_WIDTH)
        repro_sc_block(mixed, buckets, lo, hi, cand + t * components,
                       REPRO_SC_WIDTH, components, pow2, g, inv, rot, limit,
                       out + t);
    if (t < num_candidates)
        repro_sc_block(mixed, buckets, lo, hi, cand + t * components,
                       (int)(num_candidates - t), components, pow2, g, inv,
                       rot, limit, out + t);
}

REPRO_AVX512
void repro_support_counts_avx512(const uint64_t *mixed,
                                 const uint64_t *buckets, uint64_t g,
                                 int64_t pow2, const uint64_t *cand,
                                 int64_t num_candidates, int64_t components,
                                 int64_t n, int64_t *out) {
    int k = __builtin_ctzll(g);
    uint64_t d0 = g >> k;
    uint64_t inv = d0;  /* Newton: 3 correct low bits, doubling per step */
    for (int r = 0; r < 5; r++) inv *= 2 - d0 * inv;
    __m512i gv = _mm512_set1_epi64((long long)g);
    __m512i invv = _mm512_set1_epi64((long long)inv);
    __m512i rot = _mm512_set1_epi64(k);
    __m512i limit = _mm512_set1_epi64((long long)(UINT64_MAX / g));
    for (int64_t t = 0; t < num_candidates; t++) out[t] = 0;
    for (int64_t lo = 0; lo < n; lo += REPRO_SC_TILE) {
        int64_t hi = n - lo > REPRO_SC_TILE ? lo + REPRO_SC_TILE : n;
        if (pow2)
            repro_sc_tile(mixed, buckets, lo, hi, cand, num_candidates,
                          components, 1, gv, invv, rot, limit, out);
        else
            repro_sc_tile(mixed, buckets, lo, hi, cand, num_candidates,
                          components, 0, gv, invv, rot, limit, out);
    }
}
#endif
"""

#: no FMA contraction, no fast-math: float adds must round exactly like
#: numpy's, one at a time, in order
_CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math")

_SOURCE_TAG = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]

#: the grouping pass's entry point per label width in bytes (the
#: dispatch layer narrows labels with :func:`repro.rng.label_dtype`)
_GROUP_CELLS = {1: "repro_group_cells_u8", 2: "repro_group_cells_u16",
                8: "repro_group_cells_i64"}

#: the shuffle's entry point per item width in bytes
_PERMUTE = {1: "repro_permute_u8", 2: "repro_permute_u16",
            4: "repro_permute_u32", 8: "repro_permute_u64"}

#: the support sweep's entry point per path; the loaded library serves
#: ``"avx512"`` when the CPU has AVX-512F and AVX-512DQ, else ``"scalar"``
_SWEEPS = {"scalar": "repro_support_counts",
           "avx512": "repro_support_counts_avx512"}

_lock = threading.RLock()
_lib: Optional[ctypes.CDLL] = None
_load_error: Optional[str] = None
_sweep_path: Optional[str] = None


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
    sweep = (c_void_p, c_void_p, ctypes.c_uint64, c_int64, c_void_p,
             c_int64, c_int64, c_int64, c_void_p)
    signatures = {
        "repro_grr_apply": (c_void_p, c_void_p, c_void_p, c_double,
                            c_int64, c_void_p),
        "repro_olh_perturb": (c_void_p, c_void_p, c_void_p, c_void_p,
                              c_double, ctypes.c_uint64, c_int64,
                              c_void_p),
        "repro_mix_seeds": (c_void_p, c_int64, c_void_p),
        "repro_ue_accumulate": (c_void_p, c_void_p, c_void_p, c_double,
                                c_double, c_int64, c_int64, c_void_p),
        "repro_he_sum_accumulate": (c_void_p, c_void_p, c_int64, c_int64,
                                    c_void_p),
        "repro_he_threshold_accumulate": (c_void_p, c_void_p, c_double,
                                          c_int64, c_int64, c_void_p),
        "repro_support_counts": sweep,
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
    if hasattr(lib, _SWEEPS["avx512"]):  # x86-64 builds only
        signatures[_SWEEPS["avx512"]] = sweep
    for name in _PERMUTE.values():
        signatures[name] = (c_void_p, c_int64, c_void_p)
    for name, argtypes in signatures.items():
        fn = getattr(lib, name)
        fn.argtypes = list(argtypes)
        fn.restype = None
    for name in _GROUP_CELLS.values():
        fn = getattr(lib, name)
        fn.argtypes = [c_void_p, c_int64, c_int64, c_void_p, c_int64,
                       c_void_p, c_void_p, c_void_p, c_void_p, c_void_p,
                       c_void_p, c_void_p]
        fn.restype = c_int64


def _cpu_has_avx512(lib: ctypes.CDLL) -> bool:
    """The CPU probe: does this host run AVX-512F and AVX-512DQ code?"""
    lib.repro_has_avx512.argtypes = []
    lib.repro_has_avx512.restype = ctypes.c_int
    return bool(lib.repro_has_avx512())


def _load() -> ctypes.CDLL:
    global _lib, _load_error, _sweep_path
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
            vector_sweep = _cpu_has_avx512(lib)
        except subprocess.CalledProcessError as exc:
            _load_error = (f"kernel compile failed "
                           f"({exc.returncode}): {exc.stderr!s:.500}")
            raise RuntimeError(_load_error) from exc
        except Exception as exc:
            _load_error = f"{type(exc).__name__}: {exc}"
            raise
        _sweep_path = "avx512" if vector_sweep else "scalar"
        _lib = lib
        return lib


def support_path() -> str:
    """The support sweep the loaded library serves: ``"avx512"`` or
    ``"scalar"``, chosen once per load from the CPU probe."""
    _load()
    return _sweep_path


def reset_for_tests() -> None:
    """Forget the loaded library and any recorded failure (test hook)."""
    global _lib, _load_error, _sweep_path
    with _lock:
        _lib = None
        _load_error = None
        _sweep_path = None


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


def olh_perturb(seeds, values, keep_uniforms, others, p, g):
    out = np.empty(len(seeds), dtype=np.uint64)
    _load().repro_olh_perturb(_ptr(seeds), _ptr(values), _ptr(keep_uniforms),
                              _ptr(others), float(p), g, len(seeds),
                              _ptr(out))
    return out


def mix_seeds(seeds):
    out = np.empty(len(seeds), dtype=np.uint64)
    _load().repro_mix_seeds(_ptr(seeds), len(seeds), _ptr(out))
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
                   tile_bytes, path=None):
    # The fused per-(candidate, user) loops never materialize tile
    # matrices, so tile_bytes (the numpy kernel's scratch cap) is moot.
    # ``path`` names a sweep explicitly (tests); by default the one the
    # CPU probe chose at load serves.
    lib = _load()
    sweep = getattr(lib, _SWEEPS[path or _sweep_path])
    num_candidates, components = candidates.shape
    out = np.empty(num_candidates, dtype=np.int64)
    pow2 = 1 if hash_range & (hash_range - 1) == 0 else 0
    sweep(_ptr(mixed_seeds), _ptr(buckets), hash_range, pow2,
          _ptr(candidates), num_candidates, components, len(mixed_seeds),
          _ptr(out))
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


def group_cells(records, labels, axes):
    n, k = records.shape
    # Flatten the per-group (column, table) pairs for the library.
    pairs = [pair for group in axes for pair in group]
    bounds = np.cumsum([0] + [len(group) for group in axes], dtype=np.int64)
    columns = np.array([column for column, _ in pairs], dtype=np.int64)
    starts = np.cumsum([0] + [len(table) for _, table in pairs],
                       dtype=np.int64)
    lookup = np.concatenate([np.zeros(0, dtype=np.int64)]
                            + [table for _, table in pairs])
    offsets = np.empty(len(axes) + 1, dtype=np.int64)
    cursor = np.empty(len(axes), dtype=np.int64)
    cells = np.empty(n, dtype=np.int64)
    bad = getattr(_load(), _GROUP_CELLS[labels.dtype.itemsize])(
        _ptr(records), n, k, _ptr(labels), len(axes), _ptr(bounds),
        _ptr(columns), _ptr(starts), _ptr(lookup), _ptr(offsets),
        _ptr(cursor), _ptr(cells))
    if bad >= 0:
        raise numpy_impl.domain_error(int(columns[bad]),
                                      int(starts[bad + 1] - starts[bad]))
    return cells, offsets


def permute(labels, rng):
    # The C loop draws through the generator's own bitgen_t under the
    # lock numpy's own shuffle takes; ctypes releases the GIL meanwhile.
    out = labels.copy()
    shuffle = getattr(_load(), _PERMUTE[out.dtype.itemsize])
    bit_generator = rng.bit_generator
    with bit_generator.lock:
        shuffle(bit_generator.ctypes.bit_generator, len(out), _ptr(out))
    return out


def kernels() -> Dict[str, Callable]:
    """Load (compiling if needed) and return every kernel this backend
    implements. Raises when no compiler/library is usable; the dispatch
    layer records the failure and falls back to numpy."""
    _load()
    return {
        "grr_apply": grr_apply,
        "olh_perturb": olh_perturb,
        "mix_seeds": mix_seeds,
        "ue_accumulate": ue_accumulate,
        "he_sum_accumulate": he_sum_accumulate,
        "he_threshold_accumulate": he_threshold_accumulate,
        "support_counts": support_counts,
        "hr_apply": hr_apply,
        "hr_supports": hr_supports,
        "sw_transform": sw_transform,
        "fold_arrays": fold_arrays,
        "group_cells": group_cells,
        "permute": permute,
    }
