"""The ``cnative`` backend: cffi-compiled C kernels for the fault hot paths.

This tier removes the remaining python/numpy dispatch cost from the measured
hot paths — the per-call overhead of :meth:`FaultInjector.corrupt_array`
(~35 µs/call of numpy glue for the small arrays the CGNR stepper corrupts),
the per-trial draw loops inside :meth:`ProcessorBatch.corrupt`, and the
per-sample scalar FPU recursion of the direct-form IIR filter — by running
each of them as one compiled C call.

Bit-identity
------------
Every kernel in the table is bit-identical to the numpy tier: the C
code consumes each trial's ``numpy.random.Generator`` through numpy's own
C bit-generator interface (``bitgen_t``), so uniform doubles come from the
very same stream the numpy tier would draw, in the same order; bounded
integer draws replicate ``Generator.integers``'s Lemire rejection sampling
exactly (including the buffered 32-bit fast path); inverse-CDF bit lookups
replicate ``numpy.searchsorted(side="right")``; and all arithmetic is plain
double/float IEEE-754 — no fastmath, no reassociation.  The equivalence
suite in ``tests/test_backends.py`` pins every kernel byte-for-byte against
the numpy tier, including generator state advancement and fault/FLOP
counters.

The C library is compiled once per machine with the system C compiler via
cffi and cached under ``~/.cache/repro-cnative`` (override with
``REPRO_CNATIVE_CACHE``); when cffi or a compiler is missing the backend
reports unavailable and everything falls back to the numpy tier.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.backends.registry import BackendUnavailable

__all__ = ["load", "version", "warmup"]

_CDEF = """
int64_t corrupt_array_f64(uintptr_t bg_addr, double *values, int64_t n,
                          double threshold, const double *cdf, int cdf_len,
                          int64_t *idx);
int64_t corrupt_array_f32(uintptr_t bg_addr, float *values, int64_t n,
                          double threshold, const double *cdf, int cdf_len,
                          int64_t *idx);
int64_t corrupt_block_f64(uintptr_t bg_addr, const double *in, double *out,
                          int64_t n, double threshold, const double *cdf,
                          int cdf_len, int64_t *idx);
int64_t corrupt_block_f32(uintptr_t bg_addr, const double *in, double *out,
                          int64_t n, double threshold, const double *cdf,
                          int cdf_len, int64_t *idx);
void batch_corrupt_f64(const uint64_t *bg_addrs, double *values,
                       int64_t n_trials, int64_t row_size,
                       const double *thresholds, const uint8_t *active,
                       const double *cdf, int cdf_len,
                       int64_t *faults_out, int64_t *idx);
void batch_corrupt_f32(const uint64_t *bg_addrs, float *values,
                       int64_t n_trials, int64_t row_size,
                       const double *thresholds, const uint8_t *active,
                       const double *cdf, int cdf_len,
                       int64_t *faults_out, int64_t *idx);
double commit_scalar(uintptr_t bg_addr, double v, int width32,
                     int64_t upper, const double *cdf, int cdf_len,
                     int64_t *state);
double roundtrip_f32(double v);
void direct_form_filter(uintptr_t bg_addr, const double *u, int64_t n,
                        const double *a, int64_t na,
                        const double *b, int64_t nb,
                        double *out, int width32, double fault_rate,
                        int64_t interval_upper, const double *cdf, int cdf_len,
                        int64_t *state);
"""

_C_SOURCE = r"""
#include <stdint.h>
#include <string.h>
#include <math.h>

/* numpy's C bit-generator interface (numpy/random/bitgen.h); the struct
   address is published per-Generator via BitGenerator.ctypes.bit_generator,
   so drawing through these function pointers consumes the exact stream the
   python-level Generator methods consume. */
typedef struct bitgen {
  void *state;
  uint64_t (*next_uint64)(void *st);
  uint32_t (*next_uint32)(void *st);
  double (*next_double)(void *st);
  uint64_t (*next_raw)(void *st);
} bitgen_t;

/* ---- bounded integers: Generator.integers() is Lemire rejection sampling
   (Lemire 2019), with a 32-bit multiply path for small ranges.  Replicated
   exactly, including the strict-< dispatch (rng == 0xFFFFFFFF would
   overflow the 32-bit path's rng_excl and must take the 64-bit path). ---- */
static inline uint32_t bounded_lemire_uint32(bitgen_t *bg, uint32_t rng) {
  const uint32_t rng_excl = rng + 1U;
  uint64_t m;
  uint32_t leftover;
  m = ((uint64_t)bg->next_uint32(bg->state)) * rng_excl;
  leftover = (uint32_t)m;
  if (leftover < rng_excl) {
    const uint32_t threshold = (0xFFFFFFFFUL - rng) % rng_excl;
    while (leftover < threshold) {
      m = ((uint64_t)bg->next_uint32(bg->state)) * rng_excl;
      leftover = (uint32_t)m;
    }
  }
  return (uint32_t)(m >> 32);
}

static inline uint64_t bounded_lemire_uint64(bitgen_t *bg, uint64_t rng) {
  const uint64_t rng_excl = rng + 1ULL;
  __uint128_t m;
  uint64_t leftover;
  m = ((__uint128_t)bg->next_uint64(bg->state)) * rng_excl;
  leftover = (uint64_t)m;
  if (leftover < rng_excl) {
    const uint64_t threshold = (0xFFFFFFFFFFFFFFFFULL - rng) % rng_excl;
    while (leftover < threshold) {
      m = ((__uint128_t)bg->next_uint64(bg->state)) * rng_excl;
      leftover = (uint64_t)m;
    }
  }
  return (uint64_t)(m >> 64);
}

/* int(rng.integers(1, upper + 1)): one bounded draw on [1, upper]. */
static inline int64_t draw_interval(bitgen_t *bg, int64_t upper) {
  uint64_t rng = (uint64_t)(upper - 1);
  if (rng == 0) return 1;
  if (rng == 0xFFFFFFFFFFFFFFFFULL)
    return (int64_t)(1 + bg->next_uint64(bg->state));
  if (rng < 0xFFFFFFFFULL)
    return 1 + (int64_t)bounded_lemire_uint32(bg, (uint32_t)rng);
  return 1 + (int64_t)bounded_lemire_uint64(bg, rng);
}

/* numpy.searchsorted(cdf, u, side="right"): count of entries <= u. */
static inline int upper_bound(const double *cdf, int n, double u) {
  int lo = 0, hi = n;
  while (lo < hi) {
    int mid = (lo + hi) >> 1;
    if (cdf[mid] <= u) lo = mid + 1;
    else hi = mid;
  }
  return lo;
}

/* One bit draw: rng.random(1) then the inverse-CDF lookup. */
static inline int draw_bit(bitgen_t *bg, const double *cdf, int cdf_len) {
  return upper_bound(cdf, cdf_len, bg->next_double(bg->state));
}

static inline double flip_f64(double v, int bit) {
  uint64_t bits;
  memcpy(&bits, &v, 8);
  bits ^= (uint64_t)1 << bit;
  memcpy(&v, &bits, 8);
  return v;
}

static inline float flip_f32(float v, int bit) {
  uint32_t bits;
  memcpy(&bits, &v, 4);
  bits ^= (uint32_t)1 << bit;
  memcpy(&v, &bits, 4);
  return v;
}

/* ---- corrupt_array: the serial draw protocol of
   repro.faults.vectorized.corrupt_array — n mask uniforms first (one per
   element, C order), then exactly n_faults bit draws.  `values` is the
   native-dtype working copy, mutated in place; `idx` is caller scratch of
   at least n entries.  Returns the fault count. ---- */
int64_t corrupt_array_f64(uintptr_t bg_addr, double *values, int64_t n,
                          double threshold, const double *cdf, int cdf_len,
                          int64_t *idx) {
  bitgen_t *bg = (bitgen_t *)bg_addr;
  int64_t n_faults = 0;
  for (int64_t i = 0; i < n; i++) {
    if (bg->next_double(bg->state) < threshold) idx[n_faults++] = i;
  }
  for (int64_t k = 0; k < n_faults; k++) {
    int bit = draw_bit(bg, cdf, cdf_len);
    values[idx[k]] = flip_f64(values[idx[k]], bit);
  }
  return n_faults;
}

int64_t corrupt_array_f32(uintptr_t bg_addr, float *values, int64_t n,
                          double threshold, const double *cdf, int cdf_len,
                          int64_t *idx) {
  bitgen_t *bg = (bitgen_t *)bg_addr;
  int64_t n_faults = 0;
  for (int64_t i = 0; i < n; i++) {
    if (bg->next_double(bg->state) < threshold) idx[n_faults++] = i;
  }
  for (int64_t k = 0; k < n_faults; k++) {
    int bit = draw_bit(bg, cdf, cdf_len);
    values[idx[k]] = flip_f32(values[idx[k]], bit);
  }
  return n_faults;
}

/* ---- corrupt_block: the whole StochasticProcessor.corrupt round trip in
   one call — float64 in, datapath-dtype corruption, float64 out.  Same
   draw protocol as corrupt_array (n mask uniforms, then the bit draws); a
   negative threshold means the fault rate is <= 0, which must draw nothing
   at all (a zero threshold still draws its n never-matching uniforms,
   exactly like the numpy tier with ops_per_element == 0). ---- */
int64_t corrupt_block_f64(uintptr_t bg_addr, const double *in, double *out,
                          int64_t n, double threshold, const double *cdf,
                          int cdf_len, int64_t *idx) {
  bitgen_t *bg = (bitgen_t *)bg_addr;
  int64_t n_faults = 0;
  for (int64_t i = 0; i < n; i++) out[i] = in[i];
  if (threshold < 0.0) return 0;
  for (int64_t i = 0; i < n; i++) {
    if (bg->next_double(bg->state) < threshold) idx[n_faults++] = i;
  }
  for (int64_t k = 0; k < n_faults; k++) {
    int bit = draw_bit(bg, cdf, cdf_len);
    out[idx[k]] = flip_f64(out[idx[k]], bit);
  }
  return n_faults;
}

int64_t corrupt_block_f32(uintptr_t bg_addr, const double *in, double *out,
                          int64_t n, double threshold, const double *cdf,
                          int cdf_len, int64_t *idx) {
  bitgen_t *bg = (bitgen_t *)bg_addr;
  int64_t n_faults = 0;
  /* Narrow to the datapath width first (matching the numpy tier's float32
     astype), then widen back; flips below re-narrow exactly (the widened
     value is representable). */
  for (int64_t i = 0; i < n; i++) out[i] = (double)(float)in[i];
  if (threshold < 0.0) return 0;
  for (int64_t i = 0; i < n; i++) {
    if (bg->next_double(bg->state) < threshold) idx[n_faults++] = i;
  }
  for (int64_t k = 0; k < n_faults; k++) {
    int bit = draw_bit(bg, cdf, cdf_len);
    out[idx[k]] = (double)flip_f32((float)out[idx[k]], bit);
  }
  return n_faults;
}

/* ---- batch_corrupt: ProcessorBatch.corrupt's fast path.  Each trial row
   is corrupted with its own generator in the serial draw order (mask
   uniforms, then bit draws); a rate-zero trial draws nothing.  The
   generators are distinct per trial (guarded python-side), so running
   trials to completion one at a time consumes each stream identically to
   the numpy tier's all-uniforms-then-all-bits schedule. ---- */
void batch_corrupt_f64(const uint64_t *bg_addrs, double *values,
                       int64_t n_trials, int64_t row_size,
                       const double *thresholds, const uint8_t *active,
                       const double *cdf, int cdf_len,
                       int64_t *faults_out, int64_t *idx) {
  for (int64_t t = 0; t < n_trials; t++) {
    faults_out[t] = 0;
    if (!active[t]) continue;
    faults_out[t] = corrupt_array_f64(
        (uintptr_t)bg_addrs[t], values + t * row_size, row_size,
        thresholds[t], cdf, cdf_len, idx);
  }
}

void batch_corrupt_f32(const uint64_t *bg_addrs, float *values,
                       int64_t n_trials, int64_t row_size,
                       const double *thresholds, const uint8_t *active,
                       const double *cdf, int cdf_len,
                       int64_t *faults_out, int64_t *idx) {
  for (int64_t t = 0; t < n_trials; t++) {
    faults_out[t] = 0;
    if (!active[t]) continue;
    faults_out[t] = corrupt_array_f32(
        (uintptr_t)bg_addrs[t], values + t * row_size, row_size,
        thresholds[t], cdf, cdf_len, idx);
  }
}

/* ---- commit_scalar: one StochasticFPU._commit / corrupt_scalar step at a
   positive fault rate (the python wrapper handles the protected / rate<=0
   round-trip itself).  state[0] = ops_until_fault (in/out); state[1] is set
   to 1 when a fault fires (caller pre-zeroes it). ---- */
double commit_scalar(uintptr_t bg_addr, double v, int width32,
                     int64_t upper, const double *cdf, int cdf_len,
                     int64_t *state) {
  bitgen_t *bg = (bitgen_t *)bg_addr;
  if (state[0] < 0) goto pass;
  state[0]--;
  if (state[0] > 0) goto pass;
  state[0] = draw_interval(bg, upper); /* schedule, then flip */
  state[1] = 1;
  if (width32) return (double)flip_f32((float)v, draw_bit(bg, cdf, cdf_len));
  return flip_f64(v, draw_bit(bg, cdf, cdf_len));
pass:
  return width32 ? (double)(float)v : v;
}

/* float32 datapath round trip for protected / fault-free commits. */
double roundtrip_f32(double v) { return (double)(float)v; }

/* ---- direct-form IIR: the whole noisy_direct_form_filter recursion with
   StochasticFPU._commit / FaultInjector.corrupt_scalar semantics inlined.
   state[0] = ops_until_fault (in/out); state[1] += faults injected;
   state[2] += injector ops observed; state[3] += FPU flops. ---- */
typedef struct {
  bitgen_t *bg;
  int width32;
  double rate;
  int64_t upper;
  const double *cdf;
  int cdf_len;
  int64_t countdown, faults, ops, flops;
} fpu_ctx;

static inline double roundtrip(const fpu_ctx *c, double v) {
  return c->width32 ? (double)(float)v : v;
}

/* flip_bit_scalar: cast to the datapath dtype, XOR one bit, widen back. */
static inline double flip_scalar(const fpu_ctx *c, double v, int bit) {
  if (c->width32) return (double)flip_f32((float)v, bit);
  return flip_f64(v, bit);
}

static double commit(fpu_ctx *c, double v) {
  c->flops++;
  if (c->rate <= 0.0) return roundtrip(c, v);   /* injector untouched */
  c->ops++;
  if (c->countdown < 0) return roundtrip(c, v);
  c->countdown--;
  if (c->countdown > 0) return roundtrip(c, v);
  c->countdown = draw_interval(c->bg, c->upper); /* schedule, then flip */
  c->faults++;
  return flip_scalar(c, v, draw_bit(c->bg, c->cdf, c->cdf_len));
}

/* StochasticFPU.div's explicit zero-divisor branch (b == 0.0 also matches
   -0.0, exactly as the python comparison does; natural C division would
   give signed infinities for x / -0.0 instead). */
static double noisy_div(fpu_ctx *c, double a, double b) {
  double r;
  if (b == 0.0) {
    if (a == 0.0 || isnan(a)) r = (double)NAN;
    else r = a > 0.0 ? (double)INFINITY : -(double)INFINITY;
  } else {
    r = a / b;
  }
  return commit(c, r);
}

void direct_form_filter(uintptr_t bg_addr, const double *u, int64_t n,
                        const double *a, int64_t na,
                        const double *b, int64_t nb,
                        double *out, int width32, double fault_rate,
                        int64_t interval_upper, const double *cdf, int cdf_len,
                        int64_t *state) {
  fpu_ctx ctx;
  ctx.bg = (bitgen_t *)bg_addr;
  ctx.width32 = width32;
  ctx.rate = fault_rate;
  ctx.upper = interval_upper;
  ctx.cdf = cdf;
  ctx.cdf_len = cdf_len;
  ctx.countdown = state[0];
  ctx.faults = 0;
  ctx.ops = 0;
  ctx.flops = 0;
  for (int64_t t = 0; t < n; t++) {
    double acc = 0.0;
    int64_t amax = (t + 1 < na) ? t + 1 : na;
    for (int64_t i = 0; i < amax; i++)
      acc = commit(&ctx, acc + commit(&ctx, a[i] * u[t - i]));
    int64_t bmax = (t + 1 < nb) ? t + 1 : nb;
    for (int64_t i = 1; i < bmax; i++)
      acc = commit(&ctx, acc - commit(&ctx, b[i] * out[t - i]));
    out[t] = noisy_div(&ctx, acc, b[0]);
  }
  state[0] = ctx.countdown;
  state[1] += ctx.faults;
  state[2] += ctx.ops;
  state[3] += ctx.flops;
}
"""


# --------------------------------------------------------------------------- #
# Build / load
# --------------------------------------------------------------------------- #
_LIB: Optional[Tuple[object, object]] = None
_BUILD_SECONDS = 0.0


def _cache_dir() -> Path:
    root = os.environ.get("REPRO_CNATIVE_CACHE")
    if root:
        return Path(root)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-cnative"


def _ensure_lib() -> Tuple[object, object]:
    """Compile (first time per machine) or load the cached extension."""
    global _LIB, _BUILD_SECONDS
    if _LIB is not None:
        return _LIB
    started = time.perf_counter()
    import cffi  # deferred: its absence makes the backend unavailable

    import hashlib

    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    modname = f"_repro_cnative_{digest}"
    build_dir = _cache_dir() / f"py{sys.version_info[0]}{sys.version_info[1]}"
    build_dir.mkdir(parents=True, exist_ok=True)
    candidates = sorted(build_dir.glob(f"{modname}*.so")) + sorted(
        build_dir.glob(f"{modname}*.pyd")
    )
    if not candidates:
        ffi_builder = cffi.FFI()
        ffi_builder.cdef(_CDEF)
        ffi_builder.set_source(modname, _C_SOURCE)
        ffi_builder.compile(tmpdir=str(build_dir), verbose=False)
        candidates = sorted(build_dir.glob(f"{modname}*.so")) + sorted(
            build_dir.glob(f"{modname}*.pyd")
        )
    if not candidates:
        raise BackendUnavailable("cffi compiled no extension module")
    loader = importlib.machinery.ExtensionFileLoader(modname, str(candidates[0]))
    spec = importlib.util.spec_from_loader(modname, loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    _LIB = (module.ffi, module.lib)
    _BUILD_SECONDS = time.perf_counter() - started
    return _LIB


def warmup() -> float:
    """Compile or load the extension now; returns the seconds the first load took."""
    _ensure_lib()
    return _BUILD_SECONDS


def version() -> Optional[str]:
    """The cffi version the extension is built with."""
    try:
        import cffi

        return f"cffi-{cffi.__version__}"
    except ImportError:  # pragma: no cover - guarded by available()
        return None


# --------------------------------------------------------------------------- #
# Per-object cached call state
# --------------------------------------------------------------------------- #
def _bitgen_addr(rng: np.random.Generator) -> int:
    return int(rng.bit_generator.ctypes.bit_generator.value)


def _injector_state(injector) -> dict:
    """Cached cffi buffers for one injector: bitgen address, CDF, scratch."""
    state = injector.__dict__.get("_cnative_state")
    if state is None:
        ffi, lib = _ensure_lib()
        cdf = np.ascontiguousarray(injector.bit_distribution.cdf(), dtype=np.float64)
        state = {
            "ffi": ffi,
            "lib": lib,
            "addr": _bitgen_addr(injector.rng),
            "f32": injector.dtype == np.dtype(np.float32),
            "cdf_arr": cdf,  # keeps the buffer below alive
            "cdf": ffi.from_buffer("double[]", cdf),
            "cdf_len": int(cdf.size),
            "idx_arr": None,
            "idx": None,
            "thresholds": {},
            "uppers": {},
            "counters": ffi.new("int64_t[2]"),
        }
        injector.__dict__["_cnative_state"] = state
    return state


def _idx_scratch(state: dict, n: int):
    ffi = state["ffi"]
    if state["idx_arr"] is None or state["idx_arr"].size < n:
        state["idx_arr"] = np.empty(max(n, 64), dtype=np.int64)
        state["idx"] = ffi.from_buffer("int64_t[]", state["idx_arr"])
    return state["idx"]


def _threshold(rate: float, state: dict, ops: int) -> float:
    key = (rate, ops)
    threshold = state["thresholds"].get(key)
    if threshold is None:
        from repro.faults.vectorized import effective_fault_probability

        threshold = float(effective_fault_probability(rate, ops))
        state["thresholds"][key] = threshold
    return threshold


def corrupt_array(injector, out: np.ndarray, ops: int) -> int:
    """Bit-identical C path of :meth:`FaultInjector.corrupt_array`.

    ``out`` is the freshly copied native-dtype array (C-contiguous, mutated
    in place); returns the fault count.  The caller guarantees a positive
    fault rate, a non-empty array and scalar ``ops``.  The mask uniforms and
    the bit positions come from the injector's generator, the positions by
    the inverse-CDF lookup over its distribution's CDF.
    """
    state = _injector_state(injector)
    ffi, lib = state["ffi"], state["lib"]
    threshold = _threshold(injector.fault_rate, state, ops)
    idx = _idx_scratch(state, out.size)
    flat = out.reshape(-1)
    if out.dtype == np.float32:
        return int(
            lib.corrupt_array_f32(
                state["addr"], ffi.from_buffer("float[]", flat), out.size,
                threshold, state["cdf"], state["cdf_len"], idx,
            )
        )
    return int(
        lib.corrupt_array_f64(
            state["addr"], ffi.from_buffer("double[]", flat), out.size,
            threshold, state["cdf"], state["cdf_len"], idx,
        )
    )


def corrupt_block(proc, values, ops: int) -> np.ndarray:
    """Bit-identical fused C path of :meth:`StochasticProcessor.corrupt`.

    Collapses the whole per-call round trip — float64 view, datapath-dtype
    cast, mask/bit draws, widen back — into one compiled call, updating the
    injector's operation and fault counters.  The caller guarantees scalar
    ``ops``; the draws are :func:`corrupt_array`'s (the injector's generator,
    the inverse-CDF lookup over its distribution's CDF).  Fault rate and
    array size may be anything (a non-positive rate draws nothing, matching
    the numpy tier's early return, and a zero-``ops`` call still draws its n
    mask uniforms).
    """
    injector = proc._injector
    state = _injector_state(injector)
    ffi = state["ffi"]
    # order="C" rather than ascontiguousarray, which would promote a 0-d
    # input to shape (1,); the numpy tier keeps the input's shape.
    arr = np.asarray(values, dtype=np.float64, order="C")
    n = arr.size
    injector._ops_observed += ops * n
    rate = injector._fault_rate
    out = np.empty_like(arr)
    if n == 0:
        return out
    threshold = -1.0 if rate <= 0.0 else _threshold(rate, state, ops)
    lib = state["lib"]
    fn = lib.corrupt_block_f32 if state["f32"] else lib.corrupt_block_f64
    n_faults = fn(
        state["addr"],
        ffi.from_buffer("double[]", arr),
        ffi.from_buffer("double[]", out), n,
        threshold, state["cdf"], state["cdf_len"], _idx_scratch(state, n),
    )
    if n_faults:
        injector._faults_injected += n_faults
    return out


def commit_scalar(fpu, value: float) -> float:
    """Bit-identical C path of one :meth:`StochasticFPU._commit` step.

    Protected and fault-free commits reduce to the datapath round trip; at a
    positive rate the countdown / interval-draw / bit-flip step of
    :meth:`FaultInjector.corrupt_scalar` runs as one compiled call, with the
    injector's counters synced around it.  FLOP counting stays with the
    caller.
    """
    injector = fpu._injector
    state = _injector_state(injector)
    if fpu._protected_depth > 0 or injector._fault_rate <= 0.0:
        if state["f32"]:
            return state["lib"].roundtrip_f32(value)
        return float(value)
    rate = injector._fault_rate
    injector._ops_observed += 1
    counters = state["counters"]
    counters[0] = injector._ops_until_fault
    counters[1] = 0
    upper = state["uppers"].get(rate)
    if upper is None:
        # int(round(...)) is banker's rounding, matching _uniform_interval.
        upper = max(1, int(round(2.0 / rate)))
        state["uppers"][rate] = upper
    result = state["lib"].commit_scalar(
        state["addr"], value, 1 if state["f32"] else 0, upper,
        state["cdf"], state["cdf_len"], counters,
    )
    injector._ops_until_fault = counters[0]
    if counters[1]:
        injector._faults_injected += 1
    return result


def _batch_state(batch) -> dict:
    """Cached cffi buffers for one ProcessorBatch: addresses, masks, CDF."""
    state = batch.__dict__.get("_cnative_state")
    if state is None:
        ffi, lib = _ensure_lib()
        addrs = np.array(
            [_bitgen_addr(rng) for rng in batch._rngs], dtype=np.uint64
        )
        active = (batch._rates > 0.0).astype(np.uint8)
        cdf = np.ascontiguousarray(batch._distribution.cdf(), dtype=np.float64)
        faults = np.zeros(len(batch.procs), dtype=np.int64)
        state = {
            "ffi": ffi,
            "lib": lib,
            "addrs_arr": addrs,
            "addrs": ffi.from_buffer("uint64_t[]", addrs),
            "active_arr": active,
            "active": ffi.from_buffer("uint8_t[]", active),
            "cdf_arr": cdf,
            "cdf": ffi.from_buffer("double[]", cdf),
            "cdf_len": int(cdf.size),
            "faults_arr": faults,
            "faults": ffi.from_buffer("int64_t[]", faults),
            "idx_arr": None,
            "idx": None,
        }
        batch.__dict__["_cnative_state"] = state
    return state


def batch_corrupt(batch, native: np.ndarray, row_size: int, ops: int) -> np.ndarray:
    """Bit-identical C path of :meth:`ProcessorBatch.corrupt`'s fast branch.

    ``native`` is the datapath-dtype working copy of the stacked tensor
    (mutated in place); returns the per-trial fault counts (a reused buffer —
    consume before the next call).
    """
    state = _batch_state(batch)
    ffi, lib = state["ffi"], state["lib"]
    thresholds = batch._thresholds_for(ops, 1)
    idx = _idx_scratch(state, row_size)
    flat = native.reshape(-1)
    if native.dtype == np.float32:
        lib.batch_corrupt_f32(
            state["addrs"], ffi.from_buffer("float[]", flat),
            len(batch.procs), row_size,
            ffi.from_buffer("double[]", thresholds), state["active"],
            state["cdf"], state["cdf_len"], state["faults"], idx,
        )
    else:
        lib.batch_corrupt_f64(
            state["addrs"], ffi.from_buffer("double[]", flat),
            len(batch.procs), row_size,
            ffi.from_buffer("double[]", thresholds), state["active"],
            state["cdf"], state["cdf_len"], state["faults"], idx,
        )
    return state["faults_arr"]


def direct_form_filter(filt, u: np.ndarray, proc) -> np.ndarray:
    """Bit-identical C path of ``noisy_direct_form_filter``.

    Runs the entire recursion — every commit's dtype round-trip, the
    interval countdown, interval/bit draws, and the explicit zero-divisor
    branch of ``StochasticFPU.div`` — in one compiled call, then folds the
    counter deltas back into the injector and FPU.
    """
    injector = proc.injector
    fpu = proc.fpu
    state = _injector_state(injector)
    ffi, lib = state["ffi"], state["lib"]
    u_arr = np.ascontiguousarray(u, dtype=np.float64).ravel()
    a = np.ascontiguousarray(filt.feedforward, dtype=np.float64)
    b = np.ascontiguousarray(filt.feedback, dtype=np.float64)
    out = np.zeros_like(u_arr)
    rate = injector.fault_rate
    # Python computes the interval bound (banker's rounding); C only draws.
    upper = max(1, int(round(2.0 / rate))) if rate > 0.0 else 1
    counters = np.array([injector._ops_until_fault, 0, 0, 0], dtype=np.int64)
    lib.direct_form_filter(
        state["addr"],
        ffi.from_buffer("double[]", u_arr), u_arr.size,
        ffi.from_buffer("double[]", a), a.size,
        ffi.from_buffer("double[]", b), b.size,
        ffi.from_buffer("double[]", out),
        1 if injector.dtype == np.dtype(np.float32) else 0,
        rate, upper, state["cdf"], state["cdf_len"],
        ffi.from_buffer("int64_t[]", counters),
    )
    injector._ops_until_fault = int(counters[0])
    injector._faults_injected += int(counters[1])
    injector._ops_observed += int(counters[2])
    fpu._flops += int(counters[3])
    return out


# --------------------------------------------------------------------------- #
# Kernel table (registered, and imported on first probe, by repro.backends)
# --------------------------------------------------------------------------- #
def _check_toolchain() -> None:
    try:
        import cffi  # noqa: F401
    except ImportError:
        raise BackendUnavailable("cffi is not installed") from None
    try:
        _ensure_lib()
    except BackendUnavailable:
        raise
    except Exception as exc:  # compiler missing, broken toolchain, ...
        raise BackendUnavailable(f"C extension build failed: {exc}") from exc


_KERNELS = {
    "corrupt_array": corrupt_array,
    "corrupt_block": corrupt_block,
    "commit_scalar": commit_scalar,
    "batch_corrupt": batch_corrupt,
    "direct_form_filter": direct_form_filter,
}


def load() -> Dict[str, Callable]:
    """The kernel table; raises :class:`BackendUnavailable` without cffi or a compiler."""
    _check_toolchain()
    return dict(_KERNELS)
