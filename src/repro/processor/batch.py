"""A stack of stochastic processors driven as one tensor (the batched substrate).

:class:`ProcessorBatch` is the substrate object of the tensorized trial
backend (:mod:`repro.experiments.tensor`): it wraps the per-trial
:class:`~repro.processor.stochastic.StochasticProcessor` instances of one
executor batch and exposes the same noisy primitives — :meth:`corrupt` plus
the :func:`batch_sub` / :func:`batch_scale` / :func:`batch_matvec` mirrors of
:mod:`repro.linalg.ops` — over stacked ``(n_trials, ...)`` tensors.

Bit-identical contract
----------------------
Row ``t`` of every batched operation reproduces, byte for byte, what the
serial path would compute for trial ``t`` alone:

* arithmetic is elementwise or a last-axis reduction, both of which numpy
  evaluates independently per row;
* random draws come from each trial's own generator in the serial draw order
  (see :func:`repro.faults.vectorized.corrupt_array`), and a trial whose
  fault rate is zero draws nothing;
* FLOP and fault counters on each wrapped processor advance exactly as the
  per-trial :meth:`StochasticProcessor.corrupt` calls would have advanced
  them, so per-trial accounting (and thus energy numbers) is preserved.

Only the fused passes differ — one dtype conversion, one threshold compare,
one bit-flip kernel, and one reduction over the whole stack instead of one
per trial — which is where the throughput win lives.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Union

import numpy as np

from repro.faults.vectorized import effective_fault_probability
from repro.processor.stochastic import StochasticProcessor

__all__ = ["ProcessorBatch", "batch_sub", "batch_scale", "batch_matvec"]


class ProcessorBatch:
    """One batched view over the processors of an executor trial batch.

    Parameters
    ----------
    procs:
        One :class:`StochasticProcessor` per trial row.  The processors must
        share a datapath dtype (they come from one fault model) but may carry
        *different* fault rates — a fault-rate sweep stacks all rates of a
        series into one batch.  Scenario grids satisfy the shared-dtype
        requirement by construction: the executors split a grid into
        per-scenario sub-batches, so a :class:`ProcessorBatch` never spans
        scenarios (which may differ in dtype and bit distribution).
    """

    def __init__(self, procs: Sequence[StochasticProcessor]) -> None:
        procs = list(procs)
        if not procs:
            raise ValueError("ProcessorBatch requires at least one processor")
        dtypes = {proc.dtype for proc in procs}
        if len(dtypes) != 1:
            raise ValueError(
                f"processors mix datapath dtypes {sorted(map(str, dtypes))}; "
                "a batch must come from one fault model"
            )
        self.procs = procs
        # The batched corruption path runs thousands of times per solve, so
        # everything derivable from the (fixed) processor configuration is
        # resolved once here: per-trial rates, generators, distributions, and
        # lazily the per-ops fault thresholds and reusable scratch buffers.
        # Consequently a processor's fault rate must not be mutated while it
        # is enrolled in a batch (executors build fresh processors per batch).
        self._rates = np.asarray([proc.fault_rate for proc in procs], dtype=np.float64)
        self._active = np.flatnonzero(self._rates > 0.0)
        self._rngs = [proc.injector.rng for proc in procs]
        self._distributions = [proc.injector.bit_distribution for proc in procs]
        self._thresholds: dict = {}
        self._scratch: dict = {}
        self._pending_ops = 0
        self._pending_faults = np.zeros(len(procs), dtype=np.int64)
        # Bit positions can be drawn with one fused inverse-CDF lookup when
        # every trial shares the stock sampling implementation and CDF; a
        # custom distribution subclass falls back to per-trial sample().
        from repro.faults.distribution import BitPositionDistribution

        first = self._distributions[0]
        if all(
            type(dist).sample is BitPositionDistribution.sample
            and np.array_equal(dist.cdf(), first.cdf())
            for dist in self._distributions
        ):
            self._shared_cdf = first.cdf()
        else:
            self._shared_cdf = None
        # Compute-backend fast path for the fused corruption pass.  The
        # compiled kernels run each trial's draws to completion before the
        # next trial's, which consumes the per-generator streams identically
        # to the all-uniforms-then-all-bits schedule below *only* when every
        # trial owns its own generator — executors guarantee that, but a
        # hand-built batch sharing one generator must stay on the numpy tier.
        from repro.backends import active_backend

        kernel = active_backend().kernel("batch_corrupt")
        self._batch_kernel = (
            kernel
            if kernel is not None
            and self._shared_cdf is not None
            and len({id(rng) for rng in self._rngs}) == len(self._rngs)
            and not any(proc.injector.uses_lfsr for proc in procs)
            else None
        )

    def __len__(self) -> int:
        return len(self.procs)

    def __iter__(self) -> Iterator[StochasticProcessor]:
        return iter(self.procs)

    @property
    def dtype(self) -> np.dtype:
        """Floating-point dtype of the simulated datapath (shared)."""
        return self.procs[0].dtype

    @property
    def fault_rates(self) -> np.ndarray:
        """Per-trial fault rates (fixed at batch construction), ``(n_trials,)``."""
        return self._rates.copy()

    # ------------------------------------------------------------------ #
    # Batched noisy corruption (mirrors StochasticProcessor.corrupt row-wise)
    # ------------------------------------------------------------------ #
    def corrupt(
        self, stacked: np.ndarray, ops_per_element: Union[int, np.ndarray] = 1
    ) -> np.ndarray:
        """Corrupt a stacked ``(n_trials, ...)`` tensor of FLOP-block results.

        Row ``t`` is treated exactly as ``self.procs[t].corrupt(stacked[t],
        ops_per_element)`` would treat it — same dtype round-trip through the
        datapath precision, same random draws from the trial's own injector
        generator, same counter updates — but the conversion, threshold
        comparison, and bit-flip passes are fused across the stack.
        """
        arr = np.asarray(stacked, dtype=np.float64)
        if arr.ndim < 1 or arr.shape[0] != len(self.procs):
            raise ValueError(
                f"stacked tensor has shape {arr.shape}; expected leading "
                f"dimension {len(self.procs)} (one row per trial)"
            )
        row_shape = arr.shape[1:]
        ops = np.asarray(ops_per_element)
        if ops.ndim != 0 or not row_shape:
            return self._corrupt_general(arr, ops)
        row_size = int(np.prod(row_shape, dtype=np.int64))
        per_trial_ops = int(ops) * row_size

        if self._batch_kernel is not None:
            # Backend fast path: the whole mask/bit-flip pass in one compiled
            # call over the native-dtype copy (bit-identical tier; see the
            # kernel-binding note in __init__).
            native = self._native_scratch(arr.shape)
            with np.errstate(over="ignore", invalid="ignore"):
                np.copyto(native, arr, casting="unsafe")
            faults_per_trial = self._batch_kernel(self, native, row_size, int(ops))
            self._pending_ops += per_trial_ops
            self._pending_faults += faults_per_trial
            with np.errstate(over="ignore", invalid="ignore"):
                return native.astype(np.float64)

        # This fused pass reproduces corrupt_array's per-trial draw protocol
        # (uniform mask first, then exactly n_faults bit positions, nothing
        # at rate zero) with reusable buffers and a compact index-based flip;
        # tests/test_tensor_backend.py pins it against per-trial corruption.
        # Bit positions come from the stock inverse-CDF sampler (guaranteed
        # in [0, width) by construction, which is why the compact XOR can
        # skip flip_bit_array's range check); custom distributions take the
        # per-trial sample() branch.
        uniforms, mask, native = self._workspace(arr.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            np.copyto(native, arr, casting="unsafe")
        # Per-trial uniform draws (serial order, none for rate-zero trials),
        # then one fused threshold comparison over the whole tensor.  Stale
        # buffer rows of inactive trials are harmless: uniforms are >= 0 and
        # their thresholds are 0, so they can never read as faults.
        rngs = self._rngs
        for trial in self._active:
            rngs[trial].random(out=uniforms[trial])
        np.less(uniforms, self._thresholds_for(int(ops), arr.ndim), out=mask)
        # Per-trial fault counts fall out of the flat fault indices (C order is
        # trial-major): count the indices below each row boundary.
        fault_indices = mask.reshape(-1).nonzero()[0]
        cumulative = fault_indices.searchsorted(self._row_boundaries(row_size))
        faults_per_trial = cumulative.copy()
        faults_per_trial[1:] -= cumulative[:-1]
        self._pending_ops += per_trial_ops
        self._pending_faults += faults_per_trial

        if fault_indices.size:
            # Compact bit flip: draw each faulted trial's bit positions from
            # its own generator (serial draw order), then resolve the
            # inverse-CDF lookup and the XOR once for the whole tensor — the
            # same flips flip_bit_array would apply, without materializing a
            # full bit-position tensor.
            faulted = np.flatnonzero(faults_per_trial)
            if self._shared_cdf is not None:
                draws = [
                    rngs[trial].random(int(faults_per_trial[trial]))
                    for trial in faulted
                ]
                positions = self._shared_cdf.searchsorted(
                    np.concatenate(draws), side="right"
                )
            else:
                positions = np.concatenate(
                    [
                        self._distributions[trial].sample(
                            rngs[trial], size=int(faults_per_trial[trial])
                        )
                        for trial in faulted
                    ]
                )
            uint_dtype = np.uint32 if native.dtype == np.float32 else np.uint64
            flat_bits = native.view(uint_dtype).reshape(-1)
            flat_bits[fault_indices] ^= uint_dtype(1) << positions.astype(uint_dtype)
        with np.errstate(over="ignore", invalid="ignore"):
            return native.astype(np.float64)

    def flush(self) -> None:
        """Apply deferred FLOP/fault accounting to the wrapped processors.

        :meth:`corrupt` tallies per-trial operation and fault counts in bulk
        (updating every processor object on every fused pass would dominate
        the hot loop); this pushes the tally into each processor's counters,
        leaving them exactly as per-trial ``corrupt`` calls would have.  The
        batched solvers flush before any counter is read; call this after any
        direct :meth:`corrupt` usage before reading ``proc.flops`` /
        ``proc.faults_injected``.
        """
        if self._pending_ops == 0 and not self._pending_faults.any():
            return
        for proc, faults in zip(self.procs, self._pending_faults):
            proc.record_vectorized(self._pending_ops, int(faults))
        self._pending_ops = 0
        self._pending_faults[:] = 0

    def _corrupt_general(self, arr: np.ndarray, ops: np.ndarray) -> np.ndarray:
        """Per-element FLOP counts, or one scalar per trial (rare in the hot loop).

        Each row goes through its own processor's per-trial
        :meth:`StochasticProcessor.corrupt`, the reference the fused path is
        pinned against.
        """
        out = np.empty_like(arr)
        for row, proc in enumerate(self.procs):
            out[row] = proc.corrupt(arr[row], ops)
        return out

    def _workspace(self, shape) -> tuple:
        """Reusable (uniforms, mask, native) buffers for one tensor shape."""
        buffers = self._scratch.get(shape)
        if buffers is None:
            buffers = (
                np.zeros(shape, dtype=np.float64),
                np.empty(shape, dtype=bool),
                np.empty(shape, dtype=self.dtype),
            )
            self._scratch[shape] = buffers
        return buffers

    def _native_scratch(self, shape) -> np.ndarray:
        """Reusable native-dtype buffer for the backend corruption kernels."""
        buffer = self._scratch.get(("native", shape))
        if buffer is None:
            buffer = np.empty(shape, dtype=self.dtype)
            self._scratch[("native", shape)] = buffer
        return buffer

    def f64_scratch(self, shape) -> np.ndarray:
        """A reusable float64 buffer for transient pre-corruption tensors.

        Valid only until the next call that requests the same shape; callers
        must hand the buffer straight to :meth:`corrupt` (which copies it into
        the datapath representation) and drop it.
        """
        buffer = self._scratch.get(("f64", shape))
        if buffer is None:
            buffer = np.empty(shape, dtype=np.float64)
            self._scratch[("f64", shape)] = buffer
        return buffer

    def _row_boundaries(self, row_size: int) -> np.ndarray:
        """Flat end index of each trial row, cached per row size."""
        boundaries = self._scratch.get(("boundaries", row_size))
        if boundaries is None:
            boundaries = np.arange(1, len(self.procs) + 1, dtype=np.int64) * row_size
            self._scratch[("boundaries", row_size)] = boundaries
        return boundaries

    def _thresholds_for(self, ops: int, ndim: int) -> np.ndarray:
        """Per-trial fault thresholds for ``ops`` FLOPs/element, broadcastable."""
        flat = self._thresholds.get(ops)
        if flat is None:
            flat = np.array(
                [
                    float(effective_fault_probability(rate, ops)) if rate > 0.0 else 0.0
                    for rate in self._rates
                ]
            )
            self._thresholds[ops] = flat
        return flat.reshape((len(self.procs),) + (1,) * (ndim - 1))

    def count_flops(self, n_per_trial: int) -> None:
        """Record ``n_per_trial`` reliable FLOPs on every processor of the batch."""
        for proc in self.procs:
            proc.count_flops(n_per_trial)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProcessorBatch(n_trials={len(self.procs)}, dtype={self.dtype})"


# --------------------------------------------------------------------------- #
# Batched noisy linear-algebra primitives (mirror repro.linalg.ops row-wise)
# --------------------------------------------------------------------------- #
def _as_float(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def batch_sub(batch: ProcessorBatch, x, y) -> np.ndarray:
    """Row-wise :func:`~repro.linalg.ops.noisy_sub`: ``x - y`` on the noisy FPU.

    ``x`` is a stacked ``(n_trials, ...)`` tensor; ``y`` may be a per-trial
    stack or a shared array broadcast across rows.
    """
    return batch.corrupt(_as_float(x) - _as_float(y), ops_per_element=1)


def batch_scale(batch: ProcessorBatch, alpha: float, x) -> np.ndarray:
    """Row-wise :func:`~repro.linalg.ops.noisy_scale`: ``alpha * x`` on the noisy FPU."""
    return batch.corrupt(float(alpha) * _as_float(x), ops_per_element=1)


def batch_matvec(batch: ProcessorBatch, A, X) -> np.ndarray:
    """Row-wise :func:`~repro.linalg.ops.noisy_matvec` against one shared matrix.

    Computes ``A @ X[t]`` for every trial row ``t`` with the serial kernel's
    fault semantics — elementwise products corrupted individually, then each
    row-sum corrupted once with the accumulation-chain probability.  The
    products tensor and both corruption passes span the whole batch.
    """
    A_arr, X_arr = _as_float(A), _as_float(X)
    if A_arr.ndim != 2 or X_arr.ndim != 2 or A_arr.shape[1] != X_arr.shape[1]:
        raise ValueError(
            f"batched matvec shape mismatch: {A_arr.shape} @ per-trial {X_arr.shape}"
        )
    n = A_arr.shape[1]
    if n == 0:
        return np.zeros((X_arr.shape[0], A_arr.shape[0]))
    shape = (X_arr.shape[0], A_arr.shape[0], n)
    scratch = batch.f64_scratch(shape)
    np.multiply(A_arr[np.newaxis, :, :], X_arr[:, np.newaxis, :], out=scratch)
    products = batch.corrupt(scratch, ops_per_element=1)
    return batch.corrupt(products.sum(axis=2), ops_per_element=max(n - 1, 1))
