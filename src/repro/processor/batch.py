"""A stack of stochastic processors driven as one tensor (the batched substrate).

:class:`ProcessorBatch` is the substrate object of the tensorized trial
backend (:mod:`repro.experiments.tensor`): it wraps the per-trial
:class:`~repro.processor.stochastic.StochasticProcessor` instances of one
executor batch and exposes the same noisy primitives — :meth:`corrupt` plus
the :func:`batch_sub` / :func:`batch_scale` / :func:`batch_dot` /
:func:`batch_matvec` mirrors of :mod:`repro.linalg.ops` — over stacked
``(n_trials, ...)`` tensors.  Masked solvers run a subset of the rows through
:meth:`ProcessorBatch.narrow`.

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

from repro.faults.bitflip import flip_bits_at
from repro.faults.vectorized import check_ops, effective_fault_probability, quiet
from repro.processor.stochastic import StochasticProcessor

__all__ = ["ProcessorBatch", "batch_sub", "batch_scale", "batch_dot", "batch_matvec"]


class ProcessorBatch:
    """One batched view over the processors of an executor trial batch.

    Parameters
    ----------
    procs:
        One :class:`StochasticProcessor` per trial row.  The processors must
        share a datapath dtype and a bit distribution (they come from one
        fault model), or construction raises :class:`ValueError`; they may
        carry *different* fault rates — a fault-rate sweep stacks all rates
        of a series into one batch.  Scenario grids satisfy the shared-model
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
        # Every trial draws its bit positions through one fused inverse-CDF
        # lookup, so the processors must share the distribution's CDF.
        distribution = procs[0].injector.bit_distribution
        cdf = distribution.cdf()
        if not all(
            np.array_equal(proc.injector.bit_distribution.cdf(), cdf) for proc in procs
        ):
            raise ValueError(
                "processors mix bit distributions; a batch must come from one "
                "fault model"
            )
        self.procs = procs
        # The batched corruption path runs thousands of times per solve, so
        # everything derivable from the (fixed) processor configuration is
        # resolved once here: per-trial rates, generators, the shared
        # distribution, and lazily the per-ops fault thresholds and reusable
        # scratch buffers.  Consequently a processor's fault rate must not be
        # mutated while it is enrolled in a batch (executors build fresh
        # processors per batch).
        self._rates = np.asarray([proc.fault_rate for proc in procs], dtype=np.float64)
        self._active = np.flatnonzero(self._rates > 0.0).tolist()
        self._rngs = [proc.injector.rng for proc in procs]
        self._distribution = distribution
        self._thresholds: dict = {}
        self._scratch: dict = {}
        self._pending_ops = 0
        self._pending_faults = np.zeros(len(procs), dtype=np.int64)
        self._rows = tuple(range(len(procs)))
        self._sub_batches: dict = {}
        self._recent: list = []
        # Compute-backend fast path for the fused corruption pass.  The
        # compiled kernels run each trial's draws to completion before the
        # next trial's, which consumes the per-generator streams identically
        # to the all-uniforms-then-all-bits schedule below *only* when every
        # trial owns its own generator — executors guarantee that, but a
        # hand-built batch sharing one generator must stay on the numpy tier.
        from repro.backends import active_backend

        kernel = active_backend().kernel("batch_corrupt")
        self._batch_kernel = (
            kernel if len({id(rng) for rng in self._rngs}) == len(self._rngs) else None
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
        comparison, and bit-flip passes are fused across the stack.  A
        negative ``ops_per_element`` raises :class:`ValueError` before any
        draw.
        """
        arr = np.asarray(stacked, dtype=np.float64)
        n_trials = len(self.procs)
        if arr.ndim < 1 or arr.shape[0] != n_trials:
            raise ValueError(
                f"stacked tensor has shape {arr.shape}; expected leading "
                f"dimension {n_trials} (one row per trial)"
            )
        # Stacks the fused pass does not cover go row by row through
        # proc.corrupt, whose first row rejects a negative count before any
        # draw; the fused pass checks its scalar count here.
        ops = ops_per_element
        if not isinstance(ops, (int, np.integer)):
            ops = np.asarray(ops)
            if ops.ndim != 0:
                return self._corrupt_general(arr, ops)
        if arr.ndim == 1:
            return self._corrupt_general(arr, ops)
        ops = int(ops)
        check_ops(ops)
        row_size = arr.size // n_trials
        self._pending_ops += ops * row_size

        # One errstate scope per pass covers the two steps that can warn: the
        # datapath cast, and widening a flipped value back (a flip can turn a
        # NaN or inf into a signaling NaN).
        with np.errstate(over="ignore", invalid="ignore"):
            if self._batch_kernel is not None:
                # Backend fast path: the whole mask/bit-flip pass in one
                # compiled call over the native-dtype copy (bit-identical
                # tier; see the kernel-binding note in __init__).
                native = self._native_scratch(arr.shape)
                native[...] = arr
                self._pending_faults += self._batch_kernel(self, native, row_size, ops)
                return native.astype(np.float64)
            return self._fused_pass(arr, ops, row_size)

    def _fused_pass(self, arr: np.ndarray, ops: int, row_size: int) -> np.ndarray:
        """The numpy tier of :meth:`corrupt`: one scalar ``ops`` over a >=2-D stack.

        Reproduces :func:`~repro.faults.vectorized.corrupt_inplace`'s
        per-trial draw protocol (uniform mask first, then exactly n_faults
        bit positions, nothing at rate zero) with reusable buffers: each
        faulted trial draws its uniforms from its own generator, one
        inverse-CDF lookup over the shared distribution turns them into bit
        positions, and the compact XOR it shares with it
        (:func:`~repro.faults.bitflip.flip_bits_at`) flips them.  Runs inside
        :meth:`corrupt`'s errstate scope.  tests/test_tensor_backend.py pins
        it against per-trial corruption.
        """
        uniforms, mask, native, active_rows = self._workspace(arr.shape)
        native[...] = arr
        # Per-trial uniform draws (serial order, none for rate-zero trials),
        # then one fused threshold comparison over the whole tensor.  Stale
        # buffer rows of inactive trials are harmless: uniforms are >= 0 and
        # their thresholds are 0, so they can never read as faults.
        for rng, row in active_rows:
            rng.random(out=row)
        np.less(uniforms, self._thresholds_for(ops, arr.ndim), out=mask)
        fault_indices = mask.reshape(-1).nonzero()[0]
        if fault_indices.size:
            # Per-trial fault counts fall out of the flat fault indices (C
            # order is trial-major): count the indices below each row
            # boundary.
            cumulative = fault_indices.searchsorted(self._row_boundaries(row_size))
            faults_per_trial = cumulative.copy()
            faults_per_trial[1:] -= cumulative[:-1]
            self._pending_faults += faults_per_trial
            # Each faulted trial draws its bit positions from its own
            # generator (serial draw order); the inverse-CDF lookup and the
            # XOR then run once for the whole tensor.
            faulted = [
                (trial, count)
                for trial, count in enumerate(faults_per_trial.tolist())
                if count
            ]
            rngs = self._rngs
            draws = [rngs[trial].random(count) for trial, count in faulted]
            positions = self._distribution._inverse_cdf(np.concatenate(draws))
            flip_bits_at(native, fault_indices, positions)
        return native.astype(np.float64)

    def narrow(self, index) -> "ProcessorBatch":
        """The sub-batch over rows ``index`` of this batch, cached per row set.

        Masked solvers run a data-dependent subset of the trials through the
        sub-batch, so those trials' generators consume exactly the draws their
        serial control flow would, and no others.  The full row set is this
        batch itself.  :meth:`flush` also flushes every sub-batch handed out.

        Only the two sub-batches narrowed to most recently keep their scratch
        buffers; an older one rebuilds them on its next pass.  Two cover a
        pair of row sets used in turn (the Jacobi SVD's sweep rows and their
        rotated subset), while a row set that only shrinks (SGD's active
        trials) would otherwise hold every past set's buffers until the batch
        is dropped.
        """
        key = tuple(np.asarray(index, dtype=np.intp).tolist())
        if key == self._rows:
            return self
        sub = self._sub_batches.get(key)
        if sub is None:
            sub = ProcessorBatch([self.procs[t] for t in key])
            self._sub_batches[key] = sub
        recent = self._recent
        if sub in recent:
            recent.remove(sub)
        recent.append(sub)
        if len(recent) > 2:
            recent.pop(0)._scratch.clear()
        return sub

    def flush(self) -> None:
        """Apply deferred FLOP/fault accounting to the wrapped processors.

        :meth:`corrupt` tallies per-trial operation and fault counts in bulk
        (updating every processor object on every fused pass would dominate
        the hot loop); this pushes the tally into each processor's counters,
        leaving them exactly as per-trial ``corrupt`` calls would have.  The
        tallies of every sub-batch from :meth:`narrow` are pushed too.  The
        batched solvers flush before any counter is read; call this after any
        direct :meth:`corrupt` usage before reading ``proc.flops`` /
        ``proc.faults_injected``.
        """
        for sub in self._sub_batches.values():
            sub.flush()
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
        """Reusable (uniforms, mask, native, active_rows) buffers for one shape.

        ``active_rows`` pairs each active trial's generator with its row of
        the uniforms buffer, in trial order.
        """
        buffers = self._scratch.get(shape)
        if buffers is None:
            uniforms = np.zeros(shape, dtype=np.float64)
            buffers = (
                uniforms,
                np.empty(shape, dtype=bool),
                np.empty(shape, dtype=self.dtype),
                [(self._rngs[trial], uniforms[trial]) for trial in self._active],
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
        """Per-trial fault thresholds for ``ops`` FLOPs/element, broadcastable
        against an ``ndim``-dimensional stack (cached per ``(ops, ndim)``)."""
        thresholds = self._thresholds.get((ops, ndim))
        if thresholds is None:
            flat = np.array(
                [
                    float(effective_fault_probability(rate, ops)) if rate > 0.0 else 0.0
                    for rate in self._rates.tolist()
                ]
            )
            thresholds = flat.reshape((len(self.procs),) + (1,) * (ndim - 1))
            self._thresholds[(ops, ndim)] = thresholds
        return thresholds

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


@quiet
def batch_sub(batch: ProcessorBatch, x, y) -> np.ndarray:
    """Row-wise :func:`~repro.linalg.ops.noisy_sub`: ``x - y`` on the noisy FPU.

    ``x`` is a stacked ``(n_trials, ...)`` tensor; ``y`` may be a per-trial
    stack or a shared array broadcast across rows.
    """
    return batch.corrupt(_as_float(x) - _as_float(y), ops_per_element=1)


@quiet
def batch_scale(batch: ProcessorBatch, alpha: float, x) -> np.ndarray:
    """Row-wise :func:`~repro.linalg.ops.noisy_scale`: ``alpha * x`` on the noisy FPU."""
    return batch.corrupt(float(alpha) * _as_float(x), ops_per_element=1)


@quiet
def batch_dot(batch: ProcessorBatch, x, y) -> np.ndarray:
    """Row-wise :func:`~repro.linalg.ops.noisy_dot` of two ``(n_trials, m)`` stacks.

    The products are corrupted individually, then the ``(n_trials, 1)`` stack
    of row sums is corrupted once with ``max(m - 1, 1)`` FLOPs per sum.
    Empty rows give 0 without a draw.  Returns the ``(n_trials,)`` dots.
    """
    x_arr, y_arr = _as_float(x), _as_float(y)
    if x_arr.ndim != 2 or x_arr.shape != y_arr.shape:
        raise ValueError(f"batched dot shape mismatch: {x_arr.shape} vs {y_arr.shape}")
    m = x_arr.shape[1]
    if m == 0:
        return np.zeros(x_arr.shape[0])
    products = batch.corrupt(x_arr * y_arr, ops_per_element=1)
    return batch.corrupt(
        products.sum(axis=1, keepdims=True), ops_per_element=max(m - 1, 1)
    )[:, 0]


@quiet
def batch_matvec(batch: ProcessorBatch, A, X) -> np.ndarray:
    """Row-wise :func:`~repro.linalg.ops.noisy_matvec`: ``A @ X[t]`` per trial row.

    ``A`` is one shared ``(r, c)`` matrix or one matrix per trial, shaped
    ``(n_trials, r, c)``.  The serial kernel's fault semantics hold per row —
    elementwise products corrupted individually, then each row-sum corrupted
    once with the accumulation-chain probability.  The products tensor and
    both corruption passes span the whole batch.
    """
    A_arr, X_arr = _as_float(A), _as_float(X)
    if (
        A_arr.ndim not in (2, 3)
        or X_arr.ndim != 2
        or A_arr.shape[-1] != X_arr.shape[1]
        or (A_arr.ndim == 3 and A_arr.shape[0] != X_arr.shape[0])
    ):
        raise ValueError(
            f"batched matvec shape mismatch: {A_arr.shape} @ per-trial {X_arr.shape}"
        )
    rows, n = A_arr.shape[-2:]
    if n == 0:
        return np.zeros((X_arr.shape[0], rows))
    shape = (X_arr.shape[0], rows, n)
    scratch = batch.f64_scratch(shape)
    np.multiply(A_arr, X_arr[:, np.newaxis, :], out=scratch)
    products = batch.corrupt(scratch, ops_per_element=1)
    return batch.corrupt(products.sum(axis=2), ops_per_element=max(n - 1, 1))
