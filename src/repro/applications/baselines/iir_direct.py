"""Direct-form IIR filtering on the noisy FPU.

This is the conventional feed-forward recursion of §4.2:

    x[t] = (1 / b₀) (Σ_i a_i u[t-i] − Σ_{i≥1} b_i x[t-i])

Because each output sample feeds back into later samples, "this recursive
implementation accrues noise in x as t grows" — a single corrupted
multiply-accumulate contaminates the rest of the output signal, which is why
the baseline's error-to-signal ratio in Figure 6.3 is orders of magnitude
worse than the robust version's.

:func:`noisy_direct_form_filter_batch` runs one recursion per trial of a
batch together on a :class:`~repro.faults.fpu.StochasticFPUBatch`.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.applications.iir import IIRFilter
from repro.backends import active_backend
from repro.faults.fpu import StochasticFPUBatch
from repro.processor.stochastic import StochasticProcessor

__all__ = ["noisy_direct_form_filter", "noisy_direct_form_filter_batch"]


def _backend_kernel(proc: StochasticProcessor):
    """The compiled whole-recursion kernel, when the backend provides one.

    The kernel inlines the scalar FPU commit protocol, so it does not apply
    inside an ambient ``fpu.protected()`` region.
    """
    if proc.fpu._protected_depth > 0:
        return None
    return active_backend().kernel("direct_form_filter")


def noisy_direct_form_filter(
    filt: IIRFilter, u: np.ndarray, proc: StochasticProcessor
) -> np.ndarray:
    """Run the direct-form recursion with every FLOP on the noisy FPU."""
    kernel = _backend_kernel(proc)
    if kernel is not None:
        return kernel(filt, u, proc)
    fpu = proc.fpu
    u_arr = np.asarray(u, dtype=np.float64).ravel()
    a, b = filt.feedforward, filt.feedback
    output = np.zeros_like(u_arr)
    for t in range(u_arr.size):
        accumulator = 0.0
        for i in range(a.size):
            if t - i >= 0:
                accumulator = fpu.add(accumulator, fpu.mul(a[i], u_arr[t - i]))
        for i in range(1, b.size):
            if t - i >= 0:
                accumulator = fpu.sub(accumulator, fpu.mul(b[i], output[t - i]))
        output[t] = fpu.div(accumulator, b[0])
    return output


def noisy_direct_form_filter_batch(
    filt: IIRFilter, u: np.ndarray, procs: Sequence[StochasticProcessor]
) -> np.ndarray:
    """:func:`noisy_direct_form_filter` for every processor, as one recursion.

    Returns the ``(n_trials, len(u))`` outputs; row ``t`` is bit-identical to
    ``noisy_direct_form_filter(filt, u, procs[t])``, with the same draws and
    counters.  The recursion runs on a
    :class:`~repro.faults.fpu.StochasticFPUBatch`, one commit for every
    trial.  Where the compiled kernel binds, it is much faster per trial than
    the FPU batch, so each trial then runs it on its own.
    """
    procs = list(procs)
    if any(_backend_kernel(proc) is not None for proc in procs):
        return np.stack([noisy_direct_form_filter(filt, u, proc) for proc in procs])
    fpus = StochasticFPUBatch([proc.fpu for proc in procs])
    u_values = np.asarray(u, dtype=np.float64).ravel().tolist()
    a, b = filt.feedforward.tolist(), filt.feedback.tolist()
    outputs: List[List[float]] = []
    for t in range(len(u_values)):
        accumulator = [0.0] * len(procs)
        for i in range(min(len(a), t + 1)):
            accumulator = fpus.add(accumulator, fpus.mul(a[i], u_values[t - i]))
        for i in range(1, min(len(b), t + 1)):
            accumulator = fpus.sub(accumulator, fpus.mul(b[i], outputs[t - i]))
        outputs.append(fpus.div(accumulator, b[0]))
    fpus.flush()
    return np.array(outputs, dtype=np.float64).reshape(len(u_values), len(procs)).T.copy()
