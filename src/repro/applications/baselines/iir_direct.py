"""Direct-form IIR filtering on the noisy FPU.

This is the conventional feed-forward recursion of §4.2:

    x[t] = (1 / b₀) (Σ_i a_i u[t-i] − Σ_{i≥1} b_i x[t-i])

Because each output sample feeds back into later samples, "this recursive
implementation accrues noise in x as t grows" — a single corrupted
multiply-accumulate contaminates the rest of the output signal, which is why
the baseline's error-to-signal ratio in Figure 6.3 is orders of magnitude
worse than the robust version's.
"""

from __future__ import annotations

import numpy as np

from repro.applications.iir import IIRFilter
from repro.backends import active_backend
from repro.faults.distribution import BitPositionDistribution
from repro.processor.stochastic import StochasticProcessor

__all__ = ["noisy_direct_form_filter"]


def _backend_kernel(proc: StochasticProcessor):
    """The compiled whole-recursion kernel, when the backend provides one.

    The kernel inlines the scalar FPU commit protocol, so it only applies to
    the plain configuration: generator-timed faults, the stock inverse-CDF
    bit sampler, and no ambient ``fpu.protected()`` region.
    """
    kernel = active_backend().kernel("direct_form_filter")
    if kernel is None:
        return None
    injector = proc.injector
    if (
        injector.uses_lfsr
        or proc.fpu._protected_depth > 0
        or type(injector.bit_distribution).sample is not BitPositionDistribution.sample
    ):
        return None
    return kernel


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
