"""Vectorized fault-corruption kernels.

These functions implement the fast path of the fault injector: given an array
of floating-point results and, for each element, the number of FLOPs that
produced it, they decide which elements fault and flip one randomly chosen bit
in each faulty element.

The per-operation scalar path (:class:`repro.faults.fpu.StochasticFPU`) flips
at most one bit per individual operation; the vectorized path collapses a
block of operations into its final result and flips at most one bit of that
result.  For the metrics the paper reports (success rates, relative errors,
error-to-signal ratios as a function of fault *rate*) the two are
statistically interchangeable, and the benchmark harness uses the vectorized
path so that 10,000-iteration gradient-descent sweeps finish in seconds rather
than hours.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from repro.faults.bitflip import flip_bits_at
from repro.faults.distribution import BitPositionDistribution

__all__ = [
    "check_ops",
    "quiet",
    "quiet_cast",
    "effective_fault_probability",
    "corrupt_array",
    "corrupt_inplace",
]


def quiet(func):
    """Run ``func`` with numpy's 'overflow' and 'invalid' warnings off.

    A bit flip can make any value inf, NaN or huge, so overflow to inf and
    the NaN of ``inf - inf``, ``0 * inf`` or a signaling NaN are part of the
    fault model rather than errors.  The datapath cast, the noisy
    primitives of ``linalg/ops.py`` and ``processor/batch.py``, the
    penalized-LP gradients of ``optimizers/penalty.py``, the least-squares
    objective and gradients of ``optimizers/problem.py``, and the numerical
    kernels' solves and scoring under ``applications/`` run under it.
    As a decorator, ``np.errstate`` opens its scope per call at about two
    thirds of the cost of a ``with`` block; each decorated function gets its
    own instance, so nesting is safe.
    """
    return np.errstate(over="ignore", invalid="ignore")(func)


@quiet
def quiet_cast(values, dtype: np.dtype) -> np.ndarray:
    """``values`` as a new C-ordered ``dtype`` array, without FP warnings.

    Overflow to inf in a float32 cast, and the 'invalid' raised by casting a
    signaling NaN (which a flip of a NaN or inf can produce), do not warn.
    """
    return np.array(values, dtype=dtype, order="C")


def check_ops(ops_per_element: Union[int, np.ndarray]) -> None:
    """Reject a negative FLOP count, scalar or per-element.

    The corruption entry points call this first, so a bad count raises
    before any draw or counter update.
    """
    if isinstance(ops_per_element, (int, np.integer)):
        if ops_per_element < 0:
            raise ValueError(f"flop count must be non-negative, got {ops_per_element}")
        return
    ops = np.asarray(ops_per_element)
    if ops.size and ops.min() < 0:
        raise ValueError(f"flop count must be non-negative, got {ops.min()}")


def effective_fault_probability(
    fault_rate: float, ops_per_element: Union[int, np.ndarray]
) -> np.ndarray:
    """Probability that the result of a block of FLOPs is corrupted.

    With a per-operation fault probability ``p`` and ``k`` operations feeding
    a result, the result survives uncorrupted with probability
    ``(1 - p)**k``; the effective corruption probability is therefore
    ``1 - (1 - p)**k``.
    """
    if isinstance(ops_per_element, (int, np.integer)):
        # Plain-float branch of the 0-d case below (same float, no arrays).
        ops = float(max(ops_per_element, 0))
        return np.float64(1.0 - (1.0 - float(fault_rate)) ** ops)
    ops = np.asarray(ops_per_element, dtype=np.float64)
    ops = np.maximum(ops, 0.0)
    if ops.ndim == 0:
        return np.float64(1.0 - (1.0 - float(fault_rate)) ** float(ops))
    return 1.0 - np.power(1.0 - float(fault_rate), ops)


def corrupt_inplace(
    native: np.ndarray,
    fault_rate: float,
    ops_per_element: Union[int, np.ndarray],
    bit_distribution: BitPositionDistribution,
    rng: np.random.Generator,
) -> int:
    """Corrupt the C-contiguous array ``native`` in place; return the fault count.

    The working half of :func:`corrupt_array` (same parameters), for callers
    that already hold a fresh C-ordered copy —
    :meth:`repro.faults.injector.FaultInjector.corrupt_array` casts to the
    datapath dtype straight into one.
    """
    # NOTE: this is the per-trial draw protocol, the bit-identity contract of
    # the whole fault layer: one uniform per element in C order for the
    # fault mask, then exactly n_faults bit positions from
    # bit_distribution.sample, assigned to the faulted elements in C order
    # and XORed in by bitflip.flip_bits_at, and no draws at all when the rate
    # is zero or the array is empty.  The fused pass of
    # repro.processor.batch.ProcessorBatch.corrupt (which shares that XOR)
    # and the compiled backend kernels reproduce it draw for draw, as
    # tests/test_tensor_backend.py, tests/test_backends.py and the frozen
    # oracle in tests/test_fault_oracle.py pin.
    if native.size == 0 or fault_rate <= 0.0:
        return 0
    probability = effective_fault_probability(fault_rate, ops_per_element)
    if probability.ndim != 0:
        probability = np.broadcast_to(probability, native.shape)
    mask = rng.random(native.shape) < probability
    fault_indices = mask.reshape(-1).nonzero()[0]
    n_faults = fault_indices.size
    if n_faults:
        flip_bits_at(native, fault_indices, bit_distribution.sample(rng, size=n_faults))
    return n_faults


def corrupt_array(
    values: np.ndarray,
    fault_rate: float,
    ops_per_element: Union[int, np.ndarray],
    bit_distribution: BitPositionDistribution,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, int]:
    """Corrupt selected elements of ``values`` with single-bit flips.

    Parameters
    ----------
    values:
        Floating-point array (float32 or float64); not modified.
    fault_rate:
        Per-operation fault probability.
    ops_per_element:
        Scalar or array broadcastable to ``values.shape``: how many FLOPs
        produced each element.
    bit_distribution:
        Which bit to flip in a faulty element.
    rng:
        Numpy random generator supplying both the fault mask and the bit
        positions.

    Returns
    -------
    (corrupted, n_faults):
        A new C-ordered array with faults applied, and the number of elements
        that were corrupted.
    """
    corrupted = np.array(values, order="C")
    n_faults = corrupt_inplace(
        corrupted, fault_rate, ops_per_element, bit_distribution, rng
    )
    return corrupted, n_faults
