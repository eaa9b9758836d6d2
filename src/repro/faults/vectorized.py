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

from repro.faults.bitflip import flip_bit_array
from repro.faults.distribution import BitPositionDistribution

__all__ = [
    "effective_fault_probability",
    "corrupt_array",
]


def effective_fault_probability(
    fault_rate: float, ops_per_element: Union[int, np.ndarray]
) -> np.ndarray:
    """Probability that the result of a block of FLOPs is corrupted.

    With a per-operation fault probability ``p`` and ``k`` operations feeding
    a result, the result survives uncorrupted with probability
    ``(1 - p)**k``; the effective corruption probability is therefore
    ``1 - (1 - p)**k``.
    """
    ops = np.asarray(ops_per_element, dtype=np.float64)
    ops = np.maximum(ops, 0.0)
    if ops.ndim == 0:
        return np.float64(1.0 - (1.0 - float(fault_rate)) ** float(ops))
    return 1.0 - np.power(1.0 - float(fault_rate), ops)


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
        A new array with faults applied, and the number of elements that were
        corrupted.
    """
    # NOTE: the per-trial draw protocol below (uniform fault mask first, then
    # exactly n_faults bit positions, and no draws at all when the rate is
    # zero) is the bit-identity contract of the whole fault layer: the fused
    # pass of repro.processor.batch.ProcessorBatch.corrupt and the compiled
    # backend kernels reproduce it draw for draw, as
    # tests/test_tensor_backend.py and tests/test_backends.py pin.
    arr = np.asarray(values)
    if arr.size == 0 or fault_rate <= 0.0:
        return arr.copy(), 0
    probability = effective_fault_probability(fault_rate, ops_per_element)
    if probability.ndim != 0:
        probability = np.broadcast_to(probability, arr.shape)
    fault_mask = rng.random(arr.shape) < probability
    n_faults = int(np.count_nonzero(fault_mask))
    if n_faults == 0:
        return arr.copy(), 0
    bit_positions = np.zeros(arr.shape, dtype=np.int64)
    bit_positions[fault_mask] = bit_distribution.sample(rng, size=n_faults)
    corrupted = flip_bit_array(arr, bit_positions, mask=fault_mask)
    return corrupted, n_faults
