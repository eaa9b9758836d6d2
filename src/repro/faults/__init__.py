"""Fault-injection substrate.

This subpackage replaces the paper's FPGA-hosted fault injector: a module that
flips one randomly chosen bit of a floating-point unit result at random times,
with a uniformly distributed number of operations between faults and the
bimodal bit-position distribution of Figure 5.1 (most faults in the high-order
bits, the rest in the low-order bits).  Every fault draw comes from the
trial's own numpy :class:`~numpy.random.Generator`: the intervals as
generator integers, the bits by one inverse-CDF lookup over the
distribution's weights.

Layers, from lowest to highest:

* :mod:`repro.faults.bitflip` — raw IEEE-754 bit manipulation.
* :mod:`repro.faults.distribution` — bit-position distributions (the
  "measured" and "emulated" histograms of Figure 5.1).
* :mod:`repro.faults.injector` — :class:`FaultInjector`, which decides *when*
  a fault strikes and corrupts values accordingly.
* :mod:`repro.faults.fpu` — :class:`StochasticFPU`, scalar floating-point
  operations routed through the injector (the per-operation, high-fidelity
  simulation mode).
* :mod:`repro.faults.vectorized` — fast numpy-vectorized corruption used by
  the large sweeps in the benchmark harness.
* :mod:`repro.faults.models` — named fault-model presets.
"""

from repro.faults.bitflip import (
    bit_width,
    flip_bit_array,
    flip_bit_scalar,
    float_to_bits,
    bits_to_float,
    relative_error_magnitude,
)
from repro.faults.distribution import (
    BitPositionDistribution,
    EmulatedBitDistribution,
    MeasuredBitDistribution,
    UniformBitDistribution,
    LowOrderBitDistribution,
    total_variation_distance,
)
from repro.faults.injector import FaultInjector
from repro.faults.fpu import StochasticFPU
from repro.faults.models import FaultModel, get_fault_model, list_fault_models
from repro.faults.vectorized import corrupt_array, effective_fault_probability

__all__ = [
    "bit_width",
    "flip_bit_array",
    "flip_bit_scalar",
    "float_to_bits",
    "bits_to_float",
    "relative_error_magnitude",
    "BitPositionDistribution",
    "EmulatedBitDistribution",
    "MeasuredBitDistribution",
    "UniformBitDistribution",
    "LowOrderBitDistribution",
    "total_variation_distance",
    "FaultInjector",
    "StochasticFPU",
    "FaultModel",
    "get_fault_model",
    "list_fault_models",
    "corrupt_array",
    "effective_fault_probability",
]
