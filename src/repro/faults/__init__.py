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
