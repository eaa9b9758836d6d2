"""Stochastic-processor substrate.

This subpackage models the voltage-overscaled processor of the paper:

* :mod:`repro.processor.voltage` — the FPU voltage vs. error-rate curve
  (Figure 5.2), obtained in the paper from circuit-level simulation and here
  from a log-linear interpolation through anchor points with the same shape;
  ``VOLTAGE_MODEL`` is the one curve every processor and scenario reads.
* :mod:`repro.processor.energy` — the energy model used in Figure 6.7:
  energy = power(voltage) × number of FLOPs.
* :mod:`repro.processor.stochastic` — :class:`StochasticProcessor`, which
  combines a fault injector, a scalar FPU, FLOP accounting, and the voltage
  and energy models into a single object the applications and experiments
  use.  ``StochasticProcessor(fault_rate=... | voltage=..., fault_model=...,
  rng=...)`` is the one way to build one; a named operating point is a
  :class:`~repro.experiments.scenarios.Scenario`.
"""
