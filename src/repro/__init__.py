"""repro — Application robustification via stochastic optimization.

A from-scratch reproduction of "A Numerical Optimization-Based Methodology
for Application Robustification: Transforming Applications for Error
Tolerance" (Sloan & Kumar, DSN 2010).  The library simulates a
voltage-overscaled stochastic processor whose FPU results suffer single-bit
timing faults, converts applications (least squares, IIR filtering, sorting,
bipartite matching, max-flow, all-pairs shortest paths, eigenproblems, SVM
training) into penalized variational forms, and solves them with stochastic
gradient descent / conjugate gradient engines that tolerate the faults.

Quickstart
----------
>>> import repro
>>> from repro.applications.sorting import robust_sort
>>> proc = repro.StochasticProcessor(fault_rate=0.05, rng=0)
>>> result = robust_sort([3.0, 1.0, 2.0], proc)
>>> result.output
array([1., 2., 3.])

See ``README.md`` for a quickstart, ``docs/architecture.md`` for the layer
map, ``docs/figures.md`` for the per-figure reproduction index, and
``docs/tutorial.md`` for a guided walkthrough.
"""

from repro.processor.stochastic import StochasticProcessor

__version__ = "1.0.0"

__all__ = ["__version__", "StochasticProcessor"]
