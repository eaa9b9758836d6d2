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
>>> from repro.applications import robust_sort
>>> proc = repro.StochasticProcessor(fault_rate=0.05, rng=0)
>>> result = robust_sort([3.0, 1.0, 2.0], proc)
>>> result.output
array([1., 2., 3.])

See ``README.md`` for a quickstart, ``docs/architecture.md`` for the layer
map, ``docs/figures.md`` for the per-figure reproduction index, and
``docs/tutorial.md`` for a guided walkthrough.
"""

from repro.exceptions import (
    RobustificationError,
    FaultModelError,
    VoltageModelError,
    ProblemSpecificationError,
)
from repro.faults import (
    FaultInjector,
    FaultModel,
    StochasticFPU,
    EmulatedBitDistribution,
    MeasuredBitDistribution,
    get_fault_model,
    list_fault_models,
)
from repro.processor import (
    StochasticProcessor,
    VoltageErrorModel,
    EnergyModel,
)
from repro.optimizers import (
    SGDOptions,
    CGOptions,
    stochastic_gradient_descent,
    conjugate_gradient_least_squares,
    ExactPenaltyProblem,
    PenaltyKind,
    LinearProgram,
    LinearConstraints,
    QuadraticProblem,
    UnconstrainedProblem,
    ConstrainedProblem,
    PenaltyAnnealing,
    AggressiveStepping,
    QRPreconditioner,
    OptimizationResult,
)
from repro.core import (
    RobustSolveConfig,
    solve_penalized_lp,
    to_penalty_form,
    get_variant,
    list_variants,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # Exceptions
    "RobustificationError",
    "FaultModelError",
    "VoltageModelError",
    "ProblemSpecificationError",
    # Fault substrate
    "FaultInjector",
    "FaultModel",
    "StochasticFPU",
    "EmulatedBitDistribution",
    "MeasuredBitDistribution",
    "get_fault_model",
    "list_fault_models",
    # Processor
    "StochasticProcessor",
    "VoltageErrorModel",
    "EnergyModel",
    # Optimizers
    "SGDOptions",
    "CGOptions",
    "stochastic_gradient_descent",
    "conjugate_gradient_least_squares",
    "ExactPenaltyProblem",
    "PenaltyKind",
    "LinearProgram",
    "LinearConstraints",
    "QuadraticProblem",
    "UnconstrainedProblem",
    "ConstrainedProblem",
    "PenaltyAnnealing",
    "AggressiveStepping",
    "QRPreconditioner",
    "OptimizationResult",
    # Core methodology
    "RobustSolveConfig",
    "solve_penalized_lp",
    "to_penalty_form",
    "get_variant",
    "list_variants",
]
