"""Mechanical conversion to penalty form and the shared LP solve pipeline.

Chapter 4 converts each application into a linearly constrained variational
form; Chapter 3 then converts that into an unconstrained exact-penalty
problem and minimizes it with stochastic gradient descent enhanced (per
§6.2) with preconditioning, momentum, step-size scaling, annealing and
aggressive stepping.  :func:`solve_penalized_lp` implements that full
pipeline once, so every combinatorial application (sorting, matching,
max-flow, shortest paths) shares the same code path and the enhancement
ablation of Figure 6.5 can toggle each piece independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.optimizers.annealing import PenaltyAnnealing
from repro.optimizers.base import OptimizationResult
from repro.optimizers.penalty import ExactPenaltyProblem, PenaltyKind
from repro.optimizers.preconditioning import QRPreconditioner
from repro.optimizers.problem import ConstrainedProblem, LinearProgram
from repro.optimizers.sgd import (
    SGDOptions,
    stochastic_gradient_descent,
    stochastic_gradient_descent_batch,
)
from repro.optimizers.step_schedules import AggressiveStepping
from repro.core.variants import get_variant, sgd_options_for_variant
from repro.processor.batch import ProcessorBatch
from repro.processor.stochastic import StochasticProcessor

__all__ = [
    "RobustSolveConfig",
    "to_penalty_form",
    "solve_penalized_lp",
    "solve_penalized_lp_batch",
]


def to_penalty_form(
    problem: ConstrainedProblem,
    penalty: float = 10.0,
    kind: PenaltyKind = PenaltyKind.QUADRATIC,
) -> ExactPenaltyProblem:
    """Convert a constrained problem to its unconstrained exact-penalty form.

    This is the Theorem 2 step of the methodology; the returned object can be
    handed directly to :func:`~repro.optimizers.sgd.stochastic_gradient_descent`.
    """
    return ExactPenaltyProblem(problem, penalty=penalty, kind=kind)


@dataclass
class RobustSolveConfig:
    """Full configuration of a robust (penalized LP) solve.

    Combines the solver variant (which enhancements are active) with the
    workload-specific tuning knobs.  The defaults correspond to the "plain
    SGD" configuration used for the Figure 6.1–6.4 sweeps.

    Attributes
    ----------
    variant:
        Named solver variant (see :mod:`repro.core.variants`).
    iterations:
        Scheduled SGD iterations.
    base_step:
        η₀ of the step schedule.
    penalty:
        Initial exact-penalty parameter μ.
    penalty_kind:
        Quadratic (eq. 4.4) or L1 penalty.
    gradient_clip:
        Reliable-control-phase clip applied to noisy gradient components.
    annealing / aggressive:
        Concrete schedules used when the variant enables them.
    """

    variant: str = "SGD,LS"
    iterations: int = 1000
    base_step: float = 0.1
    penalty: float = 10.0
    penalty_kind: PenaltyKind = PenaltyKind.QUADRATIC
    gradient_clip: Optional[float] = 1.0e3
    annealing: PenaltyAnnealing = field(default_factory=PenaltyAnnealing)
    aggressive: AggressiveStepping = field(default_factory=AggressiveStepping)

    def sgd_options(self) -> SGDOptions:
        """The :class:`SGDOptions` implied by this configuration."""
        return sgd_options_for_variant(
            self.variant,
            iterations=self.iterations,
            base_step=self.base_step,
            gradient_clip=self.gradient_clip,
            annealing=self.annealing,
            aggressive=self.aggressive,
        )

    def uses_preconditioning(self) -> bool:
        """Whether the selected variant applies QR preconditioning."""
        return get_variant(self.variant).precondition


def _penalized(
    lp: LinearProgram, config: RobustSolveConfig
) -> Tuple[ExactPenaltyProblem, Optional[QRPreconditioner]]:
    """The penalty form SGD minimizes, and the variant's QR preconditioner.

    The preconditioner is ``None`` unless the variant preconditions, in which
    case the penalty form is over the preconditioned coordinates.
    """
    preconditioner: Optional[QRPreconditioner] = None
    working_lp = lp
    if config.uses_preconditioning():
        preconditioner = QRPreconditioner()
        working_lp = preconditioner.fit(lp)
    penalized = to_penalty_form(working_lp, penalty=config.penalty, kind=config.penalty_kind)
    return penalized, preconditioner


def _recover(
    lp: LinearProgram,
    config: RobustSolveConfig,
    penalized: ExactPenaltyProblem,
    preconditioner: Optional[QRPreconditioner],
    results: Sequence[OptimizationResult],
) -> None:
    """Map each result back to the LP's coordinates, in place.

    Preconditioned results get their iterate recovered and their objective
    re-evaluated reliably on the original problem's penalty form, at the
    penalty the (possibly annealed) solve ended with.
    """
    if preconditioner is None:
        return
    original = to_penalty_form(lp, penalty=penalized.penalty, kind=config.penalty_kind)
    for result in results:
        result.x = preconditioner.recover(result.x)
        result.objective = float(original.value(result.x))


def solve_penalized_lp(
    lp: LinearProgram,
    proc: StochasticProcessor,
    config: Optional[RobustSolveConfig] = None,
) -> Tuple[np.ndarray, OptimizationResult]:
    """Solve a linear program robustly on a stochastic processor.

    Pipeline: (optionally) QR-precondition the LP, convert it to the exact
    penalty form, run stochastic gradient descent with the variant's
    enhancements from the LP's initial point, and map the solution back to
    the original coordinates.

    Returns the solution in the original coordinates together with the
    :class:`~repro.optimizers.base.OptimizationResult` of the inner solve,
    whose ``flops`` and ``faults_injected`` are all the noisy work of the
    call (the transformation steps are reliable).
    """
    config = config if config is not None else RobustSolveConfig()
    penalized, preconditioner = _penalized(lp, config)
    result = stochastic_gradient_descent(penalized, proc, options=config.sgd_options())
    _recover(lp, config, penalized, preconditioner, [result])
    return result.x, result


def solve_penalized_lp_batch(
    lp: LinearProgram,
    procs: Union[ProcessorBatch, Sequence[StochasticProcessor]],
    config: Optional[RobustSolveConfig] = None,
) -> Tuple[np.ndarray, List[OptimizationResult]]:
    """Solve one penalized-LP trial per processor as a single tensor pipeline.

    The tensorized twin of :func:`solve_penalized_lp`: the (deterministic,
    reliable) transformation steps — QR preconditioning and the exact-penalty
    conversion — are shared by the whole batch, and the stochastic solve runs
    through :func:`~repro.optimizers.sgd.stochastic_gradient_descent_batch`,
    which updates every trial's iterate in one batched numpy loop.  Trial
    ``t``'s solution and accounting are bit-identical to
    ``solve_penalized_lp(lp, procs[t], config)``.

    Returns the stacked solutions (``(n_trials, dimension)``, original
    coordinates) and one :class:`~repro.optimizers.base.OptimizationResult`
    per trial.
    """
    config = config if config is not None else RobustSolveConfig()
    batch = procs if isinstance(procs, ProcessorBatch) else ProcessorBatch(procs)
    penalized, preconditioner = _penalized(lp, config)
    results = stochastic_gradient_descent_batch(
        penalized, batch, options=config.sgd_options()
    )
    _recover(lp, config, penalized, preconditioner, results)
    return np.stack([result.x for result in results]), results
