"""Stochastic (sub)gradient descent with the paper's enhancements.

This is the primary optimization engine of application robustification
(eq. 3.1): the iterate is updated with a noisy gradient evaluated on the
stochastic processor, while the update itself — step-size computation,
momentum smoothing, penalty annealing, aggressive-stepping accept/reject
tests — runs reliably, matching the paper's assumption that "the remaining
operations ... are assumed to be carried out reliably as they are critical
for convergence".

Reliable-update safeguards
--------------------------
Under the default (mantissa + sign) fault model gradient corruption is
relative-bounded and plain SGD absorbs it.  For ablation fault models that
also corrupt exponent bits, a single flip can turn a gradient component into
``±1e38`` or NaN; no descent method survives applying such a component
verbatim.  The reliable update step therefore (a) zeroes non-finite gradient
components (:func:`~repro.optimizers.base.finite_or_zero`, the guard the CG
solver shares) and (b) optionally clips components to a problem-supplied
magnitude (``gradient_clip``).  These are cheap elementwise checks that
belong to the protected control phase; they are this library's concrete
realization of the paper's "control phases of execution are assumed to be
error-free" assumption, and tests cover each behaviour.

The batched stepper's noisy work all flows through
:meth:`~repro.processor.batch.ProcessorBatch.corrupt`, so it picks up
whichever compute backend (:mod:`repro.backends`) the batch resolved at
construction — no backend-specific code lives here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from repro.exceptions import ProblemSpecificationError
from repro.optimizers.annealing import PenaltyAnnealing
from repro.optimizers.base import (
    IterationRecord,
    OptimizationResult,
    stack_initial_iterates,
    finite_or_zero,
)
from repro.optimizers.momentum import MomentumSmoother
from repro.optimizers.step_schedules import (
    AggressiveStepping,
    StepSchedule,
    make_schedule,
)
from repro.processor.batch import ProcessorBatch
from repro.processor.stochastic import StochasticProcessor

__all__ = [
    "SGDOptions",
    "stochastic_gradient_descent",
    "stochastic_gradient_descent_batch",
]


@dataclass
class SGDOptions:
    """Configuration of a stochastic gradient descent run.

    Attributes
    ----------
    iterations:
        Number of scheduled iterations (the paper uses 1,000 for least
        squares / IIR and 10,000 for sorting / matching).
    schedule:
        Step-size schedule: a :class:`StepSchedule` or one of the names
        ``"ls"`` (1/t), ``"sqs"`` (1/√t), ``"const"``.
    base_step:
        η₀ used when ``schedule`` is given by name.
    momentum:
        Momentum coefficient β in (0, 1]; ``None`` disables momentum.
    aggressive:
        Optional aggressive-stepping phase appended after the scheduled
        iterations (the paper's "SGD+AS").
    annealing:
        Optional penalty-annealing schedule; only meaningful when the problem
        exposes a mutable ``penalty`` attribute (i.e. is an
        :class:`~repro.optimizers.penalty.ExactPenaltyProblem`).
    gradient_clip:
        Clip noisy gradient components to ``[-gradient_clip, +gradient_clip]``
        during the reliable update, after NaN/inf components are zeroed.
        ``None`` disables clipping.
    record_history:
        Record an :class:`~repro.optimizers.base.IterationRecord` every
        ``record_every`` iterations (objective evaluated reliably — this is
        instrumentation, not part of the simulated execution).
    record_every:
        Sampling period of the history trace.
    """

    iterations: int = 1000
    schedule: Union[StepSchedule, str] = "ls"
    base_step: float = 1.0
    momentum: Optional[float] = None
    aggressive: Optional[AggressiveStepping] = None
    annealing: Optional[PenaltyAnnealing] = None
    gradient_clip: Optional[float] = None
    record_history: bool = False
    record_every: int = 100

    def resolved_schedule(self) -> StepSchedule:
        """The step schedule as an object (building it from a name if needed)."""
        if isinstance(self.schedule, StepSchedule):
            return self.schedule
        return make_schedule(self.schedule, base_step=self.base_step)

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ProblemSpecificationError("iterations must be at least 1")
        if self.record_every < 1:
            raise ProblemSpecificationError("record_every must be at least 1")
        if self.gradient_clip is not None and self.gradient_clip <= 0:
            raise ProblemSpecificationError("gradient_clip must be positive")


def _sanitize_gradient(gradient: np.ndarray, options: SGDOptions) -> np.ndarray:
    """Reliable-control-phase guards on a noisy gradient or a stack of them."""
    cleaned = finite_or_zero(gradient)
    if options.gradient_clip is not None:
        cleaned = np.clip(cleaned, -options.gradient_clip, options.gradient_clip)
    return cleaned


def stochastic_gradient_descent(
    problem,
    proc: StochasticProcessor,
    options: Optional[SGDOptions] = None,
    x0: Optional[np.ndarray] = None,
) -> OptimizationResult:
    """Minimize ``problem`` with noisy gradients from the stochastic processor.

    Parameters
    ----------
    problem:
        Any object exposing ``dimension``, ``initial_point()``,
        ``value(x, proc=None)`` and ``gradient(x, proc=None)`` — i.e. an
        :class:`~repro.optimizers.problem.UnconstrainedProblem` or an
        :class:`~repro.optimizers.penalty.ExactPenaltyProblem`.
    proc:
        The stochastic processor whose noisy FPU evaluates the gradients.
    options:
        Solver configuration (:class:`SGDOptions`).
    x0:
        Starting iterate; defaults to ``problem.initial_point()``.

    Returns
    -------
    OptimizationResult
        Final iterate, reliably evaluated objective, and accounting data.
    """
    options = options if options is not None else SGDOptions()
    schedule = options.resolved_schedule()
    smoother = MomentumSmoother(options.momentum) if options.momentum else None

    x = problem.initial_point() if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    if x.shape != (problem.dimension,):
        raise ProblemSpecificationError(
            f"initial iterate has shape {x.shape}, expected ({problem.dimension},)"
        )

    flops_before = proc.flops
    faults_before = proc.faults_injected
    history: list[IterationRecord] = []
    step = schedule(1)

    annealing_active = options.annealing is not None and hasattr(problem, "penalty")
    for iteration in range(1, options.iterations + 1):
        if annealing_active:
            problem.penalty = options.annealing.penalty_at(iteration)
        gradient = problem.gradient(x, proc)
        gradient = _sanitize_gradient(gradient, options)
        direction = smoother.update(gradient) if smoother is not None else gradient
        if annealing_active:
            # Each annealing stage is solved as its own (warm-started)
            # sub-problem: the schedule restarts at every penalty increase and
            # the step is scaled by 1/μ because the penalty Hessian grows
            # linearly with μ.  The distance between successive stage optima
            # shrinks at the same 1/μ rate, so the solver keeps tracking the
            # vertex as the penalty tightens (§6.2.4).
            stage_iteration = (iteration - 1) % options.annealing.period + 1
            step = schedule(stage_iteration) * (
                options.annealing.initial_penalty / problem.penalty
            )
        else:
            step = schedule(iteration)
        x = x - step * direction
        if options.record_history and (
            iteration % options.record_every == 0 or iteration == options.iterations
        ):
            history.append(
                IterationRecord(
                    iteration=iteration,
                    objective=float(problem.value(x)),
                    step_size=step,
                    penalty=float(getattr(problem, "penalty", float("nan"))),
                )
            )

    total_iterations = options.iterations
    message = "completed scheduled iterations"

    if options.aggressive is not None:
        x, extra_iterations, message = _aggressive_phase(
            problem, proc, x, step, options, smoother
        )
        total_iterations += extra_iterations

    result = OptimizationResult(
        x=x,
        objective=float(problem.value(x)),
        iterations=total_iterations,
        converged=True,
        flops=proc.flops - flops_before,
        faults_injected=proc.faults_injected - faults_before,
        history=history,
        message=message,
    )
    return result


def stochastic_gradient_descent_batch(
    problem,
    batch: ProcessorBatch,
    options: Optional[SGDOptions] = None,
    x0: Optional[np.ndarray] = None,
) -> List[OptimizationResult]:
    """Run one SGD solve per processor of ``batch`` as a single tensor loop.

    This is the tensorized twin of :func:`stochastic_gradient_descent`: the
    scheduled iterations update a stacked ``(n_trials, dimension)`` iterate
    with one batched gradient evaluation per iteration
    (``problem.gradient_batch``), so an entire executor trial batch costs a
    handful of numpy passes per iteration instead of per trial.  Trial ``t``'s
    result is bit-identical to ``stochastic_gradient_descent(problem,
    batch.procs[t], options, x0)`` because row arithmetic is elementwise, the
    step schedule depends only on the iteration number, and every corruption
    draw comes from trial ``t``'s own generator in serial order.

    Two configurations cannot run as one tensor and fall back per trial
    without losing bit-identity: ``record_history`` (instrumentation
    per trial) falls back entirely, and the aggressive-stepping phase — whose
    accept/reject control flow is data-dependent — runs per trial *after* the
    batched scheduled phase, resuming from each trial's row (the generators
    are already in the right state because the batched phase drew exactly the
    serial stream).

    Parameters
    ----------
    problem:
        A problem exposing ``gradient_batch(X, batch)`` next to the serial
        interface; one built without a batched gradient raises
        :class:`~repro.exceptions.ProblemSpecificationError` at the first
        iteration.
    batch:
        The per-trial processors, wrapped in a
        :class:`~repro.processor.batch.ProcessorBatch`.
    options / x0:
        As for :func:`stochastic_gradient_descent`.  ``x0`` may be ``None``
        (the problem's initial point), one ``(dimension,)`` iterate shared by
        every trial, or a stacked ``(n_trials, dimension)`` array giving each
        trial its own starting iterate (e.g. a per-trial noisy
        initialization).

    Returns
    -------
    list[OptimizationResult]
        One result per processor, in batch order.
    """
    options = options if options is not None else SGDOptions()
    n_trials = len(batch)
    starts = stack_initial_iterates(x0, n_trials, problem.dimension, problem.initial_point)
    if options.record_history:
        return [
            stochastic_gradient_descent(problem, proc, options=options, x0=starts[trial])
            for trial, proc in enumerate(batch.procs)
        ]
    schedule = options.resolved_schedule()
    smoother = MomentumSmoother(options.momentum) if options.momentum else None

    X = starts.copy()

    batch.flush()  # counters must be current before the baseline read
    flops_before = [proc.flops for proc in batch.procs]
    faults_before = [proc.faults_injected for proc in batch.procs]
    step = schedule(1)

    annealing_active = options.annealing is not None and hasattr(problem, "penalty")
    for iteration in range(1, options.iterations + 1):
        if annealing_active:
            problem.penalty = options.annealing.penalty_at(iteration)
        gradients = problem.gradient_batch(X, batch)
        gradients = _sanitize_gradient(gradients, options)
        directions = smoother.update(gradients) if smoother is not None else gradients
        if annealing_active:
            # Same stage-restarted, 1/μ-scaled stepping as the serial loop.
            stage_iteration = (iteration - 1) % options.annealing.period + 1
            step = schedule(stage_iteration) * (
                options.annealing.initial_penalty / problem.penalty
            )
        else:
            step = schedule(iteration)
        X = X - step * directions
    batch.flush()  # deferred batched accounting -> per-processor counters

    iterates = [X[trial] for trial in range(n_trials)]
    iteration_counts = [options.iterations] * n_trials
    messages = ["completed scheduled iterations"] * n_trials

    if options.aggressive is not None:
        # With momentum, the smoother has accumulated a (n_trials, dim)
        # direction over the scheduled phase (iterations >= 1); each trial's
        # aggressive phase continues from its row, as the serial solver does.
        directions = smoother.direction if smoother is not None else None
        finals, extras, end_messages = _aggressive_phase_batch(
            problem, batch, X, step, options, directions
        )
        for trial in range(n_trials):
            iterates[trial] = finals[trial]
            iteration_counts[trial] += extras[trial]
            messages[trial] = end_messages[trial]

    return [
        OptimizationResult(
            x=iterates[trial],
            objective=float(problem.value(iterates[trial])),
            iterations=iteration_counts[trial],
            converged=True,
            flops=batch.procs[trial].flops - flops_before[trial],
            faults_injected=batch.procs[trial].faults_injected - faults_before[trial],
            history=[],
            message=messages[trial],
        )
        for trial in range(n_trials)
    ]


def _aggressive_phase_batch(
    problem,
    batch: ProcessorBatch,
    X: np.ndarray,
    initial_step: float,
    options: SGDOptions,
    directions: Optional[np.ndarray],
):
    """Tensorized :func:`_aggressive_phase`: masked batch over active trials.

    The accept/reject control flow is per-trial (each trial accepts, rejects,
    and terminates on its own data), but the expensive part — the noisy
    gradient — is evaluated for all still-active trials as one batched call
    per round.  A trial's generator is consumed exactly as many times, in
    exactly the order, as its serial aggressive phase would consume it, so
    results stay bit-identical; the reliably evaluated costs use the same
    per-trial ``problem.value`` calls as the serial code.

    ``directions`` carries the momentum state accumulated over the scheduled
    phase (``None`` when momentum is off).  Returns per-trial final iterates,
    iteration counts, and termination messages.
    """
    aggressive = options.aggressive
    n_trials = len(batch)
    tiny = np.finfo(float).tiny
    steps = np.full(n_trials, max(initial_step, tiny))
    iterates = [X[trial].copy() for trial in range(n_trials)]
    current_costs = [float(problem.value(x)) for x in iterates]
    iterations_used = [0] * n_trials
    messages = ["aggressive stepping reached its iteration cap"] * n_trials
    active = np.ones(n_trials, dtype=bool)
    momentum = options.momentum if directions is not None else None
    directions = directions.copy() if directions is not None else None

    # Once only a handful of trials remain active, batching degenerates (the
    # fused passes cost more than they amortize) — the stragglers finish on
    # the serial phase below, which is bit-identical by construction.
    straggler_cutoff = 4

    for _ in range(aggressive.max_iterations):
        index = np.flatnonzero(active)
        if index.size == 0 or index.size <= straggler_cutoff:
            break
        key = tuple(int(t) for t in index)
        sub_batch = batch.narrow(index)
        X_active = np.stack([iterates[t] for t in key])
        gradients = _sanitize_gradient(
            problem.gradient_batch(X_active, sub_batch), options
        )
        if momentum is not None:
            directions[index] = (
                momentum * gradients + (1.0 - momentum) * directions[index]
            )
            move = directions[index]
        else:
            move = gradients
        candidates = X_active - steps[index, np.newaxis] * move
        for row, trial in enumerate(key):
            iterations_used[trial] += 1
            candidate_cost = float(problem.value(candidates[row]))
            if np.isfinite(candidate_cost) and candidate_cost < current_costs[trial]:
                if aggressive.should_stop(current_costs[trial], candidate_cost):
                    iterates[trial] = candidates[row]
                    current_costs[trial] = candidate_cost
                    messages[trial] = "aggressive stepping converged"
                    active[trial] = False
                    continue
                iterates[trial] = candidates[row]
                current_costs[trial] = candidate_cost
                steps[trial] = aggressive.update_step(steps[trial], cost_decreased=True)
            else:
                steps[trial] = aggressive.update_step(steps[trial], cost_decreased=False)
                if steps[trial] < tiny:
                    messages[trial] = "aggressive stepping step size underflowed"
                    active[trial] = False
    batch.flush()  # deferred accounting (sub-batches too) -> counters
    for trial in np.flatnonzero(active):
        remaining = aggressive.max_iterations - iterations_used[trial]
        if remaining <= 0:
            continue
        trial_smoother = None
        if momentum is not None:
            trial_smoother = MomentumSmoother(momentum)
            trial_smoother.load(directions[trial])
        x, extra, message = _aggressive_phase(
            problem,
            batch.procs[trial],
            iterates[trial],
            float(steps[trial]),
            options,
            trial_smoother,
            max_iterations=remaining,
        )
        iterates[trial] = x
        iterations_used[trial] += extra
        messages[trial] = message
    return iterates, iterations_used, messages


def _aggressive_phase(
    problem,
    proc: StochasticProcessor,
    x: np.ndarray,
    initial_step: float,
    options: SGDOptions,
    smoother: Optional[MomentumSmoother],
    max_iterations: Optional[int] = None,
):
    """The variable-step phase appended by "SGD+AS" (§3.2).

    Moves that decrease the (reliably evaluated) cost are accepted and the
    step grows; moves that increase it are rejected and the step shrinks.
    The phase ends when the relative change between consecutive accepted
    costs falls below the configured threshold or the iteration cap is hit.
    ``max_iterations`` overrides the configured cap — the batched driver uses
    it to hand a partially completed phase over with the remaining budget.
    """
    aggressive = options.aggressive
    step = max(initial_step, np.finfo(float).tiny)
    current_cost = float(problem.value(x))
    iterations_used = 0
    message = "aggressive stepping reached its iteration cap"
    cap = aggressive.max_iterations if max_iterations is None else max_iterations
    for _ in range(cap):
        iterations_used += 1
        gradient = _sanitize_gradient(problem.gradient(x, proc), options)
        direction = smoother.update(gradient) if smoother is not None else gradient
        candidate = x - step * direction
        candidate_cost = float(problem.value(candidate))
        if np.isfinite(candidate_cost) and candidate_cost < current_cost:
            if aggressive.should_stop(current_cost, candidate_cost):
                x, current_cost = candidate, candidate_cost
                message = "aggressive stepping converged"
                break
            x, current_cost = candidate, candidate_cost
            step = aggressive.update_step(step, cost_decreased=True)
        else:
            step = aggressive.update_step(step, cost_decreased=False)
            if step < np.finfo(float).tiny:
                message = "aggressive stepping step size underflowed"
                break
    return x, iterations_used, message
