"""Common result and bookkeeping types for the stochastic solvers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.exceptions import ProblemSpecificationError

__all__ = [
    "IterationRecord",
    "OptimizationResult",
    "stack_initial_iterates",
    "finite_or_zero",
]


def finite_or_zero(values: np.ndarray) -> np.ndarray:
    """The solvers' reliable control-phase guard: NaN and inf components become 0.

    A flipped exponent bit can turn a noisy gradient or residual component
    into NaN or inf, and no descent step survives applying one.  The guard
    is elementwise, so one call covers a serial iterate and a batched
    ``(n_trials, dimension)`` stack alike, row for row.
    """
    values = np.asarray(values, dtype=np.float64)
    return np.where(np.isfinite(values), values, 0.0)


def stack_initial_iterates(
    x0: Optional[np.ndarray],
    n_trials: int,
    dimension: int,
    default_row: Callable[[], np.ndarray],
) -> np.ndarray:
    """Per-trial starting iterates as an ``(n_trials, dimension)`` stack.

    The shared x0 convention of the batched solver drivers: ``x0`` may be
    ``None`` (``default_row()`` for every trial — the problem's initial point
    for SGD, zeros for CG), a single ``(dimension,)`` iterate shared by every
    trial, or an ``(n_trials, dimension)`` stack of per-trial iterates.  Each
    row equals what the corresponding serial solver would start trial ``t``
    from.
    """
    if x0 is None:
        return np.tile(default_row(), (n_trials, 1))
    x0_arr = np.asarray(x0, dtype=np.float64)
    if x0_arr.shape == (dimension,):
        return np.tile(x0_arr, (n_trials, 1))
    if x0_arr.shape == (n_trials, dimension):
        return x0_arr.copy()
    raise ProblemSpecificationError(
        f"initial iterate has shape {x0_arr.shape}, expected "
        f"({dimension},) or ({n_trials}, {dimension})"
    )


@dataclass(frozen=True)
class IterationRecord:
    """Snapshot of one solver iteration, recorded by the optional trace.

    Attributes
    ----------
    iteration:
        1-based iteration index.
    objective:
        Objective value measured reliably at this iterate (``nan`` when the
        solver was configured not to evaluate it).
    step_size:
        Step size used for the update that produced this iterate.
    penalty:
        Penalty parameter in effect (``nan`` for unconstrained problems).
    """

    iteration: int
    objective: float
    step_size: float
    penalty: float = float("nan")


@dataclass
class OptimizationResult:
    """The outcome of a stochastic optimization run.

    Attributes
    ----------
    x:
        Final iterate (after any preconditioning has been undone).
    objective:
        Final objective value, evaluated reliably.
    iterations:
        Number of iterations executed.
    converged:
        Whether the solver's stopping criterion was met before the iteration
        budget ran out.  Solvers run for a fixed budget (as in the paper's
        experiments) report ``True`` when they complete the budget.
    flops:
        Floating-point operations charged to the stochastic processor during
        the run (used by the energy model and the overhead analysis).
    faults_injected:
        Number of corrupted results the processor produced during the run.
    history:
        Optional per-iteration trace (empty unless tracing was requested).
    message:
        Human-readable description of how the run terminated.
    """

    x: np.ndarray
    objective: float
    iterations: int
    converged: bool
    flops: int = 0
    faults_injected: int = 0
    history: List[IterationRecord] = field(default_factory=list)
    message: str = ""

    def objective_trace(self) -> np.ndarray:
        """Objective values across the recorded history (may be empty)."""
        return np.asarray([record.objective for record in self.history])

    def best_recorded_objective(self) -> Optional[float]:
        """Smallest objective value seen in the history, or ``None`` if untraced."""
        trace = self.objective_trace()
        finite = trace[np.isfinite(trace)]
        if finite.size == 0:
            return None
        return float(finite.min())
