"""Sorting (§4.3) — a fragile application made error tolerant.

Among all permutations of an array ``u``, the one that sorts it ascending
maximizes ``vᵀXu`` with ``v = [1 … n]ᵀ``.  Relaxing permutation matrices to
doubly (sub)stochastic matrices gives the linear program of eq. (4.3):

    max_X  vᵀXu   s.t.  X_ij ≥ 0,  Σ_i X_ij ≤ 1,  Σ_j X_ij ≤ 1,

which is converted to the exact quadratic penalty form (eq. 4.4) and solved
with stochastic gradient descent on the noisy FPU.  A reliable control-phase
rounding step maps the relaxed solution back to a permutation, and the
success criterion matches the paper: the output must be the exactly sorted
array (NaNs or any inversion count as failure).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.applications.assignment import linear_sum_assignment
from repro.core.transform import (
    RobustSolveConfig,
    solve_penalized_lp,
    solve_penalized_lp_batch,
)
from repro.exceptions import ProblemSpecificationError
from repro.metrics.quality import is_valid_sorted_output
from repro.optimizers.annealing import PenaltyAnnealing
from repro.optimizers.base import OptimizationResult
from repro.optimizers.penalty import PenaltyKind
from repro.optimizers.problem import LinearConstraints, LinearProgram
from repro.optimizers.step_schedules import AggressiveStepping
from repro.processor.batch import ProcessorBatch
from repro.processor.stochastic import StochasticProcessor

__all__ = [
    "SortResult",
    "sorting_linear_program",
    "round_to_permutation",
    "robust_sort",
    "robust_sort_batch",
    "baseline_sort",
    "default_sorting_config",
]


@dataclass
class SortResult:
    """Outcome of a sorting run (robust or baseline).

    ``success`` is the paper's Figure 6.1 criterion: the output is exactly
    the ascending sort of the input.
    """

    output: np.ndarray
    success: bool
    permutation: Optional[np.ndarray]
    flops: int
    faults_injected: int
    method: str
    optimizer_result: Optional[OptimizationResult] = None


def sorting_linear_program(values: np.ndarray) -> LinearProgram:
    """Build the eq. (4.3) linear program for sorting ``values`` ascending.

    Decision variables are the entries of the n×n matrix ``X`` flattened
    row-major; the objective vector is ``c_(ij) = -v_i u_j`` (minimization
    form) and the constraints are non-negativity plus row/column sums ≤ 1.
    """
    u = np.asarray(values, dtype=np.float64).ravel()
    n = u.size
    if n < 2:
        raise ProblemSpecificationError("sorting requires at least two elements")
    v = np.arange(1, n + 1, dtype=np.float64)
    cost = -np.outer(v, u).ravel()

    n_vars = n * n
    # Non-negativity: -X_ij <= 0.
    nonneg = -np.eye(n_vars)
    # Row sums: Σ_j X_ij <= 1.
    row_sums = np.zeros((n, n_vars))
    for i in range(n):
        row_sums[i, i * n : (i + 1) * n] = 1.0
    # Column sums: Σ_i X_ij <= 1.
    col_sums = np.zeros((n, n_vars))
    for j in range(n):
        col_sums[j, j::n] = 1.0
    A_ub = np.vstack([nonneg, row_sums, col_sums])
    b_ub = np.concatenate([np.zeros(n_vars), np.ones(n), np.ones(n)])
    constraints = LinearConstraints(A_ub=A_ub, b_ub=b_ub)
    # Start from the center of the doubly stochastic polytope.
    initial = np.full(n_vars, 1.0 / n)
    return LinearProgram(c=cost, constraints=constraints, name="sorting", initial_point=initial)


def round_to_permutation(X: np.ndarray) -> np.ndarray:
    """Round a relaxed doubly (sub)stochastic matrix to a permutation matrix.

    Solves the assignment problem that maximizes ``⟨X, P⟩`` over permutation
    matrices ``P`` (reliable control-phase work).  Non-finite entries are
    treated as strongly undesirable.
    """
    X_arr = np.asarray(X, dtype=np.float64)
    if X_arr.ndim != 2 or X_arr.shape[0] != X_arr.shape[1]:
        raise ProblemSpecificationError(
            f"rounding requires a square matrix, got {X_arr.shape}"
        )
    sanitized = np.where(np.isfinite(X_arr), X_arr, -1.0e12)
    rows, cols = linear_sum_assignment(-sanitized)
    permutation = np.zeros_like(X_arr)
    permutation[rows, cols] = 1.0
    return permutation


def default_sorting_config(
    iterations: int = 10000,
    variant: str = "SGD+AS,SQS",
    values: Optional[np.ndarray] = None,
) -> RobustSolveConfig:
    """The solver configuration used for the Figure 6.1 sorting sweeps.

    Uses the L1 exact penalty with μ set above the assignment LP's dual
    prices (1.5 × the largest objective coefficient), a long aggressive
    stepping polish phase for the "+AS" variants, and staged annealing for
    the annealing variants.
    """
    if values is not None:
        u = np.asarray(values, dtype=np.float64).ravel()
        v = np.arange(1, u.size + 1)
        max_cost = float(np.max(np.abs(np.outer(v, u))))
    else:
        max_cost = 50.0
    penalty = 1.5 * max_cost
    return RobustSolveConfig(
        variant=variant,
        iterations=iterations,
        base_step=0.02,
        penalty=penalty,
        penalty_kind=PenaltyKind.L1,
        aggressive=AggressiveStepping(
            max_iterations=1000, fail_factor=0.8, success_factor=1.5
        ),
        annealing=PenaltyAnnealing(
            initial_penalty=penalty / 8.0,
            growth_factor=2.0,
            period=max(iterations // 8, 1),
            max_penalty=penalty,
        ),
        gradient_clip=1.0e3,
    )


def _setup(
    values: np.ndarray, config: Optional[RobustSolveConfig]
) -> Tuple[np.ndarray, LinearProgram, RobustSolveConfig]:
    """The input, its sorting LP and the solver configuration of both twins."""
    u = np.asarray(values, dtype=np.float64).ravel()
    lp = sorting_linear_program(u)
    return u, lp, config if config is not None else default_sorting_config(values=u)


def _scored(
    u: np.ndarray, solution: np.ndarray, result: OptimizationResult, variant: str
) -> SortResult:
    """Round one relaxed solution to a permutation and score its output."""
    n = u.size
    permutation = round_to_permutation(solution.reshape(n, n))
    output = permutation @ u
    return SortResult(
        output=output,
        success=is_valid_sorted_output(output, u),
        permutation=permutation,
        flops=result.flops,
        faults_injected=result.faults_injected,
        method=f"robust[{variant}]",
        optimizer_result=result,
    )


def robust_sort(
    values: np.ndarray,
    proc: StochasticProcessor,
    config: Optional[RobustSolveConfig] = None,
) -> SortResult:
    """Sort ``values`` ascending via the penalized LP on the noisy processor."""
    u, lp, config = _setup(values, config)
    solution, result = solve_penalized_lp(lp, proc, config=config)
    return _scored(u, solution, result, config.variant)


def robust_sort_batch(
    values: np.ndarray,
    procs: Union[ProcessorBatch, Sequence[StochasticProcessor]],
    config: Optional[RobustSolveConfig] = None,
) -> List[SortResult]:
    """Run one robust sort per processor as a single tensorized solve.

    The batch entry point of the tensorized trial backend: the sorting LP and
    solver configuration are built once (they depend only on ``values``), the
    stochastic solve runs through
    :func:`~repro.core.transform.solve_penalized_lp_batch` as one batched
    numpy loop over every trial's iterate, and only the cheap reliable
    control-phase steps (assignment rounding, success check) run per trial.
    Trial ``t``'s :class:`SortResult` — output, success flag, FLOP and fault
    accounting — is bit-identical to ``robust_sort(values, procs[t], config)``.
    """
    u, lp, config = _setup(values, config)
    solutions, results = solve_penalized_lp_batch(lp, procs, config=config)
    return [
        _scored(u, solution, result, config.variant)
        for solution, result in zip(solutions, results)
    ]


def baseline_sort(
    values: np.ndarray,
    proc: StochasticProcessor,
    algorithm: str = "quicksort",
) -> SortResult:
    """Sort with a conventional comparison sort whose comparisons run on the noisy FPU.

    ``algorithm`` is ``"quicksort"``, ``"mergesort"`` or ``"insertion"``
    (see :mod:`repro.applications.baselines.sorting_baselines`).
    """
    from repro.applications.baselines.sorting_baselines import noisy_comparison_sort

    u = np.asarray(values, dtype=np.float64).ravel()
    flops_before, faults_before = proc.flops, proc.faults_injected
    output = noisy_comparison_sort(u, proc, algorithm=algorithm)
    return SortResult(
        output=output,
        success=is_valid_sorted_output(output, u),
        permutation=None,
        flops=proc.flops - flops_before,
        faults_injected=proc.faults_injected - faults_before,
        method=f"baseline-{algorithm}",
    )
