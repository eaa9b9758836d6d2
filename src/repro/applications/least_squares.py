"""Least squares (§4.1) — the paper's flagship numerical application.

Given ``A`` and ``b``, find ``x`` minimizing ``||Ax - b||``.  Conventional
implementations (SVD, QR, Cholesky) are "disastrously unstable under
numerical noise"; the robust form minimizes ``f(x) = ||Ax - b||²`` by
stochastic gradient descent (Figure 6.2) or by the restarted conjugate
gradient method (Figures 6.6 and 6.7), with the gradient
``∇f(x) = 2 Aᵀ(Ax - b)`` evaluated on the noisy FPU.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.verification import relative_difference
from repro.faults.vectorized import quiet
from repro.linalg.solve import least_squares_baseline
from repro.linalg.svd import svd_least_squares_batch
from repro.optimizers.base import OptimizationResult
from repro.optimizers.conjugate_gradient import (
    CGOptions,
    conjugate_gradient_least_squares,
    conjugate_gradient_least_squares_batch,
)
from repro.optimizers.problem import QuadraticProblem
from repro.optimizers.sgd import (
    SGDOptions,
    stochastic_gradient_descent,
    stochastic_gradient_descent_batch,
)
from repro.processor.batch import ProcessorBatch
from repro.processor.stochastic import StochasticProcessor

__all__ = [
    "LeastSquaresResult",
    "default_least_squares_step",
    "robust_least_squares_sgd",
    "robust_least_squares_sgd_batch",
    "robust_least_squares_cg",
    "robust_least_squares_cg_batch",
    "baseline_least_squares",
    "baseline_svd_least_squares_batch",
]


@dataclass
class LeastSquaresResult:
    """Outcome of a least-squares solve (robust or baseline).

    Attributes
    ----------
    x:
        Computed solution.
    relative_error:
        ``||x - x*|| / ||x*||`` against the exact solution computed offline
        with reliable arithmetic (the paper's Figure 6.2/6.6 metric).
    residual_gap:
        ``(||Ax - b||² - ||Ax* - b||²) / ||Ax* - b||²`` — how much worse the
        computed solution's objective is than the ideal one (the alternative
        reading of the paper's "relative difference ... ‖Ax − b‖²" metric).
    residual_norm:
        ``||Ax - b||`` of the computed solution, evaluated reliably.
    flops:
        FLOPs charged to the stochastic processor by this solve.
    faults_injected:
        Number of corrupted results produced during the solve.
    method:
        Which algorithm produced the solution.
    optimizer_result:
        The inner solver's result, when a stochastic solver was used.
    """

    x: np.ndarray
    relative_error: float
    residual_gap: float
    residual_norm: float
    flops: int
    faults_injected: int
    method: str
    optimizer_result: Optional[OptimizationResult] = None


def default_least_squares_step(A: np.ndarray) -> float:
    """A stable base step size for gradient descent on ``||Ax - b||²``.

    Gradient descent on a quadratic with Hessian ``2AᵀA`` is stable for steps
    below ``1 / λ_max(AᵀA)``; we return half that bound.  The spectral norm is
    computed reliably — choosing the step size is part of the transformation /
    control phase, not of the noisy runtime.
    """
    A_arr = np.asarray(A, dtype=np.float64)
    spectral_norm = np.linalg.norm(A_arr, ord=2)
    if spectral_norm == 0:
        return 1.0
    return 0.5 / (spectral_norm**2)


@quiet
def _finish(
    A: np.ndarray,
    b: np.ndarray,
    x: np.ndarray,
    method: str,
    flops: int,
    faults: int,
    optimizer_result: Optional[OptimizationResult] = None,
) -> LeastSquaresResult:
    A_arr = np.asarray(A, dtype=np.float64)
    b_arr = np.asarray(b, dtype=np.float64).ravel()
    exact, *_ = np.linalg.lstsq(A_arr, b_arr, rcond=None)
    ideal_objective = float(np.sum((A_arr @ exact - b_arr) ** 2))
    x_arr = np.asarray(x, dtype=np.float64).ravel()
    if np.all(np.isfinite(x_arr)):
        residual_norm = float(np.linalg.norm(A_arr @ x_arr - b_arr))
        residual_gap = (residual_norm**2 - ideal_objective) / max(
            ideal_objective, np.finfo(float).tiny
        )
    else:
        residual_norm = float("inf")
        residual_gap = float("inf")
    return LeastSquaresResult(
        x=x_arr,
        relative_error=relative_difference(x_arr, exact),
        residual_gap=residual_gap,
        residual_norm=residual_norm,
        flops=flops,
        faults_injected=faults,
        method=method,
        optimizer_result=optimizer_result,
    )


def _solved(
    A: np.ndarray, b: np.ndarray, result: OptimizationResult, method: str
) -> LeastSquaresResult:
    """Score one robust solve, with the solver's FLOP and fault accounting."""
    return _finish(A, b, result.x, method, result.flops, result.faults_injected, result)


def _sgd_setup(
    A: np.ndarray, b: np.ndarray, options: Optional[SGDOptions]
) -> Tuple[QuadraticProblem, SGDOptions, str]:
    """The quadratic problem, SGD options and method label of both SGD twins.

    Omitted ``options`` mean 1,000 iterations of 1/t ("LS") stepping with a
    stability-derived base step — the Figure 6.2 configuration.
    """
    if options is None:
        options = SGDOptions(
            iterations=1000,
            schedule="ls",
            base_step=default_least_squares_step(A),
        )
    schedule = options.schedule if isinstance(options.schedule, str) else "custom"
    return QuadraticProblem(A, b), options, f"sgd[{schedule}]"


def robust_least_squares_sgd(
    A: np.ndarray,
    b: np.ndarray,
    proc: StochasticProcessor,
    options: Optional[SGDOptions] = None,
) -> LeastSquaresResult:
    """Solve ``min ||Ax - b||²`` by stochastic gradient descent on the noisy FPU.

    When ``options`` is omitted, 1,000 iterations of 1/t ("LS") stepping with
    a stability-derived base step are used — the Figure 6.2 configuration.
    """
    problem, options, method = _sgd_setup(A, b, options)
    result = stochastic_gradient_descent(problem, proc, options=options)
    return _solved(A, b, result, method)


def robust_least_squares_sgd_batch(
    A: np.ndarray,
    b: np.ndarray,
    procs: Union[ProcessorBatch, Sequence[StochasticProcessor]],
    options: Optional[SGDOptions] = None,
) -> List[LeastSquaresResult]:
    """Run one SGD least-squares solve per processor as a single tensor loop.

    The batch entry point of the tensorized trial backend: the quadratic
    problem is built once and every trial's iterate advances together through
    :func:`~repro.optimizers.sgd.stochastic_gradient_descent_batch`.  Trial
    ``t``'s :class:`LeastSquaresResult` is bit-identical to
    ``robust_least_squares_sgd(A, b, procs[t], options)``.
    """
    problem, options, method = _sgd_setup(A, b, options)
    batch = procs if isinstance(procs, ProcessorBatch) else ProcessorBatch(procs)
    results = stochastic_gradient_descent_batch(problem, batch, options=options)
    return [_solved(A, b, result, method) for result in results]


def robust_least_squares_cg(
    A: np.ndarray,
    b: np.ndarray,
    proc: StochasticProcessor,
    options: Optional[CGOptions] = None,
) -> LeastSquaresResult:
    """Solve ``min ||Ax - b||²`` by restarted conjugate gradient on the noisy FPU.

    The default is 10 iterations, the configuration of Figures 6.6 and 6.7.
    """
    options = options if options is not None else CGOptions(iterations=10)
    result = conjugate_gradient_least_squares(A, b, proc, options=options)
    return _solved(A, b, result, f"cg[{options.iterations}]")


def robust_least_squares_cg_batch(
    A: np.ndarray,
    b: np.ndarray,
    procs: Union[ProcessorBatch, Sequence[StochasticProcessor]],
    options: Optional[CGOptions] = None,
) -> List[LeastSquaresResult]:
    """Run one restarted-CG least-squares solve per processor as a tensor loop.

    The batch entry point for Figures 6.6/6.7 workloads: every trial advances
    together through
    :func:`~repro.optimizers.conjugate_gradient.conjugate_gradient_least_squares_batch`
    (a masked-batch CGNR driver).  Trial ``t``'s :class:`LeastSquaresResult`
    is bit-identical to ``robust_least_squares_cg(A, b, procs[t], options)``.
    """
    options = options if options is not None else CGOptions(iterations=10)
    results = conjugate_gradient_least_squares_batch(A, b, procs, options=options)
    return [_solved(A, b, result, f"cg[{options.iterations}]") for result in results]


def baseline_least_squares(
    A: np.ndarray,
    b: np.ndarray,
    proc: StochasticProcessor,
    method: str = "svd",
) -> LeastSquaresResult:
    """Solve least squares with a conventional decomposition on the noisy FPU.

    ``method`` is ``"svd"``, ``"qr"`` or ``"cholesky"`` — the three baselines
    of Figures 6.2 and 6.6.
    """
    flops_before, faults_before = proc.flops, proc.faults_injected
    x = least_squares_baseline(proc, A, b, method=method)
    return _finish(
        A,
        b,
        x,
        method=f"baseline-{method}",
        flops=proc.flops - flops_before,
        faults=proc.faults_injected - faults_before,
    )


def baseline_svd_least_squares_batch(
    A: np.ndarray,
    b: np.ndarray,
    procs: Union[ProcessorBatch, Sequence[StochasticProcessor]],
) -> List[LeastSquaresResult]:
    """Run one SVD-baseline least-squares solve per processor as a batch.

    The batch entry point of the ``Base: SVD`` series: every trial's one-sided
    Jacobi solve advances together through
    :func:`~repro.linalg.svd.svd_least_squares_batch` (a masked-batch sweep
    loop).  Trial ``t``'s :class:`LeastSquaresResult` is bit-identical to
    ``baseline_least_squares(A, b, procs[t], method="svd")``.
    """
    batch = procs if isinstance(procs, ProcessorBatch) else ProcessorBatch(procs)
    batch.flush()  # counters must be current before the baseline read
    flops_before = [proc.flops for proc in batch.procs]
    faults_before = [proc.faults_injected for proc in batch.procs]
    A_arr = np.asarray(A, dtype=np.float64)
    b_arr = np.asarray(b, dtype=np.float64).ravel()
    n_trials = len(batch)
    X = svd_least_squares_batch(
        batch,
        np.broadcast_to(A_arr, (n_trials,) + A_arr.shape),
        np.broadcast_to(b_arr, (n_trials,) + b_arr.shape),
    )
    batch.flush()
    return [
        _finish(
            A,
            b,
            X[trial],
            method="baseline-svd",
            flops=proc.flops - flops_before[trial],
            faults=proc.faults_injected - faults_before[trial],
        )
        for trial, proc in enumerate(batch.procs)
    ]
