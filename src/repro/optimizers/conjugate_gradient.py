"""Restarted conjugate gradient for least squares (§3.3, Figures 6.6 and 6.7).

The conjugate gradient (CG) method builds mutually conjugate search directions
and, on a reliable processor, solves an ``n``-variable least-squares problem
in at most ``n`` iterations.  Under noisy gradients conjugacy degrades; the
paper's implementation "resets the search direction after every few
iterations" to contain the damage.  We implement CGNR (CG on the normal
equations ``AᵀA x = Aᵀ b``) with:

* all matrix-vector products executed on the stochastic processor,
* the scalar recurrences (α, β) computed reliably — α is CG's step size and
  β its direction-mixing weight, i.e. exactly the "computing the step size"
  control work the paper assumes is carried out reliably,
* a reliable control phase that zeroes non-finite residual components
  (:func:`~repro.optimizers.base.finite_or_zero`, the guard SGD shares) and
  restarts the direction when the curvature is unusable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.exceptions import ProblemSpecificationError
from repro.faults.vectorized import quiet
from repro.linalg.ops import noisy_matvec, noisy_sub
from repro.optimizers.base import (
    IterationRecord,
    OptimizationResult,
    stack_initial_iterates,
    finite_or_zero,
)
from repro.processor.batch import ProcessorBatch, batch_matvec, batch_sub
from repro.processor.stochastic import StochasticProcessor

__all__ = [
    "CGOptions",
    "conjugate_gradient_least_squares",
    "conjugate_gradient_least_squares_batch",
]


@dataclass
class CGOptions:
    """Configuration of the conjugate-gradient least-squares solver.

    Attributes
    ----------
    iterations:
        Number of CG iterations (the paper uses 10 for the 100×10 problem).
    restart_every:
        Reset the search direction to the steepest-descent direction every
        this many iterations to limit the accumulation of noisy conjugacy.
    record_history:
        Record the reliably evaluated residual norm after every iteration.
    """

    iterations: int = 10
    restart_every: int = 5
    record_history: bool = False

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ProblemSpecificationError("iterations must be at least 1")
        if self.restart_every < 1:
            raise ProblemSpecificationError("restart_every must be at least 1")


@quiet
def conjugate_gradient_least_squares(
    A: np.ndarray,
    b: np.ndarray,
    proc: StochasticProcessor,
    options: Optional[CGOptions] = None,
    x0: Optional[np.ndarray] = None,
) -> OptimizationResult:
    """Solve ``min ||Ax - b||²`` with restarted CGNR on the noisy processor.

    Returns an :class:`~repro.optimizers.base.OptimizationResult` whose
    ``objective`` is the reliably evaluated squared residual of the final
    iterate.
    """
    options = options if options is not None else CGOptions()
    A_arr = np.asarray(A, dtype=np.float64)
    b_arr = np.asarray(b, dtype=np.float64).ravel()
    if A_arr.ndim != 2 or A_arr.shape[0] != b_arr.shape[0]:
        raise ProblemSpecificationError(
            f"least-squares shape mismatch: A {A_arr.shape}, b {b_arr.shape}"
        )
    n = A_arr.shape[1]
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    if x.shape != (n,):
        raise ProblemSpecificationError(f"x0 has shape {x.shape}, expected ({n},)")

    flops_before = proc.flops
    faults_before = proc.faults_injected
    history: list[IterationRecord] = []

    def _normal_residual(x_current: np.ndarray) -> np.ndarray:
        """Noisy evaluation of ``Aᵀ(b - A x)`` (the negative gradient / 2)."""
        residual = noisy_sub(proc, b_arr, noisy_matvec(proc, A_arr, x_current))
        return noisy_matvec(proc, A_arr.T, residual)

    # The FLOP cost of the scalar reductions below (α, β, restarts) is charged
    # to the processor as reliable control work.
    def _reliable_dot(u: np.ndarray, v: np.ndarray) -> float:
        proc.count_flops(2 * u.size - 1)
        return float(u @ v)

    r = finite_or_zero(_normal_residual(x))
    p = r.copy()
    rs_old = max(_reliable_dot(r, r), np.finfo(float).tiny)

    for iteration in range(1, options.iterations + 1):
        Ap = finite_or_zero(noisy_matvec(proc, A_arr, p))
        curvature = _reliable_dot(Ap, Ap)
        if not np.isfinite(curvature) or curvature <= 0:
            # Reliable control phase detects the unusable curvature and
            # restarts from the steepest-descent direction.
            r = finite_or_zero(_normal_residual(x))
            p = r.copy()
            rs_old = max(_reliable_dot(r, r), np.finfo(float).tiny)
            if options.record_history:
                history.append(
                    IterationRecord(
                        iteration=iteration,
                        objective=float(np.sum((A_arr @ x - b_arr) ** 2)),
                        step_size=0.0,
                    )
                )
            continue
        alpha = rs_old / curvature
        if not np.isfinite(alpha):
            alpha = 0.0
        x = x + alpha * p
        r = finite_or_zero(noisy_sub(proc, r, alpha * noisy_matvec(proc, A_arr.T, Ap)))
        rs_new = _reliable_dot(r, r)
        if not np.isfinite(rs_new) or rs_new < 0:
            rs_new = float(np.finfo(float).tiny)
        if iteration % options.restart_every == 0:
            # Periodic restart: recompute the true residual direction.
            r = finite_or_zero(_normal_residual(x))
            p = r.copy()
            rs_new = max(_reliable_dot(r, r), np.finfo(float).tiny)
        else:
            beta = rs_new / max(rs_old, np.finfo(float).tiny)
            if not np.isfinite(beta) or beta < 0:
                beta = 0.0
            p = r + beta * p
        rs_old = max(rs_new, np.finfo(float).tiny)
        if options.record_history:
            history.append(
                IterationRecord(
                    iteration=iteration,
                    objective=float(np.sum((A_arr @ x - b_arr) ** 2)),
                    step_size=float(alpha),
                )
            )

    final_residual = A_arr @ x - b_arr
    return OptimizationResult(
        x=x,
        objective=float(final_residual @ final_residual),
        iterations=options.iterations,
        converged=True,
        flops=proc.flops - flops_before,
        faults_injected=proc.faults_injected - faults_before,
        history=history,
        message="completed CG iterations",
    )


@quiet
def conjugate_gradient_least_squares_batch(
    A: np.ndarray,
    b: np.ndarray,
    procs: Union[ProcessorBatch, Sequence[StochasticProcessor]],
    options: Optional[CGOptions] = None,
    x0: Optional[np.ndarray] = None,
) -> List[OptimizationResult]:
    """Run one restarted-CGNR solve per processor as a masked tensor loop.

    The tensorized twin of :func:`conjugate_gradient_least_squares`: every
    trial's iterate, residual, and search direction live as rows of stacked
    tensors, and each CG iteration advances all trials together through the
    batched noisy primitives (:func:`~repro.processor.batch.batch_matvec`,
    :func:`~repro.processor.batch.batch_sub`).  The scalar recurrences (α, β)
    are reliable control work and run per row; the data-dependent branches —
    the unusable-curvature restart and the periodic direction restart — run
    as *masked sub-batches*: the affected trials' rows are narrowed into a
    sub-batch (:meth:`~repro.processor.batch.ProcessorBatch.narrow`) so their
    generators consume exactly the draws the serial control flow would
    consume, and no others.  Trial ``t``'s result is therefore bit-identical to
    ``conjugate_gradient_least_squares(A, b, procs[t], options, x0)``.

    ``record_history`` (per-trial instrumentation) falls back to per-trial
    serial execution without losing bit-identity.  ``x0`` may be ``None``,
    one shared ``(n,)`` iterate, or a per-trial ``(n_trials, n)`` stack.
    """
    options = options if options is not None else CGOptions()
    batch = procs if isinstance(procs, ProcessorBatch) else ProcessorBatch(procs)
    A_arr = np.asarray(A, dtype=np.float64)
    b_arr = np.asarray(b, dtype=np.float64).ravel()
    if A_arr.ndim != 2 or A_arr.shape[0] != b_arr.shape[0]:
        raise ProblemSpecificationError(
            f"least-squares shape mismatch: A {A_arr.shape}, b {b_arr.shape}"
        )
    n_trials = len(batch)
    n = A_arr.shape[1]
    X = stack_initial_iterates(x0, n_trials, n, lambda: np.zeros(n))
    if options.record_history:
        return [
            conjugate_gradient_least_squares(
                A_arr, b_arr, proc, options=options, x0=X[trial]
            )
            for trial, proc in enumerate(batch.procs)
        ]

    batch.flush()  # counters must be current before the baseline read
    flops_before = [proc.flops for proc in batch.procs]
    faults_before = [proc.faults_injected for proc in batch.procs]
    tiny = float(np.finfo(float).tiny)

    def _reliable_dots(U: np.ndarray, V: np.ndarray, index: np.ndarray) -> np.ndarray:
        """Per-row reliable dot products, charged exactly as ``_reliable_dot``.

        Each row goes through ``u @ v`` — the serial ``_reliable_dot``
        reduction — rather than a fused ``einsum``, whose different summation
        order could change the last bits of α/β and break the bit-identity
        contract.  The rows are few (one per trial), so the loop is not on
        the hot path.
        """
        length = U.shape[1]
        for t in index:
            batch.procs[int(t)].count_flops(2 * length - 1)
        return np.array([float(u @ v) for u, v in zip(U, V)])

    def _normal_residuals(sub: ProcessorBatch, X_rows: np.ndarray) -> np.ndarray:
        """Row-wise noisy ``Aᵀ(b - A x)``, mirroring ``_normal_residual``."""
        Ax = batch_matvec(sub, A_arr, X_rows)
        residuals = batch_sub(sub, b_arr, Ax)
        return batch_matvec(sub, A_arr.T, residuals)

    every = np.arange(n_trials)
    R = finite_or_zero(_normal_residuals(batch, X))
    P = R.copy()
    rs_old = np.maximum(_reliable_dots(R, R, every), tiny)

    for iteration in range(1, options.iterations + 1):
        Ap = finite_or_zero(batch_matvec(batch, A_arr, P))
        curvatures = _reliable_dots(Ap, Ap, every)
        usable = np.isfinite(curvatures) & (curvatures > 0)
        bad = np.flatnonzero(~usable)
        if bad.size:
            # The serial control flow restarts these trials from the
            # steepest-descent direction and skips the rest of the iteration.
            sub = batch.narrow(bad)
            R_bad = finite_or_zero(_normal_residuals(sub, X[bad]))
            R[bad] = R_bad
            P[bad] = R_bad
            rs_old[bad] = np.maximum(_reliable_dots(R_bad, R_bad, bad), tiny)
        good = np.flatnonzero(usable)
        if good.size == 0:
            continue
        sub_good = batch.narrow(good)
        alphas = rs_old[good] / curvatures[good]
        alphas = np.where(np.isfinite(alphas), alphas, 0.0)
        X[good] = X[good] + alphas[:, np.newaxis] * P[good]
        ATAp = batch_matvec(sub_good, A_arr.T, Ap[good])
        R_good = finite_or_zero(batch_sub(sub_good, R[good], alphas[:, np.newaxis] * ATAp))
        rs_new = _reliable_dots(R_good, R_good, good)
        rs_new = np.where(np.isfinite(rs_new) & (rs_new >= 0), rs_new, tiny)
        if iteration % options.restart_every == 0:
            # Periodic restart: recompute the true residual direction.
            R_good = finite_or_zero(_normal_residuals(sub_good, X[good]))
            P[good] = R_good
            rs_new = np.maximum(_reliable_dots(R_good, R_good, good), tiny)
        else:
            betas = rs_new / np.maximum(rs_old[good], tiny)
            betas = np.where(np.isfinite(betas) & (betas >= 0), betas, 0.0)
            P[good] = R_good + betas[:, np.newaxis] * P[good]
        R[good] = R_good
        rs_old[good] = np.maximum(rs_new, tiny)

    batch.flush()  # deferred batched accounting (sub-batches too) -> counters
    results: List[OptimizationResult] = []
    for trial, proc in enumerate(batch.procs):
        final_residual = A_arr @ X[trial] - b_arr
        results.append(
            OptimizationResult(
                x=X[trial].copy(),
                objective=float(final_residual @ final_residual),
                iterations=options.iterations,
                converged=True,
                flops=proc.flops - flops_before[trial],
                faults_injected=proc.faults_injected - faults_before[trial],
                history=[],
                message="completed CG iterations",
            )
        )
    return results
