"""Exact penalty transformation (Theorem 2).

A constrained problem ``min f(x) s.t. h(x) = 0, g(x) <= 0`` with affine
constraints is converted to the unconstrained form

    f(x) + μ Σ_i |h_i(x)| + μ Σ_j [g_j(x)]_+            (L1 exact penalty)

or the smooth quadratic variant

    f(x) + μ Σ_i h_i(x)² + μ Σ_j [g_j(x)]_+²

for a sufficiently large penalty parameter μ; the paper notes both forms and
uses the quadratic one in the sorting transformation (eq. 4.4).  The penalty
parameter can be annealed upward during the solve (§6.2.4).

Note on the paper's eq. (4.4)/(4.5): the non-negativity constraint
``X_ij >= 0`` is written there with the penalty ``[X_ij]_+``, which penalizes
*feasible* entries; the mathematically correct term (and the one whose
gradient actually drives iterates toward the sorted permutation) is
``[-X_ij]_+``, and that is what this module and the application recipes use.

The batched gradient (:meth:`ExactPenaltyProblem.gradient_batch`) runs its
noisy passes through :func:`~repro.processor.batch.batch_matvec` /
:meth:`~repro.processor.batch.ProcessorBatch.corrupt`, so it inherits the
batch's compute backend (:mod:`repro.backends`) transparently.
"""

from __future__ import annotations

import enum
from typing import Optional

import numpy as np

from repro.exceptions import ProblemSpecificationError
from repro.faults.vectorized import quiet
from repro.linalg.ops import noisy_dot, noisy_matvec, noisy_sub
from repro.optimizers.problem import ConstrainedProblem
from repro.processor.batch import ProcessorBatch, batch_matvec, batch_sub
from repro.processor.stochastic import StochasticProcessor

__all__ = ["PenaltyKind", "ExactPenaltyProblem"]


class PenaltyKind(str, enum.Enum):
    """Which exact-penalty form to use for constraint violations."""

    #: ``μ Σ|h| + μ Σ[g]_+`` — non-smooth but exact for finite μ (Theorem 2).
    L1 = "l1"
    #: ``μ Σh² + μ Σ[g]_+²`` — smooth; the form used in eq. (4.4).
    QUADRATIC = "quadratic"


class ExactPenaltyProblem:
    """Unconstrained penalty form of a linearly constrained problem.

    Parameters
    ----------
    problem:
        The constrained problem to transform.
    penalty:
        Initial penalty parameter μ.  Must be positive.
    kind:
        :class:`PenaltyKind` selecting the L1 or quadratic penalty.

    The object exposes ``value(x, proc)`` and ``gradient(x, proc)`` with the
    same calling convention as :class:`~repro.optimizers.problem.UnconstrainedProblem`,
    so the solvers treat it interchangeably.  The penalty parameter is a
    mutable attribute so that :class:`~repro.optimizers.annealing.PenaltyAnnealing`
    can raise it between iterations.
    """

    def __init__(
        self,
        problem: ConstrainedProblem,
        penalty: float = 10.0,
        kind: PenaltyKind = PenaltyKind.QUADRATIC,
    ) -> None:
        if penalty <= 0:
            raise ProblemSpecificationError(f"penalty must be positive, got {penalty}")
        self.problem = problem
        self.penalty = float(penalty)
        self.kind = PenaltyKind(kind)

    @property
    def dimension(self) -> int:
        """Number of decision variables."""
        return self.problem.dimension

    @property
    def name(self) -> str:
        """Label of the underlying problem."""
        return self.problem.name

    def initial_point(self) -> np.ndarray:
        """Default starting iterate (delegates to the underlying problem)."""
        return self.problem.initial_point()

    # ------------------------------------------------------------------ #
    # Exact (reliable) evaluation
    # ------------------------------------------------------------------ #
    def _penalty_terms_exact(self, x: np.ndarray) -> float:
        # Skip absent constraint blocks entirely: their contribution is an
        # exact 0.0, and this evaluation sits on the aggressive-stepping hot
        # path (one call per accept/reject test).
        constraints = self.problem.constraints
        total = 0.0
        if constraints.A_eq is not None:
            eq_residual = constraints.equality_residual(x)
            if self.kind is PenaltyKind.L1:
                total += float(np.abs(eq_residual).sum())
            else:
                total += float((eq_residual**2).sum())
        if constraints.A_ub is not None:
            ineq_violation = constraints.inequality_violation(x)
            if self.kind is PenaltyKind.L1:
                total += float(ineq_violation.sum())
            else:
                total += float((ineq_violation**2).sum())
        return total

    def value(
        self, x: np.ndarray, proc: Optional[StochasticProcessor] = None
    ) -> float:
        """Penalized objective ``f(x) + μ · penalty(x)``."""
        x = np.asarray(x, dtype=np.float64)
        if proc is None:
            return self.problem.objective.value(x) + self.penalty * self._penalty_terms_exact(x)
        return self._value_noisy(x, proc)

    def gradient(
        self, x: np.ndarray, proc: Optional[StochasticProcessor] = None
    ) -> np.ndarray:
        """(Sub)gradient of the penalized objective."""
        x = np.asarray(x, dtype=np.float64)
        if proc is None:
            return self._gradient_exact(x)
        return self._gradient_noisy(x, proc)

    def _gradient_exact(self, x: np.ndarray) -> np.ndarray:
        constraints = self.problem.constraints
        grad = self.problem.objective.gradient(x)
        if constraints.A_eq is not None:
            residual = constraints.equality_residual(x)
            if self.kind is PenaltyKind.L1:
                grad = grad + self.penalty * constraints.A_eq.T @ np.sign(residual)
            else:
                grad = grad + 2.0 * self.penalty * constraints.A_eq.T @ residual
        if constraints.A_ub is not None:
            violation = constraints.inequality_violation(x)
            if self.kind is PenaltyKind.L1:
                grad = grad + self.penalty * constraints.A_ub.T @ (violation > 0).astype(float)
            else:
                grad = grad + 2.0 * self.penalty * constraints.A_ub.T @ violation
        return grad

    # ------------------------------------------------------------------ #
    # Noisy evaluation (runs on the stochastic processor)
    # ------------------------------------------------------------------ #
    def _value_noisy(self, x: np.ndarray, proc: StochasticProcessor) -> float:
        constraints = self.problem.constraints
        total = self.problem.objective.value(x, proc)
        if constraints.A_eq is not None:
            residual = noisy_sub(proc, noisy_matvec(proc, constraints.A_eq, x), constraints.b_eq)
            if self.kind is PenaltyKind.L1:
                contribution = float(np.abs(residual).sum())
            else:
                contribution = noisy_dot(proc, residual, residual)
            total += self.penalty * contribution
        if constraints.A_ub is not None:
            violation = np.maximum(
                noisy_sub(proc, noisy_matvec(proc, constraints.A_ub, x), constraints.b_ub), 0.0
            )
            if self.kind is PenaltyKind.L1:
                contribution = float(violation.sum())
            else:
                contribution = noisy_dot(proc, violation, violation)
            total += self.penalty * contribution
        return float(total)

    @quiet
    def _gradient_noisy(self, x: np.ndarray, proc: StochasticProcessor) -> np.ndarray:
        constraints = self.problem.constraints
        grad = self.problem.objective.gradient(x, proc)
        if constraints.A_eq is not None:
            residual = noisy_sub(proc, noisy_matvec(proc, constraints.A_eq, x), constraints.b_eq)
            if self.kind is PenaltyKind.L1:
                weights = np.sign(residual)
                scale = self.penalty
            else:
                weights = residual
                scale = 2.0 * self.penalty
            contribution = noisy_matvec(proc, constraints.A_eq.T, weights)
            grad = grad + proc.corrupt(scale * contribution, ops_per_element=1)
        if constraints.A_ub is not None:
            violation = np.maximum(
                noisy_sub(proc, noisy_matvec(proc, constraints.A_ub, x), constraints.b_ub), 0.0
            )
            if self.kind is PenaltyKind.L1:
                weights = (violation > 0).astype(float)
                scale = self.penalty
            else:
                weights = violation
                scale = 2.0 * self.penalty
            contribution = noisy_matvec(proc, constraints.A_ub.T, weights)
            grad = grad + proc.corrupt(scale * contribution, ops_per_element=1)
        return grad

    # ------------------------------------------------------------------ #
    # Tensorized evaluation (whole trial batches at once)
    # ------------------------------------------------------------------ #
    @quiet
    def gradient_batch(self, X: np.ndarray, batch: ProcessorBatch) -> np.ndarray:
        """Noisy penalty (sub)gradients for a stacked ``(n_trials, dim)`` iterate.

        Row ``t`` reproduces ``gradient(X[t], batch.procs[t])`` bit for bit:
        the operation sequence of :meth:`_gradient_noisy` runs once over the
        whole stack, with each trial's corruption drawn from its own
        generator (see :class:`~repro.processor.batch.ProcessorBatch`).
        """
        X_arr = np.asarray(X, dtype=np.float64)
        constraints = self.problem.constraints
        grads = self.problem.objective.gradient_batch(X_arr, batch)
        if constraints.A_eq is not None:
            residuals = batch_sub(
                batch, batch_matvec(batch, constraints.A_eq, X_arr), constraints.b_eq
            )
            if self.kind is PenaltyKind.L1:
                weights = np.sign(residuals)
                scale = self.penalty
            else:
                weights = residuals
                scale = 2.0 * self.penalty
            contributions = batch_matvec(batch, constraints.A_eq.T, weights)
            grads = grads + batch.corrupt(scale * contributions, ops_per_element=1)
        if constraints.A_ub is not None:
            violations = np.maximum(
                batch_sub(
                    batch, batch_matvec(batch, constraints.A_ub, X_arr), constraints.b_ub
                ),
                0.0,
            )
            if self.kind is PenaltyKind.L1:
                weights = (violations > 0).astype(float)
                scale = self.penalty
            else:
                weights = violations
                scale = 2.0 * self.penalty
            contributions = batch_matvec(batch, constraints.A_ub.T, weights)
            grads = grads + batch.corrupt(scale * contributions, ops_per_element=1)
        return grads

    # ------------------------------------------------------------------ #
    # Diagnostics
    # ------------------------------------------------------------------ #
    def constraint_violation(self, x: np.ndarray) -> float:
        """Largest constraint violation at ``x`` (exact arithmetic)."""
        return self.problem.constraints.max_violation(np.asarray(x, dtype=np.float64))
