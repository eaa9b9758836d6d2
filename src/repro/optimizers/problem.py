"""Problem descriptions for the variational forms of Chapter 4.

Applications are converted to one of two shapes:

* an :class:`UnconstrainedProblem` — a cost function ``f`` whose minimum
  encodes the answer (least squares, IIR); or
* a :class:`ConstrainedProblem` — ``minimize f(x)`` subject to linear
  equalities and inequalities (sorting, matching, max-flow, shortest paths),
  which the exact-penalty transformation of
  :mod:`repro.optimizers.penalty` converts back to the unconstrained shape.

Objective and gradient evaluations accept an optional stochastic processor:
when one is supplied, the computation runs through its noisy FPU (this is the
"bulk of the computation" that the paper exposes to faults); when it is
``None`` the evaluation is exact, which the solvers use only for the reliable
control phase (convergence checks, aggressive-stepping accept/reject tests)
and the experiment harness uses for scoring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.exceptions import ProblemSpecificationError
from repro.faults.vectorized import quiet
from repro.linalg.ops import noisy_matvec, noisy_sub
from repro.processor.batch import ProcessorBatch, batch_matvec, batch_sub
from repro.processor.stochastic import StochasticProcessor

__all__ = [
    "UnconstrainedProblem",
    "QuadraticProblem",
    "LinearConstraints",
    "ConstrainedProblem",
    "LinearProgram",
]

ObjectiveFn = Callable[[np.ndarray, Optional[StochasticProcessor]], float]
GradientFn = Callable[[np.ndarray, Optional[StochasticProcessor]], np.ndarray]


class UnconstrainedProblem:
    """An unconstrained minimization problem ``min_x f(x)``.

    Parameters
    ----------
    dimension:
        Length of the decision vector ``x``.
    objective:
        Callable ``f(x, proc)`` returning a float.  ``proc`` may be ``None``
        for an exact evaluation.
    gradient:
        Callable ``∇f(x, proc)`` returning an array of shape ``(dimension,)``.
    name:
        Optional label used in reports.
    initial_point:
        Default starting iterate; zeros when omitted.
    gradient_batch:
        Optional tensorized gradient ``∇f(X, batch)`` over a stacked
        ``(n_trials, dimension)`` iterate, evaluated on a
        :class:`~repro.processor.batch.ProcessorBatch`.  Row ``t`` must be
        bit-identical to ``gradient(X[t], batch.procs[t])``.  The batched
        solver (:func:`~repro.optimizers.sgd.stochastic_gradient_descent_batch`,
        behind :mod:`repro.experiments.tensor`) requires it.
    """

    def __init__(
        self,
        dimension: int,
        objective: ObjectiveFn,
        gradient: GradientFn,
        name: str = "",
        initial_point: Optional[np.ndarray] = None,
        gradient_batch: Optional[Callable[[np.ndarray, ProcessorBatch], np.ndarray]] = None,
    ) -> None:
        if dimension <= 0:
            raise ProblemSpecificationError(f"dimension must be positive, got {dimension}")
        self.dimension = int(dimension)
        self._objective = objective
        self._gradient = gradient
        self._gradient_batch = gradient_batch
        self.name = name
        if initial_point is None:
            self._initial_point = np.zeros(self.dimension)
        else:
            initial_point = np.asarray(initial_point, dtype=np.float64).ravel()
            if initial_point.shape != (self.dimension,):
                raise ProblemSpecificationError(
                    f"initial point has shape {initial_point.shape}, "
                    f"expected ({self.dimension},)"
                )
            self._initial_point = initial_point

    def initial_point(self) -> np.ndarray:
        """A copy of the default starting iterate."""
        return self._initial_point.copy()

    def value(
        self, x: np.ndarray, proc: Optional[StochasticProcessor] = None
    ) -> float:
        """Objective value at ``x`` (noisy when ``proc`` is given)."""
        return float(self._objective(np.asarray(x, dtype=np.float64), proc))

    def gradient(
        self, x: np.ndarray, proc: Optional[StochasticProcessor] = None
    ) -> np.ndarray:
        """(Sub)gradient at ``x`` (noisy when ``proc`` is given)."""
        grad = np.asarray(
            self._gradient(np.asarray(x, dtype=np.float64), proc), dtype=np.float64
        ).ravel()
        if grad.shape != (self.dimension,):
            raise ProblemSpecificationError(
                f"gradient has shape {grad.shape}, expected ({self.dimension},)"
            )
        return grad

    def gradient_batch(self, X: np.ndarray, batch: ProcessorBatch) -> np.ndarray:
        """Noisy (sub)gradients for a stacked ``(n_trials, dimension)`` iterate.

        Row ``t`` is bit-identical to ``gradient(X[t], batch.procs[t])``; the
        random draws come from each trial's own injector generator in serial
        order (see :class:`~repro.processor.batch.ProcessorBatch`).
        """
        if self._gradient_batch is None:
            raise ProblemSpecificationError(
                f"problem {self.name!r} has no tensorized gradient implementation"
            )
        X_arr = np.asarray(X, dtype=np.float64)
        grads = np.asarray(self._gradient_batch(X_arr, batch), dtype=np.float64)
        if grads.shape != X_arr.shape:
            raise ProblemSpecificationError(
                f"batched gradient has shape {grads.shape}, expected {X_arr.shape}"
            )
        return grads


class QuadraticProblem(UnconstrainedProblem):
    """The least-squares objective ``f(x) = ||Ax - b||²`` (Section 4.1).

    The gradient is ``∇f(x) = 2 Aᵀ(Ax - b)``; both residual and gradient are
    evaluated with the noisy matrix-vector primitives when a processor is
    supplied.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, name: str = "least-squares") -> None:
        A_arr = np.asarray(A, dtype=np.float64)
        b_arr = np.asarray(b, dtype=np.float64).ravel()
        if A_arr.ndim != 2 or A_arr.shape[0] != b_arr.shape[0]:
            raise ProblemSpecificationError(
                f"least-squares shape mismatch: A {A_arr.shape}, b {b_arr.shape}"
            )
        self.A = A_arr
        self.b = b_arr
        super().__init__(
            dimension=A_arr.shape[1],
            objective=self._lsq_value,
            gradient=self._lsq_gradient,
            name=name,
            gradient_batch=self._lsq_gradient_batch,
        )

    @quiet
    def _lsq_value(
        self, x: np.ndarray, proc: Optional[StochasticProcessor]
    ) -> float:
        if proc is None:
            residual = self.A @ x - self.b
            return float(residual @ residual)
        residual = noisy_sub(proc, noisy_matvec(proc, self.A, x), self.b)
        from repro.linalg.ops import noisy_norm2_squared

        return noisy_norm2_squared(proc, residual)

    @quiet
    def _lsq_gradient(
        self, x: np.ndarray, proc: Optional[StochasticProcessor]
    ) -> np.ndarray:
        if proc is None:
            return 2.0 * self.A.T @ (self.A @ x - self.b)
        residual = noisy_sub(proc, noisy_matvec(proc, self.A, x), self.b)
        grad = noisy_matvec(proc, self.A.T, residual)
        return proc.corrupt(2.0 * grad, ops_per_element=1)

    @quiet
    def _lsq_gradient_batch(self, X: np.ndarray, batch: ProcessorBatch) -> np.ndarray:
        # Same operation sequence as _lsq_gradient, fused across trial rows.
        residuals = batch_sub(batch, batch_matvec(batch, self.A, X), self.b)
        grads = batch_matvec(batch, self.A.T, residuals)
        return batch.corrupt(2.0 * grads, ops_per_element=1)

    def exact_solution(self) -> np.ndarray:
        """Reference solution computed offline with reliable arithmetic."""
        solution, *_ = np.linalg.lstsq(self.A, self.b, rcond=None)
        return solution


@dataclass
class LinearConstraints:
    """Affine constraints ``A_eq x = b_eq`` and ``A_ub x <= b_ub``.

    Either block may be omitted (``None``).  These are exactly the constraint
    shapes appearing in the paper's transformations (doubly-stochastic matrix
    constraints, flow conservation, capacity bounds, triangle inequalities).
    """

    A_eq: Optional[np.ndarray] = None
    b_eq: Optional[np.ndarray] = None
    A_ub: Optional[np.ndarray] = None
    b_ub: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        for name in ("A_eq", "A_ub"):
            matrix = getattr(self, name)
            if matrix is not None:
                setattr(self, name, np.asarray(matrix, dtype=np.float64))
        for name in ("b_eq", "b_ub"):
            vector = getattr(self, name)
            if vector is not None:
                setattr(self, name, np.asarray(vector, dtype=np.float64).ravel())
        if (self.A_eq is None) != (self.b_eq is None):
            raise ProblemSpecificationError("A_eq and b_eq must be given together")
        if (self.A_ub is None) != (self.b_ub is None):
            raise ProblemSpecificationError("A_ub and b_ub must be given together")
        if self.A_eq is not None and self.A_eq.shape[0] != self.b_eq.shape[0]:
            raise ProblemSpecificationError(
                f"equality block mismatch: {self.A_eq.shape} vs {self.b_eq.shape}"
            )
        if self.A_ub is not None and self.A_ub.shape[0] != self.b_ub.shape[0]:
            raise ProblemSpecificationError(
                f"inequality block mismatch: {self.A_ub.shape} vs {self.b_ub.shape}"
            )

    @property
    def dimension(self) -> int:
        """Number of decision variables the constraints apply to."""
        if self.A_eq is not None:
            return self.A_eq.shape[1]
        if self.A_ub is not None:
            return self.A_ub.shape[1]
        raise ProblemSpecificationError("constraints are empty")

    @property
    def n_equalities(self) -> int:
        """Number of equality rows."""
        return 0 if self.A_eq is None else self.A_eq.shape[0]

    @property
    def n_inequalities(self) -> int:
        """Number of inequality rows."""
        return 0 if self.A_ub is None else self.A_ub.shape[0]

    def equality_residual(self, x: np.ndarray) -> np.ndarray:
        """``A_eq x - b_eq`` (empty array when there are no equalities)."""
        if self.A_eq is None:
            return np.zeros(0)
        return self.A_eq @ np.asarray(x, dtype=np.float64) - self.b_eq

    def inequality_violation(self, x: np.ndarray) -> np.ndarray:
        """``max(A_ub x - b_ub, 0)`` (empty array when there are no inequalities)."""
        if self.A_ub is None:
            return np.zeros(0)
        return np.maximum(self.A_ub @ np.asarray(x, dtype=np.float64) - self.b_ub, 0.0)

    def max_violation(self, x: np.ndarray) -> float:
        """Largest absolute constraint violation at ``x``."""
        parts = [np.abs(self.equality_residual(x)), self.inequality_violation(x)]
        values = np.concatenate([p for p in parts if p.size] or [np.zeros(1)])
        return float(values.max()) if values.size else 0.0

    def is_feasible(self, x: np.ndarray, tolerance: float = 1e-6) -> bool:
        """Whether ``x`` satisfies every constraint to within ``tolerance``."""
        return self.max_violation(x) <= tolerance


class ConstrainedProblem:
    """A linearly constrained problem ``min f(x)  s.t.  LinearConstraints``.

    This is the shape produced by the Chapter 4 transformations before the
    exact-penalty step.
    """

    def __init__(
        self,
        objective: UnconstrainedProblem,
        constraints: LinearConstraints,
        name: str = "",
    ) -> None:
        if constraints.dimension != objective.dimension:
            raise ProblemSpecificationError(
                f"constraint dimension {constraints.dimension} does not match "
                f"objective dimension {objective.dimension}"
            )
        self.objective = objective
        self.constraints = constraints
        self.name = name or objective.name

    @property
    def dimension(self) -> int:
        """Number of decision variables."""
        return self.objective.dimension

    def initial_point(self) -> np.ndarray:
        """Default starting iterate (delegates to the objective)."""
        return self.objective.initial_point()


class LinearProgram(ConstrainedProblem):
    """``minimize cᵀx  s.t.  A_eq x = b_eq, A_ub x <= b_ub``.

    Sorting, bipartite matching, max-flow, and all-pairs shortest path all
    reduce to this shape (Sections 4.3–4.6).  The linear objective's gradient
    is the constant vector ``c``; when evaluated on the stochastic processor
    the read-out of ``c`` is charged one (corruptible) FLOP per entry, which
    models the multiply-accumulate that produces the objective contribution in
    the penalty gradient.
    """

    def __init__(
        self,
        c: np.ndarray,
        constraints: LinearConstraints,
        name: str = "linear-program",
        initial_point: Optional[np.ndarray] = None,
    ) -> None:
        c_arr = np.asarray(c, dtype=np.float64).ravel()
        self.c = c_arr

        def _value(x: np.ndarray, proc: Optional[StochasticProcessor]) -> float:
            if proc is None:
                return float(c_arr @ x)
            from repro.linalg.ops import noisy_dot

            return noisy_dot(proc, c_arr, x)

        def _gradient(
            x: np.ndarray, proc: Optional[StochasticProcessor]
        ) -> np.ndarray:
            if proc is None:
                return c_arr.copy()
            return proc.corrupt(c_arr.copy(), ops_per_element=1)

        def _gradient_batch(X: np.ndarray, batch: ProcessorBatch) -> np.ndarray:
            # Row-wise identical to _gradient: each trial's read-out of ``c``
            # is one corruptible FLOP per entry, drawn from that trial's rng.
            tiled = np.broadcast_to(c_arr, X.shape).copy()
            return batch.corrupt(tiled, ops_per_element=1)

        objective = UnconstrainedProblem(
            dimension=c_arr.shape[0],
            objective=_value,
            gradient=_gradient,
            name=name,
            initial_point=initial_point,
            gradient_batch=_gradient_batch,
        )
        super().__init__(objective, constraints, name=name)
