"""Support vector machine training (§4.7, "Other numerical problems").

The paper points out that data-fitting problems such as SVM training are
already defined variationally and have efficient stochastic gradient solvers
(Pegasos).  We include two robust trainers as extension applications:

* :func:`robust_svm_train` — a Pegasos-style per-sample trainer whose margin
  computations and subgradient updates run on the noisy FPU (the per-sample
  control flow is data-dependent, so it has no batch tier); and
* :func:`robust_svm_train_sgd` — full-batch subgradient descent on the
  regularized hinge loss (:class:`SVMHingeProblem`), driven by the shared
  :func:`~repro.optimizers.sgd.stochastic_gradient_descent` engine.  Its
  gradient is two noisy matrix-vector products with a reliable indicator in
  between, a fixed-shape computation, so
  :func:`robust_svm_train_sgd_batch` advances whole trial batches through
  :func:`~repro.optimizers.sgd.stochastic_gradient_descent_batch`
  bit-identically to the serial path.

In both, the learning-rate schedule and final scoring are reliable control
work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ProblemSpecificationError
from repro.faults.vectorized import quiet
from repro.linalg.ops import noisy_dot, noisy_matvec
from repro.optimizers.base import OptimizationResult
from repro.optimizers.problem import UnconstrainedProblem
from repro.optimizers.sgd import (
    SGDOptions,
    stochastic_gradient_descent,
    stochastic_gradient_descent_batch,
)
from repro.processor.batch import ProcessorBatch, batch_matvec
from repro.processor.stochastic import StochasticProcessor

__all__ = [
    "SVMResult",
    "SVMHingeProblem",
    "default_svm_step",
    "robust_svm_train",
    "robust_svm_train_sgd",
    "robust_svm_train_sgd_batch",
    "svm_accuracy",
]


@dataclass
class SVMResult:
    """Outcome of robust SVM training.

    ``train_accuracy`` is measured reliably on the training set;
    ``objective`` is the regularized hinge loss of the returned weights.
    """

    weights: np.ndarray
    train_accuracy: float
    objective: float
    iterations: int
    flops: int
    faults_injected: int


def svm_accuracy(weights: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
    """Fraction of samples classified correctly by ``sign(Xw)`` (reliable)."""
    predictions = np.sign(np.asarray(X) @ np.asarray(weights))
    predictions[predictions == 0] = 1.0
    return float(np.mean(predictions == np.asarray(y)))


@quiet
def _hinge_objective(weights: np.ndarray, X: np.ndarray, y: np.ndarray, reg: float) -> float:
    margins = 1.0 - y * (X @ weights)
    return float(0.5 * reg * weights @ weights + np.mean(np.maximum(margins, 0.0)))


def _validate_svm_data(
    X: np.ndarray, y: np.ndarray, regularization: float
) -> tuple:
    """Shared argument checks of the SVM trainers; returns ``(X, y)`` as arrays."""
    X_arr = np.asarray(X, dtype=np.float64)
    y_arr = np.asarray(y, dtype=np.float64).ravel()
    if X_arr.ndim != 2 or X_arr.shape[0] != y_arr.shape[0]:
        raise ProblemSpecificationError(
            f"data shape mismatch: X {X_arr.shape}, y {y_arr.shape}"
        )
    if not np.all(np.isin(y_arr, (-1.0, 1.0))):
        raise ProblemSpecificationError("labels must be ±1")
    if regularization <= 0:
        raise ProblemSpecificationError("regularization must be positive")
    return X_arr, y_arr


class SVMHingeProblem(UnconstrainedProblem):
    """The regularized hinge loss ``f(w) = (λ/2)||w||² + mean(max(0, 1 − y Xw))``.

    The subgradient is ``λw − (1/n) Σ_{i: margin_i < 1} y_i x_i``.  On the
    noisy FPU it is evaluated as two matrix-vector products — the margins
    ``(yX) w`` and the hinge term over the active-sample indicator — with
    the indicator itself (a comparison against 1) computed reliably, as the
    accept/reject control work of the paper's methodology.  Because the
    computation's shape never depends on the data, the batched gradient
    consumes each trial's generator exactly as the serial gradient does, so
    the tensorized tier is bit-identical to serial execution.
    """

    def __init__(
        self, X: np.ndarray, y: np.ndarray, regularization: float = 0.01
    ) -> None:
        X_arr, y_arr = _validate_svm_data(X, y, regularization)
        self.X = X_arr
        self.y = y_arr
        self.regularization = float(regularization)
        # Reliable transformation work: fold the labels into the data matrix
        # and pre-scale the hinge read-out by -1/n.
        self._Xy = y_arr[:, np.newaxis] * X_arr
        self._hinge_matrix = -self._Xy.T / X_arr.shape[0]
        super().__init__(
            dimension=X_arr.shape[1],
            objective=self._hinge_value,
            gradient=self._hinge_gradient,
            name="svm-hinge",
            gradient_batch=self._hinge_gradient_batch,
        )

    def _hinge_value(
        self, w: np.ndarray, proc: Optional[StochasticProcessor]
    ) -> float:
        if proc is None:
            return _hinge_objective(w, self.X, self.y, self.regularization)
        margins = noisy_matvec(proc, self._Xy, w)
        margins = np.where(np.isfinite(margins), margins, 0.0)
        hinge = float(np.mean(np.maximum(1.0 - margins, 0.0)))
        reg_term = 0.5 * self.regularization * float(w @ w)
        proc.count_flops(2 * w.size + margins.size)
        return reg_term + hinge

    @quiet
    def _hinge_gradient(
        self, w: np.ndarray, proc: Optional[StochasticProcessor]
    ) -> np.ndarray:
        if proc is None:
            margins = self._Xy @ w
            indicator = (margins < 1.0).astype(np.float64)
            return self.regularization * w + self._hinge_matrix @ indicator
        margins = noisy_matvec(proc, self._Xy, w)
        # Reliable control phase: which samples violate the margin.  A
        # non-finite (corrupted) margin counts as violating, mirroring the
        # Pegasos trainer's treatment.
        indicator = np.where(
            np.isfinite(margins) & (margins >= 1.0), 0.0, 1.0
        )
        hinge = noisy_matvec(proc, self._hinge_matrix, indicator)
        scaled = proc.corrupt(self.regularization * w, ops_per_element=1)
        return proc.corrupt(scaled + hinge, ops_per_element=1)

    @quiet
    def _hinge_gradient_batch(
        self, W: np.ndarray, batch: ProcessorBatch
    ) -> np.ndarray:
        # Same operation sequence as _hinge_gradient, fused across trial rows.
        margins = batch_matvec(batch, self._Xy, W)
        indicators = np.where(
            np.isfinite(margins) & (margins >= 1.0), 0.0, 1.0
        )
        hinges = batch_matvec(batch, self._hinge_matrix, indicators)
        scaled = batch.corrupt(self.regularization * W, ops_per_element=1)
        return batch.corrupt(scaled + hinges, ops_per_element=1)


def default_svm_step(X: np.ndarray, regularization: float = 0.01) -> float:
    """A stable base step size for subgradient descent on the hinge loss.

    The smooth part of the objective has curvature at most
    ``λ + σ_max(X)² / n`` (regularizer plus the mean-margin term's Lipschitz
    bound); we return half the inverse of that bound, computed reliably as
    transformation-phase work.
    """
    X_arr = np.asarray(X, dtype=np.float64)
    spectral_norm = np.linalg.norm(X_arr, ord=2)
    bound = regularization + spectral_norm**2 / max(X_arr.shape[0], 1)
    if bound <= 0:
        return 1.0
    return 0.5 / bound


@quiet
def robust_svm_train(
    X: np.ndarray,
    y: np.ndarray,
    proc: StochasticProcessor,
    iterations: int = 2000,
    regularization: float = 0.01,
    rng: Optional[np.random.Generator] = None,
) -> SVMResult:
    """Train a linear SVM with Pegasos-style stochastic subgradient steps.

    Each iteration samples one training example, computes its margin with a
    noisy dot product, and applies the (noisy) subgradient update with the
    Pegasos step size ``1 / (λ t)``; non-finite updates are discarded by the
    reliable control phase.
    """
    X_arr, y_arr = _validate_svm_data(X, y, regularization)
    if iterations < 1:
        raise ProblemSpecificationError("iterations must be at least 1")

    generator = rng if rng is not None else np.random.default_rng(0)
    n_samples, n_features = X_arr.shape
    weights = np.zeros(n_features)
    flops_before, faults_before = proc.flops, proc.faults_injected

    for t in range(1, iterations + 1):
        index = int(generator.integers(0, n_samples))
        sample, label = X_arr[index], y_arr[index]
        step = 1.0 / (regularization * t)
        margin = label * noisy_dot(proc, weights, sample)
        gradient = regularization * weights
        if not np.isfinite(margin) or margin < 1.0:
            hinge_term = proc.corrupt(-label * sample, ops_per_element=1)
            hinge_term = np.where(np.isfinite(hinge_term), hinge_term, 0.0)
            gradient = gradient + hinge_term
        update = step * gradient
        update = np.where(np.isfinite(update), update, 0.0)
        weights = weights - update

    return SVMResult(
        weights=weights,
        train_accuracy=svm_accuracy(weights, X_arr, y_arr),
        objective=_hinge_objective(weights, X_arr, y_arr, regularization),
        iterations=iterations,
        flops=proc.flops - flops_before,
        faults_injected=proc.faults_injected - faults_before,
    )


def _sgd_setup(
    X: np.ndarray,
    y: np.ndarray,
    options: Optional[SGDOptions],
    regularization: float,
) -> Tuple[SVMHingeProblem, SGDOptions]:
    """The hinge problem and the SGD options of both hinge-loss twins.

    Omitted ``options`` mean 1,000 iterations of 1/t stepping with a
    stability-derived base step.
    """
    problem = SVMHingeProblem(X, y, regularization)
    if options is None:
        options = SGDOptions(
            iterations=1000,
            schedule="ls",
            base_step=default_svm_step(problem.X, regularization),
        )
    return problem, options


def _trained(problem: SVMHingeProblem, result: OptimizationResult) -> SVMResult:
    """Score one solve's weights (non-finite entries zeroed) on the training set."""
    weights = np.where(np.isfinite(result.x), result.x, 0.0)
    return SVMResult(
        weights=weights,
        train_accuracy=svm_accuracy(weights, problem.X, problem.y),
        objective=_hinge_objective(
            weights, problem.X, problem.y, problem.regularization
        ),
        iterations=result.iterations,
        flops=result.flops,
        faults_injected=result.faults_injected,
    )


def robust_svm_train_sgd(
    X: np.ndarray,
    y: np.ndarray,
    proc: StochasticProcessor,
    options: Optional[SGDOptions] = None,
    regularization: float = 0.01,
) -> SVMResult:
    """Train a linear SVM by full-batch hinge-loss subgradient descent.

    The variational twin of :func:`robust_svm_train`: the regularized hinge
    loss (:class:`SVMHingeProblem`) is minimized with the shared
    :func:`~repro.optimizers.sgd.stochastic_gradient_descent` engine from
    zero weights, so the trainer inherits every solver variant (step
    schedules, aggressive stepping, momentum) and the tensorized batch tier.
    When ``options`` is omitted, 1,000 iterations of 1/t stepping with a
    stability-derived base step are used.
    """
    problem, options = _sgd_setup(X, y, options, regularization)
    return _trained(problem, stochastic_gradient_descent(problem, proc, options=options))


def robust_svm_train_sgd_batch(
    X: np.ndarray,
    y: np.ndarray,
    procs: Union[ProcessorBatch, Sequence[StochasticProcessor]],
    options: Optional[SGDOptions] = None,
    regularization: float = 0.01,
) -> List[SVMResult]:
    """Run one hinge-loss SVM training per processor as a single tensor loop.

    The batch entry point of the tensorized trial backend: the hinge problem
    is built once and every trial's weight vector advances together through
    :func:`~repro.optimizers.sgd.stochastic_gradient_descent_batch`.  Trial
    ``t``'s :class:`SVMResult` is bit-identical to
    ``robust_svm_train_sgd(X, y, procs[t], options, regularization)``.
    """
    problem, options = _sgd_setup(X, y, options, regularization)
    batch = procs if isinstance(procs, ProcessorBatch) else ProcessorBatch(procs)
    results = stochastic_gradient_descent_batch(problem, batch, options=options)
    return [_trained(problem, result) for result in results]
