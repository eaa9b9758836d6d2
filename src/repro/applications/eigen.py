"""Eigenvalue problems (§4.7, "Other numerical problems").

The Courant–Fischer theorem expresses the top eigenpair of a symmetric matrix
variationally as the maximizer of the Rayleigh quotient
``R(x) = xᵀMx / xᵀx``.  The paper suggests finding the top eigenpair this way
and peeling off subsequent pairs by deflation (subtracting the rank-1 term
``λ v vᵀ``).  We implement exactly that with the noisy matrix-vector products
and a reliable normalization/deflation control phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.exceptions import ProblemSpecificationError
from repro.faults.vectorized import quiet
from repro.linalg.ops import noisy_matvec
from repro.metrics.quality import relative_error
from repro.processor.batch import ProcessorBatch, batch_matvec
from repro.processor.stochastic import StochasticProcessor

__all__ = [
    "EigenResult",
    "robust_top_eigenpair",
    "robust_eigenpairs",
    "robust_eigenpairs_batch",
]


@dataclass
class EigenResult:
    """Outcome of a robust eigenpair computation.

    ``eigenvalue_error`` is ``|λ − λ*| / |λ*|`` against the exact eigenvalue;
    ``eigenvector_alignment`` is ``|⟨v, v*⟩|`` (1.0 means perfectly aligned).
    """

    eigenvalue: float
    eigenvector: np.ndarray
    eigenvalue_error: float
    eigenvector_alignment: float
    iterations: int
    flops: int
    faults_injected: int


@quiet
def robust_top_eigenpair(
    M: np.ndarray,
    proc: StochasticProcessor,
    iterations: int = 200,
    rng: Optional[np.random.Generator] = None,
) -> EigenResult:
    """Top eigenpair of a symmetric matrix by Rayleigh-quotient ascent.

    Each iteration performs one noisy matrix-vector product (the gradient
    direction of the Rayleigh quotient up to scaling is ``Mx``) followed by a
    reliable normalization; non-finite components are zeroed by the control
    phase.  This is stochastic power iteration — exactly the kind of
    iterative refinement the paper argues tolerates unbiased FPU noise.
    """
    M_arr = np.asarray(M, dtype=np.float64)
    _validate_eigen_matrix(M_arr, iterations)
    n = M_arr.shape[0]
    generator = rng if rng is not None else np.random.default_rng(0)

    flops_before, faults_before = proc.flops, proc.faults_injected
    x = generator.standard_normal(n)
    x /= np.linalg.norm(x)
    for _ in range(iterations):
        y = noisy_matvec(proc, M_arr, x)
        y = np.where(np.isfinite(y), y, 0.0)
        norm = np.linalg.norm(y)
        if norm <= np.finfo(float).tiny:
            # Restart from a fresh random direction (reliable control phase).
            y = generator.standard_normal(n)
            norm = np.linalg.norm(y)
        x = y / norm
    return _scored(
        M_arr, x, iterations, proc.flops - flops_before,
        proc.faults_injected - faults_before,
    )


def _scored(
    M_arr: np.ndarray, x: np.ndarray, iterations: int, flops: int, faults: int
) -> EigenResult:
    """Score the unit iterate ``x`` as ``M_arr``'s top eigenpair (reliable)."""
    eigenvalue = float(x @ M_arr @ x)
    exact_values, exact_vectors = np.linalg.eigh(M_arr)
    top_index = int(np.argmax(np.abs(exact_values)))
    exact_value = float(exact_values[top_index])
    return EigenResult(
        eigenvalue=eigenvalue,
        eigenvector=x,
        eigenvalue_error=relative_error(eigenvalue, exact_value),
        eigenvector_alignment=float(abs(x @ exact_vectors[:, top_index])),
        iterations=iterations,
        flops=flops,
        faults_injected=faults,
    )


def robust_eigenpairs(
    M: np.ndarray,
    k: int,
    proc: StochasticProcessor,
    iterations: int = 200,
    rng: Optional[np.random.Generator] = None,
) -> List[EigenResult]:
    """Top ``k`` eigenpairs by repeated Rayleigh-quotient ascent and deflation.

    After each pair ``(λ, v)`` is found, the matrix is deflated to
    ``M − λ v vᵀ`` (reliable control phase) and the procedure repeats, as
    described in §4.7.
    """
    M_arr = np.asarray(M, dtype=np.float64).copy()
    if k < 1 or k > M_arr.shape[0]:
        raise ProblemSpecificationError(
            f"k must be between 1 and {M_arr.shape[0]}, got {k}"
        )
    generator = rng if rng is not None else np.random.default_rng(0)
    results: List[EigenResult] = []
    deflated = M_arr.copy()
    for index in range(k):
        result = robust_top_eigenpair(deflated, proc, iterations=iterations, rng=generator)
        # Score against the original matrix's spectrum rather than the deflated
        # one: the pair's magnitude against the matching exact magnitude.
        exact_values = np.sort(np.abs(np.linalg.eigvalsh(M_arr)))[::-1]
        result.eigenvalue_error = relative_error(
            abs(result.eigenvalue), float(exact_values[index])
        )
        results.append(result)
        deflated = deflated - result.eigenvalue * np.outer(result.eigenvector, result.eigenvector)
    return results


def _validate_eigen_matrix(M_arr: np.ndarray, iterations: int) -> None:
    """The :func:`robust_top_eigenpair` argument checks, shared with the batch path."""
    n = M_arr.shape[0]
    if M_arr.shape != (n, n):
        raise ProblemSpecificationError(f"expected a square matrix, got {M_arr.shape}")
    if not np.allclose(M_arr, M_arr.T, atol=1e-10):
        raise ProblemSpecificationError("matrix must be symmetric")
    if iterations < 1:
        raise ProblemSpecificationError("iterations must be at least 1")


@quiet
def robust_eigenpairs_batch(
    M: np.ndarray,
    k: int,
    procs: Union[ProcessorBatch, Sequence[StochasticProcessor]],
    iterations: int = 200,
    rngs: Optional[Sequence[np.random.Generator]] = None,
) -> List[List[EigenResult]]:
    """Run one :func:`robust_eigenpairs` computation per processor, batched.

    The batch entry point of the tensorized trial backend for the §4.7
    eigenpair kernel.  Every trial's power iteration advances together: the
    noisy matrix-vector product — the only corruptible work of the serial
    loop — is one :func:`~repro.processor.batch.batch_matvec` over the whole
    stack per iteration (row ``t`` drawn from trial ``t``'s own generator in
    serial order, see :class:`~repro.processor.batch.ProcessorBatch`), while
    the reliable control phase (zeroing non-finite components,
    normalization, random restarts from the trial's own stream) runs per
    trial.  Deflation makes the iterated matrix *per trial* after the first
    pair, so the stacked product uses each trial's own deflated matrix.

    ``rngs`` supplies one private random stream per trial (defaulting, like
    the serial path, to ``np.random.default_rng(0)`` each).  Trial ``t``'s
    result list is bit-identical — eigenpairs, errors, and FLOP/fault
    counters — to ``robust_eigenpairs(M, k, procs[t], iterations,
    rngs[t])``.
    """
    M_arr = np.asarray(M, dtype=np.float64).copy()
    _validate_eigen_matrix(M_arr, iterations)
    if k < 1 or k > M_arr.shape[0]:
        raise ProblemSpecificationError(
            f"k must be between 1 and {M_arr.shape[0]}, got {k}"
        )
    batch = procs if isinstance(procs, ProcessorBatch) else ProcessorBatch(procs)
    n_trials = len(batch)
    if rngs is None:
        generators = [np.random.default_rng(0) for _ in range(n_trials)]
    else:
        generators = list(rngs)
        if len(generators) != n_trials:
            raise ProblemSpecificationError(
                f"{len(generators)} streams for a batch of {n_trials} trials"
            )
    n = M_arr.shape[0]
    tiny = np.finfo(float).tiny
    exact_magnitudes = np.sort(np.abs(np.linalg.eigvalsh(M_arr)))[::-1]
    deflated = np.broadcast_to(M_arr, (n_trials, n, n)).copy()
    outcomes: List[List[EigenResult]] = [[] for _ in range(n_trials)]

    for index in range(k):
        for trial in range(n_trials):
            _validate_eigen_matrix(deflated[trial], iterations)
        batch.flush()  # counters must be current before the baseline read
        flops_before = [proc.flops for proc in batch.procs]
        faults_before = [proc.faults_injected for proc in batch.procs]

        X = np.empty((n_trials, n))
        for trial, generator in enumerate(generators):
            x = generator.standard_normal(n)
            X[trial] = x / np.linalg.norm(x)
        for _ in range(iterations):
            Y = batch_matvec(batch, deflated, X)
            Y = np.where(np.isfinite(Y), Y, 0.0)
            for trial in range(n_trials):
                y = Y[trial]
                norm = np.linalg.norm(y)
                if norm <= tiny:
                    # Restart from a fresh random direction (reliable control
                    # phase), from this trial's own stream.
                    y = generators[trial].standard_normal(n)
                    norm = np.linalg.norm(y)
                X[trial] = y / norm
        batch.flush()  # deferred batched accounting -> per-processor counters

        # Score against the original matrix's spectrum rather than the
        # deflated one, exactly as robust_eigenpairs does.
        target = float(exact_magnitudes[index])
        for trial, proc in enumerate(batch.procs):
            result = _scored(
                deflated[trial], X[trial], iterations,
                proc.flops - flops_before[trial],
                proc.faults_injected - faults_before[trial],
            )
            result.eigenvalue_error = relative_error(abs(result.eigenvalue), target)
            outcomes[trial].append(result)
            deflated[trial] = deflated[trial] - result.eigenvalue * np.outer(
                result.eigenvector, result.eigenvector
            )
    return outcomes
