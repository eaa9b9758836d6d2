"""One-sided Jacobi SVD and SVD-based least squares on the noisy FPU.

The SVD baseline is the most accurate deterministic least-squares
implementation in the paper (Figure 6.6), but like the other baselines it is
exposed to FPU faults with no recovery mechanism.  We implement the one-sided
Jacobi method: orthogonalize pairs of columns with plane rotations until the
columns are mutually orthogonal; the column norms are the singular values and
the accumulated rotations form ``V``.

:func:`jacobi_svd_batch` and :func:`svd_least_squares_batch` are their batch
twins over a stack of per-trial systems, bit-identical per trial.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.linalg.ops import noisy_dot, noisy_matvec
from repro.processor.batch import ProcessorBatch, batch_dot, batch_matvec
from repro.processor.stochastic import StochasticProcessor

__all__ = [
    "jacobi_svd",
    "jacobi_svd_batch",
    "svd_least_squares",
    "svd_least_squares_batch",
]

#: Sweep cap, relative off-diagonal threshold below which a column pair is
#: skipped (and a sweep ends the loop), and the pseudo-inverse's relative
#: singular-value cutoff, shared by the serial solvers and their batch twins.
_MAX_SWEEPS = 12
_TOLERANCE = 1e-10
_RCOND = 1e-12


def jacobi_svd(
    proc: StochasticProcessor, A: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-sided Jacobi SVD ``A = U diag(s) Vᵀ`` executed on the noisy FPU.

    Runs at most ``_MAX_SWEEPS`` full column-pair sweeps.  The loop structure
    and the convergence test are control-phase work (reliable); every
    numerical operation inside a sweep runs on the noisy FPU.

    Parameters
    ----------
    proc:
        Stochastic processor supplying the (possibly faulty) arithmetic.
    A:
        Matrix of shape ``(m, n)`` with ``m >= n``.

    Returns
    -------
    (U, s, Vt):
        ``U`` is ``(m, n)`` with (nominally) orthonormal columns, ``s`` the
        singular values sorted in decreasing order, ``Vt`` the transposed
        right singular vectors, ``(n, n)``.
    """
    A_arr = np.asarray(A, dtype=np.float64)
    if A_arr.ndim != 2:
        raise ValueError(f"SVD requires a matrix, got shape {A_arr.shape}")
    m, n = A_arr.shape
    if m < n:
        raise ValueError(f"one-sided Jacobi SVD requires m >= n, got {A_arr.shape}")
    fpu = proc.fpu
    U = A_arr.copy()
    V = np.eye(n, dtype=np.float64)
    for _ in range(_MAX_SWEEPS):
        off_diagonal = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                alpha = noisy_dot(proc, U[:, p], U[:, p])
                beta = noisy_dot(proc, U[:, q], U[:, q])
                gamma = noisy_dot(proc, U[:, p], U[:, q])
                if not (np.isfinite(alpha) and np.isfinite(beta) and np.isfinite(gamma)):
                    continue
                denom = np.sqrt(abs(alpha * beta))
                if denom <= 0 or abs(gamma) <= _TOLERANCE * denom:
                    continue
                off_diagonal = max(off_diagonal, abs(gamma) / denom)
                rotation = _rotation(fpu, alpha, beta, gamma)
                if rotation is None:
                    continue
                c, s = rotation
                # Apply the rotation to the column pairs of U and V.
                up = proc.corrupt(c * U[:, p] - s * U[:, q], ops_per_element=3)
                uq = proc.corrupt(s * U[:, p] + c * U[:, q], ops_per_element=3)
                U[:, p], U[:, q] = up, uq
                vp = proc.corrupt(c * V[:, p] - s * V[:, q], ops_per_element=3)
                vq = proc.corrupt(s * V[:, p] + c * V[:, q], ops_per_element=3)
                V[:, p], V[:, q] = vp, vq
        if off_diagonal < _TOLERANCE:
            break
    # Column norms are the singular values; normalize U's columns.
    singular_values = np.zeros(n, dtype=np.float64)
    for j in range(n):
        norm_sq = noisy_dot(proc, U[:, j], U[:, j])
        norm = fpu.sqrt(norm_sq)
        singular_values[j] = norm
        if np.isfinite(norm) and norm > 0:
            U[:, j] = proc.corrupt(U[:, j] / norm, ops_per_element=1)
    order = np.argsort(-np.where(np.isfinite(singular_values), singular_values, -np.inf))
    return U[:, order], singular_values[order], V[:, order].T


def _rotation(fpu, alpha, beta, gamma) -> Optional[Tuple[float, float]]:
    """The Jacobi rotation ``(c, s)`` that zeroes the column pair's ``γ``.

    Its 13 FLOPs (two subtractions, one division, one square root, two more
    divisions, and the adds and multiplies between them) all run on
    ``fpu``.  ``None`` means a non-finite parameter; the pair is skipped.
    """
    zeta = fpu.div(fpu.sub(beta, alpha), fpu.mul(2.0, gamma))
    if not math.isfinite(zeta):
        return None
    sign = 1.0 if zeta >= 0 else -1.0
    t = fpu.div(sign, fpu.add(abs(zeta), fpu.sqrt(fpu.add(1.0, fpu.mul(zeta, zeta)))))
    c = fpu.div(1.0, fpu.sqrt(fpu.add(1.0, fpu.mul(t, t))))
    s = fpu.mul(c, t)
    if not (math.isfinite(c) and math.isfinite(s)):
        return None
    return c, s


def svd_least_squares(
    proc: StochasticProcessor, A: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Least-squares solution via the (noisy) one-sided Jacobi SVD.

    Computes ``x = V diag(1/s) Uᵀ b`` with small or non-finite singular values
    treated as zero (pseudo-inverse convention).
    """
    A_arr = np.asarray(A, dtype=np.float64)
    b_arr = np.asarray(b, dtype=np.float64).ravel()
    if A_arr.shape[0] != b_arr.shape[0]:
        raise ValueError(
            f"least-squares shape mismatch: A {A_arr.shape}, b {b_arr.shape}"
        )
    U, s, Vt = jacobi_svd(proc, A_arr)
    projected = noisy_matvec(proc, U.T, b_arr)
    finite = np.isfinite(s)
    cutoff = _RCOND * (np.max(s[finite]) if np.any(finite) else 0.0)
    usable = finite & (np.abs(s) > cutoff)
    inverse_s = np.divide(1.0, s, out=np.zeros_like(s), where=usable)
    scaled = proc.corrupt(projected * inverse_s, ops_per_element=1)
    return noisy_matvec(proc, Vt.T, scaled)


def _rotate_pair(
    batch: ProcessorBatch,
    columns: np.ndarray,
    V: np.ndarray,
    rows: np.ndarray,
    p: int,
    q: int,
    off_diagonal: np.ndarray,
) -> None:
    """One column pair of :func:`jacobi_svd`'s sweep for trials ``rows``.

    ``columns[t, j]`` is column ``j`` of trial ``t``'s ``U`` and ``V[t, j]``
    column ``j`` of its ``V``; both are updated in place, as is the running
    ``off_diagonal`` measure.  Each ``continue`` of the serial loop drops
    rows from the pair; the 13 rotation-parameter FLOPs run per trial on its
    own FPU.
    """
    sub = batch.narrow(rows)
    Up, Uq = columns[rows, p], columns[rows, q]
    alpha = batch_dot(sub, Up, Up)
    beta = batch_dot(sub, Uq, Uq)
    gamma = batch_dot(sub, Up, Uq)
    candidates = np.flatnonzero(np.isfinite(alpha) & np.isfinite(beta) & np.isfinite(gamma))
    # Python-float semantics of the serial scalars: a product may overflow
    # to inf silently.
    with np.errstate(over="ignore"):
        denom = np.sqrt(np.abs(alpha[candidates] * beta[candidates]))
    magnitude = np.abs(gamma[candidates])
    keep = (denom > 0) & (magnitude > _TOLERANCE * denom)
    candidates, denom = candidates[keep], denom[keep]
    off_diagonal[rows[candidates]] = np.maximum(
        off_diagonal[rows[candidates]], magnitude[keep] / denom
    )
    rotated, cosines, sines = [], [], []
    for i in candidates.tolist():
        rotation = _rotation(batch.procs[rows[i]].fpu, alpha[i], beta[i], gamma[i])
        if rotation is not None:
            rotated.append(i)
            cosines.append(rotation[0])
            sines.append(rotation[1])
    if not rotated:
        return
    trials = rows[rotated]
    rot = batch.narrow(trials)
    c = np.asarray(cosines)[:, np.newaxis]
    s = np.asarray(sines)[:, np.newaxis]
    Up, Uq = Up[rotated], Uq[rotated]
    columns[trials, p] = rot.corrupt(c * Up - s * Uq, ops_per_element=3)
    columns[trials, q] = rot.corrupt(s * Up + c * Uq, ops_per_element=3)
    Vp, Vq = V[trials, p], V[trials, q]
    V[trials, p] = rot.corrupt(c * Vp - s * Vq, ops_per_element=3)
    V[trials, q] = rot.corrupt(s * Vp + c * Vq, ops_per_element=3)


def jacobi_svd_batch(
    batch: ProcessorBatch, A: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`jacobi_svd` for every trial of ``batch``, as one masked sweep loop.

    ``A`` is a ``(n_trials, m, n)`` stack, one matrix per trial.  Returns the
    stacked ``(U, s, Vt)``; trial ``t``'s slices are bit-identical to
    ``jacobi_svd(batch.procs[t], A[t])``, with the same draws and counters
    once ``batch`` is flushed.

    Each column pair computes α, β and γ with :func:`batch_dot` over the
    trials still sweeping.  A trial leaves that set once a sweep ends under
    the tolerance, as the serial ``break`` does.  The normalization runs
    over every trial.  Shape errors raise before any draw.
    """
    A_arr = np.asarray(A, dtype=np.float64)
    if A_arr.ndim != 3 or A_arr.shape[0] != len(batch):
        raise ValueError(
            f"batched SVD requires a ({len(batch)}, m, n) stack, got shape {A_arr.shape}"
        )
    n_trials, m, n = A_arr.shape
    if m < n:
        raise ValueError(
            f"one-sided Jacobi SVD requires m >= n, got {A_arr.shape[1:]}"
        )
    # Column-major working copies: columns[t, j] is U[:, j] of trial t.
    columns = np.ascontiguousarray(A_arr.transpose(0, 2, 1))
    V = np.tile(np.eye(n), (n_trials, 1, 1))
    running = np.arange(n_trials)
    for _ in range(_MAX_SWEEPS):
        off_diagonal = np.zeros(n_trials)
        for p in range(n - 1):
            for q in range(p + 1, n):
                _rotate_pair(batch, columns, V, running, p, q, off_diagonal)
        running = running[off_diagonal[running] >= _TOLERANCE]
        if running.size == 0:
            break
    # Column norms are the singular values; normalize U's columns.
    singular_values = np.zeros((n_trials, n))
    for j in range(n):
        norm_sq = batch_dot(batch, columns[:, j], columns[:, j])
        norms = np.array(
            [proc.fpu.sqrt(value) for proc, value in zip(batch.procs, norm_sq.tolist())]
        )
        singular_values[:, j] = norms
        scaled = np.flatnonzero(np.isfinite(norms) & (norms > 0))
        if scaled.size:
            columns[scaled, j] = batch.narrow(scaled).corrupt(
                columns[scaled, j] / norms[scaled, np.newaxis], ops_per_element=1
            )
    U = np.empty((n_trials, m, n))
    Vt = np.empty_like(V)
    for trial in range(n_trials):
        s = singular_values[trial]
        order = np.argsort(-np.where(np.isfinite(s), s, -np.inf))
        U[trial] = columns[trial, order].T
        singular_values[trial] = s[order]
        Vt[trial] = V[trial, order]
    return U, singular_values, Vt


def svd_least_squares_batch(
    batch: ProcessorBatch, A: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """:func:`svd_least_squares` for every trial of ``batch``.

    ``A`` is a ``(n_trials, m, n)`` stack and ``b`` a ``(n_trials, m)`` stack.
    Returns the ``(n_trials, n)`` solutions; row ``t`` is bit-identical to
    ``svd_least_squares(batch.procs[t], A[t], b[t])``.  ``Uᵀb`` and
    ``V·scaled`` run as :func:`batch_matvec` over per-trial matrices.
    """
    A_arr = np.asarray(A, dtype=np.float64)
    b_arr = np.asarray(b, dtype=np.float64)
    if A_arr.ndim != 3 or b_arr.ndim != 2 or A_arr.shape[:2] != b_arr.shape:
        raise ValueError(
            f"least-squares shape mismatch: A {A_arr.shape}, b {b_arr.shape}"
        )
    U, s, Vt = jacobi_svd_batch(batch, A_arr)
    projected = batch_matvec(batch, U.transpose(0, 2, 1), b_arr)
    finite = np.isfinite(s)
    cutoffs = np.array(
        [
            _RCOND * (np.max(row[keep]) if np.any(keep) else 0.0)
            for row, keep in zip(s, finite)
        ]
    )
    usable = finite & (np.abs(s) > cutoffs[:, np.newaxis])
    inverse_s = np.divide(1.0, s, out=np.zeros_like(s), where=usable)
    scaled = batch.corrupt(projected * inverse_s, ops_per_element=1)
    return batch_matvec(batch, Vt.transpose(0, 2, 1), scaled)
