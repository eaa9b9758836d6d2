"""Householder QR decomposition and QR-based least squares on the noisy FPU.

The QR baseline of the paper is "slower than Cholesky-based implementations,
but ... also more accurate".  We implement the standard Householder
triangularization with every reflection built and applied through the
stochastic processor's noisy primitives.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.faults.vectorized import quiet
from repro.linalg.ops import (
    noisy_matvec,
    noisy_norm2,
    noisy_outer,
    noisy_sub,
)
from repro.linalg.triangular import back_substitution
from repro.processor.stochastic import StochasticProcessor

__all__ = ["qr_decompose", "qr_least_squares"]


def _apply_householder(
    proc: StochasticProcessor, M: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Apply the reflector ``I - 2 v vᵀ`` to ``M`` using noisy primitives."""
    # w = vᵀ M  (row vector), then M - 2 v w
    w = noisy_matvec(proc, M.T, v)
    correction = noisy_outer(proc, 2.0 * v, w)
    return noisy_sub(proc, M, correction)


@quiet
def qr_decompose(
    proc: StochasticProcessor, A: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Reduced QR factorization ``A = Q R`` via Householder reflections.

    Returns ``Q`` of shape ``(m, n)`` and upper-triangular ``R`` of shape
    ``(n, n)``.  All arithmetic runs on the noisy FPU; corrupted reflector
    norms destroy orthogonality, which is how this baseline degrades in
    Figure 6.6.
    """
    A_arr = np.asarray(A, dtype=np.float64)
    if A_arr.ndim != 2:
        raise ValueError(f"QR requires a matrix, got shape {A_arr.shape}")
    m, n = A_arr.shape
    if m < n:
        raise ValueError(f"QR least-squares path requires m >= n, got {A_arr.shape}")
    fpu = proc.fpu
    R = A_arr.copy()
    Q_full = np.eye(m, dtype=np.float64)
    for k in range(n):
        column = R[k:, k].copy()
        norm = noisy_norm2(proc, column)
        if not np.isfinite(norm) or norm == 0.0:
            # A corrupted norm may be NaN/inf; skip the reflection (the
            # resulting factorization is wrong, which the metrics record).
            continue
        alpha = -norm if column[0] >= 0 else norm
        v = column.copy()
        v[0] = fpu.sub(v[0], alpha)
        v_norm = noisy_norm2(proc, v)
        if not np.isfinite(v_norm) or v_norm == 0.0:
            continue
        v = proc.corrupt(v / v_norm, ops_per_element=1)
        R[k:, k:] = _apply_householder(proc, R[k:, k:], v)
        Q_full[:, k:] = _apply_householder(proc, Q_full[:, k:].T, v).T
    Q = Q_full[:, :n]
    R_reduced = np.triu(R[:n, :n])
    return Q, R_reduced


def qr_least_squares(
    proc: StochasticProcessor, A: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Least-squares solution of ``min ||Ax - b||`` via Householder QR.

    Computes ``A = QR`` and solves ``R x = Qᵀ b`` by back substitution, all on
    the noisy FPU.
    """
    A_arr = np.asarray(A, dtype=np.float64)
    b_arr = np.asarray(b, dtype=np.float64).ravel()
    if A_arr.shape[0] != b_arr.shape[0]:
        raise ValueError(
            f"least-squares shape mismatch: A {A_arr.shape}, b {b_arr.shape}"
        )
    Q, R = qr_decompose(proc, A_arr)
    rhs = noisy_matvec(proc, Q.T, b_arr)
    return back_substitution(proc, R, rhs)
