"""Noisy array-level floating-point primitives.

Every function here takes a :class:`~repro.processor.stochastic.StochasticProcessor`
and performs a standard dense linear-algebra operation whose result is passed
through the processor's fault injector.  FLOPs are accounted per element so
that the energy model (Figure 6.7) and the overhead analysis (Chapter 7) can
be regenerated.

Fault-injection fidelity
------------------------
For elementwise operations the result of every individual FLOP is corrupted
independently, exactly as on the scalar FPU.  For reductions (dot products,
matrix-vector and matrix-matrix products, norms) the elementwise products are
corrupted individually and the accumulated sum is then corrupted once with an
effective probability of ``1 - (1 - p)**(k - 1)`` for ``k`` accumulated terms —
i.e. a fault anywhere in the accumulation chain corrupts the final value.
This collapses the accumulation chain into a single corruption event, which is
the standard trade-off that makes 10,000-iteration sweeps tractable; the
scalar :class:`~repro.faults.fpu.StochasticFPU` remains available when exact
per-operation behaviour is required (and is used by the unit tests to validate
the approximation).
"""

from __future__ import annotations

import numpy as np

from repro.faults.vectorized import quiet
from repro.processor.stochastic import StochasticProcessor

__all__ = [
    "noisy_add",
    "noisy_sub",
    "noisy_scale",
    "noisy_axpy",
    "noisy_dot",
    "noisy_matvec",
    "noisy_matmul",
    "noisy_norm2",
    "noisy_norm2_squared",
    "noisy_outer",
    "reliable_flop_count",
]


def _as_float(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


@quiet
def noisy_add(proc: StochasticProcessor, x, y) -> np.ndarray:
    """Elementwise addition ``x + y`` on the noisy FPU."""
    return proc.corrupt(_as_float(x) + _as_float(y), ops_per_element=1)


@quiet
def noisy_sub(proc: StochasticProcessor, x, y) -> np.ndarray:
    """Elementwise subtraction ``x - y`` on the noisy FPU."""
    return proc.corrupt(_as_float(x) - _as_float(y), ops_per_element=1)


@quiet
def noisy_scale(proc: StochasticProcessor, alpha: float, x) -> np.ndarray:
    """Scalar-vector product ``alpha * x`` on the noisy FPU."""
    return proc.corrupt(float(alpha) * _as_float(x), ops_per_element=1)


def noisy_axpy(proc: StochasticProcessor, alpha: float, x, y) -> np.ndarray:
    """``alpha * x + y`` executed as a multiply pass followed by an add pass."""
    scaled = noisy_scale(proc, alpha, x)
    return noisy_add(proc, scaled, y)


@quiet
def noisy_dot(proc: StochasticProcessor, x, y) -> float:
    """Dot product with per-product corruption and one accumulation corruption."""
    x_arr, y_arr = _as_float(x).ravel(), _as_float(y).ravel()
    if x_arr.shape != y_arr.shape:
        raise ValueError(f"dot shape mismatch: {x_arr.shape} vs {y_arr.shape}")
    if x_arr.size == 0:
        return 0.0
    products = proc.corrupt(x_arr * y_arr, ops_per_element=1)
    total = proc.corrupt(products.sum(keepdims=True), ops_per_element=max(x_arr.size - 1, 1))
    return float(total[0])


def noisy_norm2_squared(proc: StochasticProcessor, x) -> float:
    """Squared Euclidean norm ``x.x`` on the noisy FPU."""
    return noisy_dot(proc, x, x)


def noisy_norm2(proc: StochasticProcessor, x) -> float:
    """Euclidean norm on the noisy FPU (square root is one more noisy FLOP)."""
    squared = noisy_norm2_squared(proc, x)
    value = np.sqrt(squared) if squared >= 0 else np.nan
    return float(proc.corrupt(np.asarray([value]), ops_per_element=1)[0])


@quiet
def noisy_matvec(proc: StochasticProcessor, A, x) -> np.ndarray:
    """Matrix-vector product with per-row accumulation corruption."""
    A_arr, x_arr = _as_float(A), _as_float(x).ravel()
    if A_arr.ndim != 2 or A_arr.shape[1] != x_arr.shape[0]:
        raise ValueError(f"matvec shape mismatch: {A_arr.shape} @ {x_arr.shape}")
    n = A_arr.shape[1]
    if n == 0:
        return np.zeros(A_arr.shape[0])
    products = proc.corrupt(A_arr * x_arr[np.newaxis, :], ops_per_element=1)
    row_sums = proc.corrupt(products.sum(axis=1), ops_per_element=max(n - 1, 1))
    return row_sums


#: Above this many scalar multiplications a matrix product corrupts only its
#: final entries (one event per entry) instead of materializing every product.
_MATMUL_EXACT_LIMIT = 2_000_000


@quiet
def noisy_matmul(proc: StochasticProcessor, A, B) -> np.ndarray:
    """Matrix-matrix product on the noisy FPU.

    Small products materialize every elementwise multiplication and corrupt
    them individually before the accumulation corruption; large products fall
    back to corrupting each output entry once with the effective probability
    of its whole accumulation chain (2k-1 FLOPs).
    """
    A_arr, B_arr = _as_float(A), _as_float(B)
    if A_arr.ndim != 2 or B_arr.ndim != 2 or A_arr.shape[1] != B_arr.shape[0]:
        raise ValueError(f"matmul shape mismatch: {A_arr.shape} @ {B_arr.shape}")
    m, k = A_arr.shape
    n = B_arr.shape[1]
    if k == 0 or m == 0 or n == 0:
        proc.count_flops(0)
        return np.zeros((m, n))
    if m * k * n <= _MATMUL_EXACT_LIMIT:
        products = proc.corrupt(
            A_arr[:, :, np.newaxis] * B_arr[np.newaxis, :, :], ops_per_element=1
        )
        return proc.corrupt(products.sum(axis=1), ops_per_element=max(k - 1, 1))
    return proc.corrupt(A_arr @ B_arr, ops_per_element=2 * k - 1)


@quiet
def noisy_outer(proc: StochasticProcessor, x, y) -> np.ndarray:
    """Outer product ``x yᵀ`` with each entry corrupted independently."""
    x_arr, y_arr = _as_float(x).ravel(), _as_float(y).ravel()
    return proc.corrupt(np.outer(x_arr, y_arr), ops_per_element=1)


def reliable_flop_count(operation: str, *shape_args: int) -> int:
    """Standard FLOP counts for dense operations, for reliable-path accounting.

    Supported operations: ``"dot"`` (n), ``"matvec"`` (m, n), ``"matmul"``
    (m, k, n), ``"axpy"`` (n), ``"norm"`` (n).
    """
    if operation == "dot":
        (n,) = shape_args
        return max(2 * n - 1, 0)
    if operation == "matvec":
        m, n = shape_args
        return m * max(2 * n - 1, 0)
    if operation == "matmul":
        m, k, n = shape_args
        return m * n * max(2 * k - 1, 0)
    if operation == "axpy":
        (n,) = shape_args
        return 2 * n
    if operation == "norm":
        (n,) = shape_args
        return 2 * n
    raise ValueError(f"unknown operation {operation!r}")
