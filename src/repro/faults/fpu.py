"""A scalar stochastic floating-point unit.

:class:`StochasticFPU` mirrors the role of the Leon3 FPU in the paper's FPGA
framework: every arithmetic result may be corrupted by the fault injector
before it is "committed".  It is the high-fidelity, per-operation simulation
mode; the from-scratch baseline algorithms (quicksort, Hungarian, QR, SVD,
Cholesky, direct-form IIR, Ford–Fulkerson, Floyd–Warshall) execute their
floating-point work through this class so that they are exposed to exactly
the error population the paper's baselines see.

Control-phase work (loop counters, convergence checks, step-size updates) is
assumed reliable in the paper; code models this by simply not routing those
computations through the FPU, or by wrapping them in :meth:`protected`.
"""

from __future__ import annotations

import contextlib
import math
from typing import Iterator, Optional

import numpy as np

from repro.faults.injector import FaultInjector

__all__ = ["StochasticFPU"]


class StochasticFPU:
    """Scalar floating-point operations routed through a fault injector.

    Parameters
    ----------
    injector:
        The fault injector supplying corruption decisions.  When ``None`` a
        fault-free injector is created (useful for fault-free reference runs
        that still want FLOP accounting).
    """

    def __init__(self, injector: Optional[FaultInjector] = None) -> None:
        self._injector = injector if injector is not None else FaultInjector(0.0)
        self._flops = 0
        self._protected_depth = 0
        # Scalar-commit fast path: bind the backend's compiled kernel when
        # the injector's substrate preconditions hold (its own corrupt_array
        # binding encodes them: stock bit distribution, non-LFSR generator).
        kernel = self._injector.backend.kernel("commit_scalar")
        self._commit_kernel = (
            kernel
            if kernel is not None and self._injector._array_kernel is not None
            else None
        )

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #
    @property
    def injector(self) -> FaultInjector:
        """The underlying fault injector."""
        return self._injector

    @property
    def flops(self) -> int:
        """Number of floating-point operations executed so far."""
        return self._flops

    @property
    def faults_injected(self) -> int:
        """Number of corrupted results produced so far."""
        return self._injector.faults_injected

    def reset_counters(self) -> None:
        """Zero the FLOP and fault counters."""
        self._flops = 0
        self._injector.reset_statistics()

    @contextlib.contextmanager
    def protected(self) -> Iterator["StochasticFPU"]:
        """Context manager for reliable (error-free) control-phase regions.

        The paper assumes control steps "are carried out reliably as they are
        critical for convergence"; inside this context the injector is
        bypassed but FLOPs are still counted.
        """
        self._protected_depth += 1
        try:
            yield self
        finally:
            self._protected_depth -= 1

    def _commit(self, value: float) -> float:
        """Count one FLOP and pass its result through the injector."""
        self._flops += 1
        if self._commit_kernel is not None:
            return self._commit_kernel(self, value)
        if self._protected_depth > 0 or self._injector.fault_rate <= 0.0:
            return float(np.asarray(value, dtype=self._injector.dtype))
        return self._injector.corrupt_scalar(value)

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def add(self, a: float, b: float) -> float:
        """Floating-point addition ``a + b`` with possible corruption."""
        return self._commit(float(a) + float(b))

    def sub(self, a: float, b: float) -> float:
        """Floating-point subtraction ``a - b`` with possible corruption."""
        return self._commit(float(a) - float(b))

    def mul(self, a: float, b: float) -> float:
        """Floating-point multiplication ``a * b`` with possible corruption."""
        return self._commit(float(a) * float(b))

    def div(self, a: float, b: float) -> float:
        """Floating-point division ``a / b`` with possible corruption.

        Division by zero follows IEEE-754 semantics (returns ±inf or NaN)
        rather than raising, because that is what the hardware produces and
        the baselines must cope with it (or fail, which the metrics record).
        """
        a_f, b_f = float(a), float(b)
        if b_f == 0.0:
            if a_f == 0.0 or math.isnan(a_f):
                result = math.nan
            else:
                result = math.inf if a_f > 0 else -math.inf
        else:
            result = a_f / b_f
        return self._commit(result)

    def sqrt(self, a: float) -> float:
        """Floating-point square root with possible corruption.

        Negative inputs yield NaN (IEEE-754 semantics) instead of raising.
        """
        a_f = float(a)
        result = math.nan if (math.isnan(a_f) or a_f < 0.0) else math.sqrt(a_f)
        return self._commit(result)

    def move(self, a: float) -> float:
        """Move / copy a value through the FPU register file.

        The paper's fault injector corrupts FPU results "before [they are]
        committed to a register", which includes the loads, stores, and moves
        a conventional implementation performs on its data; this is how the
        baseline sort can end up with "wrongly sorted numbers" (corrupted
        values), not just wrong orderings.  Counted as one FLOP.
        """
        return self._commit(float(a))

    def neg(self, a: float) -> float:
        """Floating-point negation (counted as one FLOP, may be corrupted)."""
        return self._commit(-float(a))

    def abs(self, a: float) -> float:
        """Floating-point absolute value (counted as one FLOP)."""
        return self._commit(abs(float(a)))

    def fma(self, a: float, b: float, c: float) -> float:
        """Fused multiply-add ``a * b + c`` executed as two FPU operations."""
        return self.add(self.mul(a, b), c)

    # ------------------------------------------------------------------ #
    # Comparisons (routed through a subtraction, as on real hardware)
    # ------------------------------------------------------------------ #
    def less_than(self, a: float, b: float) -> bool:
        """Noisy comparison ``a < b`` implemented via an FPU subtraction.

        A corrupted difference can invert the comparison outcome — this is
        precisely how timing errors break the conventional sorting and
        matching baselines.  NaN differences compare as ``False`` (neither
        less-than nor greater-than), matching IEEE behaviour.
        """
        diff = self.sub(a, b)
        if math.isnan(diff):
            return False
        return diff < 0.0

    def greater_than(self, a: float, b: float) -> bool:
        """Noisy comparison ``a > b`` via an FPU subtraction."""
        diff = self.sub(a, b)
        if math.isnan(diff):
            return False
        return diff > 0.0

    def compare(self, a: float, b: float) -> int:
        """Noisy three-way comparison: -1, 0 or +1 for ``a ? b``."""
        diff = self.sub(a, b)
        if math.isnan(diff) or diff == 0.0:
            return 0
        return -1 if diff < 0.0 else 1

    # ------------------------------------------------------------------ #
    # Small vector helpers used by the scalar baselines
    # ------------------------------------------------------------------ #
    def dot(self, x, y) -> float:
        """Noisy dot product computed with scalar multiply/accumulate steps."""
        x_arr = np.asarray(x, dtype=np.float64)
        y_arr = np.asarray(y, dtype=np.float64)
        if x_arr.shape != y_arr.shape:
            raise ValueError(
                f"dot product shape mismatch: {x_arr.shape} vs {y_arr.shape}"
            )
        acc = 0.0
        for a, b in zip(x_arr.ravel(), y_arr.ravel()):
            acc = self.add(acc, self.mul(float(a), float(b)))
        return acc

    def sum(self, values) -> float:
        """Noisy sequential summation."""
        acc = 0.0
        for v in np.asarray(values, dtype=np.float64).ravel():
            acc = self.add(acc, float(v))
        return acc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StochasticFPU(fault_rate={self._injector.fault_rate!r}, "
            f"flops={self._flops}, faults={self.faults_injected})"
        )
