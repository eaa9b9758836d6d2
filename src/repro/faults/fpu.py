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

:class:`StochasticFPUBatch` drives the FPUs of a trial batch together, one
commit for every trial at once, with each trial's exact serial draws.
"""

from __future__ import annotations

import contextlib
import math
from array import array
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.faults.bitflip import flip_bit_scalar
from repro.faults.injector import FaultInjector

__all__ = ["StochasticFPU", "StochasticFPUBatch"]


def _divide(a: float, b: float) -> float:
    """IEEE-754 ``a / b`` on Python floats: ±inf or NaN for a zero divisor.

    ``b == 0.0`` also matches ``-0.0``; a zero divisor gives NaN for a zero
    or NaN dividend and otherwise an infinity with the dividend's sign.
    """
    if b == 0.0:
        if a == 0.0 or math.isnan(a):
            return math.nan
        return math.inf if a > 0 else -math.inf
    return a / b


# ``add`` and ``mul`` write their NaN rule out: a NaN ``a`` gives ``a`` itself,
# quieted (``a + 0.0``), whatever ``b`` is.  Left to Python, ``a + b`` or
# ``a * b`` of two NaNs takes one payload through the generic
# ``float.__add__`` / ``float.__mul__`` and the other once CPython 3.11+ has
# specialized the instruction (``b``'s, then ``a``'s, on x86-64), so the bits
# would depend on how often that line had run.  ``sub`` and ``div`` need no
# rule: their operands never swap.


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
        # Scalar-commit fast path: the backend's compiled kernel, if any.
        self._commit_kernel = self._injector.backend.kernel("commit_scalar")

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
        injector = self._injector
        if self._protected_depth > 0 or injector._fault_rate <= 0.0:
            return injector._round(value)
        return injector.corrupt_scalar(value)

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def add(self, a: float, b: float) -> float:
        """Floating-point addition ``a + b`` with possible corruption."""
        a, b = float(a), float(b)
        return self._commit(a + b if a == a else a + 0.0)

    def sub(self, a: float, b: float) -> float:
        """Floating-point subtraction ``a - b`` with possible corruption."""
        return self._commit(float(a) - float(b))

    def mul(self, a: float, b: float) -> float:
        """Floating-point multiplication ``a * b`` with possible corruption."""
        a, b = float(a), float(b)
        return self._commit(a * b if a == a else a + 0.0)

    def div(self, a: float, b: float) -> float:
        """Floating-point division ``a / b`` with possible corruption.

        Division by zero follows IEEE-754 semantics (returns ±inf or NaN)
        rather than raising, because that is what the hardware produces and
        the baselines must cope with it (or fail, which the metrics record).
        """
        return self._commit(_divide(float(a), float(b)))

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

    def abs(self, a: float) -> float:
        """Floating-point absolute value (counted as one FLOP)."""
        return self._commit(abs(float(a)))

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


class StochasticFPUBatch:
    """The scalar FPUs of a trial batch, one commit for every trial at once.

    The scalar counterpart of :class:`~repro.processor.batch.ProcessorBatch`.
    :meth:`add`, :meth:`sub`, :meth:`mul` and :meth:`div` take per-trial
    operands and return a list of ``n_trials`` Python floats; element ``t``
    is what ``fpus[t]``'s own operation would have returned, with the same
    draws from its injector and the same counters.  An operand is a scalar
    shared by every trial or a length-``n_trials`` sequence; a ``list`` must
    hold Python floats (results of earlier operations do), anything else is
    converted.  The arithmetic runs on Python floats, as in
    :class:`StochasticFPU`, and a float32 datapath rounds a whole commit in
    one ``array('f')`` pass.

    Each live trial keeps its next fault as an absolute commit index, filed
    under that index, so a commit with no fault due costs one round trip and
    one dictionary lookup.  A trial whose fault falls due calls its own
    injector's ``_schedule_next_fault`` and ``_draw_bit``, in the serial
    order, and its element goes through :func:`flip_bit_scalar`, range
    check included.  Trials at fault rate zero, or inside
    :meth:`StochasticFPU.protected` when the batch is built, draw nothing
    and count no injector operations.

    Counters are deferred: :meth:`flush` writes each trial's FLOPs, injector
    operations, faults and remaining countdown back.  Every trial must own
    its generator, and while a batch is live its FPUs must not run
    operations of their own.
    """

    def __init__(self, fpus: Sequence[StochasticFPU]) -> None:
        fpus = list(fpus)
        if not fpus:
            raise ValueError("StochasticFPUBatch requires at least one FPU")
        dtypes = {fpu.injector.dtype for fpu in fpus}
        if len(dtypes) != 1:
            raise ValueError(
                f"FPUs mix datapath dtypes {sorted(map(str, dtypes))}; "
                "a batch must come from one fault model"
            )
        self.fpus = fpus
        self._dtype = dtypes.pop()
        self._f32 = self._dtype == np.dtype(np.float32)
        self._n = len(fpus)
        self._live = [
            trial
            for trial, fpu in enumerate(fpus)
            if fpu._protected_depth == 0 and fpu.injector._fault_rate > 0.0
        ]
        # Commit index -> the trials whose next fault falls due there.  A
        # countdown of c faults the c-th commit from now (index c - 1), one
        # of 0 the next commit, a negative one never.
        self._due: Dict[int, List[int]] = {}
        for trial in self._live:
            countdown = fpus[trial].injector._ops_until_fault
            if countdown >= 0:
                self._schedule(trial, max(countdown, 1) - 1)
        self._commits = 0
        self._faults = [0] * self._n

    def _schedule(self, trial: int, index: int) -> None:
        self._due.setdefault(index, []).append(trial)

    def _row(self, x) -> List[float]:
        """One operand as a list of ``n_trials`` Python floats."""
        kind = type(x)
        if kind is float:
            return [x] * self._n
        row = x
        if kind is not list:
            arr = np.asarray(x, dtype=np.float64)
            if arr.ndim == 0:
                return [float(arr)] * self._n
            row = arr.tolist()
        if len(row) != self._n:
            raise ValueError(
                f"operand has {len(row)} rows; expected {self._n} (one per trial)"
            )
        return row

    def _commit(self, values: List[float]) -> List[float]:
        """Count one FLOP per trial and pass the results through the injectors."""
        index = self._commits
        self._commits = index + 1
        rounded = array("f", values).tolist() if self._f32 else values
        due = self._due.pop(index, None)
        if due is not None:
            for trial in due:
                injector = self.fpus[trial].injector
                injector._schedule_next_fault()
                self._schedule(trial, index + injector._ops_until_fault)
                rounded[trial] = flip_bit_scalar(
                    values[trial], injector._draw_bit(), self._dtype
                )
                self._faults[trial] += 1
        return rounded

    def flush(self) -> None:
        """Write the deferred counters and countdowns back to each trial's FPU."""
        commits = self._commits
        if commits == 0:
            return
        for fpu in self.fpus:
            fpu._flops += commits
        for trial in self._live:
            injector = self.fpus[trial].injector
            injector._ops_observed += commits
            injector._faults_injected += self._faults[trial]
            self._faults[trial] = 0
        # Rebase the fault schedule so the next commit is index 0 again.
        due, self._due = self._due, {}
        for index, trials in due.items():
            for trial in trials:
                self._schedule(trial, index - commits)
                self.fpus[trial].injector._ops_until_fault = index - commits + 1
        self._commits = 0

    # ------------------------------------------------------------------ #
    # Arithmetic (StochasticFPU's, row by row)
    # ------------------------------------------------------------------ #
    def add(self, a, b) -> List[float]:
        """Row-wise :meth:`StochasticFPU.add`, with its NaN rule."""
        return self._commit(
            [x + y if x == x else x + 0.0 for x, y in zip(self._row(a), self._row(b))]
        )

    def sub(self, a, b) -> List[float]:
        """Row-wise :meth:`StochasticFPU.sub`."""
        return self._commit([x - y for x, y in zip(self._row(a), self._row(b))])

    def mul(self, a, b) -> List[float]:
        """Row-wise :meth:`StochasticFPU.mul`, with its NaN rule."""
        return self._commit(
            [x * y if x == x else x + 0.0 for x, y in zip(self._row(a), self._row(b))]
        )

    def div(self, a, b) -> List[float]:
        """Row-wise :meth:`StochasticFPU.div`, with its zero-divisor rule."""
        return self._commit([_divide(x, y) for x, y in zip(self._row(a), self._row(b))])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StochasticFPUBatch(n_trials={self._n}, f32={self._f32})"
