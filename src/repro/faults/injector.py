"""The fault injector: decides *when* faults strike and corrupts FPU results.

This is the software equivalent of the paper's "software-controlled fault
injector module that we mapped onto the FPGA.  At random times, the fault
injector perturbs one randomly chosen bit in the output of the FPU before it
is committed to a register."

Two operating modes are provided:

* **Per-operation mode** (:meth:`FaultInjector.corrupt_scalar`): every scalar
  FPU result passes through the injector; a countdown of operations until the
  next fault is drawn from a uniform distribution (mean ``1 / fault_rate``),
  as the paper's hardware injector times its faults.  This is the
  high-fidelity mode used by the scalar :class:`repro.faults.fpu.StochasticFPU`.
* **Vectorized mode** (:meth:`FaultInjector.corrupt_array`): an array of
  results, each standing for ``ops_per_element`` FLOPs, is corrupted in one
  shot: each element independently faults with probability
  ``1 - (1 - rate)**ops_per_element`` and a random bit (drawn from the bit
  position distribution) is flipped.  This is statistically equivalent for
  the quantities the paper reports while being fast enough for the fault-rate
  sweeps in the benchmark harness.

Both modes draw the fault times and the flipped bits from the injector's own
numpy :class:`~numpy.random.Generator`, the bits by the inverse-CDF lookup of
:meth:`BitPositionDistribution.sample
<repro.faults.distribution.BitPositionDistribution.sample>`.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.backends import ComputeBackend, active_backend
from repro.exceptions import FaultModelError
from repro.faults.bitflip import bit_width, flip_bit_scalar
from repro.faults.distribution import BitPositionDistribution, EmulatedBitDistribution
from repro.faults.vectorized import (
    check_ops,
    corrupt_inplace,
    quiet_cast,
)

__all__ = ["FaultInjector"]

#: Largest finite float32: a value inside ``[-_F32_MAX, _F32_MAX]`` rounds to
#: float32 without overflow, so its cast cannot warn.
_F32_MAX = float(np.finfo(np.float32).max)


class FaultInjector:
    """Injects single-bit faults into floating-point results at a given rate.

    Parameters
    ----------
    fault_rate:
        Probability that any single floating-point operation produces a
        corrupted result.  The paper expresses this as "% of FLOPs"; here it
        is a fraction in ``[0, 1]`` (so the paper's 50 % fault rate is 0.5).
    bit_distribution:
        Distribution over which bit of the result is flipped.  Defaults to the
        emulated bimodal distribution of Figure 5.1.
    dtype:
        Floating-point dtype of the simulated FPU datapath.  The paper's
        Leon3 FPU experiments use single precision; ``float32`` is therefore
        the default, but ``float64`` is fully supported.
    rng:
        Either a :class:`numpy.random.Generator`, an integer seed, or ``None``
        (fresh default generator).
    """

    def __init__(
        self,
        fault_rate: float = 0.0,
        bit_distribution: Optional[BitPositionDistribution] = None,
        dtype: np.dtype = np.float32,
        rng: Union[np.random.Generator, int, None] = None,
    ) -> None:
        self._dtype = np.dtype(dtype)
        self._width = bit_width(self._dtype)
        self._f32 = self._dtype == np.dtype(np.float32)
        if bit_distribution is None:
            bit_distribution = EmulatedBitDistribution(width=self._width)
        if bit_distribution.width != self._width:
            raise FaultModelError(
                f"bit distribution is over {bit_distribution.width} bits but "
                f"dtype {self._dtype} has {self._width} bits"
            )
        self._bit_distribution = bit_distribution
        # default_rng returns a Generator unaltered.
        self._rng = np.random.default_rng(rng)
        self._fault_rate = 0.0
        self._ops_until_fault = -1
        self._faults_injected = 0
        self._ops_observed = 0
        self.fault_rate = fault_rate
        # Compute backend, resolved once at construction (the executors wrap
        # trial execution in use_backend, so processors built for a sweep see
        # the sweep's choice).
        self._backend = active_backend()
        self._array_kernel = self._backend.kernel("corrupt_array")

    # ------------------------------------------------------------------ #
    # Configuration
    # ------------------------------------------------------------------ #
    @property
    def dtype(self) -> np.dtype:
        """Floating-point dtype of the simulated datapath."""
        return self._dtype

    @property
    def bit_distribution(self) -> BitPositionDistribution:
        """Distribution over which bit of a faulty result is flipped."""
        return self._bit_distribution

    @property
    def rng(self) -> np.random.Generator:
        """The injector's random generator (used by batched fault kernels)."""
        return self._rng

    @property
    def backend(self) -> ComputeBackend:
        """The compute backend this injector resolved at construction."""
        return self._backend

    @property
    def fault_rate(self) -> float:
        """Probability of corruption per floating-point operation."""
        return self._fault_rate

    @fault_rate.setter
    def fault_rate(self, rate: float) -> None:
        rate = float(rate)
        if not 0.0 <= rate <= 1.0:
            raise FaultModelError(f"fault rate must be in [0, 1], got {rate}")
        self._fault_rate = rate
        self._schedule_next_fault()

    @property
    def faults_injected(self) -> int:
        """Total number of bit flips injected so far."""
        return self._faults_injected

    @property
    def ops_observed(self) -> int:
        """Total number of floating-point operations routed through the injector."""
        return self._ops_observed

    def reset_statistics(self) -> None:
        """Zero the fault and operation counters (configuration unchanged)."""
        self._faults_injected = 0
        self._ops_observed = 0

    # ------------------------------------------------------------------ #
    # Per-operation (scalar) path
    # ------------------------------------------------------------------ #
    def _uniform_interval(self) -> int:
        """Draw the number of operations until the next fault.

        The hardware injector draws inter-fault times from a uniform
        distribution; we use Uniform{1, ..., round(2 / rate)} whose mean is
        ``1 / rate`` operations.
        """
        upper = max(1, int(round(2.0 / self._fault_rate)))
        return int(self._rng.integers(1, upper + 1))

    def _schedule_next_fault(self) -> None:
        if self._fault_rate <= 0.0:
            self._ops_until_fault = -1
        else:
            self._ops_until_fault = self._uniform_interval()

    def _draw_bit(self) -> int:
        # BitPositionDistribution.sample(rng, size=1)[0] for one draw:
        # rng.random() consumes the same double as rng.random(1).
        return int(
            self._bit_distribution.cdf().searchsorted(self._rng.random(), side="right")
        )

    def _round(self, value: float) -> float:
        """``value`` rounded to the datapath dtype, as a Python float.

        Only a float32 cast of a value outside the finite float32 range (or
        of NaN / inf) can raise a floating-point warning, so only those
        values pay for an ``np.errstate`` scope.
        """
        if not self._f32:
            return float(value)
        if -_F32_MAX <= value <= _F32_MAX:
            return float(np.float32(value))
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.float32(value))

    def corrupt_scalar(self, value: float) -> float:
        """Pass one scalar FPU result through the injector.

        Returns either the original value or, when the inter-fault countdown
        expires, the value with one randomly chosen bit flipped.
        """
        self._ops_observed += 1
        if self._ops_until_fault < 0:
            return self._round(value)
        self._ops_until_fault -= 1
        if self._ops_until_fault > 0:
            return self._round(value)
        self._schedule_next_fault()
        self._faults_injected += 1
        return flip_bit_scalar(value, self._draw_bit(), dtype=self._dtype)

    # ------------------------------------------------------------------ #
    # Vectorized path
    # ------------------------------------------------------------------ #
    def corrupt_array(
        self, values: np.ndarray, ops_per_element: Union[int, np.ndarray] = 1
    ) -> np.ndarray:
        """Corrupt an array of results produced by a block of FLOPs.

        Each element is treated as the final result of ``ops_per_element``
        floating-point operations; it is corrupted with probability
        ``1 - (1 - fault_rate)**ops_per_element``.  A negative
        ``ops_per_element`` raises :class:`ValueError` before any draw.

        Returns a new C-ordered array of the injector's dtype; the input is
        unchanged.
        """
        check_ops(ops_per_element)
        # The datapath cast lands in the fresh C-ordered copy that is
        # corrupted in place and returned; it is the call's only step that
        # can raise a floating-point warning.
        out = quiet_cast(values, self._dtype)
        n_elements = out.size
        ops = ops_per_element
        scalar_ops = isinstance(ops, (int, np.integer))
        if not scalar_ops:
            ops = np.asarray(ops)
            scalar_ops = ops.ndim == 0
        if scalar_ops:
            self._ops_observed += int(ops) * n_elements
        else:
            ops = np.broadcast_to(ops, out.shape)
            self._ops_observed += int(np.sum(ops))
        if self._fault_rate <= 0.0 or n_elements == 0:
            return out
        if self._array_kernel is not None and scalar_ops:
            # Backend fast path: same draw protocol as the numpy kernel,
            # run as one compiled call over the C-ordered copy's flat
            # iteration (bit-identical tier).
            n_faults = self._array_kernel(self, out, int(ops))
        else:
            n_faults = corrupt_inplace(
                out, self._fault_rate, ops, self._bit_distribution, self._rng
            )
        self._faults_injected += int(n_faults)
        return out

    def record_vectorized(self, ops: int, faults: int) -> None:
        """Fold one batched corruption pass into this injector's counters.

        The tensorized trial backend corrupts whole trial stacks in fused
        :class:`~repro.processor.batch.ProcessorBatch` passes using this
        injector's generator and bit distribution directly; this hook keeps
        the per-injector operation and fault statistics identical to what the
        per-trial :meth:`corrupt_array` path would have recorded.
        """
        if ops < 0 or faults < 0:
            raise FaultModelError(
                f"operation and fault counts must be non-negative, got ({ops}, {faults})"
            )
        self._ops_observed += int(ops)
        self._faults_injected += int(faults)

    # ------------------------------------------------------------------ #
    # Misc
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultInjector(fault_rate={self._fault_rate!r}, dtype={self._dtype}, "
            f"faults_injected={self._faults_injected})"
        )
