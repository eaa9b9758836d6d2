"""The fault injector: decides *when* faults strike and corrupts FPU results.

This is the software equivalent of the paper's "software-controlled fault
injector module that we mapped onto the FPGA.  At random times, the fault
injector perturbs one randomly chosen bit in the output of the FPU before it
is committed to a register."

Two operating modes are provided:

* **Per-operation mode** (:meth:`FaultInjector.corrupt_scalar`): every scalar
  FPU result passes through the injector; a countdown of operations until the
  next fault is drawn from a uniform distribution (mean ``1 / fault_rate``),
  mirroring the LFSR-timed hardware injector.  This is the high-fidelity mode
  used by the scalar :class:`repro.faults.fpu.StochasticFPU`.
* **Vectorized mode** (:meth:`FaultInjector.corrupt_array`): an array of
  results, each standing for ``ops_per_element`` FLOPs, is corrupted in one
  shot: each element independently faults with probability
  ``1 - (1 - rate)**ops_per_element`` and a random bit (drawn from the bit
  position distribution) is flipped.  This is statistically equivalent for
  the quantities the paper reports while being fast enough for the fault-rate
  sweeps in the benchmark harness.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.backends import ComputeBackend, active_backend
from repro.exceptions import FaultModelError
from repro.faults.bitflip import bit_width, flip_bit_scalar
from repro.faults.distribution import BitPositionDistribution, EmulatedBitDistribution
from repro.faults.lfsr import LFSR
from repro.faults.vectorized import corrupt_array, effective_fault_probability

__all__ = ["FaultInjector"]


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
        Either a :class:`numpy.random.Generator`, an integer seed, ``None``
        (fresh default generator), or the string ``"lfsr"`` to time faults
        with the same LFSR construction as the hardware injector.
    lfsr_seed:
        Seed for the LFSR when ``rng == "lfsr"``.
    """

    def __init__(
        self,
        fault_rate: float = 0.0,
        bit_distribution: Optional[BitPositionDistribution] = None,
        dtype: np.dtype = np.float32,
        rng: Union[np.random.Generator, int, str, None] = None,
        lfsr_seed: int = 0xACE1_2357,
    ) -> None:
        self._dtype = np.dtype(dtype)
        self._width = bit_width(self._dtype)
        if bit_distribution is None:
            bit_distribution = EmulatedBitDistribution(width=self._width)
        if bit_distribution.width != self._width:
            raise FaultModelError(
                f"bit distribution is over {bit_distribution.width} bits but "
                f"dtype {self._dtype} has {self._width} bits"
            )
        self._bit_distribution = bit_distribution
        self._use_lfsr = rng == "lfsr"
        if self._use_lfsr:
            self._lfsr = LFSR(seed=lfsr_seed)
            self._rng = np.random.default_rng(lfsr_seed)
        else:
            self._lfsr = None
            if isinstance(rng, np.random.Generator):
                self._rng = rng
            else:
                self._rng = np.random.default_rng(rng)
        self._fault_rate = 0.0
        self._ops_until_fault = -1
        self._faults_injected = 0
        self._ops_observed = 0
        self.fault_rate = fault_rate
        # Compute backend, resolved once at construction (the executors wrap
        # trial execution in use_backend, so processors built for a sweep see
        # the sweep's choice).  The accelerated corrupt_array kernel requires
        # generator-timed faults and the stock inverse-CDF bit sampler; any
        # other configuration stays on the numpy tier.
        self._backend = active_backend()
        kernel = self._backend.kernel("corrupt_array")
        self._array_kernel = (
            kernel
            if kernel is not None
            and not self._use_lfsr
            and type(self._bit_distribution).sample is BitPositionDistribution.sample
            else None
        )

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
    def uses_lfsr(self) -> bool:
        """Whether faults are timed by the hardware-style LFSR."""
        return self._use_lfsr

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
        if self._use_lfsr:
            return self._lfsr.randint(1, upper)
        return int(self._rng.integers(1, upper + 1))

    def _schedule_next_fault(self) -> None:
        if self._fault_rate <= 0.0:
            self._ops_until_fault = -1
        else:
            self._ops_until_fault = self._uniform_interval()

    def _draw_bit(self) -> int:
        if self._use_lfsr:
            return self._bit_distribution.sample_scalar(self._lfsr)
        return int(self._bit_distribution.sample(self._rng, size=1)[0])

    def corrupt_scalar(self, value: float) -> float:
        """Pass one scalar FPU result through the injector.

        Returns either the original value or, when the inter-fault countdown
        expires, the value with one randomly chosen bit flipped.
        """
        self._ops_observed += 1
        with np.errstate(over="ignore", invalid="ignore"):
            if self._ops_until_fault < 0:
                return float(np.asarray(value, dtype=self._dtype))
            self._ops_until_fault -= 1
            if self._ops_until_fault > 0:
                return float(np.asarray(value, dtype=self._dtype))
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
        ``1 - (1 - fault_rate)**ops_per_element``.

        Returns a new array of the injector's dtype; the input is unchanged.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            arr = np.asarray(values, dtype=self._dtype)
        n_elements = arr.size
        ops = np.asarray(ops_per_element)
        if ops.ndim == 0:
            self._ops_observed += int(ops) * n_elements
        else:
            ops = np.broadcast_to(ops, arr.shape)
            self._ops_observed += int(np.sum(ops))
        if self._fault_rate <= 0.0 or n_elements == 0:
            return arr.copy()
        if self._array_kernel is not None and ops.ndim == 0:
            # Backend fast path: same draw protocol as the numpy kernel below
            # (bit-identical tier), run as one compiled call on the native
            # copy.  ndarray.copy() is C-ordered, matching the kernel's flat
            # iteration.
            out = arr.copy()
            n_faults = self._array_kernel(self, out, int(ops))
            self._faults_injected += int(n_faults)
            return out
        corrupted, n_faults = corrupt_array(
            arr,
            fault_rate=self._fault_rate,
            ops_per_element=ops,
            bit_distribution=self._bit_distribution,
            rng=self._rng,
        )
        self._faults_injected += int(n_faults)
        return corrupted

    def fault_probability(self, ops_per_element: Union[int, np.ndarray]) -> np.ndarray:
        """Probability that a result of ``ops_per_element`` FLOPs is corrupted."""
        return effective_fault_probability(self._fault_rate, ops_per_element)

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
    def spawn(self, fault_rate: Optional[float] = None) -> "FaultInjector":
        """Create an injector with the same configuration but fresh counters.

        Used by the experiment runner to give each trial an independent
        random stream derived from this injector's generator.
        """
        child_seed = int(self._rng.integers(0, 2**63 - 1))
        return FaultInjector(
            fault_rate=self._fault_rate if fault_rate is None else fault_rate,
            bit_distribution=self._bit_distribution,
            dtype=self._dtype,
            rng=np.random.default_rng(child_seed),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultInjector(fault_rate={self._fault_rate!r}, dtype={self._dtype}, "
            f"faults_injected={self._faults_injected})"
        )
