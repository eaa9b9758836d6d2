"""The stochastic processor: fault injection + FLOP accounting + energy.

:class:`StochasticProcessor` is the central substrate object of the library.
It stands in for the paper's FPGA-hosted Leon3 core with an error-prone FPU:

* it owns a :class:`~repro.faults.injector.FaultInjector` and a scalar
  :class:`~repro.faults.fpu.StochasticFPU`;
* its fault rate can be set directly (as in the paper's fault-rate sweeps,
  "% of FLOPs") or indirectly by choosing a supply voltage via the
  voltage/error-rate model of Figure 5.2;
* it counts floating-point operations executed through it and converts them
  to energy via the Figure 6.7 model;
* it exposes vectorized noisy array operations used by the fast experiment
  path, and a :meth:`reliable` context for control-phase computation.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional, Union

import numpy as np

from repro.faults.injector import FaultInjector
from repro.faults.fpu import StochasticFPU
from repro.faults.models import FaultModel, get_fault_model
from repro.processor.energy import EnergyModel
from repro.processor.voltage import VoltageErrorModel

__all__ = ["StochasticProcessor"]


class StochasticProcessor:
    """A simulated voltage-overscaled processor with an error-prone FPU.

    Parameters
    ----------
    fault_rate:
        Initial fault rate (fraction of FLOPs corrupted).  Mutually exclusive
        with ``voltage``; if both are given, ``voltage`` wins.
    voltage:
        Initial supply voltage; the fault rate is derived from the voltage
        model.  ``None`` leaves the processor at the explicit ``fault_rate``.
    fault_model:
        A :class:`~repro.faults.models.FaultModel` instance or registry name.
        Defaults to ``"leon3-fpu"`` — single-precision datapath with the
        emulated bimodal bit distribution.
    voltage_model / energy_model:
        Models used to convert between voltage, error rate, and energy.
    rng:
        Seed, generator, ``None``, or ``"lfsr"`` (see
        :class:`~repro.faults.injector.FaultInjector`).
    """

    def __init__(
        self,
        fault_rate: float = 0.0,
        voltage: Optional[float] = None,
        fault_model: Union[str, FaultModel] = "leon3-fpu",
        voltage_model: Optional[VoltageErrorModel] = None,
        energy_model: Optional[EnergyModel] = None,
        rng: Union[np.random.Generator, int, str, None] = None,
    ) -> None:
        if isinstance(fault_model, str):
            fault_model = get_fault_model(fault_model)
        self._fault_model = fault_model
        self._voltage_model = voltage_model if voltage_model is not None else VoltageErrorModel()
        self._energy_model = energy_model if energy_model is not None else EnergyModel()
        self._injector = fault_model.make_injector(fault_rate=fault_rate, rng=rng)
        self._fpu = StochasticFPU(self._injector)
        # Fused corrupt fast path: bind the backend's corrupt_block kernel
        # when the injector's substrate preconditions hold (the injector's
        # own corrupt_array binding already encodes them: stock bit
        # distribution, non-LFSR generator, backend provides the C tier).
        block = self._injector.backend.kernel("corrupt_block")
        self._block_kernel = (
            block
            if block is not None and self._injector._array_kernel is not None
            else None
        )
        self._array_flops = 0
        self._voltage = self._voltage_model.max_voltage
        if voltage is not None:
            self.voltage = voltage
        else:
            # Record the voltage implied by the requested fault rate so that
            # energy accounting is consistent even when the caller thinks in
            # fault rates (as the paper's sweeps do).
            if fault_rate > 0:
                self._voltage = self._voltage_model.voltage_for_error_rate(fault_rate)

    # ------------------------------------------------------------------ #
    # Configuration
    # ------------------------------------------------------------------ #
    @property
    def fault_model(self) -> FaultModel:
        """The fault model preset this processor was built from."""
        return self._fault_model

    @property
    def injector(self) -> FaultInjector:
        """The underlying fault injector."""
        return self._injector

    @property
    def fpu(self) -> StochasticFPU:
        """Scalar FPU view of this processor (per-operation fault injection)."""
        return self._fpu

    @property
    def backend(self):
        """The compute backend the injector resolved at construction."""
        return self._injector.backend

    @property
    def dtype(self) -> np.dtype:
        """Floating-point dtype of the simulated datapath."""
        return self._injector.dtype

    @property
    def fault_rate(self) -> float:
        """Current probability of corruption per floating-point operation."""
        return self._injector.fault_rate

    @fault_rate.setter
    def fault_rate(self, rate: float) -> None:
        self._injector.fault_rate = rate
        if rate > 0:
            self._voltage = self._voltage_model.voltage_for_error_rate(rate)
        else:
            self._voltage = self._voltage_model.max_voltage

    @property
    def voltage(self) -> float:
        """Current supply voltage of the FPU."""
        return self._voltage

    @voltage.setter
    def voltage(self, voltage: float) -> None:
        self._voltage = float(voltage)
        self._injector.fault_rate = self._voltage_model.error_rate(self._voltage)

    @property
    def voltage_model(self) -> VoltageErrorModel:
        """The voltage/error-rate curve in effect (Figure 5.2)."""
        return self._voltage_model

    @property
    def energy_model(self) -> EnergyModel:
        """The energy model in effect (Figure 6.7)."""
        return self._energy_model

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #
    @property
    def flops(self) -> int:
        """Total FLOPs executed (scalar FPU plus vectorized array operations)."""
        return self._fpu.flops + self._array_flops

    @property
    def faults_injected(self) -> int:
        """Total corrupted results produced so far."""
        return self._injector.faults_injected

    def energy(self, voltage: Optional[float] = None) -> float:
        """Energy consumed so far (power at ``voltage`` × FLOPs executed)."""
        v = self._voltage if voltage is None else float(voltage)
        return self._energy_model.energy(self.flops, v)

    def reset_counters(self) -> None:
        """Zero the FLOP and fault counters without touching configuration."""
        self._fpu.reset_counters()
        self._injector.reset_statistics()
        self._array_flops = 0

    # ------------------------------------------------------------------ #
    # Reliable (control-phase) execution
    # ------------------------------------------------------------------ #
    @contextlib.contextmanager
    def reliable(self) -> Iterator["StochasticProcessor"]:
        """Temporarily disable fault injection for control-phase work.

        The paper assumes step-size updates, convergence tests, and the final
        rounding of combinatorial answers run reliably (for example at raised
        voltage); this context models that assumption while keeping FLOP
        accounting active.
        """
        saved_rate = self._injector.fault_rate
        saved_voltage = self._voltage
        self._injector.fault_rate = 0.0
        try:
            yield self
        finally:
            self._injector.fault_rate = saved_rate
            self._voltage = saved_voltage

    # ------------------------------------------------------------------ #
    # Vectorized noisy array operations (fast experiment path)
    # ------------------------------------------------------------------ #
    def corrupt(
        self, values: np.ndarray, ops_per_element: Union[int, np.ndarray] = 1
    ) -> np.ndarray:
        """Corrupt an array of results of a block of FLOPs and count the FLOPs."""
        if self._block_kernel is not None and type(ops_per_element) is int:
            # Backend fast path: the whole round trip (float64 view,
            # datapath cast, draws, widen back) as one compiled call with
            # the numpy tier's exact draw protocol.
            out = self._block_kernel(self, values, ops_per_element)
            self._array_flops += ops_per_element * out.size
            return out
        arr = np.asarray(values, dtype=np.float64)
        ops = np.asarray(ops_per_element)
        if ops.ndim == 0:
            self._array_flops += int(ops) * arr.size
        else:
            ops = np.broadcast_to(ops, arr.shape)
            self._array_flops += int(np.sum(ops))
        corrupted = self._injector.corrupt_array(arr, ops_per_element=ops)
        # Work in float64 downstream even when the datapath is float32; the
        # corruption itself happened at datapath precision.
        with np.errstate(invalid="ignore", over="ignore"):
            return corrupted.astype(np.float64)

    def count_flops(self, n: int) -> None:
        """Record ``n`` FLOPs that were executed reliably (no corruption)."""
        if n < 0:
            raise ValueError(f"flop count must be non-negative, got {n}")
        self._array_flops += int(n)

    def record_vectorized(self, ops: int, faults: int) -> None:
        """Fold one batched corruption pass into this processor's counters.

        Called by :class:`~repro.processor.batch.ProcessorBatch` after a fused
        corruption pass handled this processor's trial row: ``ops`` FLOPs were
        executed through the injector's generator and ``faults`` of their
        results were corrupted.  Leaves every counter exactly as the
        equivalent per-trial :meth:`corrupt` call would have left it.
        """
        if ops < 0:
            raise ValueError(f"flop count must be non-negative, got {ops}")
        self._array_flops += int(ops)
        self._injector.record_vectorized(ops, faults)

    def spawn(self, fault_rate: Optional[float] = None) -> "StochasticProcessor":
        """A fresh processor with the same models but independent randomness.

        Each experiment trial runs on its own spawned processor so that FLOP
        and fault counters are per-trial and random streams do not interact.
        """
        child = StochasticProcessor(
            fault_rate=self.fault_rate if fault_rate is None else fault_rate,
            fault_model=self._fault_model,
            voltage_model=self._voltage_model,
            energy_model=self._energy_model,
            rng=np.random.default_rng(int(self._injector._rng.integers(0, 2**63 - 1))),
        )
        return child

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StochasticProcessor(fault_rate={self.fault_rate!r}, "
            f"voltage={self.voltage:.3f}, flops={self.flops})"
        )
