"""Named fault-model presets.

A :class:`FaultModel` bundles a floating-point dtype with a bit-position
distribution and a human-readable description, so that experiments can be
configured by name (``"leon3-fpu"``) rather than by re-assembling the pieces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Union

import numpy as np

from repro.exceptions import FaultModelError
from repro.faults.bitflip import bit_width
from repro.faults.distribution import (
    BitPositionDistribution,
    EmulatedBitDistribution,
    LowOrderBitDistribution,
    MeasuredBitDistribution,
    UniformBitDistribution,
)
from repro.faults.injector import FaultInjector

__all__ = ["FaultModel", "get_fault_model", "list_fault_models"]


@dataclass(frozen=True)
class FaultModel:
    """A named configuration of the fault-injection substrate.

    Attributes
    ----------
    name:
        Registry key, e.g. ``"leon3-fpu"``.
    dtype:
        Floating-point dtype of the simulated FPU datapath.
    bit_distribution:
        Distribution over which bit a fault flips; its width must be the
        dtype's, or construction raises :class:`FaultModelError`.
    description:
        One-line description used in reports and documentation.
    """

    name: str
    dtype: np.dtype
    bit_distribution: BitPositionDistribution
    description: str = ""

    def __post_init__(self) -> None:
        width = bit_width(self.dtype)
        if self.bit_distribution.width != width:
            raise FaultModelError(
                f"fault model {self.name!r}: bit distribution is over "
                f"{self.bit_distribution.width} bits but dtype "
                f"{np.dtype(self.dtype)} has {width} bits"
            )

    def make_injector(
        self,
        fault_rate: float = 0.0,
        rng: Union[np.random.Generator, int, None] = None,
    ) -> FaultInjector:
        """Build a :class:`FaultInjector` configured according to this model."""
        return FaultInjector(
            fault_rate=fault_rate,
            bit_distribution=self.bit_distribution,
            dtype=self.dtype,
            rng=rng,
        )


def _leon3_fpu() -> FaultModel:
    return FaultModel(
        name="leon3-fpu",
        dtype=np.dtype(np.float32),
        bit_distribution=EmulatedBitDistribution(width=32),
        description=(
            "Single-precision Leon3 FPU with the paper's emulated bimodal "
            "bit-position distribution (Figure 5.1)."
        ),
    )


def _leon3_fpu_measured() -> FaultModel:
    return FaultModel(
        name="leon3-fpu-measured",
        dtype=np.dtype(np.float32),
        bit_distribution=MeasuredBitDistribution(width=32),
        description=(
            "Single-precision FPU driven by the synthetic 'measured' "
            "bit-position distribution used for the Figure 5.1 comparison."
        ),
    )


def _double_precision() -> FaultModel:
    return FaultModel(
        name="double-precision",
        dtype=np.dtype(np.float64),
        bit_distribution=EmulatedBitDistribution(width=64),
        description="Double-precision datapath with the emulated bimodal distribution.",
    )


def _uniform_bits() -> FaultModel:
    return FaultModel(
        name="uniform-bits",
        dtype=np.dtype(np.float32),
        bit_distribution=UniformBitDistribution(width=32),
        description="Ablation model: faults strike every bit position uniformly.",
    )


def _low_order_only() -> FaultModel:
    return FaultModel(
        name="low-order-only",
        dtype=np.dtype(np.float32),
        bit_distribution=LowOrderBitDistribution(width=32, n_bits=8),
        description=(
            "Ablation model: mild overscaling where only the lowest 8 mantissa "
            "bits can be corrupted (low-magnitude errors only)."
        ),
    )


def _uniform_bits_64() -> FaultModel:
    return FaultModel(
        name="uniform-bits-64",
        dtype=np.dtype(np.float64),
        bit_distribution=UniformBitDistribution(width=64),
        description=(
            "Ablation model: double-precision datapath with faults striking "
            "every bit position (exponent included) uniformly."
        ),
    )


def _measured_64() -> FaultModel:
    return FaultModel(
        name="measured-64",
        dtype=np.dtype(np.float64),
        bit_distribution=MeasuredBitDistribution(width=64),
        description=(
            "Double-precision datapath driven by the synthetic 'measured' "
            "bit-position distribution at 64-bit width."
        ),
    )


_REGISTRY: Dict[str, Callable[[], FaultModel]] = {
    "leon3-fpu": _leon3_fpu,
    "leon3-fpu-measured": _leon3_fpu_measured,
    "double-precision": _double_precision,
    "uniform-bits": _uniform_bits,
    "low-order-only": _low_order_only,
    "uniform-bits-64": _uniform_bits_64,
    "measured-64": _measured_64,
}


def get_fault_model(name: str) -> FaultModel:
    """Look up a fault model preset by name."""
    try:
        return _REGISTRY[name]()
    except KeyError as exc:
        raise FaultModelError(
            f"unknown fault model {name!r}; available: {list_fault_models()}"
        ) from exc


def list_fault_models() -> list[str]:
    """Names of the fault-model presets."""
    return sorted(_REGISTRY)
