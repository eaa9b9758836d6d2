"""FPU energy model (Figure 6.7).

The paper reports energy as ``Power × number of FLOPs`` on the y-axis of
Figure 6.7, with power determined by the supply voltage chosen via the
voltage/error-rate curve of Figure 5.2.  We use the standard dynamic-power
scaling ``P ∝ V²`` (frequency held constant under overscaling, as in the
paper's voltage-overscaling setting) normalized so that one FLOP at nominal
voltage costs one unit of energy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import VoltageModelError
from repro.processor.voltage import NOMINAL_VOLTAGE

__all__ = ["EnergyModel", "ENERGY_MODEL"]


@dataclass(frozen=True)
class EnergyModel:
    """Energy accounting for a voltage-overscaled FPU.

    Attributes
    ----------
    nominal_voltage:
        Voltage at which one FLOP costs exactly ``energy_per_flop_nominal``.
    voltage_exponent:
        Exponent of the power/voltage relationship; 2.0 corresponds to the
        usual dynamic-power model ``P ∝ V²``.
    energy_per_flop_nominal:
        Energy units consumed by a single FLOP at nominal voltage.
    """

    nominal_voltage: float = NOMINAL_VOLTAGE
    voltage_exponent: float = 2.0
    energy_per_flop_nominal: float = 1.0

    def power(self, voltage: float) -> float:
        """Relative FPU power at the given supply voltage."""
        voltage = float(voltage)
        if voltage <= 0:
            raise VoltageModelError(f"voltage must be positive, got {voltage}")
        return self.energy_per_flop_nominal * (
            (voltage / self.nominal_voltage) ** self.voltage_exponent
        )

    def energy(self, flops: float, voltage: float) -> float:
        """Energy of executing ``flops`` operations at ``voltage``.

        This is the paper's Figure 6.7 y-axis quantity (power × #FLOPs).
        """
        if flops < 0:
            raise VoltageModelError(f"flop count must be non-negative, got {flops}")
        return self.power(voltage) * float(flops)

    def savings_vs_nominal(self, flops: float, voltage: float) -> float:
        """Fractional energy saving relative to running the same FLOPs at nominal voltage.

        Returns a value in ``[0, 1)`` when ``voltage < nominal_voltage``.
        """
        nominal = self.energy(flops, self.nominal_voltage)
        if nominal == 0:
            return 0.0
        return 1.0 - self.energy(flops, voltage) / nominal


#: The Figure 6.7 energy model every processor and the energy figure use.
ENERGY_MODEL = EnergyModel()
