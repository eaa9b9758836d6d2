"""FPU voltage vs. error-rate model (Figure 5.2).

The paper derives, from circuit-level simulation, the relationship between
the FPU supply voltage and its timing-error rate (errors per operation): the
error rate is essentially zero near the nominal voltage and climbs steeply —
over many orders of magnitude — as the voltage is overscaled.  Only the shape
of this curve matters for the energy analysis (Figure 6.7): it determines how
much voltage (and hence power) can be traded for a tolerable error rate.

We reproduce the curve with a monotone log-linear interpolation through
anchor points spanning error rates from 1e-8 near nominal voltage down to
0.5 errors/op at deep overscaling.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.exceptions import VoltageModelError

__all__ = [
    "VoltageErrorModel",
    "VOLTAGE_MODEL",
    "NOMINAL_VOLTAGE",
    "MIN_VOLTAGE",
    "DEFAULT_ANCHORS",
]

#: Nominal (guardbanded) supply voltage, in volts.
NOMINAL_VOLTAGE = 1.0

#: Lowest supply voltage the model covers, in volts.
MIN_VOLTAGE = 0.55

#: Default (voltage, errors-per-operation) anchor points.  The shape matches
#: Figure 5.2: negligible error rate near nominal voltage, a sharp "error
#: wall" as guardbands are exhausted, and error rates approaching one error
#: every couple of operations at the deepest overscaling.
DEFAULT_ANCHORS: Tuple[Tuple[float, float], ...] = (
    (1.00, 1.0e-9),
    (0.95, 1.0e-8),
    (0.90, 1.0e-7),
    (0.85, 1.0e-6),
    (0.80, 1.0e-5),
    (0.75, 1.0e-3),
    (0.70, 1.0e-2),
    (0.65, 1.0e-1),
    (0.60, 3.0e-1),
    (0.55, 5.0e-1),
)


class VoltageErrorModel:
    """Monotone mapping between FPU supply voltage and error rate.

    Parameters
    ----------
    anchors:
        Sequence of ``(voltage, error_rate)`` pairs.  Voltages must be
        strictly decreasing and error rates strictly increasing (lower voltage
        ⇒ more timing errors).  Intermediate voltages are interpolated
        linearly in ``log10(error rate)``.
    """

    def __init__(
        self, anchors: Sequence[Tuple[float, float]] = DEFAULT_ANCHORS
    ) -> None:
        if len(anchors) < 2:
            raise VoltageModelError("at least two (voltage, error-rate) anchors required")
        voltages = np.asarray([a[0] for a in anchors], dtype=np.float64)
        rates = np.asarray([a[1] for a in anchors], dtype=np.float64)
        if np.any(np.diff(voltages) >= 0):
            raise VoltageModelError("anchor voltages must be strictly decreasing")
        if np.any(rates <= 0) or np.any(rates > 1):
            raise VoltageModelError("anchor error rates must lie in (0, 1]")
        if np.any(np.diff(rates) <= 0):
            raise VoltageModelError("anchor error rates must be strictly increasing")
        self._voltages = voltages
        self._log_rates = np.log10(rates)

    @property
    def max_voltage(self) -> float:
        """Highest voltage covered by the model."""
        return float(self._voltages[0])

    @property
    def min_voltage(self) -> float:
        """Lowest voltage covered by the model."""
        return float(self._voltages[-1])

    def error_rate(self, voltage: float) -> float:
        """Errors per floating-point operation at a given supply voltage.

        Voltages above the highest anchor clamp to the lowest error rate;
        voltages below the lowest anchor clamp to the highest error rate.
        """
        voltage = float(voltage)
        if voltage >= self.max_voltage:
            return float(10.0 ** self._log_rates[0])
        if voltage <= self.min_voltage:
            return float(10.0 ** self._log_rates[-1])
        # numpy.interp needs increasing x; voltages are stored decreasing.
        log_rate = np.interp(voltage, self._voltages[::-1], self._log_rates[::-1])
        return float(10.0**log_rate)

    def voltage_for_error_rate(self, error_rate: float) -> float:
        """Lowest supply voltage whose error rate does not exceed ``error_rate``.

        This is the key query for the energy analysis: given the error rate an
        application can tolerate, how far can the voltage be scaled down?
        Error rates below the model's minimum anchor return the maximum
        voltage; error rates above its maximum anchor (but still valid
        probabilities) return the minimum voltage.  Error rates outside
        ``(0, 1]`` are not probabilities and raise
        :class:`~repro.exceptions.VoltageModelError`.
        """
        error_rate = float(error_rate)
        if not 0.0 < error_rate <= 1.0:
            raise VoltageModelError(
                f"error rate must be a probability in (0, 1], got {error_rate}"
            )
        log_rate = np.log10(error_rate)
        if log_rate <= self._log_rates[0]:
            return self.max_voltage
        if log_rate >= self._log_rates[-1]:
            return self.min_voltage
        return float(np.interp(log_rate, self._log_rates, self._voltages))

    def curve(self, n_points: int = 50) -> Tuple[np.ndarray, np.ndarray]:
        """Sample the whole curve; used by the Figure 5.2 benchmark.

        Returns ``(voltages, error_rates)`` with voltages spanning the model
        range from highest to lowest.
        """
        voltages = np.linspace(self.max_voltage, self.min_voltage, n_points)
        rates = np.asarray([self.error_rate(v) for v in voltages])
        return voltages, rates


#: The one Figure 5.2 curve: every processor, scenario and figure reads its
#: voltage/error-rate conversions from this object, so a voltage scenario's
#: effective fault rate and its processor's rate agree by construction.
VOLTAGE_MODEL = VoltageErrorModel()
