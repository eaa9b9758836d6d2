"""Scenarios: named operating points of the simulated stochastic processor.

The paper evaluates robustified applications across a whole *operating
space* — which fault model is active (its datapath precision and the
bit-position distribution of Figure 5.1) and what supply voltage (and
therefore fault rate, through the Figure 5.2 curve) the FPU is overscaled
to.  A :class:`Scenario` names one point of that space, and is the one way a
sweep names one: a sweep's ``scenarios`` axis
(:class:`~repro.experiments.spec.SweepSpec`) crosses a list of registered
preset names or :class:`Scenario` objects with the series and trial axes, so
that cross-model and voltage/energy studies run through the same
plan/execute engine as the classic single-model fault-rate sweep — batched,
cached, and bit-identical across executors.

A scenario's ``fault_model`` is a fault-model preset name or a
:class:`~repro.faults.models.FaultModel` object; a datapath or bit
distribution no preset offers is a ``FaultModel`` built for it.  The model
and the effective fault rate are resolved at plan-expansion time.

Three ways to pin the fault rate:

* neither ``fault_rate`` nor ``voltage`` set — the scenario inherits each
  grid point of the sweep's ``fault_rates`` axis (cross-model studies);
* ``voltage`` set — the rate is derived from the Figure 5.2
  voltage/error-rate model at that operating point (voltage studies);
* ``fault_rate`` set — the rate is pinned explicitly.

``docs/scenarios.md`` catalogs every named preset registered here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.faults.models import FaultModel, get_fault_model
from repro.processor.voltage import VOLTAGE_MODEL

__all__ = [
    "Scenario",
    "voltage_scenario",
    "scenario_series_name",
    "get_scenario",
    "list_scenarios",
]


@dataclass(frozen=True)
class Scenario:
    """One named operating point of the simulated processor.

    Attributes
    ----------
    name:
        Label used in series names, progress events, and fingerprints.
    fault_model:
        A :class:`~repro.faults.models.FaultModel` or registry name supplying
        the datapath dtype and bit-position distribution.
    fault_rate:
        Explicit fault rate pin.  Mutually exclusive with ``voltage``; when
        both are ``None``, the scenario inherits the sweep's fault-rate grid.
    voltage:
        Supply-voltage operating point; the fault rate is derived from the
        Figure 5.2 voltage/error-rate model.  Mutually exclusive with
        ``fault_rate``.
    description:
        One-line description for reports and the ``docs/scenarios.md`` catalog.
    """

    name: str
    fault_model: Union[str, FaultModel] = "leon3-fpu"
    fault_rate: Optional[float] = None
    voltage: Optional[float] = None
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if self.fault_rate is not None and self.voltage is not None:
            raise ValueError(
                f"scenario {self.name!r} pins both fault_rate and voltage; "
                "they are mutually exclusive"
            )
        if self.fault_rate is not None and not 0.0 <= float(self.fault_rate) <= 1.0:
            raise ValueError(
                f"scenario {self.name!r}: fault_rate must be in [0, 1], "
                f"got {self.fault_rate}"
            )
        if self.voltage is not None and float(self.voltage) <= 0.0:
            raise ValueError(
                f"scenario {self.name!r}: voltage must be positive, got {self.voltage}"
            )

    # ------------------------------------------------------------------ #
    # Resolution
    # ------------------------------------------------------------------ #
    @property
    def pinned(self) -> bool:
        """Whether the scenario fixes its own fault rate (explicitly or by voltage)."""
        return self.fault_rate is not None or self.voltage is not None

    def resolved_model(self) -> FaultModel:
        """The concrete fault model: the named preset, or the object itself."""
        if isinstance(self.fault_model, str):
            return get_fault_model(self.fault_model)
        return self.fault_model

    def effective_fault_rate(self, grid_rate: float) -> float:
        """The fault rate this scenario runs at for one grid point.

        Pinned scenarios (explicit rate or voltage operating point) return
        their own rate and ignore ``grid_rate``; unpinned scenarios inherit
        the grid point.  A voltage reads the shared
        :data:`~repro.processor.voltage.VOLTAGE_MODEL`, the curve the
        scenario's processors are built on.
        """
        if self.fault_rate is not None:
            return float(self.fault_rate)
        if self.voltage is not None:
            return float(VOLTAGE_MODEL.error_rate(self.voltage))
        return float(grid_rate)

    def fingerprint(self) -> Dict[str, object]:
        """Canonical JSON-ready description, for sweep/cache fingerprints.

        Built from the *resolved* configuration (model name, dtype, and the
        full bit-position pmf — which completely determines fault behaviour),
        so a grid built from preset names hashes identically to the same grid
        built from explicit :class:`Scenario` objects, while any behavioural
        difference (one distribution parameter, one voltage step) changes the
        hash.
        """
        model = self.resolved_model()
        distribution = model.bit_distribution
        return {
            "name": self.name,
            "fault_model": model.name,
            "dtype": str(model.dtype),
            "bit_distribution": {
                "family": type(distribution).__name__,
                "width": int(distribution.width),
                "pmf": [float(mass) for mass in distribution.pmf()],
            },
            "fault_rate": None if self.fault_rate is None else float(self.fault_rate),
            "voltage": None if self.voltage is None else float(self.voltage),
        }


def voltage_scenario(voltage: float) -> Scenario:
    """The Leon3 FPU (``"leon3-fpu"``) at a supply-voltage operating point."""
    return Scenario(
        name=f"leon3-fpu@{float(voltage):.4g}V",
        fault_model="leon3-fpu",
        voltage=float(voltage),
        description=f"leon3-fpu overscaled to {float(voltage):.4g} V "
        "(fault rate from the Figure 5.2 curve).",
    )


def scenario_series_name(series_name: str, scenario: Scenario) -> str:
    """Display name of one (series, scenario) line of a scenario grid."""
    return f"{series_name} @ {scenario.name}"


# --------------------------------------------------------------------------- #
# The named scenario-preset registry
# --------------------------------------------------------------------------- #
def _presets() -> Dict[str, Scenario]:
    return {
        scenario.name: scenario
        for scenario in (
            Scenario(
                name="nominal",
                fault_model="leon3-fpu",
                description=(
                    "Single-precision Leon3 FPU with the emulated bimodal bit "
                    "distribution; fault rate taken from the sweep grid."
                ),
            ),
            Scenario(
                name="measured-bits",
                fault_model="leon3-fpu-measured",
                description=(
                    "Single-precision FPU driven by the synthetic 'measured' "
                    "bit-position distribution of Figure 5.1."
                ),
            ),
            Scenario(
                name="low-order-seu",
                fault_model="low-order-only",
                description=(
                    "Mild-overscaling SEU regime: faults restricted to the "
                    "lowest 8 mantissa bits (low-magnitude errors only)."
                ),
            ),
            Scenario(
                name="double-precision-64",
                fault_model="double-precision",
                description=(
                    "Double-precision datapath with the emulated bimodal "
                    "distribution at 64-bit width."
                ),
            ),
            Scenario(
                name="uniform-32",
                fault_model="uniform-bits",
                description=(
                    "Ablation: single-precision datapath with faults striking "
                    "every bit (exponent included) uniformly."
                ),
            ),
            Scenario(
                name="uniform-64",
                fault_model="uniform-bits-64",
                description=(
                    "Ablation: double-precision datapath with uniform 64-bit "
                    "fault positions (catastrophic exponent corruptions)."
                ),
            ),
            Scenario(
                name="measured-0.80V",
                fault_model="leon3-fpu-measured",
                voltage=0.80,
                description=(
                    "Measured-distribution FPU at 0.80 V "
                    "(~1e-5 errors/FLOP on the Figure 5.2 curve)."
                ),
            ),
            Scenario(
                name="measured-0.70V",
                fault_model="leon3-fpu-measured",
                voltage=0.70,
                description=(
                    "Measured-distribution FPU at 0.70 V "
                    "(~1e-2 errors/FLOP on the Figure 5.2 curve)."
                ),
            ),
            Scenario(
                name="measured-0.65V",
                fault_model="leon3-fpu-measured",
                voltage=0.65,
                description=(
                    "Measured-distribution FPU at 0.65 V "
                    "(~0.1 errors/FLOP on the Figure 5.2 curve)."
                ),
            ),
            Scenario(
                name="overscaled-0.60V",
                fault_model="leon3-fpu",
                voltage=0.60,
                description=(
                    "Deeply overscaled Leon3 FPU at 0.60 V "
                    "(~0.3 errors/FLOP on the Figure 5.2 curve)."
                ),
            ),
        )
    }


_PRESETS: Dict[str, Scenario] = _presets()


def get_scenario(spec: Union[str, Scenario]) -> Scenario:
    """Resolve a preset name to its :class:`Scenario` (instances pass through)."""
    if isinstance(spec, Scenario):
        return spec
    try:
        return _PRESETS[spec]
    except KeyError:
        raise KeyError(
            f"unknown scenario {spec!r}; available: {list_scenarios()}"
        ) from None


def list_scenarios() -> List[str]:
    """Names of the scenario presets."""
    return sorted(_PRESETS)
