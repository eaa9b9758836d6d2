"""Unit tests for the stochastic processor, voltage curve, and energy model."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import FaultModelError, VoltageModelError
from repro.processor.energy import EnergyModel
from repro.processor.stochastic import StochasticProcessor
from repro.processor.voltage import NOMINAL_VOLTAGE, VOLTAGE_MODEL, VoltageErrorModel


class TestVoltageModel:
    def test_error_rate_monotone_in_voltage(self):
        model = VoltageErrorModel()
        voltages = np.linspace(model.min_voltage, model.max_voltage, 30)
        rates = [model.error_rate(v) for v in voltages]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_extremes_clamp(self):
        model = VoltageErrorModel()
        assert model.error_rate(2.0) == model.error_rate(model.max_voltage)
        assert model.error_rate(0.1) == model.error_rate(model.min_voltage)

    def test_round_trip_voltage_for_error_rate(self):
        model = VoltageErrorModel()
        for rate in (1e-7, 1e-5, 1e-3, 1e-1):
            voltage = model.voltage_for_error_rate(rate)
            assert model.min_voltage <= voltage <= model.max_voltage
            assert model.error_rate(voltage) == pytest.approx(rate, rel=0.3)

    def test_voltage_for_tiny_rate_is_nominal(self):
        model = VoltageErrorModel()
        assert model.voltage_for_error_rate(1e-15) == model.max_voltage

    def test_invalid_rate_raises(self):
        with pytest.raises(VoltageModelError):
            VoltageErrorModel().voltage_for_error_rate(0.0)

    @given(
        log_rate=st.floats(min_value=-9.0, max_value=np.log10(0.5), exclude_max=True)
    )
    def test_round_trip_property_within_anchor_range(self, log_rate):
        """voltage_for_error_rate / error_rate are exact inverses in range.

        Both directions interpolate linearly in (voltage, log10 rate) space
        over the same anchors, so any error rate inside the anchor range
        must round-trip through its voltage up to floating-point error.
        """
        model = VoltageErrorModel()
        rate = float(10.0**log_rate)
        voltage = model.voltage_for_error_rate(rate)
        assert model.min_voltage <= voltage <= model.max_voltage
        assert model.error_rate(voltage) == pytest.approx(rate, rel=1e-9)

    @given(rate=st.floats(min_value=0.5, max_value=1.0))
    def test_rates_above_anchor_range_clamp_to_min_voltage(self, rate):
        model = VoltageErrorModel()
        assert model.voltage_for_error_rate(rate) == model.min_voltage

    @given(
        rate=st.one_of(
            st.floats(max_value=0.0, allow_nan=False),
            st.floats(min_value=1.0, exclude_min=True, allow_nan=False,
                      allow_infinity=False),
        )
    )
    def test_out_of_range_rates_raise_cleanly(self, rate):
        """Rates outside (0, 1] are not probabilities: always a clean error."""
        with pytest.raises(VoltageModelError, match="probability"):
            VoltageErrorModel().voltage_for_error_rate(rate)

    def test_curve_shape(self):
        voltages, rates = VoltageErrorModel().curve(n_points=20)
        assert voltages.shape == rates.shape == (20,)
        assert voltages[0] > voltages[-1]
        assert rates[0] < rates[-1]

    def test_bad_anchor_validation(self):
        with pytest.raises(VoltageModelError):
            VoltageErrorModel(anchors=[(1.0, 1e-8)])
        with pytest.raises(VoltageModelError):
            VoltageErrorModel(anchors=[(1.0, 1e-3), (1.1, 1e-2)])
        with pytest.raises(VoltageModelError):
            VoltageErrorModel(anchors=[(1.0, 1e-3), (0.9, 1e-4)])


class TestEnergyModel:
    def test_power_scales_quadratically(self):
        model = EnergyModel()
        assert model.power(NOMINAL_VOLTAGE) == pytest.approx(1.0)
        assert model.power(0.5) == pytest.approx(0.25)

    def test_energy_is_power_times_flops(self):
        model = EnergyModel()
        assert model.energy(1000, 0.8) == pytest.approx(1000 * 0.64)

    def test_negative_flops_raise(self):
        with pytest.raises(VoltageModelError):
            EnergyModel().energy(-1, 1.0)

    def test_zero_voltage_raises(self):
        with pytest.raises(VoltageModelError):
            EnergyModel().power(0.0)

    def test_savings_vs_nominal(self):
        model = EnergyModel()
        assert model.savings_vs_nominal(100, 0.7) == pytest.approx(1 - 0.49)
        assert model.savings_vs_nominal(100, NOMINAL_VOLTAGE) == pytest.approx(0.0)


class TestStochasticProcessor:
    def test_fault_rate_setter_updates_voltage(self):
        proc = StochasticProcessor(fault_rate=0.0, rng=0)
        proc.fault_rate = 0.01
        assert proc.fault_rate == 0.01
        assert proc.voltage < NOMINAL_VOLTAGE

    def test_voltage_setter_updates_fault_rate(self):
        proc = StochasticProcessor(rng=0)
        proc.voltage = 0.7
        assert proc.fault_rate == pytest.approx(proc.voltage_model.error_rate(0.7))

    def test_corrupt_counts_flops(self):
        proc = StochasticProcessor(fault_rate=0.0, rng=0)
        proc.corrupt(np.ones(10), ops_per_element=3)
        assert proc.flops == 30

    def test_count_flops_reliable(self):
        proc = StochasticProcessor(rng=0)
        proc.count_flops(123)
        assert proc.flops == 123
        with pytest.raises(ValueError):
            proc.count_flops(-1)

    def test_scalar_fpu_shares_counters(self):
        proc = StochasticProcessor(fault_rate=0.0, rng=0)
        proc.fpu.add(1, 2)
        proc.corrupt(np.ones(5))
        assert proc.flops == 6

    def test_reliable_context_blocks_faults(self):
        proc = StochasticProcessor(fault_rate=1.0, rng=0)
        values = np.ones(100)
        with proc.reliable():
            corrupted = proc.corrupt(values)
        assert np.array_equal(corrupted, values)
        assert proc.fault_rate == 1.0  # restored afterwards

    def test_energy_uses_current_voltage(self):
        proc = StochasticProcessor(fault_rate=0.0, rng=0)
        proc.count_flops(100)
        assert proc.energy() == pytest.approx(100.0, rel=0.05)
        assert proc.energy(voltage=0.5) == pytest.approx(25.0)

    def test_reset_counters(self):
        proc = StochasticProcessor(fault_rate=0.5, rng=0)
        proc.corrupt(np.ones(100))
        proc.reset_counters()
        assert proc.flops == 0
        assert proc.faults_injected == 0

    def test_spawn_gives_independent_processor(self):
        proc = StochasticProcessor(fault_rate=0.3, rng=0)
        child = proc.spawn()
        assert child.fault_rate == 0.3
        child.corrupt(np.ones(10))
        assert proc.flops == 0

    def test_corruption_happens_at_datapath_precision(self):
        proc = StochasticProcessor(fault_rate=0.0, rng=0)
        out = proc.corrupt(np.array([np.pi]))
        assert out[0] == pytest.approx(np.float32(np.pi))

    def test_fault_model_by_name(self):
        proc = StochasticProcessor(fault_model="double-precision", rng=0)
        assert proc.dtype == np.dtype(np.float64)


class TestProfiles:
    """Operating points built directly: by fault rate or by supply voltage."""

    def test_reliable_profile_has_zero_rate(self):
        proc = StochasticProcessor(rng=0)
        assert proc.fault_rate == 0.0
        assert proc.voltage == VOLTAGE_MODEL.max_voltage

    def test_overscaled_profile_rate_override(self):
        proc = StochasticProcessor(fault_rate=0.2, rng=0)
        assert proc.fault_rate == 0.2
        # Built by rate, the processor reports the voltage implied by it.
        assert proc.voltage == VOLTAGE_MODEL.voltage_for_error_rate(0.2)

    def test_unknown_profile_raises(self):
        with pytest.raises(FaultModelError, match="unknown fault model"):
            StochasticProcessor(fault_model="missing-profile")

    def test_voltage_profiles_sit_on_the_figure_5_2_curve(self):
        model = VoltageErrorModel()
        for voltage in (0.80, 0.70, 0.65, 0.60):
            proc = StochasticProcessor(voltage=voltage, rng=0)
            assert proc.voltage == pytest.approx(voltage)
            assert proc.fault_rate == pytest.approx(model.error_rate(voltage))

    def test_voltage_profile_explicit_rate_overrides_operating_point(self):
        proc = StochasticProcessor(fault_rate=0.3, rng=0)
        assert proc.fault_rate == 0.3
        # The processor then reports the voltage implied by that rate.
        assert proc.voltage == pytest.approx(
            VoltageErrorModel().voltage_for_error_rate(0.3)
        )

    def test_wide_datapath_fault_model_presets(self):
        from repro.faults.models import get_fault_model

        for name, family in (
            ("uniform-bits-64", "UniformBitDistribution"),
            ("measured-64", "MeasuredBitDistribution"),
        ):
            model = get_fault_model(name)
            assert model.dtype == np.dtype(np.float64)
            assert model.bit_distribution.width == 64
            assert type(model.bit_distribution).__name__ == family
