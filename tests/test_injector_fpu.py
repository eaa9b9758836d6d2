"""Unit tests for the fault injector and the scalar stochastic FPU."""

import math

import numpy as np
import pytest

from repro.exceptions import FaultModelError
from repro.faults.distribution import EmulatedBitDistribution, UniformBitDistribution
from repro.faults.injector import FaultInjector
from repro.faults.fpu import StochasticFPU
from repro.faults.models import get_fault_model, list_fault_models
from repro.faults.vectorized import effective_fault_probability


class TestFaultInjectorConfig:
    def test_invalid_rate_raises(self):
        with pytest.raises(FaultModelError):
            FaultInjector(fault_rate=1.5)
        with pytest.raises(FaultModelError):
            FaultInjector(fault_rate=-0.1)

    def test_mismatched_distribution_width_raises(self):
        with pytest.raises(FaultModelError):
            FaultInjector(dtype=np.float64, bit_distribution=EmulatedBitDistribution(width=32))

    def test_rate_is_mutable(self):
        injector = FaultInjector(0.0)
        injector.fault_rate = 0.3
        assert injector.fault_rate == 0.3


class TestScalarInjection:
    def test_zero_rate_never_corrupts(self):
        injector = FaultInjector(0.0, dtype=np.float64)
        for value in np.linspace(-5, 5, 100):
            assert injector.corrupt_scalar(value) == value
        assert injector.faults_injected == 0

    def test_positive_rate_eventually_corrupts(self):
        injector = FaultInjector(0.2, rng=3)
        outputs = [injector.corrupt_scalar(1.0) for _ in range(500)]
        assert injector.faults_injected > 10
        assert any(o != np.float32(1.0) for o in outputs)

    def test_fault_frequency_tracks_rate(self):
        injector = FaultInjector(0.1, rng=0)
        n = 20_000
        for _ in range(n):
            injector.corrupt_scalar(1.0)
        observed = injector.faults_injected / n
        assert 0.05 < observed < 0.2

    def test_counters_reset(self):
        injector = FaultInjector(0.5, rng=0)
        for _ in range(100):
            injector.corrupt_scalar(1.0)
        injector.reset_statistics()
        assert injector.faults_injected == 0
        assert injector.ops_observed == 0


class TestArrayInjection:
    def test_zero_rate_identity(self):
        injector = FaultInjector(0.0, dtype=np.float64)
        values = np.linspace(0, 1, 50)
        assert np.array_equal(injector.corrupt_array(values), values)

    def test_corruption_count_matches_counter(self):
        injector = FaultInjector(0.3, dtype=np.float64, rng=0)
        values = np.ones(2000)
        corrupted = injector.corrupt_array(values)
        n_changed = int(np.sum(corrupted != values))
        assert n_changed == injector.faults_injected

    def test_ops_per_element_scales_probability(self):
        low = FaultInjector(0.01, dtype=np.float64, rng=0)
        high = FaultInjector(0.01, dtype=np.float64, rng=0)
        values = np.ones(5000)
        low.corrupt_array(values, ops_per_element=1)
        high.corrupt_array(values, ops_per_element=50)
        assert high.faults_injected > 3 * low.faults_injected

    def test_empty_array(self):
        injector = FaultInjector(0.5)
        assert injector.corrupt_array(np.zeros(0)).size == 0

    def test_fault_probability_helper(self):
        assert effective_fault_probability(0.0, 10) == 0.0
        assert effective_fault_probability(0.1, 1) == pytest.approx(0.1)
        assert effective_fault_probability(0.1, 2) == pytest.approx(0.19)
        assert float(effective_fault_probability(1.0, 5)) == 1.0


class TestStochasticFPU:
    def test_exact_arithmetic_when_fault_free(self):
        fpu = StochasticFPU(FaultInjector(0.0, dtype=np.float64))
        assert fpu.add(2.0, 3.0) == 5.0
        assert fpu.sub(2.0, 3.0) == -1.0
        assert fpu.mul(2.0, 3.0) == 6.0
        assert fpu.div(6.0, 3.0) == 2.0
        assert fpu.sqrt(9.0) == 3.0
        assert fpu.abs(-4.0) == 4.0
        assert fpu.move(1.25) == 1.25

    def test_flop_counting(self):
        fpu = StochasticFPU(FaultInjector(0.0))
        fpu.add(1, 2)
        fpu.mul(2, 3)
        assert fpu.flops == 2

    def test_ieee_division_by_zero(self):
        fpu = StochasticFPU(FaultInjector(0.0, dtype=np.float64))
        assert fpu.div(1.0, 0.0) == math.inf
        assert fpu.div(-1.0, 0.0) == -math.inf
        assert math.isnan(fpu.div(0.0, 0.0))

    def test_sqrt_of_negative_is_nan(self):
        fpu = StochasticFPU(FaultInjector(0.0))
        assert math.isnan(fpu.sqrt(-1.0))

    def test_comparisons_fault_free(self):
        fpu = StochasticFPU(FaultInjector(0.0, dtype=np.float64))
        assert fpu.less_than(1.0, 2.0)
        assert not fpu.less_than(2.0, 1.0)
        assert fpu.compare(1.0, 1.0) == 0
        assert fpu.compare(0.0, 1.0) == -1
        assert fpu.compare(2.0, 1.0) == 1

    def test_protected_region_blocks_faults(self):
        fpu = StochasticFPU(FaultInjector(1.0, rng=0))
        with fpu.protected():
            results = [fpu.add(1.0, 1.0) for _ in range(200)]
        assert all(r == 2.0 for r in results)
        assert fpu.faults_injected == 0

    def test_dot_and_sum_fault_free(self):
        fpu = StochasticFPU(FaultInjector(0.0, dtype=np.float64))
        assert fpu.dot([1, 2, 3], [4, 5, 6]) == pytest.approx(32.0)
        assert fpu.sum([1, 2, 3, 4]) == pytest.approx(10.0)

    def test_dot_shape_mismatch(self):
        fpu = StochasticFPU(FaultInjector(0.0))
        with pytest.raises(ValueError):
            fpu.dot([1, 2], [1, 2, 3])

    def test_reset_counters(self):
        fpu = StochasticFPU(FaultInjector(0.5, rng=0))
        for _ in range(50):
            fpu.add(1.0, 2.0)
        fpu.reset_counters()
        assert fpu.flops == 0
        assert fpu.faults_injected == 0

    def test_comparisons_can_be_wrong_under_faults(self):
        fpu = StochasticFPU(FaultInjector(1.0, rng=0, bit_distribution=UniformBitDistribution(32)))
        outcomes = {fpu.less_than(1.0, 2.0) for _ in range(300)}
        assert outcomes == {True, False}


class TestFaultModels:
    def test_builtin_models_listed(self):
        names = list_fault_models()
        assert "leon3-fpu" in names
        assert "double-precision" in names

    def test_get_unknown_model_raises(self):
        with pytest.raises(FaultModelError):
            get_fault_model("no-such-model")

    def test_make_injector_uses_model_dtype(self):
        model = get_fault_model("double-precision")
        injector = model.make_injector(fault_rate=0.1)
        assert injector.dtype == np.dtype(np.float64)
        assert injector.fault_rate == 0.1
