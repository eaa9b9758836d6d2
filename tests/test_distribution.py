"""Unit and property tests for the bit-position distributions (Figure 5.1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import FaultModelError
from repro.faults.distribution import (
    BitPositionDistribution,
    EmulatedBitDistribution,
    LowOrderBitDistribution,
    MeasuredBitDistribution,
    UniformBitDistribution,
    total_variation_distance,
)

ALL_DISTRIBUTIONS = [
    EmulatedBitDistribution,
    MeasuredBitDistribution,
    UniformBitDistribution,
    LowOrderBitDistribution,
]


@pytest.mark.parametrize("distribution_cls", ALL_DISTRIBUTIONS)
@pytest.mark.parametrize("width", [32, 64])
class TestPMFBasics:
    def test_pmf_sums_to_one(self, distribution_cls, width):
        pmf = distribution_cls(width=width).pmf()
        assert pmf.shape == (width,)
        assert pmf.sum() == pytest.approx(1.0)
        assert np.all(pmf >= 0)

    def test_cdf_monotone_and_ends_at_one(self, distribution_cls, width):
        cdf = distribution_cls(width=width).cdf()
        assert np.all(np.diff(cdf) >= -1e-12)
        assert cdf[-1] == pytest.approx(1.0)

    def test_samples_within_range(self, distribution_cls, width):
        dist = distribution_cls(width=width)
        samples = dist.sample(np.random.default_rng(0), size=500)
        assert samples.min() >= 0
        assert samples.max() < width


class TestEmulatedDistribution:
    def test_invalid_width_raises(self):
        with pytest.raises(FaultModelError):
            EmulatedBitDistribution(width=16)

    def test_high_fraction_out_of_range_raises(self):
        with pytest.raises(FaultModelError):
            EmulatedBitDistribution(high_fraction=1.5)

    def test_exponent_bits_never_hit(self):
        """The default model never corrupts the exponent field (see module docs)."""
        dist = EmulatedBitDistribution(width=32)
        pmf = dist.pmf()
        exponent_bits = slice(23, 31)
        assert np.all(pmf[exponent_bits] == 0.0)

    def test_sign_bit_receives_mass(self):
        dist = EmulatedBitDistribution(width=32)
        assert dist.pmf()[31] > 0

    def test_high_fraction_controls_band_mass(self):
        dist = EmulatedBitDistribution(width=32, high_fraction=0.7)
        pmf = dist.pmf()
        high_mass = pmf[dist.mantissa_bits - (dist.high_bits - 1): dist.mantissa_bits].sum()
        high_mass += pmf[dist.sign_bit]
        assert high_mass == pytest.approx(0.7)

    def test_band_overflow_raises(self):
        with pytest.raises(FaultModelError):
            EmulatedBitDistribution(width=32, high_bits=20, low_bits=20)

    def test_samples_follow_bimodal_shape(self):
        dist = EmulatedBitDistribution(width=32, high_fraction=0.6)
        samples = dist.sample(np.random.default_rng(7), size=5000)
        high_band_fraction = np.mean(samples >= dist.mantissa_bits - dist.high_bits + 1)
        assert 0.5 < high_band_fraction < 0.7


class TestMeasuredDistribution:
    def test_no_exponent_mass(self):
        pmf = MeasuredBitDistribution(width=32).pmf()
        assert np.all(pmf[23:31] == 0.0)

    def test_peak_near_mantissa_msb(self):
        dist = MeasuredBitDistribution(width=32)
        pmf = dist.pmf()
        assert np.argmax(pmf[:23]) > 15

    def test_invalid_parameters_raise(self):
        with pytest.raises(FaultModelError):
            MeasuredBitDistribution(high_fraction=0.0)
        with pytest.raises(FaultModelError):
            MeasuredBitDistribution(peak_sharpness=-1.0)


class TestLowOrderDistribution:
    def test_only_low_bits(self):
        dist = LowOrderBitDistribution(width=32, n_bits=8)
        pmf = dist.pmf()
        assert pmf[:8].sum() == pytest.approx(1.0)
        assert np.all(pmf[8:] == 0.0)

    def test_invalid_n_bits(self):
        with pytest.raises(FaultModelError):
            LowOrderBitDistribution(width=32, n_bits=0)


class TestDefinedByWeights:
    def test_subclass_defining_sample_raises(self):
        """A distribution is its weights: a subclass may not define sample()."""
        with pytest.raises(TypeError, match="sample"):
            class IntegerBits(EmulatedBitDistribution):
                def sample(self, rng, size=1):
                    return rng.integers(0, self.width, size=size)


class TestTotalVariation:
    def test_identical_distributions_have_zero_distance(self):
        a = EmulatedBitDistribution(width=32)
        b = EmulatedBitDistribution(width=32)
        assert total_variation_distance(a, b) == pytest.approx(0.0)

    def test_measured_vs_emulated_is_close_but_not_identical(self):
        distance = total_variation_distance(
            MeasuredBitDistribution(width=32), EmulatedBitDistribution(width=32)
        )
        assert 0.0 < distance < 0.5

    def test_mismatched_width_raises(self):
        with pytest.raises(FaultModelError):
            total_variation_distance(
                EmulatedBitDistribution(width=32), EmulatedBitDistribution(width=64)
            )


@given(high_fraction=st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=25, deadline=None)
def test_emulated_mass_split_property(high_fraction):
    """Low band and high band always split the mass exactly as configured."""
    dist = EmulatedBitDistribution(width=32, high_fraction=high_fraction)
    pmf = dist.pmf()
    low_mass = pmf[: dist.low_bits].sum()
    assert low_mass == pytest.approx(1.0 - high_fraction, abs=1e-9)


def _lookup_probes(dist: BitPositionDistribution, seed: int) -> np.ndarray:
    """Uniforms in [0, 1) that stress an inverse-CDF lookup.

    Random draws plus every CDF entry, its float neighbours, and each
    bucket bound of a power-of-two grid and its lower neighbour: the points
    where a bucket table and a binary search could disagree.
    """
    cdf = dist.cdf()
    bounds = np.arange(1, 2**12) / 2**12
    probes = np.concatenate(
        [
            np.random.default_rng(seed).random(4096),
            cdf,
            np.nextafter(cdf, 0.0),
            np.nextafter(cdf, 2.0),
            bounds,
            np.nextafter(bounds, 0.0),
            [0.0, np.nextafter(1.0, 0.0)],
        ]
    )
    return probes[(probes >= 0.0) & (probes < 1.0)]


class _SteepDistribution(BitPositionDistribution):
    """Geometric weights 1e-9 apart: too fine for any bucket table."""

    def _unnormalized_weights(self) -> np.ndarray:
        weights = np.full(self.width, 1e-9)
        weights[-1] = 1.0
        return weights


class TestInverseCDFLookup:
    """The bucket-table lookup equals ``searchsorted`` element for element."""

    @pytest.mark.parametrize("distribution_cls", ALL_DISTRIBUTIONS + [_SteepDistribution])
    @pytest.mark.parametrize("width", [32, 64])
    def test_matches_searchsorted(self, distribution_cls, width):
        dist = distribution_cls(width=width)
        uniforms = _lookup_probes(dist, seed=width)
        expected = dist.cdf().searchsorted(uniforms, side="right")
        np.testing.assert_array_equal(dist._inverse_cdf(uniforms), expected)
        # Short arrays take searchsorted directly; same answer.
        np.testing.assert_array_equal(dist._inverse_cdf(uniforms[:7]), expected[:7])

    def test_sample_draws_through_the_lookup(self):
        dist = MeasuredBitDistribution(width=64)
        samples = dist.sample(np.random.default_rng(3), size=(40, 50))
        uniforms = np.random.default_rng(3).random((40, 50))
        assert samples.dtype == np.int64 and samples.shape == (40, 50)
        np.testing.assert_array_equal(
            samples, dist.cdf().searchsorted(uniforms, side="right")
        )

    def test_steep_cdf_keeps_the_binary_search(self):
        dist = _SteepDistribution(width=32)
        dist._inverse_cdf(np.zeros(4096))
        assert dist._table_cache == ()

    @given(
        high_fraction=st.floats(min_value=0.0, max_value=1.0),
        high_bits=st.integers(1, 12),
        low_bits=st.integers(1, 11),
        width=st.sampled_from([32, 64]),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_emulated_shapes_property(self, high_fraction, high_bits, low_bits, width, seed):
        dist = EmulatedBitDistribution(
            width=width, high_fraction=high_fraction, high_bits=high_bits, low_bits=low_bits
        )
        uniforms = _lookup_probes(dist, seed)
        np.testing.assert_array_equal(
            dist._inverse_cdf(uniforms), dist.cdf().searchsorted(uniforms, side="right")
        )
