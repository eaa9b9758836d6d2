"""Bit-position distributions for FPU faults (Figure 5.1).

The paper models which bit of an FPU result a timing fault corrupts.  Circuit
level simulations of arithmetic units show a bimodal shape: "many of the
errors predominantly occur in the most significant bits.  The rest of the
faults primarily occur in the low-order bits, resulting in low-magnitude
errors."  Figure 5.1 compares this *measured* distribution against the
piecewise-uniform *emulated* distribution that actually drives the FPGA fault
injector.

The long timing paths of an FPU run through the significand adder/multiplier
and the rounding/normalization logic, not through the short exponent path, so
voltage-overscaling faults land on significand (and sign) bits: the
"most significant bits" of Figure 5.1 are the *high-order mantissa bits and
the sign*, producing errors up to the same order of magnitude as the correct
value, while the low-order mantissa bits produce low-magnitude errors.  The
default distributions below therefore place their mass on the mantissa and
sign and never touch the exponent field; an exponent-inclusive variant
(:class:`UniformBitDistribution`) is kept for ablation studies of
catastrophic (out-of-range) corruptions.

We reproduce both Figure 5.1 curves:

* :class:`MeasuredBitDistribution` — a synthetic stand-in for the circuit
  simulation data, with the same bimodal shape (a smooth peak over the
  high-order mantissa bits plus sign, and a broad low mass over the low-order
  mantissa bits).
* :class:`EmulatedBitDistribution` — the piecewise-uniform approximation used
  in all experiments: a fraction of the mass spread uniformly over the top
  mantissa bits (and sign) and the remainder spread uniformly over the bottom
  mantissa bits.

The Figure 5.1 benchmark regenerates both probability mass functions and
reports their total-variation distance.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.exceptions import FaultModelError

__all__ = [
    "BitPositionDistribution",
    "EmulatedBitDistribution",
    "MeasuredBitDistribution",
    "UniformBitDistribution",
    "LowOrderBitDistribution",
    "total_variation_distance",
]


#: Number of explicit mantissa bits for each supported word width.
_MANTISSA_BITS = {32: 23, 64: 52}

#: Inverse-CDF lookups of at least this many uniforms go through the bucket
#: table (below it, ``searchsorted``'s lower per-call cost wins), and the
#: table has at most ``2**_MAX_TABLE_BITS`` buckets.
_TABLE_MIN_SIZE = 1024
_MAX_TABLE_BITS = 16


def _bucket_table(cdf: np.ndarray):
    """Bucket table for :meth:`BitPositionDistribution._inverse_cdf`, or ``()``.

    Splits ``[0, 1)`` into ``K`` equal buckets, ``K`` the smallest power of
    two (at least 32) for which the CDF entries strictly inside each bucket
    share one value.  Per bucket it stores the count of entries at or below
    its start, that inner value (2.0 when there is none, so it never
    compares as reached) and the count of entries below its end.  Returns
    ``()`` when no ``K`` up to ``2**_MAX_TABLE_BITS`` works, or when the CDF
    is not finite and nondecreasing (``searchsorted`` then stays the rule).
    """
    if not (np.all(np.isfinite(cdf)) and np.all(cdf[1:] >= cdf[:-1])):
        return ()
    for bits in range(5, _MAX_TABLE_BITS + 1):
        buckets = 1 << bits
        bounds = np.arange(buckets + 1) / buckets
        below = cdf.searchsorted(bounds[:-1], side="right")
        through = cdf.searchsorted(bounds[1:], side="left")
        inner = through > below
        first = cdf[np.minimum(below, cdf.size - 1)]
        last = cdf[np.maximum(through - 1, 0)]
        if np.array_equal(first[inner], last[inner]):
            return buckets, np.where(inner, first, 2.0), below, through
    return ()


class BitPositionDistribution(ABC):
    """Distribution over which bit of an FPU result a fault flips.

    A distribution is defined by its weights alone: concrete subclasses
    define :meth:`_unnormalized_weights`, and :meth:`sample` is the one
    inverse-CDF lookup over them that every fault kernel (the scalar commit,
    the fused batch pass, the compiled backends) reproduces draw for draw.
    A subclass that defines ``sample`` raises :class:`TypeError` when the
    class is defined.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "sample" in cls.__dict__:
            raise TypeError(
                f"{cls.__name__} defines sample(); a bit-position distribution "
                "is defined by its weights (_unnormalized_weights) alone"
            )

    def __init__(self, width: int = 32) -> None:
        if width not in (32, 64):
            raise FaultModelError(f"bit width must be 32 or 64, got {width}")
        self._width = int(width)
        self._pmf_cache: np.ndarray | None = None
        self._cdf_cache: np.ndarray | None = None
        self._table_cache: tuple | None = None

    @property
    def width(self) -> int:
        """Number of bits in the floating-point format (32 or 64)."""
        return self._width

    @property
    def mantissa_bits(self) -> int:
        """Number of explicit mantissa bits (23 for float32, 52 for float64)."""
        return _MANTISSA_BITS[self._width]

    @property
    def sign_bit(self) -> int:
        """Position of the sign bit (the word's most significant bit)."""
        return self._width - 1

    @abstractmethod
    def _unnormalized_weights(self) -> np.ndarray:
        """Non-negative weights, one per bit position, before normalization."""

    def pmf(self) -> np.ndarray:
        """Probability mass function over bit positions ``0 .. width - 1``."""
        if self._pmf_cache is None:
            weights = np.asarray(self._unnormalized_weights(), dtype=np.float64)
            if weights.shape != (self._width,):
                raise FaultModelError(
                    f"weight vector has shape {weights.shape}, "
                    f"expected ({self._width},)"
                )
            if np.any(weights < 0):
                raise FaultModelError("bit-position weights must be non-negative")
            total = weights.sum()
            if total <= 0:
                raise FaultModelError("bit-position weights must not all be zero")
            self._pmf_cache = weights / total
        return self._pmf_cache

    def cdf(self) -> np.ndarray:
        """Cumulative distribution over bit positions."""
        if self._cdf_cache is None:
            self._cdf_cache = np.cumsum(self.pmf())
            self._cdf_cache[-1] = 1.0
        return self._cdf_cache

    def sample(self, rng: np.random.Generator, size: int | tuple[int, ...] = 1) -> np.ndarray:
        """Draw bit positions using a numpy random generator.

        Implemented by inverse-CDF lookup (one uniform per position), which
        is much faster than ``Generator.choice`` for the small per-call batch
        sizes the injector uses.
        """
        return self._inverse_cdf(rng.random(size)).astype(np.int64, copy=False)

    def _inverse_cdf(self, uniforms: np.ndarray) -> np.ndarray:
        """Bit positions for generator uniforms in ``[0, 1)``.

        Equal, element for element, to ``cdf().searchsorted(uniforms,
        side="right")``.  Large arrays go through a bucket table instead of
        a binary search per element: with ``K`` a power of two, the bucket
        ``floor(u * K)`` is exact, and one compare against the bucket's
        single inner CDF value settles the count (see :func:`_bucket_table`).
        """
        if uniforms.size >= _TABLE_MIN_SIZE:
            if self._table_cache is None:
                self._table_cache = _bucket_table(self.cdf())
            if self._table_cache:
                buckets, values, below, through = self._table_cache
                index = (uniforms * buckets).astype(np.intp)
                return np.where(uniforms >= values[index], through[index], below[index])
        return self.cdf().searchsorted(uniforms, side="right")

    def high_order_mass(self, cutoff_fraction: float = 0.5) -> float:
        """Probability mass on the top ``cutoff_fraction`` of bit positions."""
        cutoff = int(round(self._width * (1.0 - cutoff_fraction)))
        return float(self.pmf()[cutoff:].sum())


class EmulatedBitDistribution(BitPositionDistribution):
    """The piecewise-uniform distribution used by the paper's fault injector.

    A fraction ``high_fraction`` of faults land uniformly on the high-order
    band — the sign bit plus the top ``high_bits - 1`` mantissa bits, giving
    errors comparable in magnitude to the correct value; the remaining mass
    lands uniformly on the bottom ``low_bits`` mantissa positions
    (low-magnitude errors).  Mantissa bits in between, and the exponent field,
    receive no mass, matching the bimodal emulated histogram of Figure 5.1.
    """

    def __init__(
        self,
        width: int = 32,
        high_fraction: float = 0.6,
        high_bits: int | None = None,
        low_bits: int | None = None,
    ) -> None:
        super().__init__(width)
        if not 0.0 <= high_fraction <= 1.0:
            raise FaultModelError(
                f"high_fraction must be in [0, 1], got {high_fraction}"
            )
        mantissa = self.mantissa_bits
        self._high_fraction = float(high_fraction)
        self._high_bits = int(high_bits) if high_bits is not None else 8
        self._low_bits = int(low_bits) if low_bits is not None else mantissa // 2
        if self._high_bits < 1 or self._low_bits < 1:
            raise FaultModelError("high_bits and low_bits must each be >= 1")
        if (self._high_bits - 1) + self._low_bits > mantissa:
            raise FaultModelError(
                "high_bits + low_bits exceeds the mantissa width"
            )

    @property
    def high_fraction(self) -> float:
        """Fraction of faults that strike the high-order band (sign + top mantissa)."""
        return self._high_fraction

    @property
    def high_bits(self) -> int:
        """Number of bit positions in the high-order band (including the sign bit)."""
        return self._high_bits

    @property
    def low_bits(self) -> int:
        """Number of bit positions in the low-order band."""
        return self._low_bits

    def _unnormalized_weights(self) -> np.ndarray:
        weights = np.zeros(self.width, dtype=np.float64)
        weights[: self._low_bits] = (1.0 - self._high_fraction) / self._low_bits
        per_high_bit = self._high_fraction / self._high_bits
        mantissa = self.mantissa_bits
        # Top (high_bits - 1) mantissa positions plus the sign bit.
        weights[mantissa - (self._high_bits - 1) : mantissa] = per_high_bit
        weights[self.sign_bit] = per_high_bit
        return weights


class MeasuredBitDistribution(BitPositionDistribution):
    """Synthetic stand-in for the measured (circuit simulation) distribution.

    The paper's measured histogram comes from gate-level timing simulations of
    arithmetic units under voltage overscaling [Kong 2008]; that data is not
    public.  We synthesize a histogram with the same qualitative shape — a
    dominant, smoothly decaying peak over the most significant mantissa bits
    (plus a little mass on the sign, the last bit resolved by the adder's
    carry chain) and a broad, low-amplitude plateau over the low-order
    mantissa bits — so that the Figure 5.1 comparison (measured vs. emulated)
    can be regenerated.
    """

    def __init__(
        self,
        width: int = 32,
        high_fraction: float = 0.62,
        peak_sharpness: float = 0.35,
        sign_fraction: float = 0.05,
    ) -> None:
        super().__init__(width)
        if not 0.0 < high_fraction < 1.0:
            raise FaultModelError(
                f"high_fraction must be in (0, 1), got {high_fraction}"
            )
        if peak_sharpness <= 0:
            raise FaultModelError("peak_sharpness must be positive")
        if not 0.0 <= sign_fraction < 1.0:
            raise FaultModelError("sign_fraction must lie in [0, 1)")
        self._high_fraction = float(high_fraction)
        self._peak_sharpness = float(peak_sharpness)
        self._sign_fraction = float(sign_fraction)

    def _unnormalized_weights(self) -> np.ndarray:
        mantissa = self.mantissa_bits
        positions = np.arange(self.width, dtype=np.float64)
        weights = np.zeros(self.width, dtype=np.float64)
        # Exponentially decaying peak anchored at the mantissa MSB: the
        # significand adder/multiplier critical paths terminate there.
        high_band = np.zeros(self.width)
        high_band[:mantissa] = np.exp(
            -self._peak_sharpness * (mantissa - 1 - positions[:mantissa])
        )
        high_band /= high_band.sum()
        # Gentle plateau over the lower half of the mantissa, decaying toward
        # the middle bits which almost never fail first.
        low_band = np.zeros(self.width)
        low_band[: mantissa // 2] = np.exp(-0.12 * positions[: mantissa // 2])
        low_band /= low_band.sum()
        weights = (
            self._high_fraction * high_band
            + (1.0 - self._high_fraction - self._sign_fraction) * low_band
        )
        weights[self.sign_bit] = self._sign_fraction
        return weights


class UniformBitDistribution(BitPositionDistribution):
    """Every bit position equally likely.  Used for ablation experiments."""

    def _unnormalized_weights(self) -> np.ndarray:
        return np.ones(self.width, dtype=np.float64)


class LowOrderBitDistribution(BitPositionDistribution):
    """Faults restricted to the lowest ``n_bits`` mantissa bits.

    This models a milder overscaling regime where only low-magnitude errors
    occur; it is used by ablation benchmarks to separate the effect of error
    *rate* from error *magnitude*.
    """

    def __init__(self, width: int = 32, n_bits: int = 8) -> None:
        super().__init__(width)
        if not 1 <= n_bits <= width:
            raise FaultModelError(f"n_bits must be in [1, {width}], got {n_bits}")
        self._n_bits = int(n_bits)

    def _unnormalized_weights(self) -> np.ndarray:
        weights = np.zeros(self.width, dtype=np.float64)
        weights[: self._n_bits] = 1.0
        return weights


def total_variation_distance(
    first: BitPositionDistribution, second: BitPositionDistribution
) -> float:
    """Total-variation distance between two bit-position distributions.

    Used by the Figure 5.1 benchmark to quantify how closely the emulated
    distribution tracks the measured one.
    """
    if first.width != second.width:
        raise FaultModelError(
            "cannot compare distributions over different bit widths "
            f"({first.width} vs {second.width})"
        )
    return float(0.5 * np.abs(first.pmf() - second.pmf()).sum())
