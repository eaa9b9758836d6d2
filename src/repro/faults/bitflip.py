"""Raw IEEE-754 bit-flip primitives.

The paper's hardware fault injector perturbs "one randomly chosen bit in the
output of the FPU before it is committed to a register".  This module provides
the corresponding software primitive: flipping a chosen bit of a float32 or
float64 value (or of selected elements of an array) by reinterpreting the
floating-point storage as an unsigned integer and XOR-ing a single-bit mask.

Flipping high-order bits (sign, exponent, high mantissa) produces large
magnitude errors, NaNs or infinities; flipping low-order mantissa bits
produces small relative errors.  Both behaviours are intentional — they are
exactly the error population the robustified applications must tolerate.
"""

from __future__ import annotations

from array import array
from typing import Union

import numpy as np

from repro.exceptions import FaultModelError

__all__ = [
    "SUPPORTED_DTYPES",
    "bit_width",
    "float_to_bits",
    "bits_to_float",
    "flip_bit_scalar",
    "flip_bit_array",
    "flip_bits_at",
    "relative_error_magnitude",
]

#: Mapping from floating dtype -> (matching unsigned integer dtype, bit width).
_FLOAT_LAYOUT = {
    np.dtype(np.float32): (np.uint32, 32),
    np.dtype(np.float64): (np.uint64, 64),
}

#: The floating-point dtypes the fault machinery supports.
SUPPORTED_DTYPES = tuple(_FLOAT_LAYOUT)

#: Per float dtype, the single-bit XOR masks of its unsigned layout, indexed
#: by bit position.
_BIT_MASKS = {
    dtype: np.left_shift(uint_dtype(1), np.arange(width, dtype=uint_dtype))
    for dtype, (uint_dtype, width) in _FLOAT_LAYOUT.items()
}

#: Per float dtype, the array-module type codes of the float and of its
#: unsigned layout (numpy's type characters name the same C types), and its
#: bit width.
_SCALAR_LAYOUT = {
    dtype: (dtype.char, np.dtype(uint_dtype).char, width)
    for dtype, (uint_dtype, width) in _FLOAT_LAYOUT.items()
}

FloatLike = Union[float, np.floating]


def _layout(dtype: np.dtype) -> tuple[type, int]:
    """Return ``(unsigned integer dtype, bit width)`` for a float dtype."""
    dtype = np.dtype(dtype)
    try:
        return _FLOAT_LAYOUT[dtype]
    except KeyError as exc:
        raise FaultModelError(
            f"unsupported floating-point dtype {dtype!r}; "
            f"supported dtypes are {sorted(str(d) for d in _FLOAT_LAYOUT)}"
        ) from exc


def _check_positions(positions: np.ndarray, width: int) -> None:
    """Raise :class:`FaultModelError` unless every position lies in ``[0, width)``."""
    if positions.size and (positions.min() < 0 or positions.max() >= width):
        raise FaultModelError(
            f"bit positions must lie in [0, {width}); got range "
            f"[{positions.min()}, {positions.max()}]"
        )


def bit_width(dtype: np.dtype) -> int:
    """Number of storage bits of a supported floating-point dtype (32 or 64)."""
    return _layout(dtype)[1]


def float_to_bits(values: np.ndarray, dtype: np.dtype = np.float64) -> np.ndarray:
    """Reinterpret floating-point values as their unsigned-integer bit patterns."""
    uint_dtype, _ = _layout(dtype)
    arr = np.asarray(values, dtype=dtype)
    return arr.view(uint_dtype)


def bits_to_float(bits: np.ndarray, dtype: np.dtype = np.float64) -> np.ndarray:
    """Reinterpret unsigned-integer bit patterns as floating-point values."""
    uint_dtype, _ = _layout(dtype)
    arr = np.asarray(bits, dtype=uint_dtype)
    return arr.view(np.dtype(dtype))


def flip_bit_scalar(value: FloatLike, bit: int, dtype: np.dtype = np.float64) -> float:
    """Flip a single bit of a scalar floating-point value.

    Parameters
    ----------
    value:
        The original (correct) floating-point result.
    bit:
        Bit position to flip, with 0 the least-significant mantissa bit and
        ``bit_width(dtype) - 1`` the sign bit.
    dtype:
        ``numpy.float32`` or ``numpy.float64``.

    Returns
    -------
    float
        The corrupted value.  May be NaN or infinite when an exponent bit is
        flipped; callers must not filter these out — they are part of the
        fault model.
    """
    layout = _SCALAR_LAYOUT.get(np.dtype(dtype))
    if layout is None:
        _layout(dtype)  # raises the unsupported-dtype error
    float_code, bits_code, width = layout
    if not 0 <= bit < width:
        raise FaultModelError(f"bit position {bit} out of range [0, {width})")
    # The datapath cast, the XOR and the widening back are the C conversions
    # numpy makes, on the array module: no numpy scalar, and no
    # floating-point warning from a cast that overflows or meets a NaN.
    cell = array(float_code, (value,))
    memoryview(cell).cast("B").cast(bits_code)[0] ^= 1 << int(bit)
    return cell[0]


def flip_bit_array(
    values: np.ndarray,
    bit_positions: np.ndarray,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Flip one bit per selected element of a floating-point array.

    Parameters
    ----------
    values:
        Array of floating-point values (float32 or float64).  Not modified.
    bit_positions:
        Integer array broadcastable to ``values.shape`` giving, for each
        element, the bit to flip.
    mask:
        Optional boolean array of the same shape; only elements where the
        mask is ``True`` are corrupted.  When omitted, every element is
        corrupted.

    Returns
    -------
    numpy.ndarray
        A new array with the selected bits flipped.
    """
    arr = np.asarray(values)
    uint_dtype, width = _layout(arr.dtype)
    positions = np.asarray(bit_positions)
    _check_positions(positions, width)
    bits = arr.view(uint_dtype).copy()
    flip_mask = np.left_shift(
        np.asarray(1, dtype=uint_dtype), positions.astype(uint_dtype)
    )
    if mask is None:
        bits ^= flip_mask
    else:
        mask = np.asarray(mask, dtype=bool)
        bits[mask] ^= np.broadcast_to(flip_mask, bits.shape)[mask]
    return bits.view(arr.dtype)


def flip_bits_at(
    native: np.ndarray,
    flat_indices: np.ndarray,
    positions: np.ndarray,
) -> None:
    """XOR bit ``positions[k]`` into element ``flat_indices[k]``, in place.

    The compact form of :func:`flip_bit_array` used by the fault kernels:
    ``native`` is a C-contiguous float32/float64 array, ``flat_indices``
    index its C-order flattening, and only the flipped elements are touched.
    ``positions`` come from :meth:`BitPositionDistribution.sample
    <repro.faults.distribution.BitPositionDistribution.sample>` (the
    inverse-CDF lookup over a distribution of the array's width), so they
    lie in ``[0, width)`` by construction and are not range-checked.
    """
    uint_dtype, _ = _layout(native.dtype)
    flat_bits = native.view(uint_dtype).reshape(-1)
    flat_bits[flat_indices] ^= _BIT_MASKS[native.dtype][positions]


def relative_error_magnitude(original: FloatLike, corrupted: FloatLike) -> float:
    """Relative magnitude of the error introduced by a bit flip.

    Defined as ``|corrupted - original| / max(|original|, tiny)``.  NaN or
    infinite corrupted values map to ``numpy.inf`` so that histogramming code
    can place them in the catastrophic-error bucket.
    """
    original_f = float(original)
    corrupted_f = float(corrupted)
    if not np.isfinite(corrupted_f):
        return float("inf")
    denom = max(abs(original_f), np.finfo(np.float64).tiny)
    return abs(corrupted_f - original_f) / denom
