"""Output-quality metrics matching the paper's definitions (Chapter 6).

The one definition of each: sorting scores its output with
:func:`is_valid_sorted_output`, least squares with :func:`relative_error`,
IIR filtering with :func:`relative_error` (error over signal energy) and
:func:`mean_squared_error`, and every success-rate report, search probe and
confidence target counts 0/1 trial values with :func:`successes` and
:func:`success_rate`.  A non-finite output is never close to its reference:
the error metrics map it to ``inf`` and the sorting check rejects it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "successes",
    "success_rate",
    "is_valid_sorted_output",
    "relative_error",
    "mean_squared_error",
]


def successes(values: Iterable[float]) -> int:
    """Number of trial values that count as a success (value ≥ 0.5).

    Success-metric trial functions return 1.0 for an exactly correct output
    and 0.0 otherwise; a ``nan`` value is a failure.
    """
    return sum(1 for value in values if value >= 0.5)


def success_rate(values: Sequence[float]) -> float:
    """Fraction of trial values that count as a success, in [0, 1].

    The sorting (Figure 6.1) and matching (Figures 6.4/6.5) metric.  No trials
    give ``nan``, not 0: "no data" and "every trial failed" are different
    outcomes and the reports must not conflate them.
    """
    if len(values) == 0:
        return float("nan")
    return successes(values) / len(values)


def is_valid_sorted_output(
    output: np.ndarray, original: np.ndarray, rtol: float = 5.0e-7
) -> bool:
    """Whether ``output`` is a correctly sorted permutation of ``original``.

    Mirrors the paper's sorting success criterion: "any undetermined entries
    (NaNs), wrongly sorted number, etc., is considered a failure."  The value
    comparison allows single-precision round-off (the datapath stores results
    as float32) but flags anything beyond it — including the smallest injected
    mantissa-bit faults — as a wrongly sorted number.
    """
    out = np.asarray(output, dtype=np.float64)
    orig = np.asarray(original, dtype=np.float64)
    if out.shape != orig.shape or not np.all(np.isfinite(out)):
        return False
    if np.any(np.diff(out) < 0):
        return False
    scale = float(np.max(np.abs(orig))) if orig.size else 1.0
    return bool(
        np.allclose(np.sort(out), np.sort(orig), rtol=rtol, atol=rtol * max(scale, 1.0))
    )


def relative_error(actual: np.ndarray, reference: np.ndarray) -> float:
    """``||actual − reference|| / ||reference||`` with non-finite actuals → inf.

    The Figure 6.2/6.6 least-squares metric ("relative error w.r.t. ideal")
    and the Figure 6.3 IIR error-to-signal ratio.  ``np.linalg.norm`` squares
    without scaling, so a finite difference above ~1.34e154 overflows it to
    inf (without a warning here); only then is the norm recomputed scaled by
    ``max|difference|``, which leaves every value the plain norm gets right
    as it was.
    """
    actual_arr = np.asarray(actual, dtype=np.float64)
    reference_arr = np.asarray(reference, dtype=np.float64)
    if not np.all(np.isfinite(actual_arr)):
        return float("inf")
    denominator = max(float(np.linalg.norm(reference_arr)), np.finfo(float).tiny)
    difference = actual_arr - reference_arr
    with np.errstate(over="ignore"):
        error = np.linalg.norm(difference)
    if np.isinf(error) and np.all(np.isfinite(difference)):
        scale = np.max(np.abs(difference))
        error = scale * np.linalg.norm(difference / scale)
    return float(error / denominator)


def mean_squared_error(actual: np.ndarray, reference: np.ndarray) -> float:
    """Mean squared error, with non-finite actual values mapping to inf."""
    actual_arr = np.asarray(actual, dtype=np.float64)
    reference_arr = np.asarray(reference, dtype=np.float64)
    if not np.all(np.isfinite(actual_arr)):
        return float("inf")
    return float(np.mean((actual_arr - reference_arr) ** 2))
