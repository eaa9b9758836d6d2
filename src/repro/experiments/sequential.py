"""Sequential sampling: confidence intervals and trial-budget policies.

The fixed-count sweep spends ``SweepSpec.trials`` on every (series, scenario,
rate) point even when the estimate converged after a handful of trials.  This
module supplies the statistics and the policy objects behind the engine's
*adaptive* mode: trials stream in batched rounds and each grid point stops
independently once its confidence interval is tight enough.

Two interval estimators cover the two metric shapes the trial functions
produce:

* :func:`wilson_interval` — the Wilson score interval for a binomial success
  rate (successes counted by :func:`repro.metrics.quality.successes`, the
  rule :meth:`~repro.experiments.results.SeriesResult.success_rates` scores
  with);
* :func:`bootstrap_interval` — a percentile bootstrap for scalar metrics
  (mean error), seeded deterministically so adaptive runs stay
  byte-reproducible.

A :class:`ConfidenceTarget` attached to
:class:`~repro.experiments.spec.SweepSpec` selects the adaptive mode; with
no policy the sweep runs the classic fixed-count grid.  The
determinism contract: point stopping depends only on (spec, target, seed) —
never on the executor or on wall-clock — because every trial value derives
from its grid coordinates and the bootstrap streams derive from the point
coordinates.  A :class:`ConfidenceTarget` whose ``half_width`` is unreachable
degenerates to exactly the fixed-count ``trials=max_trials`` results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.metrics.quality import successes

__all__ = [
    "wilson_interval",
    "wilson_half_width",
    "bootstrap_interval",
    "normal_quantile",
    "ConfidenceTarget",
    "PointStatus",
]

#: Tag mixed into bootstrap seed keys so the resample streams can never
#: collide with trial streams (which use 4- or 5-entry coordinate keys with
#: small second entries).
BOOTSTRAP_STREAM_TAG = 0xB00757AB


# --------------------------------------------------------------------------- #
# Interval math
# --------------------------------------------------------------------------- #
def normal_quantile(p: float) -> float:
    """Inverse standard-normal CDF via Acklam's rational approximation.

    Accurate to ~1e-9 over (0, 1) — far tighter than any stopping decision
    needs — and dependency-free, so the engine does not grow a SciPy
    requirement for one quantile.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile argument must be in (0, 1), got {p}")
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        return ((((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5])
                / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0))
    if p > 1.0 - p_low:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -((((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5])
                 / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0))
    q = p - 0.5
    r = q * q
    return ((((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q
            / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0))


def wilson_interval(
    successes: int, n: int, confidence: float = 0.95
) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Unlike the normal-approximation ("Wald") interval, Wilson bounds are
    always inside [0, 1], never collapse to zero width at the p ∈ {0, 1}
    boundary points the fault-rate grids live on, and are exact at those
    boundaries: ``successes == 0`` pins the lower bound to 0.0 and
    ``successes == n`` pins the upper bound to 1.0.

    With ``n == 0`` the interval is the vacuous (0, 1).
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if not 0 <= successes <= max(n, 0):
        raise ValueError(f"successes must be in [0, n], got {successes} of {n}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if n == 0:
        return (0.0, 1.0)
    z = normal_quantile((1.0 + confidence) / 2.0)
    z2 = z * z
    p_hat = successes / n
    denom = 1.0 + z2 / n
    center = (p_hat + z2 / (2.0 * n)) / denom
    margin = (z * math.sqrt(p_hat * (1.0 - p_hat) / n + z2 / (4.0 * n * n))) / denom
    low = 0.0 if successes == 0 else max(0.0, center - margin)
    high = 1.0 if successes == n else min(1.0, center + margin)
    return (low, high)


def wilson_half_width(successes: int, n: int, confidence: float = 0.95) -> float:
    """Half the width of the Wilson interval (the reported precision)."""
    low, high = wilson_interval(successes, n, confidence)
    return (high - low) / 2.0


def bootstrap_interval(
    values: Sequence[float],
    confidence: float = 0.95,
    n_resamples: int = 200,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[float, float]:
    """Percentile-bootstrap interval for the mean of a scalar metric.

    Resamples ``values`` with replacement ``n_resamples`` times and returns
    the central ``confidence`` quantile band of the resample means.  The
    caller owns the generator: the engine derives it deterministically from
    the point's grid coordinates (see :meth:`ConfidenceTarget.stream_key`),
    which is what keeps adaptive stopping byte-reproducible.

    All values must be finite; non-finite metrics make interval estimates
    meaningless, and the policy layer maps them to an infinite half-width
    (never stop early) before reaching this function.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("bootstrap_interval needs at least one value")
    if not np.all(np.isfinite(arr)):
        raise ValueError("bootstrap_interval requires finite values")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if n_resamples < 1:
        raise ValueError(f"n_resamples must be positive, got {n_resamples}")
    if rng is None:
        rng = np.random.default_rng(0)
    indices = rng.integers(0, arr.size, size=(n_resamples, arr.size))
    means = arr[indices].mean(axis=1)
    alpha = (1.0 - confidence) / 2.0
    return (float(np.quantile(means, alpha)), float(np.quantile(means, 1.0 - alpha)))


# --------------------------------------------------------------------------- #
# Budget policies
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class PointStatus:
    """Stopping assessment for one grid point after a round."""

    trials_used: int
    half_width: float
    target_met: bool


@dataclass(frozen=True)
class ConfidenceTarget:
    """Run each grid point until its CI half-width reaches ``half_width``.

    Trials stream in rounds of ``batch``; after each round every still-active
    point recomputes its interval — Wilson on the thresholded success rate
    for ``metric="success_rate"``, percentile bootstrap of the mean for
    ``metric="mean"`` — and stops once the half-width is at or below the
    target (with at least ``min_trials`` observed).  ``max_trials`` is a hard
    cap: an unreachable target degenerates to exactly the fixed-count
    ``trials=max_trials`` results.

    Stopping depends only on the accumulated trial values (coordinate-seeded)
    and, for the bootstrap, on a stream derived from the point coordinates —
    never on the executor, so adaptive runs are byte-reproducible on every
    executor tier.
    """

    half_width: float = 0.05
    confidence: float = 0.95
    metric: str = "success_rate"
    batch: int = 8
    min_trials: int = 2
    max_trials: int = 1000
    bootstrap_resamples: int = 200

    def __post_init__(self) -> None:
        if not self.half_width > 0.0:
            raise ValueError(f"half_width must be positive, got {self.half_width}")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {self.confidence}")
        if self.metric not in ("success_rate", "mean"):
            raise ValueError(
                f"metric must be 'success_rate' or 'mean', got {self.metric!r}"
            )
        if self.batch < 1:
            raise ValueError(f"batch must be positive, got {self.batch}")
        if self.min_trials < 1:
            raise ValueError(f"min_trials must be positive, got {self.min_trials}")
        if self.max_trials < self.min_trials:
            raise ValueError(
                f"max_trials ({self.max_trials}) must be >= "
                f"min_trials ({self.min_trials})"
            )
        if self.bootstrap_resamples < 1:
            raise ValueError(
                f"bootstrap_resamples must be positive, got {self.bootstrap_resamples}"
            )

    @staticmethod
    def stream_key(
        seed: int,
        series_index: int,
        scenario_index: Optional[int],
        rate_index: int,
        n: int,
    ) -> List[int]:
        """Deterministic bootstrap seed key for one point at sample size n.

        Structurally disjoint from trial-stream keys (the tag constant in
        slot 1 exceeds any scenario/series index), so bootstrap resampling
        can never replay a trial's random stream.
        """
        scenario_slot = 0 if scenario_index is None else scenario_index + 1
        return [int(seed), BOOTSTRAP_STREAM_TAG, int(series_index),
                int(scenario_slot), int(rate_index), int(n)]

    def point_half_width(
        self, values: Sequence[float], stream_key: Sequence[int]
    ) -> float:
        """Current CI half-width of one point given its trial values so far."""
        n = len(values)
        if n == 0:
            return float("inf")
        if self.metric == "success_rate":
            return wilson_half_width(successes(values), n, self.confidence)
        arr = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(arr)):
            return float("inf")
        rng = np.random.default_rng(list(stream_key))
        low, high = bootstrap_interval(
            arr, confidence=self.confidence,
            n_resamples=self.bootstrap_resamples, rng=rng,
        )
        return (high - low) / 2.0

    def assess(
        self, values: Sequence[float], stream_key: Sequence[int]
    ) -> PointStatus:
        """Assess one point: its half-width and whether the target is met."""
        width = self.point_half_width(values, stream_key)
        met = len(values) >= self.min_trials and width <= self.half_width
        return PointStatus(trials_used=len(values), half_width=width, target_met=met)

    def fingerprint(self) -> dict:
        return {
            "kind": "confidence-target",
            "half_width": float(self.half_width),
            "confidence": float(self.confidence),
            "metric": self.metric,
            "batch": int(self.batch),
            "min_trials": int(self.min_trials),
            "max_trials": int(self.max_trials),
            "bootstrap_resamples": int(self.bootstrap_resamples),
        }
