"""Aggregation of per-trial metric values."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = ["TrialSummary", "summarize"]


@dataclass(frozen=True)
class TrialSummary:
    """Summary statistics of a set of per-trial metric values.

    ``n_failed`` counts trials whose metric was non-finite (for example a
    baseline run that produced NaNs); those trials are excluded from the
    mean/median/std but reported so the harness can surface them.
    """

    n_trials: int
    n_failed: int
    mean: float
    median: float
    std: float
    minimum: float
    maximum: float

    def __str__(self) -> str:
        return (
            f"mean={self.mean:.4g} median={self.median:.4g} std={self.std:.4g} "
            f"min={self.minimum:.4g} max={self.maximum:.4g} "
            f"({self.n_trials} trials, {self.n_failed} failed)"
        )


def summarize(values: Iterable[float]) -> TrialSummary:
    """Build a :class:`TrialSummary` from raw per-trial values."""
    arr = np.asarray(list(values), dtype=np.float64)
    finite = arr[np.isfinite(arr)]
    n_failed = int(arr.size - finite.size)
    if finite.size == 0:
        nan = float("nan")
        return TrialSummary(
            n_trials=int(arr.size),
            n_failed=n_failed,
            mean=nan,
            median=nan,
            std=nan,
            minimum=nan,
            maximum=nan,
        )
    return TrialSummary(
        n_trials=int(arr.size),
        n_failed=n_failed,
        mean=float(finite.mean()),
        median=float(np.median(finite)),
        std=float(finite.std()),
        minimum=float(finite.min()),
        maximum=float(finite.max()),
    )
