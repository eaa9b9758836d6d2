"""Output-quality metrics and trial statistics.

:mod:`repro.metrics.quality` holds the one definition of each of the paper's
Chapter 6 metrics that the applications and reports score through: success
rate for sorting and matching (with the sorting success check), relative
error for least squares, and error over signal energy and mean squared error
for IIR.  :mod:`repro.metrics.statistics` aggregates per-trial values into the
summaries the experiment harness reports.
"""

from repro.metrics.quality import (
    successes,
    success_rate,
    is_valid_sorted_output,
    relative_error,
    mean_squared_error,
)
from repro.metrics.statistics import TrialSummary, summarize

__all__ = [
    "successes",
    "success_rate",
    "is_valid_sorted_output",
    "relative_error",
    "mean_squared_error",
    "TrialSummary",
    "summarize",
]
