"""Output-quality metrics and trial statistics.

:mod:`repro.metrics.quality` holds the one definition of each of the paper's
Chapter 6 metrics that the applications and reports score through: success
rate for sorting and matching (with the sorting success check), relative
error for least squares, and error over signal energy and mean squared error
for IIR.  :mod:`repro.metrics.statistics` aggregates per-trial values into the
summaries the experiment harness reports.
"""
