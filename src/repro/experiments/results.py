"""Result containers for reproduced figures.

:class:`SeriesResult` holds one curve of a figure (per-fault-rate trial
values); :class:`FigureResult` bundles the curves of one reproduced figure
with its presentation metadata.  Both round-trip through plain dictionaries
(:meth:`FigureResult.to_dict` / :meth:`FigureResult.from_dict`) so the
experiment engine can cache completed figures on disk.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.metrics.quality import success_rate
from repro.metrics.statistics import TrialSummary, summarize

__all__ = ["SeriesResult", "FigureResult", "series_digest"]


@dataclass
class SeriesResult:
    """One curve of a figure: a named series over the fault-rate grid.

    ``trials_used`` / ``halted_early`` are populated only by adaptive
    (confidence-target) runs: per fault-rate point, how many trials the
    round loop actually spent and whether the point stopped before its
    ``max_trials`` cap.  Fixed-count sweeps leave both ``None``, and the
    serialized form omits them entirely so historical cache entries and
    figure payloads stay byte-identical.
    """

    name: str
    fault_rates: List[float] = field(default_factory=list)
    values: List[List[float]] = field(default_factory=list)
    trials_used: Optional[List[int]] = None
    halted_early: Optional[List[bool]] = None

    def summaries(self) -> List[TrialSummary]:
        """Per-fault-rate summaries of the trial values."""
        return [summarize(v) for v in self.values]

    def means(self) -> List[float]:
        """Per-fault-rate means (the quantity plotted in the paper's figures)."""
        return [s.mean for s in self.summaries()]

    def success_rates(self) -> List[float]:
        """Per-fault-rate :func:`~repro.metrics.quality.success_rate` (0/1 series).

        A fault rate with no recorded trials yields ``nan`` rather than a
        misleading 0 % success rate.
        """
        return [success_rate(trial_values) for trial_values in self.values]

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form of this series (for the on-disk result cache)."""
        payload: Dict[str, Any] = {
            "name": self.name,
            "fault_rates": [float(r) for r in self.fault_rates],
            "values": [[float(v) for v in trial_values] for trial_values in self.values],
        }
        if self.trials_used is not None:
            payload["trials_used"] = [int(n) for n in self.trials_used]
        if self.halted_early is not None:
            payload["halted_early"] = [bool(flag) for flag in self.halted_early]
        return payload

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SeriesResult":
        """Rebuild a series from :meth:`to_dict` output."""
        trials_used = data.get("trials_used")
        halted_early = data.get("halted_early")
        return cls(
            name=str(data["name"]),
            fault_rates=[float(r) for r in data["fault_rates"]],
            values=[[float(v) for v in trial_values] for trial_values in data["values"]],
            trials_used=None if trials_used is None else [int(n) for n in trials_used],
            halted_early=(
                None if halted_early is None else [bool(f) for f in halted_early]
            ),
        )


def series_digest(series: Sequence["SeriesResult"]) -> str:
    """SHA-256 over the canonical serialized form of a series list.

    The digest covers exactly what the result cache would persist
    (:meth:`SeriesResult.to_dict` of every series, in order), serialized
    with sorted keys and compact separators — so two runs have equal digests
    if and only if their cached payloads would be byte-identical.  Like the
    cache and shard store, it accepts the ``inf``/``nan`` trial values a
    diverged baseline produces.  This is the campaign layer's bit-identity
    check: a sharded-merge run must digest equal to the single-process
    serial run.
    """
    payload = [entry.to_dict() for entry in series]
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class FigureResult:
    """All series of one reproduced figure plus presentation metadata."""

    figure_id: str
    title: str
    x_label: str
    y_label: str
    series: List[SeriesResult] = field(default_factory=list)
    notes: str = ""

    def series_named(self, name: str) -> SeriesResult:
        """Look up a series by name."""
        for entry in self.series:
            if entry.name == name:
                return entry
        raise KeyError(f"no series named {name!r} in figure {self.figure_id}")

    @property
    def fault_rates(self) -> List[float]:
        """The x-axis grid: taken from the first series that recorded one.

        Falls back over empty series (a series that has not run yet has no
        fault rates) and returns ``[]`` for a figure with no populated series.
        """
        for entry in self.series:
            if entry.fault_rates:
                return entry.fault_rates
        return []

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form of this figure (for the on-disk result cache)."""
        return {
            "figure_id": self.figure_id,
            "title": self.title,
            "x_label": self.x_label,
            "y_label": self.y_label,
            "notes": self.notes,
            "series": [entry.to_dict() for entry in self.series],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FigureResult":
        """Rebuild a figure from :meth:`to_dict` output."""
        return cls(
            figure_id=str(data["figure_id"]),
            title=str(data["title"]),
            x_label=str(data["x_label"]),
            y_label=str(data["y_label"]),
            notes=str(data.get("notes", "")),
            series=[SeriesResult.from_dict(entry) for entry in data.get("series", [])],
        )
