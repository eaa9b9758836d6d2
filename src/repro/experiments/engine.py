"""The experiment engine: plan, execute, stream progress, cache figures.

:class:`ExperimentEngine` is the front door of the experiments subsystem.  A
sweep is first expanded into seeded :class:`~repro.experiments.spec.TrialSpec`
entries (the *plan*), then handed to a pluggable executor (the *execution*):

>>> engine = ExperimentEngine(executor="vectorized")
>>> series = engine.run_sweep(SweepSpec({"Base": trial_fn}, trials=20))

Because every trial derives its random streams from its own grid coordinates,
all executors produce bit-identical results; choosing an executor is purely a
throughput decision.  ``serial`` is the reference, ``batched`` vectorizes per
(series, rate) cell, and ``vectorized`` runs the tensorized trial backend
(one stacked computation per series, spanning the whole rate grid — see
:mod:`repro.experiments.tensor`).  Parallel runs go through the campaign
layer (:mod:`repro.experiments.campaign`), whose worker pools run shards
through these same executors.  The engine additionally streams per-(series,
rate) progress events to an optional callback and memoizes completed figures
on disk through :class:`~repro.experiments.cache.ResultCache`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.experiments.cache import ResultCache
from repro.experiments.executors import Executor, get_executor
from repro.experiments.results import FigureResult, SeriesResult
from repro.experiments.sequential import PointStatus
from repro.experiments.spec import PointKey, SweepSpec, TrialSpec

__all__ = [
    "ProgressEvent",
    "ExperimentEngine",
    "run_point_block",
    "run_adaptive_points",
    "assemble_series",
    "point_label",
    "point_rate",
]

#: Per-point trial values, keyed by (series_index, scenario_index, rate_index).
PointValues = Dict[PointKey, List[float]]


@dataclass(frozen=True)
class ProgressEvent:
    """One progress update: trials completed for a (series, fault-rate) cell.

    Adaptive (confidence-target) sweeps additionally emit one event per
    point per round carrying ``ci_half_width`` — the point's current
    interval half-width after the round — with ``total`` set to the policy's
    ``max_trials`` cap and ``sweep_total`` to the worst-case trial count, so
    an adaptive sweep typically *finishes* with ``sweep_completed`` below
    ``sweep_total``.
    """

    series_name: str
    fault_rate: float
    completed: int
    total: int
    sweep_completed: int
    sweep_total: int
    ci_half_width: Optional[float] = None

    @property
    def cell_done(self) -> bool:
        """Whether every trial of this (series, fault-rate) cell has finished."""
        return self.completed >= self.total

    def __str__(self) -> str:
        text = (
            f"[{self.sweep_completed}/{self.sweep_total}] "
            f"{self.series_name} @ rate {self.fault_rate:g}: "
            f"{self.completed}/{self.total} trials"
        )
        if self.ci_half_width is not None:
            text += f" (ci half-width {self.ci_half_width:.4g})"
        return text


#: Progress callback signature.
ProgressCallback = Callable[[ProgressEvent], None]


# --------------------------------------------------------------------------- #
# Point-restricted execution (shared by the engine and the campaign layer)
# --------------------------------------------------------------------------- #
# The engine's two sweep modes — the pre-planned fixed-count grid and the
# adaptive round loop — are expressed below as free functions over an
# arbitrary *subset* of grid points.  ``ExperimentEngine.run_sweep`` is the
# all-points call (one implicit shard spanning the whole grid);
# ``repro.experiments.campaign`` runs the same functions per shard and merges
# with the same :func:`assemble_series`, which is why a sharded campaign is
# bit-identical to the serial path by construction rather than by accident.


def point_label(sweep: SweepSpec, point: PointKey) -> str:
    """The display name of one grid point's series (scenario-qualified)."""
    series_index, scenario_index, _ = point
    name = sweep.series_names[series_index]
    if scenario_index is not None:
        name = f"{name} @ {sweep.scenarios[scenario_index].name}"
    return name


def point_rate(sweep: SweepSpec, point: PointKey) -> float:
    """The effective fault rate of one grid point."""
    series_index, scenario_index, rate_index = point
    rate = sweep.fault_rates[rate_index]
    if scenario_index is not None:
        rate = sweep.scenarios[scenario_index].effective_fault_rate(rate)
    return rate


def run_point_block(
    sweep: SweepSpec,
    points: Sequence[PointKey],
    executor: Executor,
    make_emitter: Optional[Callable[[Sequence[TrialSpec]], Callable[[int, float], None]]] = None,
) -> PointValues:
    """Run the fixed-count grid restricted to ``points``.

    Expands trial indices ``[0, sweep.trials)`` for exactly the given grid
    points (in plan order, with the same coordinate-derived seeds the full
    grid would carry) and returns each point's trial values in trial order.
    With ``points = sweep.point_keys()`` this is the whole fixed-count sweep.
    """
    specs = sweep.expand_trials(0, sweep.trials, points=points)
    emit = make_emitter(specs) if make_emitter is not None else None
    values = executor.run(sweep, specs, emit)
    collected: PointValues = {point: [] for point in points}
    for spec, value in zip(specs, values):
        point = (spec.series_index, spec.scenario_index, spec.rate_index)
        collected[point].append(float(value))
    return collected


def run_adaptive_points(
    sweep: SweepSpec,
    points: Sequence[PointKey],
    executor: Executor,
    make_round_emitter: Optional[
        Callable[[Sequence[TrialSpec], PointValues], Callable[[int, float], None]]
    ] = None,
    on_point_status: Optional[Callable[[PointKey, PointStatus], None]] = None,
) -> Tuple[PointValues, Dict[PointKey, bool]]:
    """Run the adaptive (confidence-target) round loop restricted to ``points``.

    Each round expands one deterministic block of trial indices for the
    still-active points (via :meth:`SweepSpec.expand_trials`, so the trials
    carry exactly the coordinate-derived seeds the fixed grid would give
    them) and runs it through ``executor`` unchanged.  After the round,
    every active point recomputes its interval and stops independently once
    the target half-width is met — or unconditionally at the policy's
    ``max_trials`` cap.  Because trial values and bootstrap streams depend
    only on coordinates, a point's stopping pattern is independent of which
    other points share its batch: running a subset of the grid (a campaign
    shard) reproduces exactly the trials and stopping decisions the
    full-grid loop would give those points.

    Returns the per-point trial values and the per-point early-halt flags.
    """
    policy = sweep.policy
    collected: PointValues = {point: [] for point in points}
    halted: Dict[PointKey, bool] = {}
    active = list(points)
    round_index = 0
    while active:
        start = round_index * policy.batch
        stop = min(start + policy.batch, policy.max_trials)
        specs = sweep.expand_trials(start, stop, points=active)
        emit = (
            make_round_emitter(specs, collected)
            if make_round_emitter is not None
            else None
        )
        values = executor.run(sweep, specs, emit)
        for spec, value in zip(specs, values):
            point = (spec.series_index, spec.scenario_index, spec.rate_index)
            collected[point].append(float(value))
        still_active = []
        for point in active:
            trial_values = collected[point]
            series_index, scenario_index, rate_index = point
            status = policy.assess(
                trial_values,
                policy.stream_key(
                    sweep.seed, series_index, scenario_index,
                    rate_index, len(trial_values),
                ),
            )
            if status.target_met and status.trials_used < policy.max_trials:
                halted[point] = True
            elif status.trials_used >= policy.max_trials:
                halted[point] = False
            else:
                still_active.append(point)
            if on_point_status is not None:
                on_point_status(point, status)
        active = still_active
        round_index += 1
    return collected, halted


def assemble_series(
    sweep: SweepSpec,
    collected: Mapping[PointKey, Sequence[float]],
    halted: Optional[Mapping[PointKey, bool]] = None,
) -> List[SeriesResult]:
    """Assemble per-series results from per-point trial values.

    This is the single merge step behind both execution paths: the engine
    assembles its all-points run and the campaign layer assembles shard
    artifacts through the same function, so the merged output is
    byte-identical however the points were partitioned.  ``halted`` is the
    adaptive round loop's early-stop map; when given, ``trials_used`` /
    ``halted_early`` are populated per point (fixed-count sweeps leave both
    ``None``, preserving the historical serialized form).
    """
    def build_series(
        name: str, fault_rates: List[float], series_index: int,
        scenario_index: Optional[int],
    ) -> SeriesResult:
        points = [
            (series_index, scenario_index, rate_index)
            for rate_index in range(len(sweep.fault_rates))
        ]
        series = SeriesResult(
            name=name,
            fault_rates=fault_rates,
            values=[[float(v) for v in collected[point]] for point in points],
        )
        if halted is not None:
            series.trials_used = [len(collected[point]) for point in points]
            series.halted_early = [bool(halted[point]) for point in points]
        return series

    if sweep.scenarios is None:
        return [
            build_series(name, list(sweep.fault_rates), series_index, None)
            for series_index, name in enumerate(sweep.series_names)
        ]
    from repro.experiments.scenarios import scenario_series_name

    return [
        build_series(
            scenario_series_name(name, scenario),
            sweep.scenario_rates(scenario),
            series_index,
            scenario_index,
        )
        for series_index, name in enumerate(sweep.series_names)
        for scenario_index, scenario in enumerate(sweep.scenarios)
    ]


class ExperimentEngine:
    """Plans and executes fault-rate sweeps; optionally caches figures.

    Parameters
    ----------
    executor:
        Executor name (``"serial"``, ``"batched"``, ``"vectorized"``) or a
        ready-built :class:`~repro.experiments.executors.Executor`.
    cache_dir:
        Enables :meth:`run_figure` memoization when set.
    progress:
        Callback receiving a :class:`ProgressEvent` after every completed
        trial, in completion order.

    Trials run on the ambient compute backend (see
    :func:`repro.backends.use_backend`).
    """

    def __init__(
        self,
        executor: Union[str, Executor] = "serial",
        cache_dir: Union[str, Path, None] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> None:
        self.executor = (
            executor if isinstance(executor, Executor) else get_executor(executor)
        )
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.progress = progress

    # ------------------------------------------------------------------ #
    # Sweep execution
    # ------------------------------------------------------------------ #
    def run_sweep(self, sweep: SweepSpec) -> List[SeriesResult]:
        """Execute a sweep plan and assemble per-series results.

        For single-axis sweeps the returned series mirror the historical
        serial sweep exactly: one :class:`SeriesResult` per trial function,
        values indexed by ``[rate_index][trial_index]``, independent of the
        executor and of completion order.  For scenario grids
        (``sweep.scenarios`` set) there is one series per (trial function,
        scenario) pair — series-major, then scenario — named
        ``"<series> @ <scenario>"``, with ``fault_rates`` holding each grid
        point's *effective* rate under that scenario (voltage- or rate-pinned
        scenarios repeat their pinned rate).

        A sweep with an adaptive budget policy
        (:class:`~repro.experiments.sequential.ConfidenceTarget`) runs the
        round loop instead of the pre-planned grid: same series layout, but
        each point's trial list is as long as the policy needed, and
        ``trials_used`` / ``halted_early`` are populated per point.
        """
        points = sweep.point_keys()
        if sweep.adaptive:
            return self._run_adaptive(sweep, points)
        make_emitter = None
        if self.progress is not None:
            def make_emitter(specs):
                return self._make_emitter(specs, {}, sweep.trials, len(specs), {"count": 0})
        collected = run_point_block(sweep, points, self.executor, make_emitter)
        return assemble_series(sweep, collected)

    def _run_adaptive(
        self, sweep: SweepSpec, points: Sequence[PointKey]
    ) -> List[SeriesResult]:
        """Confidence-target sweeps: the shared round loop plus progress.

        Delegates to :func:`run_adaptive_points` over the full grid (see its
        docstring for the determinism contract) and wires the engine's
        progress machinery through the loop's emitter hooks.
        """
        policy = sweep.policy
        sweep_total = len(points) * policy.max_trials
        done = {"count": 0}
        make_round_emitter = None
        on_point_status = None
        if self.progress is not None:
            def make_round_emitter(specs, collected):
                return self._make_emitter(
                    specs, collected, policy.max_trials, sweep_total, done
                )

            def on_point_status(point, status):
                self._emit_round_event(sweep, point, status, done, sweep_total)

        collected, halted = run_adaptive_points(
            sweep, points, self.executor, make_round_emitter, on_point_status
        )
        return assemble_series(sweep, collected, halted)

    def _emit_round_event(
        self,
        sweep: SweepSpec,
        point: Tuple[int, Optional[int], int],
        status: "PointStatus",
        done: Dict[str, int],
        sweep_total: int,
    ) -> None:
        self.progress(
            ProgressEvent(
                series_name=point_label(sweep, point),
                fault_rate=point_rate(sweep, point),
                completed=status.trials_used,
                total=sweep.policy.max_trials,
                sweep_completed=done["count"],
                sweep_total=sweep_total,
                ci_half_width=status.half_width,
            )
        )

    def _make_emitter(
        self,
        specs: Sequence[TrialSpec],
        collected: Mapping[PointKey, Sequence[float]],
        total: int,
        sweep_total: int,
        done: Dict[str, int],
    ) -> Callable[[int, float], None]:
        """A per-trial progress emitter for one block of trial specs.

        Each point's count starts from the values ``collected`` already holds
        for it (earlier adaptive rounds), and ``done`` is the sweep-wide
        completed-trial counter shared by every block of the sweep.
        """
        progress = self.progress
        counts = {point: len(values) for point, values in collected.items()}

        def emit(index: int, value: float) -> None:
            spec = specs[index]
            point = (spec.series_index, spec.scenario_index, spec.rate_index)
            counts[point] = counts.get(point, 0) + 1
            done["count"] += 1
            name = spec.series_name
            if spec.scenario_name:
                name = f"{name} @ {spec.scenario_name}"
            progress(
                ProgressEvent(
                    series_name=name,
                    fault_rate=spec.fault_rate,
                    completed=counts[point],
                    total=total,
                    sweep_completed=done["count"],
                    sweep_total=sweep_total,
                )
            )

        return emit

    # ------------------------------------------------------------------ #
    # Cached figure reproduction
    # ------------------------------------------------------------------ #
    def run_figure(
        self,
        key: Mapping[str, Any],
        build: Callable[[], FigureResult],
        refresh: bool = False,
    ) -> FigureResult:
        """Build a figure, memoized on disk by the content hash of ``key``.

        ``key`` must capture everything that determines the figure's values
        (workload parameters, trials, iterations, seed, ...).  With no cache
        directory configured, or with ``refresh=True``, ``build()`` always
        runs; a completed build is stored so the next run with the same key
        is a file read.
        """
        if self.cache is not None and not refresh:
            cached = self.cache.load(key)
            if cached is not None:
                return cached
        figure = build()
        if self.cache is not None:
            self.cache.store(key, figure)
        return figure
