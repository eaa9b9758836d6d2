"""The experiment engine: plan, execute, report progress, cache figures.

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
:mod:`repro.experiments.tensor`).  The engine runs a sweep one (series,
scenario) unit at a time through :func:`run_points`, the same call a
campaign shard makes (:mod:`repro.experiments.campaign`, whose worker pools
are where parallel runs live).  It reports one progress event per grid point
as the point's unit or adaptive round finishes, and memoizes completed
figures on disk through :class:`~repro.experiments.cache.ResultCache`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.experiments.cache import ResultCache
from repro.experiments.executors import Executor, get_executor
from repro.experiments.results import FigureResult, SeriesResult
from repro.experiments.scenarios import scenario_series_name
from repro.experiments.sequential import PointStatus
from repro.experiments.spec import PointKey, SweepSpec

__all__ = [
    "ProgressEvent",
    "ExperimentEngine",
    "progress_reporter",
    "run_points",
    "run_point_block",
    "run_adaptive_points",
    "assemble_series",
]

#: Per-point trial values, keyed by (series_index, scenario_index, rate_index).
PointValues = Dict[PointKey, List[float]]


@dataclass(frozen=True)
class ProgressEvent:
    """One progress update: the trials a (series, fault-rate) point has so far.

    Every sweep reports one event per grid point as the point's (series,
    scenario) unit, campaign shard or adaptive round finishes (see
    :func:`progress_reporter`).  Adaptive (confidence-target) rounds also
    carry ``ci_half_width`` — the point's interval half-width after the
    round — with ``total`` set to the policy's ``max_trials`` cap and
    ``sweep_total`` to the worst-case trial count, so an adaptive sweep
    typically *finishes* with ``sweep_completed`` below ``sweep_total``.
    """

    series_name: str
    fault_rate: float
    completed: int
    total: int
    sweep_completed: int
    sweep_total: int
    ci_half_width: Optional[float] = None

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

#: Called as a grid point finishes a unit, shard or adaptive round:
#: ``report(point, values, status)`` with every trial value the point has so
#: far and, after an adaptive round, its :class:`PointStatus`.
PointReport = Callable[[PointKey, Sequence[float], Optional[PointStatus]], None]


def progress_reporter(
    sweep: SweepSpec, progress: Optional[ProgressCallback]
) -> Optional[PointReport]:
    """The :data:`PointReport` that turns finished points into ``progress`` events.

    ``None`` when there is no callback.  ``sweep_completed`` counts each
    point's trials once, however often the point reports; the engine and
    the campaign layer both build their events here.
    """
    if progress is None:
        return None
    total = sweep.policy.max_trials if sweep.adaptive else sweep.trials
    sweep_total = len(sweep.point_keys()) * total
    counted: Dict[PointKey, int] = {}
    done = 0

    def report(
        point: PointKey, values: Sequence[float], status: Optional[PointStatus]
    ) -> None:
        nonlocal done
        done += len(values) - counted.get(point, 0)
        counted[point] = len(values)
        series_index, scenario_index, rate_index = point
        name = sweep.series_names[series_index]
        rate = sweep.fault_rates[rate_index]
        if scenario_index is not None:
            scenario = sweep.scenarios[scenario_index]
            name = scenario_series_name(name, scenario)
            rate = scenario.effective_fault_rate(rate)
        progress(
            ProgressEvent(
                series_name=name,
                fault_rate=rate,
                completed=len(values),
                total=total,
                sweep_completed=done,
                sweep_total=sweep_total,
                ci_half_width=None if status is None else status.half_width,
            )
        )

    return report


# --------------------------------------------------------------------------- #
# Point-restricted execution (shared by the engine and the campaign layer)
# --------------------------------------------------------------------------- #
# The engine's two sweep modes — the pre-planned fixed-count grid and the
# adaptive round loop — are expressed below as free functions over an
# arbitrary *subset* of grid points.  ``ExperimentEngine.run_sweep`` calls
# :func:`run_points` once per (series, scenario) unit; the campaign layer
# calls it once per shard and merges with the same :func:`assemble_series`,
# which is why a sharded campaign is bit-identical to the serial path by
# construction rather than by accident.


def run_points(
    sweep: SweepSpec,
    points: Sequence[PointKey],
    executor: Executor,
    report: Optional[PointReport] = None,
) -> Tuple[PointValues, Optional[Dict[PointKey, bool]]]:
    """Run ``sweep`` restricted to ``points``: fixed-count or adaptive.

    Returns each point's trial values and, for an adaptive sweep, the
    per-point early-halt flags (``None`` for a fixed-count sweep).
    ``report`` hears about each point once its fixed-count block, or each
    of its adaptive rounds, has run.
    """
    if sweep.adaptive:
        return run_adaptive_points(sweep, points, executor, report)
    collected = run_point_block(sweep, points, executor)
    if report is not None:
        for point in points:
            report(point, collected[point], None)
    return collected, None


def run_point_block(
    sweep: SweepSpec, points: Sequence[PointKey], executor: Executor
) -> PointValues:
    """Run the fixed-count grid restricted to ``points``.

    Expands trial indices ``[0, sweep.trials)`` for exactly the given grid
    points (in plan order, with the same coordinate-derived seeds the full
    grid would carry) and returns each point's trial values in trial order.
    """
    specs = sweep.expand_trials(0, sweep.trials, points=points)
    values = executor.run(sweep, specs)
    collected: PointValues = {point: [] for point in points}
    for spec, value in zip(specs, values):
        point = (spec.series_index, spec.scenario_index, spec.rate_index)
        collected[point].append(float(value))
    return collected


def run_adaptive_points(
    sweep: SweepSpec,
    points: Sequence[PointKey],
    executor: Executor,
    report: Optional[PointReport] = None,
) -> Tuple[PointValues, Dict[PointKey, bool]]:
    """Run the adaptive (confidence-target) round loop restricted to ``points``.

    Each round expands one deterministic block of trial indices for the
    still-active points (via :meth:`SweepSpec.expand_trials`, so the trials
    carry exactly the coordinate-derived seeds the fixed grid would give
    them) and runs it through ``executor`` unchanged.  After the round,
    every active point recomputes its interval, is reported, and stops
    independently once the target half-width is met — or unconditionally
    at the policy's ``max_trials`` cap.  Because trial values and bootstrap
    streams depend only on coordinates, a point's stopping pattern is
    independent of which other points share its batch: running a subset of
    the grid (a campaign shard, an engine unit) reproduces exactly the
    trials and stopping decisions the full-grid loop would give those
    points.

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
        values = executor.run(sweep, specs)
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
            if report is not None:
                report(point, trial_values, status)
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
        Callback receiving one :class:`ProgressEvent` per grid point as the
        point's (series, scenario) unit, or each of its adaptive rounds,
        finishes.

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

        Each (series, scenario) unit of :meth:`SweepSpec.point_groups` runs
        as one :func:`run_points` call: one executor batch for a fixed-count
        sweep, one per round for an adaptive one.
        """
        report = progress_reporter(sweep, self.progress)
        collected: PointValues = {}
        halted: Dict[PointKey, bool] = {}
        for unit in sweep.point_groups("series"):
            unit_values, unit_halted = run_points(sweep, unit, self.executor, report)
            collected.update(unit_values)
            halted.update(unit_halted or {})
        return assemble_series(sweep, collected, halted if sweep.adaptive else None)

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
