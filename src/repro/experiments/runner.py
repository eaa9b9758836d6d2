"""Generic sweep machinery (compatibility wrapper + scenario grids).

The paper's evaluation repeatedly runs an application implementation at a
series of fault rates, collects a quality metric per trial, and reports the
aggregate (success rate or mean error) per fault rate.  The sweep itself now
lives in the :mod:`repro.experiments.engine` plan/execute subsystem;
:func:`run_fault_rate_sweep` is kept as the historical entry point and simply
plans a :class:`~repro.experiments.spec.SweepSpec` and hands it to an
:class:`~repro.experiments.engine.ExperimentEngine`.  Results are
bit-identical to the original serial triple loop for every executor.

:func:`run_scenario_grid` is the scenario-axis twin: it crosses the same
(series × rate × trial) grid with a list of named
:class:`~repro.experiments.scenarios.Scenario` operating points (fault model,
bit-position distribution, dtype, voltage or pinned fault rate), so
cross-model comparisons and voltage studies run through the same engine —
batched per scenario sub-batch, cached by scenario-aware spec hashes —
instead of hand-written one-off loops.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.experiments.engine import ExperimentEngine
from repro.experiments.results import FigureResult, SeriesResult
from repro.experiments.scenarios import Scenario
from repro.experiments.sequential import BudgetPolicy
from repro.experiments.spec import DEFAULT_FAULT_RATES, SweepSpec, TrialFunction

__all__ = [
    "DEFAULT_FAULT_RATES",
    "TrialFunction",
    "SeriesResult",
    "FigureResult",
    "run_fault_rate_sweep",
    "run_scenario_grid",
    "run_campaign",
]


def _resolve_engine(
    engine: Optional[Union[str, ExperimentEngine]],
) -> ExperimentEngine:
    if engine is None:
        return ExperimentEngine()
    if isinstance(engine, str):
        return ExperimentEngine(executor=engine)
    return engine


def run_fault_rate_sweep(
    trial_functions: Dict[str, TrialFunction],
    fault_rates: Sequence[float] = DEFAULT_FAULT_RATES,
    trials: int = 5,
    seed: int = 0,
    fault_model: str = "leon3-fpu",
    engine: Optional[Union[str, ExperimentEngine]] = None,
    policy: Optional[BudgetPolicy] = None,
) -> List[SeriesResult]:
    """Run each named trial function over the fault-rate grid.

    Every (series, fault rate, trial) triple gets its own
    :class:`~repro.processor.stochastic.StochasticProcessor` seeded
    deterministically from ``seed``, so sweeps are reproducible and the
    random streams of different series do not interact.

    ``engine`` selects how the expanded plan executes: ``None`` uses the
    serial reference executor, a string (``"serial"``, ``"batched"``,
    ``"vectorized"``) builds a default engine with that executor, and a
    ready-built :class:`~repro.experiments.engine.ExperimentEngine` is used
    as-is.  The choice affects throughput only — results are identical.

    ``policy`` selects the trial budget: ``None`` (or
    :class:`~repro.experiments.sequential.FixedCount`) runs the classic
    fixed ``trials`` grid bit-identically, while a
    :class:`~repro.experiments.sequential.ConfidenceTarget` streams trials
    in rounds and stops each grid point once its confidence interval
    reaches the target half-width (``trials`` is then ignored in favour of
    the policy's ``max_trials`` cap).

    Trials run on the ambient compute backend (see
    :func:`repro.backends.use_backend`); every backend is bit-identical, so
    that choice too affects throughput only.
    """
    sweep = SweepSpec(
        trial_functions=dict(trial_functions),
        fault_rates=tuple(fault_rates),
        trials=trials,
        seed=seed,
        fault_model=fault_model,
        policy=policy,
    )
    return _resolve_engine(engine).run_sweep(sweep)


def run_scenario_grid(
    trial_functions: Dict[str, TrialFunction],
    scenarios: Sequence[Union[str, Scenario]],
    fault_rates: Sequence[float] = DEFAULT_FAULT_RATES,
    trials: int = 5,
    seed: int = 0,
    engine: Optional[Union[str, ExperimentEngine]] = None,
    policy: Optional[BudgetPolicy] = None,
) -> List[SeriesResult]:
    """Run each trial function across a scenario × fault-rate grid.

    ``scenarios`` is a sequence of preset names (see
    :func:`repro.experiments.scenarios.list_scenarios`) or explicit
    :class:`~repro.experiments.scenarios.Scenario` objects.  The returned
    list holds one :class:`SeriesResult` per (trial function, scenario) pair
    — series-major, then scenario, named ``"<series> @ <scenario>"`` — whose
    ``fault_rates`` are the *effective* rates under that scenario
    (voltage- or rate-pinned scenarios repeat their pinned rate across the
    grid, so such studies usually pass a single grid rate).

    Every (series, scenario, rate, trial) cell owns an independent random
    stream derived from ``seed`` and its coordinates, so results are
    bit-identical across all executors; the ``batched`` / ``vectorized``
    executors run one vectorized sub-batch per scenario.  ``policy`` works
    exactly as in :func:`run_fault_rate_sweep`: an adaptive
    :class:`~repro.experiments.sequential.ConfidenceTarget` stops each
    (series, scenario, rate) point independently at its target half-width.
    """
    sweep = SweepSpec(
        trial_functions=dict(trial_functions),
        fault_rates=tuple(fault_rates),
        trials=trials,
        seed=seed,
        scenarios=tuple(scenarios),
        policy=policy,
    )
    return _resolve_engine(engine).run_sweep(sweep)


def run_campaign(
    trial_functions: Dict[str, TrialFunction],
    store: Union[str, Path],
    scenarios: Optional[Sequence[Union[str, Scenario]]] = None,
    fault_rates: Sequence[float] = DEFAULT_FAULT_RATES,
    trials: int = 5,
    seed: int = 0,
    fault_model: str = "leon3-fpu",
    policy: Optional[BudgetPolicy] = None,
    key: Optional[Mapping[str, Any]] = None,
    pool: str = "serial",
    workers: Optional[int] = None,
    executor: str = "vectorized",
    granularity: str = "series",
    progress=None,
) -> List[SeriesResult]:
    """Run a sweep as a sharded, resumable campaign against ``store``.

    The campaign twin of :func:`run_fault_rate_sweep` /
    :func:`run_scenario_grid`: the same grid, split into content-addressed
    shards executed by a ``pool`` of ``workers`` (see
    :mod:`repro.experiments.campaign`), merged bit-identically to the serial
    path.  Shards already present in ``store`` — from a killed earlier run,
    or from another campaign over the same workload — are reused, not
    recomputed.  ``key`` must carry the workload parameters the sweep
    fingerprint cannot see (closures' problem sizes, iteration budgets).
    """
    from repro.experiments.campaign import CampaignRunner, ShardPlanner

    sweep = SweepSpec(
        trial_functions=dict(trial_functions),
        fault_rates=tuple(fault_rates),
        trials=trials,
        seed=seed,
        fault_model=fault_model,
        scenarios=None if scenarios is None else tuple(scenarios),
        policy=policy,
    )
    runner = CampaignRunner(
        store=store,
        planner=ShardPlanner(granularity=granularity),
        pool=pool,
        workers=workers,
        executor=executor,
        progress=progress,
    )
    return runner.submit(sweep, key=key).run()
