"""Sweep plans: expanding a sweep grid into seeded trial specs.

The experiment engine separates *planning* from *execution*.  A
:class:`SweepSpec` describes a whole (series x fault-rate x trial) grid —
optionally crossed with a **scenario axis** (fault model and voltage or
fault-rate operating point; see :mod:`repro.experiments.scenarios`) — and
:meth:`SweepSpec.expand` flattens it into :class:`TrialSpec` entries, each of
which derives its random streams purely from its own coordinates.  Because a
trial's seed never depends on execution order, every executor — serial,
batched, or vectorized — produces bit-identical results for the same spec.

The classic single-model fault-rate sweep is the ``scenarios=None`` special
case: it runs the ``"leon3-fpu"`` fault model, and its expansion, seeding,
and fingerprint are byte-identical to the historical single-axis planner, so
existing cache entries keep working unchanged.  Scenario grids extend the
seed coordinates with the scenario index, so every (series, scenario, rate,
trial) cell owns an independent random stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.experiments.scenarios import Scenario, get_scenario
from repro.experiments.sequential import ConfidenceTarget
from repro.faults.models import FaultModel
from repro.processor.stochastic import StochasticProcessor

__all__ = [
    "DEFAULT_FAULT_RATES",
    "TrialFunction",
    "TrialSpec",
    "SweepSpec",
    "Scenario",
    "run_trial",
]

#: A grid point's identity within a sweep plan: (series_index,
#: scenario_index, rate_index), with scenario_index ``None`` on single-axis
#: sweeps.  This is the unit the adaptive round loop stops independently.
PointKey = Tuple[int, Optional[int], int]

#: Default fault-rate grid ("% of FLOPs" in the paper, here as fractions).
DEFAULT_FAULT_RATES: tuple = (0.001, 0.01, 0.05, 0.1, 0.2, 0.5)

#: A trial function receives a freshly configured stochastic processor and a
#: per-trial random generator, runs one experiment trial, and returns the
#: trial's metric value (success as 0.0/1.0, or an error value).
TrialFunction = Callable[[StochasticProcessor, np.random.Generator], float]


@dataclass(frozen=True)
class TrialSpec:
    """One fully determined experiment trial.

    The spec carries everything needed to run the trial except the trial
    function itself (functions are looked up by ``series_name`` in the owning
    :class:`SweepSpec`, which keeps specs cheap to ship to worker processes).

    ``scenario_index`` is ``None`` for classic single-axis sweeps; scenario
    grids set it (together with ``scenario_name`` and, for voltage operating
    points, ``voltage``) during expansion, and ``fault_model`` then carries
    the scenario's *resolved* model.
    """

    series_name: str
    series_index: int
    rate_index: int
    trial_index: int
    fault_rate: float
    seed: int
    fault_model: Union[str, FaultModel] = "leon3-fpu"
    scenario_index: Optional[int] = None
    scenario_name: str = ""
    voltage: Optional[float] = None

    def make_stream(self) -> np.random.Generator:
        """The trial's private random stream, derived only from coordinates.

        Single-axis sweeps reproduce the seeding scheme of the original
        serial sweep loop (seed, series, rate, trial), so engine results are
        bit-identical to that loop's output.
        Scenario-grid trials prepend the scenario index, giving every
        (scenario, series, rate, trial) cell an independent stream.
        """
        if self.scenario_index is None:
            key = [self.seed, self.series_index, self.rate_index, self.trial_index]
        else:
            key = [
                self.seed,
                self.scenario_index,
                self.series_index,
                self.rate_index,
                self.trial_index,
            ]
        return np.random.default_rng(key)

    def make_processor(self, stream: np.random.Generator) -> StochasticProcessor:
        """A fresh processor for this trial, seeded from ``stream``.

        Every trial gets its own processor (and therefore its own
        :class:`~repro.faults.injector.FaultInjector` with zeroed FLOP/fault
        counters), so per-trial statistics never leak across trials or
        scenario sub-batches.
        """
        rng = np.random.default_rng(int(stream.integers(0, 2**63 - 1)))
        if self.voltage is not None:
            return StochasticProcessor(
                voltage=float(self.voltage),
                fault_model=self.fault_model,
                rng=rng,
            )
        return StochasticProcessor(
            fault_rate=float(self.fault_rate),
            fault_model=self.fault_model,
            rng=rng,
        )


@dataclass
class SweepSpec:
    """A full sweep: named trial functions over a rate grid × scenario axis.

    With ``scenarios=None`` (the default) this is the classic single-model
    fault-rate sweep on the ``"leon3-fpu"`` model.  With a ``scenarios``
    sequence — preset names or
    :class:`~repro.experiments.scenarios.Scenario` objects — the grid becomes
    (series × scenario × rate × trial): each scenario resolves its own fault
    model and, when pinned by an explicit rate or a voltage operating point,
    overrides the grid rate for its trials.
    """

    trial_functions: Dict[str, TrialFunction]
    fault_rates: Tuple[float, ...] = DEFAULT_FAULT_RATES
    trials: int = 5
    seed: int = 0
    scenarios: Optional[Sequence[Union[str, Scenario]]] = None
    policy: Optional[ConfidenceTarget] = None
    _specs: List[TrialSpec] = field(  # type: ignore[assignment]
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.fault_rates = tuple(float(rate) for rate in self.fault_rates)
        outside = [rate for rate in self.fault_rates if not 0.0 <= rate <= 1.0]
        if outside:
            raise ValueError(f"fault rates must lie in [0, 1], got {outside}")
        if self.trials < 0:
            raise ValueError(f"trials must be non-negative, got {self.trials}")
        if self.policy is not None and not isinstance(self.policy, ConfidenceTarget):
            raise TypeError(
                f"policy must be a ConfidenceTarget, got {type(self.policy).__name__}"
            )
        if self.scenarios is not None:
            resolved = tuple(get_scenario(scenario) for scenario in self.scenarios)
            if not resolved:
                raise ValueError("scenarios must be non-empty when provided")
            names = [scenario.name for scenario in resolved]
            if len(set(names)) != len(names):
                raise ValueError(f"scenario names must be unique, got {names}")
            self.scenarios = resolved

    @property
    def series_names(self) -> List[str]:
        """Series names in declaration order."""
        return list(self.trial_functions.keys())

    @property
    def adaptive(self) -> bool:
        """Whether this sweep runs under an adaptive (round-based) budget."""
        return self.policy is not None

    def point_keys(self) -> List[PointKey]:
        """Every (series, scenario, rate) grid point, in plan order."""
        scenario_indices: List[Optional[int]] = (
            [None] if self.scenarios is None else list(range(len(self.scenarios)))
        )
        return [
            (series_index, scenario_index, rate_index)
            for series_index in range(len(self.trial_functions))
            for scenario_index in scenario_indices
            for rate_index in range(len(self.fault_rates))
        ]

    def point_groups(self, granularity: str = "series") -> List[Tuple[PointKey, ...]]:
        """Partition the grid points into shard-sized groups, in plan order.

        ``granularity="series"`` groups by (series, scenario) — the same
        grouping the ``vectorized`` executor batches by, so a shard keeps
        the whole tensorized fast path.  ``granularity="cell"`` groups by
        (series, scenario, rate) — the ``batched`` tier's finer cells, for
        wider fan-out on the campaign ``process`` pool at the cost of one
        tensor call per rate (the ``serial`` pool joins a series group's
        cells back into one call).  Every grid point appears in exactly one
        group.
        """
        if granularity not in ("series", "cell"):
            raise ValueError(
                f"granularity must be 'series' or 'cell', got {granularity!r}"
            )
        groups: Dict[Tuple, List[PointKey]] = {}
        for point in self.point_keys():
            series_index, scenario_index, rate_index = point
            if granularity == "series":
                group_key = (series_index, scenario_index)
            else:
                group_key = (series_index, scenario_index, rate_index)
            groups.setdefault(group_key, []).append(point)
        return [tuple(points) for points in groups.values()]

    def __len__(self) -> int:
        n_scenarios = len(self.scenarios) if self.scenarios is not None else 1
        return (
            len(self.trial_functions) * n_scenarios * len(self.fault_rates) * self.trials
        )

    def scenario_rates(self, scenario: Scenario) -> List[float]:
        """The effective fault rate of each grid point under one scenario."""
        return [scenario.effective_fault_rate(rate) for rate in self.fault_rates]

    def expand(self) -> List[TrialSpec]:
        """Flatten the sweep grid into per-trial specs (cached, stable order).

        Order is series-major, then scenario, then rate, then trial.  The
        single-axis form (``scenarios=None``) expands exactly as the
        historical planner did.
        """
        if self._specs is None:
            self._specs = self._trial_specs(range(self.trials))
        return self._specs

    def expand_trials(
        self,
        start: int,
        stop: int,
        points: Optional[Sequence[PointKey]] = None,
    ) -> List[TrialSpec]:
        """Expand one deterministic block of trials: indices [start, stop).

        This is the adaptive round loop's planner: round *r* expands trial
        indices ``[r*batch, (r+1)*batch)`` restricted to the still-active
        grid points.  Specs come out in plan order (series-major, then
        scenario, then rate, then trial) and carry exactly the seeds the
        full :meth:`expand` grid would give those coordinates, which is why
        an adaptive run that never stops early is byte-identical to the
        fixed-count sweep.
        """
        if start < 0 or stop < start:
            raise ValueError(f"invalid trial window [{start}, {stop})")
        return self._trial_specs(range(start, stop), points)

    def _trial_specs(
        self, trial_range: range, points: Optional[Sequence[PointKey]] = None
    ) -> List[TrialSpec]:
        """The specs of ``trial_range`` at ``points`` (all when ``None``), in plan order.

        The one expansion behind :meth:`expand` and :meth:`expand_trials`.
        Neither of those calls the other, so each public call is exactly one
        expansion (``perfbench/tracer.py`` times both as ``spec.expand``).
        """
        selected = None if points is None else set(points)
        if self.scenarios is None:
            return [
                TrialSpec(
                    series_name=name,
                    series_index=series_index,
                    rate_index=rate_index,
                    trial_index=trial_index,
                    fault_rate=fault_rate,
                    seed=self.seed,
                )
                for series_index, name in enumerate(self.series_names)
                for rate_index, fault_rate in enumerate(self.fault_rates)
                if selected is None or (series_index, None, rate_index) in selected
                for trial_index in trial_range
            ]
        resolved_models = [scenario.resolved_model() for scenario in self.scenarios]
        return [
            TrialSpec(
                series_name=name,
                series_index=series_index,
                rate_index=rate_index,
                trial_index=trial_index,
                fault_rate=scenario.effective_fault_rate(grid_rate),
                seed=self.seed,
                fault_model=model,
                scenario_index=scenario_index,
                scenario_name=scenario.name,
                voltage=scenario.voltage,
            )
            for series_index, name in enumerate(self.series_names)
            for scenario_index, (scenario, model) in enumerate(
                zip(self.scenarios, resolved_models)
            )
            for rate_index, grid_rate in enumerate(self.fault_rates)
            if selected is None or (series_index, scenario_index, rate_index) in selected
            for trial_index in trial_range
        ]

    def fingerprint(self) -> Dict[str, object]:
        """Content description of the sweep grid, for cache keys.

        The fingerprint covers the grid (series names, rates, trials, seed,
        and — for scenario grids — every scenario's resolved configuration);
        it cannot see inside trial-function closures, so cache users must add
        workload parameters to their key payload themselves.  The
        ``fault_model`` entry names the single-axis form's model; every
        figure-cache key, shard id and campaign id hashes it, so it stays in
        the payload of every sweep.
        """
        payload: Dict[str, object] = {
            "series": self.series_names,
            "fault_rates": list(self.fault_rates),
            "trials": int(self.trials),
            "seed": int(self.seed),
            "fault_model": "leon3-fpu",
        }
        if self.scenarios is not None:
            payload["scenarios"] = [
                scenario.fingerprint() for scenario in self.scenarios
            ]
        if self.adaptive:
            # Only adaptive policies enter the payload: the no-policy form
            # keeps the historical fingerprint byte for byte, while adaptive
            # runs hash to distinct cache entries.
            payload["budget"] = self.policy.fingerprint()
        return payload


def run_trial(sweep: SweepSpec, spec: TrialSpec) -> float:
    """Execute one trial of ``sweep`` exactly as the serial reference does."""
    function = sweep.trial_functions[spec.series_name]
    stream = spec.make_stream()
    proc = spec.make_processor(stream)
    return float(function(proc, stream))
