"""Content-addressed voltage probes: the search layer's unit of work.

A *probe* asks one question — "what does this series score at supply
voltage V?" — and is represented as the smallest possible campaign: a
single-point sweep (one series, one voltage-pinned scenario, the degenerate
``fault_rates=(0.0,)`` grid a pinned scenario ignores) planned into exactly
one shard by the ordinary :class:`~repro.experiments.campaign.ShardPlanner`
and persisted in the ordinary
:class:`~repro.experiments.campaign.ShardStore`.

Because the probe's shard id is the standard content address (sweep
fingerprint + workload key + point list), the memo falls out of the store
for free:

* re-running a completed search recomputes **zero** probes — every shard id
  already has an artifact;
* two concurrent searches over the same workload dedupe through the shared
  store, exactly like concurrent campaigns;
* any prior run that computed the same single-point sweep — a dense
  verification grid (:meth:`ProbeRunner.run` is how ``--verify-grid``
  executes its grid too), another driver, another user — is a memo hit.

Trial values derive purely from grid coordinates (seed, scenario, series,
rate, trial), so a probe's values are bit-identical no matter which search
issued it or in what order — the same contract that makes campaign shards
mergeable.  A probe is a single shard, so it always runs inline (on the
``serial`` campaign pool): a worker pool around one shard could only add
overhead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.experiments.campaign.planner import Shard, ShardPlanner
from repro.experiments.campaign.scheduler import CampaignScheduler
from repro.experiments.campaign.store import ShardResult, ShardStore
from repro.experiments.scenarios import voltage_scenario
from repro.experiments.sequential import BudgetPolicy
from repro.experiments.spec import SweepSpec, TrialFunction

__all__ = ["ProbeResult", "ProbeRunner"]


@dataclass(frozen=True)
class ProbeResult:
    """One answered probe: the point's trial values and their summary."""

    voltage: float
    shard_id: str
    values: Tuple[float, ...]
    reused: bool
    halted: Optional[bool] = None

    @property
    def trials(self) -> int:
        return len(self.values)

    @property
    def success_rate(self) -> float:
        """Fraction of trials scoring ≥ 0.5 (the SeriesResult convention)."""
        if not self.values:
            return math.nan
        return sum(1 for value in self.values if value >= 0.5) / len(self.values)

    @property
    def mean(self) -> float:
        if not self.values:
            return math.nan
        return sum(self.values) / len(self.values)


class ProbeRunner:
    """Runs memoized voltage probes for one (workload, series) pair.

    Parameters
    ----------
    store:
        Shared artifact store (directory or :class:`ShardStore`) the probes
        memoize through.
    function:
        The series' trial function (one entry of a kernel's
        ``sweep_functions`` mapping).
    series:
        The series label — it names the probe sweep's single series, so it
        is part of every probe's content address.
    trials / seed / policy / fault_model:
        Probe sweep parameters, all folded into the shard id via the sweep
        fingerprint.  ``policy`` may be a
        :class:`~repro.experiments.sequential.ConfidenceTarget` so each
        probe runs only as many trials as its interval needs.
    key:
        Workload key covering what the fingerprint cannot see (kernel name,
        iteration budget, workload seed) — same discipline as campaigns.
    executor:
        The trial executor each probe's single shard runs on; the choice
        never changes values, only throughput.
    on_probe:
        Callback invoked after each newly *computed* (not reused) probe —
        raising aborts the search, leaving the store resumable.
    """

    def __init__(
        self,
        store: Union[str, Path, ShardStore],
        function: TrialFunction,
        series: str,
        trials: int = 5,
        seed: int = 0,
        policy: Optional[BudgetPolicy] = None,
        fault_model: str = "leon3-fpu",
        key: Optional[Mapping[str, Any]] = None,
        executor: str = "vectorized",
        on_probe: Optional[Callable[[ProbeResult], None]] = None,
    ) -> None:
        self.store = store if isinstance(store, ShardStore) else ShardStore(store)
        self.function = function
        self.series = str(series)
        self.trials = int(trials)
        self.seed = int(seed)
        self.policy = policy
        self.fault_model = fault_model
        self.key = None if key is None else dict(key)
        self.planner = ShardPlanner(granularity="cell")
        self.scheduler = CampaignScheduler(pool="serial")
        self.executor = executor
        self.on_probe = on_probe
        #: Probe accounting of this runner: computed vs memo-reused counts,
        #: trials actually executed, and the issue-ordered (voltage, shard
        #: id, reused) sequence — the determinism contract's witness.
        self.stats: Dict[str, Any] = {
            "probes": 0,
            "computed": 0,
            "reused": 0,
            "trials_executed": 0,
            "sequence": [],
        }

    # ------------------------------------------------------------------ #
    # Content addressing
    # ------------------------------------------------------------------ #
    def sweep_for(self, voltage: float, trials: Optional[int] = None) -> SweepSpec:
        """The probe's single-point sweep: one series at one pinned voltage.

        The voltage scenario pins the fault rate (via the Figure 5.2
        curve), so the rate grid collapses to the one placeholder entry —
        the same sub-grid shape :meth:`KernelSpec.build_scenario_study` uses
        for pinned scenarios.
        """
        return SweepSpec(
            trial_functions={self.series: self.function},
            fault_rates=(0.0,),
            trials=self.trials if trials is None else int(trials),
            seed=self.seed,
            scenarios=(voltage_scenario(float(voltage), self.fault_model),),
            policy=self.policy,
        )

    def plan(
        self, voltage: float, trials: Optional[int] = None
    ) -> Tuple[SweepSpec, Shard]:
        """Plan one probe: its sweep and its (single) content-addressed shard."""
        sweep = self.sweep_for(voltage, trials)
        shards = self.planner.plan(sweep, self.key)
        assert len(shards) == 1, "a probe sweep plans to exactly one shard"
        return sweep, shards[0]

    def shard_id(self, voltage: float, trials: Optional[int] = None) -> str:
        """The probe's content address (memo key) without running anything."""
        return self.plan(voltage, trials)[1].shard_id

    # ------------------------------------------------------------------ #
    # Execution (memoized)
    # ------------------------------------------------------------------ #
    def run(self, voltage: float, trials: Optional[int] = None) -> ProbeResult:
        """Answer one probe, reusing the store's artifact when present."""
        sweep, shard = self.plan(voltage, trials)
        result = self.store.load_shard(shard)
        reused = result is not None
        if result is None:
            self.scheduler.run(sweep, [shard], self.store, executor=self.executor)
            result = self.store.load_shard(shard)
            if result is None:  # pragma: no cover - store write just succeeded
                raise RuntimeError(
                    f"probe shard {shard.shard_id[:12]} vanished after execution"
                )
        probe = self._to_probe(voltage, shard, result, reused)
        self.stats["probes"] += 1
        self.stats["sequence"].append((float(voltage), shard.shard_id, reused))
        if reused:
            self.stats["reused"] += 1
        else:
            self.stats["computed"] += 1
            self.stats["trials_executed"] += probe.trials
            if self.on_probe is not None:
                self.on_probe(probe)
        return probe

    @staticmethod
    def _to_probe(
        voltage: float, shard: Shard, result: ShardResult, reused: bool
    ) -> ProbeResult:
        halted_map = result.halted_map()
        point = shard.points[0]
        return ProbeResult(
            voltage=float(voltage),
            shard_id=shard.shard_id,
            values=tuple(float(v) for v in result.values[0]),
            reused=reused,
            halted=halted_map.get(point),
        )

    # ------------------------------------------------------------------ #
    # Fingerprinting (search ids)
    # ------------------------------------------------------------------ #
    def fingerprint(self) -> Dict[str, Any]:
        """Probe configuration, folded into search ids.

        Uses a representative probe sweep's own fingerprint (at the nominal
        placeholder voltage, with the voltage field factored out) so
        everything that changes probe values — series, trials, seed, budget
        policy, scenario model — changes every search id that uses this
        runner.
        """
        sweep_fingerprint = self.sweep_for(1.0).fingerprint()
        sweep_fingerprint.pop("scenarios", None)
        return {
            "sweep": sweep_fingerprint,
            "fault_model": str(self.fault_model),
            "key": self.key,
        }

    def issued_shard_ids(self) -> List[str]:
        """Shard ids issued so far, in order (for search manifests)."""
        return [shard_id for _, shard_id, _ in self.stats["sequence"]]
