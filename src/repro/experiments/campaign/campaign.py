"""The campaign front-end: submit a sweep, poll status, fetch merged results.

A *campaign* is one sweep run as content-addressed shards through a shared
artifact store.  :class:`CampaignRunner` is the entry point:

>>> runner = CampaignRunner(store=".repro-cache/campaigns", pool="process", workers=2)
>>> campaign = runner.submit(sweep, key={"kernel": "sorting", "iterations": 500})
>>> campaign.campaign_id
'3f2a9c41d0b87e55'
>>> series = campaign.run()        # executes pending shards, merges
>>> campaign.status().done
True
>>> series == campaign.result()    # pure store read, no recomputation
True

Campaign ids are content addresses over (sweep fingerprint, workload key,
planner configuration, shard ids): resubmitting the same workload *is* the
resume path — the scheduler skips every shard whose artifact already exists,
so a killed campaign recomputes only unfinished shards, and two users
submitting the same spec against one store dedupe each other's work.

The merge is :func:`~repro.experiments.engine.assemble_series` over the
union of the shard artifacts' per-point values — the exact function the
engine runs for a single-process sweep — so the merged ``SeriesResult`` list
is byte-identical to the serial path for fixed-count and adaptive sweeps
alike.  Progress reaches the same
:class:`~repro.experiments.engine.ProgressEvent` callback the engine takes,
built by the engine's own :func:`~repro.experiments.engine.progress_reporter`:
one event per point as its shard lands.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.experiments.cache import spec_hash
from repro.experiments.campaign.planner import Shard, ShardPlanner
from repro.experiments.campaign.scheduler import CampaignScheduler, ShardCallback
from repro.experiments.campaign.store import ShardResult, ShardStore
from repro.experiments.engine import ProgressEvent, assemble_series, progress_reporter
from repro.experiments.results import SeriesResult
from repro.experiments.spec import SweepSpec

__all__ = [
    "CAMPAIGN_ID_LENGTH",
    "IncompleteCampaignError",
    "CampaignStatus",
    "Campaign",
    "CampaignRunner",
    "campaign_status",
]

#: Campaign ids are the leading hex digits of a SHA-256 — 16 chars (64 bits)
#: keeps them collision-safe at any realistic campaign count while staying
#: readable on a command line.
CAMPAIGN_ID_LENGTH = 16


class IncompleteCampaignError(RuntimeError):
    """``result()`` was asked for a campaign with unfinished shards."""


@dataclass(frozen=True)
class CampaignStatus:
    """A campaign's progress: which shards are done, which are pending."""

    campaign_id: str
    shards_total: int
    shards_completed: int
    pending: Tuple[str, ...]

    @property
    def done(self) -> bool:
        return self.shards_completed >= self.shards_total


class Campaign:
    """Handle on one submitted campaign: status, execution, result fetch."""

    def __init__(
        self,
        sweep: SweepSpec,
        shards: List[Shard],
        store: ShardStore,
        campaign_id: str,
        scheduler: CampaignScheduler,
        executor: str = "vectorized",
        progress: Optional[Callable[[ProgressEvent], None]] = None,
    ) -> None:
        self.sweep = sweep
        self.shards = list(shards)
        self.store = store
        self.campaign_id = campaign_id
        self.scheduler = scheduler
        self.executor = executor
        self.progress = progress
        #: Stats of the most recent :meth:`run` (empty before the first).
        self.stats: Dict[str, Any] = {}
        self._loaded: Dict[str, ShardResult] = {}

    # ------------------------------------------------------------------ #
    # Status
    # ------------------------------------------------------------------ #
    def status(self) -> CampaignStatus:
        """Current progress, derived from the store (never from memory)."""
        completed = self.store.completed(self.shards)
        return CampaignStatus(
            campaign_id=self.campaign_id,
            shards_total=len(self.shards),
            shards_completed=len(completed),
            pending=tuple(
                shard.shard_id
                for shard in self.shards
                if shard.shard_id not in completed
            ),
        )

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self, on_shard: Optional[ShardCallback] = None) -> List[SeriesResult]:
        """Execute every pending shard, then merge.

        Shards already in the store are *reused*, never recomputed — this is
        simultaneously the resume path (rerun a killed campaign) and the
        cross-campaign dedupe path (another campaign computed the shard).
        Each newly computed shard publishes to the store on its own, so
        killing this call mid-run loses only unpublished shards: on the
        serial pool those of the running (series, scenario) unit, whose
        pending shards run as one batch; on the process pool the in-flight
        ones.  ``on_shard`` (called per computed shard, after publication)
        may raise to abort.
        """
        report = progress_reporter(self.sweep, self.progress)

        def land(shard: Shard, result: ShardResult) -> None:
            self._loaded[shard.shard_id] = result
            if report is not None:
                for point, trial_values in zip(shard.points, result.values):
                    report(point, trial_values, None)

        reused_ids = self.store.completed(self.shards)
        for shard in self.shards:
            if shard.shard_id in reused_ids:
                result = self.store.load_shard(shard)
                if result is not None:
                    land(shard, result)

        def hook(shard: Shard, result: ShardResult) -> None:
            land(shard, result)
            if on_shard is not None:
                on_shard(shard, result)

        self.stats = self.scheduler.run(
            self.sweep,
            self.shards,
            self.store,
            executor=self.executor,
            on_shard=hook,
        )
        return self.result()

    # ------------------------------------------------------------------ #
    # Merge
    # ------------------------------------------------------------------ #
    def result(self) -> List[SeriesResult]:
        """Merge the campaign's shard artifacts into per-series results.

        A pure store read: raises :class:`IncompleteCampaignError` when any
        shard artifact is missing rather than returning a partial merge.
        The assembly is the engine's own
        :func:`~repro.experiments.engine.assemble_series`, which is why the
        merged output is byte-identical to the single-process serial run.
        """
        collected: Dict[Tuple, List[float]] = {}
        halted: Dict[Tuple, bool] = {}
        missing: List[str] = []
        for shard in self.shards:
            result = self._loaded.get(shard.shard_id)
            if result is None:
                result = self.store.load_shard(shard)
            if result is None:
                missing.append(shard.shard_id)
                continue
            self._loaded[shard.shard_id] = result
            collected.update(result.collected())
            halted.update(result.halted_map())
        if missing:
            raise IncompleteCampaignError(
                f"campaign {self.campaign_id} has {len(missing)} unfinished "
                f"shard(s) of {len(self.shards)}; run() or --resume it first"
            )
        return assemble_series(
            self.sweep, collected, halted if self.sweep.adaptive else None
        )


class CampaignRunner:
    """Builds campaigns against one shared store: the ``submit`` front door.

    Parameters
    ----------
    store:
        Store directory or a ready :class:`~.store.ShardStore`; shared by
        every campaign this runner submits (and by other runners pointed at
        the same directory — that sharing is the dedupe mechanism).
    planner / pool / workers / max_retries:
        Forwarded to :class:`~.planner.ShardPlanner` /
        :class:`~.scheduler.CampaignScheduler`.
    executor:
        Per-shard trial executor (registry name), threaded through to
        workers.
    progress:
        :class:`~repro.experiments.engine.ProgressEvent` callback streamed
        as shards complete.
    """

    def __init__(
        self,
        store: Union[str, Path, ShardStore],
        planner: Optional[ShardPlanner] = None,
        pool: str = "serial",
        workers: Optional[int] = None,
        max_retries: int = 2,
        executor: str = "vectorized",
        progress: Optional[Callable[[ProgressEvent], None]] = None,
    ) -> None:
        self.store = store if isinstance(store, ShardStore) else ShardStore(store)
        self.planner = planner if planner is not None else ShardPlanner()
        self.scheduler = CampaignScheduler(
            pool=pool, workers=workers, max_retries=max_retries
        )
        self.executor = executor
        self.progress = progress

    def campaign_id(
        self, sweep: SweepSpec, key: Optional[Mapping[str, Any]] = None
    ) -> str:
        """The deterministic campaign id of (sweep, key) under this planner."""
        shards = self.planner.plan(sweep, key)
        return self._campaign_id(sweep, key, shards)

    def _campaign_id(
        self,
        sweep: SweepSpec,
        key: Optional[Mapping[str, Any]],
        shards: List[Shard],
    ) -> str:
        payload = {
            "sweep": sweep.fingerprint(),
            "key": None if key is None else dict(key),
            "planner": self.planner.fingerprint(),
            "shards": [shard.shard_id for shard in shards],
        }
        return spec_hash(payload)[:CAMPAIGN_ID_LENGTH]

    def submit(
        self, sweep: SweepSpec, key: Optional[Mapping[str, Any]] = None
    ) -> Campaign:
        """Plan ``sweep`` into shards and register the campaign manifest.

        Returns the :class:`Campaign` handle (its ``campaign_id`` is the
        submission receipt).  Submission only plans and writes the manifest;
        :meth:`Campaign.run` executes.  Submitting an identical (sweep, key)
        yields the identical campaign id and shard ids — which is exactly
        why resuming is just resubmitting.
        """
        shards = self.planner.plan(sweep, key)
        campaign_id = self._campaign_id(sweep, key, shards)
        self.store.store_manifest(
            campaign_id,
            {
                "sweep": sweep.fingerprint(),
                "key": None if key is None else dict(key),
                "planner": self.planner.fingerprint(),
                "shards": [shard.shard_id for shard in shards],
            },
        )
        return Campaign(
            sweep=sweep,
            shards=shards,
            store=self.store,
            campaign_id=campaign_id,
            scheduler=self.scheduler,
            executor=self.executor,
            progress=self.progress,
        )


def campaign_status(
    store: Union[str, Path, ShardStore], campaign_id: str
) -> Optional[CampaignStatus]:
    """Status of a campaign by id, from its manifest alone (no sweep needed).

    Returns ``None`` for an unknown campaign id.  A shard counts as complete
    when :meth:`~.store.ShardStore.has_shard` reads its artifact (it parses,
    and its schema and shard id match), so a torn artifact is pending here
    just as :meth:`Campaign.run` recomputes it; the point-list check happens
    in :meth:`Campaign.result`, which has the sweep to check against.
    """
    shard_store = store if isinstance(store, ShardStore) else ShardStore(store)
    manifest = shard_store.load_manifest(campaign_id)
    if manifest is None:
        return None
    shard_ids = [str(entry) for entry in manifest.get("shards", [])]
    pending = tuple(
        shard_id for shard_id in shard_ids if not shard_store.has_shard(shard_id)
    )
    return CampaignStatus(
        campaign_id=campaign_id,
        shards_total=len(shard_ids),
        shards_completed=len(shard_ids) - len(pending),
        pending=pending,
    )
