"""Sharded, resumable sweep campaigns.

This package turns the single-process sweep into a campaign service: a
:class:`~repro.experiments.spec.SweepSpec` is split into **content-addressed
shards** (:mod:`~repro.experiments.campaign.planner`), executed by a
pluggable worker pool with retry-on-worker-death
(:mod:`~repro.experiments.campaign.scheduler`), persisted per shard in a
shared artifact store (:mod:`~repro.experiments.campaign.store`), and merged
deterministically back into ``SeriesResult`` lists byte-identical to the
serial path (:mod:`~repro.experiments.campaign.campaign`).

The engine's ``run_sweep`` is the degenerate case — one implicit shard per
(series, scenario) unit, executed inline — and both paths share the same
execution, progress and assembly functions
(:func:`~repro.experiments.engine.run_points`,
:func:`~repro.experiments.engine.progress_reporter`,
:func:`~repro.experiments.engine.assemble_series`), so bit-identity between
them is structural, not coincidental.
``CampaignRunner(store).submit(sweep).run()`` is the whole programmatic
interface.

See ``docs/campaigns.md`` for the shard model, id derivation, store layout,
and resume semantics; ``scripts/run_campaign.py`` is the CLI front-end.
"""

from repro.experiments.campaign.campaign import (
    CAMPAIGN_ID_LENGTH,
    Campaign,
    CampaignRunner,
    CampaignStatus,
    IncompleteCampaignError,
    campaign_status,
)
from repro.experiments.campaign.planner import (
    SHARD_SCHEMA_VERSION,
    Shard,
    ShardPlanner,
)
from repro.experiments.campaign.scheduler import (
    POOL_KINDS,
    CampaignScheduler,
    WorkerPoolError,
    execute_shard,
    list_pools,
)
from repro.experiments.campaign.store import (
    MANIFEST_DIR_NAMES,
    STORE_SCHEMA_VERSION,
    PruneReport,
    ShardResult,
    ShardStore,
    prune_artifacts,
)

__all__ = [
    "CAMPAIGN_ID_LENGTH",
    "Campaign",
    "CampaignRunner",
    "CampaignStatus",
    "IncompleteCampaignError",
    "campaign_status",
    "SHARD_SCHEMA_VERSION",
    "Shard",
    "ShardPlanner",
    "POOL_KINDS",
    "CampaignScheduler",
    "WorkerPoolError",
    "execute_shard",
    "list_pools",
    "STORE_SCHEMA_VERSION",
    "MANIFEST_DIR_NAMES",
    "PruneReport",
    "ShardResult",
    "ShardStore",
    "prune_artifacts",
]
