"""Shard planning: splitting a sweep into content-addressed shards.

A *shard* is a sub-batch of a sweep's grid points — the unit the campaign
scheduler dispatches to workers and the :class:`~.store.ShardStore` persists.
Shards use the same (series, scenario[, rate]) grouping the batched executor
tiers already use (see :meth:`SweepSpec.point_groups`), so a shard never
splits a vectorized batch: the sharded fast path is exactly the unsharded
one, restricted to fewer points.

Shard ids are *content addresses*: the SHA-256 of the sweep fingerprint, the
caller's workload key, and the shard's own point list (the same strict
canonical-JSON hash the figure cache uses).  Two campaigns planning the same
workload therefore produce the same shard ids and dedupe each other's work
through the shared store, while any change to the grid, the budget policy,
or the workload key changes every affected id.

The fingerprint cannot see inside trial-function closures — exactly the
:class:`~repro.experiments.cache.ResultCache` caveat — so callers must fold
workload parameters (iteration budgets, problem sizes, generator seeds) into
``key``; ``scripts/run_campaign.py`` does this from its CLI arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.experiments.cache import spec_hash
from repro.experiments.spec import PointKey, SweepSpec

__all__ = ["SHARD_SCHEMA_VERSION", "Shard", "ShardPlanner", "encode_point", "decode_point"]

#: Bumped whenever the shard payload (and therefore every shard id) changes
#: incompatibly.
SHARD_SCHEMA_VERSION = 1


def encode_point(point: PointKey) -> List[Optional[int]]:
    """JSON form of one grid point: [series, scenario|null, rate]."""
    series_index, scenario_index, rate_index = point
    return [
        int(series_index),
        None if scenario_index is None else int(scenario_index),
        int(rate_index),
    ]


def decode_point(encoded: List[Optional[int]]) -> PointKey:
    """Inverse of :func:`encode_point`."""
    series_index, scenario_index, rate_index = encoded
    return (
        int(series_index),
        None if scenario_index is None else int(scenario_index),
        int(rate_index),
    )


@dataclass(frozen=True)
class Shard:
    """One content-addressed sub-batch of a sweep's grid points.

    ``index`` is the shard's position in plan order (the merge step never
    needs it — artifacts are keyed by ``shard_id`` — but schedulers use it
    to ship shards to forked workers as plain integers).
    """

    shard_id: str
    index: int
    points: Tuple[PointKey, ...]

    @property
    def n_points(self) -> int:
        return len(self.points)


class ShardPlanner:
    """Splits any sweep — fixed-count or adaptive — into shards.

    Parameters
    ----------
    granularity:
        ``"series"`` (default) shards by (series, scenario), the vectorized
        executor's batch unit, so each shard keeps the whole tensorized fast
        path.  ``"cell"`` shards by (series, scenario, rate) for wider
        fan-out on large rate grids.

    Seed sub-streams need no planning work: every trial and every bootstrap
    stream derives from its own grid coordinates (never from execution
    order or shard membership), so a shard's trials carry exactly the
    seeds the full-grid expansion would give them.  That coordinate
    discipline — not any merge-time fixup — is what makes the sharded
    result bit-identical to the serial path.
    """

    def __init__(self, granularity: str = "series") -> None:
        if granularity not in ("series", "cell"):
            raise ValueError(
                f"granularity must be 'series' or 'cell', got {granularity!r}"
            )
        self.granularity = granularity

    def fingerprint(self) -> Dict[str, Any]:
        """Planner configuration, folded into campaign ids."""
        return {"granularity": self.granularity, "schema": SHARD_SCHEMA_VERSION}

    def plan(
        self, sweep: SweepSpec, key: Optional[Mapping[str, Any]] = None
    ) -> List[Shard]:
        """Partition ``sweep`` into shards with content-addressed ids.

        ``key`` is the caller's workload payload (everything that shapes
        trial values but is invisible to the sweep fingerprint).  Every grid
        point lands in exactly one shard, in plan order.
        """
        base: Dict[str, Any] = {
            "schema": SHARD_SCHEMA_VERSION,
            "sweep": sweep.fingerprint(),
            "key": None if key is None else dict(key),
        }
        shards: List[Shard] = []
        for index, points in enumerate(sweep.point_groups(self.granularity)):
            payload = dict(base, points=[encode_point(point) for point in points])
            shards.append(
                Shard(shard_id=spec_hash(payload), index=index, points=tuple(points))
            )
        return shards
