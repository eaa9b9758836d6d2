"""The shared shard artifact store: per-shard partial results on disk.

:class:`ShardStore` promotes the figure :class:`~repro.experiments.cache.ResultCache`
discipline — content-hash file names, strict canonical JSON, per-writer
atomic renames, unreadable-entry-as-miss — from whole figures down to
per-shard partial results.  Layout under the store directory:

``shards/<shard_id>.json``
    One completed shard: the shard's points, each point's trial values (and,
    for adaptive sweeps, its early-halt flag).  Because the file name is the
    shard's content address, concurrent campaigns over the same workload
    read and write the *same* artifacts and dedupe each other's work; a
    resumed campaign simply skips every shard whose artifact already exists.

``campaigns/<campaign_id>.json``
    One campaign manifest: the sweep fingerprint, workload key, planner
    configuration, and the ordered shard id list — everything ``--status``
    and ``--resume`` need to account for a campaign without re-expanding it.

``searches/<search_id>.json``
    One search manifest (see :mod:`repro.experiments.search`): the driver
    configuration and the ordered probe shard ids the search has issued so
    far, updated as probes land so ``run_search.py --status`` can account
    for an interrupted search.

Shard artifacts are standalone JSON files, safe to delete individually or
wholesale — removal only ever costs recomputation; :func:`prune_artifacts`
is the garbage-collection primitive behind ``scripts/prune_cache.py``.
Manifests are different: they are the *accounting* for artifacts, so by
default pruning keeps them even when it removes every shard they reference —
``--status`` on a pruned store then truthfully reports those shards as
pending (recomputable) instead of forgetting the campaign ever existed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Set, Tuple, Union

from repro.experiments.cache import atomic_write_json, read_json_object
from repro.experiments.campaign.planner import Shard, decode_point, encode_point
from repro.experiments.spec import PointKey

__all__ = [
    "STORE_SCHEMA_VERSION",
    "MANIFEST_DIR_NAMES",
    "ShardResult",
    "ShardStore",
    "PruneReport",
    "prune_artifacts",
]

#: Bumped whenever the shard artifact representation changes incompatibly.
STORE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ShardResult:
    """One shard's computed partial results, aligned with its point list.

    ``values[i]`` holds the trial values of ``points[i]`` in trial order;
    ``halted`` carries the adaptive round loop's per-point early-stop flags
    (``None`` for fixed-count sweeps, mirroring ``SeriesResult``).
    """

    points: Tuple[PointKey, ...]
    values: Tuple[Tuple[float, ...], ...]
    halted: Optional[Tuple[bool, ...]] = None

    def collected(self) -> Dict[PointKey, List[float]]:
        """The per-point value map :func:`~repro.experiments.engine.assemble_series` consumes."""
        return {
            point: [float(v) for v in trial_values]
            for point, trial_values in zip(self.points, self.values)
        }

    def halted_map(self) -> Dict[PointKey, bool]:
        """Per-point early-halt flags (empty for fixed-count results)."""
        if self.halted is None:
            return {}
        return {point: bool(flag) for point, flag in zip(self.points, self.halted)}

    def to_payload(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "points": [encode_point(point) for point in self.points],
            "values": [[float(v) for v in trial_values] for trial_values in self.values],
        }
        if self.halted is not None:
            payload["halted"] = [bool(flag) for flag in self.halted]
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "ShardResult":
        halted = payload.get("halted")
        return cls(
            points=tuple(decode_point(entry) for entry in payload["points"]),
            values=tuple(
                tuple(float(v) for v in trial_values)
                for trial_values in payload["values"]
            ),
            halted=None if halted is None else tuple(bool(flag) for flag in halted),
        )


class ShardStore:
    """Directory-backed store of shard artifacts and campaign manifests."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)

    @property
    def shards_dir(self) -> Path:
        return self.directory / "shards"

    @property
    def campaigns_dir(self) -> Path:
        return self.directory / "campaigns"

    @property
    def searches_dir(self) -> Path:
        return self.directory / "searches"

    def shard_path(self, shard_id: str) -> Path:
        return self.shards_dir / f"{shard_id}.json"

    def manifest_path(self, campaign_id: str) -> Path:
        return self.campaigns_dir / f"{campaign_id}.json"

    def search_path(self, search_id: str) -> Path:
        return self.searches_dir / f"{search_id}.json"

    # ------------------------------------------------------------------ #
    # Shard artifacts
    # ------------------------------------------------------------------ #
    def load_shard(self, shard: Shard) -> Optional[ShardResult]:
        """The stored result for ``shard``, or ``None`` on miss.

        Unreadable, schema-incompatible, or point-mismatched entries are
        treated as misses so a stale or corrupted store degrades to
        recomputation, never to an error or — worse — a silently wrong
        merge.
        """
        entry = self._read_artifact(shard.shard_id)
        if entry is None:
            return None
        try:
            result = ShardResult.from_payload(entry["result"])
        except (AttributeError, KeyError, TypeError, ValueError):
            return None
        if result.points != shard.points:
            return None
        if len(result.values) != len(result.points):
            return None
        if result.halted is not None and len(result.halted) != len(result.points):
            return None
        return result

    def store_shard(self, shard: Shard, result: ShardResult) -> Path:
        """Publish ``result`` under ``shard``'s content address (atomic)."""
        if result.points != shard.points:
            raise ValueError(
                f"shard result points do not match shard {shard.shard_id[:12]}"
            )
        entry = {
            "schema": STORE_SCHEMA_VERSION,
            "shard": shard.shard_id,
            "result": result.to_payload(),
        }
        return atomic_write_json(self.shard_path(shard.shard_id), entry)

    def _read_artifact(self, shard_id: str) -> Optional[Dict[str, Any]]:
        """The artifact of ``shard_id`` if it parses and its schema and id match."""
        return read_json_object(
            self.shard_path(shard_id), schema=STORE_SCHEMA_VERSION, shard=shard_id
        )

    def has_shard(self, shard_id: str) -> bool:
        """Whether ``shard_id`` has a readable artifact: the one check ``--status`` counts.

        A torn or foreign file is pending here, as it is to :meth:`load_shard`;
        the points are checked only by :meth:`load_shard`, which has the shard.
        """
        return self._read_artifact(shard_id) is not None

    def completed(self, shards: Iterable[Shard]) -> Set[str]:
        """Ids of the given shards that already have a valid artifact."""
        return {
            shard.shard_id for shard in shards if self.load_shard(shard) is not None
        }

    def discard_shard(self, shard_id: str) -> bool:
        """Delete one shard artifact; True when a file was removed."""
        try:
            self.shard_path(shard_id).unlink()
            return True
        except OSError:
            return False

    # ------------------------------------------------------------------ #
    # Campaign manifests
    # ------------------------------------------------------------------ #
    def store_manifest(self, campaign_id: str, manifest: Mapping[str, Any]) -> Path:
        entry = dict(manifest, schema=STORE_SCHEMA_VERSION, campaign=campaign_id)
        return atomic_write_json(self.manifest_path(campaign_id), entry)

    def load_manifest(self, campaign_id: str) -> Optional[Dict[str, Any]]:
        return read_json_object(
            self.manifest_path(campaign_id),
            schema=STORE_SCHEMA_VERSION, campaign=campaign_id,
        )

    # ------------------------------------------------------------------ #
    # Search manifests
    # ------------------------------------------------------------------ #
    def store_search(self, search_id: str, manifest: Mapping[str, Any]) -> Path:
        """Publish a search manifest (same atomic discipline as campaigns)."""
        entry = dict(manifest, schema=STORE_SCHEMA_VERSION, search=search_id)
        return atomic_write_json(self.search_path(search_id), entry)

    def load_search(self, search_id: str) -> Optional[Dict[str, Any]]:
        """A search manifest by id, or ``None`` (unreadable entries miss)."""
        return read_json_object(
            self.search_path(search_id),
            schema=STORE_SCHEMA_VERSION, search=search_id,
        )

    # ------------------------------------------------------------------ #
    # Garbage collection
    # ------------------------------------------------------------------ #
    def prune(
        self,
        max_age_seconds: Optional[float] = None,
        max_bytes: Optional[int] = None,
        now: Optional[float] = None,
        dry_run: bool = False,
        keep_manifests: bool = True,
    ) -> "PruneReport":
        """Garbage-collect this store (see :func:`prune_artifacts`)."""
        return prune_artifacts(
            self.directory,
            max_age_seconds=max_age_seconds,
            max_bytes=max_bytes,
            now=now,
            dry_run=dry_run,
            keep_manifests=keep_manifests,
        )


@dataclass(frozen=True)
class PruneReport:
    """What one garbage-collection pass examined, removed, and kept."""

    examined: int
    removed: Tuple[str, ...]
    freed_bytes: int
    kept: int
    kept_bytes: int

    @property
    def removed_count(self) -> int:
        return len(self.removed)


#: Directory names whose ``*.json`` entries are manifests — accounting for
#: shard artifacts, not artifacts themselves.  Pruning keeps them by default
#: so a GC'd store still reports its campaigns/searches as pending.
MANIFEST_DIR_NAMES = ("campaigns", "searches")


def prune_artifacts(
    directory: Union[str, Path],
    max_age_seconds: Optional[float] = None,
    max_bytes: Optional[int] = None,
    now: Optional[float] = None,
    dry_run: bool = False,
    keep_manifests: bool = True,
) -> PruneReport:
    """Garbage-collect an artifact directory by age and/or total size.

    Works on any directory of standalone JSON artifacts — a figure
    :class:`~repro.experiments.cache.ResultCache` directory or a
    :class:`ShardStore` tree — scanning ``*.json`` entries recursively plus
    any orphaned ``*.tmp`` files a crashed writer left behind.  Entries
    older than ``max_age_seconds`` are removed first; if the survivors still
    exceed ``max_bytes``, the oldest are removed until the total fits
    (oldest-first by mtime, path as the deterministic tie-break).  Every
    artifact is standalone, so removal can only ever cost recomputation.

    ``keep_manifests`` (the default) exempts campaign/search manifests
    (entries under a :data:`MANIFEST_DIR_NAMES` directory) from removal and
    from the ``max_bytes`` accounting: a prune may GC shards a manifest
    still references, and ``--status`` must then report those shards as
    pending rather than forget the campaign ever existed (or, worse, claim
    it complete).  Pass ``False`` to reclaim manifest files too, e.g. when
    retiring a store wholesale.

    ``dry_run`` reports what would be removed without touching the disk.
    At least one criterion must be given.
    """
    if max_age_seconds is None and max_bytes is None:
        raise ValueError("prune needs --max-age and/or --max-bytes")
    if max_age_seconds is not None and max_age_seconds < 0:
        raise ValueError(f"max_age_seconds must be non-negative, got {max_age_seconds}")
    if max_bytes is not None and max_bytes < 0:
        raise ValueError(f"max_bytes must be non-negative, got {max_bytes}")
    root = Path(directory)
    moment = time.time() if now is None else float(now)
    entries: List[Tuple[float, str, Path, int]] = []
    for pattern in ("*.json", "*.tmp"):
        for path in root.rglob(pattern):
            if not path.is_file():
                continue
            if (
                keep_manifests
                and path.suffix == ".json"
                and path.parent.name in MANIFEST_DIR_NAMES
            ):
                continue
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, str(path), path, stat.st_size))
    entries.sort()  # oldest first, path tie-break
    removed: List[Tuple[Path, int]] = []
    survivors: List[Tuple[float, str, Path, int]] = []
    for mtime, _, path, size in entries:
        if max_age_seconds is not None and moment - mtime > max_age_seconds:
            removed.append((path, size))
        else:
            survivors.append((mtime, str(path), path, size))
    if max_bytes is not None:
        total = sum(size for _, _, _, size in survivors)
        index = 0
        while total > max_bytes and index < len(survivors):
            _, _, path, size = survivors[index]
            removed.append((path, size))
            total -= size
            index += 1
        survivors = survivors[index:]
    if not dry_run:
        for path, _ in removed:
            try:
                path.unlink()
            except OSError:
                pass
    return PruneReport(
        examined=len(entries),
        removed=tuple(str(path) for path, _ in removed),
        freed_bytes=sum(size for _, size in removed),
        kept=len(survivors),
        kept_bytes=sum(size for _, _, _, size in survivors),
    )
