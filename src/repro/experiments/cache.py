"""On-disk cache of completed figures, keyed by a content hash of the spec.

A cache entry is one JSON file named after the SHA-256 of its canonicalized
key payload.  The payload is an arbitrary JSON-serializable mapping supplied
by the caller — for figure reproductions it combines the sweep fingerprint
(series, rates, trials, seed, fault model, and for scenario grids every
scenario's resolved configuration: model name, dtype, the full bit-position
pmf, pinned rate or voltage) with the figure's workload parameters — so any
change to the spec changes the hash and invalidates the entry, while
re-running an unchanged spec is a cheap file read.  Executor
choice is deliberately *not* part of the key: executors are bit-identical by
contract, so a figure computed by the process pool satisfies a later serial
request.  The trial-budget policy *is* part of the key — an adaptive
(:class:`~repro.experiments.sequential.ConfidenceTarget`) sweep fingerprint
carries a ``budget`` block, so adaptive and fixed-count runs can never
collide on a cache entry, while no-policy fingerprints (and their hashes)
are byte-identical to historical ones.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

from repro.experiments.results import FigureResult

__all__ = ["spec_hash", "atomic_write_json", "read_json_object", "ResultCache"]

#: Bumped whenever the cached representation changes incompatibly.
_SCHEMA_VERSION = 1


def atomic_write_json(path: Path, entry: Mapping[str, Any]) -> Path:
    """Publish ``entry`` as JSON at ``path`` via a per-writer atomic rename.

    The write goes through a temporary file unique to this writer (pid + 128
    random bits) followed by an atomic rename, so a crashed writer cannot
    leave a truncated entry behind and two processes publishing the same path
    concurrently cannot interleave their writes into one corrupt file (each
    publishes its own complete file; last rename wins).  This is the single
    write discipline of every on-disk artifact store — the figure
    :class:`ResultCache` and the campaign layer's
    :class:`~repro.experiments.campaign.ShardStore` both route through it.

    No ``default=str`` fallback: a non-JSON value in the entry must fail
    loudly at store time, not round-trip as its ``str()``.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp_path = path.with_name(f"{path.name}.{os.getpid()}.{os.urandom(16).hex()}.tmp")
    try:
        tmp_path.write_text(json.dumps(entry, sort_keys=True))
        tmp_path.replace(path)
    finally:
        # A failed replace (or an exception mid-write) must not leave the
        # tmp file behind to accumulate in the artifact directory.
        tmp_path.unlink(missing_ok=True)
    return path


def read_json_object(path: Path, **expected: Any) -> Optional[Dict[str, Any]]:
    """The JSON object stored at ``path``, or ``None`` when it is unusable.

    The read side of :func:`atomic_write_json`, shared by every artifact
    store so that an unusable entry always counts as a miss: ``None`` when
    the file cannot be read or parsed, when it holds JSON that is not an
    object (e.g. ``null`` or a list), or when a field named in ``expected``
    (a schema version, an entry id) holds a different value.
    """
    try:
        entry = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(entry, dict):
        return None
    if any(entry.get(name) != value for name, value in expected.items()):
        return None
    return entry


def _canonical_json(payload: Mapping[str, Any]) -> str:
    """Strict canonical JSON form of a cache-key payload.

    Canonicalization must be *injective* on distinct payloads: a lenient
    ``default=str`` fallback would stringify non-JSON values, making e.g. a
    float and its string form (or any two objects with equal ``str()``) hash
    identically and silently serve one spec's figure for another.  Payload
    values must therefore already be JSON-serializable (and finite — JSON has
    no NaN/inf); anything else raises ``TypeError``/``ValueError`` so the
    caller converts explicitly (as ``SweepSpec.fingerprint`` does for fault
    models).
    """
    try:
        return json.dumps(
            payload, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
    except (TypeError, ValueError) as error:
        raise type(error)(
            f"cache-key payload is not strictly JSON-serializable: {error}; "
            "convert non-JSON values (objects, NaN/inf) explicitly before "
            "keying the cache"
        ) from error


def spec_hash(payload: Mapping[str, Any]) -> str:
    """SHA-256 of the canonical JSON form of a cache-key payload.

    Raises ``TypeError``/``ValueError`` when the payload contains values with
    no strict JSON form (see :func:`_canonical_json`) instead of hashing a
    lossy stringification.
    """
    return hashlib.sha256(_canonical_json(payload).encode("utf-8")).hexdigest()


class ResultCache:
    """Directory-backed store of :class:`FigureResult` entries.

    Parameters
    ----------
    directory:
        Where entries live; created on first write.  Entries are standalone
        JSON files, safe to delete individually or wholesale.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)

    def _path(self, payload: Mapping[str, Any]) -> Path:
        return self.directory / f"{spec_hash(payload)}.json"

    def load(self, payload: Mapping[str, Any]) -> Optional[FigureResult]:
        """The cached figure for ``payload``, or ``None`` on miss.

        Unreadable or schema-incompatible entries are treated as misses so a
        stale cache directory degrades to recomputation, never to an error.
        """
        entry = read_json_object(self._path(payload), schema=_SCHEMA_VERSION)
        if entry is None:
            return None
        try:
            return FigureResult.from_dict(entry["figure"])
        except (KeyError, TypeError, ValueError):
            return None

    def store(self, payload: Mapping[str, Any], figure: FigureResult) -> Path:
        """Write ``figure`` under ``payload``'s hash and return the file path.

        The write goes through a per-writer temporary file and an atomic
        rename, so a crashed run cannot leave a truncated entry behind and
        two processes storing the same spec concurrently cannot interleave
        their writes into one corrupt entry (each publishes its own complete
        file; last rename wins — both contents are equivalent by key).
        """
        entry = {
            "schema": _SCHEMA_VERSION,
            "key": dict(payload),
            "figure": figure.to_dict(),
        }
        return atomic_write_json(self._path(payload), entry)
