"""Dispatching pending shards to a pluggable worker pool.

:class:`CampaignScheduler` takes a planned shard list, skips every shard the
:class:`~.store.ShardStore` already holds, and runs the rest on one of two
pools:

``serial``
    Shards run inline — the reference pool and the default.  The pending
    shards of one executor batch unit (a ``"series"`` group of
    :meth:`SweepSpec.point_groups`: one series, one scenario) run as a single
    engine call, so the ``cell`` shards of one series share one tensor batch;
    the result is then cut per shard and published shard by shard.
``process``
    A fork-context ``ProcessPoolExecutor``: one OS process per worker, with
    **retry-on-worker-death** — a died worker breaks the pool, which is
    rebuilt and the still-unfinished shards requeued, up to ``max_retries``
    rebuilds.  Completed shards were already published to the store, so a
    retry never recomputes them.  Falls back to ``serial`` where fork is
    unsupported or unsafe (see :meth:`CampaignScheduler.resolved_pool`).

These pools are where parallelism lives: an executor runs a shard's trials
in one process, and the engine's ``run_sweep`` is the inline case that runs
each (series, scenario) unit through the same
:func:`~repro.experiments.engine.run_points`.  Within a shard, trials run
through the ordinary executor stack
(:func:`~repro.experiments.executors.get_executor` by name, so the choice
ships to forked workers as a plain string); forked workers inherit the
ambient compute backend.  Results are bit-identical across pools for the
same reason they are across executors: every trial and every adaptive
stopping decision derives from grid coordinates alone.

The process pool hands the (unpicklable) sweep to workers by fork
inheritance through a module-level slot, so only one process campaign can
run at a time per process (enforced with a lock + error).
"""

from __future__ import annotations

import multiprocessing
import sys
import threading
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.experiments.engine import run_points
from repro.experiments.executors import Executor, get_executor
from repro.experiments.campaign.planner import Shard
from repro.experiments.campaign.store import ShardResult, ShardStore
from repro.experiments.spec import SweepSpec

__all__ = [
    "POOL_KINDS",
    "WorkerPoolError",
    "execute_shard",
    "CampaignScheduler",
    "list_pools",
]

#: The pluggable worker pools, by name.
POOL_KINDS = ("serial", "process")

#: Callback invoked as each pending shard completes: ``on_shard(shard, result)``.
#: Raising aborts the campaign run (already-stored shards stay in the store).
ShardCallback = Callable[[Shard, ShardResult], None]


class WorkerPoolError(RuntimeError):
    """The worker pool died more times than the retry budget allows."""


def execute_shard(sweep: SweepSpec, shard: Shard, executor: Executor) -> ShardResult:
    """Run one shard's points through the shared engine execution path.

    This is the whole worker loop body: the
    :func:`~repro.experiments.engine.run_points` call the engine makes for
    each (series, scenario) unit, restricted to the shard's points.
    """
    points = shard.points
    collected, halted = run_points(sweep, points, executor)
    return ShardResult(
        points=points,
        values=tuple(tuple(collected[point]) for point in points),
        halted=None if halted is None else tuple(halted[point] for point in points),
    )


def _units(sweep: SweepSpec, shards: Sequence[Shard]) -> List[List[Shard]]:
    """``shards`` grouped by the executor's batch unit, in plan order.

    The unit of a shard is the ``"series"`` group of
    :meth:`SweepSpec.point_groups` holding its first point — the (series,
    scenario) batch the ``vectorized`` executor runs as one tensor cell.
    """
    unit_of = {
        point: unit
        for unit, points in enumerate(sweep.point_groups("series"))
        for point in points
    }
    units: Dict[int, List[Shard]] = {}
    for shard in shards:
        units.setdefault(unit_of[shard.points[0]], []).append(shard)
    return list(units.values())


def _join(shards: Sequence[Shard]) -> Shard:
    """One shard over the points of ``shards``, in order; it is never stored."""
    return Shard(
        shard_id="+".join(shard.shard_id for shard in shards),
        index=shards[0].index,
        points=tuple(point for shard in shards for point in shard.points),
    )


def _split(
    result: ShardResult, shards: Sequence[Shard]
) -> Iterator[Tuple[Shard, ShardResult]]:
    """Cut the result of ``_join(shards)`` back into each shard's own result."""
    start = 0
    for shard in shards:
        stop = start + shard.n_points
        yield shard, ShardResult(
            points=shard.points,
            values=result.values[start:stop],
            halted=None if result.halted is None else result.halted[start:stop],
        )
        start = stop


# --------------------------------------------------------------------------- #
# Process-pool plumbing (fork inheritance)
# --------------------------------------------------------------------------- #
_ACTIVE_CAMPAIGN: Optional[Tuple[SweepSpec, Sequence[Shard], str]] = None
_ACTIVE_CAMPAIGN_LOCK = threading.RLock()


def _run_shard_by_index(index: int) -> Tuple[int, Tuple[Tuple[float, ...], ...], Optional[Tuple[bool, ...]]]:
    sweep, shards, executor_name = _ACTIVE_CAMPAIGN
    result = execute_shard(sweep, shards[index], get_executor(executor_name))
    return index, result.values, result.halted


class CampaignScheduler:
    """Runs pending shards on a worker pool and publishes them to the store.

    Parameters
    ----------
    pool:
        ``"serial"`` (the default) or ``"process"`` (see module docstring).
    workers:
        Pool size; defaults to 2.  A one-worker pool degrades to serial.
    max_retries:
        How many times a broken process pool is rebuilt before
        :class:`WorkerPoolError` is raised.  Ignored by the serial pool.
    """

    def __init__(
        self,
        pool: str = "serial",
        workers: Optional[int] = None,
        max_retries: int = 2,
    ) -> None:
        if pool not in POOL_KINDS:
            raise ValueError(f"unknown pool {pool!r}; available: {list(POOL_KINDS)}")
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be non-negative, got {max_retries}")
        self.pool = pool
        self.workers = workers if workers is not None else 2
        self.max_retries = max_retries

    def resolved_pool(self) -> str:
        """The pool that will actually run: process falls back off-fork.

        macOS advertises fork, but forking a process with an initialized
        Accelerate/Objective-C runtime is unsafe (workers can abort or
        deadlock), so the process pool runs only where fork after numpy
        initialization is well-behaved and runs serially elsewhere.
        """
        if (
            self.workers <= 1
            or sys.platform == "darwin"
            or "fork" not in multiprocessing.get_all_start_methods()
        ):
            return "serial"
        return self.pool

    def run(
        self,
        sweep: SweepSpec,
        shards: Sequence[Shard],
        store: ShardStore,
        executor: str = "vectorized",
        on_shard: Optional[ShardCallback] = None,
    ) -> Dict[str, Any]:
        """Execute every shard not already in the store; return run stats.

        Completed shards publish to ``store`` one by one, in plan order on
        the serial pool (atomic, content-addressed), so a killed run loses at
        most the running unit's unpublished shards (serial) or the in-flight
        shards (process) — everything already published is skipped by the
        next run.  Returns ``{"total", "reused", "computed", "retries",
        "pool"}``.
        """
        completed_ids = store.completed(shards)
        pending = [shard for shard in shards if shard.shard_id not in completed_ids]
        stats: Dict[str, Any] = {
            "total": len(shards),
            "reused": len(shards) - len(pending),
            "computed": 0,
            "retries": 0,
            "pool": self.resolved_pool() if pending else self.pool,
        }
        if not pending:
            return stats

        def publish(shard: Shard, result: ShardResult) -> None:
            store.store_shard(shard, result)
            stats["computed"] += 1
            if on_shard is not None:
                on_shard(shard, result)

        if stats["pool"] == "serial":
            for unit in _units(sweep, pending):
                joined = execute_shard(sweep, _join(unit), get_executor(executor))
                for shard, result in _split(joined, unit):
                    publish(shard, result)
        else:
            self._run_process_pool(sweep, shards, pending, executor, publish, stats)
        return stats

    def _run_process_pool(
        self,
        sweep: SweepSpec,
        shards: Sequence[Shard],
        pending: Sequence[Shard],
        executor: str,
        publish: Callable[[Shard, ShardResult], None],
        stats: Dict[str, Any],
    ) -> None:
        global _ACTIVE_CAMPAIGN
        remaining: Dict[int, Shard] = {shard.index: shard for shard in pending}
        attempts = 0
        with _ACTIVE_CAMPAIGN_LOCK:
            if _ACTIVE_CAMPAIGN is not None:
                raise RuntimeError(
                    "the process worker pool is not reentrant within one process"
                )
            _ACTIVE_CAMPAIGN = (sweep, tuple(shards), executor)
            try:
                context = multiprocessing.get_context("fork")
                while remaining:
                    workers = min(self.workers, len(remaining))
                    pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
                    try:
                        futures = {
                            pool.submit(_run_shard_by_index, index): shard
                            for index, shard in remaining.items()
                        }
                        unfinished = set(futures)
                        while unfinished:
                            done, unfinished = wait(
                                unfinished, return_when=FIRST_COMPLETED
                            )
                            for future in done:
                                # A died worker surfaces here as
                                # BrokenProcessPool, caught below.
                                index, values, halted = future.result()
                                shard = remaining.pop(index)
                                publish(
                                    shard,
                                    ShardResult(
                                        points=shard.points,
                                        values=values,
                                        halted=halted,
                                    ),
                                )
                    except BrokenProcessPool as error:
                        attempts += 1
                        if attempts > self.max_retries:
                            raise WorkerPoolError(
                                f"worker pool died {attempts} times "
                                f"({len(remaining)} shards unfinished); "
                                f"retry budget of {self.max_retries} exhausted"
                            ) from error
                        stats["retries"] += 1
                    finally:
                        pool.shutdown(wait=False, cancel_futures=True)
            finally:
                _ACTIVE_CAMPAIGN = None


def list_pools() -> List[str]:
    """Names of the available worker pools (parallel to list_executors)."""
    return list(POOL_KINDS)
