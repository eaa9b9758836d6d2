"""Pluggable executors for expanded sweep plans.

Every executor consumes a :class:`~repro.experiments.spec.SweepSpec` plus its
expanded :class:`~repro.experiments.spec.TrialSpec` list and produces one
metric value per spec, in spec order.  Because each trial seeds itself from
its own coordinates (see :meth:`TrialSpec.make_stream`), all executors return
bit-identical results for the same plan:

``serial``
    The reference executor: one trial at a time, in plan order.
``batched``
    One :func:`~repro.experiments.tensor.run_tensor_cell` call per (series,
    scenario, fault-rate) cell.
``vectorized``
    The tensorized trial backend (:mod:`repro.experiments.tensor`): one batch
    per (series, scenario), spanning the entire (fault-rate × trials) grid,
    so a whole sweep cell advances as a single stacked numpy computation.

The two batching executors share one loop and differ only in the group key.
Series whose trial function declares no batch implementation
(:func:`~repro.experiments.kernels.batch_implementation`) run one trial at a
time, identically to the serial executor.  Parallelism lives one layer up,
in the worker pools of
:class:`~repro.experiments.campaign.scheduler.CampaignScheduler`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.kernels import batch_implementation, batchable
from repro.experiments.spec import SweepSpec, TrialSpec, run_trial
from repro.experiments.tensor import run_tensor_cell

__all__ = [
    "EmitFunction",
    "Executor",
    "SerialExecutor",
    "BatchedExecutor",
    "VectorizedExecutor",
    "batchable",
    "get_executor",
    "list_executors",
]

#: Callback invoked as each trial completes: ``emit(spec_index, value)``.
EmitFunction = Callable[[int, float], None]


class Executor:
    """Base class: execute an expanded plan, streaming per-trial results."""

    name = "abstract"

    def run(
        self,
        sweep: SweepSpec,
        specs: Sequence[TrialSpec],
        emit: Optional[EmitFunction] = None,
    ) -> List[float]:
        """Execute every spec and return values aligned with ``specs``."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class SerialExecutor(Executor):
    """The reference executor: trials run one at a time, in plan order."""

    name = "serial"

    def run(
        self,
        sweep: SweepSpec,
        specs: Sequence[TrialSpec],
        emit: Optional[EmitFunction] = None,
    ) -> List[float]:
        values: List[float] = []
        for index, spec in enumerate(specs):
            value = run_trial(sweep, spec)
            values.append(value)
            if emit is not None:
                emit(index, value)
        return values


def _run_grouped(
    sweep: SweepSpec,
    specs: Sequence[TrialSpec],
    emit: Optional[EmitFunction],
    group_key: Callable[[TrialSpec], Tuple],
) -> List[float]:
    """Run each ``group_key`` group of ``specs`` as one tensor cell.

    A group whose series has no batch implementation, or that holds a single
    trial, runs per-trial exactly like the serial executor.
    """
    groups: Dict[Tuple, List[Tuple[int, TrialSpec]]] = {}
    for index, spec in enumerate(specs):
        groups.setdefault(group_key(spec), []).append((index, spec))
    values: List[Optional[float]] = [None] * len(specs)
    for group in groups.values():
        function = sweep.trial_functions[group[0][1].series_name]
        if batch_implementation(function) is None or len(group) == 1:
            for index, spec in group:
                values[index] = run_trial(sweep, spec)
                if emit is not None:
                    emit(index, values[index])
            continue
        batch_values = run_tensor_cell(sweep, [spec for _, spec in group])
        for (index, _), value in zip(group, batch_values):
            values[index] = value
            if emit is not None:
                emit(index, value)
    return values  # type: ignore[return-value]


class BatchedExecutor(Executor):
    """One tensor cell per (series, scenario, fault-rate) group.

    Every processor of a batch shares one fault rate; see
    :class:`VectorizedExecutor` for the whole-rate-grid batch.
    """

    name = "batched"

    def run(
        self,
        sweep: SweepSpec,
        specs: Sequence[TrialSpec],
        emit: Optional[EmitFunction] = None,
    ) -> List[float]:
        return _run_grouped(
            sweep, specs, emit,
            lambda spec: (spec.series_index, spec.scenario_index, spec.rate_index),
        )


class VectorizedExecutor(Executor):
    """The tensorized executor: one tensor cell per (series, scenario), all rates.

    For a series whose trial function declares a batch implementation, the
    entire (fault-rate × trials) grid becomes one
    :func:`repro.experiments.tensor.run_tensor_cell` call — a single stacked
    numpy computation over a
    :class:`~repro.processor.batch.ProcessorBatch` whose rows carry their own
    fault rates.  A scenario grid runs one such sub-batch per scenario, since
    dtype, bit distribution, and voltage may vary across scenarios.
    """

    name = "vectorized"

    def run(
        self,
        sweep: SweepSpec,
        specs: Sequence[TrialSpec],
        emit: Optional[EmitFunction] = None,
    ) -> List[float]:
        return _run_grouped(
            sweep, specs, emit,
            lambda spec: (spec.series_index, spec.scenario_index),
        )


_EXECUTORS: Dict[str, Callable[[], Executor]] = {
    "serial": SerialExecutor,
    "batched": BatchedExecutor,
    "vectorized": VectorizedExecutor,
}


def get_executor(name: str) -> Executor:
    """Build an executor by registry name (see :func:`list_executors`)."""
    try:
        factory = _EXECUTORS[name]
    except KeyError:
        raise ValueError(
            f"unknown executor {name!r}; available: {list_executors()}"
        ) from None
    return factory()


def list_executors() -> List[str]:
    """Names of the available executors."""
    return sorted(_EXECUTORS)
