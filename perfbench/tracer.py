"""In-memory span tracer for the benchmark's traced run.

The tracer never edits the program: :func:`install` replaces public
functions and methods of the ``repro`` layers with timing wrappers for the
duration of a ``with`` block and restores the originals on exit.  A wrapped
function that other ``repro`` modules imported by name (``from x import f``)
is replaced in those modules too, so every call site is seen.

Each call records one span ``(id, parent, name, start, end, run)``; the
parent is the innermost open span.  A layer's self time is its spans'
durations minus the part of each interval its child spans cover.
Scalar FPU operations get no spans: their cost is read from the
``applications.baseline`` spans and the processors' FLOP counters.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

Span = Tuple[int, Optional[int], str, float, float, Optional[int]]


class Tracer:
    """Spans and counters of one traced process, kept in memory.

    One stack of open spans serves the whole process, so the traced
    workloads must run their layers on the calling thread (they all do).
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        #: Every processor built through ``TrialSpec.make_processor`` while
        #: installed; their FLOP and fault counters are read per run.
        self.processors: List[Any] = []
        self.run_id: Optional[int] = None
        self._ids = itertools.count(1)
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around the body (used by the wrappers and runs)."""
        parent = self._open[-1] if self._open else None
        span_id = next(self._ids)
        self._open.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans.append((span_id, parent, name, start, end, self.run_id))

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def wrap(
        self,
        name: str,
        func: Callable,
        after: Optional[Callable[["Tracer", tuple, dict, Any], None]] = None,
    ) -> Callable:
        """A wrapper recording a span per call and calling ``after`` on return."""
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = func(*args, **kwargs)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    def reset(self) -> None:
        """Drop recorded spans, counters and processors (between runs)."""
        self.spans.clear()
        self.counts.clear()
        self.processors.clear()

    # ------------------------------------------------------------------ #
    # Derived per-layer figures
    # ------------------------------------------------------------------ #
    def layer_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``.

        Self time is each span's duration minus the union of its children's
        intervals (clipped to the parent's own interval).
        """
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for _, parent, _, start, end, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for span_id, _, name, start, end, _ in self.spans:
            covered = 0.0
            cursor = start
            for child_start, child_end in sorted(children.get(span_id, ())):
                child_start, child_end = max(child_start, cursor), min(child_end, end)
                if child_end > child_start:
                    covered += child_end - child_start
                    cursor = child_end
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += (end - start) - covered
        return dict(out)

    def child_counts(self, parent_name: str, child_name: str) -> int:
        """How many ``child_name`` spans sit directly under ``parent_name`` spans."""
        names = {span_id: name for span_id, _, name, _, _, _ in self.spans}
        return sum(
            1
            for _, parent, name, _, _, _ in self.spans
            if name == child_name and names.get(parent) == parent_name
        )

    def dump(self) -> List[Dict[str, Any]]:
        """Spans as JSON-ready records (written out when the benchmark ends)."""
        return [
            {"id": span_id, "parent": parent, "name": name,
             "start": start, "end": end, "run": run}
            for span_id, parent, name, start, end, run in self.spans
        ]


# --------------------------------------------------------------------------- #
# Installing wrappers
# --------------------------------------------------------------------------- #
def _processor_arg(args: tuple, kwargs: dict):
    from repro.processor.stochastic import StochasticProcessor

    for value in list(args) + list(kwargs.values()):
        if isinstance(value, StochasticProcessor):
            return value
    return None


def _after_expand(tracer, args, kwargs, result) -> None:
    tracer.count("spec.trial_specs", len(result))


def _after_make_processor(tracer, args, kwargs, result) -> None:
    tracer.processors.append(result)


def _after_executor(tracer, args, kwargs, result) -> None:
    tracer.count("executors.trials", len(result))


def _after_corrupt(tracer, args, kwargs, result) -> None:
    batch, stacked = args[0], args[1]
    elements = int(getattr(stacked, "size", 0))
    itemsize = batch.dtype.itemsize
    tracer.count("processor.batch.corrupt_elements", elements)
    # Computed, not measured: float64 in, datapath-dtype copy written and
    # read back, float64 uniforms written and read, a bool mask, float64 out.
    tracer.count("processor.batch.corrupt_bytes", elements * (8 + 2 * itemsize + 16 + 1 + 8))


def _after_store_write(tracer, args, kwargs, result) -> None:
    try:
        tracer.count("campaign.store_write_bytes", result.stat().st_size)
    except (AttributeError, OSError):
        pass


def _after_schedule(tracer, args, kwargs, result) -> None:
    tracer.count("campaign.shards_computed", result["computed"])
    tracer.count("campaign.shards_reused", result["reused"])


def _after_probe(tracer, args, kwargs, result) -> None:
    tracer.count("search.probes", 1)
    if not result.reused:
        tracer.count("search.probes_computed", 1)
        tracer.count("search.trials_executed", result.trials)


def _baseline_wrapper(tracer: Tracer, func: Callable) -> Callable:
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        proc = _processor_arg(args, kwargs)
        before = proc.flops if proc is not None else 0
        with tracer.span("applications.baseline"):
            result = func(*args, **kwargs)
        if proc is not None:
            tracer.count("applications.baseline_flops", proc.flops - before)
        return result

    return wrapper


#: (module, attribute path, span name, after-hook) of every wrapped
#: public entry point, grouped by the layer the metric names use.
TARGETS = [
    ("repro.experiments.kernels", "KernelSpec.sweep_functions", "kernels.build", None),
    ("repro.experiments.spec", "SweepSpec.expand", "spec.expand", _after_expand),
    ("repro.experiments.spec", "SweepSpec.expand_trials", "spec.expand", _after_expand),
    ("repro.experiments.spec", "TrialSpec.make_processor", "spec.make_processor",
     _after_make_processor),
    ("repro.experiments.executors", "SerialExecutor.run", "executors.run", _after_executor),
    ("repro.experiments.executors", "BatchedExecutor.run", "executors.run", _after_executor),
    ("repro.experiments.executors", "VectorizedExecutor.run", "executors.run", _after_executor),
    ("repro.experiments.tensor", "run_tensor_cell", "tensor.cell", None),
    ("repro.processor.batch", "ProcessorBatch.corrupt", "processor.batch.corrupt",
     _after_corrupt),
    ("repro.processor.batch", "batch_matvec", "processor.batch.matvec", None),
    ("repro.processor.stochastic", "StochasticProcessor.corrupt",
     "processor.stochastic.corrupt", None),
    ("repro.optimizers.sgd", "stochastic_gradient_descent_batch", "optimizers.sgd_batch", None),
    ("repro.optimizers.conjugate_gradient", "conjugate_gradient_least_squares_batch",
     "optimizers.cg_batch", None),
    ("repro.core.transform", "solve_penalized_lp_batch", "core.transform.lp_batch", None),
    ("repro.experiments.engine", "run_point_block", "engine.point_block", None),
    ("repro.experiments.engine", "run_adaptive_points", "engine.adaptive", None),
    ("repro.experiments.engine", "assemble_series", "engine.assemble", None),
    ("repro.experiments.sequential", "ConfidenceTarget.assess", "sequential.assess", None),
    ("repro.experiments.campaign.planner", "ShardPlanner.plan", "campaign.plan", None),
    ("repro.experiments.campaign.scheduler", "CampaignScheduler.run", "campaign.schedule",
     _after_schedule),
    ("repro.experiments.campaign.scheduler", "execute_shard", "campaign.execute_shard", None),
    ("repro.experiments.campaign.store", "ShardStore.load_shard", "campaign.store_load", None),
    ("repro.experiments.campaign.store", "ShardStore.store_shard", "campaign.store_write",
     _after_store_write),
    ("repro.experiments.campaign.store", "ShardStore.store_manifest", "campaign.store_write",
     _after_store_write),
    ("repro.experiments.search.probes", "ProbeRunner.run", "search.probe", _after_probe),
]

#: The scalar baselines of the applications layer (one span name for all).
BASELINES = [
    ("repro.applications.sorting", "baseline_sort"),
    ("repro.applications.matching", "baseline_matching"),
    ("repro.applications.least_squares", "baseline_least_squares"),
    ("repro.applications.iir", "baseline_iir_filter"),
    ("repro.applications.maxflow", "baseline_max_flow"),
    ("repro.applications.shortest_path", "baseline_all_pairs_shortest_path"),
]


def _rebind(original: Callable, replacement: Callable, restore: list) -> None:
    """Point every ``repro`` module-level name bound to ``original`` at ``replacement``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                restore.append((module, attr, original))
                setattr(module, attr, replacement)


@contextlib.contextmanager
def install(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every target for the body of the ``with`` block, then restore."""
    restore: list = []
    try:
        for module_name, path, name, after in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = vars(owner)[attr]
            wrapper = tracer.wrap(name, original, after)
            if owner_name:
                restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            else:
                _rebind(original, wrapper, restore)
        for module_name, attr in BASELINES:
            original = getattr(importlib.import_module(module_name), attr)
            _rebind(original, _baseline_wrapper(tracer, original), restore)
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
