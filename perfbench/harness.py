"""Closed-loop timing, traced runs, per-layer metrics and the exact-count ledger."""

from __future__ import annotations

import contextlib
import statistics
import time
import traceback
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.experiments import kernels

import hostspeed
import tracer as tracing

#: Counts that must repeat exactly across runs of one workload and seed.
LEDGER_KEYS = (
    "processor.sim_flops",
    "processor.faults_injected",
    "executors.trials",
    "search.probes",
    "search.trials_executed",
    "campaign.shards_computed",
    "campaign.shards_reused",
    "numeric.runtime_warnings",
)

#: Traced runs per invocation at least, so the exact counts can be compared.
MIN_TRACED_RUNS = 2


@dataclass
class RunRecord:
    """One workload run: its wall time and what it produced (or raised)."""

    index: int
    #: Wall time of the run, without the host-speed probes.
    seconds: float
    #: Reference seconds per measured second while the run ran.
    scale: float
    outcome: Optional[object]
    error: Optional[str]
    runtime_warnings: int = 0

    @property
    def reference_seconds(self) -> float:
        """The run's wall time at the reference host speed."""
        return self.seconds * self.scale

    def failed(self, reference: str) -> bool:
        return (
            self.outcome is None
            or bool(self.outcome.checks)
            or self.outcome.digest != reference
        )


def timed_run(workload, index: int, tracer: Optional[tracing.Tracer] = None) -> RunRecord:
    """Run once; with a tracer, inside a root span and counting RuntimeWarnings."""
    caught: list = []
    outcome, error = None, None
    span = tracer.span("workload.run") if tracer is not None else contextlib.nullcontext()
    with hostspeed.Sampler() as speed:
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always" if tracer is not None else "ignore",
                                      RuntimeWarning)
                with span:
                    outcome = workload.run(index)
        except Exception:  # a failed run is counted, and the loop goes on
            error = traceback.format_exc(limit=8)
    workload.cleanup(index)
    return RunRecord(
        index, speed.seconds, speed.scale, outcome, error,
        sum(1 for entry in caught if issubclass(entry.category, RuntimeWarning)),
    )


def closed_loop(workload, seconds: float) -> List[RunRecord]:
    """One caller running the workload back to back for ``seconds`` (at least once)."""
    records: List[RunRecord] = []
    start = time.perf_counter()
    while not records or time.perf_counter() - start < seconds:
        records.append(timed_run(workload, len(records)))
    return records


def median_wall(records: List[RunRecord]) -> float:
    """Median wall time of the runs at the reference host speed."""
    return statistics.median(record.reference_seconds for record in records)


def trials_per_second(records: List[RunRecord]) -> float:
    """Median trials per second of the runs at the reference host speed."""
    rates = [
        record.outcome.trials / record.reference_seconds
        for record in records
        if record.outcome is not None
    ]
    return statistics.median(rates) if rates else 0.0


# --------------------------------------------------------------------------- #
# Traced runs
# --------------------------------------------------------------------------- #
def run_metrics(tracer: tracing.Tracer, record: RunRecord) -> Dict[str, float]:
    """Per-layer figures of one traced run (times in s, counts exact)."""
    times = tracer.layer_times()
    counts = tracer.counts

    def total(name: str) -> float:
        return times.get(name, {}).get("total_s", 0.0)

    def own(name: str) -> float:
        return times.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return int(times.get(name, {}).get("calls", 0))

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    executor_trials = int(counts["executors.trials"])
    probes_computed = int(counts["search.probes_computed"])
    trials_executed = int(counts["search.trials_executed"])
    return {
        "kernels.build_s": total("kernels.build"),
        "kernels.build_calls": calls("kernels.build"),
        "spec.expand_s": total("spec.expand"),
        "spec.expand_calls": calls("spec.expand"),
        "spec.trial_specs": int(counts["spec.trial_specs"]),
        "spec.make_processor_s": total("spec.make_processor"),
        "executors.run_s": total("executors.run"),
        "executors.run_calls": calls("executors.run"),
        "executors.trials": executor_trials,
        "executors.trials_per_call": ratio(executor_trials, calls("executors.run")),
        "tensor.cell_s": total("tensor.cell"),
        "tensor.cell_calls": calls("tensor.cell"),
        "processor.batch.corrupt_s": own("processor.batch.corrupt"),
        "processor.batch.corrupt_calls": calls("processor.batch.corrupt"),
        "processor.batch.corrupt_elements": int(counts["processor.batch.corrupt_elements"]),
        "processor.batch.corrupt_bytes": int(counts["processor.batch.corrupt_bytes"]),
        "processor.batch.matvec_s": total("processor.batch.matvec"),
        "processor.stochastic.corrupt_s": own("processor.stochastic.corrupt"),
        "processor.stochastic.corrupt_calls": calls("processor.stochastic.corrupt"),
        "processor.sim_flops": sum(proc.flops for proc in tracer.processors),
        "processor.faults_injected": sum(proc.faults_injected for proc in tracer.processors),
        "applications.baseline_s": total("applications.baseline"),
        "applications.baseline_calls": calls("applications.baseline"),
        "applications.baseline_flops": int(counts["applications.baseline_flops"]),
        "optimizers.sgd_batch_s": own("optimizers.sgd_batch"),
        "optimizers.cg_batch_s": total("optimizers.cg_batch"),
        "core.transform.lp_batch_s": own("core.transform.lp_batch"),
        "engine.assemble_s": total("engine.assemble"),
        "engine.adaptive_rounds": tracer.child_counts("engine.adaptive", "executors.run"),
        "sequential.assess_s": total("sequential.assess"),
        "sequential.assess_calls": calls("sequential.assess"),
        "campaign.plan_s": total("campaign.plan"),
        "campaign.execute_shard_s": total("campaign.execute_shard"),
        "campaign.store_load_s": total("campaign.store_load"),
        "campaign.store_load_calls": calls("campaign.store_load"),
        "campaign.store_write_s": total("campaign.store_write"),
        "campaign.store_write_bytes": int(counts["campaign.store_write_bytes"]),
        "campaign.shards_computed": int(counts["campaign.shards_computed"]),
        "campaign.shards_reused": int(counts["campaign.shards_reused"]),
        "search.probe_s": total("search.probe"),
        "search.probes": int(counts["search.probes"]),
        "search.probes_computed": probes_computed,
        "search.trials_executed": trials_executed,
        "search.trials_per_probe": ratio(trials_executed, probes_computed),
        "numeric.runtime_warnings": record.runtime_warnings,
    }


@dataclass
class TraceResult:
    """Everything the traced part of an invocation measured."""

    records: List[RunRecord]
    setup_metrics: Dict[str, float]
    run_metrics: List[Dict[str, float]]
    self_times: Dict[str, Dict[str, float]]
    spans: List[dict]

    def ledger(self) -> Dict[str, int]:
        """The exact counts of the first traced run."""
        return {key: self.run_metrics[0][key] for key in LEDGER_KEYS}

    def ledger_mismatches(self) -> List[int]:
        """Indices of traced runs whose counts differ from the first one's."""
        first = self.ledger()
        return [
            index
            for index, metrics in enumerate(self.run_metrics)
            if {key: metrics[key] for key in LEDGER_KEYS} != first
        ]

    def layer_metrics(self, untraced_wall: float) -> Dict[str, float]:
        """Per-layer metrics: times averaged over traced runs, counts exact.

        The ``kernels`` figures add the set-up build (the memo miss that
        ``setup_s`` pays) to one run's memo lookups.
        """
        runs = self.run_metrics
        merged: Dict[str, float] = {}
        for key in runs[0]:
            if key.endswith("_s") or key.endswith("_per_call"):
                merged[key] = statistics.fmean(metrics[key] for metrics in runs)
            else:
                merged[key] = runs[0][key]
        for key in ("kernels.build_s", "kernels.build_calls", "kernels.memo_hits",
                    "kernels.memo_misses"):
            merged[key] += self.setup_metrics[key]
        hits = merged.pop("kernels.memo_hits")
        lookups = hits + merged.pop("kernels.memo_misses")
        merged["kernels.memo_hit_ratio"] = hits / lookups if lookups else 0.0
        merged["processor.sim_flops_per_s"] = merged["processor.sim_flops"] / untraced_wall
        traced_wall = median_wall(self.records)
        merged["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
        return merged


def traced_runs(workload, seconds: float, first_index: int) -> TraceResult:
    """Set up and run the workload with every layer wrapped.

    The workload memo is cleared first so the traced set-up performs the
    same memo-miss build a fresh process does.  Runs repeat for ``seconds``
    (at least ``MIN_TRACED_RUNS``) so the exact counts can be compared run to run.
    """
    kernels.clear_workload_memo()
    tracer = tracing.Tracer()
    spans: List[dict] = []
    records: List[RunRecord] = []
    per_run: List[Dict[str, float]] = []
    with tracing.install(tracer):
        tracer.run_id = None
        with tracer.span("workload.setup"):
            workload.setup()
        times = tracer.layer_times().get("kernels.build", {})
        setup_metrics = {
            "kernels.build_s": times.get("total_s", 0.0),
            "kernels.build_calls": int(times.get("calls", 0)),
            **memo_counts(kernels.workload_memo_stats()),
        }
        self_times = {}
        spans.extend(tracer.dump())
        start = time.perf_counter()
        while len(records) < MIN_TRACED_RUNS or time.perf_counter() - start < seconds:
            tracer.reset()
            tracer.run_id = first_index + len(records)
            before = memo_counts(kernels.workload_memo_stats())
            record = timed_run(workload, tracer.run_id, tracer)
            records.append(record)
            memo = memo_counts(kernels.workload_memo_stats())
            per_run.append({
                **run_metrics(tracer, record),
                **{key: memo[key] - before[key] for key in memo},
            })
            for name, entry in tracer.layer_times().items():
                total = self_times.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                for field_name, value in entry.items():
                    total[field_name] += value
            spans.extend(tracer.dump())
        tracer.reset()
    for entry in self_times.values():
        for field_name in entry:
            entry[field_name] /= len(records)
    return TraceResult(records, setup_metrics, per_run, self_times, spans)


def memo_counts(stats: Dict[str, int]) -> Dict[str, int]:
    return {"kernels.memo_hits": stats["hits"], "kernels.memo_misses": stats["misses"]}
