"""The benchmark's three workloads, each a closed loop of identical runs.

A workload is built once from the ``--seed`` (``setup``: the kernel
registry's ``sweep_functions`` builds, a memo miss), then ``run`` is called
repeatedly by one caller that waits for each run to finish.  Every run
returns an :class:`Outcome` whose ``digest`` covers all values the run
produced; ``reference`` recomputes the same values on the serial engine,
which every executor and the sharded merge must match bit for bit.

The seed drives both the workload data (the registry's workload seed) and
the Monte-Carlo trial streams (the sweep seed).
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence

from repro.backends import resolve_backend
from repro.experiments.campaign import CampaignRunner, ShardPlanner
from repro.experiments.engine import ExperimentEngine
from repro.experiments.kernels import get_kernel
from repro.experiments.search import CriticalVoltageBisector, ProbeRunner
from repro.experiments.sequential import ConfidenceTarget
from repro.experiments.spec import SweepSpec

#: The robust SGD series of Figures 6.1 (sorting) and 6.4 (matching).
SGD_SERIES = {"SGD,LS": "SGD,LS", "SGD+AS,LS": "SGD+AS,LS", "SGD+AS,SQS": "SGD+AS,SQS"}


@dataclass
class Outcome:
    """What one run produced: its value digest, trial count and failed checks."""

    digest: str
    trials: int
    checks: List[str] = field(default_factory=list)


def digest(payload) -> str:
    """SHA-256 of a JSON payload; float ``repr`` is exact, inf/nan allowed."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def series_payload(series) -> list:
    return [entry.to_dict() for entry in series]


class Workload:
    """Base: a named workload built from one seed, with a scratch directory."""

    name = ""

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = int(seed)
        self.scratch = Path(scratch)

    def setup(self) -> None:
        """Resolve the backend and build the workload's trial functions."""
        resolve_backend("numpy").warmup()
        self.functions()

    def functions(self) -> Dict[str, Dict]:
        """Kernel name -> series label -> trial function (memoized by the registry)."""
        raise NotImplementedError

    def run(self, index: int) -> Outcome:
        raise NotImplementedError

    def reference(self) -> str:
        """The digest the serial engine gives for the same inputs."""
        raise NotImplementedError

    def cleanup(self, index: int) -> None:
        """Remove what run ``index`` wrote (called outside the timed region)."""
        shutil.rmtree(self.scratch / f"store-{index}", ignore_errors=True)


class SweepWorkload(Workload):
    """Fixed-count fault-rate sweeps, one per kernel, on the vectorized executor."""

    trials: int

    def sweeps(self) -> List[SweepSpec]:
        return [
            SweepSpec(functions, trials=self.trials, seed=self.seed)
            for functions in self.functions().values()
        ]

    def _run(self, executor: str) -> Outcome:
        engine = ExperimentEngine(executor)
        series, trials = [], 0
        for sweep in self.sweeps():
            series.extend(engine.run_sweep(sweep))
            trials += len(sweep)
        return Outcome(digest(series_payload(series)), trials)

    def run(self, index: int) -> Outcome:
        return self._run("vectorized")

    def reference(self) -> str:
        return self._run("serial").digest


class BatchedSgdSweep(SweepWorkload):
    name = "batched-sgd-sweep"
    # A run's cost depends on the seed, mostly through the sorting series:
    # over eight seeds it moved by 15 % (standard deviation over mean) at 200
    # iterations and 2 trials per point, by 13 % at 200 and 4, and by 6 % at
    # 400 and 2.  More trials cost more in the serial reference each
    # invocation checks against, which takes about three runs' time.
    iterations = 400
    trials = 2

    def functions(self):
        return {
            kernel: get_kernel(kernel).sweep_functions(
                seed=self.seed, iterations=self.iterations, series=SGD_SERIES
            )
            for kernel in ("sorting", "matching")
        }


class ScalarBaselineSweep(SweepWorkload):
    name = "scalar-baseline-sweep"
    trials = 1

    def functions(self):
        return {
            "cg_least_squares": get_kernel("cg_least_squares").sweep_functions(seed=self.seed),
            "iir": get_kernel("iir").sweep_functions(seed=self.seed, series={"Base": None}),
            "sorting": get_kernel("sorting").sweep_functions(
                seed=self.seed, series={"Base": None}
            ),
        }


class CampaignAdaptiveSearch(Workload):
    """Campaign, resubmission, adaptive bisection and its rerun on one fresh store."""

    name = "campaign-adaptive-search"
    # At 200 iterations the robust SGD cells made a run's cost move by 6 %
    # from seed to seed; at 400 by 3.5 %.
    iterations = 400
    trials = 4
    series = {"Base": None, "SGD+AS,SQS": "SGD+AS,SQS"}
    search_series = "Base"
    tolerance = 0.005
    # Unanimous rounds of 2 meet the target; split ones run to the cap of 4.
    policy = ConfidenceTarget(half_width=0.35, batch=2, min_trials=2, max_trials=4)

    def functions(self):
        return {
            "sorting": get_kernel("sorting").sweep_functions(
                seed=self.seed, iterations=self.iterations, series=self.series
            )
        }

    def key(self) -> Dict:
        return {"workload": self.name, "iterations": self.iterations, "seed": self.seed}

    def sweep(self) -> SweepSpec:
        return SweepSpec(self.functions()["sorting"], trials=self.trials, seed=self.seed)

    def probe_runner(self, store: Path, executor: str) -> ProbeRunner:
        return ProbeRunner(
            store, self.functions()["sorting"][self.search_series], self.search_series,
            trials=self.policy.max_trials, seed=self.seed, policy=self.policy,
            key=self.key(), executor=executor,
        )

    @staticmethod
    def search_payload(result) -> Dict:
        return {
            "status": result.status,
            "lo": result.lo,
            "hi": result.hi,
            "probes": [[p.voltage, list(p.values), p.halted] for p in result.probes],
        }

    def run(self, index: int) -> Outcome:
        store = self.scratch / f"store-{index}"
        checks: List[str] = []
        # The serial shard pool: on a two-CPU host a two-worker thread pool
        # ran this campaign 2.8x slower than one worker (the two threads
        # convoy on the interpreter lock) and its run times were too
        # unsteady to bound; see README.md.
        runner = CampaignRunner(
            store=store, planner=ShardPlanner("cell"), pool="serial", executor="vectorized",
        )
        sweep = self.sweep()
        campaign = runner.submit(sweep, key=self.key())
        merged = campaign.run()
        if campaign.stats["computed"] != len(campaign.shards):
            checks.append("fresh store did not compute every shard")
        resubmitted = runner.submit(self.sweep(), key=self.key())
        if series_payload(resubmitted.run()) != series_payload(merged):
            checks.append("resubmitted campaign merged to different values")
        if resubmitted.stats["computed"] != 0:
            checks.append("resubmitted campaign recomputed shards")

        bisector = CriticalVoltageBisector(tolerance=self.tolerance)
        probes = self.probe_runner(store, "vectorized")
        found = bisector.run(probes)
        rerun_probes = self.probe_runner(store, "vectorized")
        rerun = bisector.run(rerun_probes)
        if rerun_probes.stats["computed"] != 0:
            checks.append("rerun search recomputed probes")
        if (rerun.status, rerun.critical_voltage) != (found.status, found.critical_voltage):
            checks.append("rerun search reported a different crossing")
        payload = [series_payload(merged), self.search_payload(found)]
        trials = len(sweep) + probes.stats["trials_executed"]
        return Outcome(digest(payload), trials, checks)

    def reference(self) -> str:
        store = self.scratch / "reference"
        try:
            serial = ExperimentEngine("serial").run_sweep(self.sweep())
            bisector = CriticalVoltageBisector(tolerance=self.tolerance)
            found = bisector.run(self.probe_runner(store, "serial"))
        finally:
            shutil.rmtree(store, ignore_errors=True)
        return digest([series_payload(serial), self.search_payload(found)])


WORKLOADS = {
    cls.name: cls for cls in (BatchedSgdSweep, ScalarBaselineSweep, CampaignAdaptiveSearch)
}


def make(name: str, seed: int, scratch: Path) -> Workload:
    """Build the named workload (``KeyError`` lists the valid names)."""
    try:
        return WORKLOADS[name](seed, scratch)
    except KeyError:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}") from None


def names() -> Sequence[str]:
    return list(WORKLOADS)
