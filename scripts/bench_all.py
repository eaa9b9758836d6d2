#!/usr/bin/env python
"""Benchmark every registered kernel into one ``BENCH_<kernel>.json`` each.

For each kernel in the application-kernel registry
(``repro.experiments.kernels``) this script regenerates the figure once at a
reduced scale and emits a ``BENCH_<kernel>.json`` record containing the wall
time, the tensorized-backend speedup over the serial reference (for sweep
kernels with a batch tier), a bit-identity verdict, and the current commit
hash.  The checked-in records are the latest known numbers; git history
holds their trajectory.

Run from the repository root:

    PYTHONPATH=src python scripts/bench_all.py [--only NAME ...]
        [--output-dir DIR] [--trials N] [--scale FRACTION] [--backend NAME]

``--scale`` shrinks every kernel's own paper iteration budget by the given
fraction (respecting per-kernel floors); there are no per-family iteration
flags.  The CI bench gate runs this script from a change and from its
parent commit on one runner, each into its own ``--output-dir``, and
``scripts/check_bench_regression.py`` judges the two sets of records (see
``docs/benchmarks.md``).

``--backend`` selects the compute backend (see ``docs/backends.md``) for
every timed run; the default follows the ambient ``REPRO_BACKEND`` /
``numpy`` precedence.  Every record carries the active ``backend`` name and
provider ``backend_version``, and one *untimed* warm-up runs per kernel
before its timed builds so one-time compile/JIT cost never pollutes
measured wall time — the warm-up's own cost is recorded separately as
``warmup_seconds``.  Non-default backends write ``BENCH_<kernel>.<backend>
.json`` (the plain name stays reserved for the numpy reference records), so
the bench gate never compares a ``cnative`` record with a numpy one.

Sweep kernels run twice — once under the ``serial`` reference executor and
once under ``vectorized`` (the tensorized trial backend) — and the two series
sets must match bit for bit; the record stores both wall times and their
ratio.  Non-sweep kernels run once and record wall time only.  Under a
non-default ``--backend`` the serial reference is replaced by the
*vectorized numpy* reference: the record stores ``numpy_seconds``,
``speedup_vs_numpy``, and ``bit_identical_to_numpy``, which is the
acceptance measure for a compiled backend — same executor tier, numpy
kernels versus compiled kernels.

The pseudo-kernel name ``scenario_grid`` (run by default, or selectable via
``--only scenario_grid``) additionally benchmarks the ScenarioGrid path: a
cross-fault-model sorting grid executed under the serial, batched, and
vectorized executors, recorded as ``BENCH_scenario_grid.json`` with the
batched-tier speedups and a bit-identity verdict.

The pseudo-kernel name ``campaign`` benchmarks the sharded campaign path
(``repro.experiments.campaign``): a sorting sweep split into per-cell shards
and run on a two-worker process pool against a scratch store, compared
bit-for-bit against the single-process serial engine, plus a resume leg that
must reuse every shard from the store without recomputation.
``BENCH_campaign.json`` records both wall times, the ratio, the resume wall
time, and the bit-identity verdict.

The pseudo-kernel name ``adaptive`` benchmarks the engine's
confidence-target mode against its fixed-count twin on a sorting scenario
grid *at equal reported precision*: the fixed run's worst per-point Wilson
half-width becomes the adaptive run's target, so both runs guarantee the
same interval width while the adaptive one stops converged points early.
``BENCH_adaptive.json`` records both wall times, the speedup, the trial
counts, and a bit-identity verdict across the batched executor tiers.

The pseudo-kernel name ``search`` benchmarks the search-driver layer
(``repro.experiments.search``): a critical-voltage bisection on the sorting
kernel against the dense voltage grid it replaces, at matched resolution and
on *separate* scratch stores so the grid cost is honest.  ``BENCH_search
.json`` records both wall times, probe and trial counts with their ratio,
both crossing estimates and whether they agree within tolerance, a
memoized-rerun leg that must recompute zero probes, and the
workload-construction memo saving (first build vs memoized rebuild).

The pseudo-kernel names are listed in :data:`PSEUDO_KERNELS`, which
``--only`` handling derives from.
"""

from __future__ import annotations

import argparse
import datetime
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.backends import DEFAULT_BACKEND, list_backends, resolve_backend, use_backend
from repro.experiments import kernels
from repro.experiments.campaign import CampaignRunner, ShardPlanner
from repro.experiments.engine import ExperimentEngine
from repro.experiments.search import CriticalVoltageBisector, ProbeRunner
from repro.experiments.sequential import ConfidenceTarget, wilson_half_width
from repro.experiments.spec import SweepSpec
from repro.metrics.quality import successes

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Pseudo-kernels benchmarked here outside the kernel registry.
PSEUDO_KERNELS = ("scenario_grid", "adaptive", "campaign", "search")

#: Scenario presets of the BENCH_scenario_grid record (one float64 scenario,
#: so the record also covers mixed-dtype sub-batching).
GRID_SCENARIOS = ("nominal", "measured-bits", "low-order-seu", "double-precision-64")


def commit_hash() -> str | None:
    """The current git commit, or ``None`` outside a git checkout."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--only", action="append", default=None, metavar="NAME",
                        help="benchmark only this kernel (repeatable); registry "
                        "or figure names")
    parser.add_argument("--output-dir", type=Path, default=REPO_ROOT,
                        help="where BENCH_<kernel>.json records go (default: repo root)")
    parser.add_argument("--trials", type=int, default=3,
                        help="per-point trial count for sweep kernels (default: 3)")
    parser.add_argument("--scale", type=float, default=0.2,
                        help="fraction of each kernel's paper iteration budget "
                        "(default: 0.2)")
    parser.add_argument("--backend", default=None, metavar="NAME",
                        help="compute backend for every timed run "
                        f"(one of {list_backends()}; default: ambient "
                        "REPRO_BACKEND / numpy precedence)")
    return parser


def series_values(figure) -> list:
    return [series.values for series in figure.series]


def bench_path(output_dir: Path, name: str, backend) -> Path:
    """Record location; non-default backends get their own suffixed file."""
    suffix = "" if backend.name == DEFAULT_BACKEND else f".{backend.name}"
    return output_dir / f"BENCH_{name}{suffix}.json"


def warm_up(backend, spec: kernels.KernelSpec | None = None) -> float:
    """One untimed warm-up: compile/JIT cost never enters measured wall time.

    Probing the kernel table triggers any one-time backend compilation (the
    cnative tier builds its C module on first load); a floor-scale build of
    the kernel under the timed executor then exercises every kernel-specific
    JIT specialization a just-in-time tier would otherwise pay for inside
    the first timed run.  Returns the seconds the warm-up itself took, which
    the caller records as ``warmup_seconds``.  The reference tier provides
    no kernels and warms up for free.
    """
    start = time.perf_counter()
    if backend.kernels():  # probing compiles; empty table → nothing to warm
        backend.warmup()
        if spec is not None:
            tiny = spec.reduced_kwargs(1, 0.0)
            if spec.sweep:
                spec.build(engine=ExperimentEngine("vectorized"), **tiny)
            else:
                spec.build(**tiny)
    return round(time.perf_counter() - start, 4)


def backend_fields(backend, warmup_seconds: float) -> dict:
    """The record fields identifying the measuring backend."""
    return {
        "backend": backend.name,
        "backend_version": backend.version(),
        "warmup_seconds": warmup_seconds,
    }


def bench_kernel(spec: kernels.KernelSpec, args, backend) -> dict:
    """Time one kernel's reduced-scale build; sweep kernels get both tiers.

    Under the default numpy backend, sweep kernels compare the vectorized
    tier against the serial reference.  Under a compiled backend the serial
    reference is replaced by the *vectorized numpy* reference — the
    executor tier is held fixed so the ratio isolates the kernel
    implementations — and equivalence is judged bitwise against that
    reference.
    """
    kwargs = spec.reduced_kwargs(args.trials, args.scale)
    record = {
        "kernel": spec.name,
        "figure": spec.figure,
        "figure_id": spec.figure_id,
        "params": {key: value for key, value in kwargs.items()},
        "sweep": spec.sweep,
        "commit": commit_hash(),
        "generated_by": "scripts/bench_all.py",
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    record.update(backend_fields(backend, warm_up(backend, spec)))
    if not spec.sweep:
        start = time.perf_counter()
        spec.build(**kwargs)
        record["wall_seconds"] = round(time.perf_counter() - start, 4)
        record["serial_seconds"] = None
        record["speedup_vs_serial"] = None
        record["bit_identical_to_serial"] = None
        return record

    if backend.name != DEFAULT_BACKEND:
        start = time.perf_counter()
        with use_backend(DEFAULT_BACKEND):
            reference_figure = spec.build(
                engine=ExperimentEngine("vectorized"), **kwargs
            )
        numpy_seconds = time.perf_counter() - start

        start = time.perf_counter()
        fast_figure = spec.build(engine=ExperimentEngine("vectorized"), **kwargs)
        fast_seconds = time.perf_counter() - start

        record["wall_seconds"] = round(fast_seconds, 4)
        record["serial_seconds"] = None
        record["speedup_vs_serial"] = None
        record["bit_identical_to_serial"] = None
        record["numpy_seconds"] = round(numpy_seconds, 4)
        record["speedup_vs_numpy"] = round(
            numpy_seconds / max(fast_seconds, 1e-9), 3
        )
        record["bit_identical_to_numpy"] = (
            series_values(fast_figure) == series_values(reference_figure)
        )
        return record

    start = time.perf_counter()
    serial_figure = spec.build(engine=ExperimentEngine("serial"), **kwargs)
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    fast_figure = spec.build(engine=ExperimentEngine("vectorized"), **kwargs)
    fast_seconds = time.perf_counter() - start

    identical = series_values(fast_figure) == series_values(serial_figure)
    record["wall_seconds"] = round(fast_seconds, 4)
    record["serial_seconds"] = round(serial_seconds, 4)
    record["speedup_vs_serial"] = round(serial_seconds / max(fast_seconds, 1e-9), 3)
    record["bit_identical_to_serial"] = identical
    return record


def warm_up_grid(backend) -> float:
    """Untimed warm-up of the scenario-grid path under ``backend``.

    A one-scenario, one-trial sorting grid touches the same kernels the
    timed grid exercises, so a JIT tier's specializations are compiled
    before the serial reference run (which would otherwise absorb them).
    """
    start = time.perf_counter()
    if backend.kernels():
        backend.warmup()
        functions = kernels.get_kernel("sorting").sweep_functions(
            iterations=500, series={"Base": None}
        )
        ExperimentEngine("vectorized").run_sweep(SweepSpec(
            functions, fault_rates=(0.01,), trials=1,
            seed=kernels.WORKLOAD_SEED, scenarios=("nominal",),
        ))
    return round(time.perf_counter() - start, 4)


def bench_scenario_grid(args, backend) -> dict:
    """Time the scenario-grid path: serial vs batched vs vectorized.

    Runs a cross-fault-model sorting grid (two series × four scenarios ×
    the default rate grid) under all three tiers; the batched tiers must be
    bit-identical to the serial reference and the record captures their
    speedups.  All three tiers run under the selected backend.
    """
    warmup_seconds = warm_up_grid(backend)
    iterations = max(int(10000 * args.scale), 500)
    functions = kernels.get_kernel("sorting").sweep_functions(
        iterations=iterations,
        series={"Base": None, "SGD+AS,SQS": "SGD+AS,SQS"},
    )

    def timed(executor: str):
        start = time.perf_counter()
        series = ExperimentEngine(executor).run_sweep(SweepSpec(
            functions, trials=args.trials, seed=kernels.WORKLOAD_SEED,
            scenarios=GRID_SCENARIOS,
        ))
        return [s.values for s in series], time.perf_counter() - start

    serial_values, serial_seconds = timed("serial")
    batched_values, batched_seconds = timed("batched")
    vectorized_values, vectorized_seconds = timed("vectorized")
    identical = serial_values == batched_values == vectorized_values
    return {
        "kernel": "scenario_grid",
        "figure": "ExperimentEngine.run_sweep",
        "figure_id": "ScenarioGrid (sorting cross-model)",
        "params": {
            "scenarios": list(GRID_SCENARIOS),
            "series": ["Base", "SGD+AS,SQS"],
            "trials": args.trials,
            "iterations": iterations,
        },
        "sweep": True,
        "commit": commit_hash(),
        "generated_by": "scripts/bench_all.py",
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        **backend_fields(backend, warmup_seconds),
        "wall_seconds": round(vectorized_seconds, 4),
        "serial_seconds": round(serial_seconds, 4),
        "batched_seconds": round(batched_seconds, 4),
        "speedup_vs_serial": round(serial_seconds / max(vectorized_seconds, 1e-9), 3),
        "batched_speedup_vs_serial": round(
            serial_seconds / max(batched_seconds, 1e-9), 3
        ),
        "bit_identical_to_serial": identical,
    }


#: Fault-rate grid of the BENCH_campaign record (kept small so the serial
#: reference leg stays affordable).
CAMPAIGN_RATES = (0.0, 0.05, 0.2)


def bench_campaign(args, backend) -> dict:
    """Time the sharded campaign path against the single-process engine.

    A two-series sorting sweep is split into per-cell shards
    (``ShardPlanner("cell")``) and run on a two-worker process pool with the
    ``vectorized`` per-shard executor against a scratch store; the merged
    result must be bit-identical to ``ExperimentEngine("serial")`` on the
    same spec.  A second submission of the identical workload then replays
    the resume path, which must reuse every shard (``computed == 0``) and
    merge to the same values.  Both legs run under the selected backend.
    """
    warmup_seconds = warm_up_grid(backend)
    iterations = max(int(10000 * args.scale), 500)
    functions = kernels.get_kernel("sorting").sweep_functions(
        iterations=iterations,
        series={"Base": None, "SGD+AS,SQS": "SGD+AS,SQS"},
    )

    def make_sweep() -> SweepSpec:
        return SweepSpec(
            trial_functions=functions, fault_rates=CAMPAIGN_RATES,
            trials=args.trials, seed=kernels.WORKLOAD_SEED,
        )

    def snapshot(series_list):
        return [(s.name, s.fault_rates, s.values) for s in series_list]

    start = time.perf_counter()
    serial_series = ExperimentEngine("serial").run_sweep(make_sweep())
    serial_seconds = time.perf_counter() - start

    store = tempfile.mkdtemp(prefix="bench-campaign-")
    key = {"bench": "campaign", "iterations": iterations}
    try:
        runner = CampaignRunner(
            store=store, planner=ShardPlanner("cell"),
            pool="process", workers=2, executor="vectorized",
        )
        campaign = runner.submit(make_sweep(), key=key)
        start = time.perf_counter()
        campaign_series = campaign.run()
        campaign_seconds = time.perf_counter() - start

        resumed = runner.submit(make_sweep(), key=key)
        start = time.perf_counter()
        resumed_series = resumed.run()
        resume_seconds = time.perf_counter() - start
        resume_clean = (
            resumed.stats["computed"] == 0
            and resumed.stats["reused"] == len(campaign.shards)
        )
    finally:
        shutil.rmtree(store, ignore_errors=True)

    identical = (
        snapshot(campaign_series) == snapshot(serial_series)
        and snapshot(resumed_series) == snapshot(serial_series)
        and resume_clean
    )
    return {
        "kernel": "campaign",
        "figure": "run_campaign",
        "figure_id": "Campaign (sharded sweep vs serial engine)",
        "params": {
            "series": ["Base", "SGD+AS,SQS"],
            "fault_rates": list(CAMPAIGN_RATES),
            "trials": args.trials,
            "iterations": iterations,
            "granularity": "cell",
            "pool": "process",
            "workers": 2,
        },
        "sweep": True,
        "commit": commit_hash(),
        "generated_by": "scripts/bench_all.py",
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        **backend_fields(backend, warmup_seconds),
        "wall_seconds": round(campaign_seconds, 4),
        "serial_seconds": round(serial_seconds, 4),
        "speedup_vs_serial": round(serial_seconds / max(campaign_seconds, 1e-9), 3),
        "resume_seconds": round(resume_seconds, 4),
        "shards_total": len(campaign.shards),
        "resume_reused_all": resume_clean,
        "bit_identical_to_serial": identical,
    }


#: Scenario presets of the BENCH_adaptive record (kept to two scenarios so
#: the fixed-count twin stays affordable at the larger trial budget).
ADAPTIVE_SCENARIOS = ("nominal", "low-order-seu")


def bench_adaptive(args, backend) -> dict:
    """Time the confidence-target mode against its fixed-count twin.

    Both runs use the ``vectorized`` executor on the same sorting scenario
    grid.  The fixed run spends ``8 × --trials`` trials on every point; its
    worst per-point Wilson half-width then becomes the adaptive run's
    target (with ``max_trials`` set to the same count), so the adaptive run
    reports intervals at least as tight as the fixed one on every point —
    equal precision, fewer trials.  Determinism of the round loop is
    checked by re-running the adaptive sweep under the ``batched`` executor
    and requiring bit-identical values *and* stopping pattern.
    """
    warmup_seconds = warm_up_grid(backend)
    iterations = max(int(10000 * args.scale), 500)
    fixed_trials = max(args.trials * 8, 16)
    functions = kernels.get_kernel("sorting").sweep_functions(
        iterations=iterations,
        series={"Base": None, "SGD+AS,SQS": "SGD+AS,SQS"},
    )

    def timed(policy, executor="vectorized"):
        start = time.perf_counter()
        series = ExperimentEngine(executor).run_sweep(SweepSpec(
            functions, trials=fixed_trials, seed=kernels.WORKLOAD_SEED,
            scenarios=ADAPTIVE_SCENARIOS, policy=policy,
        ))
        return series, time.perf_counter() - start

    fixed_series, fixed_seconds = timed(None)
    target = max(
        wilson_half_width(successes(point_values), len(point_values))
        for series in fixed_series
        for point_values in series.values
    )
    policy = ConfidenceTarget(
        half_width=target,
        batch=max(fixed_trials // 4, 2),
        min_trials=2,
        max_trials=fixed_trials,
    )
    adaptive_series, adaptive_seconds = timed(policy)
    check_series, _ = timed(policy, executor="batched")

    def snapshot(series_list):
        return [
            (s.name, s.fault_rates, s.values, s.trials_used, s.halted_early)
            for s in series_list
        ]

    identical = snapshot(adaptive_series) == snapshot(check_series)
    trials_adaptive = sum(
        n for series in adaptive_series for n in series.trials_used
    )
    trials_fixed = sum(
        len(point_values) for series in fixed_series for point_values in series.values
    )
    return {
        "kernel": "adaptive",
        "figure": "ExperimentEngine.run_sweep",
        "figure_id": "AdaptiveBudget (confidence target vs fixed count)",
        "params": {
            "scenarios": list(ADAPTIVE_SCENARIOS),
            "series": ["Base", "SGD+AS,SQS"],
            "trials": fixed_trials,
            "iterations": iterations,
        },
        "sweep": True,
        "commit": commit_hash(),
        "generated_by": "scripts/bench_all.py",
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        **backend_fields(backend, warmup_seconds),
        "wall_seconds": round(adaptive_seconds, 4),
        "serial_seconds": None,
        "speedup_vs_serial": None,
        "fixed_seconds": round(fixed_seconds, 4),
        "speedup_vs_fixed": round(fixed_seconds / max(adaptive_seconds, 1e-9), 3),
        "trials_fixed": trials_fixed,
        "trials_adaptive": trials_adaptive,
        "target_half_width": round(target, 6),
        "bit_identical_to_serial": identical,
    }


#: Voltage tolerance of the BENCH_search bisection: the dense comparison grid
#: at matched resolution has ~(range / tolerance) points, so this choice sets
#: the trial ratio the record demonstrates (~91 grid points vs ≤ 9 probes).
SEARCH_TOLERANCE = 0.005


def bench_search(args, backend) -> dict:
    """Time critical-voltage bisection against the dense grid it replaces.

    A sorting-kernel bisection runs to :data:`SEARCH_TOLERANCE` on a scratch
    store; the dense voltage grid at the same resolution then runs through
    the *same* probe layer on a **separate** scratch store, so its cost is
    what a grid-only workflow would actually pay (no cross-leg memo hits).
    A second bisection against the first store replays the resume path,
    which must reuse every probe (``computed == 0``) and reproduce the same
    crossing.  The workload-construction memo (satellite of the same PR) is
    measured by timing the kernel's first ``sweep_functions`` build against
    the memoized rebuild.
    """
    warmup_seconds = warm_up_grid(backend)
    iterations = max(int(10000 * args.scale), 500)
    spec = kernels.get_kernel("sorting")

    kernels.clear_workload_memo()
    start = time.perf_counter()
    functions = spec.sweep_functions(
        iterations=iterations, series={"Base": None}
    )
    build_seconds = time.perf_counter() - start
    start = time.perf_counter()
    functions = spec.sweep_functions(
        iterations=iterations, series={"Base": None}
    )
    memo_seconds = time.perf_counter() - start
    memo_stats = kernels.workload_memo_stats()

    driver = CriticalVoltageBisector(tolerance=SEARCH_TOLERANCE)
    key = {"bench": "search", "iterations": iterations}

    def make_runner(store: str) -> ProbeRunner:
        return ProbeRunner(
            store, functions["Base"], "Base",
            trials=args.trials, seed=kernels.WORKLOAD_SEED, key=key,
            executor="vectorized",
        )

    search_store = tempfile.mkdtemp(prefix="bench-search-")
    grid_store = tempfile.mkdtemp(prefix="bench-search-grid-")
    try:
        runner = make_runner(search_store)
        start = time.perf_counter()
        result = driver.run(runner)
        search_seconds = time.perf_counter() - start
        trials_search = runner.stats["trials_executed"]

        grid_runner = make_runner(grid_store)
        start = time.perf_counter()
        verdict = driver.verify_against_grid(grid_runner, result)
        grid_seconds = time.perf_counter() - start
        trials_grid = grid_runner.stats["trials_executed"]

        resumed = make_runner(search_store)
        start = time.perf_counter()
        resumed_result = driver.run(resumed)
        resume_seconds = time.perf_counter() - start
        resume_clean = (
            resumed.stats["computed"] == 0
            and resumed.stats["reused"] == runner.stats["probes"]
            and resumed_result.critical_voltage == result.critical_voltage
        )
    finally:
        shutil.rmtree(search_store, ignore_errors=True)
        shutil.rmtree(grid_store, ignore_errors=True)

    agreement = verdict["within_tolerance"]
    return {
        "kernel": "search",
        "figure": "run_search",
        "figure_id": "Search (critical-voltage bisection vs dense grid)",
        "params": {
            "series": ["Base"],
            "trials": args.trials,
            "iterations": iterations,
            "tolerance": SEARCH_TOLERANCE,
            "driver": "bisect",
        },
        "sweep": True,
        "commit": commit_hash(),
        "generated_by": "scripts/bench_all.py",
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        **backend_fields(backend, warmup_seconds),
        "wall_seconds": round(search_seconds, 4),
        "serial_seconds": round(grid_seconds, 4),
        "speedup_vs_serial": round(grid_seconds / max(search_seconds, 1e-9), 3),
        "probes": runner.stats["probes"],
        "grid_points": verdict["grid_points"],
        "trials_search": trials_search,
        "trials_grid": trials_grid,
        "trial_ratio": round(trials_grid / max(trials_search, 1), 3),
        "critical_voltage": round(result.critical_voltage, 6),
        "grid_critical_voltage": round(verdict["grid_critical_voltage"], 6),
        "tolerance": SEARCH_TOLERANCE,
        "grid_agreement": agreement,
        "resume_seconds": round(resume_seconds, 4),
        "resume_probes_computed": resumed.stats["computed"],
        "resume_probes_reused": resumed.stats["reused"],
        "workload_build_seconds": round(build_seconds, 4),
        "workload_memo_seconds": round(memo_seconds, 4),
        "workload_memo_hits": memo_stats["hits"],
        "workload_memo_misses": memo_stats["misses"],
        "bit_identical_to_serial": bool(agreement and resume_clean),
    }


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        backend = resolve_backend(args.backend)
    except ValueError as error:
        raise SystemExit(str(error))
    requested = {
        name: args.only is None or name in args.only for name in PSEUDO_KERNELS
    }
    if args.only:
        names = [name for name in args.only if name not in PSEUDO_KERNELS]
        try:
            specs = [kernels.get_kernel(name) for name in names]
        except KeyError as error:
            raise SystemExit(str(error))
    else:
        specs = kernels.list_kernels()

    args.output_dir.mkdir(parents=True, exist_ok=True)
    failures = []

    def emit(record: dict, summary: str) -> None:
        """Write one record, print its summary line and note a mismatch."""
        path = bench_path(args.output_dir, record["kernel"], backend)
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(summary)
        if (
            record.get("bit_identical_to_serial") is False
            or record.get("bit_identical_to_numpy") is False
        ):
            failures.append(record["kernel"])

    def verdict(identical) -> str:
        return "ok" if identical else "MISMATCH"

    print(
        f"[bench_all] backend {backend.name} "
        f"(version {backend.version() or 'n/a'})",
        flush=True,
    )
    with use_backend(backend):
        if requested["scenario_grid"]:
            print("[bench_all] scenario_grid (ScenarioGrid path) ...", flush=True)
            record = bench_scenario_grid(args, backend)
            emit(record, (
                f"  serial {record['serial_seconds']:.2f}s, batched "
                f"{record['batched_seconds']:.2f}s (x{record['batched_speedup_vs_serial']:.2f}), "
                f"vectorized {record['wall_seconds']:.2f}s "
                f"(x{record['speedup_vs_serial']:.2f}), bit-identity "
                f"{verdict(record['bit_identical_to_serial'])}"
            ))
        if requested["campaign"]:
            print("[bench_all] campaign (sharded sweep service) ...", flush=True)
            record = bench_campaign(args, backend)
            emit(record, (
                f"  serial {record['serial_seconds']:.2f}s, campaign "
                f"{record['wall_seconds']:.2f}s "
                f"(x{record['speedup_vs_serial']:.2f}, "
                f"{record['shards_total']} shards), resume "
                f"{record['resume_seconds']:.2f}s, bit-identity "
                f"{verdict(record['bit_identical_to_serial'])}"
            ))
        if requested["adaptive"]:
            print("[bench_all] adaptive (confidence-target budget) ...", flush=True)
            record = bench_adaptive(args, backend)
            emit(record, (
                f"  fixed {record['fixed_seconds']:.2f}s "
                f"({record['trials_fixed']} trials), adaptive "
                f"{record['wall_seconds']:.2f}s ({record['trials_adaptive']} trials), "
                f"speedup x{record['speedup_vs_fixed']:.2f} at half-width "
                f"{record['target_half_width']:.3f}, determinism "
                f"{verdict(record['bit_identical_to_serial'])}"
            ))
        if requested["search"]:
            print("[bench_all] search (bisection vs dense grid) ...", flush=True)
            record = bench_search(args, backend)
            emit(record, (
                f"  grid {record['serial_seconds']:.2f}s "
                f"({record['grid_points']} points, {record['trials_grid']} "
                f"trials), bisection {record['wall_seconds']:.2f}s "
                f"({record['probes']} probes, {record['trials_search']} "
                f"trials, x{record['trial_ratio']:.1f} fewer), resume "
                f"{record['resume_seconds']:.2f}s "
                f"({record['resume_probes_computed']} recomputed), "
                f"agreement+determinism {verdict(record['bit_identical_to_serial'])}"
            ))
        for spec in specs:
            print(f"[bench_all] {spec.name} ({spec.figure_id}) ...", flush=True)
            record = bench_kernel(spec, args, backend)
            if not record["sweep"]:
                summary = f"  wall {record['wall_seconds']:.2f}s"
            elif record.get("numpy_seconds") is not None:
                summary = (
                    f"  numpy-vectorized {record['numpy_seconds']:.2f}s, "
                    f"{backend.name} {record['wall_seconds']:.2f}s, speedup "
                    f"x{record['speedup_vs_numpy']:.2f}, bit-identity "
                    f"{verdict(record['bit_identical_to_numpy'])}"
                )
            else:
                summary = (
                    f"  serial {record['serial_seconds']:.2f}s, vectorized "
                    f"{record['wall_seconds']:.2f}s, speedup "
                    f"x{record['speedup_vs_serial']:.2f}, bit-identity "
                    f"{verdict(record['bit_identical_to_serial'])}"
                )
            emit(record, summary)
    if failures:
        print(f"[bench_all] BIT-IDENTITY FAILURES: {failures}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
