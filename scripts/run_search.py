#!/usr/bin/env python
"""Search a kernel's voltage operating space instead of enumerating it.

The CLI front door of :mod:`repro.experiments.search`: picks a driver —
critical-voltage bisection (``--driver bisect``), energy-vs-accuracy Pareto
tracing (``--driver pareto``), or a successive-halving recipe race
(``--driver rank``) — and lets it decide which voltage probes to run.
Every probe is a content-addressed single-point shard in the same artifact
store campaigns use, so probes memoize: re-running a finished search
computes nothing, and a probe that any prior campaign, grid, or search
already answered is a reuse.  Typical use from the repository root:

    PYTHONPATH=src python scripts/run_search.py \
        --driver bisect --kernel sorting --iterations 300 \
        --tolerance 0.01 --trials 4 \
        --store .repro-cache/campaigns --verify-grid

Because probe ids are content addresses, *resuming is just rerunning*: the
same command line reissues the same probe sequence and the store answers the
already-computed prefix instantly.  ``--resume ID`` asserts the rebuilt
search id matches ``ID`` (a drifted command line fails loudly instead of
silently starting a different search); ``--status ID`` reports how many of a
recorded search's probes still have artifacts, without executing anything —
probes lost to cache pruning show up as pending (recomputable), never as
silently complete.

A JSON summary (search id, per-series findings, probe/trial accounting,
``--verify-grid`` verdict) is printed to stdout and, with ``--summary
FILE``, written to disk; ``--report FILE`` also saves the aligned text table
from :mod:`repro.experiments.reporting`.

Exit codes: 0 success; 1 ``--verify-grid`` disagreement; 2 usage errors
(unknown backend or kernel/driver combination, ``--resume`` id mismatch,
unknown ``--status`` id); 3 deliberate abort via ``--fail-after`` (the
kill+resume test hook: abort after N newly computed probes, leaving a
resumable store).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.backends import resolve_backend, use_backend
from repro.experiments.campaign import ShardStore
from repro.experiments.executors import list_executors
from repro.experiments.kernels import WORKLOAD_SEED, get_kernel, sweep_kernels
from repro.experiments.reporting import format_search_report, save_search_report
from repro.experiments.search import (
    BisectionResult,
    CriticalVoltageBisector,
    ParetoTracer,
    ProbeRunner,
    RecipeRanker,
    search_id,
)
from repro.experiments.sequential import ConfidenceTarget
from repro.processor.voltage import MIN_VOLTAGE, NOMINAL_VOLTAGE


class _Abort(Exception):
    """Raised by the --fail-after hook to abandon the run mid-search."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--driver", choices=("bisect", "pareto", "rank"),
                        default="bisect",
                        help="search driver (default: bisect)")
    parser.add_argument("--kernel", action="append", default=None,
                        metavar="NAME",
                        help="registered sweep kernel (repeatable; default: "
                        "sorting; see repro.experiments.kernels.sweep_kernels)")
    parser.add_argument("--series", action="append", default=None,
                        metavar="NAME",
                        help="series filter within each kernel (repeatable; "
                        "default: every series)")
    parser.add_argument("--iterations", type=int, default=None,
                        help="workload iteration budget (kernel default when "
                        "omitted)")
    parser.add_argument("--trials", type=int, default=4,
                        help="trials per probe (default: 4)")
    parser.add_argument("--seed", type=int, default=0,
                        help="probe sweep seed (default: 0)")
    parser.add_argument("--budget", choices=("fixed", "adaptive"),
                        default="fixed",
                        help="'adaptive' runs each probe under a "
                        "confidence-target budget")
    parser.add_argument("--half-width", type=float, default=0.1,
                        help="adaptive CI half-width target (default: 0.1)")
    parser.add_argument("--max-trials", type=int, default=None,
                        help="adaptive trial cap per probe (default: 4x --trials)")
    parser.add_argument("--tolerance", type=float, default=0.01,
                        help="bisection voltage tolerance (default: 0.01)")
    parser.add_argument("--threshold", type=float, default=0.5,
                        help="success-rate crossing threshold (default: 0.5)")
    parser.add_argument("--v-low", type=float, default=MIN_VOLTAGE,
                        help=f"voltage range lower bound (default: {MIN_VOLTAGE})")
    parser.add_argument("--v-high", type=float, default=NOMINAL_VOLTAGE,
                        help=f"voltage range upper bound (default: {NOMINAL_VOLTAGE})")
    parser.add_argument("--min-segment", type=float, default=0.02,
                        help="pareto: smallest voltage segment to refine "
                        "(default: 0.02)")
    parser.add_argument("--max-probes", type=int, default=32,
                        help="pareto: probe ceiling per series (default: 32)")
    parser.add_argument("--voltage", type=float, default=0.65,
                        help="rank: stress voltage the race runs at "
                        "(default: 0.65)")
    parser.add_argument("--rungs", type=int, default=3,
                        help="rank: successive-halving rungs (default: 3)")
    parser.add_argument("--store", default=".repro-cache/campaigns",
                        help="shared artifact store directory — sharing the "
                        "campaign store lets searches reuse campaign shards "
                        "(default: .repro-cache/campaigns)")
    parser.add_argument("--executor", default="vectorized", choices=list_executors(),
                        help="per-probe trial executor (default: vectorized)")
    parser.add_argument("--backend", default=None,
                        help="compute backend for every trial (default: "
                        "REPRO_BACKEND / numpy)")
    parser.add_argument("--resume", default=None, metavar="SEARCH_ID",
                        help="assert the planned search id matches and rerun; "
                        "already-answered probes are memo hits")
    parser.add_argument("--status", default=None, metavar="SEARCH_ID",
                        help="report a recorded search's probe completion and exit")
    parser.add_argument("--verify-grid", action="store_true",
                        help="bisect only: also probe a dense voltage grid at "
                        "matched resolution and fail unless the crossings agree")
    parser.add_argument("--fail-after", type=int, default=None, metavar="N",
                        help="abort (exit 3) after N newly computed probes — "
                        "the deliberate mid-search kill for resume testing")
    parser.add_argument("--summary", default=None, metavar="FILE",
                        help="also write the JSON summary to FILE")
    parser.add_argument("--report", default=None, metavar="FILE",
                        help="also write the aligned text report to FILE")
    parser.add_argument("--progress", action="store_true",
                        help="print each probe as it is answered")
    return parser


def _emit_summary(summary: dict, path: str | None) -> None:
    text = json.dumps(summary, indent=2, sort_keys=True)
    print(text)
    if path is not None:
        Path(path).write_text(text + "\n")


def _status(store: ShardStore, search: str, summary_path: str | None) -> int:
    manifest = store.load_search(search)
    if manifest is None:
        print(f"[search] unknown search id {search!r} in {store.directory}",
              file=sys.stderr)
        return 2
    shard_ids = list(manifest.get("shards") or [])
    present = sum(1 for sid in shard_ids if store.has_shard(sid))
    _emit_summary({
        "search": search,
        "driver": manifest.get("driver"),
        "complete": manifest.get("complete", False),
        "probes_recorded": len(shard_ids),
        "probes_present": present,
        "probes_pending": len(shard_ids) - present,
        "done": bool(shard_ids) and present == len(shard_ids)
                and bool(manifest.get("complete")),
    }, summary_path)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    store = ShardStore(args.store)

    if args.status is not None:
        return _status(store, args.status, args.summary)
    try:
        backend = resolve_backend(args.backend)
    except ValueError as error:
        print(f"[search] {error}", file=sys.stderr)
        return 2
    with use_backend(backend):
        return _search(args, store)


def _search(args, store: ShardStore) -> int:
    if args.verify_grid and args.driver != "bisect":
        print("[search] --verify-grid only applies to --driver bisect",
              file=sys.stderr)
        return 2

    kernel_names = args.kernel or ["sorting"]
    kernels = []
    for name in kernel_names:
        try:
            kernels.append(get_kernel(name))
        except KeyError:
            print(f"[search] unknown kernel {name!r}; sweep kernels: "
                  f"{[spec.name for spec in sweep_kernels()]}", file=sys.stderr)
            return 2

    factory_kwargs = {}
    if args.iterations is not None:
        factory_kwargs["iterations"] = args.iterations

    policy = None
    if args.budget == "adaptive":
        max_trials = (
            args.max_trials if args.max_trials is not None
            else max(args.trials, 2) * 4
        )
        policy = ConfidenceTarget(
            half_width=args.half_width, batch=max(args.trials, 2),
            min_trials=2, max_trials=max_trials,
        )

    if args.driver == "bisect":
        driver = CriticalVoltageBisector(
            tolerance=args.tolerance, threshold=args.threshold,
            v_low=args.v_low, v_high=args.v_high,
        )
    elif args.driver == "pareto":
        driver = ParetoTracer(
            min_segment=args.min_segment, v_low=args.v_low,
            v_high=args.v_high, max_probes=args.max_probes,
        )
    else:
        driver = RecipeRanker(
            voltage=args.voltage, base_trials=max(args.trials // 2, 1),
            rungs=args.rungs,
        )

    counter = {"computed": 0}

    def on_probe(probe):
        if args.progress:
            print(f"[search] probe V={probe.voltage:.4g} "
                  f"success={probe.success_rate:.3f} ({probe.trials} trials)",
                  flush=True)
        counter["computed"] += 1
        if args.fail_after is not None and counter["computed"] >= args.fail_after:
            raise _Abort(
                f"deliberate abort after {counter['computed']} probes"
            )

    # One probe runner per (kernel, series) entrant; the label doubles as the
    # report row name and — sorted — fixes the probe-sequence order.
    runners = {}
    for kernel in kernels:
        try:
            functions = kernel.sweep_functions(**factory_kwargs)
        except ValueError as error:
            print(f"[search] {error}", file=sys.stderr)
            return 2
        wanted = args.series or sorted(functions)
        missing = [name for name in wanted if name not in functions]
        if missing:
            print(f"[search] unknown series {missing!r} for kernel "
                  f"{kernel.name!r}; series: {sorted(functions)}",
                  file=sys.stderr)
            return 2
        key = {
            "kernel": kernel.name,
            "workload_seed": WORKLOAD_SEED,
            "factory": dict(factory_kwargs),
        }
        for series in sorted(wanted):
            label = (f"{kernel.name}:{series}" if len(kernels) > 1 else series)
            runners[label] = ProbeRunner(
                store, functions[series], series,
                trials=args.trials, seed=args.seed, policy=policy,
                key=key, executor=args.executor, on_probe=on_probe,
            )

    sid = search_id(driver, runners)
    if args.resume is not None and sid != args.resume:
        print(f"[search] --resume id {args.resume!r} does not match the "
              f"search planned from these arguments ({sid!r}); refusing to "
              "run a different search under a resume flag", file=sys.stderr)
        return 2

    summary = {
        "search": sid,
        "driver": driver.name,
        "kernel": ",".join(spec.name for spec in kernels),
        "budget": args.budget,
    }

    def issued_shards() -> list:
        seen, ordered = set(), []
        for label in sorted(runners):
            for shard in runners[label].issued_shard_ids():
                if shard not in seen:
                    seen.add(shard)
                    ordered.append(shard)
        return ordered

    def write_manifest(complete: bool) -> None:
        store.store_search(sid, {
            "driver": driver.name,
            "fingerprint": driver.fingerprint(),
            "kernels": [spec.name for spec in kernels],
            "entrants": sorted(runners),
            "shards": issued_shards(),
            "complete": complete,
        })

    try:
        if args.driver == "rank":
            summary["race"] = driver.run_race(runners)
        else:
            results = []
            for label in sorted(runners):
                outcome = driver.run(runners[label])
                payload = (outcome.to_payload() if args.driver == "bisect"
                           else outcome)
                payload["series"] = label
                results.append(payload)
            summary["results"] = results
    except _Abort as abort:
        write_manifest(complete=False)
        summary.update({
            "aborted": str(abort),
            "probes_computed": counter["computed"],
        })
        _emit_summary(summary, args.summary)
        print(f"[search] {abort}; resume with --resume {sid}",
              file=sys.stderr)
        return 3

    if args.verify_grid:
        # The grid probes go through the same memoized runners, so the
        # bisection's own probes show up as grid reuses (and vice versa on a
        # later run).
        verdicts = []
        for entry in summary["results"]:
            runner = runners[entry["series"]]
            result = BisectionResult(
                series=entry["series"], status=entry["status"],
                critical_voltage=entry["critical_voltage"],
                lo=entry["lo"], hi=entry["hi"],
                tolerance=entry["tolerance"], threshold=entry["threshold"],
                probes=(),
            )
            verdict = driver.verify_against_grid(runner, result)
            verdict["series"] = entry["series"]
            verdicts.append(verdict)
        summary["verify"] = verdicts
        summary["verified"] = all(v["within_tolerance"] for v in verdicts)

    write_manifest(complete=True)
    stats = {"probes": 0, "computed": 0, "reused": 0, "trials_executed": 0}
    for runner in runners.values():
        for field in stats:
            stats[field] += runner.stats[field]
    summary["stats"] = stats

    _emit_summary(summary, args.summary)
    if args.report is not None:
        save_search_report(summary, args.report)
    elif args.progress:
        print(format_search_report(summary), flush=True)
    if args.verify_grid and not summary["verified"]:
        print("[search] VERIFY-GRID FAILURE: bisection crossing disagrees "
              "with the dense grid", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
