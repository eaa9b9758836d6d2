#!/usr/bin/env python
"""Run a registered kernel's sweep as a sharded, resumable campaign.

The CLI front door of :mod:`repro.experiments.campaign`: builds a sweep from
the application-kernel registry, splits it into content-addressed shards,
runs them on a worker pool against a shared artifact store, and merges the
result bit-identically to the serial path.  Typical use from the repository
root:

    PYTHONPATH=src python scripts/run_campaign.py \
        --kernel sorting --iterations 300 \
        --scenarios nominal --scenarios low-order-seu \
        --rates 0.05 --rates 0.2 --trials 2 \
        --store .repro-cache/campaigns --pool process --workers 2 \
        --verify-serial

Because campaign and shard ids are content addresses, *resuming is just
rerunning*: a killed campaign's completed shards are already in the store,
and the same command line recomputes only the missing ones.  ``--resume ID``
makes that explicit — it asserts the rebuilt campaign id matches ``ID`` (so
a drifted command line fails loudly instead of silently planning a new
campaign) and then runs normally.  ``--status ID`` reports shard completion
from the store without executing anything.

A JSON summary (campaign id, shard totals, reuse/compute counts, result
digest) is printed to stdout and, with ``--summary FILE``, written to disk —
CI parses it to assert that a resumed campaign recomputed nothing that was
already complete.

Exit codes: 0 success; 1 incomplete campaign or ``--verify-serial``
mismatch; 2 usage errors (unknown kernel/scenario/backend, a fault rate
outside [0, 1], ``--resume`` id mismatch, unknown ``--status`` id), which
write no campaign manifest; 3 deliberate abort via
``--fail-after`` (the kill+resume test hook: abort the run after N shard
completions, leaving a resumable store behind).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.backends import resolve_backend, use_backend
from repro.experiments.campaign import (
    CampaignRunner,
    ShardPlanner,
    campaign_status,
    list_pools,
)
from repro.experiments.engine import ExperimentEngine
from repro.experiments.executors import list_executors
from repro.experiments.kernels import WORKLOAD_SEED, get_kernel, sweep_kernels
from repro.experiments.results import series_digest
from repro.experiments.sequential import ConfidenceTarget
from repro.experiments.spec import DEFAULT_FAULT_RATES, SweepSpec


class _Abort(Exception):
    """Raised by the --fail-after hook to abandon the run mid-campaign."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--kernel", default="sorting",
                        help="registered sweep kernel to run (default: sorting; "
                        "see repro.experiments.kernels.sweep_kernels)")
    parser.add_argument("--iterations", type=int, default=None,
                        help="workload iteration budget (kernel default when omitted)")
    parser.add_argument("--scenarios", action="append", default=None, metavar="NAME",
                        help="scenario preset (repeatable; omit for the "
                        "classic single-model sweep)")
    parser.add_argument("--rates", action="append", type=float, default=None,
                        metavar="RATE",
                        help="fault-rate grid point (repeatable; default: the "
                        "standard grid)")
    parser.add_argument("--trials", type=int, default=5,
                        help="trials per grid point (default: 5)")
    parser.add_argument("--seed", type=int, default=0,
                        help="sweep seed (default: 0)")
    parser.add_argument("--budget", choices=("fixed", "adaptive"), default="fixed",
                        help="'adaptive' runs the confidence-target round loop")
    parser.add_argument("--half-width", type=float, default=0.1,
                        help="adaptive CI half-width target (default: 0.1)")
    parser.add_argument("--max-trials", type=int, default=None,
                        help="adaptive trial cap per point (default: 4x --trials)")
    parser.add_argument("--store", default=".repro-cache/campaigns",
                        help="shared artifact store directory "
                        "(default: .repro-cache/campaigns)")
    parser.add_argument("--pool", choices=list_pools(), default="serial",
                        help="worker pool (default: serial)")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker-pool size (default: 2)")
    parser.add_argument("--executor", default="vectorized", choices=list_executors(),
                        help="per-shard trial executor (default: vectorized)")
    parser.add_argument("--granularity", choices=("series", "cell"),
                        default="series",
                        help="shard granularity (default: series)")
    parser.add_argument("--backend", default=None,
                        help="compute backend for every trial (default: "
                        "REPRO_BACKEND / numpy)")
    parser.add_argument("--resume", default=None, metavar="CAMPAIGN_ID",
                        help="assert the planned campaign id matches and rerun, "
                        "recomputing only unfinished shards")
    parser.add_argument("--status", default=None, metavar="CAMPAIGN_ID",
                        help="report a campaign's shard completion and exit")
    parser.add_argument("--verify-serial", action="store_true",
                        help="also run the single-process serial engine and "
                        "fail unless the merged campaign is bit-identical")
    parser.add_argument("--fail-after", type=int, default=None, metavar="N",
                        help="abort (exit 3) after N newly computed shards — "
                        "the deliberate mid-campaign kill for resume testing")
    parser.add_argument("--summary", default=None, metavar="FILE",
                        help="also write the JSON summary to FILE")
    parser.add_argument("--progress", action="store_true",
                        help="print per-point progress events as shards land")
    return parser


def _emit_summary(summary: dict, path: str | None) -> None:
    text = json.dumps(summary, indent=2, sort_keys=True)
    print(text)
    if path is not None:
        Path(path).write_text(text + "\n")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.status is not None:
        status = campaign_status(args.store, args.status)
        if status is None:
            print(f"[campaign] unknown campaign id {args.status!r} in "
                  f"{args.store}", file=sys.stderr)
            return 2
        _emit_summary({
            "campaign_id": status.campaign_id,
            "shards_total": status.shards_total,
            "shards_completed": status.shards_completed,
            "shards_pending": len(status.pending),
            "done": status.done,
        }, args.summary)
        return 0

    try:
        kernel = get_kernel(args.kernel)
    except KeyError:
        print(f"[campaign] unknown kernel {args.kernel!r}; sweep kernels: "
              f"{[spec.name for spec in sweep_kernels()]}", file=sys.stderr)
        return 2
    try:
        backend = resolve_backend(args.backend)
    except ValueError as error:
        print(f"[campaign] {error}", file=sys.stderr)
        return 2
    factory_kwargs = {}
    if args.iterations is not None:
        factory_kwargs["iterations"] = args.iterations
    try:
        functions = kernel.sweep_functions(**factory_kwargs)
    except ValueError as error:
        print(f"[campaign] {error}", file=sys.stderr)
        return 2

    # Build the whole sweep before anything touches the store, so a bad
    # rate, scenario or budget is a usage error that writes nothing.
    try:
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
        sweep = SweepSpec(
            trial_functions=functions,
            fault_rates=tuple(args.rates) if args.rates else DEFAULT_FAULT_RATES,
            trials=args.trials,
            seed=args.seed,
            scenarios=tuple(args.scenarios) if args.scenarios else None,
            policy=policy,
        )
    except (KeyError, ValueError) as error:
        print(f"[campaign] invalid sweep: {error.args[0]}", file=sys.stderr)
        return 2

    # The workload key covers what the sweep fingerprint cannot see: the
    # kernel identity and its factory parameters (iteration budget and the
    # registry's fixed workload seed).
    key = {
        "kernel": kernel.name,
        "workload_seed": WORKLOAD_SEED,
        "factory": dict(factory_kwargs),
    }
    progress = None
    if args.progress:
        progress = lambda event: print(f"[campaign] {event}", flush=True)  # noqa: E731
    runner = CampaignRunner(
        store=args.store,
        planner=ShardPlanner(granularity=args.granularity),
        pool=args.pool,
        workers=args.workers,
        executor=args.executor,
        progress=progress,
    )
    if args.resume is not None:
        planned = runner.campaign_id(sweep, key=key)
        if planned != args.resume:
            print(f"[campaign] --resume id {args.resume!r} does not match the "
                  f"campaign planned from these arguments ({planned!r}); "
                  "refusing to run a different campaign under a resume flag",
                  file=sys.stderr)
            return 2
    campaign = runner.submit(sweep, key=key)

    on_shard = None
    if args.fail_after is not None:
        counter = {"computed": 0}

        def on_shard(shard, result):
            counter["computed"] += 1
            if counter["computed"] >= args.fail_after:
                raise _Abort(
                    f"deliberate abort after {counter['computed']} shards"
                )

    summary = {
        "campaign_id": campaign.campaign_id,
        "kernel": kernel.name,
        "budget": args.budget,
        "pool": args.pool,
        "granularity": args.granularity,
        "shards_total": len(campaign.shards),
    }
    try:
        with use_backend(backend):
            series = campaign.run(on_shard=on_shard)
    except _Abort as abort:
        status = campaign.status()
        summary.update({
            "aborted": str(abort),
            "shards_completed": status.shards_completed,
            "shards_pending": len(status.pending),
        })
        _emit_summary(summary, args.summary)
        print(f"[campaign] {abort}; resume with --resume "
              f"{campaign.campaign_id}", file=sys.stderr)
        return 3

    summary.update({
        "shards_reused": campaign.stats.get("reused", 0),
        "shards_computed": campaign.stats.get("computed", 0),
        "pool_retries": campaign.stats.get("retries", 0),
        "series": len(series),
        "digest": series_digest(series),
    })
    if args.verify_serial:
        with use_backend(backend):
            reference = ExperimentEngine("serial").run_sweep(sweep)
        summary["bit_identical_to_serial"] = (
            series_digest(reference) == summary["digest"]
        )
        if not summary["bit_identical_to_serial"]:
            _emit_summary(summary, args.summary)
            print("[campaign] BIT-IDENTITY FAILURE: sharded merge differs "
                  "from the serial engine", file=sys.stderr)
            return 1
    _emit_summary(summary, args.summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
