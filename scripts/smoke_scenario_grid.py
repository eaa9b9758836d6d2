#!/usr/bin/env python
"""CI smoke test for the ScenarioGrid path.

Runs a tiny 2-scenario × 2-rate grid on the sorting kernel through the
serial, batched, and tensorized ``vectorized`` executors and asserts that
every executor produces bit-identical series — the ScenarioGrid counterpart
of the engine's executor-equivalence contract.

Run from the repository root:

    PYTHONPATH=src python scripts/smoke_scenario_grid.py
        [--iterations N] [--trials N] [--executor NAME ...]
        [--budget {fixed,adaptive}]

Exit codes: 0 when every executor matches the serial reference bit for bit,
1 on any mismatch (or an unexpected series layout).  ``--iterations`` /
``--trials`` / ``--executor`` shrink or widen the grid — the defaults are
the CI configuration, the test suite drives a tiny grid through the same
code path.

``--budget adaptive`` smokes the engine's confidence-target mode instead:
the same grid runs under a ``ConfidenceTarget`` policy on every executor
(bit-identity now covers the round loop's stopping pattern, via
``trials_used`` / ``halted_early``), and a degenerate twin — an unreachable
half-width capped at ``--trials`` — must reproduce the fixed-count sweep's
values exactly.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.engine import ExperimentEngine
from repro.experiments.kernels import get_kernel
from repro.experiments.runner import run_scenario_grid
from repro.experiments.sequential import ConfidenceTarget

SCENARIOS = ("nominal", "low-order-seu")
FAULT_RATES = (0.05, 0.2)
EXECUTORS = ("serial", "batched", "vectorized")
SERIES = ("Base", "SGD+AS,SQS")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--iterations", type=int, default=500,
                        help="sorting iteration budget per trial (default: 500)")
    parser.add_argument("--trials", type=int, default=2,
                        help="trials per (series, scenario, rate) cell "
                        "(default: 2)")
    parser.add_argument("--executor", action="append", default=None,
                        metavar="NAME", choices=EXECUTORS,
                        help="executor to compare against serial (repeatable; "
                        "default: batched, vectorized)")
    parser.add_argument("--budget", choices=("fixed", "adaptive"),
                        default="fixed",
                        help="'adaptive' smokes the confidence-target round "
                        "loop instead of the fixed-count grid")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    chosen = args.executor or list(EXECUTORS[1:])
    executors = ("serial", *(name for name in chosen if name != "serial"))
    if len(executors) < 2:
        print("[smoke] need at least one executor besides the serial "
              "reference", file=sys.stderr)
        return 2
    functions = get_kernel("sorting").sweep_functions(
        iterations=args.iterations, series={"Base": None, "SGD+AS,SQS": "SGD+AS,SQS"}
    )
    policy = None
    if args.budget == "adaptive":
        policy = ConfidenceTarget(
            half_width=0.2, batch=2, min_trials=2,
            max_trials=max(args.trials, 2) * 4,
        )
    results = {}
    for executor in executors:
        series = run_scenario_grid(
            functions,
            SCENARIOS,
            fault_rates=FAULT_RATES,
            trials=args.trials,
            seed=2010,
            engine=ExperimentEngine(executor),
            policy=policy,
        )
        results[executor] = [
            (s.name, s.fault_rates, s.values, s.trials_used, s.halted_early)
            for s in series
        ]
        print(f"[smoke] {executor:10s} -> {len(series)} series ok", flush=True)

    reference = results[executors[0]]
    mismatches = [name for name in executors[1:] if results[name] != reference]
    if mismatches:
        print(f"[smoke] BIT-IDENTITY FAILURES vs serial: {mismatches}", file=sys.stderr)
        return 1
    names = [entry[0] for entry in reference]
    expected = [
        f"{series} @ {scenario}" for series in SERIES for scenario in SCENARIOS
    ]
    if names != expected:
        print(f"[smoke] unexpected series layout: {names}", file=sys.stderr)
        return 1
    if policy is not None:
        # Degenerate twin: an unreachable target capped at --trials must
        # reproduce the fixed-count sweep exactly (the headline of the
        # adaptive determinism contract).
        degenerate = ConfidenceTarget(
            half_width=1e-9, batch=2, min_trials=1, max_trials=args.trials
        )
        twins = {
            label: run_scenario_grid(
                functions, SCENARIOS, fault_rates=FAULT_RATES,
                trials=args.trials, seed=2010,
                engine=ExperimentEngine(executors[0]), policy=twin_policy,
            )
            for label, twin_policy in (("fixed", None), ("degenerate", degenerate))
        }
        fixed_view = [
            (s.name, s.fault_rates, s.values) for s in twins["fixed"]
        ]
        degenerate_view = [
            (s.name, s.fault_rates, s.values) for s in twins["degenerate"]
        ]
        if fixed_view != degenerate_view:
            print("[smoke] DEGENERATE-TWIN FAILURE: unreachable confidence "
                  "target != fixed-count results", file=sys.stderr)
            return 1
        if any(flag for s in twins["degenerate"] for flag in s.halted_early):
            print("[smoke] DEGENERATE-TWIN FAILURE: unreachable target "
                  "reported an early stop", file=sys.stderr)
            return 1
        print("[smoke] degenerate confidence target == fixed-count grid")
    print(
        "[smoke] scenario grid bit-identical across " + "/".join(executors)
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
