"""Regenerate the paper's evaluation figures as text tables.

By default runs a reduced-scale sweep of every figure (a few minutes); pass
``--paper-scale`` for the paper's full iteration counts (much slower).

The figure list, reduced-scale parameters, cache-key payloads, and
success-rate formatting all come from the application-kernel registry
(``repro.experiments.kernels``) — this script holds no figure table of its
own.  Sweeps execute through the experiment engine, so the executor is
selectable (the default ``vectorized`` runs every batch-capable series on
the tensorized backend and the rest one trial at a time) and completed
figures are cached on disk keyed by a content hash of their spec:
re-running with unchanged parameters replays cached tables instead of
recomputing.  Parallel runs go through ``scripts/run_campaign.py --pool
process``.

Run:  python examples/reproduce_figures.py [--paper-scale] [--output DIR]
          [--executor {batched,serial,vectorized}]
          [--only NAME [--only NAME ...]] [--trials N] [--backend NAME]
          [--grid] [--scenario NAME [--scenario NAME ...]]
          [--budget {fixed,adaptive}] [--budget-half-width W]
          [--budget-max-trials N] [--budget-confidence C]
          [--cache-dir DIR | --no-cache] [--refresh] [--progress]

``--backend`` selects the compute backend for every trial (see
``docs/backends.md``); the default follows the ``REPRO_BACKEND`` / numpy
precedence.  Every backend is bit-identical to numpy and only changes wall
time, so all backends share one figure cache.

``--budget adaptive`` (scenario-grid studies only) replaces the fixed
per-point trial count with the engine's confidence-target mode: each
(series, scenario, rate) point runs in batched rounds until its CI
half-width reaches ``--budget-half-width``, capped at
``--budget-max-trials`` — see ``docs/adaptive.md``.  Adaptive studies cache
under budget-aware keys, so they never collide with fixed-count entries.

``--only`` accepts registry kernel names (``sorting``, ``cg_least_squares``,
...; see ``--list``) or the figure names that key the figure cache
(``figure_6_1``, ``momentum_study``, ...); both come from the registry.

``--grid`` runs the selected sweep kernels as **scenario-grid studies**
instead of their stock figures: each kernel's series line-up is crossed with
the scenario presets chosen via ``--scenario`` (default: the cross-model
comparison set; see ``--list-scenarios``), through the same engine, executor,
and cache as every other figure.
"""

import argparse
import sys
from pathlib import Path

from repro.backends import resolve_backend, use_backend
from repro.experiments import kernels
from repro.experiments.engine import ExperimentEngine
from repro.experiments.executors import list_executors
from repro.experiments.kernels import DEFAULT_CROSS_MODEL_SCENARIOS
from repro.experiments.reporting import format_figure, save_figure_report
from repro.experiments.scenarios import get_scenario, list_scenarios


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--paper-scale", action="store_true",
                        help="use the paper's full iteration counts (slow)")
    parser.add_argument("--output", type=Path, default=None,
                        help="directory to save the tables into")
    parser.add_argument("--executor", choices=list_executors(), default="vectorized",
                        help="how sweep trials execute (default: vectorized, the "
                        "tensorized backend wherever a kernel supports it)")
    parser.add_argument("--only", action="append", default=None, metavar="NAME",
                        help="generate only this kernel (repeatable); registry "
                        "names (e.g. sorting) or figure names (e.g. figure_6_1)")
    parser.add_argument("--list", action="store_true",
                        help="list the registered kernels and exit")
    parser.add_argument("--trials", type=int, default=None,
                        help="override the per-point trial count")
    parser.add_argument("--backend", default=None, metavar="NAME",
                        help="compute backend for every trial (see "
                        "docs/backends.md; default: REPRO_BACKEND / numpy)")
    parser.add_argument("--grid", action="store_true",
                        help="run the selected sweep kernels as scenario-grid "
                        "studies over the --scenario presets")
    parser.add_argument("--scenario", action="append", default=None, metavar="NAME",
                        help="scenario preset for --grid (repeatable; default: "
                        "the cross-model comparison set)")
    parser.add_argument("--list-scenarios", action="store_true",
                        help="list the registered scenario presets and exit")
    parser.add_argument("--budget", choices=("fixed", "adaptive"), default="fixed",
                        help="trial budget: 'fixed' runs the classic per-point "
                        "trial count, 'adaptive' (with --grid) runs each point "
                        "to a CI half-width target")
    parser.add_argument("--budget-half-width", type=float, default=None,
                        metavar="W", help="CI half-width target for --budget "
                        "adaptive (default: 0.05)")
    parser.add_argument("--budget-max-trials", type=int, default=None,
                        metavar="N", help="hard per-point trial cap for "
                        "--budget adaptive (default: 40)")
    parser.add_argument("--budget-confidence", type=float, default=None,
                        metavar="C", help="confidence level for --budget "
                        "adaptive (default: 0.95)")
    parser.add_argument("--cache-dir", type=Path, default=Path(".repro-cache"),
                        help="figure cache directory (default: .repro-cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk figure cache")
    parser.add_argument("--refresh", action="store_true",
                        help="recompute even when a cached figure exists")
    parser.add_argument("--progress", action="store_true",
                        help="print a progress line to stderr as each grid "
                        "point finishes (per round under --budget adaptive)")
    return parser


def select_kernels(only) -> list:
    """Resolve ``--only`` names (kernel or figure names) against the registry."""
    if not only:
        return kernels.list_kernels()
    selected, unknown = [], []
    for name in only:
        try:
            spec = kernels.get_kernel(name)
        except KeyError:
            unknown.append(name)
            continue
        if spec not in selected:
            selected.append(spec)
    if unknown:
        raise SystemExit(
            f"unknown kernel(s) {sorted(unknown)}; choose from {kernels.kernel_names()}"
        )
    return selected


def resolve_scenarios(names):
    """Resolve ``--scenario`` names (or the default set) against the registry."""
    chosen = names if names else list(DEFAULT_CROSS_MODEL_SCENARIOS)
    try:
        return [get_scenario(name) for name in chosen]
    except KeyError as error:
        raise SystemExit(f"{error.args[0]}")


def resolve_policy(parser, args):
    """Build the ConfidenceTarget selected by the ``--budget*`` flags (or None)."""
    tuning = {
        "--budget-half-width": args.budget_half_width,
        "--budget-max-trials": args.budget_max_trials,
        "--budget-confidence": args.budget_confidence,
    }
    if args.budget != "adaptive":
        set_flags = sorted(name for name, value in tuning.items() if value is not None)
        if set_flags:
            parser.error(f"{', '.join(set_flags)} require(s) --budget adaptive")
        return None
    if not args.grid:
        parser.error("--budget adaptive requires --grid (scenario-grid studies)")
    from repro.experiments.sequential import ConfidenceTarget

    try:
        return ConfidenceTarget(
            half_width=(0.05 if args.budget_half_width is None
                        else args.budget_half_width),
            confidence=(0.95 if args.budget_confidence is None
                        else args.budget_confidence),
            max_trials=(40 if args.budget_max_trials is None
                        else args.budget_max_trials),
        )
    except ValueError as error:
        parser.error(str(error))


def main(argv=None) -> None:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_scenarios:
        for name in list_scenarios():
            scenario = get_scenario(name)
            pin = ""
            if scenario.voltage is not None:
                pin = f" @ {scenario.voltage:g} V"
            elif scenario.fault_rate is not None:
                pin = f" @ rate {scenario.fault_rate:g}"
            model = scenario.fault_model if isinstance(scenario.fault_model, str) \
                else scenario.fault_model.name
            print(f"{name:20s} {model:20s}{pin:14s} {scenario.description}")
        return
    if args.scenario and not args.grid:
        parser.error("--scenario requires --grid")
    if args.list:
        for spec in kernels.list_kernels():
            suffix = " [sweep]" if spec.sweep else ""
            print(f"{spec.name:24s} {spec.figure_id:14s} {spec.figure}{suffix}")
        return
    if args.trials is not None and args.trials < 0:
        parser.error(f"--trials must be non-negative, got {args.trials}")
    policy = resolve_policy(parser, args)
    try:
        backend = resolve_backend(args.backend)
    except ValueError as error:
        parser.error(str(error))

    scale = 1.0 if args.paper_scale else 0.25
    trials = args.trials if args.trials is not None else (5 if args.paper_scale else 3)

    def progress(event) -> None:
        print(f"  {event}", file=sys.stderr)

    engine = ExperimentEngine(
        executor=args.executor,
        cache_dir=None if args.no_cache else args.cache_dir,
        progress=progress if args.progress else None,
    )

    if args.grid:
        from repro.experiments.spec import DEFAULT_FAULT_RATES

        scenarios = resolve_scenarios(args.scenario)
        selected = select_kernels(args.only)
        if args.only is None:
            # The registered scenario-study kernels are excluded by default:
            # wrapping a scenario study in another ad-hoc grid would
            # recompute the same workload under a second key.
            selected = [
                spec for spec in selected
                if spec.sweep and not spec.scenario_study
            ]
        for spec in selected:
            if not spec.sweep or spec.scenario_study:
                reason = ("already a scenario study" if spec.scenario_study
                          else "not sweep-shaped, no scenario study")
                print(f"[skip] {spec.name}: {reason}", file=sys.stderr)
                continue
            kwargs = spec.reduced_kwargs(trials, scale)
            grid_trials = kwargs.pop("trials", trials)
            # The key must record the rate grid the study actually runs
            # (build_scenario_study's own default), not whatever rate
            # parameters the kernel's stock figure builder happens to have.
            key = {
                "figure": spec.figure,
                "grid": [scenario.fingerprint() for scenario in scenarios],
                "fault_rates": list(DEFAULT_FAULT_RATES),
                "params": spec.cache_params(dict(kwargs, trials=grid_trials)),
            }
            if policy is not None:
                # Budget-aware key: adaptive studies must never replay a
                # fixed-count cache entry (or vice versa).
                key["budget"] = policy.fingerprint()
            with use_backend(backend):
                figure = engine.run_figure(
                    key,
                    lambda: spec.build_scenario_study(
                        scenarios, trials=grid_trials,
                        fault_rates=DEFAULT_FAULT_RATES, engine=engine,
                        policy=policy, **kwargs
                    ),
                    refresh=args.refresh,
                )
            text = format_figure(figure, use_success_rate=spec.use_success_rate)
            print("\n" + text)
            if args.output is not None:
                save_figure_report(figure, args.output / f"{spec.figure}__grid.txt",
                                   use_success_rate=spec.use_success_rate)
        return

    for spec in select_kernels(args.only):
        kwargs = spec.reduced_kwargs(trials, scale)
        key = {"figure": spec.figure, "params": spec.cache_params(kwargs)}
        if spec.takes_engine:
            kwargs = dict(kwargs, engine=engine)
        with use_backend(backend):
            figure = engine.run_figure(
                key, lambda: spec.build(**kwargs), refresh=args.refresh
            )
        text = format_figure(figure, use_success_rate=spec.use_success_rate)
        print("\n" + text)
        if args.output is not None:
            save_figure_report(figure, args.output / f"{spec.figure}.txt",
                               use_success_rate=spec.use_success_rate)


if __name__ == "__main__":
    main()
