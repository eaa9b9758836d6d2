"""Stateful property suite for the adaptive round loop.

A :class:`RuleBasedStateMachine` grows sweep specs (series, rates, seeds,
scenario axes) and confidence targets from the shared ``tests.strategies``
package, then interleaves adaptive runs, cache stores/loads, and degenerate
fixed-count twins, checking the round loop against a simple model:

* adaptive results are byte-identical across the serial, batched, and
  vectorized executors on every step (the campaign process pool is
  exercised in a dedicated test at machine-friendly scale);
* per-point ``trials_used`` never exceeds ``max_trials``; ``halted_early``
  means exactly "stopped before the cap" and implies ``min_trials`` ran;
* re-running the identical ``(spec, target, seed)`` reproduces the ragged
  values byte for byte (the determinism contract of docs/adaptive.md);
* an unreachable target degenerates to the fixed-count run of the same
  ``max_trials`` — same values, nothing flagged as halted early;
* adaptive and no-policy fingerprints never collide in the result cache,
  and cached adaptive figures round-trip with budgets intact.
"""

import shutil
import tempfile

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from repro.experiments.cache import ResultCache, spec_hash
from repro.experiments.campaign import CampaignRunner
from repro.experiments.engine import ExperimentEngine
from repro.experiments.results import FigureResult
from repro.experiments.sequential import ConfidenceTarget
from repro.experiments.spec import SweepSpec
from tests.strategies import (
    SERIES_POOL,
    confidence_targets,
    fault_rate_grids,
    make_grid,
    scenario_axes,
    seeds,
    unreachable_targets,
)

#: Executors compared on every adaptive step.  The campaign process pool
#: forks workers and is far slower to spin up, so it is covered by
#: ``test_process_pool_matches_serial_adaptive`` instead of per-step.
EXECUTORS = ("serial", "batched", "vectorized")


def snapshot(series_list):
    """Everything observable about an adaptive result, for byte comparison."""
    return [
        (s.name, s.fault_rates, s.values, s.trials_used, s.halted_early)
        for s in series_list
    ]


class AdaptiveRoundLoopMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.series = {"sum8": SERIES_POOL["sum8"]()}
        self.fault_rates = (0.05, 0.5)
        self.seed = 0
        self.scenarios = None
        self.target = None
        self.cache_dir = tempfile.mkdtemp(prefix="adaptive-machine-")
        self.cached = {}  # spec_hash -> snapshot

    def teardown(self):
        shutil.rmtree(self.cache_dir, ignore_errors=True)

    def spec(self, policy):
        return SweepSpec(
            trial_functions=dict(self.series),
            fault_rates=self.fault_rates,
            trials=2,
            seed=self.seed,
            scenarios=self.scenarios,
            policy=policy,
        )

    # -- grow the spec ----------------------------------------------------
    @rule(name=st.sampled_from(sorted(SERIES_POOL)))
    def add_series(self, name):
        if len(self.series) < 2 or name in self.series:
            self.series[name] = SERIES_POOL[name]()

    @rule(rates=fault_rate_grids(max_size=2))
    def set_rates(self, rates):
        self.fault_rates = rates

    @rule(seed=seeds())
    def set_seed(self, seed):
        self.seed = seed

    @rule(axis=scenario_axes())
    def set_scenarios(self, axis):
        self.scenarios = axis

    # NB: the kwarg is named ``goal`` because ``target=`` is reserved by
    # hypothesis.stateful.rule for Bundle targets.
    @rule(goal=confidence_targets(max_trials_cap=6))
    def set_target(self, goal):
        self.target = goal

    # -- exercise the round loop ------------------------------------------
    @precondition(lambda self: self.target is not None)
    @rule()
    def executors_agree_and_budget_holds(self):
        target = self.target
        results = {
            executor: ExperimentEngine(executor).run_sweep(self.spec(target))
            for executor in EXECUTORS
        }
        reference = snapshot(results["serial"])
        for executor in EXECUTORS[1:]:
            assert snapshot(results[executor]) == reference, (
                f"{executor} diverged from serial under {target!r} on "
                f"series={sorted(self.series)}, rates={self.fault_rates}, "
                f"seed={self.seed}, scenarios={self.scenarios}"
            )
        # Model checks: budgets and the halted_early contract per point.
        for series in results["serial"]:
            assert series.trials_used is not None
            assert series.halted_early is not None
            for used, halted, values in zip(
                series.trials_used, series.halted_early, series.values
            ):
                assert len(values) == used
                assert used <= target.max_trials
                if halted:
                    assert used < target.max_trials
                    assert used >= target.min_trials
                else:
                    assert used == target.max_trials

    @precondition(lambda self: self.target is not None)
    @rule()
    def reruns_are_byte_identical(self):
        first = ExperimentEngine("serial").run_sweep(self.spec(self.target))
        second = ExperimentEngine("serial").run_sweep(self.spec(self.target))
        assert snapshot(first) == snapshot(second)

    @rule(goal=unreachable_targets(max_trials_cap=4))
    def unreachable_target_degenerates_to_fixed(self, goal):
        adaptive = ExperimentEngine("vectorized").run_sweep(self.spec(goal))
        fixed_spec = SweepSpec(
            trial_functions=dict(self.series),
            fault_rates=self.fault_rates,
            trials=goal.max_trials,
            seed=self.seed,
            scenarios=self.scenarios,
        )
        fixed = ExperimentEngine("vectorized").run_sweep(fixed_spec)
        assert [(s.name, s.fault_rates, s.values) for s in adaptive] == [
            (s.name, s.fault_rates, s.values) for s in fixed
        ]
        for series in adaptive:
            assert not any(series.halted_early)

    # -- cache interleaving ------------------------------------------------
    @precondition(lambda self: self.target is not None)
    @rule()
    def cache_keys_never_collide_and_round_trip(self):
        adaptive_spec = self.spec(self.target)
        plain_spec = self.spec(None)
        adaptive_hash = spec_hash(adaptive_spec.fingerprint())
        assert adaptive_hash != spec_hash(plain_spec.fingerprint())

        series = ExperimentEngine("serial").run_sweep(adaptive_spec)
        figure = FigureResult(
            figure_id="adaptive-machine",
            title="t",
            x_label="x",
            y_label="y",
            series=series,
        )
        cache = ResultCache(self.cache_dir)
        cache.store(adaptive_spec.fingerprint(), figure)
        self.cached[adaptive_hash] = snapshot(series)
        loaded = cache.load(adaptive_spec.fingerprint())
        assert loaded is not None
        assert snapshot(loaded.series) == self.cached[adaptive_hash]

    @precondition(lambda self: self.target is not None and self.cached)
    @rule()
    def cache_hits_replay_stored_budgets(self):
        cache = ResultCache(self.cache_dir)
        fingerprint = self.spec(self.target).fingerprint()
        loaded = cache.load(fingerprint)
        key = spec_hash(fingerprint)
        if key in self.cached:
            assert loaded is not None
            assert snapshot(loaded.series) == self.cached[key]


class TestAdaptiveRoundLoop(AdaptiveRoundLoopMachine.TestCase):
    settings = settings(max_examples=12, stateful_step_count=8, deadline=None)


def test_process_pool_matches_serial_adaptive(tmp_path):
    """A process-pool campaign reproduces serial byte-for-byte on an adaptive grid."""
    target = ConfidenceTarget(half_width=0.4, batch=2, min_trials=2, max_trials=6)

    def spec():
        return make_grid(("nominal", "low-order-seu"), policy=target, seed=11)

    reference = ExperimentEngine("serial").run_sweep(spec())
    runner = CampaignRunner(store=tmp_path, pool="process", workers=2)
    merged = runner.submit(spec()).run()
    assert snapshot(merged) == snapshot(reference)
