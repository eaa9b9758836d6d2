"""Tests for the experiment engine: specs, executors, caching, progress."""

import copy

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.experiments.cache import ResultCache, spec_hash
from repro.experiments.campaign import CampaignRunner
from repro.experiments.engine import ExperimentEngine
from repro.experiments.executors import (
    BatchedExecutor,
    SerialExecutor,
    get_executor,
    list_executors,
)
from repro.experiments.results import FigureResult, SeriesResult
from repro.experiments.sequential import ConfidenceTarget
from repro.experiments.spec import SweepSpec, TrialSpec, run_trial
from repro.experiments.trials import make_gradient_descent_trial, make_noisy_sum_trial
from repro.faults.vectorized import corrupt_array
from repro.processor.batch import ProcessorBatch
from repro.processor.stochastic import StochasticProcessor


def noisy_metric(proc, stream):
    corrupted = proc.corrupt(stream.random(32), ops_per_element=4)
    return float(np.sum(corrupted)) + float(stream.random())


def make_sweep(trials=3, **kwargs):
    defaults = dict(
        trial_functions={"a": noisy_metric, "b": noisy_metric},
        fault_rates=(0.0, 0.05, 0.5),
        trials=trials,
        seed=99,
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


class TestSpec:
    def test_expand_order_and_length(self):
        sweep = make_sweep(trials=2)
        specs = sweep.expand()
        assert len(specs) == len(sweep) == 2 * 3 * 2
        assert specs[0] == TrialSpec("a", 0, 0, 0, 0.0, 99)
        # series-major, then rate, then trial
        assert [s.series_name for s in specs[:6]] == ["a"] * 6
        assert [s.trial_index for s in specs[:4]] == [0, 1, 0, 1]

    def test_trial_seeds_independent_of_order(self):
        sweep = make_sweep()
        specs = sweep.expand()
        forward = [run_trial(sweep, s) for s in specs]
        backward = [run_trial(sweep, s) for s in reversed(specs)]
        assert forward == backward[::-1]

    def test_fingerprint_tracks_grid(self):
        base = make_sweep().fingerprint()
        assert base["series"] == ["a", "b"]
        assert make_sweep(seed=7).fingerprint() != base
        assert make_sweep(trials=4).fingerprint() != base
        assert spec_hash(make_sweep().fingerprint()) == spec_hash(base)

    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError):
            make_sweep(trials=-1)

    @pytest.mark.parametrize("rate", [1.5, -0.1, float("nan")])
    def test_fault_rate_outside_unit_interval_rejected(self, rate):
        with pytest.raises(ValueError, match="fault rates"):
            make_sweep(fault_rates=(0.05, rate))

    def test_unit_interval_endpoints_accepted(self):
        sweep = make_sweep(fault_rates=(0.0, 1.0))
        assert sweep.fault_rates == (0.0, 1.0)


class TestExecutorEquivalence:
    """All executors must return identical floats for the same plan."""

    @pytest.fixture(scope="class")
    def reference(self):
        return ExperimentEngine(SerialExecutor()).run_sweep(make_sweep())

    @pytest.mark.parametrize("executor", ["serial", "batched", "vectorized"])
    def test_matches_serial_reference(self, executor, reference):
        engine = ExperimentEngine(get_executor(executor))
        result = engine.run_sweep(make_sweep())
        assert [s.values for s in result] == [s.values for s in reference]
        assert [s.name for s in result] == [s.name for s in reference]
        assert [s.fault_rates for s in result] == [s.fault_rates for s in reference]

    @pytest.mark.parametrize("executor", ["serial", "batched", "vectorized"])
    def test_batchable_trial_identical_across_executors(self, executor):
        def sweep():
            return SweepSpec(
                {"noise": make_noisy_sum_trial(n=48, ops_per_element=6)},
                fault_rates=(0.0, 0.1, 0.5),
                trials=5,
                seed=11,
            )

        engine = ExperimentEngine(get_executor(executor))
        result = engine.run_sweep(sweep())
        reference = ExperimentEngine().run_sweep(sweep())
        assert [s.values for s in result] == [s.values for s in reference]

    def test_matches_legacy_serial_loop(self):
        """The engine reproduces the historical triple-loop bit-for-bit."""
        sweep = make_sweep()
        legacy = []
        for series_index, (name, function) in enumerate(sweep.trial_functions.items()):
            per_series = []
            for rate_index, fault_rate in enumerate(sweep.fault_rates):
                trial_values = []
                for trial in range(sweep.trials):
                    stream = np.random.default_rng(
                        [sweep.seed, series_index, rate_index, trial]
                    )
                    proc = StochasticProcessor(
                        fault_rate=float(fault_rate),
                        fault_model="leon3-fpu",
                        rng=np.random.default_rng(stream.integers(0, 2**63 - 1)),
                    )
                    trial_values.append(float(function(proc, stream)))
                per_series.append(trial_values)
            legacy.append(per_series)
        engine_result = ExperimentEngine().run_sweep(make_sweep())
        assert [s.values for s in engine_result] == legacy


class TestExecutors:
    def test_registry(self):
        assert list_executors() == ["batched", "serial", "vectorized"]
        with pytest.raises(ValueError, match="unknown executor"):
            get_executor("gpu")

    def test_batched_executor_uses_run_batch(self):
        calls = []
        trial = make_noisy_sum_trial(n=16)
        original = trial.run_batch

        def counting_run_batch(procs, streams):
            calls.append(len(procs))
            return original(procs, streams)

        trial.run_batch = counting_run_batch
        sweep = SweepSpec({"noise": trial}, fault_rates=(0.0, 0.1), trials=4, seed=0)
        BatchedExecutor().run(sweep, sweep.expand())
        assert calls == [4, 4]  # one batch per fault-rate cell

    def test_batched_executor_rejects_bad_batch_size(self):
        def bad_batch(procs, streams):
            return [0.0]

        def trial(proc, stream):
            return 0.0

        trial.run_batch = bad_batch
        sweep = SweepSpec({"bad": trial}, fault_rates=(0.0,), trials=3, seed=0)
        with pytest.raises(ValueError, match="run_batch returned"):
            BatchedExecutor().run(sweep, sweep.expand())


class TestCorruptBatch:
    @given(
        n_trials=st.integers(min_value=1, max_value=5),
        n=st.integers(min_value=1, max_value=40),
        fault_rate=st.sampled_from([0.0, 0.01, 0.2, 0.9]),
        ops=st.integers(min_value=1, max_value=16),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_matches_per_trial_corrupt_array(self, n_trials, n, fault_rate, ops, seed):
        """The fused ProcessorBatch pass equals per-trial corrupt_array bit-for-bit."""
        workload = np.random.default_rng(seed)
        stacked = workload.random((n_trials, n)).astype(np.float32)

        def procs():
            return [
                StochasticProcessor(fault_rate=fault_rate, rng=np.random.default_rng([seed, t]))
                for t in range(n_trials)
            ]

        serial_procs, batch_procs = procs(), procs()
        batch = ProcessorBatch(batch_procs)
        batched = batch.corrupt(stacked, ops_per_element=ops)
        batch.flush()
        for t, proc in enumerate(serial_procs):
            row, n_faults = corrupt_array(
                stacked[t], fault_rate, ops,
                proc.injector.bit_distribution, proc.injector.rng,
            )
            np.testing.assert_array_equal(batched[t], row.astype(np.float64))
            assert batch_procs[t].faults_injected == n_faults
            assert (
                batch_procs[t].injector.rng.bit_generator.state
                == proc.injector.rng.bit_generator.state
            )


class TestEngine:
    @pytest.mark.parametrize("executor", list_executors())
    @pytest.mark.parametrize("adaptive", [False, True], ids=["fixed", "adaptive"])
    def test_run_sweep_leaves_the_sweep_unchanged(self, executor, adaptive):
        policy = (
            ConfidenceTarget(half_width=0.5, batch=2, max_trials=4) if adaptive else None
        )
        sweep = make_sweep(trials=2, scenarios=("nominal", "low-order-seu"), policy=policy)

        def state():
            return {
                name: copy.copy(value)
                for name, value in vars(sweep).items()
                if name != "_specs"
            }

        before, fingerprint = state(), sweep.fingerprint()
        ExperimentEngine(executor).run_sweep(sweep)
        assert state() == before
        assert sweep.fingerprint() == fingerprint

    def test_progress_reports_each_point_once(self, tmp_path):
        engine_events, campaign_events = [], []
        ExperimentEngine(progress=engine_events.append).run_sweep(make_sweep(trials=2))
        campaign = CampaignRunner(
            store=tmp_path, pool="serial", progress=campaign_events.append
        ).submit(make_sweep(trials=2))
        campaign.run()
        assert campaign_events == engine_events
        points = [(s, r) for s in ("a", "b") for r in (0.0, 0.05, 0.5)]
        assert [(e.series_name, e.fault_rate) for e in engine_events] == points
        assert [e.sweep_completed for e in engine_events] == [2, 4, 6, 8, 10, 12]
        assert {(e.completed, e.total, e.sweep_total) for e in engine_events} == {
            (2, 2, 12)
        }
        assert all(e.ci_half_width is None for e in engine_events)
        assert str(engine_events[-1]).startswith("[12/12]")

    @pytest.mark.parametrize("executor", list_executors())
    def test_adaptive_progress_reports_each_point_per_round(self, executor):
        policy = ConfidenceTarget(half_width=1.0, metric="mean", batch=2, max_trials=6)
        events = []
        series = ExperimentEngine(executor, progress=events.append).run_sweep(
            make_sweep(policy=policy)
        )
        used = {
            (entry.name, rate): n
            for entry in series
            for rate, n in zip(entry.fault_rates, entry.trials_used)
        }
        assert sorted(set(used.values())) == [2, 4, 6]  # points stop in different rounds
        per_round = {}
        for event in events:
            assert event.ci_half_width is not None
            per_round.setdefault((event.series_name, event.fault_rate), []).append(
                event.completed
            )
        for point, n in used.items():
            assert per_round[point] == list(range(2, n + 1, 2))
        assert {(event.total, event.sweep_total) for event in events} == {(6, 36)}
        # Each event adds one point's round of two trials.
        completed = [event.sweep_completed for event in events]
        assert completed == list(range(2, 2 * len(events) + 1, 2))
        assert completed[-1] == sum(used.values())

    def test_run_figure_is_incremental(self, tmp_path):
        builds = []

        def build():
            builds.append(1)
            figure = FigureResult("F", "t", "x", "y")
            figure.series.append(
                SeriesResult(name="s", fault_rates=[0.0], values=[[1.0, 0.0]])
            )
            return figure

        engine = ExperimentEngine(cache_dir=tmp_path)
        key = {"figure": "demo", "trials": 2}
        first = engine.run_figure(key, build)
        second = engine.run_figure(key, build)
        assert len(builds) == 1  # second call replayed from disk
        assert second.series_named("s").values == first.series_named("s").values
        engine.run_figure({"figure": "demo", "trials": 3}, build)
        assert len(builds) == 2  # different spec hash -> rebuild
        engine.run_figure(key, build, refresh=True)
        assert len(builds) == 3  # refresh bypasses the cache

    def test_cache_ignores_corrupt_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = {"figure": "demo"}
        path = cache.store(key, FigureResult("F", "t", "x", "y"))
        path.write_text("{not json")
        assert cache.load(key) is None

    def test_figure_roundtrip_through_dict(self):
        figure = FigureResult(
            "Figure X",
            "demo",
            "rate",
            "metric",
            series=[SeriesResult(name="s", fault_rates=[0.0, 0.1], values=[[1.0], [0.5]])],
            notes="n",
        )
        rebuilt = FigureResult.from_dict(figure.to_dict())
        assert rebuilt == figure

    def test_runner_wrapper_accepts_engine_objects(self):
        reference = ExperimentEngine().run_sweep(
            SweepSpec({"m": noisy_metric}, fault_rates=(0.1,), trials=2, seed=5)
        )
        via_engine = ExperimentEngine("batched").run_sweep(
            SweepSpec({"m": noisy_metric}, fault_rates=(0.1,), trials=2, seed=5)
        )
        assert [s.values for s in via_engine] == [s.values for s in reference]

    def test_gradient_descent_trial_deterministic(self):
        trial = make_gradient_descent_trial(dim=8, iterations=5)
        sweep = SweepSpec({"sgd": trial}, fault_rates=(0.2,), trials=2, seed=1)
        first = ExperimentEngine().run_sweep(sweep)
        second = ExperimentEngine().run_sweep(sweep)
        assert [s.values for s in first] == [s.values for s in second]
        assert np.isfinite(first[0].values[0]).all()
