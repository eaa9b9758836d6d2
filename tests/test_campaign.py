"""Tests for the sharded campaign stack: planner, store, scheduler, merge.

The load-bearing claims pinned here:

* the planner partitions the sweep's point grid exactly (no point lost or
  duplicated) with content-addressed, order-stable shard ids;
* the store is a miss-never-an-exception artifact cache (corrupt, torn, or
  foreign artifacts degrade to recomputation) with atomic writes;
* the scheduler reuses existing artifacts, retries across worker death, and
  every pool (serial/process) produces byte-identical merges;
* the serial pool runs the pending ``cell`` shards of one (series, scenario)
  unit as one tensor batch and still publishes them shard by shard;
* the merged campaign equals the single-process serial engine run —
  byte-for-byte, via ``series_digest`` — for fixed-count AND adaptive
  sweeps, and resuming recomputes only the missing shards;
* ``prune_artifacts`` enforces age/size retention without touching
  survivors.
"""

import json
from collections import Counter

import numpy as np
import pytest

from repro.experiments.campaign import (
    CampaignRunner,
    CampaignScheduler,
    IncompleteCampaignError,
    Shard,
    ShardPlanner,
    ShardStore,
    WorkerPoolError,
    campaign_status,
    execute_shard,
    list_pools,
    prune_artifacts,
)
from repro.experiments import executors
from repro.experiments.engine import ExperimentEngine
from repro.experiments.executors import get_executor
from repro.experiments.results import series_digest
from repro.experiments.sequential import ConfidenceTarget
from repro.experiments.spec import SweepSpec
from repro.experiments.tensor import run_tensor_cell
from repro.experiments.trials import make_noisy_sum_trial


def noisy_metric(proc, stream):
    corrupted = proc.corrupt(stream.random(16), ops_per_element=2)
    return float(np.sum(corrupted)) + float(stream.random())


def make_sweep(trials=2, **kwargs):
    defaults = dict(
        trial_functions={"a": noisy_metric, "b": noisy_metric},
        fault_rates=(0.0, 0.2),
        trials=trials,
        seed=31,
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


def serial_reference(sweep_kwargs=None):
    return ExperimentEngine("serial").run_sweep(make_sweep(**(sweep_kwargs or {})))


class TestShardPlanner:
    def test_partitions_point_grid_exactly(self):
        sweep = make_sweep(scenarios=("nominal", "low-order-seu"))
        for granularity in ("series", "cell"):
            shards = ShardPlanner(granularity).plan(sweep)
            covered = [point for shard in shards for point in shard.points]
            assert covered == sweep.point_keys()

    def test_granularity_controls_shard_count(self):
        sweep = make_sweep(scenarios=("nominal", "low-order-seu"))
        series_shards = ShardPlanner("series").plan(sweep)
        cell_shards = ShardPlanner("cell").plan(sweep)
        assert len(series_shards) == 2 * 2  # series x scenario
        assert len(cell_shards) == 2 * 2 * 2  # series x scenario x rate
        with pytest.raises(ValueError, match="granularity"):
            ShardPlanner("bogus")

    def test_shard_ids_are_content_addresses(self):
        sweep = make_sweep()
        first = ShardPlanner().plan(sweep)
        again = ShardPlanner().plan(make_sweep())
        assert [s.shard_id for s in first] == [s.shard_id for s in again]
        # Any workload-key or sweep change moves every shard id.
        keyed = ShardPlanner().plan(sweep, key={"kernel": "sorting"})
        reseeded = ShardPlanner().plan(make_sweep(seed=32))
        for other in (keyed, reseeded):
            assert not set(s.shard_id for s in first) & set(
                s.shard_id for s in other
            )

    def test_ids_are_order_stable_hex(self):
        for shard in ShardPlanner().plan(make_sweep()):
            assert len(shard.shard_id) == 64
            int(shard.shard_id, 16)  # hex or raise
            assert shard.n_points == len(shard.points)


class TestShardStore:
    def setup_method(self):
        self.sweep = make_sweep()
        self.shards = ShardPlanner().plan(self.sweep)

    def compute(self, shard):
        from repro.experiments.executors import SerialExecutor

        return execute_shard(self.sweep, shard, SerialExecutor())

    def test_roundtrip_and_miss_semantics(self, tmp_path):
        store = ShardStore(tmp_path)
        shard = self.shards[0]
        assert store.load_shard(shard) is None
        assert not store.has_shard(shard)
        result = self.compute(shard)
        store.store_shard(shard, result)
        assert store.has_shard(shard)
        loaded = store.load_shard(shard)
        assert loaded.points == result.points
        assert loaded.values == result.values
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize(
        "junk",
        ["", "{", "not json", json.dumps({"schema": 999}),
         json.dumps({"schema": 1, "shard": "other", "result": {}})],
    )
    def test_corrupt_artifact_is_a_miss_not_an_error(self, tmp_path, junk):
        store = ShardStore(tmp_path)
        shard = self.shards[0]
        store.store_shard(shard, self.compute(shard))
        store.shard_path(shard.shard_id).write_text(junk)
        assert store.load_shard(shard) is None

    def test_discard_and_completed(self, tmp_path):
        store = ShardStore(tmp_path)
        for shard in self.shards:
            store.store_shard(shard, self.compute(shard))
        assert store.completed(self.shards) == {s.shard_id for s in self.shards}
        assert store.discard_shard(self.shards[0].shard_id)
        assert not store.discard_shard(self.shards[0].shard_id)
        assert store.completed(self.shards) == {
            s.shard_id for s in self.shards[1:]
        }

    def test_points_mismatch_is_a_miss(self, tmp_path):
        # An id collision with different points (or a tampered artifact)
        # must degrade to recomputation, never to wrong data.
        store = ShardStore(tmp_path)
        shard = self.shards[0]
        store.store_shard(shard, self.compute(shard))
        imposter = Shard(
            shard_id=shard.shard_id, index=0, points=self.shards[1].points
        )
        assert store.load_shard(imposter) is None

    def test_manifest_roundtrip(self, tmp_path):
        store = ShardStore(tmp_path)
        assert store.load_manifest("0" * 16) is None
        store.store_manifest("0" * 16, {"shards": ["a", "b"]})
        assert store.load_manifest("0" * 16)["shards"] == ["a", "b"]


class TestScheduler:
    def test_pool_fallbacks(self):
        assert list_pools() == ["serial", "process"]
        assert CampaignScheduler().resolved_pool() == "serial"
        assert CampaignScheduler(pool="process", workers=1).resolved_pool() == "serial"
        assert CampaignScheduler(pool="serial").resolved_pool() == "serial"
        for unknown in ("bogus", "thread"):
            with pytest.raises(ValueError, match="pool"):
                CampaignScheduler(pool=unknown)

    @pytest.mark.parametrize("pool", list_pools())
    def test_every_pool_bit_identical_to_serial_engine(self, tmp_path, pool):
        reference = serial_reference()
        runner = CampaignRunner(store=tmp_path / pool, pool=pool, workers=2)
        series = runner.submit(make_sweep()).run()
        assert series_digest(series) == series_digest(reference)

    def test_reuse_skips_completed_shards(self, tmp_path):
        runner = CampaignRunner(store=tmp_path, pool="serial")
        first = runner.submit(make_sweep())
        first.run()
        assert first.stats["computed"] == len(first.shards)
        second = runner.submit(make_sweep())
        result = second.run()
        assert second.stats["computed"] == 0
        assert second.stats["reused"] == len(second.shards)
        assert series_digest(result) == series_digest(serial_reference())

    def test_worker_death_exhausts_retry_budget(self, tmp_path):
        import os

        def dying(proc, stream):
            os._exit(23)

        sweep = SweepSpec(
            trial_functions={"d": dying}, fault_rates=(0.1,), trials=1, seed=0
        )
        runner = CampaignRunner(
            store=tmp_path, pool="process", workers=2, max_retries=1
        )
        campaign = runner.submit(sweep)
        if campaign.scheduler.resolved_pool() != "process":
            pytest.skip("no fork support on this platform")
        with pytest.raises(WorkerPoolError, match="retry budget"):
            campaign.run()


class TestCampaign:
    def test_campaign_id_is_deterministic_and_key_sensitive(self, tmp_path):
        runner = CampaignRunner(store=tmp_path)
        base = runner.campaign_id(make_sweep())
        assert base == runner.campaign_id(make_sweep())
        assert len(base) == 16
        assert base != runner.campaign_id(make_sweep(), key={"kernel": "x"})
        assert base != runner.campaign_id(make_sweep(seed=32))

    def test_status_and_result_gate_on_completion(self, tmp_path):
        runner = CampaignRunner(store=tmp_path, pool="serial")
        campaign = runner.submit(make_sweep())
        status = campaign.status()
        assert not status.done
        assert status.shards_completed == 0
        with pytest.raises(IncompleteCampaignError, match="unfinished"):
            campaign.result()
        campaign.run()
        assert campaign.status().done
        # By-id status from the manifest alone, no sweep in hand.
        by_id = campaign_status(tmp_path, campaign.campaign_id)
        assert by_id.done and by_id.shards_total == len(campaign.shards)
        assert campaign_status(tmp_path, "feedfacefeedface") is None

    def test_resume_recomputes_only_missing_shards(self, tmp_path):
        runner = CampaignRunner(store=tmp_path, pool="serial")
        first = runner.submit(make_sweep())
        first.run()
        dropped = first.shards[1].shard_id
        assert first.store.discard_shard(dropped)
        resumed = runner.submit(make_sweep())
        assert resumed.campaign_id == first.campaign_id
        assert resumed.status().pending == (dropped,)
        series = resumed.run()
        assert resumed.stats["computed"] == 1
        assert resumed.stats["reused"] == len(first.shards) - 1
        assert series_digest(series) == series_digest(serial_reference())

    def test_progress_events_cover_every_point(self, tmp_path):
        events = []
        runner = CampaignRunner(
            store=tmp_path, pool="serial", progress=events.append
        )
        campaign = runner.submit(make_sweep())
        campaign.run()
        sweep = make_sweep()
        assert len(events) == len(sweep.point_keys())
        assert events[-1].sweep_completed == events[-1].sweep_total

    @pytest.mark.parametrize("granularity", ["series", "cell"])
    def test_scenario_grid_merge_matches_serial(self, tmp_path, granularity):
        kwargs = dict(scenarios=("nominal", "low-order-seu"))
        reference = serial_reference(kwargs)
        runner = CampaignRunner(
            store=tmp_path, planner=ShardPlanner(granularity), pool="process",
            workers=2,
        )
        series = runner.submit(make_sweep(**kwargs)).run()
        assert series_digest(series) == series_digest(reference)

    def test_adaptive_merge_matches_serial(self, tmp_path):
        kwargs = dict(
            policy=ConfidenceTarget(half_width=0.5, batch=2, max_trials=6)
        )
        reference = serial_reference(kwargs)
        runner = CampaignRunner(store=tmp_path, pool="process", workers=2)
        campaign = runner.submit(make_sweep(**kwargs))
        series = campaign.run()
        assert series_digest(series) == series_digest(reference)
        # Resume path for adaptive shards: drop one, recompute only it.
        campaign.store.discard_shard(campaign.shards[0].shard_id)
        resumed = runner.submit(make_sweep(**kwargs))
        assert series_digest(resumed.run()) == series_digest(reference)
        assert resumed.stats["computed"] == 1

    def test_run_campaign_wrapper(self, tmp_path):
        sweep = SweepSpec(
            {"a": noisy_metric, "b": noisy_metric},
            fault_rates=(0.0, 0.2),
            trials=2,
            seed=31,
        )
        series = CampaignRunner(store=tmp_path, pool="serial").submit(sweep).run()
        assert series_digest(series) == series_digest(serial_reference())


class TestPrune:
    def seed_artifacts(self, tmp_path, ages):
        import os
        import time

        paths = []
        for i, age in enumerate(ages):
            path = tmp_path / "shards" / f"artifact{i}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps({"i": i, "pad": "x" * 100}))
            stamp = time.time() - age
            os.utime(path, (stamp, stamp))
            paths.append(path)
        return paths

    def test_requires_a_criterion(self, tmp_path):
        with pytest.raises(ValueError, match="max-age"):
            prune_artifacts(tmp_path)

    def test_age_pruning_removes_only_stale(self, tmp_path):
        old, fresh = self.seed_artifacts(tmp_path, [3600.0, 0.0])
        report = prune_artifacts(tmp_path, max_age_seconds=60.0)
        assert report.examined == 2
        assert report.removed == (str(old),)
        assert not old.exists() and fresh.exists()

    def test_size_pruning_drops_oldest_first(self, tmp_path):
        oldest, mid, newest = self.seed_artifacts(
            tmp_path, [300.0, 200.0, 100.0]
        )
        size = newest.stat().st_size
        report = prune_artifacts(tmp_path, max_bytes=2 * size)
        assert report.removed == (str(oldest),)
        assert report.kept == 2
        assert mid.exists() and newest.exists()

    def test_dry_run_touches_nothing(self, tmp_path):
        paths = self.seed_artifacts(tmp_path, [3600.0, 3600.0])
        report = prune_artifacts(tmp_path, max_age_seconds=60.0, dry_run=True)
        assert report.removed_count == 2
        assert all(path.exists() for path in paths)

    def test_orphaned_tmp_files_are_collected(self, tmp_path):
        import os
        import time

        orphan = tmp_path / "shards" / "entry.999.dead.tmp"
        orphan.parent.mkdir(parents=True)
        orphan.write_text("torn write")
        stamp = time.time() - 3600
        os.utime(orphan, (stamp, stamp))
        report = prune_artifacts(tmp_path, max_age_seconds=60.0)
        assert report.removed == (str(orphan),)

    def test_store_prune_method_delegates(self, tmp_path):
        store = ShardStore(tmp_path)
        sweep = make_sweep()
        shard = ShardPlanner().plan(sweep)[0]
        from repro.experiments.executors import SerialExecutor

        store.store_shard(shard, execute_shard(sweep, shard, SerialExecutor()))
        report = store.prune(max_bytes=0)
        assert report.removed_count == 1
        assert store.load_shard(shard) is None


class TestManifestRetention:
    """Pruning must not GC manifests a --status query still needs.

    Regression: ``prune_cache.py`` used to collect campaign manifests along
    with shard artifacts, so ``run_campaign.py --status`` on a pruned store
    answered "unknown campaign" (exit 2) instead of reporting the shards as
    pending and recomputable.
    """

    def completed_campaign(self, tmp_path):
        runner = CampaignRunner(store=tmp_path, pool="serial")
        campaign = runner.submit(make_sweep())
        campaign.run()
        return campaign

    def test_prune_keeps_manifests_by_default(self, tmp_path):
        campaign = self.completed_campaign(tmp_path)
        report = prune_artifacts(tmp_path, max_bytes=0)
        status = campaign_status(tmp_path, campaign.campaign_id)
        assert status is not None, "manifest must survive a default prune"
        assert status.shards_completed == 0
        assert len(status.pending) == status.shards_total > 0
        assert not status.done
        manifest_paths = [str(p) for p in report.removed if "campaigns" in p]
        assert manifest_paths == []

    def test_pruned_shards_are_recomputable_after_status(self, tmp_path):
        campaign = self.completed_campaign(tmp_path)
        prune_artifacts(tmp_path, max_bytes=0)
        resumed = CampaignRunner(store=tmp_path, pool="serial").submit(
            make_sweep()
        )
        assert resumed.campaign_id == campaign.campaign_id
        series = resumed.run()
        assert resumed.stats["computed"] == len(resumed.shards)
        assert series_digest(series) == series_digest(serial_reference())

    def test_search_manifests_survive_too(self, tmp_path):
        store = ShardStore(tmp_path)
        store.store_search("feedc0de", {"driver": "bisect", "shards": []})
        prune_artifacts(tmp_path, max_bytes=0)
        assert store.load_search("feedc0de") is not None

    def test_opting_out_removes_manifests(self, tmp_path):
        campaign = self.completed_campaign(tmp_path)
        prune_artifacts(tmp_path, max_bytes=0, keep_manifests=False)
        assert campaign_status(tmp_path, campaign.campaign_id) is None

    def test_kept_manifests_do_not_count_toward_size_budget(self, tmp_path):
        self.completed_campaign(tmp_path)
        shard_bytes = sum(
            path.stat().st_size
            for path in (tmp_path / "shards").glob("*.json")
        )
        # A budget that exactly fits the shards only holds because exempt
        # manifests are left out of the size accounting.
        report = prune_artifacts(tmp_path, max_bytes=shard_bytes)
        assert report.removed_count == 0
        assert report.kept_bytes == shard_bytes


#: A batchable trial (``repro.experiments.kernels.batchable``), so the
#: vectorized executor runs each (series, scenario) unit as one tensor cell.
SUM_TRIAL = make_noisy_sum_trial(n=16, ops_per_element=2)

#: Points of one unit stop after different rounds (2, 4 or 6 trials), some
#: early and some at the cap.
GROUPED_POLICY = ConfidenceTarget(half_width=1.0, batch=2, max_trials=6, metric="mean")


def grouped_sweep(**kwargs):
    defaults = dict(
        trial_functions={"a": SUM_TRIAL, "b": SUM_TRIAL},
        fault_rates=(0.0, 0.01, 0.05, 0.2),
        trials=3,
        seed=37,
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


def unit_of(point):
    series_index, scenario_index, _ = point
    return series_index, scenario_index


class TestGroupedSerialPool:
    """The serial pool runs a unit's pending ``cell`` shards as one batch.

    A unit is a (series, scenario) group of ``SweepSpec.point_groups``; its
    pending shards go through one engine call and publish one by one.
    """

    @pytest.fixture
    def tensor_calls(self, monkeypatch):
        """The grid points of every ``run_tensor_cell`` call, in call order."""
        calls = []

        def counting(sweep, specs):
            calls.append(list(dict.fromkeys(
                (s.series_index, s.scenario_index, s.rate_index) for s in specs
            )))
            return run_tensor_cell(sweep, specs)

        monkeypatch.setattr(executors, "run_tensor_cell", counting)
        return calls

    def runner(self, tmp_path):
        return CampaignRunner(
            store=tmp_path, planner=ShardPlanner("cell"), pool="serial"
        )

    @pytest.mark.parametrize("policy", [None, GROUPED_POLICY], ids=["fixed", "adaptive"])
    @pytest.mark.parametrize(
        "scenarios", [None, ("nominal", "low-order-seu")], ids=["plain", "scenarios"]
    )
    def test_cell_campaign_matches_serial_engine(
        self, tmp_path, tensor_calls, policy, scenarios
    ):
        kwargs = dict(policy=policy, scenarios=scenarios)
        reference = ExperimentEngine("serial").run_sweep(grouped_sweep(**kwargs))
        campaign = self.runner(tmp_path).submit(grouped_sweep(**kwargs))
        series = campaign.run()
        assert series_digest(series) == series_digest(reference)
        assert campaign.stats["computed"] == len(campaign.shards)
        assert len(campaign.shards) == len(grouped_sweep(**kwargs).point_keys())
        # Each tensor cell stays inside one unit; a fixed-count unit is one
        # cell, an adaptive one is one cell per round of its longest point.
        assert all(len({unit_of(p) for p in call}) == 1 for call in tensor_calls)
        rounds = Counter()
        for shard in campaign.shards:
            (point,) = shard.points
            (values,) = campaign.store.load_shard(shard).values
            point_rounds = 1 if policy is None else -(-len(values) // policy.batch)
            rounds[unit_of(point)] = max(rounds[unit_of(point)], point_rounds)
        assert Counter(unit_of(call[0]) for call in tensor_calls) == rounds
        if policy is None:
            n_units = len(grouped_sweep(**kwargs).point_groups("series"))
            assert len(tensor_calls) == n_units < len(campaign.shards)

    def test_abort_after_first_publication_keeps_one_artifact(
        self, tmp_path, tensor_calls
    ):
        class Abort(Exception):
            pass

        def abort(shard, result):
            raise Abort(shard.shard_id)

        runner = self.runner(tmp_path)
        killed = runner.submit(grouped_sweep())
        with pytest.raises(Abort):
            killed.run(on_shard=abort)
        assert killed.status().shards_completed == 1
        assert len(list((tmp_path / "shards").glob("*.json"))) == 1
        assert killed.store.has_shard(killed.shards[0])

        del tensor_calls[:]
        resumed = runner.submit(grouped_sweep())
        series = resumed.run()
        assert resumed.stats["reused"] == 1
        assert resumed.stats["computed"] == len(resumed.shards) - 1
        computed = [point for call in tensor_calls for point in call]
        assert computed == [point for shard in resumed.shards[1:] for point in shard.points]
        reference = ExperimentEngine("serial").run_sweep(grouped_sweep())
        assert series_digest(series) == series_digest(reference)

    def test_stored_shard_of_a_unit_runs_only_the_pending_points(
        self, tmp_path, tensor_calls
    ):
        sweep = grouped_sweep()
        runner = self.runner(tmp_path)
        shards = runner.planner.plan(sweep)
        stored = shards[1]  # series "a", second rate: mid-unit
        runner.store.store_shard(
            stored, execute_shard(sweep, stored, get_executor("vectorized"))
        )
        del tensor_calls[:]
        campaign = runner.submit(grouped_sweep())
        series = campaign.run()
        assert campaign.stats["reused"] == 1
        assert campaign.stats["computed"] == len(shards) - 1
        pending_a = [s.points[0] for s in shards if s is not stored and s.points[0][0] == 0]
        pending_b = [s.points[0] for s in shards if s.points[0][0] == 1]
        assert tensor_calls == [pending_a, pending_b]
        reference = ExperimentEngine("serial").run_sweep(grouped_sweep())
        assert series_digest(series) == series_digest(reference)
