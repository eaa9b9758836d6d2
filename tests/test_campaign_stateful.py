"""Stateful crash/resume property suite for sharded campaigns.

A :class:`~hypothesis.stateful.RuleBasedStateMachine` plays the adversary a
campaign store must survive: between runs it kills artifacts at random
(dropped shards — the mid-campaign ``kill -9``), tears them (truncated or
garbage writes from a dying process), and re-plans the same campaign from
scratch (the ``--resume`` path).  The invariants the whole tentpole rests
on:

* a resumed campaign recomputes **exactly** the shards whose artifacts were
  lost or torn — completed shards are reused, never re-executed;
* however the store was damaged, the merged result is byte-identical
  (``series_digest``) to the fresh single-process serial run — for
  fixed-count and adaptive sweeps alike;
* no sequence of runs/crashes leaves ``*.tmp`` droppings in the store.
"""

import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.experiments.campaign import CampaignRunner, ShardPlanner, list_pools
from repro.experiments.engine import ExperimentEngine
from repro.experiments.results import series_digest
from repro.experiments.sequential import ConfidenceTarget
from repro.experiments.spec import SweepSpec


def noisy_metric(proc, stream):
    corrupted = proc.corrupt(stream.random(8), ops_per_element=2)
    return float(np.sum(corrupted)) + float(stream.random())


def build_sweep(seed, adaptive, scenarios):
    return SweepSpec(
        trial_functions={"a": noisy_metric, "b": noisy_metric},
        fault_rates=(0.05, 0.2),
        trials=2,
        seed=seed,
        scenarios=scenarios,
        policy=(
            ConfidenceTarget(half_width=0.5, batch=2, max_trials=4)
            if adaptive
            else None
        ),
    )


#: Torn artifacts: truncations, raw garbage, foreign schemas.
tears = st.sampled_from(
    ["", "{", "not json", json.dumps({"schema": 999, "result": {}})]
)


class CampaignCrashResumeMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.directory = Path(tempfile.mkdtemp(prefix="campaign-machine-"))
        self.broken = set()  # shard ids whose artifacts we destroyed

    @initialize(
        seed=st.sampled_from([7, 31]),
        adaptive=st.booleans(),
        scenario_axis=st.booleans(),
        granularity=st.sampled_from(["series", "cell"]),
        pool=st.sampled_from(list_pools()),
    )
    def plan_campaign(self, seed, adaptive, scenario_axis, granularity, pool):
        scenarios = ("nominal", "low-order-seu") if scenario_axis else None
        self.make_sweep = lambda: build_sweep(seed, adaptive, scenarios)
        self.runner = CampaignRunner(
            store=self.directory,
            planner=ShardPlanner(granularity),
            pool=pool,
            workers=2,
        )
        self.reference = series_digest(
            ExperimentEngine("serial").run_sweep(self.make_sweep())
        )
        self.campaign = self.runner.submit(self.make_sweep())
        self.has_run = False

    @rule()
    def run_or_resume(self):
        # Resubmitting the identical workload IS the resume path: only the
        # shards we broke since the last run may be recomputed.
        campaign = self.runner.submit(self.make_sweep())
        assert campaign.campaign_id == self.campaign.campaign_id
        expected_missing = set(campaign.status().pending)
        if self.has_run:
            assert expected_missing == self.broken
        series = campaign.run()
        assert campaign.stats["computed"] == len(expected_missing)
        assert campaign.stats["reused"] == len(campaign.shards) - len(
            expected_missing
        )
        assert series_digest(series) == self.reference
        self.campaign = campaign
        self.broken = set()
        self.has_run = True

    @precondition(lambda self: self.has_run and len(self.broken) < len(self.campaign.shards))
    @rule(data=st.data())
    def crash_drops_an_artifact(self, data):
        intact = [
            s for s in self.campaign.shards if s.shard_id not in self.broken
        ]
        shard = data.draw(st.sampled_from(intact))
        assert self.campaign.store.discard_shard(shard.shard_id)
        self.broken.add(shard.shard_id)

    @precondition(lambda self: self.has_run and len(self.broken) < len(self.campaign.shards))
    @rule(data=st.data(), junk=tears)
    def crash_tears_an_artifact(self, data, junk):
        intact = [
            s for s in self.campaign.shards if s.shard_id not in self.broken
        ]
        shard = data.draw(st.sampled_from(intact))
        self.campaign.store.shard_path(shard.shard_id).write_text(junk)
        self.broken.add(shard.shard_id)

    @invariant()
    def no_tmp_droppings(self):
        assert not list(self.directory.rglob("*.tmp"))

    def teardown(self):
        shutil.rmtree(self.directory, ignore_errors=True)


TestCampaignCrashResume = CampaignCrashResumeMachine.TestCase
TestCampaignCrashResume.settings = settings(
    max_examples=15, stateful_step_count=12, deadline=None
)
