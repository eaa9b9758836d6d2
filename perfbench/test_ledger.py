"""Checks of the benchmark itself.

* The exact-count ledger (simulated FLOPs, injected faults, trials, probes,
  shards, RuntimeWarnings) repeats exactly across runs of one seed.
* A held-out seed, never used to tune the workloads, still matches the
  serial-engine reference.
* Without the program beside it, the benchmark fails instead of reporting.
* The host-speed sampler probes during a timed region and takes the probes'
  time out of it.

Run from the root of the checkout::

    python3 -m pytest perfbench/test_ledger.py -q
"""

from __future__ import annotations

import shutil
import signal
import subprocess
import sys
import time

import bootstrap

bootstrap.prepare()

import pytest  # noqa: E402

import harness  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402

LEDGER_SEED = 1
HELD_OUT_SEED = 97


@pytest.mark.parametrize("name", workloads.names())
def test_ledger_repeats_for_one_seed(name, tmp_path):
    workload = workloads.make(name, LEDGER_SEED, tmp_path)
    traced = harness.traced_runs(workload, seconds=0.0, first_index=0)
    assert len(traced.records) == harness.MIN_TRACED_RUNS
    assert traced.ledger_mismatches() == []
    ledger = traced.ledger()
    assert set(ledger) == set(harness.LEDGER_KEYS)
    assert ledger["processor.sim_flops"] > 0
    assert ledger["executors.trials"] > 0
    reference = workload.reference()
    assert not any(record.failed(reference) for record in traced.records)


@pytest.mark.parametrize("name", workloads.names())
def test_held_out_seed_matches_serial_reference(name, tmp_path):
    workload = workloads.make(name, HELD_OUT_SEED, tmp_path)
    workload.setup()
    record = harness.timed_run(workload, 0)
    assert record.error is None, record.error
    assert record.outcome.checks == []
    assert record.outcome.digest == workload.reference()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(bootstrap.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bootstrap.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workloads.names()[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert '"correct"' not in result.stdout


def test_sampler_takes_its_probes_out_of_the_region():
    handler = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler() as speed:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert len(speed.samples) >= 4
    assert speed.spent > 0
    assert speed.seconds + speed.spent == pytest.approx(0.3, abs=0.0015)
    assert speed.scale > 0
    assert signal.getsignal(signal.SIGALRM) is handler
