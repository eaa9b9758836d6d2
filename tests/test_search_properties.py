"""Property suites for the search drivers (satellite of the search PR).

Three layers of evidence for the bisector's contract:

* **Pure decision logic** — on synthetic monotone success curves (step and
  logistic), the final bracket always contains the true crossing, the probe
  count never exceeds the ``2 + ceil(log2(range / tol))`` bound, and the
  probe sequence is a deterministic function of the curve and config.
* **Resume-point invariance** — interrupting a bisection after any prefix
  of computed probes and re-running it yields bit-identical probe values and
  the identical crossing.
* **Stateful crash/resume** — a :class:`RuleBasedStateMachine` in the style
  of ``test_campaign_stateful.py``: between searches it deletes or tears
  probe artifacts at random; every re-run must recompute exactly the damaged
  probes and land on the same crossing as the first run.
"""

import math
import shutil
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.experiments.search import (
    CriticalVoltageBisector,
    ProbeRunner,
    bisect_crossing,
    bisection_probe_bound,
)
from repro.processor.voltage import MIN_VOLTAGE, NOMINAL_VOLTAGE


def fragile_metric(proc, stream):
    """1.0 iff no fault landed — success probability falls with fault rate."""
    data = stream.random(32)
    corrupted = proc.corrupt(data.copy(), ops_per_element=4)
    return float(np.array_equal(corrupted, data))


def make_runner(store, **kwargs):
    defaults = dict(trials=3, seed=11, key={"suite": "search-properties"})
    defaults.update(kwargs)
    return ProbeRunner(store, fragile_metric, "fragile", **defaults)


crossings = st.floats(min_value=0.57, max_value=0.98)
tolerances = st.floats(min_value=0.001, max_value=0.2)


class TestBisectionProperties:
    @given(crossing=crossings, tolerance=tolerances)
    def test_bracket_contains_step_crossing(self, crossing, tolerance):
        result = bisect_crossing(
            lambda v: float(v >= crossing),
            MIN_VOLTAGE, NOMINAL_VOLTAGE, tolerance,
        )
        assert result["status"] == "bracketed"
        assert result["lo"] < crossing <= result["hi"]
        assert result["hi"] - result["lo"] <= tolerance

    @given(crossing=crossings, width=st.floats(0.005, 0.2),
           tolerance=tolerances)
    def test_bracket_contains_logistic_crossing(
        self, crossing, width, tolerance
    ):
        def curve(voltage):
            return 1.0 / (1.0 + math.exp(-(voltage - crossing) / width))

        result = bisect_crossing(
            curve, MIN_VOLTAGE, NOMINAL_VOLTAGE, tolerance
        )
        if result["status"] == "bracketed":
            assert result["lo"] < crossing <= result["hi"]
        else:
            # A wide logistic can clear (or miss) 0.5 at both endpoints;
            # the verdict must then match the endpoint values.
            endpoint = {
                "always-succeeds": curve(MIN_VOLTAGE) >= 0.5,
                "always-fails": curve(NOMINAL_VOLTAGE) < 0.5,
            }
            assert endpoint[result["status"]]

    @given(crossing=crossings, tolerance=tolerances)
    def test_probe_count_never_exceeds_log_bound(self, crossing, tolerance):
        result = bisect_crossing(
            lambda v: float(v >= crossing),
            MIN_VOLTAGE, NOMINAL_VOLTAGE, tolerance,
        )
        bound = bisection_probe_bound(MIN_VOLTAGE, NOMINAL_VOLTAGE, tolerance)
        assert len(result["probes"]) <= bound

    @given(crossing=crossings, tolerance=tolerances)
    def test_probe_sequence_is_deterministic(self, crossing, tolerance):
        def run():
            return bisect_crossing(
                lambda v: float(v >= crossing),
                MIN_VOLTAGE, NOMINAL_VOLTAGE, tolerance,
            )

        assert run() == run()


class TestPoolAndResumeInvariance:
    @given(interrupt_after=st.integers(min_value=1, max_value=4))
    @settings(max_examples=8, deadline=None)
    def test_any_resume_point_reaches_the_same_crossing(self, interrupt_after):
        class Interrupted(Exception):
            pass

        directory = Path(tempfile.mkdtemp(prefix="search-resume-"))
        try:
            driver = CriticalVoltageBisector(tolerance=0.05)
            reference = driver.run(make_runner(directory / "ref"))

            count = {"computed": 0}

            def interrupt(probe):
                count["computed"] += 1
                if count["computed"] >= interrupt_after:
                    raise Interrupted

            store = directory / "resumed"
            try:
                driver.run(make_runner(store, on_probe=interrupt))
                interrupted = False
            except Interrupted:
                interrupted = True
            resumed_runner = make_runner(store)
            resumed = driver.run(resumed_runner)
            assert resumed.critical_voltage == reference.critical_voltage
            assert [p.values for p in resumed.probes] == [
                p.values for p in reference.probes
            ]
            if interrupted:
                assert resumed_runner.stats["reused"] == interrupt_after
        finally:
            shutil.rmtree(directory, ignore_errors=True)


#: Torn artifacts: truncations, raw garbage, foreign schemas.
tears = st.sampled_from(["", "{", "not json", '{"schema": 999}'])


class SearchCrashResumeMachine(RuleBasedStateMachine):
    """Damage probe artifacts between searches; every re-run must heal."""

    def __init__(self):
        super().__init__()
        self.directory = Path(tempfile.mkdtemp(prefix="search-machine-"))
        self.broken = set()  # shard ids whose artifacts we destroyed

    @initialize(
        seed=st.sampled_from([3, 19]),
        trials=st.sampled_from([2, 3]),
        tolerance=st.sampled_from([0.05, 0.1]),
    )
    def first_search(self, seed, trials, tolerance):
        self.driver = CriticalVoltageBisector(tolerance=tolerance)
        self.make = lambda: make_runner(
            self.directory, seed=seed, trials=trials
        )
        runner = self.make()
        self.reference = self.driver.run(runner)
        self.shard_ids = runner.issued_shard_ids()
        self.store = runner.store

    @rule()
    def rerun_recomputes_exactly_the_damage(self):
        runner = self.make()
        result = self.driver.run(runner)
        assert runner.stats["computed"] == len(self.broken)
        assert runner.stats["reused"] == len(self.shard_ids) - len(self.broken)
        assert result.critical_voltage == self.reference.critical_voltage
        assert [p.values for p in result.probes] == [
            p.values for p in self.reference.probes
        ]
        assert runner.issued_shard_ids() == self.shard_ids
        self.broken = set()

    @precondition(lambda self: len(self.broken) < len(self.shard_ids))
    @rule(data=st.data())
    def crash_drops_a_probe(self, data):
        intact = [s for s in self.shard_ids if s not in self.broken]
        shard_id = data.draw(st.sampled_from(intact))
        assert self.store.discard_shard(shard_id)
        self.broken.add(shard_id)

    @precondition(lambda self: len(self.broken) < len(self.shard_ids))
    @rule(data=st.data(), junk=tears)
    def crash_tears_a_probe(self, data, junk):
        intact = [s for s in self.shard_ids if s not in self.broken]
        shard_id = data.draw(st.sampled_from(intact))
        self.store.shard_path(shard_id).write_text(junk)
        self.broken.add(shard_id)

    @invariant()
    def no_tmp_droppings(self):
        assert not list(self.directory.rglob("*.tmp"))

    def teardown(self):
        shutil.rmtree(self.directory, ignore_errors=True)


TestSearchCrashResume = SearchCrashResumeMachine.TestCase
TestSearchCrashResume.settings = settings(
    max_examples=12, stateful_step_count=10, deadline=None
)
