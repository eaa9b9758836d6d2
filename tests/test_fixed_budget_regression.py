"""Regression pins: fixed-count mode is byte-identical to pre-budget main.

The adaptive budget work must not perturb the default path in any way: a
spec with no policy has to produce the same fingerprints, the same cache
hashes, and the same figure values as the engine did before budgets existed.  The literals below were computed on the
commit immediately before the policy field landed; if any of them moves,
cached results and the perf-trajectory history silently invalidate.
"""

from repro.experiments.cache import spec_hash
from repro.experiments.engine import ExperimentEngine
from repro.experiments.kernels import get_kernel
from repro.experiments.spec import SweepSpec
from repro.experiments.trials import make_noisy_sum_trial

#: Pre-budget fingerprint hash of the single-axis spec below.
SINGLE_AXIS_HASH = (
    "56483863ca828d2e73b7e6626c625435cbd29c523b72a4abbf6f8c1e10b93b35"
)

#: Pre-budget fingerprint hash of the scenario-grid spec below.
GRID_HASH = "080f01cb652309f6e01a258cf8f52be4aa047acfd90cc7eabc91beb86ab46568"


def single_axis_spec():
    fn = make_noisy_sum_trial(n=8, ops_per_element=4)
    return SweepSpec(
        {"Base": fn, "SGD+AS,SQS": fn},
        fault_rates=(0.001, 0.01, 0.1),
        trials=3,
        seed=2010,
    )


def grid_spec():
    fn = make_noisy_sum_trial(n=8, ops_per_element=4)
    return SweepSpec(
        {"Base": fn},
        fault_rates=(0.05, 0.2),
        trials=2,
        seed=2010,
        scenarios=("nominal", "low-order-seu"),
    )


class TestFingerprintPins:
    def test_single_axis_fingerprint_payload_unchanged(self):
        assert single_axis_spec().fingerprint() == {
            "fault_model": "leon3-fpu",
            "fault_rates": [0.001, 0.01, 0.1],
            "seed": 2010,
            "series": ["Base", "SGD+AS,SQS"],
            "trials": 3,
        }

    def test_single_axis_hash_unchanged(self):
        assert spec_hash(single_axis_spec().fingerprint()) == SINGLE_AXIS_HASH

    def test_grid_hash_unchanged(self):
        assert spec_hash(grid_spec().fingerprint()) == GRID_HASH


class TestFigureValuePins:
    """Figure values computed before the budget work — must never move."""

    def test_single_axis_sweep_values_unchanged(self):
        fns = get_kernel("sorting").sweep_functions(
            iterations=60, series={"Base": None, "SGD+AS,SQS": "SGD+AS,SQS"}
        )
        series = ExperimentEngine().run_sweep(
            SweepSpec(fns, fault_rates=(0.05, 0.3), trials=2, seed=2010)
        )
        assert [(s.name, s.fault_rates, s.values) for s in series] == [
            ("Base", [0.05, 0.3], [[1.0, 1.0], [0.0, 0.0]]),
            ("SGD+AS,SQS", [0.05, 0.3], [[0.0, 1.0], [0.0, 0.0]]),
        ]
        # Fixed-count mode records no budget columns: payloads stay identical
        # to historical cached figures.
        for s in series:
            assert s.trials_used is None
            assert s.halted_early is None
            assert "trials_used" not in s.to_dict()
            assert "halted_early" not in s.to_dict()

    def test_scenario_grid_values_unchanged(self):
        fns = get_kernel("sorting").sweep_functions(
            iterations=60, series={"Base": None, "SGD+AS,SQS": "SGD+AS,SQS"}
        )
        series = ExperimentEngine().run_sweep(SweepSpec(
            fns,
            fault_rates=(0.05, 0.3),
            trials=2,
            seed=2010,
            scenarios=("nominal", "low-order-seu"),
        ))
        assert [(s.name, s.fault_rates, s.values) for s in series] == [
            ("Base @ nominal", [0.05, 0.3], [[0.0, 1.0], [0.0, 1.0]]),
            ("Base @ low-order-seu", [0.05, 0.3], [[1.0, 1.0], [1.0, 0.0]]),
            ("SGD+AS,SQS @ nominal", [0.05, 0.3], [[0.0, 0.0], [0.0, 0.0]]),
            ("SGD+AS,SQS @ low-order-seu", [0.05, 0.3], [[1.0, 0.0], [0.0, 0.0]]),
        ]
