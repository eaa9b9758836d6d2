"""Tests for the perf-trajectory subsystem (`repro.experiments.benchhistory`).

Covers the record schema, JSONL append/load round-trips, params/machine
compatibility, the rolling-median baseline, every regression-finding kind
(wall, speedup, bit-identity flip, vanished kernel), tombstones, pinned
baselines, and the BENCH_*.json backfill conversion.  Property tests use
Hypothesis to fuzz record contents and noise levels inside/outside the
bands; the gate must be *exactly* as strict as its policy says.
"""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.experiments import benchhistory as bh

MACHINE = {"source": "test"}


def make_record(
    kernel="sorting",
    wall=2.0,
    speedup=4.0,
    bit_identical=True,
    params=None,
    machine=None,
    timestamp="2026-08-07T00:00:00+00:00",
):
    return {
        "schema": bh.SCHEMA_VERSION,
        "kernel": kernel,
        "commit": "deadbeef",
        "timestamp": timestamp,
        "generated_by": "tests",
        "params": dict(params or {"trials": 3, "iterations": 2000}),
        "machine": dict(machine or MACHINE),
        "wall_seconds": wall,
        "serial_seconds": wall * speedup if speedup is not None else None,
        "speedup_vs_serial": speedup,
        "bit_identical": bit_identical,
    }


class TestSchema:
    def test_valid_record_passes(self):
        bh.validate_record(make_record())

    @pytest.mark.parametrize(
        "mutation",
        [
            {"schema": 999},
            {"kernel": ""},
            {"kernel": None},
            {"params": "not a dict"},
            {"machine": None},
            {"wall_seconds": None},
            {"wall_seconds": -1.0},
            {"wall_seconds": float("nan")},
            {"wall_seconds": True},
            {"speedup_vs_serial": "4.2"},
            {"bit_identical": "yes"},
            {"params": {"bad": float("inf")}},
        ],
    )
    def test_invalid_records_raise(self, mutation):
        record = make_record()
        record.update(mutation)
        with pytest.raises(ValueError):
            bh.validate_record(record)

    def test_machine_fingerprint_is_json_and_stable(self):
        first, second = bh.machine_fingerprint(), bh.machine_fingerprint()
        assert first == second
        json.dumps(first)  # must be strictly serializable

    def test_history_path_rejects_traversal(self):
        with pytest.raises(ValueError):
            bh.history_path("/tmp", "../evil")
        with pytest.raises(ValueError):
            bh.history_path("/tmp", ".hidden")


class TestHistoryIO:
    def test_append_and_load_round_trip(self, tmp_path):
        first = make_record(wall=1.0)
        second = make_record(wall=1.1)
        bh.append_record(tmp_path, first)
        bh.append_record(tmp_path, second)
        records = bh.load_history(tmp_path, "sorting")
        assert records == [first, second]
        assert bh.history_kernels(tmp_path) == ["sorting"]

    def test_append_validates(self, tmp_path):
        with pytest.raises(ValueError):
            bh.append_record(tmp_path, {"kernel": "x"})

    def test_corrupt_line_raises_with_location(self, tmp_path):
        path = bh.append_record(tmp_path, make_record())
        path.write_text(path.read_text() + "{truncated\n")
        with pytest.raises(ValueError, match=r"sorting\.jsonl:2"):
            bh.load_history(tmp_path, "sorting")

    def test_record_for_wrong_kernel_raises(self, tmp_path):
        path = bh.history_path(tmp_path, "sorting")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(make_record(kernel="svm")) + "\n")
        with pytest.raises(ValueError, match="svm"):
            bh.load_history(tmp_path, "sorting")

    def test_blank_lines_ignored(self, tmp_path):
        path = bh.append_record(tmp_path, make_record())
        path.write_text(path.read_text() + "\n\n")
        assert len(bh.load_history(tmp_path, "sorting")) == 1


class TestCompatibility:
    def test_same_params_and_machine_compatible(self):
        assert bh.compatible(make_record(), make_record(wall=9.9))

    def test_different_scale_never_compared(self):
        reduced = make_record(params={"trials": 2, "iterations": 500})
        assert not bh.compatible(reduced, make_record())

    def test_different_machine_incompatible_unless_relaxed(self):
        other = make_record(machine={"source": "elsewhere"})
        assert not bh.compatible(other, make_record())
        assert bh.compatible(other, make_record(), match_machine=False)

    def test_different_backend_never_compared(self):
        compiled = dict(make_record(), backend="cnative")
        assert not bh.compatible(compiled, make_record())
        assert not bh.compatible(make_record(), compiled)
        # Backend partitioning is absolute — relaxing the machine match
        # must not let a compiled record be judged against numpy.
        assert not bh.compatible(compiled, make_record(), match_machine=False)
        assert bh.compatible(compiled, dict(make_record(wall=9.9), backend="cnative"))

    def test_missing_backend_field_counts_as_numpy(self):
        # Histories predating the backend layer keep their baselines.
        assert bh.backend_key(make_record()) == "numpy"
        explicit = dict(make_record(), backend="numpy")
        assert bh.compatible(explicit, make_record())


class TestBaseline:
    def test_median_absorbs_one_outlier(self):
        records = [make_record(wall=w) for w in (1.0, 1.1, 50.0, 1.2, 0.9)]
        baseline = bh.robust_baseline(records, window=5)
        assert baseline["wall_seconds"] == 1.1

    def test_window_limits_pool(self):
        records = [make_record(wall=w) for w in (100.0, 1.0, 1.0, 1.0)]
        assert bh.robust_baseline(records, window=3)["wall_seconds"] == 1.0

    def test_empty_pool_is_none(self):
        assert bh.robust_baseline([], window=5) is None

    def test_bit_identical_consensus(self):
        records = [make_record(), make_record(bit_identical=None)]
        assert bh.robust_baseline(records)["bit_identical"] is True
        records.append(make_record(bit_identical=False))
        assert bh.robust_baseline(records)["bit_identical"] is False


class TestGate:
    def check(self, records, **policy_kwargs):
        policy = bh.RegressionPolicy(**policy_kwargs)
        return bh.check_kernel("sorting", records, policy)

    def test_clean_history_no_findings(self):
        findings, explanation = self.check(
            [make_record(wall=1.0), make_record(wall=1.1)]
        )
        assert findings == []
        assert explanation["judged"]

    def test_single_record_is_unjudged_not_failed(self):
        findings, explanation = self.check([make_record()])
        assert findings == []
        assert not explanation["judged"]

    def test_two_times_wall_regression_fails(self):
        findings, _ = self.check([make_record(wall=1.0), make_record(wall=2.0)])
        assert [f.kind for f in findings] == ["wall-regression"]
        assert findings[0].kernel == "sorting"

    def test_speedup_regression_fails(self):
        findings, _ = self.check(
            [make_record(speedup=4.0), make_record(speedup=2.0)]
        )
        assert [f.kind for f in findings] == ["speedup-regression"]

    def test_bit_identity_flip_fails_even_without_baseline(self):
        findings, _ = self.check([make_record(bit_identical=False)])
        assert [f.kind for f in findings] == ["bit-identity"]

    def test_incompatible_scale_is_not_judged(self):
        reduced = make_record(
            wall=50.0, params={"trials": 2, "iterations": 500}
        )
        findings, explanation = self.check([make_record(wall=1.0), reduced])
        assert findings == []
        assert not explanation["judged"]

    @given(factor=st.floats(min_value=0.0, max_value=3.0, width=16))
    def test_wall_band_is_exact(self, factor):
        findings, _ = self.check(
            [make_record(wall=1.0), make_record(wall=factor)], wall_band=0.25
        )
        walls = [f for f in findings if f.kind == "wall-regression"]
        assert bool(walls) == (factor > 1.25)

    @given(speedup=st.floats(min_value=0.125, max_value=8.0, width=16))
    def test_speedup_band_is_exact(self, speedup):
        findings, _ = self.check(
            [make_record(speedup=4.0), make_record(speedup=speedup)],
            speedup_band=0.15,
        )
        slows = [f for f in findings if f.kind == "speedup-regression"]
        assert bool(slows) == (speedup < 4.0 * (1.0 - 0.15))


class TestHistoriesAndTombstones:
    def test_vanished_kernel_fails_without_tombstone(self, tmp_path):
        bh.append_record(tmp_path, make_record(kernel="retired"))
        findings, _ = bh.check_histories(tmp_path, registry_kernels=["sorting"])
        assert [f.kind for f in findings] == ["vanished"]
        assert findings[0].kernel == "retired"

    def test_tombstone_silences_vanished_kernel(self, tmp_path):
        bh.append_record(tmp_path, make_record(kernel="retired"))
        (tmp_path / bh.TOMBSTONES_FILENAME).write_text(
            "# header comment\nretired  # replaced by sorting_v2\n"
        )
        findings, explanations = bh.check_histories(
            tmp_path, registry_kernels=["sorting"]
        )
        assert findings == []
        assert any(e.get("tombstoned") for e in explanations)
        assert bh.load_tombstones(tmp_path) == {"retired": "replaced by sorting_v2"}

    def test_cnative_append_does_not_hide_numpy_regression(self, tmp_path):
        # Histories interleave backends; each backend's newest line is judged.
        for record in (
            make_record(wall=1.0),
            dict(make_record(wall=0.5), backend="cnative"),
            make_record(wall=1.5),
            dict(make_record(wall=0.5), backend="cnative"),
        ):
            bh.append_record(tmp_path, record)
        findings, explanations = bh.check_histories(tmp_path, None)
        assert [f.kind for f in findings] == ["wall-regression"]
        assert [e["latest"]["backend"] for e in explanations] == ["numpy", "cnative"]
        assert all(e["judged"] for e in explanations)

    def test_kernel_subset_selection(self, tmp_path):
        bh.append_record(tmp_path, make_record(kernel="a", bit_identical=False))
        bh.append_record(tmp_path, make_record(kernel="b"))
        findings, _ = bh.check_histories(tmp_path, None, kernels=["b"])
        assert findings == []
        findings, _ = bh.check_histories(tmp_path, None, kernels=["a"])
        assert [f.kind for f in findings] == ["bit-identity"]


class TestPinnedBaselines:
    def test_write_and_load_round_trip(self, tmp_path):
        bh.append_record(tmp_path, make_record(wall=1.0))
        path = bh.write_baselines(tmp_path)
        assert path.name == bh.BASELINES_FILENAME
        assert bh.load_baselines(tmp_path)["sorting"]["wall_seconds"] == 1.0

    def test_pinned_baseline_overrides_median(self, tmp_path):
        # History median says ~1s; pinning the (intentionally slower) latest
        # record must make a 4s follow-up acceptable.
        for wall in (1.0, 1.0, 4.0):
            bh.append_record(tmp_path, make_record(wall=wall))
        bh.write_baselines(tmp_path)
        bh.append_record(tmp_path, make_record(wall=4.2))
        findings, explanations = bh.check_histories(tmp_path, None)
        assert findings == []
        assert explanations[0]["baseline_source"] == "pinned"

    def test_without_pin_the_median_flags_the_jump(self, tmp_path):
        for wall in (1.0, 1.0, 4.0):
            bh.append_record(tmp_path, make_record(wall=wall))
        findings, _ = bh.check_histories(tmp_path, None)
        assert [f.kind for f in findings] == ["wall-regression"]


class TestBackfillConversion:
    def test_bench_record_round_trip(self):
        bench = {
            "kernel": "sorting",
            "commit": "abc",
            "timestamp": "2026-07-29T17:44:32+00:00",
            "params": {"iterations": 2000, "trials": 3},
            "sweep": True,
            "batched": True,
            "wall_seconds": 6.48,
            "serial_seconds": 27.49,
            "speedup_vs_serial": 4.24,
            "bit_identical_to_serial": True,
        }
        record = bh.history_record_from_bench(bench, machine=MACHINE)
        assert record["bit_identical"] is True
        assert record["machine"] == MACHINE
        bh.validate_record(record)

    def test_scenario_grid_extras_survive(self):
        bench = {
            "kernel": "scenario_grid",
            "timestamp": "t",
            "params": {},
            "wall_seconds": 9.2,
            "batched_seconds": 20.4,
            "batched_speedup_vs_serial": 1.96,
            "bit_identical_to_serial": True,
        }
        record = bh.history_record_from_bench(bench, machine=MACHINE)
        assert record["batched_seconds"] == 20.4
        bh.validate_record(record)

    def test_default_machine_is_current_host(self):
        bench = {"kernel": "k", "timestamp": "t", "params": {},
                 "wall_seconds": 1.0}
        record = bh.history_record_from_bench(bench)
        assert record["machine"] == bh.machine_fingerprint()

    def test_backend_extras_survive(self):
        bench = {
            "kernel": "iir",
            "timestamp": "t",
            "params": {"iterations": 200, "trials": 3},
            "wall_seconds": 0.9,
            "backend": "cnative",
            "backend_version": "cffi-2.0.0",
            "warmup_seconds": 1.5,
            "numpy_seconds": 3.1,
            "speedup_vs_numpy": 3.4,
            "bit_identical_to_numpy": True,
        }
        record = bh.history_record_from_bench(bench, machine=MACHINE)
        for field in (
            "backend", "backend_version", "warmup_seconds",
            "numpy_seconds", "speedup_vs_numpy", "bit_identical_to_numpy",
        ):
            assert record[field] == bench[field]
        bh.validate_record(record)
        assert bh.backend_key(record) == "cnative"
        numpy_twin = bh.history_record_from_bench(
            {"kernel": "iir", "timestamp": "t",
             "params": {"iterations": 200, "trials": 3}, "wall_seconds": 3.1},
            machine=MACHINE,
        )
        assert not bh.compatible(record, numpy_twin)
