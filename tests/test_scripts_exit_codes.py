"""Exit-code contracts of the CI gate scripts.

CI trusts these scripts to turn red at the right moment:
``scripts/smoke_scenario_grid.py`` (executor bit-identity),
``scripts/check_bench_regression.py`` (same-host bench A/B),
``scripts/run_campaign.py`` (sharded campaigns: bit-identity, kill+resume),
``scripts/run_search.py`` (search drivers: grid agreement, memoized
resume), and ``scripts/prune_cache.py`` (store retention).  These tests pin the
contract — a regression or mismatch yields a nonzero exit that *names the
offense*, a clean run yields zero, deliberate campaign aborts yield the
distinct code 3 — by driving the scripts' ``main()`` directly (tiny grids
for the real path, monkeypatched sweeps and fabricated record directories
for the failure injections).
"""

import importlib.util
import itertools
import json
import sys
from pathlib import Path

import pytest

from repro.experiments.cache import ResultCache, spec_hash
from repro.experiments.campaign import ShardPlanner, ShardStore
from repro.experiments.results import SeriesResult
from repro.experiments.spec import SweepSpec

REPO_ROOT = Path(__file__).resolve().parents[1]


def load_script(name: str):
    """Import a scripts/*.py module under a test-private module name."""
    path = REPO_ROOT / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_script_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def smoke():
    return load_script("smoke_scenario_grid")


@pytest.fixture(scope="module")
def gate():
    return load_script("check_bench_regression")


def fake_grid_series(functions, scenarios, salt=0.0):
    """The series layout a scenario-grid sweep produces, with stub values."""
    return [
        SeriesResult(
            name=f"{series} @ {scenario}",
            fault_rates=[0.05, 0.2],
            values=[[1.0 + salt], [0.5 + salt]],
        )
        for series in functions
        for scenario in scenarios
    ]


def fake_engine(salts):
    """An ``ExperimentEngine`` stand-in: each sweep gets the next of ``salts``."""

    class FakeEngine:
        def __init__(self, executor):
            pass

        def run_sweep(self, sweep):
            scenarios = [scenario.name for scenario in sweep.scenarios]
            return fake_grid_series(sweep.trial_functions, scenarios, next(salts))

    return FakeEngine


class TestSmokeScenarioGrid:
    def test_tiny_real_grid_exits_zero(self, smoke):
        # The real path at toy scale: serial vs batched vs vectorized on a
        # 2-scenario x 2-rate sorting grid with a tiny iteration budget.
        code = smoke.main(
            ["--iterations", "40", "--trials", "1",
             "--executor", "batched", "--executor", "vectorized"]
        )
        assert code == 0

    def test_mismatching_executor_exits_nonzero(self, smoke, monkeypatch, capsys):
        # Every executor after the serial reference returns different trial
        # values, as a broken batched tier would.
        monkeypatch.setattr(smoke, "ExperimentEngine", fake_engine(itertools.count(1)))
        code = smoke.main(["--executor", "batched", "--executor", "vectorized"])
        assert code == 1
        err = capsys.readouterr().err
        assert "batched" in err and "vectorized" in err

    def test_consistent_executors_exit_zero(self, smoke, monkeypatch):
        monkeypatch.setattr(smoke, "ExperimentEngine", fake_engine(itertools.repeat(0.0)))
        code = smoke.main(["--executor", "batched"])
        assert code == 0

    def test_no_comparison_executor_is_usage_error(self, smoke):
        assert smoke.main(["--executor", "serial"]) == 2

    def test_adaptive_budget_smoke_exits_zero(self, smoke):
        # Adaptive mode at toy scale: executor agreement on the confidence
        # target plus the degenerate-twin check against the fixed-count run.
        code = smoke.main(
            ["--iterations", "40", "--trials", "1",
             "--executor", "batched", "--executor", "vectorized",
             "--budget", "adaptive"]
        )
        assert code == 0


@pytest.fixture(scope="module")
def figures():
    path = REPO_ROOT / "examples" / "reproduce_figures.py"
    spec = importlib.util.spec_from_file_location("_script_reproduce_figures", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestReproduceFiguresBudgetFlags:
    def test_adaptive_without_grid_is_usage_error(self, figures, capsys):
        with pytest.raises(SystemExit) as excinfo:
            figures.main(["--budget", "adaptive"])
        assert excinfo.value.code == 2
        assert "--grid" in capsys.readouterr().err

    def test_budget_knobs_without_adaptive_are_usage_errors(self, figures, capsys):
        for flag, value in (
            ("--budget-half-width", "0.05"),
            ("--budget-max-trials", "40"),
            ("--budget-confidence", "0.95"),
        ):
            with pytest.raises(SystemExit) as excinfo:
                figures.main(["--grid", flag, value])
            assert excinfo.value.code == 2
            assert "--budget adaptive" in capsys.readouterr().err

    def test_invalid_half_width_is_usage_error(self, figures, capsys):
        with pytest.raises(SystemExit) as excinfo:
            figures.main(
                ["--grid", "--budget", "adaptive", "--budget-half-width", "-1"]
            )
        assert excinfo.value.code == 2
        capsys.readouterr()


def write_runs(root, side, walls, speedups=None, kernel="sorting", **overrides):
    """A fabricated record in one bench_all output directory per wall time.

    Run ``i`` of a side lives in ``root/<side><i>``, so several kernels can
    be written into the same runs.  Returns the directories.
    """
    paths = []
    for index, wall in enumerate(walls):
        record = {
            "kernel": kernel,
            "params": {"trials": 2, "iterations": 2000},
            "wall_seconds": wall,
            "serial_seconds": wall * 4,
            "speedup_vs_serial": speedups[index] if speedups else 4.0,
            "bit_identical_to_serial": True,
        }
        record.update(overrides)
        path = root / f"{side}{index}"
        path.mkdir(exist_ok=True)
        (path / f"BENCH_{kernel}.json").write_text(json.dumps(record))
        paths.append(str(path))
    return paths


def gate_args(base, change):
    return ["--base", *base, "--change", *change]


@pytest.fixture(scope="module")
def bench_all():
    return load_script("bench_all")


class TestCheckBenchRegression:
    def test_injected_wall_regression_names_kernel(self, gate, tmp_path, capsys):
        base = write_runs(tmp_path, "base", [1.0, 1.1, 0.9])
        change = write_runs(tmp_path, "change", [1.5, 1.65, 1.35])
        assert gate.main(gate_args(base, change)) == 1
        err = capsys.readouterr().err
        assert "sorting" in err and "wall_seconds" in err

    def test_single_slow_run_is_not_a_regression(self, gate, tmp_path):
        # A noisy host: one slow change run, and even a median past the band,
        # do not fail while the two sides' runs overlap.
        base = write_runs(tmp_path, "base", [1.0, 1.1, 0.9])
        change = write_runs(tmp_path, "change", [3.0, 1.0, 1.05])
        assert gate.main(gate_args(base, change)) == 0
        overlapping = write_runs(tmp_path, "slow", [1.3, 1.4, 0.95])
        assert gate.main(gate_args(base, overlapping)) == 0

    def test_slowdown_inside_the_band_passes(self, gate, tmp_path):
        # Every change run is slower, but the median ratio is x1.2.
        base = write_runs(tmp_path, "base", [1.0, 1.0, 1.0])
        change = write_runs(tmp_path, "change", [1.2, 1.2, 1.2])
        assert gate.main(gate_args(base, change)) == 0

    def test_speedup_regression_names_kernel(self, gate, tmp_path, capsys):
        walls = [1.0, 1.0, 1.0]
        base = write_runs(tmp_path, "base", walls, speedups=[4.0, 4.2, 3.9])
        change = write_runs(tmp_path, "change", walls, speedups=[3.3, 3.0, 3.4])
        assert gate.main(gate_args(base, change)) == 1
        err = capsys.readouterr().err
        assert "sorting" in err and "speedup_vs_serial" in err
        # The median is past the band, but one change run is not below
        # every base run: noise, not a regression.
        spread = write_runs(tmp_path, "spread", walls, speedups=[3.0, 3.3, 4.1])
        assert gate.main(gate_args(base, spread)) == 0

    def test_bit_identity_flip_names_kernel(self, gate, tmp_path, capsys):
        base = write_runs(tmp_path, "base", [1.0], kernel="svm")
        for field in ("bit_identical_to_serial", "bit_identical_to_numpy"):
            change = write_runs(
                tmp_path, f"change_{field}", [1.0], kernel="svm", **{field: False}
            )
            assert gate.main(gate_args(base, change)) == 1
            err = capsys.readouterr().err
            assert "svm" in err and field in err

    def test_vanished_record_fails(self, gate, tmp_path, capsys):
        base = write_runs(tmp_path, "base", [1.0, 1.0])
        write_runs(tmp_path, "base", [1.0, 1.0], kernel="svm")
        change = write_runs(tmp_path, "change", [1.0, 1.0], kernel="svm")
        write_runs(tmp_path, "change", [1.0])  # sorting in one change run only
        assert gate.main(gate_args(base, change)) == 1
        err = capsys.readouterr().err
        assert "sorting [vanished]" in err and "svm" not in err

    def test_new_and_changed_params_are_unjudged(self, gate, tmp_path, capsys):
        base = write_runs(tmp_path, "base", [1.0])
        change = write_runs(tmp_path, "change", [9.0], params={"trials": 3})
        write_runs(tmp_path, "change", [9.0], kernel="search")
        assert gate.main(gate_args(base, change)) == 0
        out = capsys.readouterr().out
        assert "sorting: unjudged (params differ)" in out
        assert "search: unjudged (only in the change runs)" in out

    def test_prints_both_medians_and_ratio(self, gate, tmp_path, capsys):
        base = write_runs(tmp_path, "base", [1.0, 2.0, 3.0])
        change = write_runs(tmp_path, "change", [2.0, 2.2, 1.8])
        assert gate.main(gate_args(base, change)) == 0
        out = capsys.readouterr().out
        assert "sorting: wall_seconds 2 -> 2 (x1.000)" in out
        assert "speedup_vs_serial 4 -> 4 (x1.000)" in out

    def test_empty_directory_is_usage_error(self, gate, tmp_path, capsys):
        base = write_runs(tmp_path, "base", [1.0])
        (tmp_path / "empty").mkdir()
        assert gate.main(gate_args(base, [str(tmp_path / "empty")])) == 2
        assert gate.main(gate_args(base, [str(tmp_path / "absent")])) == 2
        assert "no BENCH_*.json" in capsys.readouterr().err

    def test_unreadable_record_is_usage_error(self, gate, tmp_path, capsys):
        base = write_runs(tmp_path, "base", [1.0])
        change = write_runs(tmp_path, "change", [1.0])
        for text in ('{"kernel": "sorting"', "[]",
                     '{"params": {}, "wall_seconds": null}'):
            (Path(change[0]) / "BENCH_sorting.json").write_text(text)
            assert gate.main(gate_args(base, change)) == 2
            assert "unreadable record" in capsys.readouterr().err

    def test_gate_reads_a_real_bench_all_run(self, gate, bench_all, tmp_path, capsys):
        out = tmp_path / "run"
        assert bench_all.main(
            ["--only", "sorting", "--trials", "1", "--scale", "0",
             "--output-dir", str(out)]
        ) == 0
        capsys.readouterr()
        assert gate.main(gate_args([str(out)], [str(out)])) == 0
        # The record is BENCH_sorting[.<backend>].json under the ambient backend.
        printed = capsys.readouterr().out
        assert "  sorting" in printed and ": wall_seconds" in printed

    def test_bench_all_has_no_history_options(self, bench_all):
        options = {
            option
            for action in bench_all.build_parser()._actions
            for option in action.option_strings
        } - {"-h", "--help"}
        assert options == {"--only", "--output-dir", "--trials", "--scale", "--backend"}


@pytest.fixture(scope="module")
def campaign_cli():
    return load_script("run_campaign")


SORTING_40 = ("--kernel", "sorting", "--iterations", "40")


def campaign_args(tmp_path, *extra, kernel=SORTING_40):
    return [
        *kernel,
        "--rates", "0.05", "--trials", "1", "--seed", "11",
        "--pool", "serial", "--store", str(tmp_path / "store"), *extra,
    ]


class TestRunCampaign:
    def test_tiny_campaign_bit_identical_to_serial(self, campaign_cli, tmp_path):
        # cg_least_squares's Cholesky baseline yields inf trial values, which
        # the summary digest must accept like the shard store does.
        for kernel in (SORTING_40, ("--kernel", "cg_least_squares")):
            summary_path = tmp_path / "summary.json"
            code = campaign_cli.main(
                campaign_args(
                    tmp_path, "--verify-serial", "--summary", str(summary_path),
                    kernel=kernel,
                )
            )
            assert code == 0, kernel
            summary = json.loads(summary_path.read_text())
            assert summary["bit_identical_to_serial"] is True
            assert summary["shards_computed"] == summary["shards_total"]

    def test_kill_then_resume_recomputes_only_missing(self, campaign_cli, tmp_path):
        summary_path = tmp_path / "summary.json"
        # Leg 1: deliberate mid-campaign abort — distinct exit code 3,
        # summary records the resumable state.
        code = campaign_cli.main(
            campaign_args(
                tmp_path, "--fail-after", "1", "--summary", str(summary_path)
            )
        )
        assert code == 3
        aborted = json.loads(summary_path.read_text())
        assert aborted["shards_completed"] == 1
        assert aborted["shards_pending"] == aborted["shards_total"] - 1
        # Leg 2: --resume reruns only the unfinished shards.
        code = campaign_cli.main(
            campaign_args(
                tmp_path,
                "--resume", aborted["campaign_id"],
                "--verify-serial", "--summary", str(summary_path),
            )
        )
        assert code == 0
        resumed = json.loads(summary_path.read_text())
        assert resumed["campaign_id"] == aborted["campaign_id"]
        assert resumed["shards_reused"] == 1
        assert (
            resumed["shards_computed"]
            == resumed["shards_total"] - resumed["shards_reused"]
        )
        assert resumed["bit_identical_to_serial"] is True

    def test_resume_id_mismatch_is_usage_error(self, campaign_cli, tmp_path, capsys):
        code = campaign_cli.main(
            campaign_args(tmp_path, "--resume", "feedfacefeedface")
        )
        assert code == 2
        assert "does not match" in capsys.readouterr().err

    def test_status_of_unknown_campaign_is_usage_error(self, campaign_cli, tmp_path):
        code = campaign_cli.main(
            ["--store", str(tmp_path / "store"), "--status", "feedfacefeedface"]
        )
        assert code == 2

    def test_status_after_run_reports_done(self, campaign_cli, tmp_path, capsys):
        summary_path = tmp_path / "summary.json"
        assert campaign_cli.main(
            campaign_args(tmp_path, "--summary", str(summary_path))
        ) == 0
        campaign_id = json.loads(summary_path.read_text())["campaign_id"]
        capsys.readouterr()
        code = campaign_cli.main(
            ["--store", str(tmp_path / "store"), "--status", campaign_id]
        )
        assert code == 0
        status = json.loads(capsys.readouterr().out)
        assert status["done"] is True

    def test_unknown_kernel_is_usage_error(self, campaign_cli, tmp_path, capsys):
        code = campaign_cli.main(
            ["--kernel", "no-such-kernel", "--store", str(tmp_path)]
        )
        assert code == 2
        assert "sorting" in capsys.readouterr().err  # lists the sweep kernels

    def test_unknown_backend_is_usage_error(self, campaign_cli, tmp_path, capsys):
        code = campaign_cli.main(campaign_args(tmp_path, "--backend", "no-such-tier"))
        assert code == 2
        assert "unknown compute backend" in capsys.readouterr().err

    def test_parameter_the_kernel_lacks_is_usage_error(
        self, campaign_cli, tmp_path, capsys
    ):
        code = campaign_cli.main(
            campaign_args(tmp_path, kernel=("--kernel", "cg_least_squares",
                                            "--iterations", "40"))
        )
        assert code == 2
        assert "iterations" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload", ["null", "[1, 2]", "42", '"text"'],
        ids=["null", "list", "number", "string"],
    )
    def test_non_object_store_entries_are_misses(
        self, campaign_cli, search_cli, tmp_path, capsys, payload
    ):
        sweep = SweepSpec({"zero": lambda proc, rng: 0.0}, fault_rates=(0.1,), trials=1)
        shard = ShardPlanner().plan(sweep)[0]
        store = ShardStore(tmp_path / "store")
        cache = ResultCache(tmp_path / "cache")
        key = {"figure": "junk"}
        for path in (
            store.shard_path(shard.shard_id),
            store.manifest_path("feedface"),
            store.search_path("feedface"),
            cache.directory / f"{spec_hash(key)}.json",
        ):
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(payload)
        assert store.load_shard(shard) is None
        assert store.load_manifest("feedface") is None
        assert store.load_search("feedface") is None
        assert cache.load(key) is None
        # The same payload nested where an object belongs is a miss too.
        store.shard_path(shard.shard_id).write_text(
            f'{{"schema": 1, "shard": "{shard.shard_id}", "result": {payload}}}'
        )
        assert store.load_shard(shard) is None
        status = ["--store", str(store.directory), "--status", "feedface"]
        assert campaign_cli.main(status) == 2
        assert search_cli.main(status) == 2
        err = capsys.readouterr().err
        assert "unknown campaign id" in err and "unknown search id" in err


@pytest.fixture(scope="module")
def search_cli():
    return load_script("run_search")


def search_args(tmp_path, *extra):
    return [
        "--driver", "bisect", "--kernel", "sorting", "--iterations", "60",
        "--series", "Base", "--tolerance", "0.05", "--trials", "2",
        "--store", str(tmp_path / "store"), *extra,
    ]


class TestRunSearch:
    def test_tiny_bisection_verifies_against_grid(self, search_cli, tmp_path):
        summary_path = tmp_path / "summary.json"
        # Finer tolerance than the shared defaults: the probes-vs-grid
        # advantage only shows once the matched grid is dense enough
        # (argparse keeps the last --tolerance).
        code = search_cli.main(
            search_args(
                tmp_path, "--tolerance", "0.01",
                "--verify-grid", "--summary", str(summary_path)
            )
        )
        assert code == 0
        summary = json.loads(summary_path.read_text())
        assert summary["verified"] is True
        verdict = summary["verify"][0]
        assert verdict["within_tolerance"] is True
        probes = len(summary["results"][0]["probes"])
        assert probes < verdict["grid_points"] / 3

    def test_rerun_of_complete_search_computes_nothing(
        self, search_cli, tmp_path
    ):
        summary_path = tmp_path / "summary.json"
        assert search_cli.main(
            search_args(tmp_path, "--summary", str(summary_path))
        ) == 0
        first = json.loads(summary_path.read_text())
        assert search_cli.main(
            search_args(
                tmp_path,
                "--resume", first["search"],
                "--summary", str(summary_path),
            )
        ) == 0
        rerun = json.loads(summary_path.read_text())
        assert rerun["search"] == first["search"]
        assert rerun["stats"]["computed"] == 0
        assert rerun["stats"]["reused"] == first["stats"]["probes"]

        def values_only(results):
            return [
                {**entry,
                 "probes": [
                     {k: v for k, v in probe.items() if k != "reused"}
                     for probe in entry["probes"]
                 ]}
                for entry in results
            ]

        assert values_only(rerun["results"]) == values_only(first["results"])
        assert all(
            probe["reused"]
            for entry in rerun["results"] for probe in entry["probes"]
        )

    def test_kill_then_resume_reuses_computed_probes(
        self, search_cli, tmp_path
    ):
        summary_path = tmp_path / "summary.json"
        code = search_cli.main(
            search_args(
                tmp_path, "--fail-after", "2", "--summary", str(summary_path)
            )
        )
        assert code == 3
        aborted = json.loads(summary_path.read_text())
        assert aborted["probes_computed"] == 2
        code = search_cli.main(
            search_args(
                tmp_path,
                "--resume", aborted["search"],
                "--summary", str(summary_path),
            )
        )
        assert code == 0
        resumed = json.loads(summary_path.read_text())
        assert resumed["search"] == aborted["search"]
        assert resumed["stats"]["reused"] >= 2

    def test_resume_id_mismatch_is_usage_error(
        self, search_cli, tmp_path, capsys
    ):
        code = search_cli.main(
            search_args(tmp_path, "--resume", "feedfacefeedface")
        )
        assert code == 2
        assert "does not match" in capsys.readouterr().err

    def test_status_of_unknown_search_is_usage_error(
        self, search_cli, tmp_path
    ):
        code = search_cli.main(
            ["--store", str(tmp_path / "store"), "--status", "feedfacefeedface"]
        )
        assert code == 2

    def test_status_reports_pruned_probes_as_pending(
        self, search_cli, prune_cli, tmp_path, capsys
    ):
        summary_path = tmp_path / "summary.json"
        assert search_cli.main(
            search_args(tmp_path, "--summary", str(summary_path))
        ) == 0
        sid = json.loads(summary_path.read_text())["search"]
        capsys.readouterr()
        assert search_cli.main(
            ["--store", str(tmp_path / "store"), "--status", sid]
        ) == 0
        done = json.loads(capsys.readouterr().out)
        assert done["done"] is True and done["probes_pending"] == 0
        # Prune the shards; the manifest must survive and report pending.
        assert prune_cli.main(
            [str(tmp_path / "store"), "--max-bytes", "0"]
        ) == 0
        capsys.readouterr()
        assert search_cli.main(
            ["--store", str(tmp_path / "store"), "--status", sid]
        ) == 0
        pruned = json.loads(capsys.readouterr().out)
        assert pruned["done"] is False
        assert pruned["probes_pending"] == pruned["probes_recorded"] > 0

    def test_verify_grid_with_wrong_driver_is_usage_error(
        self, search_cli, tmp_path, capsys
    ):
        code = search_cli.main(
            ["--driver", "pareto", "--verify-grid",
             "--store", str(tmp_path / "store")]
        )
        assert code == 2
        assert "--verify-grid" in capsys.readouterr().err

    def test_unknown_kernel_is_usage_error(self, search_cli, tmp_path, capsys):
        code = search_cli.main(
            ["--kernel", "no-such-kernel", "--store", str(tmp_path)]
        )
        assert code == 2
        assert "sorting" in capsys.readouterr().err

    def test_unknown_series_is_usage_error(self, search_cli, tmp_path, capsys):
        code = search_cli.main(
            ["--kernel", "sorting", "--series", "NoSuchSeries",
             "--iterations", "60", "--store", str(tmp_path)]
        )
        assert code == 2
        assert "NoSuchSeries" in capsys.readouterr().err

    def test_unknown_backend_is_usage_error(self, search_cli, tmp_path, capsys):
        code = search_cli.main(search_args(tmp_path, "--backend", "no-such-tier"))
        assert code == 2
        assert "unknown compute backend" in capsys.readouterr().err

    def test_parameter_the_kernel_lacks_is_usage_error(
        self, search_cli, tmp_path, capsys
    ):
        code = search_cli.main(
            ["--kernel", "cg_least_squares", "--iterations", "40",
             "--store", str(tmp_path / "store")]
        )
        assert code == 2
        assert "iterations" in capsys.readouterr().err


@pytest.fixture(scope="module")
def prune_cli():
    return load_script("prune_cache")


class TestPruneCache:
    def test_no_criterion_is_usage_error(self, prune_cli, tmp_path, capsys):
        assert prune_cli.main([str(tmp_path)]) == 2
        assert "--max-age" in capsys.readouterr().err

    def test_age_and_size_suffixes_parse(self, prune_cli):
        assert prune_cli.parse_age("90") == 90.0
        assert prune_cli.parse_age("30m") == 1800.0
        assert prune_cli.parse_age("7d") == 7 * 86400.0
        assert prune_cli.parse_bytes("512k") == 512 * 1024
        assert prune_cli.parse_bytes("2g") == 2 * 1024**3
        with pytest.raises(Exception):
            prune_cli.parse_age("soon")

    def test_dry_run_reports_without_deleting(self, prune_cli, tmp_path, capsys):
        artifact = tmp_path / "entry.json"
        artifact.write_text("{}")
        assert prune_cli.main([str(tmp_path), "--max-bytes", "0", "--dry-run"]) == 0
        assert "would remove 1" in capsys.readouterr().out
        assert artifact.exists()
        assert prune_cli.main([str(tmp_path), "--max-bytes", "0"]) == 0
        assert not artifact.exists()

    def test_prune_manifests_is_opt_in(self, prune_cli, tmp_path):
        manifest = tmp_path / "campaigns" / "cafe.json"
        manifest.parent.mkdir(parents=True)
        manifest.write_text("{}")
        assert prune_cli.main([str(tmp_path), "--max-bytes", "0"]) == 0
        assert manifest.exists(), "manifests survive a default prune"
        assert prune_cli.main(
            [str(tmp_path), "--max-bytes", "0", "--prune-manifests"]
        ) == 0
        assert not manifest.exists()
