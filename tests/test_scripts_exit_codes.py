"""Exit-code contracts of the CI gate scripts.

CI trusts these scripts to turn red at the right moment:
``scripts/smoke_scenario_grid.py`` (executor bit-identity),
``scripts/check_bench_regression.py`` (perf trajectory),
``scripts/run_campaign.py`` (sharded campaigns: bit-identity, kill+resume),
``scripts/run_search.py`` (search drivers: grid agreement, memoized
resume), and ``scripts/prune_cache.py`` (store retention).  These tests pin the
contract — a regression or mismatch yields a nonzero exit that *names the
offense*, a clean run yields zero, deliberate campaign aborts yield the
distinct code 3 — by driving the scripts' ``main()`` directly (tiny grids
for the real path, monkeypatched sweeps and scratch histories for the
failure injections).
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.experiments import benchhistory as bh
from repro.experiments.results import SeriesResult

REPO_ROOT = Path(__file__).resolve().parents[1]
HISTORY_DIR = REPO_ROOT / "benchmarks" / "history"


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
    """The series layout run_scenario_grid produces, with stub values."""
    return [
        SeriesResult(
            name=f"{series} @ {scenario}",
            fault_rates=[0.05, 0.2],
            values=[[1.0 + salt], [0.5 + salt]],
        )
        for series in functions
        for scenario in scenarios
    ]


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
        calls = {"count": 0}

        def diverging_grid(functions, scenarios, **kwargs):
            calls["count"] += 1
            # Every executor after the serial reference returns different
            # trial values, as a broken batched tier would.
            return fake_grid_series(functions, scenarios, salt=calls["count"])

        monkeypatch.setattr(smoke, "run_scenario_grid", diverging_grid)
        code = smoke.main(["--executor", "batched", "--executor", "vectorized"])
        assert code == 1
        err = capsys.readouterr().err
        assert "batched" in err and "vectorized" in err

    def test_consistent_executors_exit_zero(self, smoke, monkeypatch):
        monkeypatch.setattr(
            smoke,
            "run_scenario_grid",
            lambda functions, scenarios, **kwargs: fake_grid_series(
                functions, scenarios
            ),
        )
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


def seed_history(tmp_path, kernel="sorting", wall=1.0, **overrides):
    record = {
        "schema": bh.SCHEMA_VERSION,
        "kernel": kernel,
        "commit": None,
        "timestamp": "2026-08-07T00:00:00+00:00",
        "generated_by": "tests",
        "params": {"trials": 3, "iterations": 2000},
        "machine": {"source": "test"},
        "wall_seconds": wall,
        "serial_seconds": wall * 4,
        "speedup_vs_serial": 4.0,
        "bit_identical": True,
    }
    record.update(overrides)
    bh.append_record(tmp_path, record)
    return record


class TestCheckBenchRegression:
    def test_backfilled_repo_histories_are_clean(self, gate, capsys):
        # The checked-in seed histories must pass the gate: this is the
        # acceptance bar for shipping the backfill.
        assert HISTORY_DIR.is_dir(), "benchmarks/history backfill is missing"
        code = gate.main(["--history-dir", str(HISTORY_DIR), "--explain"])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_injected_wall_regression_names_kernel(self, gate, tmp_path, capsys):
        seed_history(tmp_path, wall=1.0)
        seed_history(tmp_path, wall=2.0)  # 2x the seed: outside the +25% band
        code = gate.main(
            ["--history-dir", str(tmp_path), "--no-registry-check"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "sorting" in err and "wall" in err

    def test_bit_identity_flip_names_kernel(self, gate, tmp_path, capsys):
        seed_history(tmp_path, kernel="svm")
        seed_history(tmp_path, kernel="svm", bit_identical=False)
        code = gate.main(["--history-dir", str(tmp_path), "--no-registry-check"])
        assert code == 1
        err = capsys.readouterr().err
        assert "svm" in err and "bit" in err

    def test_clean_scratch_history_exits_zero(self, gate, tmp_path):
        seed_history(tmp_path, wall=1.0)
        seed_history(tmp_path, wall=1.1)
        code = gate.main(["--history-dir", str(tmp_path), "--no-registry-check"])
        assert code == 0

    def test_vanished_kernel_fails_against_registry(self, gate, tmp_path, capsys):
        seed_history(tmp_path, kernel="long_gone_kernel")
        code = gate.main(["--history-dir", str(tmp_path)])
        assert code == 1
        assert "long_gone_kernel" in capsys.readouterr().err

    def test_write_baseline_accepts_intentional_change(self, gate, tmp_path):
        seed_history(tmp_path, wall=1.0)
        seed_history(tmp_path, wall=1.0)
        seed_history(tmp_path, wall=3.0)  # intentional slowdown
        assert gate.main(
            ["--history-dir", str(tmp_path), "--no-registry-check"]
        ) == 1
        assert gate.main(
            ["--history-dir", str(tmp_path), "--write-baseline"]
        ) == 0
        assert (tmp_path / bh.BASELINES_FILENAME).is_file()
        seed_history(tmp_path, wall=3.1)
        assert gate.main(
            ["--history-dir", str(tmp_path), "--no-registry-check"]
        ) == 0

    def test_missing_history_dir_is_usage_error(self, gate, tmp_path):
        assert gate.main(["--history-dir", str(tmp_path / "absent")]) == 2

    def test_corrupt_history_is_usage_error(self, gate, tmp_path, capsys):
        path = bh.history_path(tmp_path, "sorting")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text('{"schema": 1, "kernel": "sorting"\n')
        code = gate.main(["--history-dir", str(tmp_path), "--no-registry-check"])
        assert code == 2
        assert "unreadable" in capsys.readouterr().err

    def test_gate_matches_bench_all_append_format(self, gate, tmp_path):
        # A record appended the way bench_all.py does it (via
        # history_record_from_bench) must be gate-readable as-is.
        bench = json.loads((REPO_ROOT / "BENCH_svm.json").read_text())
        record = bh.history_record_from_bench(bench)
        bh.append_record(tmp_path, record)
        code = gate.main(["--history-dir", str(tmp_path), "--no-registry-check"])
        assert code == 0


@pytest.fixture(scope="module")
def campaign_cli():
    return load_script("run_campaign")


def campaign_args(tmp_path, *extra):
    return [
        "--kernel", "sorting", "--iterations", "40",
        "--rates", "0.05", "--trials", "1", "--seed", "11",
        "--pool", "serial", "--store", str(tmp_path / "store"), *extra,
    ]


class TestRunCampaign:
    def test_tiny_campaign_bit_identical_to_serial(self, campaign_cli, tmp_path):
        summary_path = tmp_path / "summary.json"
        code = campaign_cli.main(
            campaign_args(
                tmp_path, "--verify-serial", "--summary", str(summary_path)
            )
        )
        assert code == 0
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
