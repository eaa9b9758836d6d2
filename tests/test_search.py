"""Unit coverage of the search layer: probes, drivers, ids, and reports.

The tentpole contract exercised here: a probe is a content-addressed
single-point campaign, so the shard store doubles as a point-level memo —
re-running a finished search recomputes nothing, concurrent searches dedupe
through a shared store, and a dense verification grid reuses the bisection's
own probes.  Driver decision logic (bisection, frontier tracing, successive
halving) is additionally tested pure, on synthetic curves, with no store at
all.
"""

import math

import pytest

from repro.experiments.cache import spec_hash
from repro.experiments.campaign import ShardStore
from repro.experiments.kernels import (
    WORKLOAD_SEED,
    clear_workload_memo,
    get_kernel,
    workload_memo_stats,
)
from repro.experiments.reporting import format_search_report, save_search_report
from repro.experiments.search import (
    CriticalVoltageBisector,
    ParetoTracer,
    ProbeResult,
    ProbeRunner,
    RecipeRanker,
    bisect_crossing,
    bisection_probe_bound,
    search_id,
    successive_halving,
    trace_frontier,
)
from repro.processor.energy import ENERGY_MODEL


@pytest.fixture(scope="module")
def sorting_functions():
    """A tiny real workload (shared per module — construction is memoized)."""
    return get_kernel("sorting").sweep_functions(iterations=120)


def make_runner(store, functions, series="Base", **kwargs):
    defaults = dict(trials=3, seed=0, key={"kernel": "sorting",
                                           "workload_seed": WORKLOAD_SEED,
                                           "factory": {"iterations": 120}})
    defaults.update(kwargs)
    return ProbeRunner(store, functions[series], series, **defaults)


class TestProbeRunner:
    def test_shard_id_is_stable_and_parameter_sensitive(
        self, tmp_path, sorting_functions
    ):
        runner = make_runner(tmp_path, sorting_functions)
        base = runner.shard_id(0.7)
        assert base == runner.shard_id(0.7), "same probe, same address"
        assert base == make_runner(tmp_path, sorting_functions).shard_id(0.7)
        assert base != runner.shard_id(0.71), "voltage is in the address"
        assert base != runner.shard_id(0.7, trials=4)
        assert base != make_runner(
            tmp_path, sorting_functions, seed=1
        ).shard_id(0.7)
        assert base != make_runner(
            tmp_path, sorting_functions, series="SGD"
        ).shard_id(0.7)

    def test_second_run_is_a_memo_hit_with_identical_values(
        self, tmp_path, sorting_functions
    ):
        runner = make_runner(tmp_path, sorting_functions)
        first = runner.run(0.7)
        second = runner.run(0.7)
        assert not first.reused and second.reused
        assert second.values == first.values
        assert runner.stats["computed"] == 1
        assert runner.stats["reused"] == 1
        assert runner.stats["trials_executed"] == first.trials

    def test_concurrent_runners_dedupe_through_shared_store(
        self, tmp_path, sorting_functions
    ):
        first = make_runner(tmp_path, sorting_functions)
        answered = first.run(0.66)
        second = make_runner(tmp_path, sorting_functions)
        reused = second.run(0.66)
        assert reused.reused
        assert reused.values == answered.values
        assert second.stats["computed"] == 0

    def test_on_probe_fires_only_for_computed_probes(
        self, tmp_path, sorting_functions
    ):
        seen = []
        runner = make_runner(
            tmp_path, sorting_functions, on_probe=seen.append
        )
        runner.run(0.7)
        runner.run(0.7)
        assert len(seen) == 1 and seen[0].voltage == 0.7

    def test_probe_result_summaries(self):
        probe = ProbeResult(0.7, "x", (1.0, 0.0, 1.0, 0.6), reused=False)
        assert probe.trials == 4
        assert probe.success_rate == 0.75
        assert probe.mean == pytest.approx(0.65)
        empty = ProbeResult(0.7, "x", (), reused=False)
        assert math.isnan(empty.success_rate) and math.isnan(empty.mean)

    def test_fingerprint_is_voltage_free_but_config_sensitive(
        self, tmp_path, sorting_functions
    ):
        runner = make_runner(tmp_path, sorting_functions)
        fingerprint = runner.fingerprint()
        assert "scenarios" not in fingerprint["sweep"]
        other = make_runner(tmp_path, sorting_functions, trials=5)
        assert other.fingerprint() != fingerprint


class TestBisectCrossing:
    def test_bracket_contains_step_crossing(self):
        result = bisect_crossing(lambda v: float(v >= 0.8), 0.55, 1.0, 0.01)
        assert result["status"] == "bracketed"
        assert result["lo"] < 0.8 <= result["hi"]
        assert result["hi"] - result["lo"] <= 0.01

    def test_degenerate_curves_report_status(self):
        assert bisect_crossing(
            lambda v: 1.0, 0.55, 1.0, 0.01
        )["status"] == "always-succeeds"
        assert bisect_crossing(
            lambda v: 0.0, 0.55, 1.0, 0.01
        )["status"] == "always-fails"

    def test_probe_count_meets_log_bound(self):
        result = bisect_crossing(lambda v: float(v >= 0.8), 0.55, 1.0, 0.001)
        assert len(result["probes"]) <= bisection_probe_bound(0.55, 1.0, 0.001)

    def test_invalid_arguments_raise(self):
        with pytest.raises(ValueError, match="v_low < v_high"):
            bisect_crossing(lambda v: v, 1.0, 0.55, 0.01)
        with pytest.raises(ValueError, match="tolerance"):
            bisect_crossing(lambda v: v, 0.55, 1.0, 0.0)


class TestCriticalVoltageBisector:
    def test_bisection_agrees_with_dense_grid(self, tmp_path, sorting_functions):
        driver = CriticalVoltageBisector(tolerance=0.02)
        runner = make_runner(tmp_path, sorting_functions)
        result = driver.run(runner)
        assert result.status == "bracketed"
        assert len(result.probes) <= driver.probe_bound()
        verdict = driver.verify_against_grid(runner, result)
        assert verdict["within_tolerance"]
        assert len(result.probes) < verdict["grid_points"] / 3

    def test_completed_search_recomputes_zero_probes(
        self, tmp_path, sorting_functions
    ):
        driver = CriticalVoltageBisector(tolerance=0.02)
        first = driver.run(make_runner(tmp_path, sorting_functions))
        rerun_runner = make_runner(tmp_path, sorting_functions)
        rerun = driver.run(rerun_runner)
        assert rerun_runner.stats["computed"] == 0
        assert rerun.critical_voltage == first.critical_voltage
        assert [p.values for p in rerun.probes] == [
            p.values for p in first.probes
        ]

    def test_payload_round_trips_into_report(self, tmp_path, sorting_functions):
        driver = CriticalVoltageBisector(tolerance=0.05)
        result = driver.run(make_runner(tmp_path, sorting_functions))
        report = format_search_report({
            "search": "cafe", "driver": "bisect",
            "results": [result.to_payload()],
        })
        assert "Base" in report and "critical V" in report


class TestTraceFrontier:
    def test_plateaus_are_never_subdivided(self):
        calls = []

        def probe(voltage):
            calls.append(voltage)
            return float(voltage >= 0.8)

        samples = trace_frontier(probe, 0.55, 1.0, min_segment=0.05)
        # A dense 0.05-grid would be ~10 points; the flat regions collapse.
        assert len(calls) < 10
        voltages = [v for v, _ in samples]
        assert voltages == sorted(voltages)
        # The transition is localized to one min_segment-wide gap.
        crossing_gaps = [
            (lo, hi)
            for (lo, a), (hi, b) in zip(samples, samples[1:])
            if a != b
        ]
        assert all(hi - lo <= 0.05 for lo, hi in crossing_gaps)

    def test_max_probes_caps_refinement(self):
        samples = trace_frontier(
            lambda v: v, 0.0, 1.0, min_segment=1e-6, max_probes=9
        )
        assert len(samples) <= 9

    def test_pareto_frontier_is_monotone(self, tmp_path, sorting_functions):
        driver = ParetoTracer(min_segment=0.05, max_probes=16)
        outcome = driver.run(make_runner(tmp_path, sorting_functions))
        frontier = outcome["frontier"]
        accuracies = [point["accuracy"] for point in frontier]
        energies = [point["energy"] for point in frontier]
        assert accuracies == sorted(accuracies)
        assert all(a < b for a, b in zip(accuracies, accuracies[1:]))
        assert energies == sorted(energies)
        assert outcome["probe_count"] <= 16
        assert all(
            point["energy"] == ENERGY_MODEL.energy(1.0, point["voltage"])
            for point in outcome["points"]
        )

    def test_pareto_fingerprint_is_pinned(self):
        """One FLOP under the one energy model: no knobs, and search ids stay put."""
        assert spec_hash(ParetoTracer().fingerprint())[:16] == "a165d76c90b8d974"
        assert spec_hash(
            ParetoTracer(min_segment=0.05, max_probes=16).fingerprint()
        )[:16] == "d4d530427c233b7a"
        for removed in ("flops", "voltage_exponent"):
            with pytest.raises(TypeError):
                ParetoTracer(**{removed: 1.0})


class TestSuccessiveHalving:
    SCORES = {"a": 0.9, "b": 0.5, "c": 0.7, "d": 0.2}

    def test_race_halves_field_and_doubles_budget(self):
        budgets = []

        def score(name, budget):
            budgets.append((name, budget))
            return self.SCORES[name]

        race = successive_halving(["d", "c", "b", "a"], score, 2, 3)
        assert race["winner"] == "a"
        assert race["ranking"] == ["a", "c", "b", "d"]
        assert [r["budget"] for r in race["rungs"]] == [2, 4]
        assert race["rungs"][0]["pruned"] == ["b", "d"]
        # Losers never see the doubled budget.
        assert ("d", 4) not in budgets and ("b", 4) not in budgets

    def test_ties_break_deterministically_by_name(self):
        race = successive_halving(["y", "x"], lambda n, b: 0.5, 1, 2)
        assert race["winner"] == "x"

    def test_duplicate_entrants_raise(self):
        with pytest.raises(ValueError, match="unique"):
            successive_halving(["a", "a"], lambda n, b: 0.5, 1, 1)

    def test_recipe_race_memoizes_per_budget(self, tmp_path, sorting_functions):
        driver = RecipeRanker(voltage=0.66, base_trials=2, rungs=2)
        runners = {
            name: make_runner(tmp_path, sorting_functions, series=name)
            for name in ("Base", "SGD")
        }
        race = driver.run_race(runners)
        assert sorted(race["ranking"]) == ["Base", "SGD"]
        assert any(r.stats["computed"] > 0 for r in runners.values())
        # Different rungs run different trial counts, so every (entrant,
        # budget) pair is its own memo entry — a rerun recomputes none.
        rerun_runners = {
            name: make_runner(tmp_path, sorting_functions, series=name)
            for name in ("Base", "SGD")
        }
        rerun = driver.run_race(rerun_runners)
        assert rerun["ranking"] == race["ranking"]
        assert all(r.stats["computed"] == 0 for r in rerun_runners.values())


class TestSearchIdsAndManifests:
    def test_search_id_is_stable_and_config_sensitive(
        self, tmp_path, sorting_functions
    ):
        driver = CriticalVoltageBisector(tolerance=0.02)
        runners = {"Base": make_runner(tmp_path, sorting_functions)}
        sid = search_id(driver, runners)
        assert sid == search_id(
            driver, {"Base": make_runner(tmp_path, sorting_functions)}
        )
        assert sid != search_id(
            CriticalVoltageBisector(tolerance=0.01), runners
        )
        assert sid != search_id(driver, runners, key={"campaign": "x"})
        assert sid != search_id(
            driver,
            {"Base": make_runner(tmp_path, sorting_functions, trials=5)},
        )

    def test_search_manifest_round_trip(self, tmp_path):
        store = ShardStore(tmp_path)
        path = store.store_search("abc123", {"driver": "bisect",
                                             "shards": ["s1", "s2"]})
        assert path.parent.name == "searches"
        manifest = store.load_search("abc123")
        assert manifest["shards"] == ["s1", "s2"]
        assert store.load_search("zzz") is None

    def test_manifest_id_mismatch_is_a_miss(self, tmp_path):
        store = ShardStore(tmp_path)
        store.store_search("abc123", {"driver": "bisect"})
        store.search_path("other").write_text(
            store.search_path("abc123").read_text()
        )
        assert store.load_search("other") is None


class TestSearchReports:
    def test_rank_report_orders_by_ranking(self):
        summary = {
            "search": "beef", "driver": "rank", "kernel": "sorting",
            "race": {
                "ranking": ["SGD", "Base"],
                "rungs": [{"rung": 0, "budget": 2,
                           "scores": {"SGD": 1.0, "Base": 0.5},
                           "pruned": ["Base"]}],
            },
            "stats": {"probes": 2, "computed": 2, "reused": 0,
                      "trials_executed": 4},
        }
        report = format_search_report(summary)
        lines = report.splitlines()
        assert lines[0].startswith("search beef")
        assert lines.index(
            next(l for l in lines if "SGD" in l)
        ) < lines.index(next(l for l in lines if "Base" in l))
        assert "2 computed" in lines[-1]

    def test_pareto_report_lists_frontier_points(self):
        summary = {
            "search": "f00d", "driver": "pareto",
            "results": [{"series": "Base", "frontier": [
                {"voltage": 0.7, "accuracy": 1.0, "energy": 0.49,
                 "energy_savings": 0.51},
            ]}],
        }
        assert "0.4900" in format_search_report(summary)

    def test_unknown_driver_raises(self):
        with pytest.raises(ValueError, match="unknown search driver"):
            format_search_report({"driver": "anneal"})

    def test_save_search_report_writes_file(self, tmp_path):
        path = save_search_report(
            {"search": "aa", "driver": "bisect", "results": []},
            tmp_path / "deep" / "report.txt",
        )
        assert path.read_text().startswith("search aa")


class TestWorkloadMemo:
    def test_repeat_builds_hit_the_memo(self):
        clear_workload_memo()
        kernel = get_kernel("sorting")
        first = kernel.sweep_functions(iterations=64)
        again = kernel.sweep_functions(iterations=64)
        other = kernel.sweep_functions(iterations=65)
        assert workload_memo_stats() == {"hits": 1, "misses": 2}
        assert first is not again and first.keys() == again.keys()
        assert other.keys() == first.keys()

    def test_default_values_resolve_to_one_entry(self):
        clear_workload_memo()
        kernel = get_kernel("sorting")
        kernel.sweep_functions()
        kernel.sweep_functions(iterations=10000)
        kernel.sweep_functions(iterations=10000, array_size=5)
        assert workload_memo_stats() == {"hits": 2, "misses": 1}

    def test_caller_mutations_cannot_poison_the_memo(self):
        clear_workload_memo()
        kernel = get_kernel("sorting")
        functions = kernel.sweep_functions(iterations=64)
        functions.clear()
        assert kernel.sweep_functions(iterations=64)["Base"] is not None

    def test_clear_resets_counters(self):
        clear_workload_memo()
        assert workload_memo_stats() == {"hits": 0, "misses": 0}


class TestPseudoKernelRegistry:
    def test_search_is_a_registered_pseudo_kernel(self):
        import importlib.util
        import sys
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "scripts" / "bench_all.py"
        spec = importlib.util.spec_from_file_location("_bench_all_for_search", path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)

        assert module.PSEUDO_KERNELS == (
            "scenario_grid", "adaptive", "campaign", "search"
        )
