"""Tests for the scenario axis: presets, grid expansion, executors, hashing.

Covers the ScenarioGrid contract end to end: scenario resolution (fault
model / dtype / bit-distribution overrides, voltage operating points), the
(series × scenario × rate × trial) expansion and its seeding, bit-identity
of scenario grids across every executor (including grids whose scenarios mix
datapath dtypes), per-trial fault-counter isolation across scenario
sub-batches, and the scenario-aware sweep fingerprints that key the figure
cache.
"""

import warnings

import numpy as np
import pytest

from repro.exceptions import FaultModelError
from repro.experiments.cache import spec_hash
from repro.experiments.engine import ExperimentEngine
from repro.experiments.executors import get_executor
from repro.experiments.kernels import get_kernel
from repro.experiments.scenarios import (
    Scenario,
    get_scenario,
    list_scenarios,
    register_scenario,
    scenario_series_name,
    voltage_scenario,
)
from repro.experiments.spec import SweepSpec
from repro.experiments.trials import make_noisy_sum_trial
from repro.faults.distribution import LowOrderBitDistribution
from repro.processor.voltage import VoltageErrorModel
from tests.strategies import make_grid, noisy_metric


class TestScenarioResolution:
    def test_presets_are_registered(self):
        names = list_scenarios()
        assert len(names) >= 6
        for required in (
            "nominal",
            "measured-bits",
            "low-order-seu",
            "double-precision-64",
            "uniform-64",
            "measured-0.70V",
        ):
            assert required in names

    def test_get_scenario_passthrough_and_lookup(self):
        scenario = get_scenario("nominal")
        assert scenario.name == "nominal"
        assert get_scenario(scenario) is scenario
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("nope")

    def test_register_scenario_rejects_duplicates(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(Scenario(name="nominal"))

    def test_rate_and_voltage_are_mutually_exclusive(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            Scenario(name="bad", fault_rate=0.1, voltage=0.7)

    def test_invalid_pins_rejected(self):
        with pytest.raises(ValueError, match="fault_rate"):
            Scenario(name="bad", fault_rate=1.5)
        with pytest.raises(ValueError, match="voltage"):
            Scenario(name="bad", voltage=-0.1)
        with pytest.raises(ValueError, match="non-empty"):
            Scenario(name="")
        with pytest.raises(FaultModelError, match="family"):
            Scenario(name="bad", bit_distribution="gaussian")

    def test_resolved_model_applies_dtype_override(self):
        scenario = Scenario(name="wide", fault_model="leon3-fpu", dtype="float64")
        model = scenario.resolved_model()
        assert model.dtype == np.dtype(np.float64)
        # The emulated family is re-instantiated at the 64-bit width.
        assert model.bit_distribution.width == 64
        assert type(model.bit_distribution).__name__ == "EmulatedBitDistribution"

    def test_resolved_model_applies_distribution_family(self):
        scenario = Scenario(name="u", fault_model="leon3-fpu", bit_distribution="uniform")
        model = scenario.resolved_model()
        assert type(model.bit_distribution).__name__ == "UniformBitDistribution"
        assert model.bit_distribution.width == 32

    def test_explicit_distribution_width_mismatch_raises(self):
        with pytest.raises(FaultModelError, match="bits"):
            Scenario(
                name="bad",
                fault_model="double-precision",
                bit_distribution=LowOrderBitDistribution(width=32),
            ).resolved_model()

    def test_unmodified_scenario_returns_registry_model(self):
        scenario = get_scenario("nominal")
        assert scenario.resolved_model().name == "leon3-fpu"

    def test_effective_fault_rate(self):
        grid = get_scenario("nominal")
        assert grid.effective_fault_rate(0.2) == 0.2
        pinned = Scenario(name="p", fault_rate=0.05)
        assert pinned.effective_fault_rate(0.2) == 0.05
        at_voltage = voltage_scenario(0.70)
        assert at_voltage.effective_fault_rate(0.2) == pytest.approx(
            VoltageErrorModel().error_rate(0.70)
        )
        assert at_voltage.pinned and pinned.pinned and not grid.pinned


class TestGridExpansion:
    def test_len_and_order(self):
        sweep = make_grid(("nominal", "low-order-seu"))
        specs = sweep.expand()
        assert len(specs) == len(sweep) == 2 * 2 * 2 * 2
        # series-major, then scenario, then rate, then trial
        first = specs[0]
        assert (first.series_name, first.scenario_index, first.rate_index,
                first.trial_index) == ("a", 0, 0, 0)
        assert [s.scenario_name for s in specs[:8]] == (
            ["nominal"] * 4 + ["low-order-seu"] * 4
        )
        assert all(s.series_name == "a" for s in specs[:8])

    def test_scenario_streams_are_independent(self):
        sweep = make_grid(("nominal", "measured-bits"))
        specs = sweep.expand()
        same_cell = [
            s for s in specs
            if (s.series_index, s.rate_index, s.trial_index) == (0, 0, 0)
        ]
        assert len(same_cell) == 2
        draws = [spec.make_stream().random() for spec in same_cell]
        assert draws[0] != draws[1]

    def test_single_axis_seeding_is_unchanged(self):
        """The scenarios=None path must reproduce the historical stream keys."""
        sweep = SweepSpec({"a": noisy_metric}, fault_rates=(0.1,), trials=2, seed=9)
        for spec in sweep.expand():
            assert spec.scenario_index is None
            expected = np.random.default_rng(
                [9, spec.series_index, spec.rate_index, spec.trial_index]
            ).random()
            assert spec.make_stream().random() == expected

    def test_voltage_scenarios_pin_rates_and_processor_voltage(self):
        sweep = make_grid(("measured-0.70V",), fault_rates=(0.0, 0.4))
        rate = VoltageErrorModel().error_rate(0.70)
        scenario = sweep.scenarios[0]
        assert sweep.scenario_rates(scenario) == [pytest.approx(rate)] * 2
        spec = sweep.expand()[0]
        proc = spec.make_processor(spec.make_stream())
        assert proc.fault_rate == pytest.approx(rate)
        assert proc.voltage == pytest.approx(0.70)

    def test_duplicate_scenario_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            make_grid(("nominal", "nominal"))

    def test_empty_scenarios_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            make_grid(())


class TestScenarioGridExecutors:
    """Scenario grids must be bit-identical across every executor."""

    SCENARIOS = ("nominal", "measured-bits", "double-precision-64", "measured-0.70V")

    def batchable_grid(self):
        # double-precision-64 mixes a float64 datapath into the grid, so the
        # batched tiers must keep scenario sub-batches separate.
        return SweepSpec(
            {"noise": make_noisy_sum_trial(n=32, ops_per_element=6)},
            fault_rates=(0.0, 0.1, 0.5),
            trials=3,
            seed=11,
            scenarios=self.SCENARIOS,
        )

    @pytest.fixture(scope="class")
    def reference(self):
        return ExperimentEngine("serial").run_sweep(self.batchable_grid())

    @pytest.mark.parametrize("executor", ["serial", "batched", "vectorized"])
    def test_bit_identical_across_executors(self, executor, reference):
        engine = ExperimentEngine(get_executor(executor))
        result = engine.run_sweep(self.batchable_grid())
        assert [s.values for s in result] == [s.values for s in reference]
        assert [s.name for s in result] == [s.name for s in reference]
        assert [s.fault_rates for s in result] == [s.fault_rates for s in reference]

    def test_series_naming_and_shape(self, reference):
        assert [s.name for s in reference] == [
            scenario_series_name("noise", get_scenario(name))
            for name in self.SCENARIOS
        ]
        for series in reference:
            assert len(series.values) == 3
            assert all(len(cell) == 3 for cell in series.values)

    def test_fault_counters_isolated_per_trial_and_scenario(self):
        """Regression guard: per-trial injector statistics never leak.

        Every trial's processor is constructed fresh from its spec, so the
        fault counter a trial observes reflects that trial's own corruption
        only — under the serial reference and under the scenario-sub-batched
        vectorized tier alike.
        """

        def count_faults(proc, stream):
            assert proc.faults_injected == 0  # fresh injector per trial
            proc.corrupt(stream.random(64), ops_per_element=8)
            return float(proc.faults_injected)

        sweep = lambda: SweepSpec(  # noqa: E731 - tiny local factory
            {"faults": count_faults},
            fault_rates=(0.0, 0.3),
            trials=3,
            seed=5,
            scenarios=("nominal", "low-order-seu"),
        )
        serial = ExperimentEngine("serial").run_sweep(sweep())
        vectorized = ExperimentEngine("vectorized").run_sweep(sweep())
        assert [s.values for s in serial] == [s.values for s in vectorized]
        # Rate-zero cells draw no faults; nonzero-rate cells are per-trial
        # counts, impossible to conflate with an accumulated shared counter.
        for series in serial:
            assert all(value == 0.0 for value in series.values[0])

    def test_injector_spawns_start_with_fresh_counters(self):
        from repro.processor.stochastic import StochasticProcessor

        proc = StochasticProcessor(fault_rate=0.5, rng=0)
        proc.corrupt(np.random.default_rng(0).random(256), ops_per_element=8)
        assert proc.faults_injected > 0
        child = proc.spawn()
        assert child.faults_injected == 0 and child.flops == 0
        grandchild = child.injector.spawn()
        assert grandchild.faults_injected == 0 and grandchild.ops_observed == 0


class TestScenarioFingerprints:
    def test_single_axis_fingerprint_unchanged(self):
        """Existing cache entries must stay valid: no new keys on the old path."""
        sweep = SweepSpec({"a": noisy_metric}, fault_rates=(0.1,), trials=2, seed=9)
        assert sweep.fingerprint() == {
            "series": ["a"],
            "fault_rates": [0.1],
            "trials": 2,
            "seed": 9,
            "fault_model": "leon3-fpu",
        }

    def test_grids_differing_in_one_scenario_field_hash_differently(self):
        base = make_grid(("nominal", "measured-0.70V")).fingerprint()
        variants = [
            make_grid(("nominal", "measured-0.65V")),
            make_grid(("nominal", Scenario(
                name="measured-0.70V", fault_model="leon3-fpu-measured",
                voltage=0.71,
            ))),
            make_grid(("nominal", Scenario(
                name="measured-0.70V", fault_model="leon3-fpu", voltage=0.70,
            ))),
            make_grid(("measured-0.70V", "nominal")),
            make_grid(("nominal",)),
        ]
        hashes = {spec_hash(base)}
        for sweep in variants:
            hashes.add(spec_hash(sweep.fingerprint()))
        assert len(hashes) == 1 + len(variants)

    def test_preset_names_and_explicit_objects_hash_identically(self):
        by_name = make_grid(("low-order-seu", "measured-0.70V"))
        explicit = make_grid((
            Scenario(name="low-order-seu", fault_model="low-order-only"),
            Scenario(
                name="measured-0.70V",
                fault_model="leon3-fpu-measured",
                voltage=0.70,
            ),
        ))
        assert spec_hash(by_name.fingerprint()) == spec_hash(explicit.fingerprint())

    def test_fingerprints_are_strictly_json_hashable(self):
        payload = make_grid(("nominal", "uniform-64", "measured-0.65V")).fingerprint()
        assert len(spec_hash(payload)) == 64

    def test_study_kernel_cache_params_resolve_preset_contents(self):
        """Editing a scenario preset must invalidate cached studies.

        The registered study kernels default their ``scenarios`` / ``voltages``
        parameters to preset names / bare floats; cache keys must expand those
        to full scenario fingerprints (dtype, pmf, pins) so a preset edit
        changes the hash.
        """
        params = get_kernel("sorting_cross_model").cache_params({"trials": 3})
        assert all(
            isinstance(entry, dict) and "pmf" in entry["bit_distribution"]
            for entry in params["scenarios"]
        )
        voltage_params = get_kernel("matching_voltage").cache_params({"trials": 3})
        assert [entry["voltage"] for entry in voltage_params["voltages"]] == [
            0.80, 0.75, 0.70, 0.65, 0.60,
        ]
        assert spec_hash({"params": params})  # strictly JSON-hashable


class TestUniformPresetsRunQuiet:
    """Bit flips anywhere in a word give inf and NaN gradients, not warnings.

    The uniform presets flip exponent bits, so the penalized-LP gradients
    meet ``inf - inf``, ``0 * inf`` and overflow.  Those values are the fault
    model, and the serial and batched gradients run under
    :func:`~repro.faults.vectorized.quiet`, as do Figure 6.6's whole CG,
    Jacobi SVD and QR solves and its least-squares scoring.
    """

    @pytest.mark.parametrize("engine", ["serial", "vectorized"])
    @pytest.mark.parametrize("kernel", ["matching", "maxflow"])
    def test_lp_kernel_raises_no_runtime_warning(self, kernel, engine):
        functions = get_kernel(kernel).sweep_functions(iterations=50)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            series = ExperimentEngine(engine).run_sweep(SweepSpec(
                functions, fault_rates=(0.1, 0.5), trials=2,
                scenarios=("uniform-32", "uniform-64"),
            ))
        assert all(len(s.values) == 2 for s in series)

    @pytest.mark.parametrize("engine", ["serial", "vectorized"])
    def test_cg_least_squares_raises_no_runtime_warning(self, engine):
        functions = get_kernel("cg_least_squares").sweep_functions()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            series = ExperimentEngine(engine).run_sweep(SweepSpec(
                functions, fault_rates=(0.1, 0.5), trials=2,
                scenarios=("uniform-32", "uniform-64"),
            ))
        assert all(len(s.values) == 2 for s in series)


class TestScenarioGridEntryPoints:
    def test_scenario_grid_shapes(self):
        functions = get_kernel("sorting").sweep_functions(
            iterations=100, series={"Base": None, "SGD+AS,SQS": "SGD+AS,SQS"}
        )
        series = ExperimentEngine().run_sweep(SweepSpec(
            functions, fault_rates=(0.1,), trials=2, seed=3,
            scenarios=("nominal", "low-order-seu"),
        ))
        assert [s.name for s in series] == [
            "Base @ nominal",
            "Base @ low-order-seu",
            "SGD+AS,SQS @ nominal",
            "SGD+AS,SQS @ low-order-seu",
        ]
        assert all(len(s.values) == 1 and len(s.values[0]) == 2 for s in series)

    def test_build_scenario_study_requires_sweep_kernel(self):
        with pytest.raises(ValueError, match="not sweep-shaped"):
            get_kernel("fault_distribution").build_scenario_study(("nominal",))

    def test_build_scenario_study_uses_the_kernels_series_lineup(self):
        """The Figure 6.5 grid must show the enhancement ablation series,
        not the matching factory's default (Figure 6.4) line-up."""
        figure = get_kernel("matching_enhancements").build_scenario_study(
            ("nominal",), trials=1, fault_rates=(0.0,), iterations=100,
        )
        assert [s.name for s in figure.series] == [
            f"{label} @ nominal"
            for label in ("Non-robust", "Basic,LS", "SQS", "PRECOND", "ANNEAL", "ALL")
        ]

    def test_build_scenario_study_runs_a_kernel(self):
        figure = get_kernel("sorting").build_scenario_study(
            ("nominal", "low-order-seu"),
            trials=1, fault_rates=(0.05,), iterations=100, array_size=3,
        )
        assert "scenario grid" in figure.title
        assert len(figure.series) == 4 * 2  # four stock series × two scenarios

    def test_build_scenario_study_collapses_pinned_scenarios(self):
        """A rate-pinned scenario runs once, not once per grid rate.

        Regression: pinned scenarios used to repeat their single operating
        point across the whole rate grid, so the rendered table attributed
        the value to grid rates it never ran at (and burned redundant
        trials).  Now they contribute a single-point series whose name
        carries the effective rate, listed after the full-grid series.
        """
        figure = get_kernel("sorting").build_scenario_study(
            ("nominal", "measured-0.70V"),
            trials=1, fault_rates=(0.05, 0.2), iterations=100, array_size=3,
            engine=ExperimentEngine("vectorized"),
        )
        rate = VoltageErrorModel().error_rate(0.70)
        by_name = {s.name: s for s in figure.series}
        nominal = by_name["Base @ nominal"]
        assert nominal.fault_rates == [0.05, 0.2]
        pinned_name = f"Base @ measured-0.70V [rate {rate:g}]"
        pinned = by_name[pinned_name]
        assert pinned.fault_rates == [pytest.approx(rate)]
        assert len(pinned.values) == 1 and len(pinned.values[0]) == 1
        # The table's rate column comes from a full-grid series.
        assert figure.series[0].name == "Base @ nominal"
        assert figure.fault_rates == [0.05, 0.2]

    def test_cross_model_figure_miniature(self):
        figure = get_kernel("matching_cross_model").build(
            trials=1, iterations=150, fault_rates=(0.0,),
            scenarios=("nominal", "measured-bits"),
        )
        names = {s.name for s in figure.series}
        assert names == {
            "Base @ nominal", "Base @ measured-bits",
            "SGD+AS,SQS @ nominal", "SGD+AS,SQS @ measured-bits",
        }
        # Fault-free matching always succeeds regardless of fault model.
        assert figure.series_named("Base @ nominal").values[0][0] == 1.0

    def test_voltage_figure_miniature(self):
        figure = get_kernel("least_squares_voltage").build(
            trials=1, iterations=150, voltages=(0.95, 0.70), shape=(20, 4),
        )
        assert [s.name for s in figure.series] == ["Base: SVD", "SGD+AS,LS"]
        for series in figure.series:
            assert series.fault_rates == [0.95, 0.70]
        # Near-nominal voltage: the SVD baseline is essentially exact.
        assert figure.series_named("Base: SVD").values[0][0] < 1e-6

    def test_figure_5_2_is_a_scenario_grid_study(self):
        figure = get_kernel("voltage_curve").build(
            n_points=6, trials=2, ops_per_trial=500
        )
        analytic, empirical = figure.series
        assert len(analytic.values) == len(empirical.values) == 6
        model = VoltageErrorModel()
        for voltage, value in zip(analytic.fault_rates, analytic.values):
            assert value[0] == pytest.approx(model.error_rate(voltage))
        # At deep overscaling the empirical rate must be clearly nonzero.
        assert np.mean(empirical.values[-1]) > 0.1
