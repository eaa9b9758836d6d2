"""Tests for the application-kernel registry (:mod:`repro.experiments.kernels`).

The registry is the single source of truth for the figure suite: kernel
lookup, batch-capability dispatch, reduced-scale parameter derivation, and
cache-key payloads all live here, and these tests pin that contract.
"""

import pytest

from repro.experiments import kernels
from repro.experiments.results import FigureResult

#: Every sweep kernel's series labels, in plotting order.  The figure-cache
#: keys do not cover the line-up, so this table is what catches a series that
#: is dropped, renamed or reordered.
SWEEP_LINE_UPS = {
    "sorting": ["Base", "SGD", "SGD+AS,LS", "SGD+AS,SQS"],
    "least_squares_sgd": ["Base: SVD", "SGD,LS", "SGD+AS,LS"],
    "iir": ["Base", "SGD,LS", "SGD+AS,LS", "SGD+AS,SQS"],
    "matching": ["Base", "SGD,LS", "SGD+AS,LS", "SGD+AS,SQS"],
    "matching_enhancements": ["Non-robust", "Basic,LS", "SQS", "PRECOND", "ANNEAL", "ALL"],
    "cg_least_squares": ["Base: QR", "Base: SVD", "Base: Cholesky", "CG, N=10"],
    "momentum": [
        "sorting (no momentum)",
        "sorting (momentum 0.5)",
        "matching (no momentum)",
        "matching (momentum 0.5)",
    ],
    "eigen": ["Power, k=1", "Power+deflation, k=2"],
    "maxflow": ["Base", "SGD,SQS", "SGD+AS,SQS"],
    "apsp": ["Base", "SGD,SQS", "SGD+AS,SQS"],
    "svm": ["Base: Pegasos", "SGD,LS", "SGD+AS,LS"],
    "sorting_cross_model": ["Base", "SGD+AS,SQS"],
    "least_squares_cross_model": ["Base: SVD", "SGD+AS,LS"],
    "matching_cross_model": ["Base", "SGD+AS,SQS"],
    "sorting_voltage": ["Base", "SGD+AS,SQS"],
    "least_squares_voltage": ["Base: SVD", "SGD+AS,LS"],
    "matching_voltage": ["Base", "SGD+AS,SQS"],
}


class TestRegistryContents:
    def test_every_paper_figure_is_registered(self):
        names = kernels.kernel_names()
        assert names == [
            "fault_distribution",
            "voltage_curve",
            "sorting",
            "least_squares_sgd",
            "iir",
            "matching",
            "matching_enhancements",
            "cg_least_squares",
            "energy",
            "momentum",
            "flop_costs",
            "overhead",
            "eigen",
            "maxflow",
            "apsp",
            "svm",
            "sorting_cross_model",
            "least_squares_cross_model",
            "matching_cross_model",
            "sorting_voltage",
            "least_squares_voltage",
            "matching_voltage",
        ]

    def test_batched_tier_covers_the_sweep_suite(self):
        assert {spec.name for spec in kernels.sweep_kernels()} == {
            "sorting",
            "least_squares_sgd",
            "iir",
            "matching",
            "matching_enhancements",
            "cg_least_squares",
            "momentum",
            "eigen",
            "maxflow",
            "apsp",
            "svm",
            "sorting_cross_model",
            "least_squares_cross_model",
            "matching_cross_model",
            "sorting_voltage",
            "least_squares_voltage",
            "matching_voltage",
        }

    def test_lookup_by_kernel_and_figure_name(self):
        assert kernels.get_kernel("iir").figure == "figure_6_3"
        assert kernels.get_kernel("figure_6_3") is kernels.get_kernel("iir")
        with pytest.raises(KeyError, match="unknown kernel"):
            kernels.get_kernel("nope")

    def test_duplicate_registration_rejected(self):
        spec = kernels.get_kernel("iir")
        with pytest.raises(ValueError, match="already registered"):
            kernels.register_kernel(spec)

    def test_builders_resolve(self):
        for spec in kernels.list_kernels():
            if not spec.sweep:
                assert callable(spec.builder()), spec.name

    def test_sweep_kernels_have_trial_factories(self):
        for spec in kernels.sweep_kernels():
            assert spec.trial_factory is not None, spec.name

    def test_every_sweep_kernels_line_up_is_pinned(self):
        line_ups = {spec.name: list(spec.sweep_functions()) for spec in kernels.sweep_kernels()}
        assert line_ups == SWEEP_LINE_UPS


class TestCapabilityDispatch:
    def test_trial_factories_declare_expected_batch_tiers(self):
        functions = kernels.get_kernel("sorting").sweep_functions(iterations=10, array_size=3)
        assert not kernels.is_batchable(functions["Base"])
        for name in ("SGD", "SGD+AS,LS", "SGD+AS,SQS"):
            assert kernels.is_batchable(functions[name])

        functions = kernels.get_kernel("cg_least_squares").sweep_functions(
            cg_iterations=4, shape=(12, 3)
        )
        assert kernels.is_batchable(functions["CG, N=4"])
        assert kernels.is_batchable(functions["Base: SVD"])
        for name in ("Base: QR", "Base: Cholesky"):
            assert not kernels.is_batchable(functions[name])

        functions = kernels.get_kernel("iir").sweep_functions(
            iterations=10, signal_length=20, n_taps=4
        )
        assert all(kernels.is_batchable(fn) for fn in functions.values())

        functions = kernels.get_kernel("momentum").sweep_functions(iterations=10)
        assert all(kernels.is_batchable(fn) for fn in functions.values())

    def test_extension_factories_declare_expected_batch_tiers(self):
        functions = kernels.get_kernel("maxflow").sweep_functions(iterations=10)
        assert not kernels.is_batchable(functions["Base"])
        assert kernels.is_batchable(functions["SGD,SQS"])
        assert kernels.is_batchable(functions["SGD+AS,SQS"])

        functions = kernels.get_kernel("apsp").sweep_functions(iterations=10)
        assert not kernels.is_batchable(functions["Base"])
        assert kernels.is_batchable(functions["SGD,SQS"])

        # Every eigen series batches; the SVM Pegasos baseline cannot (its
        # per-sample control flow is data-dependent) but the SGD series do.
        functions = kernels.get_kernel("eigen").sweep_functions(iterations=10, matrix_size=4)
        assert all(kernels.is_batchable(fn) for fn in functions.values())

        functions = kernels.get_kernel("svm").sweep_functions(
            iterations=10, n_samples=12, n_features=3
        )
        assert not kernels.is_batchable(functions["Base: Pegasos"])
        assert kernels.is_batchable(functions["SGD,LS"])
        assert kernels.is_batchable(functions["SGD+AS,LS"])

    def test_batchable_decorator_attaches_implementation(self):
        def run_batch(procs, streams):
            return [0.0 for _ in procs]

        @kernels.batchable(run_batch)
        def trial(proc, rng):
            return 0.0

        assert kernels.batch_implementation(trial) is run_batch
        assert kernels.batch_implementation(lambda proc, rng: 0.0) is None


class TestKernelSpecDerivations:
    def test_reduced_kwargs_scale_each_kernels_paper_budget(self):
        assert kernels.get_kernel("sorting").reduced_kwargs(3, 0.25) == {
            "trials": 3,
            "iterations": 2500,
        }
        # The numerical kernels floor at 500 iterations so their solves still
        # converge at reduced scale.
        assert kernels.get_kernel("iir").reduced_kwargs(3, 0.25) == {
            "trials": 3,
            "iterations": 500,
        }
        # The momentum study scales its own Section 6.2.2 budget (5,000).
        assert kernels.get_kernel("momentum").reduced_kwargs(3, 0.25) == {
            "trials": 3,
            "iterations": 1250,
        }
        assert kernels.get_kernel("cg_least_squares").reduced_kwargs(3, 0.25) == {
            "trials": 3,
        }
        # The energy search trims one trial; the text tables take none.
        assert kernels.get_kernel("energy").reduced_kwargs(3, 0.25) == {"trials": 2}
        assert kernels.get_kernel("flop_costs").reduced_kwargs(3, 0.25) == {}
        # figure_5_2 now runs a Monte-Carlo scenario grid, so --trials and
        # --executor must reach it even though it is not a sweep kernel.
        assert kernels.get_kernel("voltage_curve").reduced_kwargs(3, 0.25) == {
            "trials": 3,
        }
        assert kernels.get_kernel("voltage_curve").takes_engine
        assert not kernels.get_kernel("flop_costs").takes_engine
        # The extension kernels scale their own budgets with their own floors.
        assert kernels.get_kernel("eigen").reduced_kwargs(3, 0.25) == {
            "trials": 3,
            "iterations": 50,
        }
        assert kernels.get_kernel("maxflow").reduced_kwargs(3, 0.25) == {
            "trials": 3,
            "iterations": 1250,
        }
        assert kernels.get_kernel("apsp").reduced_kwargs(3, 0.25) == {
            "trials": 3,
            "iterations": 1250,
        }
        assert kernels.get_kernel("svm").reduced_kwargs(3, 0.25) == {
            "trials": 3,
            "iterations": 250,
        }

    def test_zero_scale_keeps_one_iteration(self):
        # bench_all's cnative warm-up builds each kernel at
        # reduced_kwargs(1, 0.0); a kernel without a floor must not get an
        # iteration budget of 0, which its builder rejects.
        for spec in kernels.list_kernels():
            kwargs = spec.reduced_kwargs(1, 0.0)
            if spec.paper_iterations is not None:
                assert kwargs["iterations"] >= 1, spec.name
        sorting = kernels.get_kernel("sorting")
        figure = sorting.build(**sorting.reduced_kwargs(1, 0.0))
        assert isinstance(figure, FigureResult)

    def test_paper_scale_matches_each_generators_documented_defaults(self):
        """scale=1.0 must reproduce the paper budgets docs/figures.md states."""
        paper_budgets = {
            "sorting": 10000,
            "least_squares_sgd": 1000,
            "iir": 1000,
            "matching": 10000,
            "matching_enhancements": 10000,
            "momentum": 5000,
            "eigen": 200,
            "maxflow": 5000,
            "apsp": 5000,
            "svm": 1000,
        }
        for name, budget in paper_budgets.items():
            kwargs = kernels.get_kernel(name).reduced_kwargs(5, 1.0)
            assert kwargs["iterations"] == budget, name

    def test_cache_params_cover_builder_defaults(self):
        spec = kernels.get_kernel("sorting")
        params = spec.cache_params({"trials": 3, "iterations": 100})
        assert params["trials"] == 3
        assert params["iterations"] == 100
        # Defaults that shape values are part of the key; the engine is not.
        assert params["array_size"] == 5
        assert params["seed"] == kernels.WORKLOAD_SEED
        assert "engine" not in params

    def test_make_figure_stamps_spec_metadata(self):
        spec = kernels.get_kernel("sorting")
        figure = spec.make_figure([], iterations=123)
        assert isinstance(figure, FigureResult)
        assert figure.figure_id == "Figure 6.1"
        assert "123 iterations" in figure.title
        assert figure.y_label == "success rate"
        assert spec.use_success_rate

    @pytest.mark.parametrize("name, parameter, value", [
        ("cg_least_squares", "iterations", 5),
        ("sorting", "voltages", (0.8,)),
        ("flop_costs", "engine", "serial"),
    ])
    def test_build_rejects_a_parameter_the_kernel_does_not_take(
        self, name, parameter, value, monkeypatch
    ):
        """build accepts exactly the kernel's ``defaults`` (sweeps add
        ``engine``) and refuses anything else before any work starts: every
        figure runs through a non-sweep builder or the workload factory."""

        def must_not_run(*args, **kwargs):
            raise AssertionError("a rejected build must not run anything")

        monkeypatch.setattr(kernels.KernelSpec, "builder", must_not_run)
        monkeypatch.setattr(kernels.KernelSpec, "sweep_functions", must_not_run)
        with pytest.raises(TypeError, match=f"{name}.*{parameter}"):
            kernels.get_kernel(name).build(**{parameter: value})

    def test_build_runs_a_cheap_kernel(self):
        figure = kernels.get_kernel("voltage_curve").build(n_points=5)
        assert figure.figure_id == "Figure 5.2"
        assert len(figure.series[0].values) == 5
