"""Tests for the experiment harness (sweeps, reporting, registry figure
builds) and the correctness contract of the on-disk result cache.

Figures are built through the kernel registry at miniature scale so the
whole module runs in seconds; the benchmark harness runs them at
representative scale.
"""

import math
import threading

import pytest

from repro.experiments.cache import ResultCache, spec_hash
from repro.experiments.engine import ExperimentEngine
from repro.experiments.kernels import get_kernel, list_kernels
from repro.experiments.reporting import figure_to_rows, format_figure, save_figure_report
from repro.experiments.results import FigureResult, SeriesResult
from repro.experiments.spec import SweepSpec

#: Figure-cache key of every registered kernel, as
#: ``spec_hash({"figure": ..., "params": cache_params(reduced_kwargs(t, s))})``
#: at ``(t, s) = (3, 0.25)`` (the CLI's reduced scale) and ``(5, 1.0)`` (the
#: paper's).  Computed when each kernel's paper values were still read from a
#: figure generator's signature; a default that drifts would silently orphan
#: every cached figure of its kernel, so a change here must be deliberate.
FIGURE_CACHE_KEYS = {
    "fault_distribution": (
        "974fedc1f6f10b78553a6c2b346b995085dbb3dfcca5d592695752a6b4037469",
        "974fedc1f6f10b78553a6c2b346b995085dbb3dfcca5d592695752a6b4037469",
    ),
    "voltage_curve": (
        "283ce0fd35a2ce01a61998a27a0e386b406ae50f70e618c96cf9ca63ac92642e",
        "984df77967e3264d1f8e3ec5df4b1b83c09b0f134bf77e04035832b3f39d7343",
    ),
    "sorting": (
        "7b7d0e5c6ca413762042da1abddb18b7869a5a61eacc809cd12ea0e66636f164",
        "7ff21e9831fafdd12d35928209ab05cdbe8742bf67057633e015438aa6093455",
    ),
    "least_squares_sgd": (
        "0050c93c8060058681be054d41e1e84ab0a0cc4936e28f704de67341ddecfe06",
        "56a09359bbd5e2f3aa815ae9bd34244ab35c2589786ced89c4099c168b7c674f",
    ),
    "iir": (
        "8b3a998ebf78f8ec60032e1411c68cf2ff52a8c7db8b1d05a6defb6920f4a61a",
        "1629f8d45f729f60e59b421bcb9ab738f2092277e94600c34d8d31a617cdb98f",
    ),
    "matching": (
        "4c4fdb0743212891e5763e8e8604d258f1509870ba534af56ea083a60cf36e87",
        "71eef1e5febd2cd4381c5d29c968c8b31495a62501a8b7e9d13f7d4871eccc46",
    ),
    "matching_enhancements": (
        "43e7eaaca58612662496d18e1dd54e6710b86e24d55d47a3b5ef4a54bb003ee1",
        "fbf31cf4e10566651d1498a5d77566cfbcf9627f4649fbeb96eb3eff05bdd0f1",
    ),
    "cg_least_squares": (
        "2821a8e9982202c7c4b4706979f7beba2bc2977f2cf1afda1a6d4ae28236b457",
        "fc963a95e10118afd5e006b242cfec2c842012b1f4b7d96af79dc3624e028caa",
    ),
    "energy": (
        "226d517d5826abbb050bf45fe909922685e24a76dfb90cc675cab985dbce6eee",
        "9ccc3c4a92b450a0c2b5029b37524cc25475ec73390ca5ead19c20c3a6e6b92d",
    ),
    "momentum": (
        "857c7c3d9cc22f6cf3f03b378a380b3ac1da7617db4a735f58d63a14a85cf1cd",
        "154f11d51ed4f0af4b0d025a41ed1361845340c13cea80c2d61713aaea03dab4",
    ),
    "flop_costs": (
        "17b3d6d60ffabeb83d82b2f2a48f0ddbee2da2780ffd7bb53e116fc15fbd01a4",
        "17b3d6d60ffabeb83d82b2f2a48f0ddbee2da2780ffd7bb53e116fc15fbd01a4",
    ),
    "overhead": (
        "92c714d0cfa966b5f9929b81575a15bcb3930f69b460812edf9a169e0ca7eb5a",
        "92c714d0cfa966b5f9929b81575a15bcb3930f69b460812edf9a169e0ca7eb5a",
    ),
    "eigen": (
        "142b6cc968959537f337200fbb2b626c6cfeb8dabe7770015b21dca4c3dec8ea",
        "b8fe81b55f7f91a8480fd2a19525da0924cf683207f574ac5ab556c69c52ef4e",
    ),
    "maxflow": (
        "c1bf88fb641b927bfd9e79dd4023526e7decb7601957699a9adc7e1bcf1f8256",
        "38d1275233424f3228bd2d25120e78c36720db01d41f46894b63e8ed06e2a438",
    ),
    "apsp": (
        "1665620785ce442ec881eca40c964de5c6016f0017aaba5e80628c900fa6e178",
        "f16c172fddd097895a7b8cb316ee5acd063950625d1dda138cf2f3c15b7db511",
    ),
    "svm": (
        "c1faadc4decacc2fadda792e7952fdab28eaf790a7098870c3925ad3dc5942f3",
        "91ca51d26a51d7aacddbb10af0546b6d9a0bbc36d6588f9a23b4165f2c1951b4",
    ),
    "sorting_cross_model": (
        "0ee4b16ff2f34e521e5c08d5792ee861cb521e24fe812de9b552b6cb3b82056a",
        "06aedc1c672d4c1f35036c936f9c1f30eb533c7dee2722ad2ac29e1f6ee466de",
    ),
    "least_squares_cross_model": (
        "6cfdbc569fe011f76b32ba411eedc9b9c4d167d01c3c08951e566ef16fdb8f22",
        "1c3d40007c1d957531794a9fd596e91373fd4d1d4fa1937dddf05a17f7eea069",
    ),
    "matching_cross_model": (
        "a434b21d6a85bb98edc545927f4f798a43af5f1999d6762cb5aa6ace14c379ca",
        "d861868298fcd40c827b155cf4439d5ab385df44ded625b2baa1d7366c60f264",
    ),
    "sorting_voltage": (
        "720ff0567120c12efbf54136173ad5ecfb5265d287412c380f9de8941bb29a7f",
        "f31baaea1e51327deb505273225eae03388b5432b2ce53000280ceb0fe561a10",
    ),
    "least_squares_voltage": (
        "b292d79803f8b9124772d9f1946271edb85e97ede6e6870f054fb74a720bdf52",
        "20e1eb5014be244d8d8ac98a5e5903403f278d7316b1a0c354411306718b7d1a",
    ),
    "matching_voltage": (
        "8b5f2c25a3d9024939008e90d323ec094bd2af65fb63a3529676a690d6f1719f",
        "b7a2299df14a36b9a7612f4a2b3c1c7db86bca5a47de49ab31c530370267694b",
    ),
}


class TestRunner:
    def test_sweep_shapes_and_determinism(self):
        def metric(proc, rng):
            return proc.fault_rate + 0.001 * rng.random()

        series = ExperimentEngine().run_sweep(SweepSpec(
            {"a": metric, "b": metric}, fault_rates=(0.0, 0.1), trials=3, seed=7
        ))
        assert len(series) == 2
        assert series[0].fault_rates == [0.0, 0.1]
        assert all(len(v) == 3 for v in series[0].values)
        repeat = ExperimentEngine().run_sweep(SweepSpec(
            {"a": metric, "b": metric}, fault_rates=(0.0, 0.1), trials=3, seed=7
        ))
        assert series[0].values == repeat[0].values

    def test_processors_have_requested_fault_rate(self):
        observed = []

        def metric(proc, rng):
            observed.append(proc.fault_rate)
            return 0.0

        ExperimentEngine().run_sweep(
            SweepSpec({"x": metric}, fault_rates=(0.05,), trials=2, seed=0)
        )
        assert observed == [0.05, 0.05]

    def test_series_success_rates(self):
        series = SeriesResult(name="s", fault_rates=[0.0], values=[[1.0, 0.0, 1.0, 1.0]])
        assert series.success_rates() == [0.75]
        assert series.means() == [pytest.approx(0.75)]

    def test_figure_result_lookup(self):
        figure = FigureResult("F", "t", "x", "y", series=[SeriesResult(name="s")])
        assert figure.series_named("s").name == "s"
        with pytest.raises(KeyError):
            figure.series_named("missing")

    def test_success_rates_empty_trials_are_nan(self):
        """A fault rate with no trials must not masquerade as 0 % success."""
        series = SeriesResult(name="s", fault_rates=[0.0, 0.1], values=[[], [1.0]])
        rates = series.success_rates()
        assert math.isnan(rates[0])
        assert rates[1] == 1.0

    def test_empty_series_aggregates(self):
        series = SeriesResult(name="s")
        assert series.success_rates() == []
        assert series.means() == []
        assert series.summaries() == []

    def test_figure_fault_rates_skip_empty_series(self):
        empty = SeriesResult(name="pending")
        filled = SeriesResult(name="done", fault_rates=[0.0, 0.1], values=[[1.0], [0.5]])
        figure = FigureResult("F", "t", "x", "y", series=[empty, filled])
        assert figure.fault_rates == [0.0, 0.1]
        assert FigureResult("F", "t", "x", "y").fault_rates == []
        assert FigureResult("F", "t", "x", "y", series=[empty]).fault_rates == []


class TestReporting:
    def _figure(self):
        series = SeriesResult(name="robust", fault_rates=[0.0, 0.1], values=[[1.0], [0.5]])
        other = SeriesResult(name="base", fault_rates=[0.0, 0.1], values=[[1.0], [0.0]])
        return FigureResult("Figure X", "demo", "fault rate", "success", series=[series, other])

    def test_rows_layout(self):
        rows = figure_to_rows(self._figure())
        assert rows[0] == ["fault rate", "robust", "base"]
        assert len(rows) == 3

    def test_format_contains_series(self):
        text = format_figure(self._figure())
        assert "robust" in text and "base" in text and "Figure X" in text

    def test_save_report(self, tmp_path):
        path = save_figure_report(self._figure(), tmp_path / "fig.txt")
        assert path.exists()
        assert "demo" in path.read_text()


class TestFigureGenerators:
    def test_figure_5_1(self):
        figure = get_kernel("fault_distribution").build()
        assert {s.name for s in figure.series} == {"Measured", "Emulated"}
        for series in figure.series:
            assert sum(v[0] for v in series.values) == pytest.approx(1.0)

    def test_figure_5_2(self):
        figure = get_kernel("voltage_curve").build(n_points=8)
        rates = [v[0] for v in figure.series[0].values]
        assert rates == sorted(rates)  # error rate grows as voltage drops

    def test_figure_6_1_miniature(self):
        figure = get_kernel("sorting").build(trials=1, iterations=300, fault_rates=(0.0,))
        assert {s.name for s in figure.series} == {"Base", "SGD", "SGD+AS,LS", "SGD+AS,SQS"}
        assert figure.series_named("Base").values[0][0] == 1.0

    def test_figure_6_2_miniature(self):
        figure = get_kernel("least_squares_sgd").build(
            trials=1, iterations=150, fault_rates=(0.0,), shape=(30, 5)
        )
        assert figure.series_named("Base: SVD").values[0][0] < 1e-2

    def test_figure_6_3_miniature(self):
        figure = get_kernel("iir").build(
            trials=1, iterations=150, fault_rates=(0.0,), signal_length=120, n_taps=6
        )
        assert figure.series_named("Base").values[0][0] < 1e-4

    def test_figure_6_4_miniature(self):
        figure = get_kernel("matching").build(trials=1, iterations=400, fault_rates=(0.0,))
        assert figure.series_named("Base").values[0][0] == 1.0

    def test_figure_6_6_miniature(self):
        figure = get_kernel("cg_least_squares").build(trials=1, fault_rates=(0.0,), shape=(30, 5))
        assert figure.series_named("CG, N=10").values[0][0] < 1e-2

    def test_eigen_study_miniature(self):
        figure = get_kernel("eigen").build(trials=1, iterations=30, fault_rates=(0.0,))
        assert {s.name for s in figure.series} == {"Power, k=1", "Power+deflation, k=2"}
        assert figure.series_named("Power, k=1").values[0][0] < 0.05

    def test_maxflow_study_miniature(self):
        figure = get_kernel("maxflow").build(trials=1, iterations=200, fault_rates=(0.0,))
        assert {s.name for s in figure.series} == {"Base", "SGD,SQS", "SGD+AS,SQS"}
        assert figure.series_named("Base").values[0][0] < 1e-3

    def test_apsp_study_miniature(self):
        figure = get_kernel("apsp").build(trials=1, iterations=200, fault_rates=(0.0,))
        assert {s.name for s in figure.series} == {"Base", "SGD,SQS", "SGD+AS,SQS"}
        assert figure.series_named("Base").values[0][0] < 1e-3

    def test_svm_study_miniature(self):
        figure = get_kernel("svm").build(
            trials=1, iterations=60, fault_rates=(0.0,), n_samples=20, n_features=3
        )
        names = {s.name for s in figure.series}
        assert names == {"Base: Pegasos", "SGD,LS", "SGD+AS,LS"}
        assert figure.series_named("SGD,LS").values[0][0] >= 0.9

    def test_flop_cost_comparison(self):
        figure = get_kernel("flop_costs").build(shape=(30, 5))
        names = {s.name for s in figure.series}
        assert "CG, N=10" in names and "Base: Cholesky" in names
        cg_flops = figure.series_named("CG, N=10").values[0][0]
        svd_flops = figure.series_named("Base: SVD").values[0][0]
        assert cg_flops < svd_flops  # CG is the cheaper accurate solver (§6.3)

    def test_overhead_table_shows_large_overheads(self):
        figure = get_kernel("overhead").build(iterations_sorting=300, iterations_lsq=100)
        ratios = {s.name: s.values[0][0] for s in figure.series}
        assert ratios["sorting"] > 10.0
        assert ratios["matching"] > 10.0


class TestResultCacheCorrectness:
    """The cache's two correctness contracts: injective keys, atomic stores."""

    def test_spec_hash_distinguishes_value_types(self):
        """Regression: default=str made a float and its string form collide."""
        assert spec_hash({"a": 1.0}) != spec_hash({"a": "1.0"})
        assert spec_hash({"a": [1, 2]}) != spec_hash({"a": "[1, 2]"})

    def test_spec_hash_rejects_non_json_payloads(self):
        """Regression: objects with equal str() silently hashed identically."""

        class Opaque:
            def __str__(self):
                return "same"

        with pytest.raises(TypeError, match="not strictly JSON-serializable"):
            spec_hash({"a": Opaque()})
        # NaN has no strict JSON form either (json would emit non-standard
        # text); payloads must convert it explicitly.
        with pytest.raises(ValueError, match="not strictly JSON-serializable"):
            spec_hash({"a": float("nan")})

    def test_figure_cache_keys_are_pinned(self):
        """No registered kernel's figure-cache key moves, at either scale."""
        keys = {
            spec.name: tuple(
                spec_hash({
                    "figure": spec.figure,
                    "params": spec.cache_params(spec.reduced_kwargs(trials, scale)),
                })
                for trials, scale in ((3, 0.25), (5, 1.0))
            )
            for spec in list_kernels()
        }
        assert keys == FIGURE_CACHE_KEYS

    def test_concurrent_stores_of_one_entry_never_publish_corruption(self, tmp_path):
        """Regression: a shared .tmp path let two writers interleave writes.

        Many threads repeatedly store the same spec while a reader keeps
        loading it; with per-writer tmp files every observed entry is a
        complete, loadable figure.
        """
        cache = ResultCache(tmp_path)
        key = {"figure": "demo", "trials": 3}
        figure = FigureResult(
            "F", "t" * 512, "x", "y",
            series=[SeriesResult(name="s", fault_rates=[0.0], values=[[1.0]])],
        )
        errors = []

        def writer():
            for _ in range(25):
                cache.store(key, figure)

        def reader():
            for _ in range(100):
                loaded = cache.load(key)
                if loaded is not None and loaded.title != figure.title:
                    errors.append("torn read")

        threads = [threading.Thread(target=writer) for _ in range(4)]
        threads.append(threading.Thread(target=reader))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        final = cache.load(key)
        assert final is not None and final.title == figure.title
        # No per-writer tmp files may be left behind.
        assert not list(tmp_path.glob("*.tmp"))
