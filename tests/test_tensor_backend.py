"""Tests for the tensorized trial backend.

The backend's contract is bit-identity: every batched layer — the fused fault
kernels, the :class:`ProcessorBatch` substrate, the batched SGD driver, the
application batch entry points, and the ``vectorized`` executor — must
reproduce the serial reference byte for byte on the same seeds, across mixed
fault rates (including zero).  These tests pin that contract at each layer.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.applications.eigen import robust_eigenpairs, robust_eigenpairs_batch
from repro.applications.iir import robust_iir_filter, robust_iir_filter_batch
from repro.applications.least_squares import (
    default_least_squares_step,
    robust_least_squares_cg,
    robust_least_squares_cg_batch,
    robust_least_squares_sgd,
    robust_least_squares_sgd_batch,
)
from repro.applications.matching import (
    default_matching_config,
    robust_matching,
    robust_matching_batch,
)
from repro.applications.maxflow import (
    default_maxflow_config,
    robust_max_flow,
    robust_max_flow_batch,
)
from repro.applications.shortest_path import (
    default_apsp_config,
    robust_all_pairs_shortest_path,
    robust_all_pairs_shortest_path_batch,
)
from repro.applications.sorting import (
    default_sorting_config,
    robust_sort,
    robust_sort_batch,
)
from repro.applications.svm import (
    robust_svm_train_sgd,
    robust_svm_train_sgd_batch,
)
from repro.core.variants import sgd_options_for_variant
from repro.experiments.engine import ExperimentEngine
from repro.experiments.executors import VectorizedExecutor
from repro.experiments.kernels import batchable, get_kernel, is_batchable
from repro.experiments.spec import SweepSpec
from repro.experiments.tensor import make_trial_batch, run_tensor_cell
from repro.experiments.trials import make_noisy_sum_trial
from repro.faults.vectorized import corrupt_array
from repro.optimizers.conjugate_gradient import CGOptions
from repro.optimizers.problem import QuadraticProblem
from repro.optimizers.sgd import (
    SGDOptions,
    stochastic_gradient_descent,
    stochastic_gradient_descent_batch,
)
from repro.processor.batch import ProcessorBatch, batch_matvec, batch_sub
from repro.processor.stochastic import StochasticProcessor
from repro.workloads.generators import (
    random_array,
    random_bipartite_graph,
    random_flow_network,
    random_least_squares,
    random_spd_matrix,
    random_svm_data,
    random_weighted_graph,
)
from repro.workloads.signals import random_stable_iir, sum_of_sinusoids
from tests.strategies import MIXED_RATES, make_procs, sorting_sweep


class TestCorruptBatchMixedRates:
    def test_per_trial_rates_match_corrupt_array(self):
        """ProcessorBatch with one rate per row equals per-trial corrupt_array."""
        stacked = np.random.default_rng(3).random((len(MIXED_RATES), 64)).astype(np.float32)
        serial_procs, batch_procs = make_procs(seed=5), make_procs(seed=5)
        batch = ProcessorBatch(batch_procs)
        batched = batch.corrupt(stacked, ops_per_element=4)
        batch.flush()
        for t, (rate, proc) in enumerate(zip(MIXED_RATES, serial_procs)):
            row, n_faults = corrupt_array(
                stacked[t], rate, 4, proc.injector.bit_distribution, proc.injector.rng
            )
            np.testing.assert_array_equal(batched[t], row.astype(np.float64))
            assert batch_procs[t].faults_injected == n_faults
        assert any(proc.faults_injected for proc in batch_procs)


class TestProcessorBatch:
    @given(
        rates=st.lists(st.sampled_from(MIXED_RATES + [0.9]), min_size=1, max_size=6),
        row_shape=st.sampled_from([(), (7,), (3, 5)]),
        per_element_ops=st.booleans(),
        fault_model=st.sampled_from(["leon3-fpu", "double-precision"]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_corrupt_matches_per_trial_corrupt(
        self, rates, row_shape, per_element_ops, fault_model, seed
    ):
        """ProcessorBatch.corrupt row t == procs[t].corrupt, values and counters.

        Covers the fused pass (one ``ops`` count over a >=2-D stack) and the
        per-trial path (per-element ``ops``, or one scalar per trial in a 1-D
        stack), with mixed rates including zero, on float32 and float64
        datapaths.  Every row must also leave its generator exactly where the
        per-trial call leaves it.
        """
        workload = np.random.default_rng(seed)
        stacked = workload.standard_normal((len(rates),) + row_shape)
        if per_element_ops:
            ops = workload.integers(1, 16, size=row_shape)
        else:
            ops = int(workload.integers(1, 16))

        def procs():
            return [
                StochasticProcessor(
                    fault_rate=rate, fault_model=fault_model,
                    rng=np.random.default_rng([seed, t]),
                )
                for t, rate in enumerate(rates)
            ]

        serial_procs, batch_procs = procs(), procs()
        expected = np.stack(
            [proc.corrupt(stacked[t], ops_per_element=ops) for t, proc in enumerate(serial_procs)]
        )
        batch = ProcessorBatch(batch_procs)
        actual = batch.corrupt(stacked, ops_per_element=ops)
        batch.flush()
        np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))
        for serial_proc, batch_proc in zip(serial_procs, batch_procs):
            assert batch_proc.flops == serial_proc.flops
            assert batch_proc.faults_injected == serial_proc.faults_injected
            assert batch_proc.injector.ops_observed == serial_proc.injector.ops_observed
            assert (
                batch_proc.injector.rng.bit_generator.state
                == serial_proc.injector.rng.bit_generator.state
            )

    def test_corrupt_elementwise_ops_array(self):
        """The general path (per-element FLOP counts) is also bit-identical."""
        ops = np.arange(1, 13).reshape(3, 4)
        workload = np.random.default_rng(2).standard_normal((len(MIXED_RATES), 3, 4))
        serial_procs, batch_procs = make_procs(), make_procs()
        expected = np.stack(
            [proc.corrupt(workload[t], ops_per_element=ops) for t, proc in enumerate(serial_procs)]
        )
        batch = ProcessorBatch(batch_procs)
        actual = batch.corrupt(workload, ops_per_element=ops)
        batch.flush()
        np.testing.assert_array_equal(actual, expected)
        assert [p.flops for p in batch_procs] == [p.flops for p in serial_procs]

    def test_batch_primitives_match_noisy_ops(self):
        from repro.linalg.ops import noisy_matvec, noisy_sub

        A = np.random.default_rng(0).standard_normal((7, 5))
        X = np.random.default_rng(1).standard_normal((len(MIXED_RATES), 5))
        y = np.random.default_rng(4).standard_normal(7)
        serial_procs, batch_procs = make_procs(), make_procs()
        expected = np.stack(
            [
                noisy_sub(proc, noisy_matvec(proc, A, X[t]), y)
                for t, proc in enumerate(serial_procs)
            ]
        )
        batch = ProcessorBatch(batch_procs)
        actual = batch_sub(batch, batch_matvec(batch, A, X), y)
        np.testing.assert_array_equal(actual, expected)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one processor"):
            ProcessorBatch([])

    def test_wrong_leading_dimension_rejected(self):
        batch = ProcessorBatch(make_procs())
        with pytest.raises(ValueError, match="leading"):
            batch.corrupt(np.zeros((2, 3)))


class TestBatchedSGD:
    @pytest.mark.parametrize("variant", ["SGD,LS", "SGD+AS,SQS", "MOMENTUM"])
    def test_quadratic_matches_serial(self, variant):
        A, b, _ = random_least_squares(40, 6, rng=17)
        options = sgd_options_for_variant(
            variant, iterations=60, base_step=default_least_squares_step(A)
        )
        problem = QuadraticProblem(A, b)
        serial = [
            stochastic_gradient_descent(problem, proc, options=options)
            for proc in make_procs()
        ]
        batched = stochastic_gradient_descent_batch(
            problem, ProcessorBatch(make_procs()), options=options
        )
        for s, v in zip(serial, batched):
            np.testing.assert_array_equal(v.x, s.x)
            assert v.objective == s.objective
            assert v.flops == s.flops
            assert v.faults_injected == s.faults_injected
            assert v.iterations == s.iterations

    def test_record_history_falls_back_per_trial(self):
        A, b, _ = random_least_squares(20, 4, rng=5)
        options = SGDOptions(iterations=20, base_step=default_least_squares_step(A),
                             record_history=True, record_every=5)
        problem = QuadraticProblem(A, b)
        batched = stochastic_gradient_descent_batch(
            problem, ProcessorBatch(make_procs()), options=options
        )
        serial = [
            stochastic_gradient_descent(problem, proc, options=options)
            for proc in make_procs()
        ]
        for s, v in zip(serial, batched):
            np.testing.assert_array_equal(v.x, s.x)
            assert [r.objective for r in v.history] == [r.objective for r in s.history]


class TestApplicationBatchPaths:
    @pytest.mark.parametrize("variant", ["SGD,LS", "SGD+AS,LS", "ALL"])
    def test_robust_sort_batch_matches_serial(self, variant):
        values = random_array(4, rng=2010, min_gap=0.08)
        config = default_sorting_config(iterations=60, variant=variant, values=values)
        serial = [robust_sort(values, proc, config) for proc in make_procs()]
        batched = robust_sort_batch(values, make_procs(), config)
        for s, v in zip(serial, batched):
            np.testing.assert_array_equal(v.output, s.output)
            assert v.success == s.success
            assert v.flops == s.flops
            assert v.faults_injected == s.faults_injected
            np.testing.assert_array_equal(v.optimizer_result.x, s.optimizer_result.x)

    def test_robust_least_squares_sgd_batch_matches_serial(self):
        A, b, _ = random_least_squares(50, 8, rng=2010)
        options = sgd_options_for_variant(
            "SGD,LS", iterations=80, base_step=default_least_squares_step(A)
        )
        serial = [
            robust_least_squares_sgd(A, b, proc, options=options)
            for proc in make_procs()
        ]
        batched = robust_least_squares_sgd_batch(A, b, make_procs(), options=options)
        for s, v in zip(serial, batched):
            assert v.relative_error == s.relative_error
            assert v.residual_norm == s.residual_norm
            assert v.flops == s.flops
            np.testing.assert_array_equal(v.x, s.x)

    @pytest.mark.parametrize(
        "options",
        [
            CGOptions(iterations=10),
            # A short restart period stresses the masked sub-batch
            # branches (periodic restarts every other iteration).
            CGOptions(iterations=9, restart_every=2),
        ],
    )
    def test_robust_least_squares_cg_batch_matches_serial(self, options):
        """The masked-batch CGNR driver is bit-identical across mixed rates.

        The 50 % fault-rate trial routinely trips the unusable-curvature
        restart, so the data-dependent branch is exercised, not just the
        lockstep fast path.
        """
        A, b, _ = random_least_squares(60, 8, rng=2010)
        serial = [
            robust_least_squares_cg(A, b, proc, options=options)
            for proc in make_procs()
        ]
        batched = robust_least_squares_cg_batch(A, b, make_procs(), options=options)
        for s, v in zip(serial, batched):
            np.testing.assert_array_equal(v.x, s.x)
            assert v.relative_error == s.relative_error
            assert v.residual_norm == s.residual_norm
            assert v.flops == s.flops
            assert v.faults_injected == s.faults_injected

    def test_cg_batch_record_history_falls_back_per_trial(self):
        A, b, _ = random_least_squares(30, 5, rng=4)
        options = CGOptions(iterations=6, record_history=True)
        serial = [
            robust_least_squares_cg(A, b, proc, options=options)
            for proc in make_procs()
        ]
        batched = robust_least_squares_cg_batch(A, b, make_procs(), options=options)
        for s, v in zip(serial, batched):
            np.testing.assert_array_equal(v.x, s.x)
            history_s = [r.objective for r in s.optimizer_result.history]
            history_v = [r.objective for r in v.optimizer_result.history]
            assert history_v == history_s

    @pytest.mark.parametrize("variant", ["SGD,LS", "SGD+AS,LS"])
    def test_robust_iir_filter_batch_matches_serial(self, variant):
        filt = random_stable_iir(6, rng=2010, pole_radius=0.8)
        signal = sum_of_sinusoids(100)
        options = sgd_options_for_variant(variant, iterations=30, base_step=0.25)
        serial = [
            robust_iir_filter(filt, signal, proc, options=options)
            for proc in make_procs()
        ]
        batched = robust_iir_filter_batch(filt, signal, make_procs(), options=options)
        for s, v in zip(serial, batched):
            np.testing.assert_array_equal(v.y, s.y)
            assert v.error_to_signal == s.error_to_signal
            assert v.mse == s.mse
            assert v.flops == s.flops
            assert v.faults_injected == s.faults_injected

    def test_robust_iir_filter_batch_without_preconditioning(self):
        filt = random_stable_iir(4, rng=7, pole_radius=0.6)
        signal = sum_of_sinusoids(60)
        options = SGDOptions(iterations=25, schedule="ls", base_step=0.05)
        kwargs = {"options": options, "precondition": False}
        serial = [
            robust_iir_filter(filt, signal, proc, **kwargs) for proc in make_procs()
        ]
        batched = robust_iir_filter_batch(filt, signal, make_procs(), **kwargs)
        for s, v in zip(serial, batched):
            np.testing.assert_array_equal(v.y, s.y)
            assert v.flops == s.flops

    @pytest.mark.parametrize("variant", ["SGD,LS", "MOMENTUM", "ALL"])
    def test_robust_matching_batch_matches_serial(self, variant):
        graph = random_bipartite_graph(4, 5, 14, rng=2010)
        config = default_matching_config(iterations=60, variant=variant, graph=graph)
        serial = [robust_matching(graph, proc, config) for proc in make_procs()]
        batched = robust_matching_batch(graph, make_procs(), config)
        for s, v in zip(serial, batched):
            assert v.edges == s.edges
            assert v.success == s.success
            assert v.weight == s.weight
            assert v.flops == s.flops
            assert v.faults_injected == s.faults_injected

    @pytest.mark.parametrize("variant", ["SGD,SQS", "SGD+AS,SQS"])
    def test_robust_max_flow_batch_matches_serial(self, variant):
        network = random_flow_network(6, 12, rng=2010)
        config = default_maxflow_config(iterations=60, variant=variant, network=network)
        serial = [robust_max_flow(network, proc, config) for proc in make_procs()]
        batched = robust_max_flow_batch(network, make_procs(), config)
        for s, v in zip(serial, batched):
            np.testing.assert_array_equal(v.flow, s.flow)
            assert v.flow_value == s.flow_value
            assert v.relative_error == s.relative_error
            assert v.feasible == s.feasible
            assert v.flops == s.flops
            assert v.faults_injected == s.faults_injected

    @pytest.mark.parametrize("variant", ["SGD,SQS", "SGD+AS,SQS"])
    def test_robust_apsp_batch_matches_serial(self, variant):
        graph = random_weighted_graph(5, 10, rng=2010)
        config = default_apsp_config(iterations=60, variant=variant, graph=graph)
        serial = [
            robust_all_pairs_shortest_path(graph, proc, config)
            for proc in make_procs()
        ]
        batched = robust_all_pairs_shortest_path_batch(graph, make_procs(), config)
        for s, v in zip(serial, batched):
            np.testing.assert_array_equal(v.distances, s.distances)
            assert v.mean_relative_error == s.mean_relative_error
            assert v.max_relative_error == s.max_relative_error
            assert v.success == s.success
            assert v.flops == s.flops
            assert v.faults_injected == s.faults_injected

    @pytest.mark.parametrize("k", [1, 2])
    def test_robust_eigenpairs_batch_matches_serial(self, k):
        """Batched power/deflation iterations are bit-identical per pair.

        The 50 % fault-rate trial exercises the fused corruption path hard;
        deflation makes the iterated matrix per-trial after the first pair,
        so k=2 pins the per-trial-matrix stacked product too.
        """
        M = random_spd_matrix(6, rng=2010)
        serial = [
            robust_eigenpairs(M, k, proc, iterations=40, rng=np.random.default_rng([3, t]))
            for t, proc in enumerate(make_procs())
        ]
        batched = robust_eigenpairs_batch(
            M, k, make_procs(), iterations=40,
            rngs=[np.random.default_rng([3, t]) for t in range(len(MIXED_RATES))],
        )
        for s_pairs, v_pairs in zip(serial, batched):
            assert len(v_pairs) == len(s_pairs) == k
            for s, v in zip(s_pairs, v_pairs):
                np.testing.assert_array_equal(v.eigenvector, s.eigenvector)
                assert v.eigenvalue == s.eigenvalue
                assert v.eigenvalue_error == s.eigenvalue_error
                assert v.eigenvector_alignment == s.eigenvector_alignment
                assert v.flops == s.flops
                assert v.faults_injected == s.faults_injected

    @pytest.mark.parametrize("variant", ["SGD,LS", "SGD+AS,LS"])
    def test_robust_svm_sgd_batch_matches_serial(self, variant):
        X, y, _ = random_svm_data(40, 4, rng=2010)
        options = sgd_options_for_variant(variant, iterations=40, base_step=0.05)
        serial = [
            robust_svm_train_sgd(X, y, proc, options=options)
            for proc in make_procs()
        ]
        batched = robust_svm_train_sgd_batch(X, y, make_procs(), options=options)
        for s, v in zip(serial, batched):
            np.testing.assert_array_equal(v.weights, s.weights)
            assert v.train_accuracy == s.train_accuracy
            assert v.objective == s.objective
            assert v.flops == s.flops
            assert v.faults_injected == s.faults_injected


class TestVectorizedExecutor:
    def test_registry_capability_dispatch(self):
        sweep = sorting_sweep()
        assert not is_batchable(sweep.trial_functions["Base"])
        assert is_batchable(sweep.trial_functions["SGD"])

    def test_sorting_sweep_bit_identical_to_serial(self):
        """The acceptance scenario: vectorized == serial on a Fig 6.1 sweep."""
        reference = ExperimentEngine("serial").run_sweep(sorting_sweep())
        vectorized = ExperimentEngine("vectorized").run_sweep(sorting_sweep())
        assert [s.values for s in vectorized] == [s.values for s in reference]
        assert [s.name for s in vectorized] == [s.name for s in reference]

    def test_executor_batches_whole_series_across_rates(self):
        calls = []
        trial = make_noisy_sum_trial(n=16)
        original = trial.run_batch

        def counting(procs, streams):
            calls.append(sorted({proc.fault_rate for proc in procs}))
            return original(procs, streams)

        trial.run_batch = counting
        sweep = SweepSpec({"noise": trial}, fault_rates=(0.0, 0.1, 0.4), trials=4, seed=0)
        VectorizedExecutor().run(sweep, sweep.expand())
        # One call for the whole series, spanning every fault rate.
        assert calls == [[0.0, 0.1, 0.4]]

    def test_noisy_sum_identical_across_cell_and_series_batching(self):
        def sweep():
            return SweepSpec(
                {"noise": make_noisy_sum_trial(n=32, ops_per_element=6)},
                fault_rates=(0.0, 0.05, 0.5),
                trials=4,
                seed=13,
            )

        serial = ExperimentEngine("serial").run_sweep(sweep())
        batched = ExperimentEngine("batched").run_sweep(sweep())
        vectorized = ExperimentEngine("vectorized").run_sweep(sweep())
        assert [s.values for s in vectorized] == [s.values for s in serial]
        assert [s.values for s in batched] == [s.values for s in serial]


class TestNewlyBatchedKernelSweeps:
    """Figure 6.3 / 6.6 / §6.2.2 shaped sweeps: vectorized == serial."""

    def test_iir_sweep_bit_identical_to_serial(self):
        def sweep():
            return SweepSpec(
                get_kernel("iir").sweep_functions(
                    iterations=20, signal_length=60, n_taps=4,
                    series={"Base": None, "SGD,LS": "SGD,LS"},
                ),
                fault_rates=(0.0, 0.05, 0.3),
                trials=2,
                seed=2010,
            )

        serial = ExperimentEngine("serial").run_sweep(sweep())
        vectorized = ExperimentEngine("vectorized").run_sweep(sweep())
        assert [s.values for s in vectorized] == [s.values for s in serial]
        assert [s.name for s in vectorized] == [s.name for s in serial]

    def test_cg_least_squares_sweep_bit_identical_to_serial(self):
        def sweep():
            return SweepSpec(
                get_kernel("cg_least_squares").sweep_functions(
                    shape=(40, 6), cg_iterations=8
                ),
                fault_rates=(0.0, 0.01, 0.5),
                trials=2,
                seed=2010,
            )

        functions = sweep().trial_functions
        assert [name for name in functions if is_batchable(functions[name])] == [
            "Base: SVD", "CG, N=8"
        ]
        serial = ExperimentEngine("serial").run_sweep(sweep())
        vectorized = ExperimentEngine("vectorized").run_sweep(sweep())
        assert [s.values for s in vectorized] == [s.values for s in serial]

    def test_momentum_sweep_bit_identical_to_serial(self):
        def sweep():
            return SweepSpec(
                get_kernel("momentum").sweep_functions(iterations=40),
                fault_rates=(0.1,),
                trials=2,
                seed=2010,
            )

        assert all(is_batchable(function) for function in sweep().trial_functions.values())
        serial = ExperimentEngine("serial").run_sweep(sweep())
        vectorized = ExperimentEngine("vectorized").run_sweep(sweep())
        assert [s.values for s in vectorized] == [s.values for s in serial]

    def test_extension_kernel_sweeps_bit_identical_to_serial(self):
        """§4.5–§4.7 shaped sweeps (max-flow, APSP, eigen, SVM): vectorized == serial."""
        def sweeps():
            return [
                SweepSpec(
                    get_kernel("maxflow").sweep_functions(
                        iterations=30, n_nodes=5, n_edges=8, series={"SGD,SQS": "SGD,SQS"}
                    ),
                    fault_rates=(0.0, 0.1), trials=2, seed=2010,
                ),
                SweepSpec(
                    get_kernel("apsp").sweep_functions(
                        iterations=30, n_nodes=4, n_edges=8, series={"SGD,SQS": "SGD,SQS"}
                    ),
                    fault_rates=(0.0, 0.1), trials=2, seed=2010,
                ),
                SweepSpec(
                    get_kernel("eigen").sweep_functions(iterations=20, matrix_size=5),
                    fault_rates=(0.0, 0.3), trials=2, seed=2010,
                ),
                SweepSpec(
                    get_kernel("svm").sweep_functions(
                        iterations=20, n_samples=20, n_features=3
                    ),
                    fault_rates=(0.0, 0.1), trials=2, seed=2010,
                ),
            ]

        for serial_sweep, fast_sweep in zip(sweeps(), sweeps()):
            serial = ExperimentEngine("serial").run_sweep(serial_sweep)
            vectorized = ExperimentEngine("vectorized").run_sweep(fast_sweep)
            assert [s.values for s in vectorized] == [s.values for s in serial]
            assert [s.name for s in vectorized] == [s.name for s in serial]


class TestMixedDtypeBatches:
    """A batch mixing datapath dtypes must not be cast with procs[0].dtype."""

    @staticmethod
    def _mixed_procs():
        models = ["leon3-fpu", "double-precision", "leon3-fpu", "double-precision"]
        return [
            StochasticProcessor(
                fault_rate=0.2, fault_model=model, rng=np.random.default_rng([11, i])
            )
            for i, model in enumerate(models)
        ]

    @staticmethod
    def _streams():
        return [np.random.default_rng([7, i]) for i in range(4)]

    def test_noisy_sum_run_batch_mixed_dtypes_matches_serial(self):
        """Regression: the fused cast used procs[0].dtype for the whole stack,
        silently simulating the float64 trials on a float32 datapath."""
        trial = make_noisy_sum_trial(n=32, ops_per_element=4)
        serial = [
            trial(proc, stream)
            for proc, stream in zip(self._mixed_procs(), self._streams())
        ]
        batched = trial.run_batch(self._mixed_procs(), self._streams())
        assert batched == serial

    def test_mixed_dtype_fallback_preserves_counters(self):
        trial = make_noisy_sum_trial(n=16, ops_per_element=2)
        serial_procs = self._mixed_procs()
        for proc, stream in zip(serial_procs, self._streams()):
            trial(proc, stream)
        batch_procs = self._mixed_procs()
        trial.run_batch(batch_procs, self._streams())
        assert [p.flops for p in batch_procs] == [p.flops for p in serial_procs]
        assert [p.faults_injected for p in batch_procs] == [
            p.faults_injected for p in serial_procs
        ]

    def test_same_dtype_batch_preserves_counters(self):
        """Regression: the fused batch path left fault and injector-op counts at 0."""
        trial = make_noisy_sum_trial(n=32, ops_per_element=4)

        def procs():
            return [
                StochasticProcessor(fault_rate=rate, rng=np.random.default_rng([11, i]))
                for i, rate in enumerate((0.0, 0.1, 0.3, 0.5))
            ]

        serial_procs = procs()
        serial = [trial(proc, stream) for proc, stream in zip(serial_procs, self._streams())]
        batch_procs = procs()
        assert trial.run_batch(batch_procs, self._streams()) == serial
        assert any(p.faults_injected for p in serial_procs)
        assert [p.flops for p in batch_procs] == [p.flops for p in serial_procs]
        assert [p.faults_injected for p in batch_procs] == [
            p.faults_injected for p in serial_procs
        ]
        assert [p.injector.ops_observed for p in batch_procs] == [
            p.injector.ops_observed for p in serial_procs
        ]


class TestTensorHelpers:
    def test_is_batchable(self):
        assert is_batchable(make_noisy_sum_trial())

        def plain(proc, rng):
            return 0.0

        assert not is_batchable(plain)

    def test_make_trial_batch_mirrors_serial_construction(self):
        sweep = sorting_sweep()
        specs = sweep.expand()[:4]
        streams, procs = make_trial_batch(specs)
        assert [proc.fault_rate for proc in procs] == [spec.fault_rate for spec in specs]
        # Streams are the serial streams (make_processor consumes one seed
        # draw, exactly like the serial run_trial path): same next draw.
        expected = []
        for spec in specs:
            stream = spec.make_stream()
            spec.make_processor(stream)
            expected.append(stream.random())
        assert [stream.random() for stream in streams] == expected

    def test_run_tensor_cell_validates(self):
        sweep = sorting_sweep()
        assert run_tensor_cell(sweep, []) == []

        def plain(proc, rng):
            return 0.0

        plain_sweep = SweepSpec({"p": plain}, fault_rates=(0.1,), trials=2)
        with pytest.raises(ValueError, match="no batch implementation"):
            run_tensor_cell(plain_sweep, plain_sweep.expand())

        @batchable(lambda procs, streams: [0.0])
        def bad(proc, rng):
            return 0.0

        bad_sweep = SweepSpec({"b": bad}, fault_rates=(0.1,), trials=3)
        with pytest.raises(ValueError, match="returned 1 values"):
            run_tensor_cell(bad_sweep, bad_sweep.expand())
