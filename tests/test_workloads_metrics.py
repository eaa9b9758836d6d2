"""Tests for workload generators, graph structures, and quality metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ProblemSpecificationError
from repro.metrics.quality import (
    is_valid_sorted_output,
    mean_squared_error,
    relative_error,
    success_rate,
    successes,
)
from repro.metrics.statistics import summarize
from repro.workloads.generators import (
    random_array,
    random_bipartite_graph,
    random_flow_network,
    random_least_squares,
    random_spd_matrix,
    random_svm_data,
    random_weighted_graph,
)
from repro.workloads.graphs import BipartiteGraph, FlowNetwork, WeightedGraph
from repro.workloads.signals import chirp_signal, random_stable_iir, sum_of_sinusoids, white_noise


class TestGraphStructures:
    def test_bipartite_graph_validation(self):
        with pytest.raises(ProblemSpecificationError):
            BipartiteGraph(2, 2, edges=((0, 0), (0, 0)), weights=(1.0, 1.0))
        with pytest.raises(ProblemSpecificationError):
            BipartiteGraph(2, 2, edges=((0, 5),), weights=(1.0,))
        with pytest.raises(ProblemSpecificationError):
            BipartiteGraph(2, 2, edges=((0, 0),), weights=(-1.0,))

    def test_bipartite_weight_matrix(self):
        graph = BipartiteGraph(2, 3, edges=((0, 1), (1, 2)), weights=(2.0, 3.0))
        W = graph.weight_matrix()
        assert W.shape == (2, 3)
        assert W[0, 1] == 2.0 and W[1, 2] == 3.0
        assert graph.n_edges == 2 and graph.n_vertices == 5

    def test_flow_network_validation(self):
        with pytest.raises(ProblemSpecificationError):
            FlowNetwork(3, edges=((0, 0),), capacities=(1.0,), source=0, sink=2)
        with pytest.raises(ProblemSpecificationError):
            FlowNetwork(3, edges=((0, 1),), capacities=(1.0,), source=0, sink=0)

    def test_flow_network_helpers(self):
        network = FlowNetwork(3, edges=((0, 1), (1, 2)), capacities=(2.0, 3.0), source=0, sink=2)
        assert network.capacity_matrix()[0, 1] == 2.0
        assert network.adjacency()[1] == [2]

    def test_weighted_graph_length_matrix(self):
        graph = WeightedGraph(3, edges=((0, 1), (1, 2)), lengths=(1.0, 2.0))
        L = graph.length_matrix()
        assert L[0, 1] == 1.0
        assert L[0, 2] == np.inf
        assert L[1, 1] == 0.0


class TestGenerators:
    def test_random_array_distinct_and_gapped(self):
        values = random_array(6, rng=0, min_gap=0.05)
        assert values.size == 6
        gaps = np.diff(np.sort(values))
        assert gaps.min() >= 0.05 * 10.0

    def test_random_array_validation(self):
        with pytest.raises(ProblemSpecificationError):
            random_array(1)
        with pytest.raises(ProblemSpecificationError):
            random_array(5, min_gap=0.5)

    # 0.08 is the sorting figures' gap; the 8-ulp span makes repeated values
    # common, so the distinctness rule rejects draws there.
    @pytest.mark.parametrize(
        "low, high, min_gap",
        [(0.0, 10.0, 0.0), (0.0, 10.0, 0.08), (1.0, 1.0 + 8 * np.finfo(float).eps, 0.0)],
    )
    def test_random_array_matches_unique_rule(self, low, high, min_gap):
        def unique_rule(generator):
            while True:
                values = generator.uniform(low, high, size=5)
                gaps = np.diff(np.sort(values))
                if np.unique(values).size == 5 and (
                    min_gap == 0.0 or gaps.min() >= min_gap * (high - low)
                ):
                    return values

        for seed in range(200):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            np.testing.assert_array_equal(
                random_array(5, ours, low, high, min_gap), unique_rule(theirs)
            )
            # Both rules rejected the same draws.
            assert ours.bit_generator.state == theirs.bit_generator.state

    def test_random_least_squares_shapes_and_condition(self):
        A, b, x_true = random_least_squares(40, 6, rng=1, condition_number=50.0)
        assert A.shape == (40, 6) and b.shape == (40,) and x_true.shape == (6,)
        assert np.linalg.cond(A) == pytest.approx(50.0, rel=1e-6)
        with pytest.raises(ProblemSpecificationError):
            random_least_squares(5, 10)

    def test_random_bipartite_graph_matches_paper_shape(self):
        graph = random_bipartite_graph(rng=0)
        assert graph.n_vertices == 11
        assert graph.n_edges == 30
        with pytest.raises(ProblemSpecificationError):
            random_bipartite_graph(2, 2, 10)

    def test_random_flow_network_has_path(self):
        network = random_flow_network(rng=0)
        assert (0, 1) in network.edges  # chain guarantees source-sink connectivity
        assert network.source == 0 and network.sink == network.n_nodes - 1

    def test_random_weighted_graph_strongly_connected(self):
        graph = random_weighted_graph(6, 15, rng=0)
        from repro.applications.shortest_path import exact_all_pairs_shortest_path

        distances = exact_all_pairs_shortest_path(graph)
        assert np.all(np.isfinite(distances))

    def test_random_spd_matrix(self):
        M = random_spd_matrix(6, rng=0, condition_number=8.0)
        eigenvalues = np.linalg.eigvalsh(M)
        assert eigenvalues.min() > 0
        assert eigenvalues.max() / eigenvalues.min() == pytest.approx(8.0, rel=1e-6)

    def test_random_svm_data_labels(self):
        X, y, w = random_svm_data(50, 4, rng=0)
        assert set(np.unique(y)).issubset({-1.0, 1.0})
        assert X.shape == (50, 4)


class TestSignals:
    def test_sum_of_sinusoids_length(self):
        assert sum_of_sinusoids(100).shape == (100,)

    def test_white_noise_scale(self):
        noise = white_noise(5000, rng=0, scale=2.0)
        assert 1.5 < noise.std() < 2.5

    def test_chirp_bounded(self):
        chirp = chirp_signal(200)
        assert np.max(np.abs(chirp)) <= 1.0

    def test_random_stable_iir_is_stable(self):
        filt = random_stable_iir(10, rng=0, pole_radius=0.9)
        roots = np.roots(filt.feedback)
        assert np.all(np.abs(roots) < 1.0)
        assert filt.feedback[0] == 1.0

    def test_signal_validation(self):
        with pytest.raises(ProblemSpecificationError):
            sum_of_sinusoids(0)
        with pytest.raises(ProblemSpecificationError):
            random_stable_iir(1)


class TestQualityMetrics:
    def test_success_rate(self):
        assert success_rate([1.0, 0.0, 1.0, 1.0]) == 0.75
        assert successes([1.0, 0.0, float("nan"), 0.5]) == 2
        assert np.isnan(success_rate([]))

    def test_relative_error(self):
        assert relative_error(np.ones(3), np.ones(3)) == 0.0
        assert relative_error(np.array([np.nan]), np.ones(1)) == float("inf")
        assert relative_error(2 * np.ones(4), np.ones(4)) == pytest.approx(1.0)
        # A finite difference whose square overflows keeps its value.
        assert relative_error(np.array([1e200]), np.ones(1)) == 1e200
        assert relative_error(-3e160, 1.0) == (3e160 + 1.0) / 1.0
        huge = relative_error(np.array([3e160, 4e160]), np.ones(2))
        assert huge == pytest.approx(5e160 / np.sqrt(2.0))

    def test_error_to_signal_and_mse(self):
        y = np.array([1.0, 2.0])
        assert relative_error(y, y) == 0.0
        assert mean_squared_error(y, np.zeros(2)) == pytest.approx(2.5)
        assert mean_squared_error(np.array([np.inf, 0.0]), y) == float("inf")

    def test_is_valid_sorted_output(self):
        original = np.array([3.0, 1.0, 2.0])
        assert is_valid_sorted_output(np.array([1.0, 2.0, 3.0]), original)
        assert not is_valid_sorted_output(np.array([1.0, 3.0, 2.0]), original)
        assert not is_valid_sorted_output(np.array([1.0, 2.0, 4.0]), original)
        assert not is_valid_sorted_output(np.array([1.0, np.nan, 3.0]), original)

    @given(st.lists(st.booleans(), min_size=1, max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_success_rate_bounds_property(self, outcomes):
        rate = success_rate([float(outcome) for outcome in outcomes])
        assert 0.0 <= rate <= 1.0
        assert rate == pytest.approx(sum(outcomes) / len(outcomes))


class TestStatistics:
    def test_summarize_basic(self):
        summary = summarize([1.0, 2.0, 3.0])
        assert summary.mean == pytest.approx(2.0)
        assert summary.median == 2.0
        assert summary.n_trials == 3
        assert summary.n_failed == 0
        assert "mean" in str(summary)

    def test_summarize_with_failures(self):
        summary = summarize([1.0, np.inf, np.nan, 3.0])
        assert summary.n_failed == 2
        assert summary.mean == pytest.approx(2.0)

    def test_summarize_all_failed(self):
        summary = summarize([np.nan, np.inf])
        assert summary.n_failed == 2
        assert np.isnan(summary.mean)
