"""The applications that report their solver's accounting charge it all.

Sorting, matching, max-flow, APSP, the SGD and CG least-squares solvers and
the hinge-loss SVM do all their noisy work in one solver call, so their
results take ``flops`` and ``faults_injected`` from the solver's
:class:`~repro.optimizers.base.OptimizationResult`.  These tests check that
those figures equal the processor counters' change across the whole call,
serial and batched (after ``flush()``).  The serial-vs-batched pins cannot
catch a gap here, because both twins read the same source.
"""

import numpy as np
import pytest

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
from repro.applications.svm import robust_svm_train_sgd, robust_svm_train_sgd_batch
from repro.core.variants import sgd_options_for_variant
from repro.optimizers.conjugate_gradient import CGOptions
from repro.processor.batch import ProcessorBatch
from repro.workloads.generators import (
    random_array,
    random_bipartite_graph,
    random_flow_network,
    random_least_squares,
    random_svm_data,
    random_weighted_graph,
)
from tests.strategies import make_procs

#: ``PRECOND`` and ``ALL`` run the QR-preconditioned pipeline; ``ALL`` and
#: ``SGD+AS,SQS`` hand aggressive-stepping stragglers to the serial solver.
LP_VARIANTS = ["SGD+AS,SQS", "PRECOND", "ALL"]


def _lp_entry_points(variant):
    """Serial and batched entry points of each penalized-LP application."""
    values = random_array(5, rng=2010)
    graph = random_bipartite_graph(4, 5, 14, rng=2010)
    network = random_flow_network(6, 12, rng=2010)
    paths = random_weighted_graph(5, 10, rng=2010)
    sort_config = default_sorting_config(40, variant, values)
    matching_config = default_matching_config(40, variant, graph)
    flow_config = default_maxflow_config(40, variant, network)
    apsp_config = default_apsp_config(40, variant, paths)
    return {
        "sorting": (
            lambda proc: robust_sort(values, proc, sort_config),
            lambda batch: robust_sort_batch(values, batch, sort_config),
        ),
        "matching": (
            lambda proc: robust_matching(graph, proc, matching_config),
            lambda batch: robust_matching_batch(graph, batch, matching_config),
        ),
        "maxflow": (
            lambda proc: robust_max_flow(network, proc, flow_config),
            lambda batch: robust_max_flow_batch(network, batch, flow_config),
        ),
        "apsp": (
            lambda proc: robust_all_pairs_shortest_path(paths, proc, apsp_config),
            lambda batch: robust_all_pairs_shortest_path_batch(
                paths, batch, apsp_config
            ),
        ),
    }


def _numeric_entry_points():
    """Serial and batched entry points of the least-squares and SVM solvers."""
    A, b, _ = random_least_squares(20, 4, rng=2010)
    sgd = sgd_options_for_variant(
        "SGD+AS,LS", iterations=40, base_step=default_least_squares_step(A)
    )
    cg = CGOptions(iterations=6)
    X, y, _ = random_svm_data(30, 4, rng=2010)
    hinge = sgd_options_for_variant("SGD+AS,LS", iterations=40, base_step=0.05)
    return {
        "least_squares_sgd": (
            lambda proc: robust_least_squares_sgd(A, b, proc, options=sgd),
            lambda batch: robust_least_squares_sgd_batch(A, b, batch, options=sgd),
        ),
        "least_squares_cg": (
            lambda proc: robust_least_squares_cg(A, b, proc, options=cg),
            lambda batch: robust_least_squares_cg_batch(A, b, batch, options=cg),
        ),
        "svm": (
            lambda proc: robust_svm_train_sgd(X, y, proc, options=hinge),
            lambda batch: robust_svm_train_sgd_batch(X, y, batch, options=hinge),
        ),
    }


def _cases():
    for variant in LP_VARIANTS:
        for name, pair in _lp_entry_points(variant).items():
            yield pytest.param(pair, id=f"{name}-{variant}")
    for name, pair in _numeric_entry_points().items():
        yield pytest.param(pair, id=name)


def _used_procs():
    """Processors whose counters already hold earlier work.

    A result that reported the running totals instead of the call's share
    would then differ from the counters' change.
    """
    procs = make_procs()
    for proc in procs:
        proc.corrupt(np.ones(64), ops_per_element=3)
    assert all(proc.flops > 0 for proc in procs)
    return procs


def _counters(procs):
    return [(proc.flops, proc.faults_injected) for proc in procs]


@pytest.mark.parametrize("entry_points", list(_cases()))
def test_serial_result_charges_the_counter_change(entry_points):
    serial, _ = entry_points
    charged = []
    for proc in _used_procs():
        flops_start, faults_start = proc.flops, proc.faults_injected
        result = serial(proc)
        charged.append((result.flops, result.faults_injected))
        assert result.flops == proc.flops - flops_start
        assert result.faults_injected == proc.faults_injected - faults_start
    assert all(flops > 0 for flops, _ in charged)
    assert any(faults > 0 for _, faults in charged)


@pytest.mark.parametrize("entry_points", list(_cases()))
def test_batched_results_charge_the_counter_change(entry_points):
    _, batched = entry_points
    batch = ProcessorBatch(_used_procs())
    start = _counters(batch.procs)
    results = batched(batch)
    batch.flush()
    end = _counters(batch.procs)
    assert [(r.flops, r.faults_injected) for r in results] == [
        (flops_end - flops_start, faults_end - faults_start)
        for (flops_start, faults_start), (flops_end, faults_end) in zip(start, end)
    ]
    assert all(result.flops > 0 for result in results)
    assert any(result.faults_injected > 0 for result in results)
