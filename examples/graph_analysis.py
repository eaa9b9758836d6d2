"""Robust combinatorial optimization on a faulty processor.

Exercises the three graph applications — maximum-weight bipartite matching
(Section 4.4), maximum flow (Section 4.5), and all-pairs shortest paths
(Section 4.6) — and compares each against its conventional baseline running
on the same unreliable FPU.

Run:  python examples/graph_analysis.py
"""

import repro
from repro.applications.matching import (
    baseline_matching,
    default_matching_config,
    robust_matching,
)
from repro.applications.maxflow import baseline_max_flow, default_maxflow_config, robust_max_flow
from repro.applications.shortest_path import (
    baseline_all_pairs_shortest_path,
    default_apsp_config,
    robust_all_pairs_shortest_path,
)
from repro.workloads.generators import (
    random_bipartite_graph,
    random_flow_network,
    random_weighted_graph,
)

FAULT_RATE = 0.1


def main() -> None:
    # --- Maximum-weight bipartite matching (11 nodes, 30 edges) -------------
    graph = random_bipartite_graph(5, 6, 30, rng=42)
    proc = repro.StochasticProcessor(fault_rate=FAULT_RATE, rng=0)
    config = default_matching_config(iterations=6000, variant="SGD,SQS", graph=graph)
    robust = robust_matching(graph, proc, config)
    baseline = baseline_matching(graph, repro.StochasticProcessor(fault_rate=FAULT_RATE, rng=1))
    print("bipartite matching @ 10% fault rate")
    print(f"  robust  : weight {robust.weight:.2f} / optimal {robust.optimal_weight:.2f}, "
          f"exact = {robust.success}")
    print(f"  baseline: weight {baseline.weight:.2f} / optimal {baseline.optimal_weight:.2f}, "
          f"exact = {baseline.success}")

    # --- Maximum flow --------------------------------------------------------
    network = random_flow_network(8, 16, rng=5)
    config = default_maxflow_config(iterations=5000, network=network)
    robust_flow = robust_max_flow(network, repro.StochasticProcessor(fault_rate=FAULT_RATE, rng=2), config)
    baseline_flow = baseline_max_flow(network, repro.StochasticProcessor(fault_rate=FAULT_RATE, rng=3))
    print("\nmaximum flow @ 10% fault rate")
    print(f"  exact value {robust_flow.exact_value:.2f}")
    print(f"  robust  : {robust_flow.flow_value:.2f} (relative error {robust_flow.relative_error:.2%})")
    print(f"  baseline: {baseline_flow.flow_value:.2f} (relative error {baseline_flow.relative_error:.2%})")

    # --- All-pairs shortest paths --------------------------------------------
    weighted = random_weighted_graph(6, 15, rng=6)
    config = default_apsp_config(iterations=5000, graph=weighted)
    robust_apsp = robust_all_pairs_shortest_path(
        weighted, repro.StochasticProcessor(fault_rate=FAULT_RATE, rng=4), config
    )
    baseline_apsp = baseline_all_pairs_shortest_path(
        weighted, repro.StochasticProcessor(fault_rate=FAULT_RATE, rng=5)
    )
    print("\nall-pairs shortest paths @ 10% fault rate")
    print(f"  robust  : mean relative error {robust_apsp.mean_relative_error:.2%}")
    print(f"  baseline: mean relative error {baseline_apsp.mean_relative_error:.2%}")


if __name__ == "__main__":
    main()
