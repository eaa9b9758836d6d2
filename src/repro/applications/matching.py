"""Maximum-weight bipartite matching (§4.4) — a fragile combinatorial application.

Given a bipartite graph with edge weights, find the set of edges of maximum
total weight such that every vertex is adjacent to at most one chosen edge.
Conventionally solved with the Hungarian algorithm (the paper's baseline is
OpenCV's implementation; ours is a from-scratch Hungarian executed on the
noisy FPU).  The robust form is the linear program over edge indicator
variables

    max Σ_e w_e x_e   s.t.  x_e ≥ 0,  Σ_{e ∋ u} x_e ≤ 1 ∀u∈U,  Σ_{e ∋ v} x_e ≤ 1 ∀v∈V,

converted to the exact penalty form and minimized by stochastic gradient
descent.  A reliable greedy rounding selects the matching from the relaxed
solution; success (the Figure 6.4/6.5 criterion) means "all the edges are
accurately chosen" — the rounded matching equals the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.applications.assignment import linear_sum_assignment
from repro.core.transform import (
    RobustSolveConfig,
    solve_penalized_lp,
    solve_penalized_lp_batch,
)
from repro.exceptions import ProblemSpecificationError
from repro.optimizers.annealing import PenaltyAnnealing
from repro.optimizers.penalty import PenaltyKind
from repro.optimizers.base import OptimizationResult
from repro.optimizers.problem import LinearConstraints, LinearProgram
from repro.processor.batch import ProcessorBatch
from repro.processor.stochastic import StochasticProcessor
from repro.workloads.graphs import BipartiteGraph

__all__ = [
    "MatchingResult",
    "matching_linear_program",
    "round_to_matching",
    "optimal_matching",
    "matching_margin",
    "robust_matching",
    "robust_matching_batch",
    "baseline_matching",
    "default_matching_config",
]


@dataclass
class MatchingResult:
    """Outcome of a bipartite matching run (robust or baseline).

    ``success`` means the selected edge set equals the true maximum-weight
    matching; ``weight`` and ``optimal_weight`` allow the relative quality to
    be reported as well.
    """

    edges: FrozenSet[Tuple[int, int]]
    weight: float
    optimal_weight: float
    success: bool
    flops: int
    faults_injected: int
    method: str
    optimizer_result: Optional[OptimizationResult] = None


def matching_linear_program(graph: BipartiteGraph) -> LinearProgram:
    """Build the LP over edge indicators for maximum-weight matching.

    Decision variable ``x_e`` for every edge; objective ``min -Σ w_e x_e``;
    constraints: non-negativity and degree ≤ 1 for every left and right
    vertex.
    """
    if graph.n_edges == 0:
        raise ProblemSpecificationError("matching requires at least one edge")
    m = graph.n_edges
    cost = -np.asarray(graph.weights, dtype=np.float64)

    nonneg = -np.eye(m)
    left_degree = np.zeros((graph.n_left, m))
    right_degree = np.zeros((graph.n_right, m))
    for index, (u, v) in enumerate(graph.edges):
        left_degree[u, index] = 1.0
        right_degree[v, index] = 1.0
    A_ub = np.vstack([nonneg, left_degree, right_degree])
    b_ub = np.concatenate(
        [np.zeros(m), np.ones(graph.n_left), np.ones(graph.n_right)]
    )
    constraints = LinearConstraints(A_ub=A_ub, b_ub=b_ub)
    # Start from the (feasible) empty matching; the objective term grows the
    # profitable edges until the degree penalties push back.
    initial = np.zeros(m)
    return LinearProgram(c=cost, constraints=constraints, name="matching", initial_point=initial)


def round_to_matching(
    graph: BipartiteGraph, x: np.ndarray, threshold: float = 0.25
) -> FrozenSet[Tuple[int, int]]:
    """Reliable control-phase rounding of a relaxed edge-indicator vector.

    The relaxed values are treated as affinities and the matching that
    maximizes their total is extracted with an assignment solve (the same
    rounding used for the sorting transformation); selected pairs that are
    not actual graph edges or whose relaxed value falls below ``threshold``
    are dropped, so near-zero edges never enter the matching just to complete
    an assignment.
    """
    x_arr = np.asarray(x, dtype=np.float64).ravel()
    if x_arr.shape[0] != graph.n_edges:
        raise ProblemSpecificationError(
            f"solution has {x_arr.shape[0]} entries, expected {graph.n_edges}"
        )
    sanitized = np.where(np.isfinite(x_arr), x_arr, -1.0)
    affinity = np.full((graph.n_left, graph.n_right), -1.0)
    for index, (u, v) in enumerate(graph.edges):
        affinity[u, v] = max(affinity[u, v], sanitized[index])
    rows, cols = linear_sum_assignment(-affinity)
    edge_set = set(graph.edges)
    selected = {
        (int(u), int(v))
        for u, v in zip(rows, cols)
        if (int(u), int(v)) in edge_set and affinity[u, v] > threshold
    }
    return frozenset(selected)


def optimal_matching(graph: BipartiteGraph) -> Tuple[FrozenSet[Tuple[int, int]], float]:
    """Exact maximum-weight matching computed offline with reliable arithmetic.

    Uses the rectangular assignment problem (non-edges get weight zero) and
    drops zero-weight assignments; with strictly positive edge weights this
    yields the maximum-weight matching.
    """
    weight_matrix = np.zeros((graph.n_left, graph.n_right))
    for (u, v), w in zip(graph.edges, graph.weights):
        weight_matrix[u, v] = max(weight_matrix[u, v], w)
    rows, cols = linear_sum_assignment(-weight_matrix)
    edges = frozenset(
        (int(u), int(v)) for u, v in zip(rows, cols) if weight_matrix[u, v] > 0
    )
    weight = float(sum(weight_matrix[u, v] for u, v in edges))
    return edges, weight


def default_matching_config(
    iterations: int = 10000,
    variant: str = "SGD,LS",
    graph: Optional[BipartiteGraph] = None,
) -> RobustSolveConfig:
    """The solver configuration used for the Figure 6.4/6.5 matching sweeps.

    Uses the L1 exact penalty of Theorem 2 with μ set to twice the largest
    edge weight (above the LP's dual prices, so the penalized minimizer is the
    LP vertex).  Variants with annealing start from μ/8 and grow toward μ in
    stages of roughly one eighth of the iteration budget.
    """
    max_weight = max(graph.weights) if graph is not None else 10.0
    penalty = 2.0 * max_weight
    annealing = PenaltyAnnealing(
        initial_penalty=penalty / 8.0,
        growth_factor=2.0,
        period=max(iterations // 8, 1),
        max_penalty=penalty,
    )
    return RobustSolveConfig(
        variant=variant,
        iterations=iterations,
        base_step=0.03,
        penalty=penalty,
        penalty_kind=PenaltyKind.L1,
        annealing=annealing,
        gradient_clip=1.0e3,
    )


def matching_margin(graph: BipartiteGraph) -> float:
    """Relative weight gap between the optimal matching and the best matching
    that avoids at least one optimal edge.

    A workload with a healthy margin (a few percent) has a well-separated
    optimum; near-degenerate instances make the exact-success metric of
    Figures 6.4/6.5 meaningless because even infinitesimal noise can flip the
    winner.
    """
    opt_edges, opt_weight = optimal_matching(graph)
    if opt_weight <= 0:
        return 0.0
    runner_up = 0.0
    for removed in opt_edges:
        kept = [
            (edge, weight)
            for edge, weight in zip(graph.edges, graph.weights)
            if edge != removed
        ]
        reduced = BipartiteGraph(
            n_left=graph.n_left,
            n_right=graph.n_right,
            edges=tuple(edge for edge, _ in kept),
            weights=tuple(weight for _, weight in kept),
        )
        _, weight = optimal_matching(reduced)
        runner_up = max(runner_up, weight)
    return (opt_weight - runner_up) / opt_weight


def _matching_weight(graph: BipartiteGraph, edges: FrozenSet[Tuple[int, int]]) -> float:
    lookup = {edge: weight for edge, weight in zip(graph.edges, graph.weights)}
    return float(sum(lookup.get(edge, 0.0) for edge in edges))


def _setup(
    graph: BipartiteGraph, config: Optional[RobustSolveConfig]
) -> Tuple[LinearProgram, RobustSolveConfig]:
    """The matching LP and the solver configuration of both twins."""
    lp = matching_linear_program(graph)
    return lp, config if config is not None else default_matching_config(graph=graph)


def _scored(
    graph: BipartiteGraph,
    solution: np.ndarray,
    result: OptimizationResult,
    optimal: Tuple[FrozenSet[Tuple[int, int]], float],
    variant: str,
) -> MatchingResult:
    """Round one relaxed solution to a matching and score it against ``optimal``."""
    optimal_edges, optimal_weight = optimal
    selected = round_to_matching(graph, solution)
    return MatchingResult(
        edges=selected,
        weight=_matching_weight(graph, selected),
        optimal_weight=optimal_weight,
        success=selected == optimal_edges,
        flops=result.flops,
        faults_injected=result.faults_injected,
        method=f"robust[{variant}]",
        optimizer_result=result,
    )


def robust_matching(
    graph: BipartiteGraph,
    proc: StochasticProcessor,
    config: Optional[RobustSolveConfig] = None,
) -> MatchingResult:
    """Maximum-weight matching via the penalized LP on the noisy processor."""
    lp, config = _setup(graph, config)
    solution, result = solve_penalized_lp(lp, proc, config=config)
    return _scored(graph, solution, result, optimal_matching(graph), config.variant)


def robust_matching_batch(
    graph: BipartiteGraph,
    procs: Union[ProcessorBatch, Sequence[StochasticProcessor]],
    config: Optional[RobustSolveConfig] = None,
) -> List[MatchingResult]:
    """Run one robust matching per processor as a single tensorized solve.

    The batch entry point of the tensorized trial backend: the matching LP,
    solver configuration and optimal matching are computed once (they depend
    only on ``graph``), the stochastic solve runs through
    :func:`~repro.core.transform.solve_penalized_lp_batch` as one batched
    numpy loop over every trial's iterate, and only the cheap reliable
    control-phase steps (rounding, success check) run per trial.
    Trial ``t``'s :class:`MatchingResult` is bit-identical to
    ``robust_matching(graph, procs[t], config)``.
    """
    lp, config = _setup(graph, config)
    solutions, results = solve_penalized_lp_batch(lp, procs, config=config)
    optimal = optimal_matching(graph)
    return [
        _scored(graph, solution, result, optimal, config.variant)
        for solution, result in zip(solutions, results)
    ]


def baseline_matching(
    graph: BipartiteGraph, proc: StochasticProcessor
) -> MatchingResult:
    """Maximum-weight matching with the Hungarian algorithm on the noisy FPU."""
    from repro.applications.baselines.hungarian import noisy_hungarian_matching

    flops_before, faults_before = proc.flops, proc.faults_injected
    selected = noisy_hungarian_matching(graph, proc)
    optimal_edges, optimal_weight = optimal_matching(graph)
    weight = _matching_weight(graph, selected)
    return MatchingResult(
        edges=selected,
        weight=weight,
        optimal_weight=optimal_weight,
        success=selected == optimal_edges,
        flops=proc.flops - flops_before,
        faults_injected=proc.faults_injected - faults_before,
        method="baseline-hungarian",
    )
