"""All-pairs shortest paths (§4.6) — reduction to linear programming.

The all-pairs shortest-path distances ``D`` of a directed graph with edge
lengths ``L`` are the optimum of the linear program (eqs. 4.10–4.12):

    minimize  Σ_ij −D_ij
    s.t.      D_vv = 0                        ∀ v ∈ V
              D_uw − D_uv − L_vw ≤ 0          ∀ u ∈ V, ∀ (v,w) ∈ E

(maximize the distances subject to the triangle inequalities; at the optimum
each ``D_ij`` equals the true shortest-path distance).  Like max-flow, the
paper describes this transformation without evaluating it on the FPGA; we
implement it as an extension experiment against a Floyd–Warshall baseline
executed on the noisy FPU.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.transform import (
    RobustSolveConfig,
    solve_penalized_lp,
    solve_penalized_lp_batch,
)
from repro.exceptions import ProblemSpecificationError
from repro.optimizers.base import OptimizationResult
from repro.optimizers.problem import LinearConstraints, LinearProgram
from repro.processor.batch import ProcessorBatch
from repro.processor.stochastic import StochasticProcessor
from repro.workloads.graphs import WeightedGraph

__all__ = [
    "ShortestPathResult",
    "apsp_linear_program",
    "exact_all_pairs_shortest_path",
    "robust_all_pairs_shortest_path",
    "robust_all_pairs_shortest_path_batch",
    "baseline_all_pairs_shortest_path",
    "default_apsp_config",
]


@dataclass
class ShortestPathResult:
    """Outcome of an all-pairs shortest-path computation.

    ``mean_relative_error`` averages ``|D_ij − D*_ij| / D*_ij`` over all pairs
    with ``i ≠ j``; ``success`` requires the maximum relative error to stay
    below a tolerance (exact distances for the baseline, near-exact for the
    relaxation).
    """

    distances: np.ndarray
    exact_distances: np.ndarray
    mean_relative_error: float
    max_relative_error: float
    success: bool
    flops: int
    faults_injected: int
    method: str
    optimizer_result: Optional[OptimizationResult] = None


def apsp_linear_program(graph: WeightedGraph) -> LinearProgram:
    """Build the eqs. (4.10)–(4.12) linear program over the distance matrix.

    Decision variables are the entries of ``D`` flattened row-major
    (``D_ij`` = distance from ``i`` to ``j``).
    """
    n = graph.n_nodes
    m = graph.n_edges
    if m == 0:
        raise ProblemSpecificationError("graph has no edges")
    n_vars = n * n
    cost = -np.ones(n_vars)

    # Equalities: D_vv = 0.
    A_eq = np.zeros((n, n_vars))
    for v in range(n):
        A_eq[v, v * n + v] = 1.0
    b_eq = np.zeros(n)

    # Triangle inequalities: D_uw - D_uv <= L_vw for every source u and edge (v, w).
    A_ub = np.zeros((n * m, n_vars))
    b_ub = np.zeros(n * m)
    row = 0
    for u in range(n):
        for (v, w), length in zip(graph.edges, graph.lengths):
            A_ub[row, u * n + w] = 1.0
            A_ub[row, u * n + v] -= 1.0
            b_ub[row] = length
            row += 1

    constraints = LinearConstraints(A_eq=A_eq, b_eq=b_eq, A_ub=A_ub, b_ub=b_ub)
    initial = np.zeros(n_vars)
    return LinearProgram(c=cost, constraints=constraints, name="apsp", initial_point=initial)


def exact_all_pairs_shortest_path(graph: WeightedGraph) -> np.ndarray:
    """Exact APSP distances computed offline (reliable Floyd–Warshall)."""
    D = graph.length_matrix(missing=np.inf)
    n = graph.n_nodes
    for k in range(n):
        D = np.minimum(D, D[:, k][:, np.newaxis] + D[k, :][np.newaxis, :])
    return D


def default_apsp_config(
    iterations: int = 5000,
    variant: str = "SGD,SQS",
    graph: Optional[WeightedGraph] = None,
) -> RobustSolveConfig:
    """Default solver configuration for the APSP extension experiment.

    Uses the L1 exact penalty; a triangle-inequality constraint for edge
    ``(v, w)`` can be tight for every source ``u`` simultaneously, so the
    penalty scales with the number of nodes.
    """
    from repro.optimizers.penalty import PenaltyKind

    n_nodes = graph.n_nodes if graph is not None else 6
    return RobustSolveConfig(
        variant=variant,
        iterations=iterations,
        base_step=0.1,
        penalty=3.0 * n_nodes,
        penalty_kind=PenaltyKind.L1,
        gradient_clip=1.0e3,
    )


def _score(
    graph: WeightedGraph,
    distances: np.ndarray,
    method: str,
    flops: int,
    faults: int,
    success_tolerance: float,
    optimizer_result: Optional[OptimizationResult] = None,
) -> ShortestPathResult:
    exact = exact_all_pairs_shortest_path(graph)
    n = graph.n_nodes
    off_diagonal = ~np.eye(n, dtype=bool)
    reachable = off_diagonal & np.isfinite(exact)
    if np.all(np.isfinite(distances[reachable])):
        relative = np.abs(distances[reachable] - exact[reachable]) / np.maximum(
            exact[reachable], np.finfo(float).tiny
        )
        mean_error = float(relative.mean())
        max_error = float(relative.max())
    else:
        mean_error = float("inf")
        max_error = float("inf")
    return ShortestPathResult(
        distances=distances,
        exact_distances=exact,
        mean_relative_error=mean_error,
        max_relative_error=max_error,
        success=bool(max_error <= success_tolerance),
        flops=flops,
        faults_injected=faults,
        method=method,
        optimizer_result=optimizer_result,
    )


def _setup(
    graph: WeightedGraph, config: Optional[RobustSolveConfig]
) -> Tuple[LinearProgram, RobustSolveConfig]:
    """The triangle-inequality LP and the solver configuration of both twins."""
    lp = apsp_linear_program(graph)
    return lp, config if config is not None else default_apsp_config(graph=graph)


def _scored(
    graph: WeightedGraph,
    solution: np.ndarray,
    result: OptimizationResult,
    variant: str,
    success_tolerance: float,
) -> ShortestPathResult:
    """Score one relaxed solution as a distance matrix (non-finite entries NaN)."""
    distances = np.where(np.isfinite(solution), solution, np.nan).reshape(
        graph.n_nodes, graph.n_nodes
    )
    return _score(
        graph,
        distances,
        method=f"robust[{variant}]",
        flops=result.flops,
        faults=result.faults_injected,
        success_tolerance=success_tolerance,
        optimizer_result=result,
    )


def robust_all_pairs_shortest_path(
    graph: WeightedGraph,
    proc: StochasticProcessor,
    config: Optional[RobustSolveConfig] = None,
    success_tolerance: float = 0.05,
) -> ShortestPathResult:
    """APSP via the penalized LP on the noisy processor."""
    lp, config = _setup(graph, config)
    solution, result = solve_penalized_lp(lp, proc, config=config)
    return _scored(graph, solution, result, config.variant, success_tolerance)


def robust_all_pairs_shortest_path_batch(
    graph: WeightedGraph,
    procs: Union[ProcessorBatch, Sequence[StochasticProcessor]],
    config: Optional[RobustSolveConfig] = None,
    success_tolerance: float = 0.05,
) -> List[ShortestPathResult]:
    """Run one robust APSP solve per processor as a single tensorized solve.

    The batch entry point of the tensorized trial backend: the triangle-
    inequality LP and solver configuration are built once (they depend only
    on ``graph``), the stochastic solve runs through
    :func:`~repro.core.transform.solve_penalized_lp_batch` — the same masked
    batched path the matching and max-flow kernels share — and only the
    cheap reliable scoring runs per trial.  Trial ``t``'s
    :class:`ShortestPathResult` is bit-identical to
    ``robust_all_pairs_shortest_path(graph, procs[t], config,
    success_tolerance)``.
    """
    lp, config = _setup(graph, config)
    solutions, results = solve_penalized_lp_batch(lp, procs, config=config)
    return [
        _scored(graph, solution, result, config.variant, success_tolerance)
        for solution, result in zip(solutions, results)
    ]


def baseline_all_pairs_shortest_path(
    graph: WeightedGraph,
    proc: StochasticProcessor,
    success_tolerance: float = 1e-5,
) -> ShortestPathResult:
    """APSP via Floyd–Warshall executed on the noisy FPU."""
    from repro.applications.baselines.floyd_warshall import noisy_floyd_warshall

    flops_before, faults_before = proc.flops, proc.faults_injected
    distances = noisy_floyd_warshall(graph, proc)
    return _score(
        graph,
        distances,
        method="baseline-floyd-warshall",
        flops=proc.flops - flops_before,
        faults=proc.faults_injected - faults_before,
        success_tolerance=success_tolerance,
    )
