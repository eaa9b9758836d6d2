"""Maximum flow (§4.5) — reduction to linear programming.

The max-flow value from a source ``s`` to a sink ``t`` in a capacitated
network is the optimum of the linear program (eqs. 4.6–4.9):

    minimize  Σ_v −F_sv
    s.t.      Σ_u F_uv − Σ_u F_vu = 0      ∀ v ∉ {s, t}     (conservation)
              F_uv ≤ C_uv                  ∀ (u,v) ∈ E       (capacity)
              −F_uv ≤ 0                    ∀ (u,v) ∈ E       (non-negativity)

The paper describes this transformation but does not evaluate it on the FPGA;
we implement it as an extension experiment using the same penalized-LP solve
pipeline, and compare against a Ford–Fulkerson (Edmonds–Karp) baseline
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
from repro.metrics.quality import relative_error
from repro.optimizers.base import OptimizationResult
from repro.optimizers.problem import LinearConstraints, LinearProgram
from repro.processor.batch import ProcessorBatch
from repro.processor.stochastic import StochasticProcessor
from repro.workloads.graphs import FlowNetwork

__all__ = [
    "MaxFlowResult",
    "maxflow_linear_program",
    "exact_max_flow",
    "robust_max_flow",
    "robust_max_flow_batch",
    "baseline_max_flow",
    "default_maxflow_config",
]

#: Conservation and capacity slack a feasible flow may show, as a fraction of
#: the largest capacity (robust and baseline results alike).
_FEASIBILITY_TOLERANCE = 0.05


@dataclass
class MaxFlowResult:
    """Outcome of a max-flow computation (robust or baseline).

    ``relative_error`` compares the computed flow value against the exact
    maximum flow computed offline; ``feasible`` reports whether the (clipped)
    flow satisfies conservation and capacity constraints to a tolerance.
    """

    flow_value: float
    exact_value: float
    relative_error: float
    feasible: bool
    flow: np.ndarray
    flops: int
    faults_injected: int
    method: str
    optimizer_result: Optional[OptimizationResult] = None


def maxflow_linear_program(network: FlowNetwork) -> LinearProgram:
    """Build the eqs. (4.6)–(4.9) linear program over edge flows."""
    m = network.n_edges
    if m == 0:
        raise ProblemSpecificationError("flow network has no edges")
    cost = np.zeros(m)
    for index, (u, _) in enumerate(network.edges):
        if u == network.source:
            cost[index] = -1.0

    interior = [
        v for v in range(network.n_nodes) if v not in (network.source, network.sink)
    ]
    A_eq = np.zeros((len(interior), m))
    for row, v in enumerate(interior):
        for index, (a, b) in enumerate(network.edges):
            if b == v:
                A_eq[row, index] += 1.0
            if a == v:
                A_eq[row, index] -= 1.0
    b_eq = np.zeros(len(interior))

    capacity = np.eye(m)
    nonneg = -np.eye(m)
    A_ub = np.vstack([capacity, nonneg])
    b_ub = np.concatenate([np.asarray(network.capacities, dtype=np.float64), np.zeros(m)])

    constraints = LinearConstraints(
        A_eq=A_eq if interior else None,
        b_eq=b_eq if interior else None,
        A_ub=A_ub,
        b_ub=b_ub,
    )
    initial = np.zeros(m)
    return LinearProgram(c=cost, constraints=constraints, name="maxflow", initial_point=initial)


def exact_max_flow(network: FlowNetwork) -> float:
    """Exact maximum-flow value computed offline (reliable Edmonds–Karp)."""
    from repro.applications.baselines.ford_fulkerson import edmonds_karp_reference

    return edmonds_karp_reference(network)


def default_maxflow_config(
    iterations: int = 5000,
    variant: str = "SGD,SQS",
    network: Optional[FlowNetwork] = None,
) -> RobustSolveConfig:
    """Default solver configuration for the max-flow extension experiment.

    Uses the L1 exact penalty with μ above the LP's dual prices (the min-cut
    edges have duals of one per unit of capacity, so a small multiple of the
    largest capacity is sufficient).
    """
    from repro.optimizers.penalty import PenaltyKind

    max_capacity = max(network.capacities) if network is not None else 10.0
    penalty = 3.0 * max(max_capacity, 1.0)
    return RobustSolveConfig(
        variant=variant,
        iterations=iterations,
        base_step=0.1,
        penalty=penalty,
        penalty_kind=PenaltyKind.L1,
        gradient_clip=1.0e3,
    )


def _flow_value(network: FlowNetwork, flow: np.ndarray) -> float:
    value = 0.0
    for index, (u, v) in enumerate(network.edges):
        if u == network.source:
            value += flow[index]
        if v == network.source:
            value -= flow[index]
    return float(value)


def _is_feasible(network: FlowNetwork, flow: np.ndarray, tolerance: float) -> bool:
    capacities = np.asarray(network.capacities, dtype=np.float64)
    if np.any(flow < -tolerance) or np.any(flow > capacities + tolerance):
        return False
    for v in range(network.n_nodes):
        if v in (network.source, network.sink):
            continue
        balance = 0.0
        for index, (a, b) in enumerate(network.edges):
            if b == v:
                balance += flow[index]
            if a == v:
                balance -= flow[index]
        if abs(balance) > tolerance:
            return False
    return True


def _setup(
    network: FlowNetwork, config: Optional[RobustSolveConfig]
) -> Tuple[LinearProgram, RobustSolveConfig]:
    """The flow LP and the solver configuration of both twins."""
    lp = maxflow_linear_program(network)
    return lp, config if config is not None else default_maxflow_config(network=network)


def _scored(
    network: FlowNetwork,
    solution: np.ndarray,
    result: OptimizationResult,
    exact: float,
    variant: str,
) -> MaxFlowResult:
    """Clip one relaxed solution into ``[0, capacity]`` and score its flow.

    The clipping is reliable control-phase work done before the flow value
    is read out.
    """
    capacities = np.asarray(network.capacities, dtype=np.float64)
    flow = np.clip(np.where(np.isfinite(solution), solution, 0.0), 0.0, capacities)
    value = _flow_value(network, flow)
    scale = float(np.max(capacities))
    return MaxFlowResult(
        flow_value=value,
        exact_value=exact,
        relative_error=relative_error(value, exact),
        feasible=_is_feasible(network, flow, _FEASIBILITY_TOLERANCE * scale),
        flow=flow,
        flops=result.flops,
        faults_injected=result.faults_injected,
        method=f"robust[{variant}]",
        optimizer_result=result,
    )


def robust_max_flow(
    network: FlowNetwork,
    proc: StochasticProcessor,
    config: Optional[RobustSolveConfig] = None,
) -> MaxFlowResult:
    """Maximum flow via the penalized LP on the noisy processor."""
    lp, config = _setup(network, config)
    solution, result = solve_penalized_lp(lp, proc, config=config)
    return _scored(network, solution, result, exact_max_flow(network), config.variant)


def robust_max_flow_batch(
    network: FlowNetwork,
    procs: Union[ProcessorBatch, Sequence[StochasticProcessor]],
    config: Optional[RobustSolveConfig] = None,
) -> List[MaxFlowResult]:
    """Run one robust max-flow per processor as a single tensorized solve.

    The batch entry point of the tensorized trial backend: like
    :func:`~repro.applications.matching.robust_matching_batch`, the flow LP,
    solver configuration and exact flow value are computed once (they depend
    only on ``network``), the stochastic solve runs through
    :func:`~repro.core.transform.solve_penalized_lp_batch` as one masked
    batched numpy loop over every trial's iterate, and only the cheap
    reliable control-phase steps (clipping into ``[0, capacity]``, the flow
    value read-out, the feasibility check) run per trial.  Trial ``t``'s
    :class:`MaxFlowResult` is bit-identical to
    ``robust_max_flow(network, procs[t], config)``.
    """
    lp, config = _setup(network, config)
    solutions, results = solve_penalized_lp_batch(lp, procs, config=config)
    exact = exact_max_flow(network)
    return [
        _scored(network, solution, result, exact, config.variant)
        for solution, result in zip(solutions, results)
    ]


def baseline_max_flow(network: FlowNetwork, proc: StochasticProcessor) -> MaxFlowResult:
    """Maximum flow via Ford–Fulkerson (Edmonds–Karp) on the noisy FPU."""
    from repro.applications.baselines.ford_fulkerson import noisy_edmonds_karp

    flops_before, faults_before = proc.flops, proc.faults_injected
    flow_matrix, value = noisy_edmonds_karp(network, proc)
    exact = exact_max_flow(network)
    flow = np.asarray(
        [flow_matrix[u, v] for (u, v) in network.edges], dtype=np.float64
    )
    # Not relative_error(value, exact): for a scalar its norm is sqrt(d * d),
    # and d * d goes subnormal below ~1.5e-154, where it loses bits, and
    # reaches 0 below ~1.6e-162; abs(d) keeps them, so moving this score
    # onto it is a value change of its own.
    if np.isfinite(value):
        error = abs(value - exact) / max(abs(exact), np.finfo(float).tiny)
    else:
        error = float("inf")
    scale = float(np.max(np.asarray(network.capacities)))
    feasible = np.all(np.isfinite(flow)) and _is_feasible(
        network, flow, _FEASIBILITY_TOLERANCE * scale
    )
    return MaxFlowResult(
        flow_value=float(value),
        exact_value=exact,
        relative_error=error,
        feasible=bool(feasible),
        flow=flow,
        flops=proc.flops - flops_before,
        faults_injected=proc.faults_injected - faults_before,
        method="baseline-edmonds-karp",
    )
