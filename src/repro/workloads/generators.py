"""Random problem-instance generators.

Every generator takes a seeded :class:`numpy.random.Generator` (or a seed) so
that workloads are reproducible across the test suite, the examples, and the
benchmark harness.  The default shapes match the paper's evaluation: 5-element
arrays for sorting, 100×10 least squares, an 11-node / 30-edge bipartite
graph, etc.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.exceptions import ProblemSpecificationError
from repro.workloads.graphs import BipartiteGraph, FlowNetwork, WeightedGraph

__all__ = [
    "as_generator",
    "random_array",
    "random_least_squares",
    "random_bipartite_graph",
    "random_flow_network",
    "random_weighted_graph",
    "random_spd_matrix",
    "random_svm_data",
]

RNGLike = Union[np.random.Generator, int, None]


def as_generator(rng: RNGLike) -> np.random.Generator:
    """Coerce a seed / generator / None into a :class:`numpy.random.Generator`."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def random_array(
    n: int = 5,
    rng: RNGLike = None,
    low: float = 0.0,
    high: float = 10.0,
    min_gap: float = 0.0,
) -> np.ndarray:
    """An array of distinct uniform random values to sort (default: 5 elements).

    ``min_gap`` (a fraction of ``high - low``) enforces a minimum spacing
    between consecutive sorted values.  The exact-success metric of the
    sorting experiments is only meaningful when adjacent values are
    distinguishable under noise, so the figure workloads request a gap of a
    few percent.
    """
    if n < 2:
        raise ProblemSpecificationError("array size must be at least 2")
    if not 0.0 <= min_gap < 1.0 / (n - 1):
        raise ProblemSpecificationError(
            f"min_gap must lie in [0, 1/(n-1)) = [0, {1.0 / (n - 1):.3f})"
        )
    generator = as_generator(rng)
    span = high - low
    while True:
        values = generator.uniform(low, high, size=n)
        gaps = np.diff(np.sort(values))
        # Distinct values leave no zero gap once sorted.  (``np.unique`` would
        # say the same but imports ``numpy.ma`` on its first call.)
        if gaps.min() > 0.0 and (min_gap == 0.0 or gaps.min() >= min_gap * span):
            return values


def random_least_squares(
    m: int = 100,
    n: int = 10,
    rng: RNGLike = None,
    noise: float = 0.1,
    condition_number: Optional[float] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A random overdetermined least-squares instance ``(A, b, x_true)``.

    ``b = A x_true + noise·ε`` with Gaussian ``ε``; when ``condition_number``
    is given the singular values of ``A`` are rescaled geometrically to reach
    it (used by the ill-conditioning ablations).
    """
    if m < n:
        raise ProblemSpecificationError(f"need m >= n, got m={m}, n={n}")
    generator = as_generator(rng)
    A = generator.standard_normal((m, n))
    if condition_number is not None:
        if condition_number < 1:
            raise ProblemSpecificationError("condition number must be >= 1")
        U, _, Vt = np.linalg.svd(A, full_matrices=False)
        singular_values = np.geomspace(condition_number, 1.0, n)
        A = U @ np.diag(singular_values) @ Vt
    x_true = generator.standard_normal(n)
    b = A @ x_true + noise * generator.standard_normal(m)
    return A, b, x_true


def random_bipartite_graph(
    n_left: int = 5,
    n_right: int = 6,
    n_edges: int = 30,
    rng: RNGLike = None,
    weight_low: float = 1.0,
    weight_high: float = 10.0,
) -> BipartiteGraph:
    """A random weighted bipartite graph (default matches the paper: 11 nodes, 30 edges)."""
    generator = as_generator(rng)
    max_edges = n_left * n_right
    if n_edges > max_edges:
        raise ProblemSpecificationError(
            f"cannot place {n_edges} edges in a {n_left}x{n_right} bipartite graph"
        )
    all_pairs = [(u, v) for u in range(n_left) for v in range(n_right)]
    chosen = generator.choice(len(all_pairs), size=n_edges, replace=False)
    edges = tuple(all_pairs[i] for i in chosen)
    weights = tuple(generator.uniform(weight_low, weight_high, size=n_edges))
    return BipartiteGraph(n_left=n_left, n_right=n_right, edges=edges, weights=weights)


def random_flow_network(
    n_nodes: int = 8,
    n_edges: int = 16,
    rng: RNGLike = None,
    capacity_low: float = 1.0,
    capacity_high: float = 10.0,
) -> FlowNetwork:
    """A random directed flow network with a source/sink path guaranteed.

    Node 0 is the source and node ``n_nodes - 1`` the sink; a simple chain
    ``0 → 1 → … → n-1`` is always included so that the maximum flow is
    non-trivial, and the remaining edges are sampled uniformly.
    """
    generator = as_generator(rng)
    source, sink = 0, n_nodes - 1
    edges = [(i, i + 1) for i in range(n_nodes - 1)]
    existing = set(edges)
    candidates = [
        (u, v)
        for u in range(n_nodes)
        for v in range(n_nodes)
        if u != v and (u, v) not in existing and v != source and u != sink
    ]
    extra = max(0, min(n_edges - len(edges), len(candidates)))
    if extra > 0:
        chosen = generator.choice(len(candidates), size=extra, replace=False)
        edges.extend(candidates[i] for i in chosen)
    capacities = tuple(generator.uniform(capacity_low, capacity_high, size=len(edges)))
    return FlowNetwork(
        n_nodes=n_nodes,
        edges=tuple(edges),
        capacities=capacities,
        source=source,
        sink=sink,
    )


def random_weighted_graph(
    n_nodes: int = 6,
    n_edges: int = 15,
    rng: RNGLike = None,
    length_low: float = 1.0,
    length_high: float = 10.0,
) -> WeightedGraph:
    """A random strongly connected directed graph for all-pairs shortest paths.

    A directed cycle through every node is always included so that every pair
    of nodes is reachable (the APSP linear program requires finite distances).
    """
    generator = as_generator(rng)
    edges = [(i, (i + 1) % n_nodes) for i in range(n_nodes)]
    existing = set(edges)
    candidates = [
        (u, v)
        for u in range(n_nodes)
        for v in range(n_nodes)
        if u != v and (u, v) not in existing
    ]
    extra = max(0, min(n_edges - len(edges), len(candidates)))
    if extra > 0:
        chosen = generator.choice(len(candidates), size=extra, replace=False)
        edges.extend(candidates[i] for i in chosen)
    lengths = tuple(generator.uniform(length_low, length_high, size=len(edges)))
    return WeightedGraph(n_nodes=n_nodes, edges=tuple(edges), lengths=lengths)


def random_spd_matrix(n: int = 8, rng: RNGLike = None, condition_number: float = 10.0) -> np.ndarray:
    """A random symmetric positive-definite matrix with a chosen condition number."""
    if condition_number < 1:
        raise ProblemSpecificationError("condition number must be >= 1")
    generator = as_generator(rng)
    Q, _ = np.linalg.qr(generator.standard_normal((n, n)))
    eigenvalues = np.geomspace(condition_number, 1.0, n)
    return Q @ np.diag(eigenvalues) @ Q.T


def random_svm_data(
    n_samples: int = 100,
    n_features: int = 5,
    rng: RNGLike = None,
    margin: float = 0.5,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Linearly separable-ish binary classification data ``(X, y, w_true)``.

    Labels are the sign of ``X w_true`` with a margin buffer; a small fraction
    of points near the boundary keeps the problem from being trivial.
    """
    generator = as_generator(rng)
    w_true = generator.standard_normal(n_features)
    w_true /= np.linalg.norm(w_true)
    X = generator.standard_normal((n_samples, n_features))
    scores = X @ w_true
    # Push points away from the decision boundary by the margin.
    X += margin * np.sign(scores)[:, np.newaxis] * w_true[np.newaxis, :]
    y = np.sign(X @ w_true)
    y[y == 0] = 1.0
    return X, y, w_true
