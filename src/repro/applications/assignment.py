"""Exact linear sum assignment for the reliable control-phase rounding.

The sorting (§4.3) and matching (§4.4) transformations round their relaxed
LP solutions with an assignment solve on matrices of a few rows.  This is a
pure-Python port of the shortest augmenting path method (Crouse, "On
implementing 2D rectangular assignment algorithms", IEEE TAES 52(4), 2016)
as SciPy's ``linear_sum_assignment`` implements it.  It keeps that
implementation's scan order, tie rules and floating-point operation order,
so it returns the same ``(rows, cols)`` for every input, and the rounding
step does not import SciPy.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

__all__ = ["linear_sum_assignment"]


def linear_sum_assignment(cost) -> Tuple[np.ndarray, np.ndarray]:
    """Minimum-cost assignment of the rows of ``cost`` to distinct columns.

    Returns ``(rows, cols)`` as int64 arrays with ``rows`` ascending, one
    pair per row of a wide matrix or per column of a tall one.  ``+inf``
    marks a forbidden pair.  Raises :class:`ValueError` for a non-2-D input,
    for NaN or ``-inf`` entries, and when no assignment avoids every
    forbidden pair.
    """
    matrix = np.asarray(cost, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"expected a matrix (2-D array), got a {matrix.ndim}-D array")
    if matrix.size == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    # The method assigns every row, so a tall matrix is solved transposed.
    transpose = matrix.shape[1] < matrix.shape[0]
    if transpose:
        matrix = matrix.T
    # NaN and -inf both fail this comparison.
    if not (matrix > -math.inf).all():
        raise ValueError("matrix contains invalid numeric entries")
    n_rows, n_cols = matrix.shape
    rows = matrix.tolist()
    u = [0.0] * n_rows
    v = [0.0] * n_cols
    path = [-1] * n_cols
    col4row = [-1] * n_rows
    row4col = [-1] * n_cols

    for current in range(n_rows):
        # Dijkstra-like search for the shortest augmenting path from
        # ``current`` over the reduced costs.
        shortest = [math.inf] * n_cols
        # Columns are scanned from the last index down, so a constant cost
        # matrix gives the identity assignment.
        remaining = list(range(n_cols - 1, -1, -1))
        visited_rows = []
        visited_cols = []
        min_val = 0.0
        i = current
        sink = -1
        while sink == -1:
            visited_rows.append(i)
            row, u_i = rows[i], u[i]
            index = -1
            lowest = math.inf
            for it, j in enumerate(remaining):
                reduced = min_val + row[j] - u_i - v[j]
                distance = shortest[j]
                if reduced < distance:
                    path[j] = i
                    shortest[j] = distance = reduced
                # Among equally short columns prefer an unassigned one: it
                # ends the path (this matters for integer costs with ties).
                if distance < lowest or (distance == lowest and row4col[j] == -1):
                    lowest = distance
                    index = it
            min_val = lowest
            if min_val == math.inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            visited_cols.append(j)
            remaining[index] = remaining[-1]
            del remaining[-1]

        # Update the dual variables.
        u[current] += min_val
        for i in visited_rows[1:]:
            u[i] += min_val - shortest[col4row[i]]
        for j in visited_cols:
            v[j] -= min_val - shortest[j]

        # Augment the previous solution along the path.
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == current:
                break

    if transpose:
        order = sorted(range(n_rows), key=col4row.__getitem__)
        return (
            np.array([col4row[k] for k in order], dtype=np.int64),
            np.array(order, dtype=np.int64),
        )
    return np.arange(n_rows, dtype=np.int64), np.array(col4row, dtype=np.int64)
