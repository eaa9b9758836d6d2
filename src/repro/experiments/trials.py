"""Reusable synthetic trial functions for the experiment engine.

These microworkloads exercise the engine's executors without dragging in a
full application solve.  :func:`make_noisy_sum_trial` additionally carries a
vectorized batch implementation (via
:func:`~repro.experiments.kernels.batchable`) that corrupts whole trial
batches in one :class:`~repro.processor.batch.ProcessorBatch` pass, making it
the reference workload for batched-executor equivalence tests.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.experiments.kernels import batchable
from repro.experiments.spec import TrialFunction
from repro.processor.batch import ProcessorBatch
from repro.processor.stochastic import StochasticProcessor

__all__ = ["make_noisy_sum_trial", "make_gradient_descent_trial"]


def make_noisy_sum_trial(n: int = 256, ops_per_element: int = 8) -> TrialFunction:
    """A trial that sums a corrupted random vector; batchable.

    The serial path draws a vector from the trial stream, corrupts it on the
    processor, and returns the sum.  The attached batch implementation stacks
    every trial of the batch and corrupts the whole stack in one
    :meth:`ProcessorBatch.corrupt` pass — each row with its own processor's
    generator and fault rate, in the serial draw order, advancing the same
    FLOP and fault counters — so results are bit-identical whether the
    executor batches one (series, rate) cell (``batched``) or a whole series
    across the rate grid (``vectorized``).  A batch whose processors mix
    datapath dtypes cannot share the fused cast and falls back to per-trial
    serial execution (still bit-identical).
    """

    def run_batch(
        procs: List[StochasticProcessor], streams: List[np.random.Generator]
    ) -> List[float]:
        if len({proc.dtype for proc in procs}) != 1:
            # A stacked tensor has one dtype, so a batch mixing datapath
            # precisions (e.g. float32 and float64 fault models) cannot share
            # the fused cast of ProcessorBatch.  Fall back to the serial
            # per-trial path, which casts each trial with its own
            # processor's dtype and is bit-identical by definition.
            return [trial(proc, stream) for proc, stream in zip(procs, streams)]
        batch = ProcessorBatch(procs)
        corrupted = batch.corrupt(
            np.stack([stream.random(n) for stream in streams]), ops_per_element
        )
        batch.flush()
        return [float(np.sum(row)) for row in corrupted]

    @batchable(run_batch)
    def trial(proc: StochasticProcessor, stream: np.random.Generator) -> float:
        corrupted = proc.corrupt(stream.random(n), ops_per_element=ops_per_element)
        return float(np.sum(corrupted))

    return trial


def make_gradient_descent_trial(
    dim: int = 64, iterations: int = 60, workload_seed: int = 0
) -> TrialFunction:
    """A compute-heavy SGD-like trial for executor throughput benchmarks.

    Runs a fixed number of noisy gradient steps on a random quadratic; the
    per-trial cost is dominated by matrix-vector products, which is the cost
    profile of the paper's robust solvers.  Deterministic given the trial's
    processor and stream.
    """
    workload_rng = np.random.default_rng(workload_seed)
    basis = workload_rng.standard_normal((dim, dim)) / np.sqrt(dim)
    matrix = basis @ basis.T + np.eye(dim)
    target = workload_rng.standard_normal(dim)

    def trial(proc: StochasticProcessor, stream: np.random.Generator) -> float:
        x = stream.standard_normal(dim)
        step = 0.05
        for _ in range(iterations):
            gradient = proc.corrupt(matrix @ x - target, ops_per_element=2 * dim)
            x = x - step * gradient
            x = np.clip(x, -1e6, 1e6)
        residual = matrix @ x - target
        return float(np.sqrt(np.sum(residual**2)))

    return trial
