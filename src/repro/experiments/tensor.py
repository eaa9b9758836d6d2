"""The tensorized trial backend: whole sweep cells as one batched computation.

The serial executor runs a fault-rate sweep as ``n_series × n_rates ×
n_trials`` independent Python calls, so small-workload sweeps (the paper's
5-element sorting arrays, 10×100 least-squares systems) are bounded by
interpreter and numpy call overhead, not arithmetic.  This module turns the
per-trial execution model inside out: the trials of a series — *across every
fault rate and trial index at once* — are stacked into one tensor, their
processors are wrapped in a :class:`~repro.processor.batch.ProcessorBatch`,
and a batch-capable trial function advances all of them together through the
batched application kernels (:func:`~repro.applications.sorting.robust_sort_batch`,
:func:`~repro.applications.least_squares.robust_least_squares_sgd_batch`, or a
custom ``run_batch``).

The layering, bottom to top:

``repro.processor.batch.ProcessorBatch``
    The batched substrate: fused corruption over stacked tensors, drawing
    each trial's fault mask and bit positions from its own generator in the
    order of :func:`repro.faults.vectorized.corrupt_array`, plus the
    row-wise noisy linear-algebra primitives, with per-trial accounting.
``repro.optimizers.sgd.stochastic_gradient_descent_batch`` /
``repro.core.transform.solve_penalized_lp_batch``
    Batched solver drivers (scheduled iterations as one tensor loop;
    data-dependent phases fall back per trial).
``repro.applications.*_batch``
    Batch entry points of the hot application kernels — the sweep suite
    (``robust_sort_batch``, ``robust_least_squares_sgd_batch``,
    ``robust_least_squares_cg_batch``, ``robust_iir_filter_batch``,
    ``robust_matching_batch``) and the extension applications
    (``robust_max_flow_batch``, ``robust_all_pairs_shortest_path_batch``,
    ``robust_eigenpairs_batch``, ``robust_svm_train_sgd_batch``).
*this module*
    Trial-batch construction (:func:`make_trial_batch`) and the cell runner
    (:func:`run_tensor_cell`) used by the ``batched`` and ``vectorized``
    executors.  Batch
    capability itself is declared and inspected in the application-kernel
    registry (:mod:`repro.experiments.kernels`).

Everything is bit-identical to serial execution by construction: a trial's
random streams derive only from its :class:`~repro.experiments.spec.TrialSpec`
coordinates, and every batched kernel consumes those streams in the serial
order.  The executor-equivalence tests assert this end to end, and
``benchmarks/bench_tensor_backend.py`` measures the resulting speedup on the
Figure 6.1 sorting sweep.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.experiments.kernels import batch_implementation
from repro.experiments.spec import SweepSpec, TrialSpec
from repro.processor.batch import ProcessorBatch
from repro.processor.stochastic import StochasticProcessor

__all__ = [
    "ProcessorBatch",
    "make_trial_batch",
    "run_tensor_cell",
]


def make_trial_batch(
    specs: Sequence[TrialSpec],
) -> Tuple[List[np.random.Generator], List[StochasticProcessor]]:
    """Build each trial's private stream and processor, in batch order.

    Streams and processors are constructed exactly as the serial executor
    constructs them (:meth:`TrialSpec.make_stream` /
    :meth:`TrialSpec.make_processor`), so handing them to a batch kernel —
    or to a per-trial fallback — yields bit-identical results.
    """
    streams = [spec.make_stream() for spec in specs]
    procs = [spec.make_processor(stream) for spec, stream in zip(specs, streams)]
    return streams, procs


def run_tensor_cell(sweep: SweepSpec, specs: Sequence[TrialSpec]) -> List[float]:
    """Run one (series, scenario) trial batch — every (fault rate, trial) at once.

    ``specs`` must all belong to one series (and, for scenario grids, one
    scenario — the :class:`~repro.experiments.executors.VectorizedExecutor`
    groups per (series, scenario) sub-batch, since dtype, bit distribution,
    and voltage may vary across scenarios) whose trial function carries a
    ``run_batch`` implementation.  The batch implementation receives one
    processor and one stream per trial (each processor already configured
    with its own spec's fault rate, so a single call spans the whole
    fault-rate grid) and returns one metric value per trial, in spec order.
    """
    if not specs:
        return []
    if len({spec.scenario_index for spec in specs}) != 1:
        raise ValueError(
            "run_tensor_cell received specs from multiple scenarios; "
            "group per (series, scenario) sub-batch"
        )
    function = sweep.trial_functions[specs[0].series_name]
    run_batch = batch_implementation(function)
    if run_batch is None:
        raise ValueError(
            f"series {specs[0].series_name!r} has no batch implementation; "
            "use the per-trial path"
        )
    streams, procs = make_trial_batch(specs)
    values = [float(value) for value in run_batch(procs, streams)]
    if len(values) != len(specs):
        raise ValueError(
            f"run_batch returned {len(values)} values for a batch of "
            f"{len(specs)} trials"
        )
    return values
