"""The application-kernel registry: one declarative layer for the whole suite.

Every workload of the paper's evaluation is sweep-shaped — a grid of
(fault rate × trial) cells per named series — and every executor question
("can this series run on the tensorized backend?", "which figure does this
kernel reproduce?", "what are its reduced-scale parameters?") used to be
answered by hand-maintained tables scattered across the figure generators,
the benchmark modules, and ``examples/reproduce_figures.py``.  This module
collapses that coupling into one registry:

* **Capability dispatch.**  :func:`batchable` attaches a vectorized batch
  implementation to a trial function; :func:`batch_implementation` /
  :func:`is_batchable` are the *only* places that capability is inspected.
  Executors route through these helpers instead of threading a flag through
  every plan object.
* **Trial-function factories.**  Each paper workload (sorting §4.3, least
  squares §4.1, IIR §4.2, matching §4.4, CG least squares §3.3, the §6.2.2
  momentum study) and each extension application (max-flow §4.5, all-pairs
  shortest paths §4.6, eigenpairs and SVM training §4.7) builds its series
  label → trial-function mapping here, with the batch tier wired in where
  the application exposes one.
* **Kernel specs.**  :class:`KernelSpec` records, under a stable name, each
  kernel's figure name and presentation metadata, metric, series line-up,
  workload factory, reduced-scale floor, and the paper value of every
  parameter its figure takes (``defaults``).  :meth:`KernelSpec.build` runs
  every sweep figure — a fault-rate sweep, a cross-model study or a voltage
  study — from that one registration; only the non-sweep figures keep a
  builder in :mod:`repro.experiments.figures`.
  ``examples/reproduce_figures.py``, ``benchmarks/conftest.py``,
  ``scripts/bench_all.py``, and the figure cache key derivation all consume
  this registry instead of parallel tables.

The registry is populated at import time; :func:`get_kernel` /
:func:`list_kernels` are the lookup API.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from typing import Any, Callable, Dict, List, Mapping, Optional

import numpy as np

from repro.applications.eigen import robust_eigenpairs, robust_eigenpairs_batch
from repro.applications.iir import (
    baseline_iir_filter,
    baseline_iir_filter_batch,
    robust_iir_filter,
    robust_iir_filter_batch,
)
from repro.applications.least_squares import (
    baseline_least_squares,
    baseline_svd_least_squares_batch,
    default_least_squares_step,
    robust_least_squares_cg,
    robust_least_squares_cg_batch,
    robust_least_squares_sgd,
    robust_least_squares_sgd_batch,
)
from repro.applications.matching import (
    baseline_matching,
    default_matching_config,
    matching_margin,
    robust_matching,
    robust_matching_batch,
)
from repro.applications.maxflow import (
    baseline_max_flow,
    default_maxflow_config,
    robust_max_flow,
    robust_max_flow_batch,
)
from repro.applications.shortest_path import (
    baseline_all_pairs_shortest_path,
    default_apsp_config,
    robust_all_pairs_shortest_path,
    robust_all_pairs_shortest_path_batch,
)
from repro.applications.sorting import (
    baseline_sort,
    default_sorting_config,
    robust_sort,
    robust_sort_batch,
)
from repro.applications.svm import (
    default_svm_step,
    robust_svm_train,
    robust_svm_train_sgd,
    robust_svm_train_sgd_batch,
)
from repro.core.variants import sgd_options_for_variant
from repro.experiments.results import FigureResult, SeriesResult
from repro.experiments.spec import DEFAULT_FAULT_RATES, SweepSpec, TrialFunction
from repro.optimizers.conjugate_gradient import CGOptions
from repro.processor.stochastic import StochasticProcessor
from repro.workloads.generators import (
    random_array,
    random_bipartite_graph,
    random_flow_network,
    random_least_squares,
    random_spd_matrix,
    random_svm_data,
    random_weighted_graph,
)
from repro.workloads.signals import random_stable_iir, sum_of_sinusoids

__all__ = [
    "WORKLOAD_SEED",
    "DEFAULT_CROSS_MODEL_SCENARIOS",
    "DEFAULT_CROSS_MODEL_RATES",
    "DEFAULT_STUDY_VOLTAGES",
    "workload_memo_stats",
    "clear_workload_memo",
    "batchable",
    "batch_implementation",
    "is_batchable",
    "KernelSpec",
    "register_kernel",
    "get_kernel",
    "kernel_names",
    "list_kernels",
    "sweep_kernels",
    "matching_workload",
    "sorting_trial_functions",
    "least_squares_trial_functions",
    "iir_trial_functions",
    "matching_trial_functions",
    "cg_least_squares_trial_functions",
    "momentum_trial_functions",
    "eigen_trial_functions",
    "maxflow_trial_functions",
    "apsp_trial_functions",
    "svm_trial_functions",
]

#: Workload seed shared by every figure so results are reproducible.
WORKLOAD_SEED = 2010

#: Scenario presets compared by the cross-fault-model studies.
DEFAULT_CROSS_MODEL_SCENARIOS = (
    "nominal",
    "measured-bits",
    "low-order-seu",
    "double-precision-64",
)

#: Fault-rate grid of the cross-fault-model studies (the paper's low /
#: moderate / extreme operating points).
DEFAULT_CROSS_MODEL_RATES = (0.01, 0.1, 0.5)

#: Voltage operating points of the voltage-vs-quality studies; the fault
#: rate at each point comes from the Figure 5.2 voltage/error-rate curve.
DEFAULT_STUDY_VOLTAGES = (0.80, 0.75, 0.70, 0.65, 0.60)

#: Parameters that shape a sweep figure's grid (trial count, workload seed,
#: and its rate, scenario or voltage axis) rather than its workload; every
#: other entry of a sweep kernel's ``defaults`` is a workload-factory
#: parameter.
_GRID_PARAMETERS = frozenset(
    ("trials", "seed", "fault_rates", "fault_rate", "scenarios", "voltages")
)

# ---------------------------------------------------------------------------
# Workload-construction memo
# ---------------------------------------------------------------------------
# Building a kernel's trial functions regenerates its workload (matrices,
# graphs, signals) from the workload seed — pure but not free.  Search
# drivers and repeated probes resolve the same (kernel, seed, factory
# parameters) many times per process, so ``KernelSpec.sweep_functions``
# memoizes per process.  Safe because trial functions are deterministic
# closures over immutable workload data keyed by grid coordinates; callers
# get a fresh dict each time so mutating the mapping cannot poison the memo.
_WORKLOAD_MEMO: Dict[Any, Dict[str, "TrialFunction"]] = {}
_WORKLOAD_MEMO_STATS = {"hits": 0, "misses": 0}


def workload_memo_stats() -> Dict[str, int]:
    """Per-process hit/miss counters of the workload-construction memo."""
    return dict(_WORKLOAD_MEMO_STATS)


def clear_workload_memo() -> None:
    """Drop memoized workloads and reset the counters (tests, benchmarks)."""
    _WORKLOAD_MEMO.clear()
    _WORKLOAD_MEMO_STATS["hits"] = 0
    _WORKLOAD_MEMO_STATS["misses"] = 0


# --------------------------------------------------------------------------- #
# Capability dispatch
# --------------------------------------------------------------------------- #
def batchable(run_batch: Callable) -> Callable:
    """Attach a vectorized batch implementation to a trial function.

    ``run_batch(procs, streams)`` receives one processor and one random
    stream per trial — constructed exactly as the serial path constructs
    them — and returns one metric value per trial.  The implementation must
    corrupt each trial's data with that trial's own generator (see
    :class:`repro.processor.batch.ProcessorBatch`) so that the batched result
    stays bit-identical to serial execution.

    The ``batched`` executor calls ``run_batch`` once per (series,
    fault-rate) cell, so every processor in a call shares one fault rate; the
    ``vectorized`` executor calls it once per *series* with the whole
    (fault-rate × trials) grid, so implementations must read each processor's
    own ``fault_rate`` rather than assuming ``procs[0]`` speaks for the batch.
    """

    def attach(function: Callable) -> Callable:
        function.run_batch = run_batch
        return function

    return attach


def batch_implementation(function: Callable) -> Optional[Callable]:
    """The trial function's vectorized batch implementation, or ``None``.

    This is the single capability probe of the executor stack: trial
    functions opt in through :func:`batchable`, and every executor routes by
    asking this function rather than carrying its own flag.
    """
    run_batch = getattr(function, "run_batch", None)
    return run_batch if callable(run_batch) else None


def is_batchable(function: Callable) -> bool:
    """Whether a trial function declares a vectorized batch implementation."""
    return batch_implementation(function) is not None


# --------------------------------------------------------------------------- #
# Workload factories
# --------------------------------------------------------------------------- #
def matching_workload(seed: int, min_margin: float = 0.02):
    """The 11-node / 30-edge matching workload of Figures 6.4 and 6.5.

    Random bipartite instances can have a near-degenerate optimum (two
    matchings within a fraction of a percent of each other), which makes the
    exact-success metric meaningless; we therefore advance the seed until the
    instance's optimal matching has a relative margin of at least
    ``min_margin`` over the best matching that avoids one of its edges.
    """
    for offset in range(64):
        graph = random_bipartite_graph(5, 6, 30, rng=seed + offset)
        if matching_margin(graph) >= min_margin:
            return graph
    return random_bipartite_graph(5, 6, 30, rng=seed)


# --------------------------------------------------------------------------- #
# Trial-function factories (series label -> batch-capable trial function)
# --------------------------------------------------------------------------- #
def _trial_pair(
    solve: Callable, solve_batch: Callable, score: Callable[[Any], float]
) -> TrialFunction:
    """A batch-capable trial function from one solver pair and its metric.

    ``solve(proc, rng)`` runs one trial's solve and ``solve_batch(procs,
    streams)`` runs a whole batch of them; ``score`` maps one solve's result
    to the trial value, so the serial and batched paths score identically.
    """

    def run(proc: StochasticProcessor, rng: np.random.Generator) -> float:
        return score(solve(proc, rng))

    def run_batch(procs, streams):
        return [score(result) for result in solve_batch(procs, streams)]

    return batchable(run_batch)(run)


def _success(result) -> float:
    """The exact-success metric: 1.0 when the solve found the exact answer."""
    return 1.0 if result.success else 0.0


def sorting_trial_functions(
    values: np.ndarray,
    iterations: int,
    series: Optional[Mapping[str, Optional[str]]] = None,
) -> Dict[str, TrialFunction]:
    """The Figure 6.1 trial functions: series label -> batch-capable trial.

    ``series`` maps each series label to a robust solver variant, or to
    ``None`` for the noisy-comparison-sort baseline; the default is the
    figure's "Base" / "SGD" / "SGD+AS,LS" / "SGD+AS,SQS" line-up.  Robust
    series carry a :func:`batchable` implementation backed by
    :func:`~repro.applications.sorting.robust_sort_batch`, so the ``batched``
    and ``vectorized`` executors advance whole trial batches as one tensor
    computation (bit-identical to serial execution).
    """
    if series is None:
        series = {
            "Base": None,
            "SGD": "SGD,LS",
            "SGD+AS,LS": "SGD+AS,LS",
            "SGD+AS,SQS": "SGD+AS,SQS",
        }
    values = np.asarray(values, dtype=np.float64)

    def _base(proc: StochasticProcessor, rng: np.random.Generator) -> float:
        return _success(baseline_sort(values, proc))

    def _robust(variant: str) -> TrialFunction:
        config = partial(
            default_sorting_config, iterations=iterations, variant=variant, values=values
        )
        return _trial_pair(
            lambda proc, rng: robust_sort(values, proc, config()),
            lambda procs, streams: robust_sort_batch(values, procs, config()),
            _success,
        )

    return {
        label: _base if variant is None else _robust(variant)
        for label, variant in series.items()
    }


def _svd_baseline(A: np.ndarray, b: np.ndarray) -> TrialFunction:
    """The ``Base: SVD`` trial: the noisy one-sided Jacobi least-squares solve.

    It batches through
    :func:`~repro.applications.least_squares.baseline_svd_least_squares_batch`.
    """
    return _trial_pair(
        lambda proc, rng: baseline_least_squares(A, b, proc, method="svd"),
        lambda procs, streams: baseline_svd_least_squares_batch(A, b, procs),
        attrgetter("relative_error"),
    )


def least_squares_trial_functions(
    A: np.ndarray,
    b: np.ndarray,
    iterations: int,
    series: Optional[Mapping[str, Optional[str]]] = None,
) -> Dict[str, TrialFunction]:
    """The Figure 6.2 trial functions: SGD variants vs the SVD baseline.

    Robust series batch through
    :func:`~repro.applications.least_squares.robust_least_squares_sgd_batch`,
    and the SVD baseline through
    :func:`~repro.applications.least_squares.baseline_svd_least_squares_batch`.
    """
    if series is None:
        series = {"Base: SVD": None, "SGD,LS": "SGD,LS", "SGD+AS,LS": "SGD+AS,LS"}
    base_step = default_least_squares_step(A)
    _svd = _svd_baseline(A, b)

    def _sgd(variant: str) -> TrialFunction:
        options = partial(
            sgd_options_for_variant, variant, iterations=iterations, base_step=base_step
        )
        return _trial_pair(
            lambda proc, rng: robust_least_squares_sgd(A, b, proc, options=options()),
            lambda procs, streams: robust_least_squares_sgd_batch(
                A, b, procs, options=options()
            ),
            attrgetter("relative_error"),
        )

    return {
        label: _svd if variant is None else _sgd(variant)
        for label, variant in series.items()
    }


def iir_trial_functions(
    filt,
    signal: np.ndarray,
    iterations: int,
    series: Optional[Mapping[str, Optional[str]]] = None,
) -> Dict[str, TrialFunction]:
    """The Figure 6.3 trial functions: variational IIR vs the direct form.

    Robust series batch through
    :func:`~repro.applications.iir.robust_iir_filter_batch` (batched SGD over
    the preconditioned banded least-squares form, initialized by the batched
    noisy direct form).  The direct-form ``Base`` batches through
    :func:`~repro.applications.iir.baseline_iir_filter_batch`, every trial's
    recursion on one scalar-FPU batch.
    """
    if series is None:
        series = {
            "Base": None,
            "SGD,LS": "SGD,LS",
            "SGD+AS,LS": "SGD+AS,LS",
            "SGD+AS,SQS": "SGD+AS,SQS",
        }
    signal = np.asarray(signal, dtype=np.float64).ravel()
    _base = _trial_pair(
        lambda proc, rng: baseline_iir_filter(filt, signal, proc),
        lambda procs, streams: baseline_iir_filter_batch(filt, signal, procs),
        attrgetter("error_to_signal"),
    )

    def _robust(variant: str) -> TrialFunction:
        options = partial(
            sgd_options_for_variant, variant, iterations=iterations, base_step=0.25
        )
        return _trial_pair(
            lambda proc, rng: robust_iir_filter(filt, signal, proc, options=options()),
            lambda procs, streams: robust_iir_filter_batch(
                filt, signal, procs, options=options()
            ),
            attrgetter("error_to_signal"),
        )

    return {
        label: _base if variant is None else _robust(variant)
        for label, variant in series.items()
    }


def matching_trial_functions(
    graph,
    iterations: int,
    series: Optional[Mapping[str, Optional[str]]] = None,
) -> Dict[str, TrialFunction]:
    """The Figure 6.4/6.5 trial functions: penalized-LP matching vs Hungarian.

    ``series`` maps labels to solver variants (``None`` = the noisy Hungarian
    baseline); the default is the Figure 6.4 line-up, and Figure 6.5 passes
    its enhancement-ablation mapping.  Robust series batch through
    :func:`~repro.applications.matching.robust_matching_batch`.
    """
    if series is None:
        series = {
            "Base": None,
            "SGD,LS": "SGD,LS",
            "SGD+AS,LS": "SGD+AS,LS",
            "SGD+AS,SQS": "SGD+AS,SQS",
        }

    def _base(proc: StochasticProcessor, rng: np.random.Generator) -> float:
        return _success(baseline_matching(graph, proc))

    def _robust(variant: str) -> TrialFunction:
        config = partial(
            default_matching_config, iterations=iterations, variant=variant, graph=graph
        )
        return _trial_pair(
            lambda proc, rng: robust_matching(graph, proc, config()),
            lambda procs, streams: robust_matching_batch(graph, procs, config()),
            _success,
        )

    return {
        label: _base if variant is None else _robust(variant)
        for label, variant in series.items()
    }


def cg_least_squares_trial_functions(
    A: np.ndarray,
    b: np.ndarray,
    cg_iterations: int = 10,
) -> Dict[str, TrialFunction]:
    """The Figure 6.6 trial functions: restarted CG vs the decompositions.

    The CG series batches through
    :func:`~repro.applications.least_squares.robust_least_squares_cg_batch`
    (the masked-batch CGNR driver) and the SVD baseline through
    :func:`~repro.applications.least_squares.baseline_svd_least_squares_batch`
    (a masked-batch Jacobi solve); the QR and Cholesky baselines run per
    trial.
    """

    def _baseline(method: str):
        def run(proc: StochasticProcessor, rng: np.random.Generator) -> float:
            return baseline_least_squares(A, b, proc, method=method).relative_error

        return run

    options = partial(CGOptions, iterations=cg_iterations)

    return {
        "Base: QR": _baseline("qr"),
        "Base: SVD": _svd_baseline(A, b),
        "Base: Cholesky": _baseline("cholesky"),
        f"CG, N={cg_iterations}": _trial_pair(
            lambda proc, rng: robust_least_squares_cg(A, b, proc, options=options()),
            lambda procs, streams: robust_least_squares_cg_batch(
                A, b, procs, options=options()
            ),
            attrgetter("relative_error"),
        ),
    }


def maxflow_trial_functions(
    network,
    iterations: int,
    series: Optional[Mapping[str, Optional[str]]] = None,
) -> Dict[str, TrialFunction]:
    """The §4.5 max-flow trial functions: penalized LP vs noisy Edmonds–Karp.

    ``series`` maps labels to solver variants (``None`` = the Ford–Fulkerson
    baseline executed on the noisy FPU).  Robust series batch through
    :func:`~repro.applications.maxflow.robust_max_flow_batch` — the same
    masked-batch :func:`~repro.core.transform.solve_penalized_lp_batch` path
    the matching kernel uses.  The metric is the relative error of the flow
    value against the exact maximum flow (lower is better).
    """
    if series is None:
        series = {"Base": None, "SGD,SQS": "SGD,SQS", "SGD+AS,SQS": "SGD+AS,SQS"}

    def _base(proc: StochasticProcessor, rng: np.random.Generator) -> float:
        return baseline_max_flow(network, proc).relative_error

    def _robust(variant: str) -> TrialFunction:
        config = partial(
            default_maxflow_config, iterations=iterations, variant=variant, network=network
        )
        return _trial_pair(
            lambda proc, rng: robust_max_flow(network, proc, config()),
            lambda procs, streams: robust_max_flow_batch(network, procs, config()),
            attrgetter("relative_error"),
        )

    return {
        label: _base if variant is None else _robust(variant)
        for label, variant in series.items()
    }


def apsp_trial_functions(
    graph,
    iterations: int,
    series: Optional[Mapping[str, Optional[str]]] = None,
) -> Dict[str, TrialFunction]:
    """The §4.6 all-pairs shortest-path trial functions: LP vs Floyd–Warshall.

    ``series`` maps labels to solver variants (``None`` = Floyd–Warshall on
    the noisy FPU).  Robust series batch through
    :func:`~repro.applications.shortest_path.robust_all_pairs_shortest_path_batch`
    over the shared masked-batch LP path.  The metric is the mean relative
    distance error against the exact APSP distances (lower is better).
    """
    if series is None:
        series = {"Base": None, "SGD,SQS": "SGD,SQS", "SGD+AS,SQS": "SGD+AS,SQS"}

    def _base(proc: StochasticProcessor, rng: np.random.Generator) -> float:
        return baseline_all_pairs_shortest_path(graph, proc).mean_relative_error

    def _robust(variant: str) -> TrialFunction:
        config = partial(
            default_apsp_config, iterations=iterations, variant=variant, graph=graph
        )
        return _trial_pair(
            lambda proc, rng: robust_all_pairs_shortest_path(graph, proc, config()),
            lambda procs, streams: robust_all_pairs_shortest_path_batch(
                graph, procs, config()
            ),
            attrgetter("mean_relative_error"),
        )

    return {
        label: _base if variant is None else _robust(variant)
        for label, variant in series.items()
    }


def eigen_trial_functions(
    M: np.ndarray,
    iterations: int,
    series: Optional[Mapping[str, int]] = None,
) -> Dict[str, TrialFunction]:
    """The §4.7 eigenpair trial functions: Rayleigh-quotient ascent + deflation.

    ``series`` maps labels to the number of eigenpairs ``k`` extracted by
    deflation; the default compares the top pair alone against a two-pair
    deflation run.  Every series batches through
    :func:`~repro.applications.eigen.robust_eigenpairs_batch` (batched power
    iterations over per-trial deflated matrices).  The metric is the worst
    relative eigenvalue error over the ``k`` extracted pairs (lower is
    better).
    """
    if series is None:
        series = {"Power, k=1": 1, "Power+deflation, k=2": 2}
    M = np.asarray(M, dtype=np.float64)

    def _worst_error(pairs) -> float:
        return max(pair.eigenvalue_error for pair in pairs)

    def _make(k: int) -> TrialFunction:
        return _trial_pair(
            lambda proc, rng: robust_eigenpairs(M, k, proc, iterations=iterations, rng=rng),
            lambda procs, streams: robust_eigenpairs_batch(
                M, k, procs, iterations=iterations, rngs=streams
            ),
            _worst_error,
        )

    return {label: _make(k) for label, k in series.items()}


def svm_trial_functions(
    X: np.ndarray,
    y: np.ndarray,
    iterations: int,
    series: Optional[Mapping[str, Optional[str]]] = None,
    regularization: float = 0.01,
) -> Dict[str, TrialFunction]:
    """The §4.7 SVM trial functions: hinge-loss SGD vs the Pegasos trainer.

    ``series`` maps labels to solver variants (``None`` = the per-sample
    Pegasos trainer, whose data-dependent sampling has no batch tier).
    Robust series batch through
    :func:`~repro.applications.svm.robust_svm_train_sgd_batch` (batched
    full-batch hinge-loss subgradient descent).  The metric is the training
    accuracy of the learned separator (higher is better).
    """
    if series is None:
        series = {"Base: Pegasos": None, "SGD,LS": "SGD,LS", "SGD+AS,LS": "SGD+AS,LS"}
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    base_step = default_svm_step(X, regularization)

    def _pegasos(proc: StochasticProcessor, rng: np.random.Generator) -> float:
        return robust_svm_train(
            X, y, proc, iterations=iterations,
            regularization=regularization, rng=rng,
        ).train_accuracy

    def _sgd(variant: str) -> TrialFunction:
        options = partial(
            sgd_options_for_variant, variant, iterations=iterations, base_step=base_step
        )
        return _trial_pair(
            lambda proc, rng: robust_svm_train_sgd(
                X, y, proc, options=options(), regularization=regularization
            ),
            lambda procs, streams: robust_svm_train_sgd_batch(
                X, y, procs, options=options(), regularization=regularization
            ),
            attrgetter("train_accuracy"),
        )

    return {
        label: _pegasos if variant is None else _sgd(variant)
        for label, variant in series.items()
    }


def momentum_trial_functions(
    values: np.ndarray, graph, iterations: int
) -> Dict[str, TrialFunction]:
    """The §6.2.2 momentum-study trial functions (sorting and matching).

    A relabelled composition of :func:`sorting_trial_functions` and
    :func:`matching_trial_functions`, so all four series inherit their batch
    tier (:func:`~repro.applications.sorting.robust_sort_batch` /
    :func:`~repro.applications.matching.robust_matching_batch`).
    """
    return {
        **sorting_trial_functions(values, iterations, {
            "sorting (no momentum)": "SGD,LS",
            "sorting (momentum 0.5)": "MOMENTUM",
        }),
        **matching_trial_functions(graph, iterations, {
            "matching (no momentum)": "SGD,LS",
            "matching (momentum 0.5)": "MOMENTUM",
        }),
    }


# --------------------------------------------------------------------------- #
# Workload factories (workload construction + trial functions).  They hold no
# defaults: KernelSpec.sweep_functions fills every parameter a caller leaves
# out from the kernel's registered paper values, and ``series=None`` selects
# the trial-function builder's own line-up.
# --------------------------------------------------------------------------- #
_LineUp = Optional[Mapping[str, Any]]


def sorting_kernel(
    *, iterations: int, array_size: int, seed: int, series: _LineUp
) -> Dict[str, TrialFunction]:
    """Build the Figure 6.1 sorting workload and its trial functions."""
    values = random_array(array_size, rng=seed, min_gap=0.08)
    return sorting_trial_functions(values, iterations, series)


def least_squares_kernel(
    *, iterations: int, shape: tuple, seed: int, series: _LineUp
) -> Dict[str, TrialFunction]:
    """Build the Figure 6.2 least-squares workload and its trial functions."""
    A, b, _ = random_least_squares(shape[0], shape[1], rng=seed)
    return least_squares_trial_functions(A, b, iterations, series)


def iir_kernel(
    *, iterations: int, signal_length: int, n_taps: int, seed: int, series: _LineUp
) -> Dict[str, TrialFunction]:
    """Build the Figure 6.3 IIR workload and its trial functions."""
    filt = random_stable_iir(n_taps, rng=seed, pole_radius=0.8)
    signal = sum_of_sinusoids(signal_length)
    return iir_trial_functions(filt, signal, iterations, series)


def matching_kernel(
    *, iterations: int, seed: int, series: _LineUp
) -> Dict[str, TrialFunction]:
    """Build the Figure 6.4/6.5 matching workload and its trial functions."""
    graph = matching_workload(seed)
    return matching_trial_functions(graph, iterations, series)


def cg_least_squares_kernel(
    *, cg_iterations: int, shape: tuple, seed: int
) -> Dict[str, TrialFunction]:
    """Build the Figure 6.6 CG least-squares workload and its trial functions."""
    A, b, _ = random_least_squares(shape[0], shape[1], rng=seed)
    return cg_least_squares_trial_functions(A, b, cg_iterations)


def momentum_kernel(*, iterations: int, seed: int) -> Dict[str, TrialFunction]:
    """Build the §6.2.2 momentum-study workloads and trial functions."""
    values = random_array(5, rng=seed, min_gap=0.08)
    graph = matching_workload(seed)
    return momentum_trial_functions(values, graph, iterations)


def eigen_kernel(
    *, iterations: int, matrix_size: int, condition_number: float, seed: int,
    series: _LineUp,
) -> Dict[str, TrialFunction]:
    """Build the §4.7 eigenpair workload and its trial functions."""
    M = random_spd_matrix(matrix_size, rng=seed, condition_number=condition_number)
    return eigen_trial_functions(M, iterations, series)


def maxflow_kernel(
    *, iterations: int, n_nodes: int, n_edges: int, seed: int, series: _LineUp
) -> Dict[str, TrialFunction]:
    """Build the §4.5 max-flow workload and its trial functions."""
    network = random_flow_network(n_nodes, n_edges, rng=seed)
    return maxflow_trial_functions(network, iterations, series)


def apsp_kernel(
    *, iterations: int, n_nodes: int, n_edges: int, seed: int, series: _LineUp
) -> Dict[str, TrialFunction]:
    """Build the §4.6 all-pairs shortest-path workload and its trial functions."""
    graph = random_weighted_graph(n_nodes, n_edges, rng=seed)
    return apsp_trial_functions(graph, iterations, series)


def svm_kernel(
    *, iterations: int, n_samples: int, n_features: int, regularization: float,
    seed: int, series: _LineUp,
) -> Dict[str, TrialFunction]:
    """Build the §4.7 SVM workload and its trial functions."""
    X, y, _ = random_svm_data(n_samples, n_features, rng=seed)
    return svm_trial_functions(X, y, iterations, series, regularization=regularization)


# --------------------------------------------------------------------------- #
# Kernel specs and the registry
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class KernelSpec:
    """Declarative description of one registered application kernel.

    Attributes
    ----------
    name:
        Stable registry name (``"sorting"``, ``"cg_least_squares"``, ...).
    figure:
        The figure's name (``"figure_6_1"``, ``"momentum_study"``, ...): a
        lookup alias of :func:`get_kernel` and part of every figure cache
        key.  A non-sweep kernel's builder in :mod:`repro.experiments.figures`
        carries this name (resolved lazily so the registry can be imported
        below the figure layer).
    figure_id / title:
        Presentation metadata of the generated :class:`FigureResult`.
    x_label / y_label:
        Axis labels; ``title`` may contain ``str.format`` placeholders
        (e.g. ``{iterations}``) filled by :meth:`make_figure`.
    metric:
        ``"success_rate"`` (report per-rate success fractions) or ``"mean"``.
    series:
        The series line-up the kernel's figure plots, when it differs from
        the trial factory's default (e.g. the Figure 6.5 enhancement
        ablation, or the scenario studies' baseline-vs-best pair).
        :meth:`sweep_functions` applies it, so the figure, an ad-hoc grid
        and a campaign over the kernel all run the same series.
    trial_factory:
        The workload factory building the series label → trial-function
        mapping (sweep kernels only).
    min_iterations:
        Floor applied to the scaled budget (the numerical kernels stay at
        ≥500 iterations so their solves still converge at reduced scale).
    reduce_trials:
        Optional adjustment of the requested trial count at reduced scale
        (e.g. the Figure 6.7 energy search uses one fewer trial).
    defaults:
        The paper value of every parameter the figure takes: exactly the
        names :meth:`build` accepts (sweep kernels also take ``engine``),
        and the base of every cache key (:meth:`cache_params`).

    ``sweep`` derives from ``trial_factory``; ``takes_trials``,
    ``takes_engine``, ``scenario_study`` and ``paper_iterations`` from
    ``defaults``.
    """

    name: str
    figure: str
    figure_id: str
    title: str
    x_label: str = ""
    y_label: str = ""
    metric: str = "mean"
    series: Optional[Mapping[str, Optional[str]]] = None
    trial_factory: Optional[Callable[..., Dict[str, TrialFunction]]] = None
    min_iterations: int = 0
    reduce_trials: Optional[Callable[[int], int]] = None
    defaults: Mapping[str, Any] = field(default_factory=dict)

    @property
    def use_success_rate(self) -> bool:
        """Whether tables of this kernel report per-rate success fractions."""
        return self.metric == "success_rate"

    @property
    def sweep(self) -> bool:
        """Whether the figure runs a fault-rate sweep through the engine."""
        return self.trial_factory is not None

    @property
    def takes_engine(self) -> bool:
        """Whether :meth:`build` accepts an ``engine`` keyword.

        True for every sweep kernel, and for non-sweep builders that still
        run trials through the engine (e.g. ``figure_5_2``'s Monte-Carlo
        scenario grid), so CLI executor selection reaches them.
        """
        return self.sweep or "engine" in self.defaults

    @property
    def takes_trials(self) -> bool:
        """Whether :meth:`build` accepts a ``trials`` keyword."""
        return "trials" in self.defaults

    @property
    def scenario_study(self) -> bool:
        """Whether the kernel's figure *is already* a scenario-grid study.

        True when the figure takes ``scenarios`` or ``voltages`` (the
        cross-model and voltage comparisons).  Such kernels are excluded from
        ``reproduce_figures.py --grid``'s default selection — wrapping a
        scenario study in another ad-hoc grid would recompute the same
        workload under a second key with mislabeled axes.
        """
        return "scenarios" in self.defaults or "voltages" in self.defaults

    @property
    def paper_iterations(self) -> Optional[int]:
        """The paper's iteration budget: the ``iterations`` default.

        ``None`` when the figure takes no ``iterations`` argument;
        reduced-scale runs multiply it by the requested scale fraction.
        """
        return self.defaults.get("iterations")

    def builder(self) -> Callable[..., FigureResult]:
        """A non-sweep kernel's figure builder (resolved from the figures module)."""
        from repro.experiments import figures

        return getattr(figures, self.figure)

    def build(self, **overrides: Any) -> FigureResult:
        """Generate the kernel's figure: its ``defaults`` with ``overrides``.

        A name outside ``defaults`` (and, for sweep kernels, ``engine``)
        raises ``TypeError`` before anything runs.  A non-sweep kernel hands
        the merged values to its builder.  A sweep kernel runs one of three
        things through the engine, then stamps the series with its metadata:

        * a cross-model study when its defaults hold ``scenarios``
          (:meth:`build_scenario_study` over the ``fault_rates`` grid);
        * a voltage study when they hold ``voltages``: one voltage-pinned
          scenario per point, with voltage as the x axis;
        * otherwise a fault-rate sweep over ``fault_rates``, or over the
          single ``fault_rate`` of the momentum study.

        A sweep kernel's ``engine`` is the
        :class:`~repro.experiments.engine.ExperimentEngine` to run on;
        ``None`` runs the serial engine.
        """
        accepted = set(self.defaults) | ({"engine"} if self.sweep else set())
        unknown = sorted(set(overrides) - accepted)
        if unknown:
            raise TypeError(
                f"kernel {self.name!r} got unexpected parameter(s) "
                f"{', '.join(map(repr, unknown))}"
            )
        params = {**self.defaults, **overrides}
        if not self.sweep:
            return self.builder()(**params)
        engine = params.pop("engine", None)
        grid = {"trials": params["trials"], "seed": params["seed"], "engine": engine}
        workload = {
            name: value for name, value in params.items()
            if name not in _GRID_PARAMETERS
        }
        if "scenarios" in params:
            series = self.build_scenario_study(
                params["scenarios"], fault_rates=params["fault_rates"],
                **grid, **workload,
            ).series
        elif "voltages" in params:
            series = self._voltage_series(params["voltages"], grid, workload)
        else:
            from repro.experiments.engine import ExperimentEngine

            sweep = SweepSpec(
                self.sweep_functions(seed=params["seed"], **workload),
                fault_rates=(
                    params["fault_rates"] if "fault_rates" in params
                    else (params["fault_rate"],)
                ),
                trials=params["trials"],
                seed=params["seed"],
            )
            series = (engine or ExperimentEngine()).run_sweep(sweep)
        return self.make_figure(series, **params)

    def _voltage_series(
        self, voltages, grid: Mapping[str, Any], workload: Mapping[str, Any]
    ) -> List[SeriesResult]:
        """Run the kernel across voltage operating points; x axis = voltage.

        Each voltage becomes a voltage-pinned scenario (fault rate from the
        Figure 5.2 curve), executed through :meth:`build_scenario_study`
        (whose pinned path runs each scenario at its single operating
        point); the study's series — ordered series-major, then scenario —
        are then re-indexed so every solver series runs over the voltage
        axis.
        """
        from repro.experiments.scenarios import voltage_scenario

        scenarios = [voltage_scenario(float(voltage)) for voltage in voltages]
        study = self.build_scenario_study(scenarios, **grid, **workload)
        reshaped = []
        for series_index, label in enumerate(self.series):
            entry = SeriesResult(name=label)
            for scenario_index, voltage in enumerate(voltages):
                row = study.series[series_index * len(scenarios) + scenario_index]
                entry.fault_rates.append(float(voltage))
                entry.values.append(list(row.values[0]))
            reshaped.append(entry)
        return reshaped

    def make_figure(
        self, series: List[SeriesResult], notes: str = "", **title_format: Any
    ) -> FigureResult:
        """Assemble a :class:`FigureResult` from sweep series and spec metadata."""
        title = self.title.format(**title_format) if title_format else self.title
        return FigureResult(
            figure_id=self.figure_id,
            title=title,
            x_label=self.x_label,
            y_label=self.y_label,
            series=list(series),
            notes=notes,
        )

    def sweep_functions(
        self, seed: int = WORKLOAD_SEED, **factory_kwargs: Any
    ) -> Dict[str, TrialFunction]:
        """Build this kernel's series label → trial-function mapping.

        Resolves the registered trial factory with the kernel's own series
        line-up (when one is registered) and the given workload parameters;
        every factory parameter left out takes the kernel's paper value from
        ``defaults``.  This is the single entry point callers outside the
        registry — ``scripts/run_campaign.py``, ad-hoc scenario studies —
        use to turn a registry name into sweep-ready trial functions.  Only
        sweep-shaped kernels have one; others raise ``ValueError``, as does
        a parameter the trial factory does not take (e.g. ``iterations``
        for ``cg_least_squares``).

        Construction is memoized per process on (kernel, seed, resolved
        factory parameters) — see :func:`workload_memo_stats` — because
        workload generation is deterministic and search drivers resolve the
        same workload for every probe.  A parameter given at its default
        value, or left out, resolves to the same entry.
        """
        if self.trial_factory is None:
            raise ValueError(
                f"kernel {self.name!r} is not sweep-shaped; "
                "it has no trial factory to build sweep functions from"
            )
        kwargs = {
            name: value for name, value in self.defaults.items()
            if name not in _GRID_PARAMETERS
        }
        if self.series is not None:
            kwargs["series"] = dict(self.series)
        kwargs.update(factory_kwargs)
        signature = inspect.signature(self.trial_factory)
        if "series" in signature.parameters:
            kwargs.setdefault("series", None)
        memo_key = (
            self.name,
            int(seed),
            tuple(sorted((k, repr(v)) for k, v in kwargs.items())),
        )
        cached = _WORKLOAD_MEMO.get(memo_key)
        if cached is not None:
            _WORKLOAD_MEMO_STATS["hits"] += 1
            return dict(cached)
        try:
            signature.bind(seed=seed, **kwargs)
        except TypeError as error:
            raise ValueError(f"kernel {self.name!r}: {error}") from None
        _WORKLOAD_MEMO_STATS["misses"] += 1
        functions = self.trial_factory(seed=seed, **kwargs)
        _WORKLOAD_MEMO[memo_key] = dict(functions)
        return functions

    def build_scenario_study(
        self,
        scenarios,
        trials: int = 5,
        fault_rates=DEFAULT_FAULT_RATES,
        seed: int = WORKLOAD_SEED,
        engine=None,
        policy=None,
        **factory_kwargs: Any,
    ) -> FigureResult:
        """Run this kernel's workload as an ad-hoc scenario-grid study.

        Available for every sweep-shaped kernel: the kernel's trial factory
        builds its usual series line-up (``factory_kwargs`` are the factory's
        parameters, e.g. ``iterations``), which is then crossed with the
        given scenario presets (names or
        :class:`~repro.experiments.scenarios.Scenario` objects) as the
        scenario axis of a :class:`~repro.experiments.spec.SweepSpec` run on
        ``engine`` (``None``: the serial engine).  This is how
        ``examples/reproduce_figures.py --grid`` runs any kernel over any
        scenario selection without a study registration of its own.

        Scenarios that pin their own fault rate (explicitly or via a voltage
        operating point) have no rate axis: they run on a single grid point
        — not once per ``fault_rates`` entry — and their series name carries
        the effective rate (``"... [rate 0.01]"``), so the table never
        attributes a pinned scenario's value to a grid rate it did not run
        at.  Pinned scenarios execute as a separate sub-grid with the same
        base seed (common random numbers with the unpinned partition).

        ``policy`` forwards to both sub-grids: an adaptive
        :class:`~repro.experiments.sequential.ConfidenceTarget` runs every
        (series, scenario, rate) point only until its interval meets the
        target, which is the engine's sequential-sampling mode.
        """
        from repro.experiments.engine import ExperimentEngine
        from repro.experiments.scenarios import get_scenario, scenario_series_name

        resolved = [get_scenario(scenario) for scenario in scenarios]
        functions = self.sweep_functions(seed=seed, **factory_kwargs)
        unpinned = [scenario for scenario in resolved if not scenario.pinned]
        pinned = [scenario for scenario in resolved if scenario.pinned]
        engine = engine or ExperimentEngine()

        def run_grid(grid_scenarios, grid_rates) -> List[SeriesResult]:
            return engine.run_sweep(SweepSpec(
                functions, fault_rates=grid_rates, trials=trials, seed=seed,
                scenarios=grid_scenarios, policy=policy,
            ))

        sub_series: Dict[str, SeriesResult] = {}
        if unpinned:
            grid = run_grid(unpinned, fault_rates)
            for label_index, label in enumerate(functions):
                for scenario_index, scenario in enumerate(unpinned):
                    key = scenario_series_name(label, scenario)
                    sub_series[key] = grid[label_index * len(unpinned) + scenario_index]
        if pinned:
            grid = run_grid(pinned, (0.0,))
            for label_index, label in enumerate(functions):
                for scenario_index, scenario in enumerate(pinned):
                    entry = grid[label_index * len(pinned) + scenario_index]
                    entry.name = (
                        f"{scenario_series_name(label, scenario)} "
                        f"[rate {entry.fault_rates[0]:g}]"
                    )
                    sub_series[scenario_series_name(label, scenario)] = entry
        # Unpinned scenarios first within each series, so the rendered
        # table's rate column always comes from a full-grid series (pinned
        # series contribute a single row and dashes elsewhere).
        series = [
            sub_series[scenario_series_name(label, scenario)]
            for label in functions
            for scenario in unpinned + pinned
        ]
        try:
            title = self.title.format(**factory_kwargs)
        except (KeyError, IndexError):
            title = self.title
        return FigureResult(
            figure_id=f"{self.figure_id} × scenarios",
            title=f"{title} — scenario grid "
            f"({', '.join(scenario.name for scenario in resolved)})",
            x_label=self.x_label,
            y_label=self.y_label,
            series=list(series),
        )

    def reduced_kwargs(self, trials: int, scale: float = 1.0) -> Dict[str, Any]:
        """:meth:`build` overrides for one run at ``scale`` × the paper's budget.

        ``scale=1.0`` reproduces the paper's configuration exactly; smaller
        fractions shrink each kernel's own iteration budget (respecting its
        floor, and never below one iteration), so a reduced run never
        conflates the combinatorial, numerical, and momentum budgets.
        """
        kwargs: Dict[str, Any] = {}
        if self.takes_trials:
            kwargs["trials"] = (
                self.reduce_trials(trials) if self.reduce_trials is not None else trials
            )
        if self.paper_iterations is not None:
            kwargs["iterations"] = max(
                int(self.paper_iterations * scale), self.min_iterations, 1
            )
        return kwargs

    def cache_params(self, kwargs: Mapping[str, Any]) -> Dict[str, Any]:
        """The cache-key payload for a run with the given overrides.

        The payload must cover every parameter that shapes the figure's
        values, including the ones left at their defaults (workload seed,
        fault-rate grid, problem sizes): the kernel's ``defaults`` are merged
        with the explicit overrides so editing a default invalidates the
        cache.  ``scenarios`` / ``voltages`` parameters are resolved to
        full scenario fingerprints (model name, dtype, bit-position pmf,
        rate/voltage pin) rather than keyed by preset name alone, so editing
        a scenario or fault-model preset invalidates cached studies.  The
        ``engine`` argument is excluded — executors are bit-identical by
        contract, so executor choice never keys a cache entry.
        """
        from repro.experiments.scenarios import get_scenario, voltage_scenario

        params = {**self.defaults, **kwargs}
        params.pop("engine", None)
        if "scenarios" in params:
            params["scenarios"] = [
                get_scenario(scenario).fingerprint()
                for scenario in params["scenarios"]
            ]
        if "voltages" in params:
            params["voltages"] = [
                voltage_scenario(float(voltage)).fingerprint()
                for voltage in params["voltages"]
            ]
        return params


_REGISTRY: Dict[str, KernelSpec] = {}


def register_kernel(spec: KernelSpec) -> KernelSpec:
    """Add a kernel to the registry (names must be unique)."""
    if spec.name in _REGISTRY:
        raise ValueError(f"kernel {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_kernel(name: str) -> KernelSpec:
    """Look up a kernel by registry name (or by its figure name)."""
    spec = _REGISTRY.get(name)
    if spec is not None:
        return spec
    for candidate in _REGISTRY.values():
        if candidate.figure == name:
            return candidate
    raise KeyError(f"unknown kernel {name!r}; available: {kernel_names()}")


def kernel_names() -> List[str]:
    """Registered kernel names, in registration (figure) order."""
    return list(_REGISTRY)


def list_kernels() -> List[KernelSpec]:
    """All registered kernel specs, in registration (figure) order."""
    return list(_REGISTRY.values())


def sweep_kernels() -> List[KernelSpec]:
    """The kernels whose figures run a fault-rate sweep through the engine."""
    return [spec for spec in _REGISTRY.values() if spec.sweep]


# --------------------------------------------------------------------------- #
# Registrations — the single source of truth for the figure suite
# --------------------------------------------------------------------------- #
#: Paper values shared by every registration of one workload.
_SORTING = {"iterations": 10000, "array_size": 5}
_LEAST_SQUARES = {"iterations": 1000, "shape": (100, 10)}
_MATCHING = {"iterations": 10000}
#: The rate grid and scenario presets of the cross-fault-model studies.
_CROSS_MODEL = {
    "fault_rates": DEFAULT_CROSS_MODEL_RATES,
    "scenarios": DEFAULT_CROSS_MODEL_SCENARIOS,
}


def _sweep_defaults(**params: Any) -> Dict[str, Any]:
    """A sweep kernel's paper defaults: ``params``, 5 trials a point, the
    shared workload seed."""
    return {"trials": 5, **params, "seed": WORKLOAD_SEED}


register_kernel(KernelSpec(
    name="fault_distribution",
    figure="figure_5_1",
    figure_id="Figure 5.1",
    title="Distribution of fault bit positions (measured vs emulated)",
    x_label="bit position",
    y_label="probability mass",
    defaults={"width": 32},
))
register_kernel(KernelSpec(
    name="voltage_curve",
    figure="figure_5_2",
    figure_id="Figure 5.2",
    title="Error rate of an FPU as the voltage is scaled",
    x_label="supply voltage (V)",
    y_label="errors per FLOP",
    defaults={
        "n_points": 10, "trials": 3, "ops_per_trial": 4000,
        "seed": WORKLOAD_SEED, "engine": None,
    },
))
register_kernel(KernelSpec(
    name="sorting",
    figure="figure_6_1",
    figure_id="Figure 6.1",
    title="Accuracy of Sort - {iterations} iterations",
    x_label="fault rate (fraction of FLOPs)",
    y_label="success rate",
    metric="success_rate",
    trial_factory=sorting_kernel,
    defaults=_sweep_defaults(**_SORTING, fault_rates=DEFAULT_FAULT_RATES),
))
register_kernel(KernelSpec(
    name="least_squares_sgd",
    figure="figure_6_2",
    figure_id="Figure 6.2",
    title="Accuracy of Least Squares - {iterations} iterations",
    x_label="fault rate (fraction of FLOPs)",
    y_label="relative error w.r.t. ideal (lower is better)",
    trial_factory=least_squares_kernel,
    min_iterations=500,
    defaults=_sweep_defaults(**_LEAST_SQUARES, fault_rates=DEFAULT_FAULT_RATES),
))
register_kernel(KernelSpec(
    name="iir",
    figure="figure_6_3",
    figure_id="Figure 6.3",
    title="Accuracy of IIR - {iterations} iterations",
    x_label="fault rate (fraction of FLOPs)",
    y_label="error energy / signal energy (lower is better)",
    trial_factory=iir_kernel,
    min_iterations=500,
    defaults=_sweep_defaults(
        iterations=1000, fault_rates=DEFAULT_FAULT_RATES,
        signal_length=500, n_taps=10,
    ),
))
register_kernel(KernelSpec(
    name="matching",
    figure="figure_6_4",
    figure_id="Figure 6.4",
    title="Accuracy of Matching - {iterations} iterations",
    x_label="fault rate (fraction of FLOPs)",
    y_label="success rate",
    metric="success_rate",
    trial_factory=matching_kernel,
    defaults=_sweep_defaults(**_MATCHING, fault_rates=DEFAULT_FAULT_RATES),
))
register_kernel(KernelSpec(
    name="matching_enhancements",
    figure="figure_6_5",
    figure_id="Figure 6.5",
    title="Effect of enhancements on matching success",
    x_label="fault rate (fraction of FLOPs)",
    y_label="success rate",
    metric="success_rate",
    trial_factory=matching_kernel,
    series={
        "Non-robust": None,
        "Basic,LS": "Basic,LS",
        "SQS": "SQS",
        "PRECOND": "PRECOND",
        "ANNEAL": "ANNEAL",
        "ALL": "ALL",
    },
    defaults=_sweep_defaults(**_MATCHING, fault_rates=(0.01, 0.05, 0.1, 0.2, 0.5)),
))
register_kernel(KernelSpec(
    name="cg_least_squares",
    figure="figure_6_6",
    figure_id="Figure 6.6",
    title="Accuracy of Least Squares (CG vs decomposition baselines)",
    x_label="fault rate (fraction of FLOPs)",
    y_label="relative error w.r.t. ideal (lower is better)",
    trial_factory=cg_least_squares_kernel,
    defaults=_sweep_defaults(
        cg_iterations=10, fault_rates=DEFAULT_FAULT_RATES, shape=(100, 10)
    ),
))
register_kernel(KernelSpec(
    name="energy",
    figure="figure_6_7",
    figure_id="Figure 6.7",
    title="Least Squares Energy vs accuracy target",
    x_label="accuracy target (relative error)",
    y_label="energy (power x #FLOPs, nominal-FLOP units)",
    reduce_trials=lambda trials: max(trials - 1, 2),
    defaults={
        "accuracy_targets": (1e-7, 1e-5, 1e-3, 1e-1),
        "trials": 3,
        "cg_iteration_grid": (2, 5, 10, 20, 40),
        "error_rate_grid": (1e-7, 1e-5, 1e-3, 1e-2, 5e-2),
        "shape": (100, 10),
        "seed": WORKLOAD_SEED,
    },
))
register_kernel(KernelSpec(
    name="momentum",
    figure="momentum_study",
    figure_id="Section 6.2.2",
    title="Effect of momentum on solver success rate",
    x_label="fault rate (fraction of FLOPs)",
    y_label="success rate",
    metric="success_rate",
    trial_factory=momentum_kernel,
    defaults=_sweep_defaults(iterations=5000, fault_rate=0.1),
))
register_kernel(KernelSpec(
    name="flop_costs",
    figure="flop_cost_comparison",
    figure_id="Section 6.3",
    title="FLOP cost of least-squares implementations (fault-free)",
    x_label="(single workload)",
    y_label="FLOPs",
    defaults={"shape": (100, 10), "seed": WORKLOAD_SEED},
))
register_kernel(KernelSpec(
    name="overhead",
    figure="overhead_table",
    figure_id="Section 7",
    title="FLOP overhead of robust implementations (robust / baseline)",
    x_label="(single workload)",
    y_label="overhead factor",
    defaults={
        "iterations_sorting": 10000, "iterations_lsq": 1000, "seed": WORKLOAD_SEED,
    },
))
register_kernel(KernelSpec(
    name="eigen",
    figure="eigen_study",
    figure_id="Section 4.7 (eigen)",
    title="Accuracy of eigenpair extraction - {iterations} iterations",
    x_label="fault rate (fraction of FLOPs)",
    y_label="relative eigenvalue error (lower is better)",
    trial_factory=eigen_kernel,
    min_iterations=50,
    defaults=_sweep_defaults(
        iterations=200, fault_rates=DEFAULT_FAULT_RATES,
        matrix_size=8, condition_number=10.0,
    ),
))
register_kernel(KernelSpec(
    name="maxflow",
    figure="maxflow_study",
    figure_id="Section 4.5",
    title="Accuracy of Max-Flow - {iterations} iterations",
    x_label="fault rate (fraction of FLOPs)",
    y_label="relative flow-value error (lower is better)",
    trial_factory=maxflow_kernel,
    min_iterations=500,
    defaults=_sweep_defaults(
        iterations=5000, fault_rates=DEFAULT_FAULT_RATES, n_nodes=6, n_edges=12
    ),
))
register_kernel(KernelSpec(
    name="apsp",
    figure="apsp_study",
    figure_id="Section 4.6",
    title="Accuracy of All-Pairs Shortest Paths - {iterations} iterations",
    x_label="fault rate (fraction of FLOPs)",
    y_label="mean relative distance error (lower is better)",
    trial_factory=apsp_kernel,
    min_iterations=500,
    defaults=_sweep_defaults(
        iterations=5000, fault_rates=DEFAULT_FAULT_RATES, n_nodes=5, n_edges=10
    ),
))
register_kernel(KernelSpec(
    name="svm",
    figure="svm_study",
    figure_id="Section 4.7 (SVM)",
    title="SVM training accuracy - {iterations} iterations",
    x_label="fault rate (fraction of FLOPs)",
    y_label="training accuracy (higher is better)",
    trial_factory=svm_kernel,
    min_iterations=200,
    defaults=_sweep_defaults(
        iterations=1000, fault_rates=DEFAULT_FAULT_RATES,
        n_samples=60, n_features=5, regularization=0.01,
    ),
))
# --------------------------------------------------------------------------- #
# Scenario-grid studies — cross-fault-model and voltage operating-point
# comparisons expressed as declarative ScenarioGrids (see
# repro.experiments.scenarios and docs/scenarios.md).  Each runs a compact
# two-series line-up (baseline vs best robust variant), so a grid over
# several scenarios stays tractable.
# --------------------------------------------------------------------------- #
register_kernel(KernelSpec(
    name="sorting_cross_model",
    figure="sorting_scenario_study",
    figure_id="Scenario grid (sorting)",
    title="Sorting success across fault-model scenarios - {iterations} iterations",
    x_label="fault rate (fraction of FLOPs)",
    y_label="success rate",
    metric="success_rate",
    trial_factory=sorting_kernel,
    series={"Base": None, "SGD+AS,SQS": "SGD+AS,SQS"},
    defaults=_sweep_defaults(**_SORTING, **_CROSS_MODEL),
))
register_kernel(KernelSpec(
    name="least_squares_cross_model",
    figure="least_squares_scenario_study",
    figure_id="Scenario grid (least squares)",
    title="Least-squares error across fault-model scenarios - {iterations} iterations",
    x_label="fault rate (fraction of FLOPs)",
    y_label="relative error w.r.t. ideal (lower is better)",
    trial_factory=least_squares_kernel,
    series={"Base: SVD": None, "SGD+AS,LS": "SGD+AS,LS"},
    min_iterations=500,
    defaults=_sweep_defaults(**_LEAST_SQUARES, **_CROSS_MODEL),
))
register_kernel(KernelSpec(
    name="matching_cross_model",
    figure="matching_scenario_study",
    figure_id="Scenario grid (matching)",
    title="Matching success across fault-model scenarios - {iterations} iterations",
    x_label="fault rate (fraction of FLOPs)",
    y_label="success rate",
    metric="success_rate",
    trial_factory=matching_kernel,
    series={"Base": None, "SGD+AS,SQS": "SGD+AS,SQS"},
    defaults=_sweep_defaults(**_MATCHING, **_CROSS_MODEL),
))
register_kernel(KernelSpec(
    name="sorting_voltage",
    figure="sorting_voltage_study",
    figure_id="Voltage study (sorting)",
    title="Sorting success vs supply voltage - {iterations} iterations",
    x_label="supply voltage (V)",
    y_label="success rate",
    metric="success_rate",
    trial_factory=sorting_kernel,
    series={"Base": None, "SGD+AS,SQS": "SGD+AS,SQS"},
    defaults=_sweep_defaults(**_SORTING, voltages=DEFAULT_STUDY_VOLTAGES),
))
register_kernel(KernelSpec(
    name="least_squares_voltage",
    figure="least_squares_voltage_study",
    figure_id="Voltage study (least squares)",
    title="Least-squares error vs supply voltage - {iterations} iterations",
    x_label="supply voltage (V)",
    y_label="relative error w.r.t. ideal (lower is better)",
    trial_factory=least_squares_kernel,
    series={"Base: SVD": None, "SGD+AS,LS": "SGD+AS,LS"},
    min_iterations=500,
    defaults=_sweep_defaults(**_LEAST_SQUARES, voltages=DEFAULT_STUDY_VOLTAGES),
))
register_kernel(KernelSpec(
    name="matching_voltage",
    figure="matching_voltage_study",
    figure_id="Voltage study (matching)",
    title="Matching success vs supply voltage - {iterations} iterations",
    x_label="supply voltage (V)",
    y_label="success rate",
    metric="success_rate",
    trial_factory=matching_kernel,
    series={"Base": None, "SGD+AS,SQS": "SGD+AS,SQS"},
    defaults=_sweep_defaults(**_MATCHING, voltages=DEFAULT_STUDY_VOLTAGES),
))
