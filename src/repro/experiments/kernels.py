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
* **Workload factories.**  One function per workload — each paper
  workload (sorting §4.3, least squares §4.1, IIR §4.2, matching §4.4, CG
  least squares §3.3, the §6.2.2 momentum study) and each extension
  application (max-flow §4.5, all-pairs shortest paths §4.6, eigenpairs and
  SVM training §4.7) — builds its data from the workload seed and maps the
  series line-up it is given to trial functions, with the batch tier wired
  in where the application exposes one.  The line-ups themselves live only
  in the registrations.
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

from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from typing import Any, Callable, Dict, List, Mapping, Optional

import numpy as np

from repro.core.variants import sgd_options_for_variant
from repro.experiments.results import FigureResult, SeriesResult
from repro.experiments.spec import DEFAULT_FAULT_RATES, SweepSpec, TrialFunction
from repro.processor.stochastic import StochasticProcessor

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
# Workload data
# --------------------------------------------------------------------------- #
#: Smallest relative margin of a matching workload's optimum over the best
#: matching that avoids one of its edges.
_MATCHING_MIN_MARGIN = 0.02


def matching_workload(seed: int):
    """The 11-node / 30-edge matching workload of Figures 6.4 and 6.5.

    Random bipartite instances can have a near-degenerate optimum (two
    matchings within a fraction of a percent of each other), which makes the
    exact-success metric meaningless; we therefore advance the seed until the
    instance's optimal matching has a relative margin of at least
    ``_MATCHING_MIN_MARGIN`` over the best matching that avoids one of its
    edges.
    """
    from repro.applications import matching
    from repro.workloads.generators import random_bipartite_graph

    for offset in range(64):
        graph = random_bipartite_graph(5, 6, 30, rng=seed + offset)
        if matching.matching_margin(graph) >= _MATCHING_MIN_MARGIN:
            return graph
    return random_bipartite_graph(5, 6, 30, rng=seed)


# --------------------------------------------------------------------------- #
# Workload factories: one per workload.  Each builds its data from the seed
# and maps the line-up it is given to batch-capable trial functions.  They
# hold no defaults: KernelSpec.sweep_functions fills every parameter a caller
# leaves out from the kernel's registration, its line-up included.  Each
# imports its application and generator modules when it builds, so a process
# loads only the applications its sweeps run, and its trials look the
# application's functions up on the module when they run, so a rebinding of
# a module attribute (a tracer's wrapper, and its removal) reaches them.
# --------------------------------------------------------------------------- #
_LineUp = Mapping[str, Any]


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


def _line_up(
    series: _LineUp, base: TrialFunction, robust: Callable[[str], TrialFunction]
) -> Dict[str, TrialFunction]:
    """Map a line-up to trial functions: ``base`` for a ``None`` variant,
    ``robust(variant)`` for a solver variant."""
    return {
        label: base if variant is None else robust(variant)
        for label, variant in series.items()
    }


def _svd_baseline(A: np.ndarray, b: np.ndarray) -> TrialFunction:
    """The ``Base: SVD`` trial: the noisy one-sided Jacobi least-squares solve.

    It batches through
    :func:`~repro.applications.least_squares.baseline_svd_least_squares_batch`.
    """
    from repro.applications import least_squares

    return _trial_pair(
        lambda proc, rng: least_squares.baseline_least_squares(A, b, proc, method="svd"),
        lambda procs, streams: least_squares.baseline_svd_least_squares_batch(A, b, procs),
        attrgetter("relative_error"),
    )


def sorting_kernel(
    *, iterations: int, array_size: int, seed: int, series: _LineUp
) -> Dict[str, TrialFunction]:
    """Figure 6.1: robust sorting vs the noisy comparison sort (exact success).

    Robust series batch through :func:`~repro.applications.sorting.robust_sort_batch`.
    """
    from repro.applications import sorting
    from repro.workloads.generators import random_array

    values = random_array(array_size, rng=seed, min_gap=0.08)

    def base(proc: StochasticProcessor, rng: np.random.Generator) -> float:
        return _success(sorting.baseline_sort(values, proc))

    def robust(variant: str) -> TrialFunction:
        config = partial(
            sorting.default_sorting_config, iterations=iterations, variant=variant,
            values=values,
        )
        return _trial_pair(
            lambda proc, rng: sorting.robust_sort(values, proc, config()),
            lambda procs, streams: sorting.robust_sort_batch(values, procs, config()),
            _success,
        )

    return _line_up(series, base, robust)


def least_squares_kernel(
    *, iterations: int, shape: tuple, seed: int, series: _LineUp
) -> Dict[str, TrialFunction]:
    """Figure 6.2: SGD least squares vs the SVD baseline (relative error).

    Robust series batch through
    :func:`~repro.applications.least_squares.robust_least_squares_sgd_batch`.
    """
    from repro.applications import least_squares
    from repro.workloads.generators import random_least_squares

    A, b, _ = random_least_squares(shape[0], shape[1], rng=seed)
    base_step = least_squares.default_least_squares_step(A)

    def robust(variant: str) -> TrialFunction:
        options = partial(
            sgd_options_for_variant, variant, iterations=iterations, base_step=base_step
        )
        return _trial_pair(
            lambda proc, rng: least_squares.robust_least_squares_sgd(
                A, b, proc, options=options()
            ),
            lambda procs, streams: least_squares.robust_least_squares_sgd_batch(
                A, b, procs, options=options()
            ),
            attrgetter("relative_error"),
        )

    return _line_up(series, _svd_baseline(A, b), robust)


def iir_kernel(
    *, iterations: int, signal_length: int, n_taps: int, seed: int, series: _LineUp
) -> Dict[str, TrialFunction]:
    """Figure 6.3: variational IIR vs the direct form (error / signal energy).

    Robust series batch through
    :func:`~repro.applications.iir.robust_iir_filter_batch` (batched SGD over
    the preconditioned banded least-squares form, initialized by the batched
    noisy direct form).  The direct-form ``Base`` batches through
    :func:`~repro.applications.iir.baseline_iir_filter_batch`, every trial's
    recursion on one scalar-FPU batch.
    """
    from repro.applications import iir
    from repro.workloads.signals import random_stable_iir, sum_of_sinusoids

    filt = random_stable_iir(n_taps, rng=seed, pole_radius=0.8)
    signal = sum_of_sinusoids(signal_length)
    base = _trial_pair(
        lambda proc, rng: iir.baseline_iir_filter(filt, signal, proc),
        lambda procs, streams: iir.baseline_iir_filter_batch(filt, signal, procs),
        attrgetter("error_to_signal"),
    )

    def robust(variant: str) -> TrialFunction:
        options = partial(
            sgd_options_for_variant, variant, iterations=iterations, base_step=0.25
        )
        return _trial_pair(
            lambda proc, rng: iir.robust_iir_filter(filt, signal, proc, options=options()),
            lambda procs, streams: iir.robust_iir_filter_batch(
                filt, signal, procs, options=options()
            ),
            attrgetter("error_to_signal"),
        )

    return _line_up(series, base, robust)


def matching_kernel(*, iterations: int, seed: int, series: _LineUp) -> Dict[str, TrialFunction]:
    """Figures 6.4/6.5: penalized-LP matching vs Hungarian (exact success).

    Robust series batch through
    :func:`~repro.applications.matching.robust_matching_batch`.
    """
    from repro.applications import matching

    graph = matching_workload(seed)

    def base(proc: StochasticProcessor, rng: np.random.Generator) -> float:
        return _success(matching.baseline_matching(graph, proc))

    def robust(variant: str) -> TrialFunction:
        config = partial(
            matching.default_matching_config, iterations=iterations, variant=variant,
            graph=graph,
        )
        return _trial_pair(
            lambda proc, rng: matching.robust_matching(graph, proc, config()),
            lambda procs, streams: matching.robust_matching_batch(graph, procs, config()),
            _success,
        )

    return _line_up(series, base, robust)


def cg_least_squares_kernel(
    *, cg_iterations: int, shape: tuple, seed: int
) -> Dict[str, TrialFunction]:
    """Figure 6.6: restarted CG vs the three decompositions (relative error).

    Its line-up is fixed, because the CG label carries ``cg_iterations``.  The
    CG series batches through
    :func:`~repro.applications.least_squares.robust_least_squares_cg_batch`
    (the masked-batch CGNR driver) and the SVD baseline through
    :func:`~repro.applications.least_squares.baseline_svd_least_squares_batch`
    (a masked-batch Jacobi solve); the QR and Cholesky baselines run per
    trial.
    """
    from repro.applications import least_squares
    from repro.optimizers.conjugate_gradient import CGOptions
    from repro.workloads.generators import random_least_squares

    A, b, _ = random_least_squares(shape[0], shape[1], rng=seed)

    def _baseline(method: str) -> TrialFunction:
        return lambda proc, rng: least_squares.baseline_least_squares(
            A, b, proc, method=method
        ).relative_error

    options = partial(CGOptions, iterations=cg_iterations)

    return {
        "Base: QR": _baseline("qr"),
        "Base: SVD": _svd_baseline(A, b),
        "Base: Cholesky": _baseline("cholesky"),
        f"CG, N={cg_iterations}": _trial_pair(
            lambda proc, rng: least_squares.robust_least_squares_cg(
                A, b, proc, options=options()
            ),
            lambda procs, streams: least_squares.robust_least_squares_cg_batch(
                A, b, procs, options=options()
            ),
            attrgetter("relative_error"),
        ),
    }


def momentum_kernel(*, iterations: int, seed: int) -> Dict[str, TrialFunction]:
    """§6.2.2: the sorting (5-element array) and matching workloads, each
    with and without momentum; all four series batch."""
    return {
        **sorting_kernel(iterations=iterations, array_size=5, seed=seed, series={
            "sorting (no momentum)": "SGD,LS",
            "sorting (momentum 0.5)": "MOMENTUM",
        }),
        **matching_kernel(iterations=iterations, seed=seed, series={
            "matching (no momentum)": "SGD,LS",
            "matching (momentum 0.5)": "MOMENTUM",
        }),
    }


def eigen_kernel(
    *, iterations: int, matrix_size: int, condition_number: float, seed: int,
    series: _LineUp,
) -> Dict[str, TrialFunction]:
    """§4.7 eigenpairs: Rayleigh-quotient ascent with deflation.

    ``series`` maps labels to the number of eigenpairs ``k`` extracted by
    deflation.  Every series batches through
    :func:`~repro.applications.eigen.robust_eigenpairs_batch`.  The metric is
    the worst relative eigenvalue error over the ``k`` pairs (lower is better).
    """
    from repro.applications import eigen
    from repro.workloads.generators import random_spd_matrix

    M = random_spd_matrix(matrix_size, rng=seed, condition_number=condition_number)

    def _worst_error(pairs) -> float:
        return max(pair.eigenvalue_error for pair in pairs)

    def _make(k: int) -> TrialFunction:
        return _trial_pair(
            lambda proc, rng: eigen.robust_eigenpairs(
                M, k, proc, iterations=iterations, rng=rng
            ),
            lambda procs, streams: eigen.robust_eigenpairs_batch(
                M, k, procs, iterations=iterations, rngs=streams
            ),
            _worst_error,
        )

    return {label: _make(k) for label, k in series.items()}


def maxflow_kernel(
    *, iterations: int, n_nodes: int, n_edges: int, seed: int, series: _LineUp
) -> Dict[str, TrialFunction]:
    """§4.5 max-flow: penalized LP vs Edmonds–Karp on the noisy FPU.

    Robust series batch through
    :func:`~repro.applications.maxflow.robust_max_flow_batch`.  The metric is
    the flow value's relative error against the exact maximum flow.
    """
    from repro.applications import maxflow
    from repro.workloads.generators import random_flow_network

    network = random_flow_network(n_nodes, n_edges, rng=seed)

    def base(proc: StochasticProcessor, rng: np.random.Generator) -> float:
        return maxflow.baseline_max_flow(network, proc).relative_error

    def robust(variant: str) -> TrialFunction:
        config = partial(
            maxflow.default_maxflow_config, iterations=iterations, variant=variant,
            network=network,
        )
        return _trial_pair(
            lambda proc, rng: maxflow.robust_max_flow(network, proc, config()),
            lambda procs, streams: maxflow.robust_max_flow_batch(network, procs, config()),
            attrgetter("relative_error"),
        )

    return _line_up(series, base, robust)


def apsp_kernel(
    *, iterations: int, n_nodes: int, n_edges: int, seed: int, series: _LineUp
) -> Dict[str, TrialFunction]:
    """§4.6 all-pairs shortest paths: LP vs Floyd–Warshall on the noisy FPU.

    Robust series batch through
    :func:`~repro.applications.shortest_path.robust_all_pairs_shortest_path_batch`.
    The metric is the mean relative error against the exact distances.
    """
    from repro.applications import shortest_path
    from repro.workloads.generators import random_weighted_graph

    graph = random_weighted_graph(n_nodes, n_edges, rng=seed)

    def base(proc: StochasticProcessor, rng: np.random.Generator) -> float:
        return shortest_path.baseline_all_pairs_shortest_path(graph, proc).mean_relative_error

    def robust(variant: str) -> TrialFunction:
        config = partial(
            shortest_path.default_apsp_config, iterations=iterations, variant=variant,
            graph=graph,
        )
        return _trial_pair(
            lambda proc, rng: shortest_path.robust_all_pairs_shortest_path(
                graph, proc, config()
            ),
            lambda procs, streams: shortest_path.robust_all_pairs_shortest_path_batch(
                graph, procs, config()
            ),
            attrgetter("mean_relative_error"),
        )

    return _line_up(series, base, robust)


def svm_kernel(
    *, iterations: int, n_samples: int, n_features: int, regularization: float,
    seed: int, series: _LineUp,
) -> Dict[str, TrialFunction]:
    """§4.7 SVM training: hinge-loss SGD vs the Pegasos trainer (accuracy).

    The Pegasos baseline's data-dependent sampling has no batch tier; robust
    series batch through :func:`~repro.applications.svm.robust_svm_train_sgd_batch`.
    """
    from repro.applications import svm
    from repro.workloads.generators import random_svm_data

    X, y, _ = random_svm_data(n_samples, n_features, rng=seed)
    base_step = svm.default_svm_step(X, regularization)

    def base(proc: StochasticProcessor, rng: np.random.Generator) -> float:
        return svm.robust_svm_train(
            X, y, proc, iterations=iterations,
            regularization=regularization, rng=rng,
        ).train_accuracy

    def robust(variant: str) -> TrialFunction:
        options = partial(
            sgd_options_for_variant, variant, iterations=iterations, base_step=base_step
        )
        return _trial_pair(
            lambda proc, rng: svm.robust_svm_train_sgd(
                X, y, proc, options=options(), regularization=regularization
            ),
            lambda procs, streams: svm.robust_svm_train_sgd_batch(
                X, y, procs, options=options(), regularization=regularization
            ),
            attrgetter("train_accuracy"),
        )

    return _line_up(series, base, robust)


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
        The series line-up the kernel's figure plots, in plotting order:
        each label maps to a solver variant, or to ``None`` for the
        conventional baseline (the eigen kernel maps labels to a pair count
        ``k``).  This is the only place a line-up is written;
        :meth:`sweep_functions` hands it to ``trial_factory``, so the
        figure, an ad-hoc grid and a campaign over the kernel all run the
        same series.  ``None`` when the factory takes no line-up (its series
        are fixed, as for Figure 6.6 and the momentum study).
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
    series: Optional[Mapping[str, Any]] = None
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

        Calls the registered workload factory with the kernel's paper values
        from ``defaults`` and its registered ``series`` line-up, each
        overridden by ``factory_kwargs``.  This is the single entry point
        callers outside the registry — ``scripts/run_campaign.py``, ad-hoc
        scenario studies — use to turn a registry name into sweep-ready
        trial functions.  Only sweep-shaped kernels have one; others raise
        ``ValueError``, as does a parameter the kernel does not take: one
        outside its non-grid ``defaults`` and, where a line-up is
        registered, ``series`` (e.g. ``iterations`` for
        ``cg_least_squares``).

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
        unknown = sorted(set(factory_kwargs) - set(kwargs))
        if unknown:
            raise ValueError(
                f"kernel {self.name!r} got unexpected parameter(s) "
                f"{', '.join(map(repr, unknown))}"
            )
        kwargs.update(factory_kwargs)
        memo_key = (
            self.name,
            int(seed),
            tuple(sorted((k, repr(v)) for k, v in kwargs.items())),
        )
        cached = _WORKLOAD_MEMO.get(memo_key)
        if cached is not None:
            _WORKLOAD_MEMO_STATS["hits"] += 1
            return dict(cached)
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

        Available for every sweep-shaped kernel: :meth:`sweep_functions`
        builds its registered series line-up (``factory_kwargs`` are the
        factory's parameters, e.g. ``iterations``), which is then crossed
        with the given scenario presets (names or
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
#: Series line-ups, in plotting order: label -> solver variant, ``None`` for
#: the conventional baseline.  A line-up shared by several registrations is
#: written once here.
_FOUR_SERIES = {
    "Base": None, "SGD,LS": "SGD,LS", "SGD+AS,LS": "SGD+AS,LS", "SGD+AS,SQS": "SGD+AS,SQS",
}
_LP_EXTENSION_SERIES = {"Base": None, "SGD,SQS": "SGD,SQS", "SGD+AS,SQS": "SGD+AS,SQS"}
#: The scenario studies' compact baseline-vs-best pairs.
_BEST_SQS_PAIR = {"Base": None, "SGD+AS,SQS": "SGD+AS,SQS"}
_BEST_LEAST_SQUARES_PAIR = {"Base: SVD": None, "SGD+AS,LS": "SGD+AS,LS"}
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
    series={
        "Base": None, "SGD": "SGD,LS", "SGD+AS,LS": "SGD+AS,LS", "SGD+AS,SQS": "SGD+AS,SQS",
    },
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
    series={"Base: SVD": None, "SGD,LS": "SGD,LS", "SGD+AS,LS": "SGD+AS,LS"},
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
    series=_FOUR_SERIES,
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
    series=_FOUR_SERIES,
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
    series={"Power, k=1": 1, "Power+deflation, k=2": 2},
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
    series=_LP_EXTENSION_SERIES,
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
    series=_LP_EXTENSION_SERIES,
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
    series={"Base: Pegasos": None, "SGD,LS": "SGD,LS", "SGD+AS,LS": "SGD+AS,LS"},
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
    series=_BEST_SQS_PAIR,
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
    series=_BEST_LEAST_SQUARES_PAIR,
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
    series=_BEST_SQS_PAIR,
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
    series=_BEST_SQS_PAIR,
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
    series=_BEST_LEAST_SQUARES_PAIR,
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
    series=_BEST_SQS_PAIR,
    defaults=_sweep_defaults(**_MATCHING, voltages=DEFAULT_STUDY_VOLTAGES),
))
