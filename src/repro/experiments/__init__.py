"""Experiment harness: fault-rate sweeps and per-figure reproductions.

Every table and figure of the paper's evaluation has a generator here:

========  ==========================================================
Figure    Generator
========  ==========================================================
5.1       :func:`repro.experiments.figures.figure_5_1`
5.2       :func:`repro.experiments.figures.figure_5_2`
6.1       :func:`repro.experiments.figures.figure_6_1`
6.2       :func:`repro.experiments.figures.figure_6_2`
6.3       :func:`repro.experiments.figures.figure_6_3`
6.4       :func:`repro.experiments.figures.figure_6_4`
6.5       :func:`repro.experiments.figures.figure_6_5`
6.6       :func:`repro.experiments.figures.figure_6_6`
6.7       :func:`repro.experiments.figures.figure_6_7`
§6.2.2    :func:`repro.experiments.figures.momentum_study`
§6.3      :func:`repro.experiments.figures.flop_cost_comparison`
§7        :func:`repro.experiments.figures.overhead_table`
========  ==========================================================

Beyond the paper's own figures, the suite ships **scenario-grid studies**
(cross-fault-model and voltage-vs-quality comparisons for sorting, least
squares, and matching: :func:`~repro.experiments.figures.sorting_scenario_study`,
:func:`~repro.experiments.figures.matching_voltage_study`, ...) built on the
scenario axis of :class:`~repro.experiments.spec.SweepSpec` — see
:mod:`repro.experiments.scenarios` and ``docs/scenarios.md``.

Each generator returns a :class:`repro.experiments.results.FigureResult` whose
series can be printed with :func:`repro.experiments.reporting.format_figure`.
The ``trials`` / ``iterations`` arguments default to laptop-scale settings;
the docstrings state the paper's full-scale values.  The generators are thin
specs over the application-kernel registry
(:mod:`repro.experiments.kernels`), which records each workload's trial
factory, metric, batch capability, and reduced-scale parameters under a
stable kernel name (``"sorting"``, ``"cg_least_squares"``, ...).

Sweeps execute through the :class:`~repro.experiments.engine.ExperimentEngine`
plan/execute subsystem: a sweep is expanded into seeded
:class:`~repro.experiments.spec.TrialSpec` entries and handed to a pluggable
executor (``serial``, ``batched``, or ``vectorized``), all of which produce
bit-identical results.  The ``vectorized`` executor is
the tensorized trial backend (:mod:`repro.experiments.tensor`): it runs a
whole (fault-rate × trials) series grid as one stacked numpy computation for
trial functions that declare a batch implementation.  Completed figures can
be cached on disk through :class:`~repro.experiments.cache.ResultCache`.
"""

from repro.experiments.engine import ExperimentEngine, ProgressEvent
from repro.experiments.executors import (
    BatchedExecutor,
    SerialExecutor,
    VectorizedExecutor,
    get_executor,
    list_executors,
)
from repro.experiments.kernels import (
    KernelSpec,
    batch_implementation,
    batchable,
    get_kernel,
    is_batchable,
    kernel_names,
    list_kernels,
)
from repro.experiments.cache import ResultCache, spec_hash
from repro.experiments.results import FigureResult, SeriesResult
from repro.experiments.scenarios import (
    Scenario,
    get_scenario,
    list_scenarios,
    register_scenario,
    scenario_series_name,
    voltage_scenario,
)
from repro.experiments.sequential import (
    BudgetPolicy,
    ConfidenceTarget,
    FixedCount,
    bootstrap_interval,
    wilson_half_width,
    wilson_interval,
)
from repro.experiments.spec import (
    DEFAULT_FAULT_RATES,
    SweepSpec,
    TrialSpec,
)
from repro.experiments.runner import run_campaign, run_fault_rate_sweep, run_scenario_grid
from repro.experiments.reporting import format_figure, figure_to_rows, save_figure_report
from repro.experiments import campaign
from repro.experiments import figures
from repro.experiments import kernels
from repro.experiments import tensor

__all__ = [
    "ExperimentEngine",
    "ProgressEvent",
    "SweepSpec",
    "TrialSpec",
    "SerialExecutor",
    "BatchedExecutor",
    "VectorizedExecutor",
    "KernelSpec",
    "batchable",
    "batch_implementation",
    "is_batchable",
    "get_kernel",
    "kernel_names",
    "list_kernels",
    "get_executor",
    "list_executors",
    "ResultCache",
    "spec_hash",
    "FigureResult",
    "SeriesResult",
    "Scenario",
    "get_scenario",
    "list_scenarios",
    "register_scenario",
    "scenario_series_name",
    "voltage_scenario",
    "BudgetPolicy",
    "ConfidenceTarget",
    "FixedCount",
    "wilson_interval",
    "wilson_half_width",
    "bootstrap_interval",
    "run_fault_rate_sweep",
    "run_scenario_grid",
    "run_campaign",
    "campaign",
    "DEFAULT_FAULT_RATES",
    "format_figure",
    "figure_to_rows",
    "save_figure_report",
    "figures",
    "kernels",
    "tensor",
]
