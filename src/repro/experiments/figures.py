"""Per-figure experiment definitions (thin specs over the kernel registry).

Each function regenerates one table/figure of the paper's evaluation and
returns a :class:`~repro.experiments.runner.FigureResult`.  The sweep-shaped
figures are thin: the workload construction, series line-up, and batch
capability live in the application-kernel registry
(:mod:`repro.experiments.kernels`), so a figure generator only assembles the
registry kernel's trial functions into a sweep and stamps the result with the
kernel's presentation metadata.  The default ``trials`` / ``iterations`` are
laptop-scale so that the benchmark harness finishes in minutes; the
paper-scale values (10,000 iterations for the combinatorial kernels, 1,000
for the numerical ones) are accepted via the same arguments.
``docs/figures.md`` maps every figure to its kernel, benchmark module, and
expected output.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.applications.iir import baseline_iir_filter, robust_iir_filter
from repro.applications.least_squares import (
    baseline_least_squares,
    default_least_squares_step,
    robust_least_squares_cg,
    robust_least_squares_sgd,
)
from repro.applications.matching import (
    baseline_matching,
    default_matching_config,
    robust_matching,
)
from repro.applications.sorting import baseline_sort, default_sorting_config, robust_sort
from repro.core.variants import sgd_options_for_variant
from repro.experiments.engine import ExperimentEngine
from repro.experiments.kernels import (
    WORKLOAD_SEED as _WORKLOAD_SEED,
    get_kernel,
    matching_workload as _matching_workload,
    sorting_trial_functions,
)
from repro.experiments.runner import (
    DEFAULT_FAULT_RATES,
    FigureResult,
    SeriesResult,
    run_fault_rate_sweep,
    run_scenario_grid,
)
from repro.experiments.scenarios import voltage_scenario
from repro.faults.distribution import (
    EmulatedBitDistribution,
    MeasuredBitDistribution,
    total_variation_distance,
)
from repro.optimizers.conjugate_gradient import CGOptions
from repro.processor.energy import EnergyModel
from repro.processor.stochastic import StochasticProcessor
from repro.processor.voltage import VoltageErrorModel
from repro.workloads.generators import random_array, random_least_squares
from repro.workloads.signals import random_stable_iir, sum_of_sinusoids

__all__ = [
    "sorting_trial_functions",
    "DEFAULT_CROSS_MODEL_SCENARIOS",
    "DEFAULT_STUDY_VOLTAGES",
    "figure_5_1",
    "figure_5_2",
    "figure_6_1",
    "figure_6_2",
    "figure_6_3",
    "figure_6_4",
    "figure_6_5",
    "figure_6_6",
    "figure_6_7",
    "momentum_study",
    "eigen_study",
    "maxflow_study",
    "apsp_study",
    "svm_study",
    "sorting_scenario_study",
    "least_squares_scenario_study",
    "matching_scenario_study",
    "sorting_voltage_study",
    "least_squares_voltage_study",
    "matching_voltage_study",
    "flop_cost_comparison",
    "overhead_table",
]

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


# --------------------------------------------------------------------------- #
# Chapter 5 (methodology) figures
# --------------------------------------------------------------------------- #
def figure_5_1(width: int = 32) -> FigureResult:
    """Figure 5.1: measured vs emulated distribution of FP bit-fault positions."""
    measured = MeasuredBitDistribution(width=width)
    emulated = EmulatedBitDistribution(width=width)
    kernel = get_kernel("fault_distribution")
    positions = list(range(width))
    series = []
    for name, dist in (("Measured", measured), ("Emulated", emulated)):
        entry = SeriesResult(name=name)
        for position, mass in zip(positions, dist.pmf()):
            entry.fault_rates.append(float(position))
            entry.values.append([float(mass)])
        series.append(entry)
    return kernel.make_figure(
        series,
        notes=(
            "total variation distance = "
            f"{total_variation_distance(measured, emulated):.3f}"
        ),
    )


def figure_5_2(
    n_points: int = 10,
    trials: int = 3,
    ops_per_trial: int = 4000,
    seed: int = _WORKLOAD_SEED,
    engine: Optional[Union[str, ExperimentEngine]] = None,
) -> FigureResult:
    """Figure 5.2: FPU error rate as the supply voltage is scaled.

    Expressed as a ScenarioGrid study: each sampled voltage is a
    voltage-pinned :class:`~repro.experiments.scenarios.Scenario`, so the
    analytic curve falls directly out of the scenarios' effective fault
    rates, and a companion Monte-Carlo series measures the *empirical*
    errors-per-FLOP of a processor built at each operating point (one noisy
    block of ``ops_per_trial`` FLOPs per trial, through the engine like any
    other grid).  This replaces the former one-off ``model.curve()``
    plumbing with the same declarative grid every other scenario study uses.
    """
    model = VoltageErrorModel()
    voltages = np.linspace(model.max_voltage, model.min_voltage, n_points)
    scenarios = [voltage_scenario(float(voltage)) for voltage in voltages]
    analytic = SeriesResult(name="FPU error rate")
    for scenario, voltage in zip(scenarios, voltages):
        analytic.fault_rates.append(float(voltage))
        analytic.values.append([scenario.effective_fault_rate(0.0)])

    def empirical_error_rate(proc, rng) -> float:
        proc.corrupt(rng.random(ops_per_trial), ops_per_element=1)
        return proc.faults_injected / max(proc.injector.ops_observed, 1)

    grid = run_scenario_grid(
        {"empirical": empirical_error_rate},
        scenarios,
        fault_rates=(0.0,),
        trials=trials,
        seed=seed,
        engine=engine,
    )
    empirical = SeriesResult(
        name=f"Monte-Carlo errors/FLOP ({ops_per_trial} FLOPs x {trials} trials)"
    )
    for voltage, row in zip(voltages, grid):
        empirical.fault_rates.append(float(voltage))
        empirical.values.append(list(row.values[0]))
    return get_kernel("voltage_curve").make_figure(
        [analytic, empirical],
        notes="each voltage operating point is a ScenarioGrid scenario",
    )


# --------------------------------------------------------------------------- #
# Chapter 6 sweep figures — thin specs over the kernel registry
# --------------------------------------------------------------------------- #
def _run_kernel_sweep(
    kernel_name: str,
    fault_rates: Sequence[float],
    trials: int,
    seed: int,
    engine: Optional[Union[str, ExperimentEngine]],
    **factory_kwargs,
):
    """Run one registry kernel's trial functions over a fault-rate sweep."""
    kernel = get_kernel(kernel_name)
    series = run_fault_rate_sweep(
        kernel.sweep_functions(seed=seed, **factory_kwargs),
        fault_rates=fault_rates,
        trials=trials,
        seed=seed,
        engine=engine,
    )
    return kernel, series


def figure_6_1(
    trials: int = 5,
    iterations: int = 10000,
    fault_rates: Sequence[float] = DEFAULT_FAULT_RATES,
    array_size: int = 5,
    seed: int = _WORKLOAD_SEED,
    engine: Optional[Union[str, ExperimentEngine]] = None,
) -> FigureResult:
    """Figure 6.1: sorting success rate vs fault rate.

    Paper configuration: 5-element arrays, 10,000 iterations, series
    "Base", "SGD", "SGD+AS,LS", "SGD+AS,SQS".  The robust series are
    batch-capable, so a ``vectorized`` engine runs each one as
    a single tensorized computation over the whole (rate × trials) grid.
    """
    kernel, series = _run_kernel_sweep(
        "sorting", fault_rates, trials, seed, engine,
        iterations=iterations, array_size=array_size,
    )
    return kernel.make_figure(series, iterations=iterations)


def figure_6_2(
    trials: int = 5,
    iterations: int = 1000,
    fault_rates: Sequence[float] = DEFAULT_FAULT_RATES,
    shape: tuple = (100, 10),
    seed: int = _WORKLOAD_SEED,
    engine: Optional[Union[str, ExperimentEngine]] = None,
) -> FigureResult:
    """Figure 6.2: least-squares relative error vs fault rate.

    Paper configuration: A is 100×10, 1,000 iterations, series "Base: SVD",
    "SGD,LS", "SGD+AS,LS"; lower is better.
    """
    kernel, series = _run_kernel_sweep(
        "least_squares_sgd", fault_rates, trials, seed, engine,
        iterations=iterations, shape=shape,
    )
    return kernel.make_figure(series, iterations=iterations)


def figure_6_3(
    trials: int = 5,
    iterations: int = 1000,
    fault_rates: Sequence[float] = DEFAULT_FAULT_RATES,
    signal_length: int = 500,
    n_taps: int = 10,
    seed: int = _WORKLOAD_SEED,
    engine: Optional[Union[str, ExperimentEngine]] = None,
) -> FigureResult:
    """Figure 6.3: IIR error-to-signal ratio vs fault rate.

    Paper configuration: 10-tap filter, 500 input samples, 1,000 iterations,
    series "Base", "SGD,LS", "SGD+AS,LS", "SGD+AS,SQS"; lower is better.
    The robust series are batch-capable (batched SGD on the preconditioned
    variational form), so ``vectorized`` engines run them as
    tensorized computations.
    """
    kernel, series = _run_kernel_sweep(
        "iir", fault_rates, trials, seed, engine,
        iterations=iterations, signal_length=signal_length, n_taps=n_taps,
    )
    return kernel.make_figure(series, iterations=iterations)


def figure_6_4(
    trials: int = 5,
    iterations: int = 10000,
    fault_rates: Sequence[float] = DEFAULT_FAULT_RATES,
    seed: int = _WORKLOAD_SEED,
    engine: Optional[Union[str, ExperimentEngine]] = None,
) -> FigureResult:
    """Figure 6.4: bipartite matching success rate vs fault rate.

    Paper configuration: 11 nodes / 30 edges, 10,000 iterations, series
    "Base", "SGD,LS", "SGD+AS,LS", "SGD+AS,SQS".
    """
    kernel, series = _run_kernel_sweep(
        "matching", fault_rates, trials, seed, engine, iterations=iterations,
    )
    return kernel.make_figure(series, iterations=iterations)


def figure_6_5(
    trials: int = 5,
    iterations: int = 10000,
    fault_rates: Sequence[float] = (0.01, 0.05, 0.1, 0.2, 0.5),
    seed: int = _WORKLOAD_SEED,
    engine: Optional[Union[str, ExperimentEngine]] = None,
) -> FigureResult:
    """Figure 6.5: effect of gradient-descent enhancements on matching success.

    Paper series: "Non-robust", "Basic,LS", "SQS", "PRECOND", "ANNEAL",
    "ALL"; fault rates up to 50 % of FLOPs.
    """
    kernel, series = _run_kernel_sweep(
        "matching_enhancements", fault_rates, trials, seed, engine,
        iterations=iterations,
    )
    return kernel.make_figure(series)


def figure_6_6(
    trials: int = 5,
    cg_iterations: int = 10,
    fault_rates: Sequence[float] = DEFAULT_FAULT_RATES,
    shape: tuple = (100, 10),
    seed: int = _WORKLOAD_SEED,
    engine: Optional[Union[str, ExperimentEngine]] = None,
) -> FigureResult:
    """Figure 6.6: CG-based least squares accuracy vs the QR/SVD/Cholesky baselines.

    The CG series is batch-capable (masked-batch CGNR driver), so
    ``vectorized`` engines run its whole (rate × trials) grid as one
    stacked computation.
    """
    kernel, series = _run_kernel_sweep(
        "cg_least_squares", fault_rates, trials, seed, engine,
        cg_iterations=cg_iterations, shape=shape,
    )
    return kernel.make_figure(series)


def momentum_study(
    trials: int = 5,
    iterations: int = 5000,
    fault_rate: float = 0.1,
    seed: int = _WORKLOAD_SEED,
    engine: Optional[Union[str, ExperimentEngine]] = None,
) -> FigureResult:
    """§6.2.2: effect of momentum (β = 0.5) on sorting and matching success.

    All four series are batch-capable, so ``vectorized`` engines run
    the study tensorized.
    """
    kernel, series = _run_kernel_sweep(
        "momentum", (fault_rate,), trials, seed, engine, iterations=iterations,
    )
    return kernel.make_figure(series)


# --------------------------------------------------------------------------- #
# Extension experiments — the §4.5–§4.7 applications the paper describes
# without evaluating on the FPGA
# --------------------------------------------------------------------------- #
def eigen_study(
    trials: int = 5,
    iterations: int = 200,
    fault_rates: Sequence[float] = DEFAULT_FAULT_RATES,
    matrix_size: int = 8,
    condition_number: float = 10.0,
    seed: int = _WORKLOAD_SEED,
    engine: Optional[Union[str, ExperimentEngine]] = None,
) -> FigureResult:
    """§4.7: eigenpair extraction by Rayleigh-quotient ascent and deflation.

    Series compare the top pair alone against a two-pair deflation run; the
    value is the worst relative eigenvalue error over the extracted pairs
    (lower is better).  Every series is batch-capable (batched power
    iterations over per-trial deflated matrices).
    """
    kernel, series = _run_kernel_sweep(
        "eigen", fault_rates, trials, seed, engine,
        iterations=iterations, matrix_size=matrix_size,
        condition_number=condition_number,
    )
    return kernel.make_figure(series, iterations=iterations)


def maxflow_study(
    trials: int = 5,
    iterations: int = 5000,
    fault_rates: Sequence[float] = DEFAULT_FAULT_RATES,
    n_nodes: int = 6,
    n_edges: int = 12,
    seed: int = _WORKLOAD_SEED,
    engine: Optional[Union[str, ExperimentEngine]] = None,
) -> FigureResult:
    """§4.5: maximum flow via the penalized LP vs noisy Edmonds–Karp.

    The value is the relative error of the computed flow value against the
    exact maximum flow (lower is better).  Robust series share the
    masked-batch LP path, so ``vectorized`` engines run them
    tensorized.
    """
    kernel, series = _run_kernel_sweep(
        "maxflow", fault_rates, trials, seed, engine,
        iterations=iterations, n_nodes=n_nodes, n_edges=n_edges,
    )
    return kernel.make_figure(series, iterations=iterations)


def apsp_study(
    trials: int = 5,
    iterations: int = 5000,
    fault_rates: Sequence[float] = DEFAULT_FAULT_RATES,
    n_nodes: int = 5,
    n_edges: int = 10,
    seed: int = _WORKLOAD_SEED,
    engine: Optional[Union[str, ExperimentEngine]] = None,
) -> FigureResult:
    """§4.6: all-pairs shortest paths via the triangle-inequality LP.

    The value is the mean relative distance error against the exact APSP
    distances (lower is better); the baseline is Floyd–Warshall on the noisy
    FPU.  Robust series share the masked-batch LP path.
    """
    kernel, series = _run_kernel_sweep(
        "apsp", fault_rates, trials, seed, engine,
        iterations=iterations, n_nodes=n_nodes, n_edges=n_edges,
    )
    return kernel.make_figure(series, iterations=iterations)


def svm_study(
    trials: int = 5,
    iterations: int = 1000,
    fault_rates: Sequence[float] = DEFAULT_FAULT_RATES,
    n_samples: int = 60,
    n_features: int = 5,
    regularization: float = 0.01,
    seed: int = _WORKLOAD_SEED,
    engine: Optional[Union[str, ExperimentEngine]] = None,
) -> FigureResult:
    """§4.7: linear SVM training accuracy under FPU faults.

    Series compare the per-sample Pegasos trainer against full-batch
    hinge-loss SGD variants; the value is the training accuracy of the
    learned separator (higher is better).  The SGD series are batch-capable
    (batched hinge-loss subgradient descent).
    """
    kernel, series = _run_kernel_sweep(
        "svm", fault_rates, trials, seed, engine,
        iterations=iterations, n_samples=n_samples, n_features=n_features,
        regularization=regularization,
    )
    return kernel.make_figure(series, iterations=iterations)


# --------------------------------------------------------------------------- #
# Scenario-grid studies — cross-fault-model and voltage operating-point
# comparisons for the sorting, least-squares, and matching kernels, all
# expressed as declarative ScenarioGrids over the same engine.
# --------------------------------------------------------------------------- #
def _cross_model_study(
    kernel_name: str,
    scenarios,
    fault_rates,
    trials: int,
    seed: int,
    engine,
    **factory_kwargs,
) -> FigureResult:
    """Run one kernel's trial functions across fault-model scenarios.

    Thin wrapper over :meth:`KernelSpec.build_scenario_study` — the single
    grid-to-figure assembly path, which runs the kernel's registered series
    line-up — that re-stamps the result with the registered kernel's
    presentation metadata.
    """
    kernel = get_kernel(kernel_name)
    study = kernel.build_scenario_study(
        scenarios, trials=trials, fault_rates=fault_rates, seed=seed,
        engine=engine, **factory_kwargs,
    )
    return kernel.make_figure(study.series, **factory_kwargs)


def _voltage_study(
    kernel_name: str,
    voltages,
    trials: int,
    seed: int,
    engine,
    **factory_kwargs,
) -> FigureResult:
    """Run one kernel across voltage operating points; x axis = voltage.

    Each voltage becomes a voltage-pinned scenario (fault rate from the
    Figure 5.2 curve), executed through
    :meth:`KernelSpec.build_scenario_study` (whose pinned path runs each
    scenario at its single operating point); the study's series — ordered
    series-major, then scenario — are then re-indexed so every solver series
    runs over the voltage axis.
    """
    kernel = get_kernel(kernel_name)
    scenarios = [voltage_scenario(float(voltage)) for voltage in voltages]
    study = kernel.build_scenario_study(
        scenarios, trials=trials, seed=seed, engine=engine, **factory_kwargs,
    )
    reshaped = []
    for series_index, label in enumerate(kernel.series):
        entry = SeriesResult(name=label)
        for scenario_index, voltage in enumerate(voltages):
            row = study.series[series_index * len(scenarios) + scenario_index]
            entry.fault_rates.append(float(voltage))
            entry.values.append(list(row.values[0]))
        reshaped.append(entry)
    return kernel.make_figure(reshaped, **factory_kwargs)


def sorting_scenario_study(
    trials: int = 5,
    iterations: int = 10000,
    fault_rates: Sequence[float] = DEFAULT_CROSS_MODEL_RATES,
    scenarios: Sequence = DEFAULT_CROSS_MODEL_SCENARIOS,
    array_size: int = 5,
    seed: int = _WORKLOAD_SEED,
    engine: Optional[Union[str, ExperimentEngine]] = None,
) -> FigureResult:
    """Cross-fault-model comparison of sorting success.

    One line per (series, scenario): the noisy baseline and the best robust
    variant, each under every scenario preset (emulated vs measured bit
    distributions, low-order-only SEUs, double precision).
    """
    return _cross_model_study(
        "sorting_cross_model", scenarios, fault_rates,
        trials, seed, engine, iterations=iterations, array_size=array_size,
    )


def least_squares_scenario_study(
    trials: int = 5,
    iterations: int = 1000,
    fault_rates: Sequence[float] = DEFAULT_CROSS_MODEL_RATES,
    scenarios: Sequence = DEFAULT_CROSS_MODEL_SCENARIOS,
    shape: tuple = (100, 10),
    seed: int = _WORKLOAD_SEED,
    engine: Optional[Union[str, ExperimentEngine]] = None,
) -> FigureResult:
    """Cross-fault-model comparison of least-squares relative error."""
    return _cross_model_study(
        "least_squares_cross_model", scenarios, fault_rates,
        trials, seed, engine, iterations=iterations, shape=shape,
    )


def matching_scenario_study(
    trials: int = 5,
    iterations: int = 10000,
    fault_rates: Sequence[float] = DEFAULT_CROSS_MODEL_RATES,
    scenarios: Sequence = DEFAULT_CROSS_MODEL_SCENARIOS,
    seed: int = _WORKLOAD_SEED,
    engine: Optional[Union[str, ExperimentEngine]] = None,
) -> FigureResult:
    """Cross-fault-model comparison of bipartite-matching success."""
    return _cross_model_study(
        "matching_cross_model", scenarios, fault_rates,
        trials, seed, engine, iterations=iterations,
    )


def sorting_voltage_study(
    trials: int = 5,
    iterations: int = 10000,
    voltages: Sequence[float] = DEFAULT_STUDY_VOLTAGES,
    array_size: int = 5,
    seed: int = _WORKLOAD_SEED,
    engine: Optional[Union[str, ExperimentEngine]] = None,
) -> FigureResult:
    """Sorting success as the supply voltage is overscaled (Fig 5.2 rates)."""
    return _voltage_study(
        "sorting_voltage", voltages,
        trials, seed, engine, iterations=iterations, array_size=array_size,
    )


def least_squares_voltage_study(
    trials: int = 5,
    iterations: int = 1000,
    voltages: Sequence[float] = DEFAULT_STUDY_VOLTAGES,
    shape: tuple = (100, 10),
    seed: int = _WORKLOAD_SEED,
    engine: Optional[Union[str, ExperimentEngine]] = None,
) -> FigureResult:
    """Least-squares relative error as the supply voltage is overscaled."""
    return _voltage_study(
        "least_squares_voltage", voltages,
        trials, seed, engine, iterations=iterations, shape=shape,
    )


def matching_voltage_study(
    trials: int = 5,
    iterations: int = 10000,
    voltages: Sequence[float] = DEFAULT_STUDY_VOLTAGES,
    seed: int = _WORKLOAD_SEED,
    engine: Optional[Union[str, ExperimentEngine]] = None,
) -> FigureResult:
    """Bipartite-matching success as the supply voltage is overscaled."""
    return _voltage_study(
        "matching_voltage", voltages,
        trials, seed, engine, iterations=iterations,
    )


# --------------------------------------------------------------------------- #
# Figure 6.7 — energy vs accuracy target
# --------------------------------------------------------------------------- #
def figure_6_7(
    accuracy_targets: Sequence[float] = (1e-7, 1e-5, 1e-3, 1e-1),
    trials: int = 3,
    cg_iteration_grid: Sequence[int] = (2, 5, 10, 20, 40),
    error_rate_grid: Sequence[float] = (1e-7, 1e-5, 1e-3, 1e-2, 5e-2),
    shape: tuple = (100, 10),
    seed: int = _WORKLOAD_SEED,
) -> FigureResult:
    """Figure 6.7: FPU energy vs accuracy target for least squares.

    For each accuracy target the harness searches, over the voltage grid (via
    the Figure 5.2 error-rate model) and the CG iteration grid, for the
    lowest-energy configuration whose median relative error meets the target;
    the Cholesky baseline performs the same search over voltage only.  Energy
    is power(V) × FLOPs, as in the paper.
    """
    A, b, _ = random_least_squares(shape[0], shape[1], rng=seed)
    voltage_model = VoltageErrorModel()
    energy_model = EnergyModel()

    def _median_run(factory, error_rate: float) -> tuple:
        errors, flops = [], []
        for trial in range(trials):
            proc = StochasticProcessor(
                fault_rate=error_rate,
                rng=np.random.default_rng([seed, trial, int(1e9 * error_rate)]),
            )
            result = factory(proc)
            errors.append(result.relative_error)
            flops.append(result.flops)
        return float(np.median(errors)), float(np.mean(flops))

    def _best_energy_cg(target: float) -> float:
        best = float("inf")
        for error_rate in error_rate_grid:
            voltage = voltage_model.voltage_for_error_rate(error_rate)
            for iterations in cg_iteration_grid:
                error, flops = _median_run(
                    lambda proc: robust_least_squares_cg(
                        A, b, proc, options=CGOptions(iterations=iterations)
                    ),
                    error_rate,
                )
                if error <= target:
                    best = min(best, energy_model.energy(flops, voltage))
                    break  # larger iteration counts only cost more energy
        return best

    def _best_energy_cholesky(target: float) -> float:
        best = float("inf")
        for error_rate in error_rate_grid:
            voltage = voltage_model.voltage_for_error_rate(error_rate)
            error, flops = _median_run(
                lambda proc: baseline_least_squares(A, b, proc, method="cholesky"),
                error_rate,
            )
            if error <= target:
                best = min(best, energy_model.energy(flops, voltage))
        return best

    cholesky_series = SeriesResult(name="Base: Cholesky")
    cg_series = SeriesResult(name="CG")
    for target in accuracy_targets:
        cholesky_series.fault_rates.append(float(target))
        cholesky_series.values.append([_best_energy_cholesky(target)])
        cg_series.fault_rates.append(float(target))
        cg_series.values.append([_best_energy_cg(target)])
    return get_kernel("energy").make_figure(
        [cholesky_series, cg_series],
        notes="inf means the configuration could not reach the accuracy target",
    )


# --------------------------------------------------------------------------- #
# Text results: §6.3 FLOP costs, §7 overhead
# --------------------------------------------------------------------------- #
def flop_cost_comparison(shape: tuple = (100, 10), seed: int = _WORKLOAD_SEED) -> FigureResult:
    """§6.3: FLOP cost of CG (10 iterations) vs the decomposition baselines.

    The paper reports CG ≈30 % faster than the QR/SVD baselines and
    comparable to Cholesky; FLOP counts on the simulated processor are the
    corresponding platform-independent quantity.
    """
    A, b, _ = random_least_squares(shape[0], shape[1], rng=seed)
    runs = {
        "Base: SVD": lambda proc: baseline_least_squares(A, b, proc, method="svd"),
        "Base: QR": lambda proc: baseline_least_squares(A, b, proc, method="qr"),
        "Base: Cholesky": lambda proc: baseline_least_squares(A, b, proc, method="cholesky"),
        "CG, N=10": lambda proc: robust_least_squares_cg(A, b, proc),
        "SGD, 1000 iters": lambda proc: robust_least_squares_sgd(A, b, proc),
    }
    all_series = []
    for name, factory in runs.items():
        proc = StochasticProcessor(fault_rate=0.0, rng=seed)
        result = factory(proc)
        series = SeriesResult(name=name)
        series.fault_rates.append(0.0)
        series.values.append([float(result.flops)])
        all_series.append(series)
    return get_kernel("flop_costs").make_figure(all_series)


def overhead_table(
    iterations_sorting: int = 10000,
    iterations_lsq: int = 1000,
    seed: int = _WORKLOAD_SEED,
) -> FigureResult:
    """§7: FLOP overhead of the robust implementations vs their baselines.

    The paper observes 10–1000× more floating-point operations for the
    stochastic implementations.
    """
    values = random_array(5, rng=seed)
    A, b, _ = random_least_squares(100, 10, rng=seed)
    filt = random_stable_iir(10, rng=seed, pole_radius=0.8)
    signal = sum_of_sinusoids(500)
    graph = _matching_workload(seed)

    def _ratio(robust_flops: float, baseline_flops: float) -> float:
        return robust_flops / max(baseline_flops, 1.0)

    entries = {}
    proc = StochasticProcessor(fault_rate=0.0, rng=seed)
    sort_robust = robust_sort(
        values, proc, default_sorting_config(iterations=iterations_sorting)
    ).flops
    proc = StochasticProcessor(fault_rate=0.0, rng=seed)
    sort_base = baseline_sort(values, proc).flops
    entries["sorting"] = _ratio(sort_robust, sort_base)

    proc = StochasticProcessor(fault_rate=0.0, rng=seed)
    lsq_robust = robust_least_squares_sgd(
        A, b, proc, options=sgd_options_for_variant(
            "SGD,LS", iterations=iterations_lsq, base_step=default_least_squares_step(A)
        )
    ).flops
    proc = StochasticProcessor(fault_rate=0.0, rng=seed)
    lsq_base = baseline_least_squares(A, b, proc, method="cholesky").flops
    entries["least squares (SGD vs Cholesky)"] = _ratio(lsq_robust, lsq_base)

    proc = StochasticProcessor(fault_rate=0.0, rng=seed)
    iir_robust = robust_iir_filter(filt, signal, proc).flops
    proc = StochasticProcessor(fault_rate=0.0, rng=seed)
    iir_base = baseline_iir_filter(filt, signal, proc).flops
    entries["iir"] = _ratio(iir_robust, iir_base)

    proc = StochasticProcessor(fault_rate=0.0, rng=seed)
    match_robust = robust_matching(
        graph, proc, default_matching_config(iterations=iterations_sorting, graph=graph)
    ).flops
    proc = StochasticProcessor(fault_rate=0.0, rng=seed)
    match_base = baseline_matching(graph, proc).flops
    entries["matching"] = _ratio(match_robust, match_base)

    all_series = []
    for name, ratio in entries.items():
        series = SeriesResult(name=name)
        series.fault_rates.append(0.0)
        series.values.append([float(ratio)])
        all_series.append(series)
    return get_kernel("overhead").make_figure(all_series)
