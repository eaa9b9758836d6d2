"""Builders of the figures that are not fault-rate sweeps.

Every sweep-shaped figure — Figures 6.1–6.6, the §6.2.2 momentum study, the
§4.5–§4.7 extensions and the cross-model and voltage studies — is built by
:meth:`repro.experiments.kernels.KernelSpec.build` from its registration
alone.  The five figures left here compute something else: the bit-position
distributions of Figure 5.1, the voltage/error-rate curve of Figure 5.2, the
energy search of Figure 6.7, and the §6.3 FLOP-cost and §7 overhead tables.
Each builder takes keyword-only parameters without defaults; the paper
values live in the kernel's ``defaults`` and reach the builder through
``get_kernel(name).build(**overrides)``.  ``docs/figures.md`` maps every
figure to its kernel, benchmark module, and expected output.
"""

from __future__ import annotations

from typing import Optional, Sequence

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
from repro.experiments.kernels import get_kernel, matching_workload
from repro.experiments.results import FigureResult, SeriesResult
from repro.experiments.scenarios import voltage_scenario
from repro.experiments.spec import SweepSpec
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
    "figure_5_1",
    "figure_5_2",
    "figure_6_7",
    "flop_cost_comparison",
    "overhead_table",
]


# --------------------------------------------------------------------------- #
# Chapter 5 (methodology) figures
# --------------------------------------------------------------------------- #
def figure_5_1(*, width: int) -> FigureResult:
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
    *, n_points: int, trials: int, ops_per_trial: int, seed: int,
    engine: Optional[ExperimentEngine],
) -> FigureResult:
    """Figure 5.2: FPU error rate as the supply voltage is scaled.

    Expressed as a ScenarioGrid study: each sampled voltage is a
    voltage-pinned :class:`~repro.experiments.scenarios.Scenario`, so the
    analytic curve falls directly out of the scenarios' effective fault
    rates, and a companion Monte-Carlo series measures the *empirical*
    errors-per-FLOP of a processor built at each operating point (one noisy
    block of ``ops_per_trial`` FLOPs per trial, through the engine like any
    other grid; ``engine=None`` runs the serial engine).  This replaces the
    former one-off ``model.curve()`` plumbing with the same declarative grid
    every other scenario study uses.
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

    grid = (engine or ExperimentEngine()).run_sweep(
        SweepSpec(
            {"empirical": empirical_error_rate},
            fault_rates=(0.0,),
            trials=trials,
            seed=seed,
            scenarios=scenarios,
        )
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
# Figure 6.7 — energy vs accuracy target
# --------------------------------------------------------------------------- #
def figure_6_7(
    *, accuracy_targets: Sequence[float], trials: int, cg_iteration_grid: Sequence[int],
    error_rate_grid: Sequence[float], shape: tuple, seed: int,
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
def flop_cost_comparison(*, shape: tuple, seed: int) -> FigureResult:
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
    *, iterations_sorting: int, iterations_lsq: int, seed: int
) -> FigureResult:
    """§7: FLOP overhead of the robust implementations vs their baselines.

    The paper observes 10–1000× more floating-point operations for the
    stochastic implementations.
    """
    values = random_array(5, rng=seed)
    A, b, _ = random_least_squares(100, 10, rng=seed)
    filt = random_stable_iir(10, rng=seed, pole_radius=0.8)
    signal = sum_of_sinusoids(500)
    graph = matching_workload(seed)

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
