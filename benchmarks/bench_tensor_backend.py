"""Tensorized trial backend: the vectorized executor vs the serial reference.

The acceptance scenario for the tensor backend: the Figure 6.1 sorting sweep
(all four series, the paper's full 6-rate grid) at reduced scale — fewer
trials and scheduled iterations than the paper's 10,000-iteration runs — run
once by the serial reference and once by the ``vectorized`` executor, which
advances each series' whole (fault-rate × trials) grid as one stacked numpy
computation.  The tensorized run must reproduce the serial floats exactly
(trial streams derive from the plan, and every batched kernel consumes them
in serial order) and be at least 5x faster; both properties are asserted.
Unlike the process pool, the speedup does not depend on core count — it comes
from replacing per-trial interpreter overhead with fused tensor passes.
"""

import time

from benchmarks.conftest import print_report
from repro.experiments.engine import ExperimentEngine
from repro.experiments.kernels import get_kernel
from repro.experiments.reporting import format_figure
from repro.experiments.results import FigureResult
from repro.experiments.spec import DEFAULT_FAULT_RATES, SweepSpec

TRIALS = 16
ITERATIONS = 600  # reduced scale; the paper's Figure 6.1 uses 10,000
TARGET_SPEEDUP = 5.0


def _sweep() -> SweepSpec:
    # The registry's Figure 6.1 workload: the paper's 5-element array at
    # workload seed 2010, all four series.
    return SweepSpec(
        get_kernel("sorting").sweep_functions(iterations=ITERATIONS),
        fault_rates=DEFAULT_FAULT_RATES,  # the paper's 6-rate grid
        trials=TRIALS,
        seed=2010,
    )


def test_vectorized_executor_matches_serial_and_hits_target(benchmark):
    start = time.perf_counter()
    serial_series = ExperimentEngine(executor="serial").run_sweep(_sweep())
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    vectorized_series = ExperimentEngine(executor="vectorized").run_sweep(_sweep())
    vectorized_seconds = time.perf_counter() - start

    # Bit-identical results: the tensorized backend consumes every trial's
    # private stream in serial order, so the floats match exactly.
    assert [s.values for s in vectorized_series] == [s.values for s in serial_series]
    assert [s.name for s in vectorized_series] == [s.name for s in serial_series]

    speedup = serial_seconds / vectorized_seconds
    figure = FigureResult(
        figure_id="Tensor backend benchmark",
        title=(
            f"Figure 6.1 sweep at reduced scale "
            f"({len(DEFAULT_FAULT_RATES)} rates x {TRIALS} trials, "
            f"{ITERATIONS} iterations)"
        ),
        x_label="fault rate (fraction of FLOPs)",
        y_label="success rate (identical across executors)",
        series=vectorized_series,
        notes=(
            f"serial {serial_seconds:.2f}s vs vectorized {vectorized_seconds:.2f}s; "
            f"speedup x{speedup:.2f} (target >= x{TARGET_SPEEDUP:.0f})"
        ),
    )
    print_report(format_figure(figure))

    assert speedup >= TARGET_SPEEDUP, (
        f"tensorized backend speedup x{speedup:.2f} "
        f"(serial {serial_seconds:.2f}s, vectorized {vectorized_seconds:.2f}s) "
        f"is below the x{TARGET_SPEEDUP:.0f} target"
    )

    # Register the tensorized sweep as the timed entry.
    benchmark.pedantic(
        ExperimentEngine(executor="vectorized").run_sweep,
        args=(_sweep(),),
        rounds=1,
        iterations=1,
    )
