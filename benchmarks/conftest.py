"""Shared helpers for the benchmark harness.

Each benchmark module regenerates one table/figure of the paper at a reduced
but representative scale (fewer trials and iterations than the paper's
10,000-iteration FPGA runs, so the whole suite completes in minutes), prints
the resulting table, and registers a single-round pytest-benchmark entry that
times one representative solve.  The kernel under test is looked up by its
registry name (``repro.experiments.kernels``), which supplies the figure
builder and the success-rate formatting — the per-module boilerplate reduces
to :func:`run_kernel_benchmark` plus the figure's qualitative assertions.
``docs/figures.md`` records the mapping from paper figures to kernels,
benchmark modules, and expected outputs.

Sweeps run through the experiment engine; the fixtures below hand benchmarks
ready-built engines so executor choice is one line.
"""

import pytest

from repro.experiments.engine import ExperimentEngine
from repro.experiments.kernels import get_kernel
from repro.experiments.reporting import format_figure


def print_report(text: str) -> None:
    """Print a figure table with visual separation in the pytest output."""
    print("\n" + "=" * 72)
    print(text)
    print("=" * 72)


def run_kernel_benchmark(benchmark, name: str, **overrides):
    """Regenerate one registered kernel's figure as the timed benchmark entry.

    Looks the kernel up by registry name, builds its figure once through
    ``benchmark.pedantic`` with the given reduced-scale parameter overrides,
    prints the table with the kernel's metric formatting, and returns the
    :class:`~repro.experiments.results.FigureResult` for the module's
    qualitative assertions.
    """
    spec = get_kernel(name)
    figure = benchmark.pedantic(spec.build, kwargs=overrides, rounds=1, iterations=1)
    print_report(format_figure(figure, use_success_rate=spec.use_success_rate))
    return figure


@pytest.fixture
def reduced_fault_rates():
    """A compact fault-rate grid covering the paper's range (0.1 % – 50 %)."""
    return (0.001, 0.05, 0.2, 0.5)


@pytest.fixture
def serial_engine():
    """The reference engine: serial executor, no cache."""
    return ExperimentEngine(executor="serial")


@pytest.fixture
def auto_engine():
    """The vectorized engine: tensorized backend for batch-capable series."""
    return ExperimentEngine(executor="vectorized")
