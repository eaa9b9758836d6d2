"""Sweep-spec, scenario, and workload strategies shared by the test suite.

Two layers live here:

* **Deterministic workload factories** — the micro trial functions and
  processor builders the executor/tensor tests compare across tiers
  (:func:`make_plain_sum_trial`, :func:`noisy_metric`, :func:`make_procs`,
  :func:`sorting_sweep`, :func:`make_grid`);
* **Hypothesis strategies** over the sweep axes — rate grids, trial counts,
  seeds, scenario axes, series line-ups, and whole :class:`SweepSpec`
  objects (:func:`sweep_specs`) — so every property suite hunts over the
  same spec shapes.
"""

import numpy as np
from hypothesis import strategies as st

from repro.experiments.spec import SweepSpec
from repro.experiments.trials import make_noisy_sum_trial
from repro.processor.stochastic import StochasticProcessor

#: Mixed per-trial fault rates (including zero and a duplicate) used by the
#: tensor-backend bit-identity tests.
MIXED_RATES = [0.0, 0.001, 0.01, 0.1, 0.1, 0.5]

#: Scenario axes worth hunting over: none (classic sweep), a two-model grid,
#: and a grid mixing datapath dtypes (float32 nominal + float64 preset),
#: which forces the batched tiers into per-dtype sub-batches.
SCENARIO_AXES = (
    None,
    ("nominal", "low-order-seu"),
    ("nominal", "double-precision-64"),
)


def make_plain_sum_trial(n: int):
    """A serial-only (non-batchable) twin of the noisy-sum microworkload."""

    def trial(proc, stream) -> float:
        corrupted = proc.corrupt(stream.random(n), ops_per_element=4)
        return float(np.sum(corrupted))

    return trial


def noisy_metric(proc, stream):
    """A scalar (non-0/1) metric trial: corrupted sum plus stream noise."""
    corrupted = proc.corrupt(stream.random(24), ops_per_element=4)
    return float(np.nansum(corrupted)) + float(stream.random())


#: (label, factory) pool: batchable workloads of two sizes plus a
#: serial-only one, so batches can mix fast-path and fallback series.
SERIES_POOL = {
    "sum8": lambda: make_noisy_sum_trial(n=8, ops_per_element=4),
    "sum16": lambda: make_noisy_sum_trial(n=16, ops_per_element=4),
    "plain": lambda: make_plain_sum_trial(n=8),
}


def make_procs(rates=MIXED_RATES, seed=7):
    """One seeded processor per fault rate, as the serial reference builds them."""
    return [
        StochasticProcessor(fault_rate=rate, rng=np.random.default_rng([seed, i]))
        for i, rate in enumerate(rates)
    ]


def make_grid(scenarios, trials=2, **kwargs):
    """A small two-series scenario-grid SweepSpec with overridable axes."""
    defaults = dict(
        trial_functions={"a": noisy_metric, "b": noisy_metric},
        fault_rates=(0.05, 0.5),
        trials=trials,
        seed=42,
        scenarios=scenarios,
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


def sorting_sweep(trials=3, iterations=40, rates=(0.0, 0.01, 0.1)):
    """A miniature Figure 6.1 sorting sweep mixing batchable and serial series."""
    from repro.experiments.kernels import get_kernel

    return SweepSpec(
        get_kernel("sorting").sweep_functions(
            iterations=iterations, array_size=4, series={"Base": None, "SGD": "SGD,LS"}
        ),
        fault_rates=rates,
        trials=trials,
        seed=2010,
    )


# --------------------------------------------------------------------------- #
# Hypothesis strategies over the sweep axes
# --------------------------------------------------------------------------- #
def fault_rate_grids(max_size: int = 3):
    """Small unique fault-rate grids drawn from the interesting rates."""
    return st.lists(
        st.sampled_from([0.001, 0.05, 0.2, 0.5]),
        min_size=1,
        max_size=max_size,
        unique=True,
    ).map(tuple)


def trial_counts(max_trials: int = 3):
    """Per-point trial counts (small, to keep machine steps fast)."""
    return st.integers(min_value=1, max_value=max_trials)


def seeds():
    """Sweep seeds."""
    return st.integers(min_value=0, max_value=2**16)


def scenario_axes():
    """An optional scenario axis: ``None`` or one of the preset pairs."""
    return st.sampled_from(SCENARIO_AXES)


def series_selections(max_series: int = 3):
    """Non-empty series line-ups drawn from :data:`SERIES_POOL`.

    Returns label → trial-function dicts mixing batchable and serial-only
    workloads, which is what makes the batched tiers' fallback paths
    reachable from generated specs.
    """
    return st.lists(
        st.sampled_from(sorted(SERIES_POOL)),
        min_size=1,
        max_size=max_series,
        unique=True,
    ).map(lambda names: {name: SERIES_POOL[name]() for name in names})


@st.composite
def sweep_specs(draw, policies=st.none()):
    """Whole SweepSpec objects over the shared axes.

    ``policies`` generates the spec's trial-budget policy; pass
    :func:`tests.strategies.budgets.budget_policies` to hunt over
    fixed-count and confidence-target budgets too.
    """
    return SweepSpec(
        trial_functions=draw(series_selections()),
        fault_rates=draw(fault_rate_grids()),
        trials=draw(trial_counts()),
        seed=draw(seeds()),
        scenarios=draw(scenario_axes()),
        policy=draw(policies),
    )
