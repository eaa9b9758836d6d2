"""The in-repo assignment solve behind the sorting and matching rounding.

``repro.applications.assignment.linear_sum_assignment`` is a port of
SciPy's shortest augmenting path solver; SciPy is imported here as the
reference only.  Fresh-interpreter tests pin that building and running
the combinatorial kernels, a vectorized sweep cell and a serial-pool
campaign loads no SciPy module, nor any other module such a run never uses,
and that a sorting-only run loads no other application.
"""

import textwrap

import numpy as np
from conftest import run_fresh
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linear_sum_assignment as scipy_assignment

from repro.applications.assignment import linear_sum_assignment


@st.composite
def cost_matrices(draw):
    """0x0 to 8x8 costs: tie-heavy integers or floats, +inf blocks, NaN/-inf."""
    shape = (draw(st.integers(0, 8)), draw(st.integers(0, 8)))
    elements = draw(
        st.sampled_from(
            [
                st.integers(-2, 2).map(float),
                st.floats(-1e3, 1e3),
                st.floats(allow_nan=False, allow_infinity=False),
            ]
        )
    )
    matrix = draw(hnp.arrays(np.float64, shape, elements=elements))
    if matrix.size and draw(st.booleans()):
        rows = sorted(draw(st.integers(0, shape[0])) for _ in range(2))
        cols = sorted(draw(st.integers(0, shape[1])) for _ in range(2))
        matrix[rows[0] : rows[1], cols[0] : cols[1]] = np.inf
    if matrix.size and draw(st.integers(0, 4)) == 0:
        index = (draw(st.integers(0, shape[0] - 1)), draw(st.integers(0, shape[1] - 1)))
        matrix[index] = draw(st.sampled_from([np.nan, -np.inf]))
    return matrix


def _solve(solver, matrix):
    try:
        return solver(matrix)
    except ValueError:
        return "ValueError"


@settings(max_examples=500, deadline=None)
@given(matrix=cost_matrices())
# Columns are scanned from the last one down and a tie goes to an unassigned
# column, so constant costs give the identity.
@example(matrix=np.zeros((3, 3)))
# A tall matrix is solved transposed and its pairs re-sorted by row.
@example(matrix=np.array([[9.0, 0.0], [0.0, 9.0], [9.0, 9.0]]))
@example(matrix=np.zeros((0, 4)))
@example(matrix=np.array([[np.nan, 1.0], [1.0, 2.0]]))
@example(matrix=np.array([[-np.inf, 1.0], [1.0, 2.0]]))
@example(matrix=np.array([[np.inf, np.inf], [1.0, 2.0]]))
@example(matrix=np.zeros(3))
def test_matches_scipy(matrix):
    expected = _solve(scipy_assignment, matrix.copy())
    actual = _solve(linear_sum_assignment, matrix.copy())
    if isinstance(expected, str):
        assert actual == expected
        return
    assert not isinstance(actual, str)
    for got, want in zip(actual, expected):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


COLD_START = textwrap.dedent(
    """
    import sys
    import tempfile

    import numpy as np

    import repro
    from repro.experiments.campaign import CampaignRunner, ShardPlanner
    from repro.experiments.engine import ExperimentEngine
    from repro.experiments.kernels import get_kernel
    from repro.experiments.spec import SweepSpec
    from repro.processor.stochastic import StochasticProcessor

    functions = {
        "sorting": get_kernel("sorting").sweep_functions(iterations=40),
        "matching": get_kernel("matching").sweep_functions(iterations=40),
        "cg_least_squares": get_kernel("cg_least_squares").sweep_functions(),
        "iir": get_kernel("iir").sweep_functions(iterations=40),
    }
    for kernel in ("sorting", "matching"):
        trial = functions[kernel]["SGD+AS,SQS"]
        trial(StochasticProcessor(fault_rate=0.01, rng=1), np.random.default_rng(1))
    cell = {"SGD+AS,SQS": functions["sorting"]["SGD+AS,SQS"]}
    ExperimentEngine("vectorized").run_sweep(
        SweepSpec(cell, fault_rates=(0.01,), trials=2, seed=1)
    )
    with tempfile.TemporaryDirectory() as store:
        runner = CampaignRunner(store, planner=ShardPlanner("cell"), pool="serial")
        runner.submit(SweepSpec(cell, fault_rates=(0.0, 0.01), trials=2, seed=1)).run()
    # SciPy, the masked arrays np.unique and np.median import, the process
    # pool's stack and uuid: none of them runs here.
    unused = ("scipy", "numpy.ma", "multiprocessing", "concurrent.futures", "uuid")
    print(sorted(
        name for name in sys.modules
        if any(name == root or name.startswith(root + ".") for root in unused)
    ))
    """
)


def test_cold_start_loads_only_what_it_runs():
    assert run_fresh(COLD_START) == "[]"


SORTING_ONLY = textwrap.dedent(
    """
    import sys
    import tempfile

    from repro.experiments.campaign import CampaignRunner, ShardPlanner
    from repro.experiments.engine import ExperimentEngine
    from repro.experiments.kernels import get_kernel
    from repro.experiments.spec import SweepSpec

    functions = get_kernel("sorting").sweep_functions(iterations=40)
    cell = {"SGD+AS,SQS": functions["SGD+AS,SQS"]}
    ExperimentEngine("vectorized").run_sweep(
        SweepSpec(cell, fault_rates=(0.01,), trials=2, seed=1)
    )
    with tempfile.TemporaryDirectory() as store:
        runner = CampaignRunner(store, planner=ShardPlanner("cell"), pool="serial")
        runner.submit(SweepSpec(cell, fault_rates=(0.0, 0.01), trials=2, seed=1)).run()
    unused = [
        "repro.backends.cnative",
        *(f"repro.applications.{name}" for name in (
            "iir", "least_squares", "eigen", "maxflow", "shortest_path", "svm",
        )),
        "repro.linalg.svd",
        "repro.linalg.qr",
        "repro.linalg.cholesky",
        "repro.optimizers.conjugate_gradient",
        "repro.experiments.figures",
        "repro.experiments.reporting",
        *(f"repro.applications.baselines.{name}" for name in (
            "hungarian", "ford_fulkerson", "floyd_warshall",
        )),
    ]
    print(sorted(name for name in unused if name in sys.modules))
    """
)


def test_sorting_run_loads_no_other_application():
    # On the numpy tier: a REPRO_BACKEND=cnative run rightly loads cnative.
    assert run_fresh(SORTING_ONLY, REPRO_BACKEND="numpy") == "[]"
