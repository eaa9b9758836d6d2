"""Cross-module integration and invariant (property-based) tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.applications.least_squares import baseline_least_squares, robust_least_squares_cg
from repro.applications.sorting import baseline_sort, default_sorting_config, robust_sort
from repro.core.transform import RobustSolveConfig, solve_penalized_lp
from repro.core.variants import list_variants
from repro.optimizers.penalty import PenaltyKind
from repro.optimizers.problem import LinearConstraints, LinearProgram
from repro.processor.stochastic import StochasticProcessor
from repro.workloads.generators import random_least_squares


class TestPublicAPI:
    def test_top_level_exports(self):
        assert repro.__version__
        assert "ALL" in list_variants()

    def test_quickstart_flow(self):
        proc = repro.StochasticProcessor(fault_rate=0.02, rng=0)
        A, b, _ = random_least_squares(40, 6, rng=1)
        result = robust_least_squares_cg(A, b, proc)
        assert result.relative_error < 0.5
        assert proc.flops > 0
        assert proc.energy() > 0

    def test_voltage_driven_workflow(self):
        proc = repro.StochasticProcessor(voltage=0.8, rng=0)
        assert proc.fault_rate == pytest.approx(1e-5, rel=0.5)
        proc.corrupt(np.ones(100))
        energy_overscaled = proc.energy()
        assert energy_overscaled < proc.energy_model.energy(proc.flops, 1.0)


class TestEndToEndRobustness:
    """The headline claim: robust implementations keep working where the
    conventional ones break (under the default mantissa+sign fault model)."""

    def test_sorting_robust_vs_baseline_at_high_fault_rate(self):
        values = np.array([9.0, 2.5, 6.1, 0.7, 4.2])
        robust_successes, baseline_successes = 0, 0
        trials = 4
        for seed in range(trials):
            proc = StochasticProcessor(fault_rate=0.3, rng=seed)
            config = default_sorting_config(iterations=2500, values=values)
            robust_successes += robust_sort(values, proc, config).success
            proc = StochasticProcessor(fault_rate=0.3, rng=100 + seed)
            baseline_successes += baseline_sort(values, proc).success
        assert robust_successes >= baseline_successes

    def test_cg_least_squares_beats_cholesky_under_faults(self):
        A, b, _ = random_least_squares(80, 8, rng=2)
        robust_errors, baseline_errors = [], []
        for seed in range(3):
            proc = StochasticProcessor(fault_rate=0.01, rng=seed)
            robust_errors.append(robust_least_squares_cg(A, b, proc).relative_error)
            proc = StochasticProcessor(fault_rate=0.01, rng=50 + seed)
            baseline_errors.append(
                baseline_least_squares(A, b, proc, method="cholesky").relative_error
            )
        assert np.median(robust_errors) < np.median(baseline_errors)


class TestFlopAccountingInvariants:
    def test_flops_monotonically_increase(self):
        proc = StochasticProcessor(fault_rate=0.1, rng=0)
        counts = []
        for _ in range(5):
            proc.corrupt(np.ones(50), ops_per_element=2)
            counts.append(proc.flops)
        assert counts == sorted(counts)
        assert counts[-1] == 5 * 100

    def test_energy_consistent_with_flops(self):
        proc = StochasticProcessor(fault_rate=0.0, rng=0)
        proc.count_flops(1000)
        assert proc.energy(voltage=1.0) == pytest.approx(1000.0)
        assert proc.energy(voltage=0.5) == pytest.approx(250.0)


@st.composite
def small_lp(draw):
    """A random bounded LP over the box [0, 1]^n with a random linear cost."""
    n = draw(st.integers(min_value=2, max_value=4))
    cost = draw(
        st.lists(
            st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
            min_size=n, max_size=n,
        )
    )
    constraints = LinearConstraints(
        A_ub=np.vstack([np.eye(n), -np.eye(n)]),
        b_ub=np.concatenate([np.ones(n), np.zeros(n)]),
    )
    return LinearProgram(c=np.asarray(cost), constraints=constraints, name="box-lp")


class TestPenaltySolverProperties:
    @given(lp=small_lp())
    @settings(max_examples=10, deadline=None)
    def test_fault_free_box_lp_reaches_correct_vertex(self, lp):
        """For a box LP the optimum is known in closed form: x_i = 1 when
        c_i < 0, else 0 (ties irrelevant for costs bounded away from 0)."""
        config = RobustSolveConfig(
            variant="SGD,SQS", iterations=1000, base_step=0.3, penalty=8.0,
            penalty_kind=PenaltyKind.L1,
        )
        proc = StochasticProcessor(fault_rate=0.0, rng=0)
        solution, _ = solve_penalized_lp(lp, proc, config)
        for c_i, x_i in zip(lp.c, solution):
            if c_i < -0.3:
                assert x_i > 0.6
            elif c_i > 0.3:
                assert x_i < 0.4

    @given(lp=small_lp(), fault_rate=st.sampled_from([0.05, 0.2]))
    @settings(max_examples=6, deadline=None)
    def test_noisy_solver_always_returns_finite_solution(self, lp, fault_rate):
        config = RobustSolveConfig(
            variant="SGD,SQS", iterations=300, base_step=0.1, penalty=8.0,
            penalty_kind=PenaltyKind.L1,
        )
        proc = StochasticProcessor(fault_rate=fault_rate, rng=1)
        solution, result = solve_penalized_lp(lp, proc, config)
        assert np.all(np.isfinite(solution))
        assert result.faults_injected >= 0


class TestFaultModelInvariants:
    @given(
        fault_rate=st.floats(min_value=0.0, max_value=1.0),
        ops=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=40, deadline=None)
    def test_effective_probability_monotone(self, fault_rate, ops):
        from repro.faults.vectorized import effective_fault_probability

        p1 = float(effective_fault_probability(fault_rate, ops))
        p2 = float(effective_fault_probability(fault_rate, ops + 1))
        assert 0.0 <= p1 <= p2 <= 1.0

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_corruption_preserves_shape_and_dtype(self, seed):
        proc = StochasticProcessor(fault_rate=0.5, rng=seed)
        values = np.linspace(-1, 1, 37).reshape(37)
        corrupted = proc.corrupt(values)
        assert corrupted.shape == values.shape
        assert corrupted.dtype == np.float64
