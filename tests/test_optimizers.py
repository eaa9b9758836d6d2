"""Unit and property tests for the stochastic optimization engines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ProblemSpecificationError
from repro.optimizers.annealing import PenaltyAnnealing
from repro.optimizers.conjugate_gradient import CGOptions, conjugate_gradient_least_squares
from repro.optimizers.momentum import MomentumSmoother
from repro.optimizers.penalty import ExactPenaltyProblem, PenaltyKind
from repro.optimizers.preconditioning import QRPreconditioner
from repro.optimizers.problem import (
    ConstrainedProblem,
    LinearConstraints,
    LinearProgram,
    QuadraticProblem,
    UnconstrainedProblem,
)
from repro.optimizers.sgd import (
    SGDOptions,
    stochastic_gradient_descent,
    stochastic_gradient_descent_batch,
)
from repro.optimizers.step_schedules import (
    AggressiveStepping,
    ConstantSchedule,
    LinearDecaySchedule,
    SqrtDecaySchedule,
    make_schedule,
)
from repro.processor.batch import ProcessorBatch
from repro.processor.stochastic import StochasticProcessor
from repro.workloads.generators import random_least_squares


def reliable():
    return StochasticProcessor(fault_rate=0.0, rng=0)


class TestStepSchedules:
    def test_linear_decay(self):
        schedule = LinearDecaySchedule(base_step=2.0)
        assert schedule(1) == 2.0
        assert schedule(4) == 0.5

    def test_sqrt_decay(self):
        schedule = SqrtDecaySchedule(base_step=2.0)
        assert schedule(4) == pytest.approx(1.0)

    def test_constant(self):
        schedule = ConstantSchedule(base_step=0.3)
        assert schedule(1) == schedule(1000) == 0.3

    def test_make_schedule_by_name(self):
        assert isinstance(make_schedule("ls"), LinearDecaySchedule)
        assert isinstance(make_schedule("sqs"), SqrtDecaySchedule)
        assert isinstance(make_schedule("const"), ConstantSchedule)
        with pytest.raises(ProblemSpecificationError):
            make_schedule("bogus")

    def test_invalid_base_step(self):
        with pytest.raises(ProblemSpecificationError):
            LinearDecaySchedule(base_step=0.0)

    def test_iteration_must_be_positive(self):
        with pytest.raises(ProblemSpecificationError):
            LinearDecaySchedule()(0)

    @given(st.integers(1, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_sqs_is_never_smaller_than_ls(self, t):
        ls = LinearDecaySchedule(base_step=1.0)
        sqs = SqrtDecaySchedule(base_step=1.0)
        assert sqs(t) >= ls(t)


class TestAggressiveStepping:
    def test_update_step_directions(self):
        aggressive = AggressiveStepping(success_factor=2.0, fail_factor=0.5)
        assert aggressive.update_step(1.0, cost_decreased=True) == 2.0
        assert aggressive.update_step(1.0, cost_decreased=False) == 0.5

    def test_should_stop_threshold(self):
        aggressive = AggressiveStepping(relative_change_threshold=1e-3)
        assert aggressive.should_stop(1.0, 1.0 + 1e-5)
        assert not aggressive.should_stop(1.0, 1.5)

    def test_validation(self):
        with pytest.raises(ProblemSpecificationError):
            AggressiveStepping(success_factor=0.9)
        with pytest.raises(ProblemSpecificationError):
            AggressiveStepping(fail_factor=1.1)


class TestAnnealing:
    def test_penalty_grows_in_stages(self):
        annealing = PenaltyAnnealing(initial_penalty=1.0, growth_factor=2.0, period=10, max_penalty=16.0)
        assert annealing.penalty_at(1) == 1.0
        assert annealing.penalty_at(10) == 1.0
        assert annealing.penalty_at(11) == 2.0
        assert annealing.penalty_at(100) == 16.0  # capped

    def test_validation(self):
        with pytest.raises(ProblemSpecificationError):
            PenaltyAnnealing(initial_penalty=0.0)
        with pytest.raises(ProblemSpecificationError):
            PenaltyAnnealing(growth_factor=1.0)
        with pytest.raises(ProblemSpecificationError):
            PenaltyAnnealing(max_penalty=0.5)


class TestMomentum:
    def test_first_update_returns_gradient(self):
        smoother = MomentumSmoother(0.5)
        direction = smoother.update(np.array([1.0, -2.0]))
        np.testing.assert_allclose(direction, [1.0, -2.0])

    def test_smoothing(self):
        smoother = MomentumSmoother(0.5)
        smoother.update(np.array([1.0, 0.0]))
        direction = smoother.update(np.array([0.0, 1.0]))
        np.testing.assert_allclose(direction, [0.5, 0.5])

    def test_reset(self):
        smoother = MomentumSmoother(0.5)
        smoother.update(np.ones(3))
        smoother.reset()
        assert smoother.direction is None

    def test_invalid_beta(self):
        with pytest.raises(ProblemSpecificationError):
            MomentumSmoother(0.0)


class TestProblems:
    def test_quadratic_problem_gradient_matches_finite_difference(self, rng):
        A, b, _ = random_least_squares(20, 4, rng=rng)
        problem = QuadraticProblem(A, b)
        x = rng.standard_normal(4)
        grad = problem.gradient(x)
        eps = 1e-6
        for i in range(4):
            step = np.zeros(4)
            step[i] = eps
            numeric = (problem.value(x + step) - problem.value(x - step)) / (2 * eps)
            assert grad[i] == pytest.approx(numeric, rel=1e-3, abs=1e-3)

    def test_quadratic_exact_solution(self, rng):
        A, b, _ = random_least_squares(30, 5, rng=rng)
        problem = QuadraticProblem(A, b)
        grad_at_optimum = problem.gradient(problem.exact_solution())
        assert np.linalg.norm(grad_at_optimum) < 1e-8

    def test_linear_constraints_validation(self):
        with pytest.raises(ProblemSpecificationError):
            LinearConstraints(A_eq=np.eye(2), b_eq=None)
        with pytest.raises(ProblemSpecificationError):
            LinearConstraints(A_ub=np.eye(2), b_ub=np.ones(3))

    def test_constraint_violation_queries(self):
        constraints = LinearConstraints(
            A_eq=np.array([[1.0, 1.0]]), b_eq=np.array([1.0]),
            A_ub=np.array([[1.0, 0.0]]), b_ub=np.array([0.5]),
        )
        assert constraints.dimension == 2
        assert constraints.n_equalities == 1
        assert constraints.n_inequalities == 1
        x_feasible = np.array([0.4, 0.6])
        assert constraints.is_feasible(x_feasible)
        x_infeasible = np.array([2.0, 0.0])
        assert constraints.max_violation(x_infeasible) == pytest.approx(1.5)

    def test_linear_program_gradient_is_cost(self):
        lp = LinearProgram(
            c=np.array([1.0, -2.0]),
            constraints=LinearConstraints(A_ub=np.eye(2), b_ub=np.ones(2)),
        )
        np.testing.assert_allclose(lp.objective.gradient(np.zeros(2)), [1.0, -2.0])
        assert lp.objective.value(np.array([1.0, 1.0])) == pytest.approx(-1.0)

    def test_dimension_mismatch_raises(self):
        objective = UnconstrainedProblem(3, lambda x, p: 0.0, lambda x, p: np.zeros(3))
        constraints = LinearConstraints(A_ub=np.eye(2), b_ub=np.ones(2))
        with pytest.raises(ProblemSpecificationError):
            ConstrainedProblem(objective, constraints)

    def test_bad_gradient_shape_raises(self):
        problem = UnconstrainedProblem(2, lambda x, p: 0.0, lambda x, p: np.zeros(3))
        with pytest.raises(ProblemSpecificationError):
            problem.gradient(np.zeros(2))


class TestExactPenalty:
    def _simple_lp(self):
        # minimize -x subject to x <= 1, -x <= 0 (optimum x = 1)
        return LinearProgram(
            c=np.array([-1.0]),
            constraints=LinearConstraints(
                A_ub=np.array([[1.0], [-1.0]]), b_ub=np.array([1.0, 0.0])
            ),
        )

    @pytest.mark.parametrize("kind", [PenaltyKind.L1, PenaltyKind.QUADRATIC])
    def test_penalty_zero_inside_feasible_set(self, kind):
        penalized = ExactPenaltyProblem(self._simple_lp(), penalty=10.0, kind=kind)
        x = np.array([0.5])
        assert penalized.value(x) == pytest.approx(-0.5)
        assert penalized.constraint_violation(x) == 0.0

    @pytest.mark.parametrize("kind", [PenaltyKind.L1, PenaltyKind.QUADRATIC])
    def test_penalty_positive_outside(self, kind):
        penalized = ExactPenaltyProblem(self._simple_lp(), penalty=10.0, kind=kind)
        assert penalized.value(np.array([2.0])) > -2.0

    def test_l1_penalty_minimum_is_lp_vertex(self):
        penalized = ExactPenaltyProblem(self._simple_lp(), penalty=10.0, kind=PenaltyKind.L1)
        grid = np.linspace(-0.5, 2.0, 501)
        values = [penalized.value(np.array([g])) for g in grid]
        assert grid[int(np.argmin(values))] == pytest.approx(1.0, abs=5e-3)

    def test_gradient_matches_finite_difference_quadratic(self, rng):
        lp = LinearProgram(
            c=rng.standard_normal(3),
            constraints=LinearConstraints(
                A_ub=rng.standard_normal((4, 3)), b_ub=rng.standard_normal(4)
            ),
        )
        penalized = ExactPenaltyProblem(lp, penalty=3.0, kind=PenaltyKind.QUADRATIC)
        x = rng.standard_normal(3)
        grad = penalized.gradient(x)
        eps = 1e-6
        for i in range(3):
            step = np.zeros(3)
            step[i] = eps
            numeric = (penalized.value(x + step) - penalized.value(x - step)) / (2 * eps)
            assert grad[i] == pytest.approx(numeric, rel=1e-3, abs=1e-3)

    def test_invalid_penalty_raises(self):
        with pytest.raises(ProblemSpecificationError):
            ExactPenaltyProblem(self._simple_lp(), penalty=0.0)

    def test_noisy_evaluation_runs(self):
        penalized = ExactPenaltyProblem(self._simple_lp(), penalty=10.0)
        proc = StochasticProcessor(fault_rate=0.1, rng=0)
        value = penalized.value(np.array([2.0]), proc)
        grad = penalized.gradient(np.array([2.0]), proc)
        assert np.isscalar(value) or isinstance(value, float)
        assert grad.shape == (1,)
        assert proc.flops > 0


class TestSGD:
    def test_converges_on_quadratic_fault_free(self, rng):
        A, b, _ = random_least_squares(30, 5, rng=rng)
        problem = QuadraticProblem(A, b)
        options = SGDOptions(iterations=500, schedule="const", base_step=0.3 / np.linalg.norm(A, 2) ** 2)
        result = stochastic_gradient_descent(problem, reliable(), options)
        np.testing.assert_allclose(result.x, problem.exact_solution(), atol=1e-2)
        assert result.converged
        assert result.flops > 0

    def test_noisy_convergence_is_close(self, rng):
        A, b, _ = random_least_squares(30, 5, rng=rng)
        problem = QuadraticProblem(A, b)
        proc = StochasticProcessor(fault_rate=0.01, rng=4)
        options = SGDOptions(iterations=800, schedule="ls", base_step=0.5 / np.linalg.norm(A, 2) ** 2)
        result = stochastic_gradient_descent(problem, proc, options)
        error = np.linalg.norm(result.x - problem.exact_solution()) / np.linalg.norm(problem.exact_solution())
        assert error < 0.5
        assert result.faults_injected > 0

    def test_history_recording(self, rng):
        A, b, _ = random_least_squares(20, 3, rng=rng)
        problem = QuadraticProblem(A, b)
        options = SGDOptions(iterations=100, record_history=True, record_every=10,
                             base_step=0.1 / np.linalg.norm(A, 2) ** 2)
        result = stochastic_gradient_descent(problem, reliable(), options)
        assert len(result.history) == 10
        assert result.best_recorded_objective() is not None

    def test_gradient_sanitization_zeroes_nonfinite(self):
        calls = {"n": 0}

        def bad_gradient(x, proc):
            calls["n"] += 1
            g = np.ones(2)
            g[0] = np.nan
            return g

        problem = UnconstrainedProblem(2, lambda x, p: float(x @ x), bad_gradient)
        options = SGDOptions(iterations=10, schedule="const", base_step=0.1)
        result = stochastic_gradient_descent(problem, reliable(), options)
        assert np.all(np.isfinite(result.x))
        assert result.x[0] == 0.0  # NaN component never applied

    def test_gradient_clip_and_outlier_rejection(self):
        def spiky_gradient(x, proc):
            return np.array([1.0, 1.0, 1e9])

        problem = UnconstrainedProblem(3, lambda x, p: 0.0, spiky_gradient)
        options = SGDOptions(iterations=1, schedule="const", base_step=1.0, gradient_clip=10.0)
        result = stochastic_gradient_descent(problem, reliable(), options)
        assert result.x[2] == -10.0  # clipped, not rejected

    def test_aggressive_phase_only_accepts_improvements(self, rng):
        A, b, _ = random_least_squares(20, 3, rng=rng)
        problem = QuadraticProblem(A, b)
        options = SGDOptions(
            iterations=5, schedule="ls", base_step=0.2 / np.linalg.norm(A, 2) ** 2,
            aggressive=AggressiveStepping(max_iterations=100),
        )
        start_value = problem.value(problem.initial_point())
        result = stochastic_gradient_descent(problem, reliable(), options)
        assert result.objective <= start_value
        assert result.iterations > 5

    def test_invalid_options(self):
        with pytest.raises(ProblemSpecificationError):
            SGDOptions(iterations=0)
        with pytest.raises(ProblemSpecificationError):
            SGDOptions(gradient_clip=-1.0)

    def test_bad_initial_point_shape(self, rng):
        A, b, _ = random_least_squares(10, 3, rng=rng)
        problem = QuadraticProblem(A, b)
        with pytest.raises(ProblemSpecificationError):
            stochastic_gradient_descent(problem, reliable(), SGDOptions(iterations=1), x0=np.zeros(5))

    def test_batched_solve_requires_a_batch_gradient(self):
        """The batched driver has no per-trial fallback for a serial-only problem."""
        problem = UnconstrainedProblem(2, lambda x, p: float(x @ x), lambda x, p: 2.0 * x)
        batch = ProcessorBatch([reliable(), reliable()])
        with pytest.raises(ProblemSpecificationError, match="tensorized gradient"):
            stochastic_gradient_descent_batch(problem, batch, SGDOptions(iterations=3))


class TestConjugateGradient:
    def test_exact_convergence_fault_free(self, rng):
        A, b, _ = random_least_squares(40, 8, rng=rng)
        result = conjugate_gradient_least_squares(A, b, reliable(), CGOptions(iterations=16))
        expected, *_ = np.linalg.lstsq(A, b, rcond=None)
        np.testing.assert_allclose(result.x, expected, rtol=1e-2, atol=1e-3)

    def test_noisy_cg_stays_accurate(self, rng):
        A, b, _ = random_least_squares(60, 8, rng=rng)
        expected, *_ = np.linalg.lstsq(A, b, rcond=None)
        proc = StochasticProcessor(fault_rate=0.01, rng=5)
        result = conjugate_gradient_least_squares(A, b, proc, CGOptions(iterations=10))
        error = np.linalg.norm(result.x - expected) / np.linalg.norm(expected)
        assert error < 1.0
        assert np.all(np.isfinite(result.x))

    def test_history_and_accounting(self, rng):
        A, b, _ = random_least_squares(20, 4, rng=rng)
        result = conjugate_gradient_least_squares(
            A, b, reliable(), CGOptions(iterations=6, record_history=True)
        )
        assert len(result.history) == 6
        assert result.flops > 0

    def test_shape_validation(self):
        with pytest.raises(ProblemSpecificationError):
            conjugate_gradient_least_squares(np.ones((4, 2)), np.ones(3), reliable())
        with pytest.raises(ProblemSpecificationError):
            CGOptions(iterations=0)


class TestQRPreconditioner:
    def _lp(self, rng):
        A_ub = np.vstack([-np.eye(3), rng.uniform(0.5, 1.0, (2, 3))])
        b_ub = np.concatenate([np.zeros(3), np.ones(2)])
        return LinearProgram(c=rng.standard_normal(3), constraints=LinearConstraints(A_ub=A_ub, b_ub=b_ub))

    def test_round_trip_recover(self, rng):
        lp = self._lp(rng)
        preconditioner = QRPreconditioner()
        transformed = preconditioner.fit(lp)
        x = rng.standard_normal(3)
        y = preconditioner._R @ x
        np.testing.assert_allclose(preconditioner.recover(y), x, atol=1e-8)
        # Objective value is preserved by the change of variables.
        assert transformed.objective.value(y) == pytest.approx(lp.objective.value(x), rel=1e-6, abs=1e-8)

    def test_constraint_geometry_preserved(self, rng):
        lp = self._lp(rng)
        preconditioner = QRPreconditioner()
        transformed = preconditioner.fit(lp)
        x = rng.standard_normal(3)
        y = preconditioner._R @ x
        original_violation = lp.constraints.max_violation(x)
        transformed_violation = transformed.constraints.max_violation(y)
        assert transformed_violation == pytest.approx(original_violation, rel=1e-6, abs=1e-8)

    def test_requires_fit_before_recover(self):
        with pytest.raises(ProblemSpecificationError):
            QRPreconditioner().recover(np.ones(2))

    def test_wide_constraint_matrix_rejected(self, rng):
        lp = LinearProgram(
            c=np.ones(5),
            constraints=LinearConstraints(A_ub=rng.standard_normal((2, 5)), b_ub=np.ones(2)),
        )
        with pytest.raises(ProblemSpecificationError):
            QRPreconditioner().fit(lp)
