"""Tests for the numerical applications: least squares, IIR, eigen, SVM."""

import numpy as np
import pytest

from repro.applications import iir as iir_module
from repro.applications import least_squares as least_squares_module
from repro.applications.eigen import robust_eigenpairs, robust_top_eigenpair
from repro.applications.iir import (
    IIRFilter,
    IIRVariationalProblem,
    baseline_iir_filter,
    build_banded_matrices,
    default_iir_step,
    exact_iir_filter,
    inverse_impulse_response,
    precondition_iir,
    robust_iir_filter,
)
from repro.applications.least_squares import (
    baseline_least_squares,
    default_least_squares_step,
    robust_least_squares_cg,
    robust_least_squares_sgd,
)
from repro.applications.svm import robust_svm_train, svm_accuracy
from repro.exceptions import ProblemSpecificationError
from repro.processor.stochastic import StochasticProcessor
from repro.workloads.generators import random_least_squares, random_spd_matrix, random_svm_data
from repro.workloads.signals import random_stable_iir, sum_of_sinusoids


def reliable():
    return StochasticProcessor(fault_rate=0.0, rng=0)


class TestLeastSquares:
    def test_default_step_is_stable(self, rng):
        A, _, _ = random_least_squares(30, 5, rng=rng)
        step = default_least_squares_step(A)
        assert 0 < step < 1.0 / np.linalg.norm(A, 2) ** 2

    def test_sgd_fault_free_accuracy(self, rng):
        A, b, _ = random_least_squares(50, 6, rng=rng)
        result = robust_least_squares_sgd(A, b, reliable())
        assert result.relative_error < 0.2
        assert result.residual_gap < 0.5
        assert result.flops > 0

    def test_cg_fault_free_is_exact(self, rng):
        A, b, _ = random_least_squares(50, 6, rng=rng)
        result = robust_least_squares_cg(A, b, reliable())
        assert result.relative_error < 1e-3

    def test_cg_tolerates_moderate_faults(self, rng):
        A, b, _ = random_least_squares(100, 10, rng=rng)
        proc = StochasticProcessor(fault_rate=0.001, rng=9)
        result = robust_least_squares_cg(A, b, proc)
        assert result.relative_error < 0.5

    @pytest.mark.parametrize("method", ["svd", "qr", "cholesky"])
    def test_baseline_fault_free_is_exact(self, method, rng):
        A, b, _ = random_least_squares(40, 6, rng=rng)
        result = baseline_least_squares(A, b, reliable(), method=method)
        assert result.relative_error < 1e-2
        assert result.method == f"baseline-{method}"

    def test_robust_beats_baseline_under_faults(self):
        A, b, _ = random_least_squares(100, 10, rng=3)
        robust_errors, baseline_errors = [], []
        for seed in range(3):
            proc = StochasticProcessor(fault_rate=0.05, rng=seed)
            robust_errors.append(robust_least_squares_sgd(A, b, proc).relative_error)
            proc = StochasticProcessor(fault_rate=0.05, rng=100 + seed)
            baseline_errors.append(
                baseline_least_squares(A, b, proc, method="cholesky").relative_error
            )
        assert np.median(robust_errors) < np.median(baseline_errors)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_solution_scores_infinite_error(self, bad):
        """A failed solve is never close to the ideal one, whatever its other entries."""
        A, b, _ = random_least_squares(20, 4, rng=5)
        x, *_ = np.linalg.lstsq(A, b, rcond=None)
        x[1] = bad
        result = least_squares_module._finish(A, b, x, "scored", 0, 0)
        assert result.relative_error == float("inf")
        assert result.residual_norm == float("inf")


class TestIIR:
    def _filter(self):
        return random_stable_iir(8, rng=1, pole_radius=0.6)

    def test_filter_validation(self):
        with pytest.raises(ProblemSpecificationError):
            IIRFilter(feedforward=[1.0], feedback=[0.0, 0.5])
        with pytest.raises(ProblemSpecificationError):
            IIRFilter(feedforward=[], feedback=[1.0])

    def test_banded_matrices_match_exact_filter(self):
        filt = self._filter()
        u = sum_of_sinusoids(60)
        A, B = build_banded_matrices(filt, 60)
        y = exact_iir_filter(filt, u)
        np.testing.assert_allclose(B @ y, A @ u, atol=1e-8)

    def test_variational_gradient_matches_dense(self, rng):
        filt = self._filter()
        u = sum_of_sinusoids(50)
        problem = IIRVariationalProblem(filt, u)
        A, B = build_banded_matrices(filt, 50)
        x = rng.standard_normal(50)
        np.testing.assert_allclose(problem.gradient(x), 2 * B.T @ (B @ x - A @ u), atol=1e-8)
        assert problem.value(x) == pytest.approx(float(np.sum((B @ x - A @ u) ** 2)))

    def test_inverse_impulse_response_inverts(self):
        filt = self._filter()
        f, effective = precondition_iir(filt, taps=64)
        assert effective[0] == pytest.approx(1.0)
        assert np.max(np.abs(effective[1:])) < 0.2  # b * f ~ delta
        assert inverse_impulse_response(filt, taps=8).shape == (8,)

    def test_default_step_positive(self):
        assert default_iir_step(self._filter()) > 0

    def test_robust_filter_fault_free_accuracy(self):
        filt = self._filter()
        u = sum_of_sinusoids(150)
        result = robust_iir_filter(filt, u, reliable())
        assert result.error_to_signal < 1e-3
        assert result.flops > 0

    def test_baseline_fault_free_is_exact(self):
        filt = self._filter()
        u = sum_of_sinusoids(150)
        result = baseline_iir_filter(filt, u, reliable())
        assert result.error_to_signal < 1e-5

    def test_robust_beats_baseline_under_faults(self):
        filt = self._filter()
        u = sum_of_sinusoids(200)
        robust_errors, baseline_errors = [], []
        for seed in range(3):
            proc = StochasticProcessor(fault_rate=0.05, rng=seed)
            robust_errors.append(robust_iir_filter(filt, u, proc).error_to_signal)
            proc = StochasticProcessor(fault_rate=0.05, rng=50 + seed)
            baseline_errors.append(baseline_iir_filter(filt, u, proc).error_to_signal)
        assert np.median(robust_errors) < np.median(baseline_errors)

    def test_unpreconditioned_path_runs(self):
        filt = self._filter()
        u = sum_of_sinusoids(80)
        result = robust_iir_filter(filt, u, reliable(), precondition=False)
        assert np.all(np.isfinite(result.y))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_output_scores_infinite_error(self, bad):
        """One non-finite sample makes both IIR metrics infinite."""
        filt = self._filter()
        u = sum_of_sinusoids(40)
        y = exact_iir_filter(filt, u)
        y[7] = bad
        result = iir_module._score(filt, u, y, "scored", 0, 0)
        assert result.error_to_signal == float("inf")
        assert result.mse == float("inf")


class TestEigen:
    def test_top_eigenpair_fault_free(self):
        M = random_spd_matrix(8, rng=2, condition_number=20.0)
        result = robust_top_eigenpair(M, reliable(), iterations=300)
        assert result.eigenvalue_error < 1e-3
        assert result.eigenvector_alignment > 0.99

    def test_top_eigenpair_under_faults(self):
        M = random_spd_matrix(8, rng=2, condition_number=20.0)
        proc = StochasticProcessor(fault_rate=0.01, rng=3)
        result = robust_top_eigenpair(M, proc, iterations=300)
        assert result.eigenvalue_error < 0.2

    def test_deflation_finds_multiple_pairs(self):
        M = random_spd_matrix(6, rng=4, condition_number=50.0)
        results = robust_eigenpairs(M, 3, reliable(), iterations=400)
        assert len(results) == 3
        assert results[0].eigenvalue_error < 1e-2

    def test_validation(self):
        with pytest.raises(ProblemSpecificationError):
            robust_top_eigenpair(np.ones((2, 3)), reliable())
        with pytest.raises(ProblemSpecificationError):
            robust_eigenpairs(np.eye(3), 0, reliable())


class TestSVM:
    def test_training_fault_free(self):
        X, y, _ = random_svm_data(120, 5, rng=5)
        result = robust_svm_train(X, y, reliable(), iterations=1500)
        assert result.train_accuracy > 0.9
        assert result.flops > 0

    def test_training_under_faults_still_learns(self):
        X, y, _ = random_svm_data(120, 5, rng=5)
        proc = StochasticProcessor(fault_rate=0.05, rng=6)
        result = robust_svm_train(X, y, proc, iterations=1500)
        assert result.train_accuracy > 0.75

    def test_accuracy_helper(self):
        X = np.array([[1.0, 0.0], [-1.0, 0.0]])
        y = np.array([1.0, -1.0])
        assert svm_accuracy(np.array([1.0, 0.0]), X, y) == 1.0

    def test_validation(self):
        X, y, _ = random_svm_data(20, 3, rng=0)
        with pytest.raises(ProblemSpecificationError):
            robust_svm_train(X, np.zeros(20), reliable())
        with pytest.raises(ProblemSpecificationError):
            robust_svm_train(X, y, reliable(), regularization=0.0)
