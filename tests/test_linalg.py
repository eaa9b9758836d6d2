"""Unit and property tests for the noisy linear-algebra substrate."""

import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.linalg.cholesky import cholesky_decompose, cholesky_least_squares
from repro.linalg import ops
from repro.linalg.ops import (
    noisy_add,
    noisy_axpy,
    noisy_dot,
    noisy_matmul,
    noisy_matvec,
    noisy_norm2,
    noisy_norm2_squared,
    noisy_outer,
    noisy_scale,
    noisy_sub,
    reliable_flop_count,
)
from repro.linalg.qr import qr_decompose, qr_least_squares
from repro.linalg.solve import BASELINE_METHODS, least_squares_baseline
from repro.linalg.svd import jacobi_svd, svd_least_squares
from repro.linalg.triangular import back_substitution, forward_substitution
from repro.exceptions import ProblemSpecificationError
from repro.processor.batch import (
    ProcessorBatch,
    batch_dot,
    batch_matvec,
    batch_scale,
    batch_sub,
)
from repro.processor.stochastic import StochasticProcessor
from repro.workloads.generators import random_least_squares, random_spd_matrix


def reliable():
    return StochasticProcessor(fault_rate=0.0, rng=0)


class TestNoisyOpsFaultFree:
    """With a zero fault rate every primitive must agree with numpy (to
    float32-roundoff, since the datapath stores results in single precision)."""

    def test_elementwise_ops(self, rng):
        proc = reliable()
        x, y = rng.standard_normal(20), rng.standard_normal(20)
        np.testing.assert_allclose(noisy_add(proc, x, y), x + y, rtol=1e-6)
        np.testing.assert_allclose(noisy_sub(proc, x, y), x - y, rtol=1e-6)
        np.testing.assert_allclose(noisy_scale(proc, 2.5, x), 2.5 * x, rtol=1e-6)
        np.testing.assert_allclose(noisy_axpy(proc, 1.5, x, y), 1.5 * x + y, rtol=1e-5, atol=1e-6)

    def test_reductions(self, rng):
        proc = reliable()
        x, y = rng.standard_normal(30), rng.standard_normal(30)
        assert noisy_dot(proc, x, y) == pytest.approx(float(x @ y), rel=1e-5, abs=1e-5)
        assert noisy_norm2_squared(proc, x) == pytest.approx(float(x @ x), rel=1e-5)
        assert noisy_norm2(proc, x) == pytest.approx(float(np.linalg.norm(x)), rel=1e-5)

    def test_matvec_matmul_outer(self, rng):
        proc = reliable()
        A = rng.standard_normal((8, 5))
        B = rng.standard_normal((5, 4))
        x = rng.standard_normal(5)
        np.testing.assert_allclose(noisy_matvec(proc, A, x), A @ x, rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(noisy_matmul(proc, A, B), A @ B, rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(noisy_outer(proc, x, x), np.outer(x, x), rtol=1e-6)

    def test_shape_validation(self):
        proc = reliable()
        with pytest.raises(ValueError):
            noisy_dot(proc, np.ones(3), np.ones(4))
        with pytest.raises(ValueError):
            noisy_matvec(proc, np.ones((3, 3)), np.ones(4))
        with pytest.raises(ValueError):
            noisy_matmul(proc, np.ones((3, 3)), np.ones((4, 4)))

    def test_flops_are_charged(self, rng):
        proc = reliable()
        A = rng.standard_normal((10, 6))
        x = rng.standard_normal(6)
        noisy_matvec(proc, A, x)
        assert proc.flops >= reliable_flop_count("matvec", 10, 6)

    def test_reliable_flop_count_table(self):
        assert reliable_flop_count("dot", 10) == 19
        assert reliable_flop_count("matvec", 4, 3) == 20
        assert reliable_flop_count("matmul", 2, 3, 4) == 40
        assert reliable_flop_count("axpy", 5) == 10
        assert reliable_flop_count("norm", 5) == 10
        with pytest.raises(ValueError):
            reliable_flop_count("unknown", 1)

    @given(
        arrays(np.float64, st.integers(2, 12),
               elements=st.floats(-100, 100, allow_nan=False)),
    )
    @settings(max_examples=30, deadline=None)
    def test_dot_matches_numpy_property(self, x):
        proc = reliable()
        assert noisy_dot(proc, x, x) == pytest.approx(float(x @ x), rel=1e-4, abs=1e-4)


class TestNoisyOpsUnderFaults:
    def test_faults_change_results(self, rng):
        proc = StochasticProcessor(fault_rate=0.5, rng=2)
        x = rng.standard_normal(200)
        noisy = noisy_add(proc, x, x)
        assert not np.allclose(noisy, 2 * x)
        assert proc.faults_injected > 0

    def test_fault_counters_accumulate(self, rng):
        proc = StochasticProcessor(fault_rate=0.2, rng=3)
        A = rng.standard_normal((30, 30))
        noisy_matmul(proc, A, A)
        assert proc.faults_injected > 50


#: Operand entries for the non-finite property: ±inf and NaN about half the
#: time, otherwise any finite double (huge ones overflow in products).
NONFINITE_OR_ANY = st.one_of(
    st.sampled_from([np.inf, -np.inf, np.nan]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _large_matmul(c):
    # The path that corrupts only the final entries of a big product.
    with mock.patch.object(ops, "_MATMUL_EXACT_LIMIT", 0):
        return noisy_matmul(c.proc, c.vec(c.m, c.k), c.vec(c.k, c.n))


#: Every noisy primitive of linalg/ops.py and processor/batch.py, called on
#: drawn operands (see ``TestNonFiniteOperands``).
PRIMITIVES = {
    "noisy_add": lambda c: noisy_add(c.proc, c.vec(c.n), c.vec(c.n)),
    "noisy_sub": lambda c: noisy_sub(c.proc, c.vec(c.n), c.vec(c.n)),
    "noisy_scale": lambda c: noisy_scale(c.proc, c.alpha, c.vec(c.n)),
    "noisy_axpy": lambda c: noisy_axpy(c.proc, c.alpha, c.vec(c.n), c.vec(c.n)),
    "noisy_dot": lambda c: noisy_dot(c.proc, c.vec(c.n), c.vec(c.n)),
    "noisy_norm2_squared": lambda c: noisy_norm2_squared(c.proc, c.vec(c.n)),
    "noisy_norm2": lambda c: noisy_norm2(c.proc, c.vec(c.n)),
    "noisy_matvec": lambda c: noisy_matvec(c.proc, c.vec(c.m, c.n), c.vec(c.n)),
    "noisy_matmul": lambda c: noisy_matmul(c.proc, c.vec(c.m, c.k), c.vec(c.k, c.n)),
    "noisy_matmul large": _large_matmul,
    "noisy_outer": lambda c: noisy_outer(c.proc, c.vec(c.m), c.vec(c.n)),
    "ProcessorBatch.corrupt": lambda c: c.batch.corrupt(c.vec(c.t, c.n)),
    "batch_sub": lambda c: batch_sub(c.batch, c.vec(c.t, c.n), c.vec(c.t, c.n)),
    "batch_scale": lambda c: batch_scale(c.batch, c.alpha, c.vec(c.t, c.n)),
    "batch_dot": lambda c: batch_dot(c.batch, c.vec(c.t, c.n), c.vec(c.t, c.n)),
    "batch_matvec": lambda c: batch_matvec(c.batch, c.vec(c.m, c.n), c.vec(c.t, c.n)),
    "batch_matvec per trial": lambda c: batch_matvec(
        c.batch, c.vec(c.t, c.m, c.n), c.vec(c.t, c.n)
    ),
}


class TestNonFiniteOperands:
    """±inf/NaN operands (a bit flip can make any value one) never warn."""

    @settings(max_examples=300, deadline=None)
    @given(
        name=st.sampled_from(sorted(PRIMITIVES)),
        rate=st.sampled_from([0.0, 0.3]),
        data=st.data(),
    )
    def test_no_runtime_warning(self, name, rate, data):
        m, n, k, t = (data.draw(st.integers(1, 3)) for _ in range(4))
        operands = SimpleNamespace(
            m=m, n=n, k=k, t=t,
            alpha=data.draw(NONFINITE_OR_ANY),
            vec=lambda *shape: data.draw(arrays(np.float64, shape, elements=NONFINITE_OR_ANY)),
            proc=StochasticProcessor(fault_rate=rate, rng=data.draw(st.integers(0, 2**16))),
            batch=ProcessorBatch(
                [StochasticProcessor(fault_rate=rate, rng=seed) for seed in range(t)]
            ),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            PRIMITIVES[name](operands)

    def test_opposite_infinities_in_a_row_sum(self):
        # A row sum that meets inf and -inf is NaN, with no 'invalid' warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = noisy_matvec(reliable(), np.ones((1, 2)), [np.inf, -np.inf])
        assert np.isnan(result).all()


class TestTriangularSolves:
    def test_forward_substitution_exact(self, rng):
        L = np.tril(rng.standard_normal((6, 6))) + 6 * np.eye(6)
        x_true = rng.standard_normal(6)
        x = forward_substitution(reliable(), L, L @ x_true)
        np.testing.assert_allclose(x, x_true, rtol=1e-4)

    def test_back_substitution_exact(self, rng):
        R = np.triu(rng.standard_normal((6, 6))) + 6 * np.eye(6)
        x_true = rng.standard_normal(6)
        x = back_substitution(reliable(), R, R @ x_true)
        np.testing.assert_allclose(x, x_true, rtol=1e-4)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            forward_substitution(reliable(), np.eye(3), np.ones(4))
        with pytest.raises(ValueError):
            back_substitution(reliable(), np.ones((2, 3)), np.ones(2))


class TestDecompositionsFaultFree:
    def test_cholesky_matches_numpy(self, rng):
        A = random_spd_matrix(6, rng=rng)
        L = cholesky_decompose(reliable(), A)
        np.testing.assert_allclose(L @ L.T, A, rtol=1e-3, atol=1e-4)

    def test_cholesky_requires_square(self):
        with pytest.raises(ValueError):
            cholesky_decompose(reliable(), np.ones((2, 3)))

    def test_qr_reconstructs_and_is_orthogonal(self, rng):
        A = rng.standard_normal((10, 4))
        Q, R = qr_decompose(reliable(), A)
        np.testing.assert_allclose(Q @ R, A, rtol=1e-3, atol=1e-4)
        np.testing.assert_allclose(Q.T @ Q, np.eye(4), atol=1e-4)
        assert np.allclose(R, np.triu(R))

    def test_qr_requires_tall_matrix(self):
        with pytest.raises(ValueError):
            qr_decompose(reliable(), np.ones((3, 5)))

    def test_jacobi_svd_reconstructs(self, rng):
        A = rng.standard_normal((8, 4))
        U, s, Vt = jacobi_svd(reliable(), A)
        np.testing.assert_allclose(U @ np.diag(s) @ Vt, A, rtol=1e-3, atol=1e-3)
        np.testing.assert_allclose(sorted(s, reverse=True), s, rtol=1e-9)
        reference = np.linalg.svd(A, compute_uv=False)
        np.testing.assert_allclose(s, reference, rtol=1e-3)

    @pytest.mark.parametrize("method", BASELINE_METHODS)
    def test_baseline_least_squares_exact(self, method, rng):
        A, b, _ = random_least_squares(30, 5, rng=rng)
        x = least_squares_baseline(reliable(), A, b, method=method)
        expected, *_ = np.linalg.lstsq(A, b, rcond=None)
        np.testing.assert_allclose(x, expected, rtol=1e-2, atol=1e-3)

    def test_unknown_method_raises(self):
        with pytest.raises(ProblemSpecificationError):
            least_squares_baseline(reliable(), np.eye(3), np.ones(3), method="lu")

    @pytest.mark.parametrize(
        "solver", [qr_least_squares, svd_least_squares, cholesky_least_squares]
    )
    def test_solver_shape_validation(self, solver):
        with pytest.raises(ValueError):
            solver(reliable(), np.ones((4, 2)), np.ones(5))


class TestDecompositionsUnderFaults:
    """The baselines must degrade under faults — that is their role in the paper."""

    @pytest.mark.parametrize("method", BASELINE_METHODS)
    def test_baselines_degrade_at_high_fault_rate(self, method):
        A, b, _ = random_least_squares(40, 6, rng=0)
        exact, *_ = np.linalg.lstsq(A, b, rcond=None)
        errors = []
        for seed in range(3):
            proc = StochasticProcessor(fault_rate=0.2, rng=seed)
            x = least_squares_baseline(proc, A, b, method=method)
            if np.all(np.isfinite(x)):
                errors.append(np.linalg.norm(x - exact) / np.linalg.norm(exact))
            else:
                errors.append(np.inf)
        assert np.median(errors) > 1e-2
