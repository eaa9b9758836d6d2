"""The batch twins of the scalar baselines against their per-trial references.

* :class:`~repro.faults.fpu.StochasticFPUBatch` against per-trial
  :class:`~repro.faults.fpu.StochasticFPU` op sequences;
* :func:`~repro.linalg.svd.svd_least_squares_batch` (and the masked Jacobi
  sweep under it) against per-trial :func:`~repro.linalg.svd.svd_least_squares`;
* :func:`~repro.applications.baselines.iir_direct.noisy_direct_form_filter_batch`
  against per-trial ``noisy_direct_form_filter``;
* the batched noisy primitives they stand on (``batch_dot``, per-trial
  ``batch_matvec``, ``ProcessorBatch.narrow``).

Every comparison is of output bits, every counter, the scalar countdown and
the generator state, with ``RuntimeWarning`` raised as an error.
"""

import contextlib
import math
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.applications.baselines.iir_direct import (
    noisy_direct_form_filter,
    noisy_direct_form_filter_batch,
)
from repro.applications.iir import IIRFilter, baseline_iir_filter, baseline_iir_filter_batch
from repro.applications.least_squares import (
    baseline_least_squares,
    baseline_svd_least_squares_batch,
)
from repro.faults.bitflip import flip_bit_scalar
from repro.faults.fpu import StochasticFPU, StochasticFPUBatch
from repro.linalg.ops import noisy_dot, noisy_matvec
from repro.linalg.svd import (
    jacobi_svd,
    jacobi_svd_batch,
    svd_least_squares,
    svd_least_squares_batch,
)
from repro.processor.batch import ProcessorBatch, batch_dot, batch_matvec
from repro.processor.stochastic import StochasticProcessor
from repro.workloads.generators import random_least_squares
from repro.workloads.signals import random_stable_iir, sum_of_sinusoids

RATES = [0.0, 1e-3, 0.3, 1.0]
FAULTY_RATES = [1e-3, 0.05, 0.3, 1.0]
MODELS = ["leon3-fpu", "double-precision"]


# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #
@contextlib.contextmanager
def runtime_warnings_as_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        yield


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def assert_same_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert bits(actual.ravel()) == bits(expected.ravel())


def state(proc):
    """Every counter of a processor, its countdown and its generator states."""
    injector = proc.injector
    return (
        proc.flops,
        proc.fpu.flops,
        proc.faults_injected,
        injector.ops_observed,
        injector._ops_until_fault,
        injector.rng.bit_generator.state,
    )


def assert_same_states(actual, expected):
    assert [state(proc) for proc in actual] == [state(proc) for proc in expected]


def from_bits(pattern):
    return float(np.array([pattern], dtype=np.uint64).view(np.float64)[0])


def cold_copy(function):
    """``function`` on fresh bytecode: no instruction in it is specialized yet."""

    def fresh(code):
        return code.replace(
            co_consts=tuple(
                fresh(const) if isinstance(const, types.CodeType) else const
                for const in code.co_consts
            )
        )

    return types.FunctionType(
        fresh(function.__code__),
        function.__globals__,
        function.__name__,
        function.__defaults__,
        function.__closure__,
    )


# --------------------------------------------------------------------------- #
# The scalar-FPU batch
# --------------------------------------------------------------------------- #
#: An FPU batch holds four trials at drawn rates, then one inside
#: ``protected()`` (index ``PROTECTED``).
PROTECTED = 4
N_FPU_TRIALS = 5

special_floats = st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 1e39, -3.5e38, 1e300, 5e-324, 1.0]
)
operand_values = st.one_of(special_floats, st.floats(allow_nan=True, allow_infinity=True))
operands = st.one_of(
    st.tuples(st.just("shared"), operand_values),
    st.tuples(
        st.sampled_from(["list", "array"]),
        st.lists(operand_values, min_size=N_FPU_TRIALS, max_size=N_FPU_TRIALS),
    ),
    st.tuples(st.just("previous"), st.none()),
)
fpu_steps = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["add", "sub", "mul", "div"]), operands, operands),
        st.tuples(st.just("flush"), st.none(), st.none()),
    ),
    min_size=1,
    max_size=30,
)


def fpu_trials(model, rates, protected_rate, seed):
    procs = [
        StochasticProcessor(fault_rate=rate, fault_model=model, rng=seed + trial)
        for trial, rate in enumerate(rates)
    ]
    procs.append(
        StochasticProcessor(fault_rate=protected_rate, fault_model=model, rng=seed + 4)
    )
    return procs


def resolve(operand, previous):
    """(batch argument, per-trial values) of one drawn operand."""
    kind, value = operand
    if kind == "shared":
        return value, [value] * N_FPU_TRIALS
    if kind == "previous":
        return list(previous[0]), list(previous[1])
    if kind == "array":
        return np.asarray(value), list(value)
    return list(value), list(value)


class TestFPUBatchMatchesPerTrialFPU:
    @settings(deadline=None)
    @given(
        model=st.sampled_from(MODELS),
        rates=st.lists(st.sampled_from(RATES), min_size=4, max_size=4),
        protected_rate=st.sampled_from(RATES[1:]),
        steps=fpu_steps,
        seed=st.integers(0, 2**31),
    )
    def test_op_sequence(self, model, rates, protected_rate, steps, seed):
        """Values, counters, countdowns and generators after every flush."""
        batched = fpu_trials(model, rates, protected_rate, seed)
        serial = fpu_trials(model, rates, protected_rate, seed)
        previous = ([1.5] * N_FPU_TRIALS, [1.5] * N_FPU_TRIALS)
        with runtime_warnings_as_errors(), batched[PROTECTED].fpu.protected(), \
                serial[PROTECTED].fpu.protected():
            fpus = StochasticFPUBatch([proc.fpu for proc in batched])
            for op, a, b in steps:
                if op == "flush":
                    fpus.flush()
                    assert_same_states(batched, serial)
                    continue
                a_arg, a_rows = resolve(a, previous)
                b_arg, b_rows = resolve(b, previous)
                got = getattr(fpus, op)(a_arg, b_arg)
                want = [
                    getattr(proc.fpu, op)(x, y)
                    for proc, x, y in zip(serial, a_rows, b_rows)
                ]
                assert all(type(value) is float for value in got)
                assert bits(got) == bits(want)
                previous = (got, want)
            fpus.flush()
        assert_same_states(batched, serial)

    def test_zero_divisors_follow_the_ieee_rule(self):
        fpus = StochasticFPUBatch(
            [StochasticProcessor(fault_model="double-precision").fpu for _ in range(4)]
        )
        got = fpus.div([1.0, -2.0, 0.0, math.nan], [-0.0, -0.0, -0.0, 0.0])
        assert got[:2] == [math.inf, -math.inf]
        assert math.isnan(got[2]) and math.isnan(got[3])

    @pytest.mark.parametrize("op", ["add", "mul"])
    def test_two_nans_give_the_first_quieted_on_cold_and_warm_lines(self, op):
        """The same bits before and after CPython specializes the operation."""
        signaling, other = from_bits(0x7FF4000000000001), from_bits(0x7FF8000000000002)
        procs = [StochasticProcessor(fault_model="double-precision") for _ in range(3)]
        fpu, fpus = procs[0].fpu, StochasticFPUBatch([proc.fpu for proc in procs[1:]])
        scalar_op, batch_op = getattr(StochasticFPU, op), getattr(StochasticFPUBatch, op)
        results = [cold_copy(scalar_op)(fpu, signaling, other)]
        results += cold_copy(batch_op)(fpus, [signaling, signaling], other)
        for _ in range(100):
            results.append(scalar_op(fpu, signaling, other))
            results += batch_op(fpus, [signaling, signaling], other)
        assert set(bits(results)) == {0x7FFC000000000001}

    def test_rejects_mixed_dtypes_and_bad_operands(self):
        with pytest.raises(ValueError, match="dtypes"):
            StochasticFPUBatch(
                [StochasticProcessor(fault_model=model).fpu for model in MODELS]
            )
        with pytest.raises(ValueError, match="at least one"):
            StochasticFPUBatch([])
        fpus = StochasticFPUBatch([StochasticProcessor().fpu for _ in range(3)])
        with pytest.raises(ValueError, match="expected 3"):
            fpus.add([1.0, 2.0], 1.0)

    def test_flush_without_commits_leaves_counters_alone(self):
        proc = StochasticProcessor(fault_rate=0.3, rng=5)
        before = state(proc)
        fpus = StochasticFPUBatch([proc.fpu])
        fpus.flush()
        assert state(proc) == before


def numpy_flip(value, bit, dtype):
    """A bit flip through numpy's reinterpreting view: the reference."""
    uint = np.uint32 if dtype == np.float32 else np.uint64
    with np.errstate(over="ignore", invalid="ignore"):
        pattern = np.asarray(value, dtype=dtype).view(uint)
    return float((pattern ^ uint(1 << bit)).view(dtype))


float_patterns = st.one_of(
    special_floats,
    st.integers(0, 2**64 - 1).map(from_bits),
)


@given(float_patterns, st.sampled_from([np.float32, np.float64]), st.integers(0, 63))
@settings(max_examples=300, deadline=None)
def test_scalar_flip_matches_numpy_bit_view(value, dtype, bit):
    """The flip the FPU batch and the serial injector share, on any float64
    pattern (signaling NaN payloads and values past float32's range too)."""
    bit %= np.dtype(dtype).itemsize * 8
    with runtime_warnings_as_errors():
        flipped = flip_bit_scalar(value, bit, dtype)
    assert bits([flipped]) == bits([numpy_flip(value, bit, dtype)])


# --------------------------------------------------------------------------- #
# The masked-batch Jacobi SVD
# --------------------------------------------------------------------------- #
def make_processors(model, rates, seed):
    return [
        StochasticProcessor(fault_rate=rate, fault_model=model, rng=seed + trial)
        for trial, rate in enumerate(rates)
    ]


class TestSVDBatchMatchesSerial:
    @settings(deadline=None)
    @given(
        model=st.sampled_from(MODELS),
        rates=st.lists(st.sampled_from(FAULTY_RATES), min_size=1, max_size=4),
        m=st.integers(1, 7),
        n=st.integers(1, 4),
        seed=st.integers(0, 2**31),
    )
    def test_least_squares(self, model, rates, m, n, seed):
        """A rate-0 trial that converges early beside faulty ones."""
        n = min(n, m)
        rates = [0.0] + rates
        data = np.random.default_rng(seed)
        A = data.standard_normal((len(rates), m, n))
        b = data.standard_normal((len(rates), m))
        serial = make_processors(model, rates, seed)
        batched = make_processors(model, rates, seed)
        with runtime_warnings_as_errors():
            want = [svd_least_squares(proc, A[t], b[t]) for t, proc in enumerate(serial)]
            batch = ProcessorBatch(batched)
            got = svd_least_squares_batch(batch, A, b)
            batch.flush()
        assert_same_bits(got, np.stack(want))
        assert_same_states(batched, serial)

    def test_least_squares_with_a_zero_singular_value_is_quiet(self):
        # Hypothesis found this draw: a faulted trial's SVD ends with a
        # singular value of exactly 0, whose reciprocal used to be taken
        # (and warn) before the pseudo-inverse cutoff discarded it.
        model, rates, seed = "leon3-fpu", [0.0, 0.001, 0.3], 343
        data = np.random.default_rng(seed)
        A = data.standard_normal((len(rates), 6, 4))
        b = data.standard_normal((len(rates), 6))
        serial = make_processors(model, rates, seed)
        batched = make_processors(model, rates, seed)
        with runtime_warnings_as_errors():
            want = [svd_least_squares(proc, A[t], b[t]) for t, proc in enumerate(serial)]
            batch = ProcessorBatch(batched)
            got = svd_least_squares_batch(batch, A, b)
            batch.flush()
        assert_same_bits(got, np.stack(want))
        assert_same_states(batched, serial)

    @pytest.mark.parametrize("model", MODELS)
    def test_jacobi_factors(self, model):
        rates = [0.0, 0.0, 1e-3, 0.05, 0.3]
        data = np.random.default_rng(11)
        A = data.standard_normal((len(rates), 9, 4))
        A[1] = A[0]
        serial = make_processors(model, rates, 40)
        batched = make_processors(model, rates, 40)
        with runtime_warnings_as_errors():
            want = [jacobi_svd(proc, A[t]) for t, proc in enumerate(serial)]
            batch = ProcessorBatch(batched)
            U, s, Vt = jacobi_svd_batch(batch, A)
            batch.flush()
        for factor, stacked in zip(zip(*want), (U, s, Vt)):
            assert_same_bits(stacked, np.stack(factor))
        assert_same_states(batched, serial)

    def test_shape_errors_raise_before_any_draw(self):
        procs = make_processors("leon3-fpu", [0.3, 0.3], 2)
        before = [state(proc) for proc in procs]
        batch = ProcessorBatch(procs)
        with pytest.raises(ValueError, match="m >= n"):
            svd_least_squares_batch(batch, np.ones((2, 2, 3)), np.ones((2, 2)))
        with pytest.raises(ValueError, match="stack"):
            jacobi_svd_batch(batch, np.ones((3, 4, 2)))
        with pytest.raises(ValueError, match="shape mismatch"):
            svd_least_squares_batch(batch, np.ones((2, 4, 2)), np.ones((2, 5)))
        batch.flush()
        assert [state(proc) for proc in procs] == before

    def test_entry_point_matches_baseline_least_squares(self):
        A, b, _ = random_least_squares(20, 4, rng=7)
        rates = [0.0, 0.01, 0.3]
        serial = make_processors("leon3-fpu", rates, 9)
        batched = make_processors("leon3-fpu", rates, 9)
        want = [baseline_least_squares(A, b, proc, method="svd") for proc in serial]
        got = baseline_svd_least_squares_batch(A, b, batched)
        for result, expected in zip(got, want):
            assert_same_bits(result.x, expected.x)
            assert result.method == expected.method == "baseline-svd"
            assert (result.flops, result.faults_injected) == (
                expected.flops, expected.faults_injected
            )
            assert bits([result.relative_error]) == bits([expected.relative_error])
        assert_same_states(batched, serial)


# --------------------------------------------------------------------------- #
# The batched direct form
# --------------------------------------------------------------------------- #
class TestDirectFormBatchMatchesSerial:
    @settings(deadline=None)
    @given(
        model=st.sampled_from(MODELS),
        rates=st.lists(st.sampled_from(RATES), min_size=1, max_size=5),
        n_feedforward=st.integers(1, 4),
        n_feedback=st.integers(1, 4),
        length=st.integers(0, 25),
        seed=st.integers(0, 2**31),
    )
    def test_filter(self, model, rates, n_feedforward, n_feedback, length, seed):
        data = np.random.default_rng(seed)
        feedback = data.standard_normal(n_feedback) * 0.3
        feedback[0] = 1.0 + abs(feedback[0])
        filt = IIRFilter(data.standard_normal(n_feedforward), feedback)
        u = data.standard_normal(length)
        serial = make_processors(model, rates, seed)
        batched = make_processors(model, rates, seed)
        with runtime_warnings_as_errors():
            want = [noisy_direct_form_filter(filt, u, proc) for proc in serial]
            got = noisy_direct_form_filter_batch(filt, u, batched)
        assert got.shape == (len(rates), length)
        for row, expected in zip(got, want):
            assert_same_bits(row, expected)
        assert_same_states(batched, serial)

    def test_entry_point_matches_baseline_iir_filter(self):
        filt = random_stable_iir(6, rng=3, pole_radius=0.8)
        u = sum_of_sinusoids(40)
        rates = [0.0, 1e-3, 0.05, 0.5]
        serial = make_processors("leon3-fpu", rates, 21)
        batched = make_processors("leon3-fpu", rates, 21)
        want = [baseline_iir_filter(filt, u, proc) for proc in serial]
        got = baseline_iir_filter_batch(filt, u, batched)
        for result, expected in zip(got, want):
            assert_same_bits(result.y, expected.y)
            assert bits([result.error_to_signal, result.mse]) == bits(
                [expected.error_to_signal, expected.mse]
            )
            assert (result.flops, result.faults_injected, result.method) == (
                expected.flops, expected.faults_injected, expected.method
            )
        assert_same_states(batched, serial)


# --------------------------------------------------------------------------- #
# Batched noisy primitives
# --------------------------------------------------------------------------- #
class TestBatchedPrimitives:
    def test_noisy_dot_of_opposite_infinities_is_nan_without_warning(self):
        with runtime_warnings_as_errors():
            value = noisy_dot(
                StochasticProcessor(fault_rate=0.0), [math.inf, 1.0], [1.0, -math.inf]
            )
        assert math.isnan(value)

    def test_batch_dot_of_opposite_infinities_is_nan_without_warning(self):
        batch = ProcessorBatch([StochasticProcessor(fault_rate=0.0) for _ in range(2)])
        with runtime_warnings_as_errors():
            values = batch_dot(
                batch, [[math.inf, 1.0], [1.0, 2.0]], [[1.0, -math.inf], [3.0, 4.0]]
            )
        assert math.isnan(values[0]) and values[1] == 11.0

    @pytest.mark.parametrize("model", MODELS)
    def test_batch_dot_matches_noisy_dot(self, model):
        rates = [0.0, 1e-3, 0.3, 1.0]
        data = np.random.default_rng(5)
        x, y = data.standard_normal((2, len(rates), 130))
        serial = make_processors(model, rates, 60)
        batched = make_processors(model, rates, 60)
        want = [noisy_dot(proc, x[t], y[t]) for t, proc in enumerate(serial)]
        batch = ProcessorBatch(batched)
        got = batch_dot(batch, x, y)
        batch.flush()
        assert bits(got) == bits(want)
        assert_same_states(batched, serial)

    def test_batch_dot_of_empty_rows_draws_nothing(self):
        procs = make_processors("leon3-fpu", [0.3, 1.0], 8)
        before = [state(proc) for proc in procs]
        batch = ProcessorBatch(procs)
        assert batch_dot(batch, np.zeros((2, 0)), np.zeros((2, 0))).tolist() == [0.0, 0.0]
        batch.flush()
        assert [state(proc) for proc in procs] == before
        with pytest.raises(ValueError, match="shape mismatch"):
            batch_dot(batch, np.zeros((2, 3)), np.zeros((2, 4)))

    @pytest.mark.parametrize("model", MODELS)
    def test_batch_matvec_with_per_trial_matrices(self, model):
        rates = [0.0, 0.05, 1.0]
        data = np.random.default_rng(6)
        A = data.standard_normal((len(rates), 5, 7))
        X = data.standard_normal((len(rates), 7))
        serial = make_processors(model, rates, 70)
        batched = make_processors(model, rates, 70)
        want = [noisy_matvec(proc, A[t], X[t]) for t, proc in enumerate(serial)]
        batch = ProcessorBatch(batched)
        got = batch_matvec(batch, A, X)
        batch.flush()
        assert_same_bits(got, np.stack(want))
        assert_same_states(batched, serial)
        with pytest.raises(ValueError, match="shape mismatch"):
            batch_matvec(batch, A[:2], X)

    def test_batch_refuses_mixed_bit_distributions(self):
        """One fused inverse-CDF lookup serves a batch, so its trials share one CDF."""
        procs = [
            StochasticProcessor(fault_rate=0.1, fault_model=model, rng=1)
            for model in ("leon3-fpu", "uniform-bits")
        ]
        assert procs[0].dtype == procs[1].dtype
        with pytest.raises(ValueError, match="bit distributions"):
            ProcessorBatch(procs)

    def test_narrow_caches_sub_batches_and_flush_reaches_them(self):
        procs = make_processors("leon3-fpu", [0.3, 0.3, 0.3], 9)
        batch = ProcessorBatch(procs)
        assert batch.narrow(np.arange(3)) is batch
        sub = batch.narrow(np.array([0, 2]))
        assert sub.procs == [procs[0], procs[2]]
        assert batch.narrow([0, 2]) is sub
        sub.corrupt(np.ones((2, 4)))
        assert procs[0].flops == 0
        batch.flush()
        assert [proc.flops for proc in procs] == [4, 0, 4]

    def test_narrow_keeps_scratch_of_the_two_latest_row_sets(self):
        # A row set that only shrinks (SGD's active trials) must not keep
        # every past set's buffers; a sub-batch that lost them rebuilds them,
        # stays cached and bit-identical, and flush still reaches it.
        rates = [0.3, 0.3, 0.3]
        procs = make_processors("leon3-fpu", rates, 17)
        serial = make_processors("leon3-fpu", rates, 17)
        batch = ProcessorBatch(procs)
        data = np.linspace(0.5, 2.0, 3 * 6).reshape(3, 6)
        got, want, subs = [], [], []
        for rows in ([0, 1], [1, 2], [1], [0, 1]):
            sub = batch.narrow(rows)
            got.append(sub.corrupt(data[rows], ops_per_element=2))
            want.append(np.stack([serial[t].corrupt(data[t], 2) for t in rows]))
            subs.append(sub)
            if len(subs) == 3:
                assert [bool(s._scratch) for s in subs] == [False, True, True]
        assert subs[3] is subs[0]
        assert [bool(s._scratch) for s in subs[:3]] == [True, False, True]
        batch.flush()
        for actual, expected in zip(got, want):
            assert_same_bits(actual, expected)
        assert_same_states(procs, serial)
