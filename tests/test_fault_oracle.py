"""The fault entry points against a frozen, plainly written draw-protocol oracle.

:class:`OracleSubstrate` restates the numpy tier's draw protocol and counter
bookkeeping in the most direct numpy there is, with no caching, no in-place
tricks and no fused passes:

* an array call casts to the datapath dtype, draws one mask uniform per
  element in C order, draws ``n_faults`` bit positions into the mask's C
  order, XORs them in and (for the processor) widens back to float64;
* a scalar commit counts down to the next fault, and when it expires draws
  the next interval, then the bit, then flips it;
* a bit position is one uniform mapped through the CDF by ``searchsorted``.

The properties below drive :meth:`StochasticProcessor.corrupt`,
:meth:`FaultInjector.corrupt_array`, :meth:`FaultInjector.corrupt_scalar` and
a :class:`StochasticFPU` op sequence next to the oracle, and compare output
bits, shape, C order, generator state and every counter after each step.
``fault_rate`` changes and ``reliable()`` blocks between calls re-draw the
fault interval, so a stale cached probability or countdown shows up as a
mismatch.  Every call runs with ``RuntimeWarning`` raised as an error.
"""

import contextlib
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.faults.distribution import UniformBitDistribution
from repro.faults.injector import FaultInjector
from repro.processor.batch import ProcessorBatch
from repro.processor.stochastic import StochasticProcessor

RATES = [0.0, 1e-3, 0.3, 1.0]
MODELS = ["leon3-fpu", "double-precision"]
LAYOUTS = ["c", "f", "column", "0d", "empty"]
OPS = [0, 1, 3, np.int64(3), "per-element"]
F32_MAX = float(np.finfo(np.float32).max)


class OracleSubstrate:
    """The per-trial draw protocol and counters, written out plainly."""

    def __init__(self, fault_rate, dtype, bit_distribution, seed):
        self.dtype = np.dtype(dtype)
        self.uint = np.uint32 if self.dtype == np.float32 else np.uint64
        self.dist = bit_distribution
        self.rng = np.random.default_rng(seed)
        self.flops = 0
        self.faults = 0
        self.ops_observed = 0
        self.protected = 0
        self.set_rate(fault_rate)

    # -- configuration --------------------------------------------------- #
    def set_rate(self, rate):
        self.rate = float(rate)
        if self.rate <= 0.0:
            self.until = -1
        else:
            self.until = self.draw_interval()

    def draw_interval(self):
        upper = max(1, int(round(2.0 / self.rate)))
        return int(self.rng.integers(1, upper + 1))

    def draw_bits(self, n):
        return self.dist.cdf().searchsorted(self.rng.random(n), side="right")

    @contextlib.contextmanager
    def reliable(self):
        saved = self.rate
        self.set_rate(0.0)
        try:
            yield
        finally:
            self.set_rate(saved)

    # -- array path ------------------------------------------------------ #
    @staticmethod
    def total_ops(ops, shape):
        ops = np.asarray(ops)
        if ops.ndim == 0:
            return int(ops) * int(np.prod(shape, dtype=np.int64))
        return int(np.sum(np.broadcast_to(ops, shape)))

    def corrupt_array(self, values, ops):
        with np.errstate(over="ignore", invalid="ignore"):
            arr = np.asarray(values, dtype=self.dtype)
        self.ops_observed += self.total_ops(ops, arr.shape)
        out = arr.copy(order="C")
        if self.rate <= 0.0 or out.size == 0:
            return out
        k = np.maximum(np.asarray(ops, dtype=np.float64), 0.0)
        if k.ndim == 0:
            probability = 1.0 - (1.0 - self.rate) ** float(k)
        else:
            probability = np.broadcast_to(
                1.0 - np.power(1.0 - self.rate, k), out.shape
            )
        mask = self.rng.random(out.shape) < probability
        n_faults = int(np.count_nonzero(mask))
        if n_faults:
            positions = np.zeros(out.shape, dtype=np.int64)
            positions[mask] = self.draw_bits(n_faults)
            bits = out.view(self.uint)
            bits[mask] ^= np.left_shift(self.uint(1), positions[mask].astype(self.uint))
        self.faults += n_faults
        return out

    def corrupt(self, values, ops):
        arr = np.asarray(values, dtype=np.float64)
        self.flops += self.total_ops(ops, arr.shape)
        with np.errstate(invalid="ignore"):
            return self.corrupt_array(arr, ops).astype(np.float64)

    # -- scalar path ----------------------------------------------------- #
    def round(self, value):
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.asarray(value, dtype=self.dtype))

    def corrupt_scalar(self, value):
        self.ops_observed += 1
        if self.until < 0:
            return self.round(value)
        self.until -= 1
        if self.until > 0:
            return self.round(value)
        self.until = self.draw_interval()
        self.faults += 1
        bit = int(self.draw_bits(1)[0])
        with np.errstate(over="ignore", invalid="ignore"):
            pattern = np.asarray(value, dtype=self.dtype).view(self.uint)
            return float((pattern ^ self.uint(1 << bit)).view(self.dtype))

    def commit(self, value):
        self.flops += 1
        if self.protected or self.rate <= 0.0:
            return self.round(value)
        return self.corrupt_scalar(value)


# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #
@contextlib.contextmanager
def runtime_warnings_as_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        yield


def make_values(layout, seed, scale):
    """A float64 payload of the given memory layout, with NaN/inf sprinkled in."""
    workload = np.random.default_rng(seed)
    base = workload.standard_normal((6, 5)) * scale
    base.flat[workload.integers(0, base.size, size=3)] = [np.nan, np.inf, -np.inf]
    if layout == "c":
        return base
    if layout == "f":
        return np.asfortranarray(base)
    if layout == "column":
        return base[:, 1]
    if layout == "0d":
        return np.array(base[0, 0])
    return np.zeros((0, 3))


def make_ops(ops, shape):
    if isinstance(ops, str):
        return np.arange(int(np.prod(shape, dtype=np.int64))).reshape(shape) % 4
    return ops


def assert_same_floats(actual, expected):
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert actual.flags.c_contiguous
    uint = np.uint32 if actual.dtype == np.float32 else np.uint64
    np.testing.assert_array_equal(
        np.ascontiguousarray(actual).view(uint), np.ascontiguousarray(expected).view(uint)
    )


def assert_same_scalar(actual, expected):
    assert type(actual) is float
    assert np.float64(actual).view(np.uint64) == np.float64(expected).view(np.uint64)


def assert_same_state(injector, oracle):
    assert injector.faults_injected == oracle.faults
    assert injector.ops_observed == oracle.ops_observed
    assert injector._ops_until_fault == oracle.until
    assert injector.rng.bit_generator.state == oracle.rng.bit_generator.state


#: One step of an array-call sequence: a call (optionally inside
#: ``reliable()``) or a fault-rate change.
array_steps = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["call", "reliable-call"]),
            st.sampled_from(LAYOUTS),
            st.sampled_from(OPS),
            st.integers(0, 2**16),
            st.sampled_from([1.0, 1e30, 1e300]),
        ),
        st.tuples(st.just("rate"), st.sampled_from(RATES)),
    ),
    min_size=1,
    max_size=6,
)


# --------------------------------------------------------------------------- #
# Properties
# --------------------------------------------------------------------------- #
class TestArrayPathMatchesOracle:
    @given(
        model=st.sampled_from(MODELS),
        rate=st.sampled_from(RATES),
        steps=array_steps,
        seed=st.integers(0, 2**31),
    )
    def test_processor_corrupt(self, model, rate, steps, seed):
        """StochasticProcessor.corrupt: float64 bits, shape, flops, stream."""
        proc = StochasticProcessor(fault_rate=rate, fault_model=model, rng=seed)
        oracle = OracleSubstrate(rate, proc.dtype, proc.injector.bit_distribution, seed)
        for step in steps:
            if step[0] == "rate":
                proc.fault_rate = step[1]
                oracle.set_rate(step[1])
                assert_same_state(proc.injector, oracle)
                continue
            kind, layout, ops, data_seed, scale = step
            values = make_values(layout, data_seed, scale)
            ops = make_ops(ops, values.shape)
            with runtime_warnings_as_errors():
                if kind == "reliable-call":
                    with proc.reliable(), oracle.reliable():
                        actual = proc.corrupt(values, ops)
                        expected = oracle.corrupt(values, ops)
                else:
                    actual = proc.corrupt(values, ops)
                    expected = oracle.corrupt(values, ops)
            assert_same_floats(actual, expected)
            assert actual.dtype == np.float64
            assert proc.flops == oracle.flops
            assert_same_state(proc.injector, oracle)

    @given(
        dtype=st.sampled_from([np.float32, np.float64]),
        uniform_bits=st.booleans(),
        rate=st.sampled_from(RATES),
        steps=array_steps,
        seed=st.integers(0, 2**31),
    )
    def test_injector_corrupt_array(self, dtype, uniform_bits, rate, steps, seed):
        """FaultInjector.corrupt_array: datapath-dtype bits, counters, stream."""
        width = np.dtype(dtype).itemsize * 8
        dist = UniformBitDistribution(width) if uniform_bits else None
        injector = FaultInjector(rate, bit_distribution=dist, dtype=dtype, rng=seed)
        oracle = OracleSubstrate(rate, dtype, injector.bit_distribution, seed)
        for step in steps:
            if step[0] == "rate":
                injector.fault_rate = step[1]
                oracle.set_rate(step[1])
                assert_same_state(injector, oracle)
                continue
            _, layout, ops, data_seed, scale = step
            values = make_values(layout, data_seed, scale)
            ops = make_ops(ops, values.shape)
            with runtime_warnings_as_errors():
                actual = injector.corrupt_array(values, ops)
            assert_same_floats(actual, oracle.corrupt_array(values, ops))
            assert_same_state(injector, oracle)


#: Scalars for the injector's countdown path, including values beyond the
#: float32 range, NaN and inf.
scalar_values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e39, -1e300, 3.5e38, F32_MAX, np.nextafter(F32_MAX, np.inf), 1e-46]),
)

#: FPU operands: finite and small enough that no product leaves the float32
#: range, plus NaN and inf (whose casts never warn).
fpu_operands = st.one_of(
    st.floats(min_value=-1e18, max_value=1e18),
    st.sampled_from([np.nan, np.inf, -np.inf]),
)


class TestScalarPathMatchesOracle:
    @given(
        dtype=st.sampled_from([np.float32, np.float64]),
        steps=st.lists(
            st.one_of(
                st.tuples(st.just("value"), scalar_values),
                st.tuples(st.just("rate"), st.sampled_from(RATES)),
            ),
            min_size=1,
            max_size=40,
        ),
        rate=st.sampled_from(RATES),
        seed=st.integers(0, 2**31),
    )
    def test_injector_corrupt_scalar(self, dtype, steps, rate, seed):
        """corrupt_scalar: countdown, interval draw, bit draw and flip."""
        injector = FaultInjector(rate, dtype=dtype, rng=seed)
        oracle = OracleSubstrate(rate, dtype, injector.bit_distribution, seed)
        for kind, arg in steps:
            if kind == "rate":
                injector.fault_rate = arg
                oracle.set_rate(arg)
            else:
                with runtime_warnings_as_errors():
                    actual = injector.corrupt_scalar(arg)
                assert_same_scalar(actual, oracle.corrupt_scalar(arg))
            assert_same_state(injector, oracle)

    @given(
        model=st.sampled_from(MODELS),
        steps=st.lists(
            st.one_of(
                st.tuples(
                    st.sampled_from(["add", "mul", "move", "protected", "reliable"]),
                    fpu_operands,
                    fpu_operands,
                ),
                st.tuples(st.just("rate"), st.sampled_from(RATES), st.just(0.0)),
            ),
            min_size=1,
            max_size=60,
        ),
        rate=st.sampled_from(RATES),
        seed=st.integers(0, 2**31),
    )
    def test_fpu_op_sequence(self, model, steps, rate, seed):
        """StochasticFPU commits, protected regions and reliable() blocks."""
        proc = StochasticProcessor(fault_rate=rate, fault_model=model, rng=seed)
        fpu = proc.fpu
        oracle = OracleSubstrate(rate, proc.dtype, proc.injector.bit_distribution, seed)
        for kind, a, b in steps:
            with runtime_warnings_as_errors():
                if kind == "rate":
                    proc.fault_rate = a
                    oracle.set_rate(a)
                    assert_same_state(proc.injector, oracle)
                    continue
                if kind == "add":
                    actual, expected = fpu.add(a, b), oracle.commit(a + b)
                elif kind == "mul":
                    actual, expected = fpu.mul(a, b), oracle.commit(a * b)
                elif kind == "move":
                    actual, expected = fpu.move(a), oracle.commit(a)
                elif kind == "protected":
                    with fpu.protected():
                        actual = fpu.move(a)
                    oracle.protected += 1
                    expected = oracle.commit(a)
                    oracle.protected -= 1
                else:
                    with proc.reliable(), oracle.reliable():
                        actual, expected = fpu.sub(a, b), oracle.commit(a - b)
            assert_same_scalar(actual, expected)
            assert proc.flops == fpu.flops == oracle.flops
            assert_same_state(proc.injector, oracle)


@pytest.mark.parametrize("model", MODELS)
def test_large_batch_matches_oracle(model):
    """A fused pass big enough for the bucket-table bit lookup, row by row.

    Thousands of faults per pass send the fused pass's concatenated bit
    draws through the distribution's bucket table, while each trial's
    oracle maps its own draws with ``searchsorted``.
    """
    rates = [0.0, 1e-3, 0.3, 1.0, 0.3, 0.05]
    procs = [
        StochasticProcessor(fault_rate=rate, fault_model=model, rng=seed)
        for seed, rate in enumerate(rates)
    ]
    oracles = [
        OracleSubstrate(rate, proc.dtype, proc.injector.bit_distribution, seed)
        for seed, (rate, proc) in enumerate(zip(rates, procs))
    ]
    batch = ProcessorBatch(procs)
    for step, ops in enumerate([1, 3, 1]):
        stacked = np.random.default_rng(step).standard_normal((len(procs), 30, 40))
        with runtime_warnings_as_errors():
            actual = batch.corrupt(stacked, ops)
        for row, oracle in enumerate(oracles):
            assert_same_floats(actual[row], oracle.corrupt(stacked[row], ops))
    batch.flush()
    for proc, oracle in zip(procs, oracles):
        assert proc.flops == oracle.flops
        assert_same_state(proc.injector, oracle)


class TestNegativeOpsRejected:
    """A negative FLOP count raises before any draw or counter update."""

    @pytest.mark.parametrize("ops", [-2, np.int64(-1), np.array([1, -1, 2, 0])],
                             ids=["int", "int64", "per-element"])
    @pytest.mark.parametrize("entry", ["processor", "injector", "batch"])
    def test_rejected_before_any_draw(self, entry, ops):
        procs = [StochasticProcessor(fault_rate=0.1, rng=seed) for seed in (1, 2)]
        for proc in procs:
            proc.corrupt(np.ones(4), 3)
        states = [proc.injector.rng.bit_generator.state for proc in procs]
        counters = [(proc.flops, proc.injector.ops_observed) for proc in procs]
        with pytest.raises(ValueError, match="flop count must be non-negative"):
            if entry == "processor":
                procs[0].corrupt(np.ones(4), ops)
            elif entry == "injector":
                procs[0].injector.corrupt_array(np.ones(4), ops)
            else:
                batch = ProcessorBatch(procs)
                try:
                    batch.corrupt(np.ones((2, 4)), ops)
                finally:
                    batch.flush()
        assert [proc.injector.rng.bit_generator.state for proc in procs] == states
        assert [(proc.flops, proc.injector.ops_observed) for proc in procs] == counters


def test_unguarded_float32_commit_beyond_range_is_silent():
    """A protected or fault-free float32 commit overflowing to inf does not warn."""
    proc = StochasticProcessor(fault_rate=0.0, rng=0)
    with runtime_warnings_as_errors():
        assert proc.fpu.mul(1e30, 1e30) == np.inf
        proc.fault_rate = 0.5
        with proc.fpu.protected():
            assert proc.fpu.move(-1e39) == -np.inf
