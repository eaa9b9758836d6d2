"""Selection and equivalence tests for the pluggable compute backends.

The registry contract (``repro.backends``) has two parts, each pinned here:

* **Selection precedence** — :func:`use_backend` context > ``REPRO_BACKEND``
  env var > numpy default; unknown names raise immediately,
  known-but-uninstalled tiers fall back to numpy with a warning.
* **Bit-identity** — every kernel in a backend's table must reproduce the
  numpy tier byte for byte, *including* generator state advancement and
  every fault/FLOP counter, so swapping the backend can never change an
  experiment result.

The cnative classes skip on a host without a C toolchain or cffi.  Running
the whole suite with ``REPRO_BACKEND=cnative`` repeats every sweep-level
equivalence suite on the compiled kernels.
"""

import numpy as np
import pytest
from conftest import requires_cnative, run_fresh

from repro.backends import (
    DEFAULT_BACKEND,
    ENV_VAR,
    BackendUnavailable,
    ComputeBackend,
    active_backend,
    available_backends,
    get_backend,
    list_backends,
    resolve_backend,
    use_backend,
)
from repro.backends import registry as backend_registry
from repro.experiments import kernels
from repro.experiments.engine import ExperimentEngine
from repro.experiments.spec import SweepSpec
from repro.processor.stochastic import StochasticProcessor


@pytest.fixture
def scratch_backend():
    """A registered, available backend with an empty kernel table."""
    backend = ComputeBackend("test-tier", load=dict)
    backend_registry._REGISTRY["test-tier"] = backend
    yield backend
    del backend_registry._REGISTRY["test-tier"]


@pytest.fixture
def broken_backend():
    """A registered backend whose dependencies are (deliberately) missing."""

    def load():
        raise BackendUnavailable("dependency missing (synthetic)")

    backend = ComputeBackend("test-broken", load=load)
    backend_registry._REGISTRY["test-broken"] = backend
    yield backend
    del backend_registry._REGISTRY["test-broken"]


class TestSelectionPrecedence:
    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert resolve_backend(None).name == DEFAULT_BACKEND

    def test_env_var_overrides_default(self, monkeypatch, scratch_backend):
        monkeypatch.setenv(ENV_VAR, "test-tier")
        assert resolve_backend(None) is scratch_backend

    def test_explicit_argument_overrides_env_var(self, monkeypatch, scratch_backend):
        monkeypatch.setenv(ENV_VAR, "test-tier")
        assert resolve_backend("numpy").name == "numpy"

    def test_unknown_name_raises_listing_registered(self):
        with pytest.raises(ValueError, match="unknown compute backend"):
            resolve_backend("no-such-tier")
        with pytest.raises(ValueError, match="registered backends"):
            get_backend("no-such-tier")

    def test_unknown_name_rejected_by_use_backend(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        with pytest.raises(ValueError, match="unknown compute backend"):
            with use_backend("nope"):
                pass
        assert active_backend().name == DEFAULT_BACKEND

    def test_unavailable_backend_falls_back_with_warning(self, broken_backend):
        with pytest.warns(RuntimeWarning, match="falling back"):
            resolved = resolve_backend("test-broken")
        assert resolved.name == DEFAULT_BACKEND
        assert "synthetic" in broken_backend.unavailable_reason

    def test_use_backend_context_nests_and_restores(
        self, monkeypatch, scratch_backend
    ):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert active_backend().name == DEFAULT_BACKEND
        with use_backend("test-tier"):
            assert active_backend() is scratch_backend
            with use_backend("numpy"):
                assert active_backend().name == "numpy"
            assert active_backend() is scratch_backend
        assert active_backend().name == DEFAULT_BACKEND


class TestRegistryContracts:
    def test_builtin_backends_are_registered(self):
        assert list_backends() == ["cnative", "numpy"]

    def test_numpy_tier_always_available_with_empty_table(self):
        numpy_tier = get_backend("numpy")
        assert numpy_tier.available()
        assert dict(numpy_tier.kernels()) == {}
        assert "numpy" in available_backends()
        assert numpy_tier.warmup() == 0.0

    def test_cnative_is_registered_but_loaded_on_first_probe(self):
        loaded = run_fresh("""
            import sys
            from repro.backends import get_backend, list_backends
            assert "cnative" in list_backends()
            before = "repro.backends.cnative" in sys.modules
            get_backend("cnative").available()
            print(before, "repro.backends.cnative" in sys.modules)
        """)
        assert loaded == "False True"

    @requires_cnative
    def test_env_var_selects_cnative(self):
        script = "from repro.backends import active_backend; print(active_backend().name)"
        assert run_fresh(script, REPRO_BACKEND="cnative") == "cnative"

    @requires_cnative
    def test_cnative_table_tiers(self):
        cnative = get_backend("cnative")
        assert sorted(cnative.kernels()) == [
            "batch_corrupt",
            "commit_scalar",
            "corrupt_array",
            "corrupt_block",
            "direct_form_filter",
        ]
        assert all(callable(kernel) for kernel in cnative.kernels().values())


def processor_pair(backend_name, **kwargs):
    """Two identically seeded processors: numpy reference vs ``backend_name``."""
    seed = kwargs.pop("seed", 7)
    with use_backend("numpy"):
        reference = StochasticProcessor(rng=seed, **kwargs)
    with use_backend(backend_name):
        candidate = StochasticProcessor(rng=seed, **kwargs)
    return reference, candidate


def assert_same_substrate_state(reference, candidate):
    """Counters and generator state must agree after identical workloads."""
    assert candidate.flops == reference.flops
    assert candidate.faults_injected == reference.faults_injected
    assert (
        candidate.injector._ops_observed == reference.injector._ops_observed
    )
    assert (
        candidate.injector._ops_until_fault
        == reference.injector._ops_until_fault
    )
    assert (
        candidate.injector.rng.bit_generator.state
        == reference.injector.rng.bit_generator.state
    )


@requires_cnative
class TestCnativeBitIdentity:
    """Byte-for-byte equivalence of each compiled kernel vs the numpy tier."""

    @pytest.mark.parametrize("fault_model", ["leon3-fpu", "double-precision"])
    @pytest.mark.parametrize("rate", [0.0, 1e-3, 0.3])
    def test_corrupt_block_values_counters_and_stream(self, fault_model, rate):
        reference, candidate = processor_pair(
            "cnative", fault_rate=rate, fault_model=fault_model
        )
        assert (candidate._block_kernel is not None) == (rate >= 0.0)
        rng = np.random.default_rng(42)
        payloads = [
            rng.normal(size=40),
            np.array([np.nan, np.inf, -np.inf, 0.0, 1e300, -1e-300]),
            np.array([]),
            rng.normal(size=(5, 7)),
            np.array(rng.normal()),
        ]
        for payload in payloads:
            for ops in (0, 1, 3):
                expected = reference.corrupt(payload, ops_per_element=ops)
                actual = candidate.corrupt(payload, ops_per_element=ops)
                # assert_array_equal broadcasts a 0-d expectation, so the
                # shapes are compared on their own.
                assert actual.shape == expected.shape == np.shape(payload)
                np.testing.assert_array_equal(
                    actual.view(np.uint64), expected.view(np.uint64)
                )
        with reference.reliable(), candidate.reliable():
            expected = reference.corrupt(payloads[0])
            actual = candidate.corrupt(payloads[0])
            np.testing.assert_array_equal(actual, expected)
        assert_same_substrate_state(reference, candidate)

    def test_corrupt_block_array_ops_fall_back_identically(self):
        reference, candidate = processor_pair("cnative", fault_rate=0.1)
        values = np.arange(6.0)
        ops = np.array([1, 2, 3, 1, 2, 3])
        expected = reference.corrupt(values, ops_per_element=ops)
        actual = candidate.corrupt(values, ops_per_element=ops)
        np.testing.assert_array_equal(actual, expected)
        assert_same_substrate_state(reference, candidate)

    @pytest.mark.parametrize("fault_model", ["leon3-fpu", "double-precision"])
    @pytest.mark.parametrize("rate", [0.0, 1e-3, 0.3])
    def test_commit_scalar_fpu_loop(self, fault_model, rate):
        reference, candidate = processor_pair(
            "cnative", fault_rate=rate, fault_model=fault_model
        )
        operands = np.random.default_rng(3).normal(size=400)
        for fpu in (reference.fpu, candidate.fpu):
            acc = 1.0
            for i, x in enumerate(operands):
                acc = fpu.add(acc, x)
                acc = fpu.mul(acc, 1.0 + 1e-6 * x)
                if i % 7 == 0:
                    acc = fpu.div(acc, 0.0)  # explicit zero-divisor branch
                    acc = fpu.sqrt(-1.0)  # NaN branch
                    acc = fpu.move(float(x))
                if i % 11 == 0:
                    with fpu.protected():
                        acc = fpu.add(acc, 1.0)
                if not np.isfinite(acc):
                    acc = float(x)
            fpu._last = acc  # stash for comparison below
        assert np.float64(candidate.fpu._last).tobytes() == np.float64(
            reference.fpu._last
        ).tobytes()
        assert_same_substrate_state(reference, candidate)

    def test_sweep_equivalence_iir_and_sorting(self):
        # The sweep drives direct_form_filter (IIR baseline),
        # corrupt_block (noisy BLAS), commit_scalar, and — under the
        # vectorized executor — batch_corrupt.
        for functions, executor in (
            (
                kernels.get_kernel("iir").sweep_functions(
                    iterations=40, signal_length=30, n_taps=3
                ),
                "serial",
            ),
            (kernels.get_kernel("sorting").sweep_functions(iterations=120), "vectorized"),
        ):
            results = {}
            for backend in ("numpy", "cnative"):
                with use_backend(backend):
                    results[backend] = [
                        series.values
                        for series in ExperimentEngine(executor).run_sweep(SweepSpec(
                            functions,
                            fault_rates=(0.0, 0.01, 0.2),
                            trials=2,
                            seed=5,
                        ))
                    ]
            assert results["cnative"] == results["numpy"]

    def test_scenario_grid_equivalence(self):
        functions = kernels.get_kernel("sorting").sweep_functions(iterations=120)
        scenarios = ("nominal", "uniform-32", "double-precision-64")
        results = {}
        for backend in ("numpy", "cnative"):
            with use_backend(backend):
                results[backend] = [
                    series.values
                    for series in ExperimentEngine("vectorized").run_sweep(SweepSpec(
                        functions,
                        fault_rates=(0.05,),
                        trials=2,
                        seed=5,
                        scenarios=scenarios,
                    ))
                ]
        assert results["cnative"] == results["numpy"]
