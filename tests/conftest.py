"""Shared fixtures and Hypothesis settings profiles for the test suite."""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.backends import get_backend
from repro.processor.stochastic import StochasticProcessor

# Property tests run under named Hypothesis profiles: "ci" digs deeper (more
# examples, no deadline — shared runners have noisy timing), "local" keeps
# the suite fast at a desk, and "determinism" derandomizes the search so the
# bench-gate and smoke CI jobs replay the exact same example sequence on
# every run — a perf gate must never go red because the property search got
# unlucky.  Select with HYPOTHESIS_PROFILE=ci|local|determinism; the default
# is "local".
settings.register_profile(
    "ci",
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "local",
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "determinism",
    derandomize=True,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "local"))


# ---------------------------------------------------------------------- #
# Compute backends
# ---------------------------------------------------------------------- #
# Skip mark for tests that require the optional compiled tier.  CI legs
# without cffi or a C compiler skip these tests instead of failing.
requires_cnative = pytest.mark.skipif(
    not get_backend("cnative").available(),
    reason=f"cnative backend unavailable: {get_backend('cnative').unavailable_reason}",
)


@pytest.fixture
def rng():
    """A deterministic numpy generator for test data."""
    return np.random.default_rng(12345)


@pytest.fixture
def reliable_proc():
    """A fault-free stochastic processor (reference behaviour)."""
    return StochasticProcessor(fault_rate=0.0, rng=0)


@pytest.fixture
def noisy_proc():
    """A processor with a moderate 5 % fault rate."""
    return StochasticProcessor(fault_rate=0.05, rng=1)


@pytest.fixture
def make_proc():
    """Factory fixture: build a processor at any fault rate with a fixed seed."""

    def _make(fault_rate: float = 0.0, seed: int = 0, **kwargs) -> StochasticProcessor:
        return StochasticProcessor(fault_rate=fault_rate, rng=seed, **kwargs)

    return _make
