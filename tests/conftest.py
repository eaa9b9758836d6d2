"""Shared fixtures and Hypothesis settings profiles for the test suite."""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.backends import get_backend, list_backends
from repro.experiments.engine import ExperimentEngine
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
# Skip marks for tests that require a specific optional compiled tier.
# CI legs without the dependency auto-skip these params instead of failing.
requires_cnative = pytest.mark.skipif(
    not get_backend("cnative").available(),
    reason=f"cnative backend unavailable: {get_backend('cnative').unavailable_reason}",
)


def backend_param(name: str):
    """One pytest param per registered backend; unavailable tiers skip."""
    backend = get_backend(name)
    marks = ()
    if not backend.available():
        marks = (
            pytest.mark.skip(
                reason=f"compute backend {name!r} unavailable "
                f"({backend.unavailable_reason})"
            ),
        )
    return pytest.param(name, marks=marks, id=f"backend-{name}")


@pytest.fixture(
    scope="session",
    params=[backend_param(name) for name in list_backends()],
)
def engine(request):
    """A vectorized experiment engine pinned to one compute backend.

    Parametrized over every *registered* backend — installed tiers run, the
    rest skip — so the tensor-backend and scenario-grid equivalence suites
    exercise each available kernel implementation through exactly the same
    assertions.  The backend is pinned through the engine's own ``backend``
    parameter (not an ambient context), so parallel test collection and
    unrelated tests keep the default numpy tier.
    """
    return ExperimentEngine("vectorized", backend=request.param)


@pytest.fixture(scope="session")
def engine_backend(engine) -> str:
    """The backend name the session ``engine`` fixture is pinned to."""
    return engine.backend


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
