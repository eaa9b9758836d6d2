"""The compute-backend registry: pluggable tiers for the hot fault kernels.

A :class:`ComputeBackend` is a named provider of drop-in implementations for
the measured hot paths of the fault layer — the vectorized corruption kernel
behind :meth:`repro.faults.injector.FaultInjector.corrupt_array`, the fused
batch corruption behind :meth:`repro.processor.batch.ProcessorBatch.corrupt`,
and the scalar direct-form IIR recursion.  ``numpy`` (the pure-numpy tier,
always available) is the reference; the compiled ``cnative`` backend (cffi +
cc) registers faster implementations of individual kernels and falls back to
the numpy code path for everything else.

Every kernel a backend provides is byte-for-byte the numpy tier's result,
including the random-draw order of each trial's generator, so the choice of
backend never changes an experiment result and never enters a sweep
fingerprint or cache key.

A backend is chosen one way: the innermost :func:`use_backend` context, else
the ``REPRO_BACKEND`` env var, else numpy.  A known-but-uninstalled backend
falls back to numpy with a warning, while an unknown name raises
immediately.
"""

from __future__ import annotations

import contextlib
import os
import warnings
from typing import Callable, Dict, Iterator, List, Mapping, Optional

__all__ = [
    "ENV_VAR",
    "DEFAULT_BACKEND",
    "ComputeBackend",
    "register_backend",
    "get_backend",
    "list_backends",
    "available_backends",
    "resolve_backend",
    "use_backend",
    "active_backend",
]

#: Environment variable consulted when no backend is passed explicitly.
ENV_VAR = "REPRO_BACKEND"

#: The always-available reference tier.
DEFAULT_BACKEND = "numpy"


class BackendUnavailable(RuntimeError):
    """Raised by a backend loader when its dependencies are missing."""


class ComputeBackend:
    """A named compute tier providing hot-path kernel implementations.

    Parameters
    ----------
    name:
        Registry name (``"numpy"``, ``"cnative"``, ...).
    load:
        Zero-argument callable returning the backend's kernel table
        (``{kernel name: function}``; each function's calling convention is
        documented where the kernel is consumed).  Raises
        :class:`BackendUnavailable` when a dependency (compiler, cffi, ...)
        is missing; the load runs at most once and its outcome is cached.
    version:
        Zero-argument callable returning the provider's version string (or
        ``None``).  Only consulted when the backend is available.
    warmup:
        Zero-argument callable performing any one-time compilation and
        returning the seconds it took; ``None`` means there is nothing to
        warm up.  Benchmarks call this before timing so JIT/compile cost
        never pollutes measured wall time.
    """

    def __init__(
        self,
        name: str,
        load: Callable[[], Dict[str, Callable]],
        version: Optional[Callable[[], Optional[str]]] = None,
        warmup: Optional[Callable[[], float]] = None,
    ) -> None:
        self.name = name
        self._load = load
        self._version = version
        self._warmup = warmup
        self._kernels: Optional[Dict[str, Callable]] = None
        self._unavailable_reason: Optional[str] = None
        self._probed = False

    def _probe(self) -> None:
        if self._probed:
            return
        self._probed = True
        try:
            self._kernels = dict(self._load())
        except BackendUnavailable as exc:
            self._unavailable_reason = str(exc)
            self._kernels = None

    def available(self) -> bool:
        """Whether this backend's dependencies are installed and loadable."""
        self._probe()
        return self._kernels is not None

    @property
    def unavailable_reason(self) -> Optional[str]:
        """Why the backend failed to load (``None`` while available/unprobed)."""
        self._probe()
        return self._unavailable_reason

    def kernels(self) -> Mapping[str, Callable]:
        """The kernel table; empty for the reference tier or when unavailable."""
        self._probe()
        return self._kernels or {}

    def kernel(self, name: str) -> Optional[Callable]:
        """Look up one kernel implementation, ``None`` when not provided."""
        return self.kernels().get(name)

    def version(self) -> Optional[str]:
        """Version of the backing provider (numpy / compiler)."""
        if not self.available() or self._version is None:
            return None
        return self._version()

    def warmup(self) -> float:
        """Run one-time compilation now; returns the seconds it took."""
        if not self.available() or self._warmup is None:
            return 0.0
        return float(self._warmup())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "available" if self.available() else "unavailable"
        return f"ComputeBackend({self.name!r}, {state}, kernels={sorted(self.kernels())})"


_REGISTRY: Dict[str, ComputeBackend] = {}

#: Ambient backend stack managed by :func:`use_backend`.
_ACTIVE: List[ComputeBackend] = []


def register_backend(backend: ComputeBackend) -> ComputeBackend:
    """Add a backend to the registry (last registration of a name wins)."""
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> ComputeBackend:
    """Fetch a registered backend by name.

    Unknown names raise a :class:`ValueError` listing the registered names —
    availability is *not* checked here (use :meth:`ComputeBackend.available`
    or :func:`resolve_backend`, which falls back).
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown compute backend {name!r}; registered backends: "
            f"{list_backends()}"
        ) from None


def list_backends() -> List[str]:
    """Names of every registered backend (available or not)."""
    return sorted(_REGISTRY)


def available_backends() -> List[str]:
    """Names of the backends whose dependencies are actually installed."""
    return [name for name in list_backends() if _REGISTRY[name].available()]


def resolve_backend(name: Optional[str] = None) -> ComputeBackend:
    """Resolve a backend by the selection precedence.

    Precedence: explicit ``name`` argument > the :data:`ENV_VAR`
    (``REPRO_BACKEND``) environment variable > :data:`DEFAULT_BACKEND`.
    Unknown names raise; a known backend whose dependencies are missing
    falls back to the numpy tier with a warning, so environments without
    the optional compiled tiers keep working unchanged.
    """
    if name is None:
        name = os.environ.get(ENV_VAR) or DEFAULT_BACKEND
    backend = get_backend(name)
    if not backend.available():
        warnings.warn(
            f"compute backend {backend.name!r} is not available "
            f"({backend.unavailable_reason}); falling back to "
            f"{DEFAULT_BACKEND!r}",
            RuntimeWarning,
            stacklevel=2,
        )
        return get_backend(DEFAULT_BACKEND)
    return backend


@contextlib.contextmanager
def use_backend(
    name: Optional[str] = None,
) -> Iterator[ComputeBackend]:
    """Make a backend ambient for the duration of the ``with`` block.

    Substrate objects (:class:`~repro.faults.injector.FaultInjector`,
    :class:`~repro.processor.batch.ProcessorBatch`) resolve their backend at
    construction via :func:`active_backend`, so wrapping a run in this
    context reaches every processor the run builds.  Accepts a name
    (resolved by precedence) or an already-resolved :class:`ComputeBackend`.
    """
    backend = name if isinstance(name, ComputeBackend) else resolve_backend(name)
    _ACTIVE.append(backend)
    try:
        yield backend
    finally:
        _ACTIVE.pop()


def active_backend() -> ComputeBackend:
    """The ambient backend: innermost :func:`use_backend`, else the default.

    Outside any :func:`use_backend` context this applies the same
    env-var/default precedence as :func:`resolve_backend`, so setting
    ``REPRO_BACKEND=cnative`` accelerates every entry point without code
    changes.
    """
    if _ACTIVE:
        return _ACTIVE[-1]
    return resolve_backend(None)
