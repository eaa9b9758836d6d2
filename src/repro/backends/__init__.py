"""Pluggable compute backends for the hot fault/solver kernels.

Importing this package registers every built-in backend:

* ``numpy`` — the always-available reference tier (no kernel overrides).
* ``cnative`` — cffi-compiled C kernels, bit-identical to numpy.
* ``cnative-fused`` — cnative plus statistical-tier fused reductions.

See ``docs/backends.md`` for the selection precedence, equivalence tiers,
and the per-kernel support matrix.
"""

from repro.backends.registry import (
    BIT_IDENTICAL,
    DEFAULT_BACKEND,
    ENV_VAR,
    STATISTICAL,
    BackendUnavailable,
    ComputeBackend,
    KernelImpl,
    active_backend,
    available_backends,
    get_backend,
    list_backends,
    register_backend,
    resolve_backend,
    use_backend,
)

# Importing the modules registers the built-in backends.
from repro.backends import cnative as _cnative  # noqa: F401,E402
from repro.backends import numpy_backend as _numpy_backend  # noqa: F401,E402

__all__ = [
    "ENV_VAR",
    "DEFAULT_BACKEND",
    "BIT_IDENTICAL",
    "STATISTICAL",
    "BackendUnavailable",
    "ComputeBackend",
    "KernelImpl",
    "register_backend",
    "get_backend",
    "list_backends",
    "available_backends",
    "resolve_backend",
    "use_backend",
    "active_backend",
]
