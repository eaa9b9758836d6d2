"""Pluggable compute backends for the hot fault kernels.

Importing this package registers every built-in backend:

* ``numpy`` — the always-available reference tier (no kernel overrides).
* ``cnative`` — cffi-compiled C kernels, bit-identical to numpy.

See ``docs/backends.md`` for the selection precedence and the per-kernel
support matrix.
"""

from repro.backends.registry import (
    DEFAULT_BACKEND,
    ENV_VAR,
    BackendUnavailable,
    ComputeBackend,
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
    "BackendUnavailable",
    "ComputeBackend",
    "register_backend",
    "get_backend",
    "list_backends",
    "available_backends",
    "resolve_backend",
    "use_backend",
    "active_backend",
]
