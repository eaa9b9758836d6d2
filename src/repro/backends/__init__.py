"""Pluggable compute backends for the hot fault kernels.

Importing this package registers every built-in backend:

* ``numpy`` — the always-available reference tier (no kernel overrides).
* ``cnative`` — cffi-compiled C kernels, bit-identical to numpy.  Its
  module, :mod:`repro.backends.cnative`, is imported the first time the
  backend is probed (``available()``, ``kernels()``, ``warmup()``), so a
  process that never asks for it never loads it.

See ``docs/backends.md`` for the selection precedence and the per-kernel
support matrix.
"""

from importlib import import_module

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

# Importing the module registers the numpy tier.
from repro.backends import numpy_backend as _numpy_backend  # noqa: F401,E402


def _cnative(name: str):
    """Call ``repro.backends.cnative.<name>()``, importing the module first."""
    return lambda: getattr(import_module("repro.backends.cnative"), name)()


register_backend(ComputeBackend(
    "cnative", load=_cnative("load"), version=_cnative("version"), warmup=_cnative("warmup"),
))

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
