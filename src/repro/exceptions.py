"""Exception hierarchy for the :mod:`repro` package.

All library-specific errors derive from :class:`RobustificationError` so that
callers can catch a single base class when driving the library
programmatically (for example from the experiment harness).
"""

from __future__ import annotations


class RobustificationError(Exception):
    """Base class for every error raised by the :mod:`repro` package."""


class FaultModelError(RobustificationError):
    """Raised when a fault model or injector is mis-configured.

    Examples include an unsupported floating-point dtype, a bit-position
    distribution that does not sum to one, or a fault rate outside ``[0, 1]``.
    """


class VoltageModelError(RobustificationError):
    """Raised when a voltage/error-rate query falls outside the model range."""


class ProblemSpecificationError(RobustificationError):
    """Raised when an optimization problem is inconsistently specified.

    Typical causes are mismatched constraint dimensions, a missing gradient
    callback, or an application input that cannot be converted into the
    variational form required by the robustification recipes.
    """
