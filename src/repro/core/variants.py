"""Named solver variants used throughout the paper's figures.

Figures 6.1–6.4 compare "Base", "SGD", "SGD,LS", "SGD+AS,LS" and
"SGD+AS,SQS"; Figure 6.5 compares "Non-robust", "Basic,LS", "SQS", "PRECOND",
"ANNEAL" and "ALL".  This module maps those labels to concrete solver
configurations so that the experiment harness, the benchmarks, and user code
all agree on what each label means.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.exceptions import ProblemSpecificationError
from repro.optimizers.annealing import PenaltyAnnealing
from repro.optimizers.sgd import SGDOptions
from repro.optimizers.step_schedules import AggressiveStepping

__all__ = ["VariantSpec", "get_variant", "list_variants", "sgd_options_for_variant"]


@dataclass(frozen=True)
class VariantSpec:
    """Declarative description of one solver variant.

    Attributes
    ----------
    name:
        Canonical label (as printed in the figures).
    schedule:
        Step-size schedule name: ``"ls"``, ``"sqs"`` or ``"const"``.
    aggressive:
        Whether to append the aggressive-stepping phase (the "+AS" suffix).
    momentum:
        Momentum coefficient β, or ``None`` for no momentum.
    precondition:
        Whether to apply QR preconditioning to the constraint matrix (§6.2.1).
    annealing:
        Whether to anneal the penalty parameter (§6.2.4).
    description:
        Human-readable summary used in reports.
    """

    name: str
    schedule: str = "ls"
    aggressive: bool = False
    momentum: Optional[float] = None
    precondition: bool = False
    annealing: bool = False
    description: str = ""


_VARIANTS: Dict[str, VariantSpec] = {
    spec.name.lower(): spec
    for spec in (
        VariantSpec(
            name="SGD",
            schedule="ls",
            description="Plain stochastic gradient descent, 1/t step scaling.",
        ),
        VariantSpec(
            name="SGD,LS",
            schedule="ls",
            description="Stochastic gradient descent with linear (1/t) step scaling.",
        ),
        VariantSpec(
            name="SGD,SQS",
            schedule="sqs",
            description="Stochastic gradient descent with sqrt (1/sqrt t) step scaling.",
        ),
        VariantSpec(
            name="SGD+AS,LS",
            schedule="ls",
            aggressive=True,
            description="1/t step scaling followed by an aggressive-stepping phase.",
        ),
        VariantSpec(
            name="SGD+AS,SQS",
            schedule="sqs",
            aggressive=True,
            description="1/sqrt t step scaling followed by an aggressive-stepping phase.",
        ),
        VariantSpec(
            name="Basic,LS",
            schedule="ls",
            description="Figure 6.5 'basic' gradient descent (1/t steps, no enhancements).",
        ),
        VariantSpec(
            name="SQS",
            schedule="sqs",
            description="Figure 6.5 step-scaling enhancement only.",
        ),
        VariantSpec(
            name="MOMENTUM",
            schedule="ls",
            momentum=0.5,
            description="Momentum 0.5 enhancement only (§6.2.2).",
        ),
        VariantSpec(
            name="PRECOND",
            schedule="ls",
            precondition=True,
            description="QR preconditioning enhancement only (§6.2.1).",
        ),
        VariantSpec(
            name="ANNEAL",
            schedule="ls",
            annealing=True,
            description="Penalty annealing enhancement only (§6.2.4).",
        ),
        VariantSpec(
            name="ALL",
            schedule="sqs",
            aggressive=True,
            momentum=0.5,
            precondition=True,
            annealing=True,
            description="All enhancements combined (§6.2.5).",
        ),
    )
}


def list_variants() -> list[str]:
    """Canonical names of all registered solver variants."""
    return sorted(spec.name for spec in _VARIANTS.values())


def get_variant(name: str) -> VariantSpec:
    """Look up a variant by (case-insensitive) name."""
    try:
        return _VARIANTS[name.lower()]
    except KeyError as exc:
        raise ProblemSpecificationError(
            f"unknown solver variant {name!r}; available: {list_variants()}"
        ) from exc


def sgd_options_for_variant(
    name: str,
    iterations: int,
    base_step: float = 1.0,
    gradient_clip: Optional[float] = None,
    annealing: Optional[PenaltyAnnealing] = None,
    aggressive: Optional[AggressiveStepping] = None,
) -> SGDOptions:
    """Build :class:`~repro.optimizers.sgd.SGDOptions` for a named variant.

    Parameters that the variant controls (schedule, momentum, whether the
    aggressive phase and annealing are enabled) come from the variant spec;
    parameters that are workload-specific (iteration count, base step,
    gradient clip, the concrete annealing/aggressive schedules) come from the
    caller.
    """
    spec = get_variant(name)
    return SGDOptions(
        iterations=iterations,
        schedule=spec.schedule,
        base_step=base_step,
        momentum=spec.momentum,
        aggressive=(aggressive or AggressiveStepping()) if spec.aggressive else None,
        annealing=(annealing or PenaltyAnnealing()) if spec.annealing else None,
        gradient_clip=gradient_clip,
    )
