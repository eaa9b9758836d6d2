"""Hypothesis strategies over trial-budget policies.

The adaptive axes the property suites need:

* :func:`confidence_targets` — well-formed :class:`ConfidenceTarget` values
  over small batch/trial ranges (machine-friendly);
* :func:`unreachable_targets` — targets whose half-width goal can never be
  met, so the round loop must run exactly to ``max_trials`` (the degenerate
  twin of a fixed-count sweep);
* :func:`budget_policies` — the full policy axis: no policy or an adaptive
  :class:`ConfidenceTarget`.
"""

from hypothesis import strategies as st

from repro.experiments.sequential import ConfidenceTarget

#: Half-width goals that every executor can reach quickly at tiny scale.
_REACHABLE_WIDTHS = (0.2, 0.35, 0.5)

#: A goal no Wilson interval attains at our trial counts (width stays > 0
#: whenever 0 < n < inf), forcing the run to the max_trials cap.
UNREACHABLE_WIDTH = 1e-9


def adaptive_metrics():
    """The metric kinds a confidence target can watch."""
    return st.sampled_from(["success_rate", "mean"])


@st.composite
def confidence_targets(
    draw,
    max_trials_cap: int = 8,
    metrics=None,
    half_widths=st.sampled_from(_REACHABLE_WIDTHS),
):
    """Well-formed ConfidenceTarget values sized for stateful machines."""
    min_trials = draw(st.integers(min_value=1, max_value=3))
    max_trials = draw(st.integers(min_value=min_trials, max_value=max_trials_cap))
    return ConfidenceTarget(
        half_width=draw(half_widths),
        confidence=draw(st.sampled_from([0.9, 0.95, 0.99])),
        metric=draw(metrics if metrics is not None else adaptive_metrics()),
        batch=draw(st.integers(min_value=1, max_value=4)),
        min_trials=min_trials,
        max_trials=max_trials,
        bootstrap_resamples=draw(st.integers(min_value=8, max_value=32)),
    )


@st.composite
def unreachable_targets(draw, max_trials_cap: int = 6):
    """Targets that must degenerate to fixed-count runs at ``max_trials``.

    Restricted to the success-rate metric: a Wilson half-width is strictly
    positive for finite n, so ``UNREACHABLE_WIDTH`` is never met, whereas a
    bootstrap interval collapses to zero width on constant data.
    """
    max_trials = draw(st.integers(min_value=1, max_value=max_trials_cap))
    return ConfidenceTarget(
        half_width=UNREACHABLE_WIDTH,
        confidence=draw(st.sampled_from([0.9, 0.95])),
        metric="success_rate",
        batch=draw(st.integers(min_value=1, max_value=4)),
        min_trials=1,
        max_trials=max_trials,
        bootstrap_resamples=8,
    )


def budget_policies(max_trials_cap: int = 8):
    """The whole policy axis: absent (fixed count) or adaptive."""
    return st.one_of(
        st.none(),
        confidence_targets(max_trials_cap=max_trials_cap),
    )
