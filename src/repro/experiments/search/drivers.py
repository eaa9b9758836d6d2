"""Search drivers: deciding which voltage probes to run next.

Where a campaign *enumerates* a fixed grid, a driver *searches* the
operating space, issuing probes one at a time through a
:class:`~repro.experiments.search.probes.ProbeRunner` and letting the
store-backed memo make every answered probe permanent.  Three drivers:

:class:`CriticalVoltageBisector`
    Per (kernel, series): bracket the voltage axis, then bisect to the
    success-rate crossing within a voltage tolerance — O(log 1/tol) probes
    where a dense grid needs O(range/tol).
:class:`ParetoTracer`
    The energy-vs-accuracy frontier under the processor's
    :data:`~repro.processor.energy.ENERGY_MODEL`: probes the endpoints,
    then refines only segments whose endpoints disagree on accuracy —
    flat 0 %/100 % plateaus (most of any real grid) are never subdivided.
:class:`RecipeRanker`
    A successive-halving race of robustification recipes (the series
    variants of :mod:`repro.experiments.kernels`): every entrant is
    probed at a small trial budget, the bottom half is pruned, and the
    budget doubles for the survivors — losers never see the full budget.

Every driver's probe sequence is a pure function of (driver configuration,
probe answers), and every probe answer is a pure function of grid
coordinates, so the whole search is bit-reproducible given (spec, config):
the same probes in the same order with the same values, from any resume
point.  The pure decision cores (:func:`bisect_crossing`,
:func:`trace_frontier`, :func:`successive_halving`) take plain callables so
property tests can drive them with synthetic curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.processor.energy import ENERGY_MODEL
from repro.processor.voltage import MIN_VOLTAGE, NOMINAL_VOLTAGE

from repro.experiments.search.probes import ProbeResult, ProbeRunner

__all__ = [
    "SearchDriver",
    "bisect_crossing",
    "bisection_probe_bound",
    "BisectionResult",
    "CriticalVoltageBisector",
    "trace_frontier",
    "ParetoTracer",
    "successive_halving",
    "RecipeRanker",
]


# --------------------------------------------------------------------------- #
# Critical-voltage bisection
# --------------------------------------------------------------------------- #
def bisection_probe_bound(v_low: float, v_high: float, tolerance: float) -> int:
    """The probe-count ceiling: 2 bracket probes + the bisection log bound."""
    if v_high - v_low <= tolerance:
        return 2
    return 2 + math.ceil(math.log2((v_high - v_low) / tolerance))


def bisect_crossing(
    probe: Callable[[float], float],
    v_low: float,
    v_high: float,
    tolerance: float,
    threshold: float = 0.5,
) -> Dict[str, Any]:
    """Locate where ``probe`` crosses ``threshold`` on a monotone axis.

    ``probe(v)`` is a score in [0, 1] assumed non-decreasing in ``v`` (for
    this library: success rate rises with supply voltage).  Probes the two
    endpoints to bracket, then bisects until the bracket is narrower than
    ``tolerance``.  Returns a dict with:

    ``status``
        ``"bracketed"`` (a crossing was isolated), ``"always-succeeds"``
        (even ``v_low`` meets the threshold), or ``"always-fails"`` (even
        ``v_high`` does not).
    ``critical_voltage`` / ``lo`` / ``hi``
        The bracket midpoint and bounds; for ``"bracketed"`` results the
        crossing lies in ``(lo, hi]`` with ``hi - lo <= tolerance``.
    ``probes``
        The issue-ordered ``(voltage, score)`` history — never more than
        :func:`bisection_probe_bound` entries.

    >>> result = bisect_crossing(lambda v: float(v >= 0.7), 0.55, 1.0, 0.01)
    >>> result["status"], result["lo"] < 0.7 <= result["hi"]
    ('bracketed', True)
    >>> len(result["probes"]) <= bisection_probe_bound(0.55, 1.0, 0.01)
    True
    """
    if not v_low < v_high:
        raise ValueError(f"need v_low < v_high, got [{v_low}, {v_high}]")
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    history: List[Tuple[float, float]] = []

    def measure(voltage: float) -> float:
        score = float(probe(voltage))
        history.append((voltage, score))
        return score

    def summary(status: str, lo: float, hi: float) -> Dict[str, Any]:
        return {
            "status": status,
            "critical_voltage": (lo + hi) / 2.0,
            "lo": lo,
            "hi": hi,
            "tolerance": float(tolerance),
            "threshold": float(threshold),
            "probes": list(history),
        }

    if measure(v_high) < threshold:
        return summary("always-fails", v_high, v_high)
    if measure(v_low) >= threshold:
        return summary("always-succeeds", v_low, v_low)
    lo, hi = float(v_low), float(v_high)  # score(lo) < threshold <= score(hi)
    while hi - lo > tolerance:
        mid = (lo + hi) / 2.0
        if measure(mid) >= threshold:
            hi = mid
        else:
            lo = mid
    return summary("bracketed", lo, hi)


class SearchDriver:
    """Base of the search drivers: a name, a fingerprint, and ``run``.

    The fingerprint covers every configuration field that shapes the probe
    sequence; combined with the runner's probe fingerprint it forms the
    search id, so a drifted tolerance or voltage range plans a *different*
    search instead of silently resuming the old one.
    """

    name: str = "search"

    def fingerprint(self) -> Dict[str, Any]:
        raise NotImplementedError

    def run(self, runner: ProbeRunner) -> Dict[str, Any]:
        raise NotImplementedError


@dataclass(frozen=True)
class BisectionResult:
    """One series' critical voltage, with its uncertainty and evidence."""

    series: str
    status: str
    critical_voltage: float
    lo: float
    hi: float
    tolerance: float
    threshold: float
    probes: Tuple[ProbeResult, ...]

    def to_payload(self) -> Dict[str, Any]:
        return {
            "series": self.series,
            "status": self.status,
            "critical_voltage": self.critical_voltage,
            "lo": self.lo,
            "hi": self.hi,
            "tolerance": self.tolerance,
            "threshold": self.threshold,
            "probes": [
                {
                    "voltage": probe.voltage,
                    "success_rate": probe.success_rate,
                    "trials": probe.trials,
                    "reused": probe.reused,
                    "shard": probe.shard_id,
                }
                for probe in self.probes
            ],
        }


@dataclass(frozen=True)
class CriticalVoltageBisector(SearchDriver):
    """Bracket + bisect one series' success rate to its voltage crossing."""

    tolerance: float = 0.01
    threshold: float = 0.5
    v_low: float = MIN_VOLTAGE
    v_high: float = NOMINAL_VOLTAGE
    name: str = field(default="bisect", init=False, repr=False)

    def fingerprint(self) -> Dict[str, Any]:
        return {
            "driver": self.name,
            "tolerance": float(self.tolerance),
            "threshold": float(self.threshold),
            "v_low": float(self.v_low),
            "v_high": float(self.v_high),
        }

    def probe_bound(self) -> int:
        return bisection_probe_bound(self.v_low, self.v_high, self.tolerance)

    def run(self, runner: ProbeRunner) -> BisectionResult:
        """Bisect one series (the runner's) to its critical voltage."""
        probes: List[ProbeResult] = []

        def probe(voltage: float) -> float:
            result = runner.run(voltage)
            probes.append(result)
            return result.success_rate

        crossing = bisect_crossing(
            probe, self.v_low, self.v_high, self.tolerance, self.threshold
        )
        return BisectionResult(
            series=runner.series,
            status=crossing["status"],
            critical_voltage=crossing["critical_voltage"],
            lo=crossing["lo"],
            hi=crossing["hi"],
            tolerance=self.tolerance,
            threshold=self.threshold,
            probes=tuple(probes),
        )

    # ------------------------------------------------------------------ #
    # Dense-grid cross-check (--verify-grid)
    # ------------------------------------------------------------------ #
    def grid_voltages(self, resolution: Optional[float] = None) -> List[float]:
        """The matched-resolution dense grid: steps of ``resolution`` volts."""
        step = self.tolerance if resolution is None else float(resolution)
        if step <= 0:
            raise ValueError(f"resolution must be positive, got {step}")
        count = int(round((self.v_high - self.v_low) / step))
        voltages = [self.v_low + index * step for index in range(count)]
        voltages.append(self.v_high)
        return voltages

    def verify_against_grid(
        self,
        runner: ProbeRunner,
        result: BisectionResult,
        resolution: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Cross-check ``result`` against a dense grid at matched resolution.

        Runs every grid voltage through the same memoized probe layer (so
        endpoint probes are reuses, and the grid itself becomes memo fodder
        for future searches), finds the lowest grid voltage meeting the
        threshold, and judges agreement: the two estimates must lie within
        one tolerance plus one grid step of each other (each method's own
        discretization).  Returns the verdict and both estimates.
        """
        voltages = self.grid_voltages(resolution)
        step = self.tolerance if resolution is None else float(resolution)
        scores = [(v, runner.run(v).success_rate) for v in voltages]
        passing = [v for v, score in scores if score >= self.threshold]
        failing = [v for v, score in scores if score < self.threshold]
        if not passing:
            grid_status, grid_critical = "always-fails", self.v_high
        elif not failing:
            grid_status, grid_critical = "always-succeeds", self.v_low
        else:
            lowest_pass = min(passing)
            below = [v for v in failing if v < lowest_pass]
            grid_status = "bracketed"
            grid_critical = (
                (max(below) + lowest_pass) / 2.0 if below else lowest_pass
            )
        agreement = abs(result.critical_voltage - grid_critical) <= (
            self.tolerance + step
        )
        return {
            "grid_points": len(voltages),
            "grid_status": grid_status,
            "grid_critical_voltage": grid_critical,
            "search_critical_voltage": result.critical_voltage,
            "resolution": step,
            "within_tolerance": bool(agreement and grid_status == result.status),
        }


# --------------------------------------------------------------------------- #
# Energy-vs-accuracy Pareto tracing
# --------------------------------------------------------------------------- #
def trace_frontier(
    probe: Callable[[float], float],
    v_low: float,
    v_high: float,
    min_segment: float,
    max_probes: int = 64,
) -> List[Tuple[float, float]]:
    """Sample ``probe`` adaptively: refine only where accuracy changes.

    Starts from the two endpoints and repeatedly subdivides, in ascending
    voltage order, every adjacent pair whose accuracies differ and whose gap
    exceeds ``min_segment`` — a segment with equal endpoint accuracy is a
    plateau and is never subdivided, which is the entire saving over a dense
    grid (real success curves are two plateaus and a narrow transition).
    Returns the sampled ``(voltage, accuracy)`` points, ascending.
    """
    if not v_low < v_high:
        raise ValueError(f"need v_low < v_high, got [{v_low}, {v_high}]")
    if min_segment <= 0:
        raise ValueError(f"min_segment must be positive, got {min_segment}")
    samples: Dict[float, float] = {}

    def measure(voltage: float) -> None:
        if voltage not in samples and len(samples) < max_probes:
            samples[voltage] = float(probe(voltage))

    measure(float(v_low))
    measure(float(v_high))
    while True:
        ordered = sorted(samples)
        splits = [
            (lo + hi) / 2.0
            for lo, hi in zip(ordered, ordered[1:])
            if hi - lo > min_segment and samples[lo] != samples[hi]
        ]
        splits = [mid for mid in splits if mid not in samples]
        if not splits or len(samples) >= max_probes:
            break
        for mid in splits:
            measure(mid)
    return [(voltage, samples[voltage]) for voltage in sorted(samples)]


@dataclass(frozen=True)
class ParetoTracer(SearchDriver):
    """Trace the energy-vs-accuracy frontier of one series.

    Accuracy is the probe success rate; energy is one FLOP's energy under
    :data:`~repro.processor.energy.ENERGY_MODEL`, the model of every
    processor (energy scales with V², so lower voltage is cheaper and the
    frontier is the set of operating points no other point beats on both
    axes — on a plateau, only its lowest-voltage point survives).
    """

    min_segment: float = 0.02
    v_low: float = MIN_VOLTAGE
    v_high: float = NOMINAL_VOLTAGE
    max_probes: int = 32
    name: str = field(default="pareto", init=False, repr=False)

    def fingerprint(self) -> Dict[str, Any]:
        # "flops" and "voltage_exponent" record the energy model's fixed
        # inputs, so search ids stay those of the runs that already exist.
        return {
            "driver": self.name,
            "min_segment": float(self.min_segment),
            "v_low": float(self.v_low),
            "v_high": float(self.v_high),
            "max_probes": int(self.max_probes),
            "flops": 1.0,
            "voltage_exponent": 2.0,
        }

    def run(self, runner: ProbeRunner) -> Dict[str, Any]:
        probes: List[ProbeResult] = []

        def probe(voltage: float) -> float:
            result = runner.run(voltage)
            probes.append(result)
            return result.success_rate

        samples = trace_frontier(
            probe, self.v_low, self.v_high, self.min_segment, self.max_probes
        )
        points = [
            {
                "voltage": voltage,
                "accuracy": accuracy,
                "energy": ENERGY_MODEL.energy(1.0, voltage),
                "energy_savings": ENERGY_MODEL.savings_vs_nominal(1.0, voltage),
            }
            for voltage, accuracy in samples
        ]
        # Ascending voltage is ascending energy; a point joins the frontier
        # only by strictly improving on every cheaper point's accuracy.
        frontier: List[Dict[str, Any]] = []
        best_accuracy = -math.inf
        for point in points:
            if point["accuracy"] > best_accuracy:
                frontier.append(point)
                best_accuracy = point["accuracy"]
        return {
            "series": runner.series,
            "points": points,
            "frontier": frontier,
            "probe_count": len(probes),
        }


# --------------------------------------------------------------------------- #
# Successive-halving recipe race
# --------------------------------------------------------------------------- #
def successive_halving(
    entrants: Sequence[str],
    score: Callable[[str, int], float],
    base_budget: int,
    rungs: int,
) -> Dict[str, Any]:
    """Race ``entrants``, doubling budget and halving the field each rung.

    ``score(entrant, budget)`` evaluates one entrant at one trial budget
    (higher is better).  Rung *r* evaluates the survivors at
    ``base_budget * 2**r`` and keeps the top half — ties break by entrant
    name, ascending, so the race is deterministic.  The race ends after
    ``rungs`` rungs or when one entrant remains; the final ranking orders
    by elimination rung (later is better), then by last score, then name.
    """
    if base_budget < 1:
        raise ValueError(f"base_budget must be positive, got {base_budget}")
    if rungs < 1:
        raise ValueError(f"rungs must be positive, got {rungs}")
    survivors = sorted(str(entrant) for entrant in entrants)
    if len(set(survivors)) != len(survivors):
        raise ValueError(f"entrant names must be unique, got {survivors}")
    history: List[Dict[str, Any]] = []
    last_seen: Dict[str, Tuple[int, float]] = {
        name: (-1, -math.inf) for name in survivors
    }
    for rung in range(rungs):
        budget = base_budget * (2 ** rung)
        scores = {name: float(score(name, budget)) for name in survivors}
        for name, value in scores.items():
            last_seen[name] = (rung, value)
        ranked = sorted(survivors, key=lambda name: (-scores[name], name))
        keep = max(1, math.ceil(len(ranked) / 2))
        history.append({
            "rung": rung,
            "budget": budget,
            "scores": {name: scores[name] for name in ranked},
            "pruned": ranked[keep:],
        })
        survivors = ranked[:keep] if len(ranked) > 1 else ranked
        if len(survivors) == 1:
            break
    ranking = sorted(
        last_seen,
        key=lambda name: (-last_seen[name][0], -last_seen[name][1], name),
    )
    return {"ranking": ranking, "rungs": history, "winner": ranking[0]}


@dataclass(frozen=True)
class RecipeRanker(SearchDriver):
    """Successive-halving race of robustification recipes at one stress point.

    Entrants are (kernel, series) recipe variants — the series line-ups of
    :mod:`repro.experiments.kernels` are the paper's robustification
    recipes.  Each is probed at the stress ``voltage`` with an escalating
    trial budget; the bottom half is pruned each rung, so a losing recipe
    costs ``base_trials`` trials instead of the full budget.
    """

    voltage: float = 0.65
    base_trials: int = 2
    rungs: int = 3
    name: str = field(default="rank", init=False, repr=False)

    def fingerprint(self) -> Dict[str, Any]:
        return {
            "driver": self.name,
            "voltage": float(self.voltage),
            "base_trials": int(self.base_trials),
            "rungs": int(self.rungs),
        }

    def run_race(self, runners: Mapping[str, ProbeRunner]) -> Dict[str, Any]:
        """Race the given entrants (label → probe runner)."""

        def score(entrant: str, budget: int) -> float:
            return runners[entrant].run(self.voltage, trials=budget).success_rate

        race = successive_halving(
            sorted(runners), score, self.base_trials, self.rungs
        )
        race["voltage"] = float(self.voltage)
        return race

    def run(self, runner: ProbeRunner) -> Dict[str, Any]:
        """The single-entrant degenerate race (driver-interface parity)."""
        return self.run_race({runner.series: runner})
