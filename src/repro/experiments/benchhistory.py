"""Perf-trajectory histories: append-only benchmark records with a CI gate.

The one-shot ``BENCH_<kernel>.json`` snapshots written by
``scripts/bench_all.py`` capture a single run; this module promotes them into
per-kernel **histories** so performance can be compared *over time*.  Each
run appends one JSON record per kernel to
``benchmarks/history/<kernel>.jsonl`` (one record per line, append-only, so
the file is a time series and merges trivially in git), and
``scripts/check_bench_regression.py`` gates CI on the trajectory: the latest
record is compared against a robust baseline — the median of the last *N*
**compatible** prior records — and the gate fails on wall-time or speedup
regressions beyond a configurable noise band, on any ``bit_identical`` flip
to ``False``, and on histories whose kernel vanished from the registry
without a tombstone.

Two records are *compatible* (and therefore comparable) only when they agree
on the benchmark parameters (trials, iteration budget, scenario list — a
reduced-scale run must never be judged against a full-scale baseline), the
machine fingerprint (wall-clock seconds from different hardware are not
comparable; speedup ratios nearly are, but machine-matching both keeps the
gate honest about noisy shared runners), **and** the compute backend
(records missing the field count as ``"numpy"``, so pre-backend histories
stay comparable; a ``cnative`` run is never judged against a
numpy baseline even though both append to the same kernel's history file).
Records that have no compatible baseline simply extend the history without
being judged — the gate reports them as unjudged rather than guessing.

Intentional perf changes are accepted by pinning a new baseline:
``check_bench_regression.py --write-baseline`` stores the latest record of
each history in ``benchmarks/history/BASELINES.json``, and a pinned entry
(when params/machine-compatible with the latest record) takes precedence
over the rolling median.  Retired kernels are recorded in
``benchmarks/history/TOMBSTONES`` (one name per line, optional ``# reason``)
so the vanished-kernel check distinguishes deliberate removal from an
accidentally dropped registration.

See ``docs/benchmarks.md`` for the record schema and the CI wiring.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "SCHEMA_VERSION",
    "BASELINES_FILENAME",
    "TOMBSTONES_FILENAME",
    "PSEUDO_KERNELS",
    "machine_fingerprint",
    "validate_record",
    "history_record_from_bench",
    "history_path",
    "append_record",
    "load_history",
    "history_kernels",
    "params_key",
    "machine_key",
    "backend_key",
    "compatible",
    "robust_baseline",
    "RegressionPolicy",
    "Finding",
    "check_kernel",
    "check_histories",
    "load_tombstones",
    "load_baselines",
    "write_baselines",
]

#: Bumped whenever the history record layout changes incompatibly.  The gate
#: refuses records from other schema versions instead of misreading them.
SCHEMA_VERSION = 1

BASELINES_FILENAME = "BASELINES.json"
TOMBSTONES_FILENAME = "TOMBSTONES"

#: Benchmark-only "kernels" that are not in the application-kernel registry:
#: whole-subsystem benchmarks (``scenario_grid``, the ``adaptive`` budget
#: twin, ``campaign`` sharding, ``search`` drivers) that still keep history
#: files and ride the regression gate.  This is the single source of truth —
#: ``scripts/bench_all.py`` derives its ``--only`` handling from it and
#: ``scripts/check_bench_regression.py`` its registry check, so a new
#: pseudo-kernel added here cannot silently miss the gate.
PSEUDO_KERNELS = ("scenario_grid", "adaptive", "campaign", "search")

#: Required record fields and their accepted types.  ``None``-able numeric
#: fields (``serial_seconds`` etc.) are validated separately below.
_REQUIRED_FIELDS: Dict[str, type] = {
    "schema": int,
    "kernel": str,
    "timestamp": str,
    "params": dict,
    "machine": dict,
}
_OPTIONAL_NUMERIC_FIELDS = ("serial_seconds", "speedup_vs_serial")


def machine_fingerprint() -> Dict[str, Any]:
    """A coarse identity of the benchmarking host.

    Wall-clock comparisons only make sense between runs of the same machine
    class; the fingerprint (OS, architecture, python/numpy versions, core
    count) partitions histories so the gate never judges a laptop record
    against a CI-runner baseline.  Deliberately coarse: two runs on equally
    sized CI runners should share a fingerprint.
    """
    return {
        "platform": platform.system(),
        "arch": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }


def validate_record(record: Mapping[str, Any]) -> None:
    """Raise ``ValueError`` naming every problem with a history record.

    A record must carry the current schema version, a kernel name, a params
    dict and machine fingerprint (both strictly JSON-serializable — they form
    the compatibility key), and a finite non-negative ``wall_seconds``.
    """
    problems: List[str] = []
    for name, expected in _REQUIRED_FIELDS.items():
        value = record.get(name)
        if not isinstance(value, expected) or (expected is str and not value):
            problems.append(f"{name!r} must be a non-empty {expected.__name__}")
    if isinstance(record.get("schema"), int) and record["schema"] != SCHEMA_VERSION:
        problems.append(
            f"schema version {record['schema']} != supported {SCHEMA_VERSION}"
        )
    wall = record.get("wall_seconds")
    if not isinstance(wall, (int, float)) or isinstance(wall, bool) or not (
        wall >= 0 and np.isfinite(wall)
    ):
        problems.append("'wall_seconds' must be a finite non-negative number")
    for name in _OPTIONAL_NUMERIC_FIELDS:
        value = record.get(name)
        if value is not None and (
            not isinstance(value, (int, float)) or isinstance(value, bool)
            or not np.isfinite(value)
        ):
            problems.append(f"{name!r} must be a finite number or null")
    bit = record.get("bit_identical")
    if bit is not None and not isinstance(bit, bool):
        problems.append("'bit_identical' must be a bool or null")
    for name in ("params", "machine"):
        value = record.get(name)
        if isinstance(value, dict):
            try:
                json.dumps(value, sort_keys=True, allow_nan=False)
            except (TypeError, ValueError):
                problems.append(f"{name!r} must be strictly JSON-serializable")
    if problems:
        raise ValueError(
            f"invalid benchmark-history record: {'; '.join(problems)}"
        )


def history_record_from_bench(
    bench: Mapping[str, Any],
    machine: Optional[Mapping[str, Any]] = None,
    source: str = "scripts/bench_all.py",
) -> Dict[str, Any]:
    """Convert one ``BENCH_<kernel>.json`` record into a history record.

    ``machine`` defaults to the current host's fingerprint (correct when the
    bench record was just produced here); backfills of historical records
    whose host is unknown should pass an explicit marker such as
    ``{"source": "backfill"}`` so those records only compare among
    themselves.
    """
    record: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "kernel": bench["kernel"],
        "commit": bench.get("commit"),
        "timestamp": bench["timestamp"],
        "generated_by": source,
        "params": dict(bench.get("params") or {}),
        "sweep": bench.get("sweep"),
        "wall_seconds": bench["wall_seconds"],
        "serial_seconds": bench.get("serial_seconds"),
        "speedup_vs_serial": bench.get("speedup_vs_serial"),
        "bit_identical": bench.get("bit_identical_to_serial"),
        "machine": dict(machine) if machine is not None else machine_fingerprint(),
    }
    for extra in (
        "batched_seconds",
        "batched_speedup_vs_serial",
        # Backend-aware records (scripts/bench_all.py --backend): which
        # compute backend ran the timed figure, its provider version, the
        # one-time compile/JIT cost excluded from wall_seconds, and — for
        # non-numpy backends — the vectorized-numpy reference timing and
        # equivalence verdict.  ``backend`` is part of the compatibility
        # key (see :func:`compatible`).
        "backend",
        "backend_version",
        "warmup_seconds",
        "numpy_seconds",
        "speedup_vs_numpy",
        "bit_identical_to_numpy",
        # Adaptive-budget records (the "adaptive" pseudo-kernel): the
        # fixed-count twin's wall time, the confidence-target savings, and
        # the trial counts behind them — see docs/adaptive.md.
        "fixed_seconds",
        "speedup_vs_fixed",
        "trials_fixed",
        "trials_adaptive",
        "target_half_width",
        # Search-driver records (the "search" pseudo-kernel): bisection vs
        # dense-grid probe/trial counts and the agreement verdict, plus the
        # memoized-rerun proof and the workload-memo saving — see
        # docs/search.md.
        "probes",
        "grid_points",
        "trials_search",
        "trials_grid",
        "trial_ratio",
        "critical_voltage",
        "grid_critical_voltage",
        "tolerance",
        "grid_agreement",
        "resume_probes_computed",
        "resume_probes_reused",
        "workload_memo_hits",
        "workload_memo_misses",
        "workload_build_seconds",
        "workload_memo_seconds",
    ):
        if bench.get(extra) is not None:
            record[extra] = bench[extra]
    validate_record(record)
    return record


def history_path(history_dir: Union[str, Path], kernel: str) -> Path:
    """The JSONL file holding ``kernel``'s trajectory."""
    if not kernel or "/" in kernel or kernel.startswith("."):
        raise ValueError(f"invalid kernel name for a history file: {kernel!r}")
    return Path(history_dir) / f"{kernel}.jsonl"


def append_record(
    history_dir: Union[str, Path], record: Mapping[str, Any]
) -> Path:
    """Validate ``record`` and append it to its kernel's history file."""
    validate_record(record)
    path = history_path(history_dir, record["kernel"])
    path.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(dict(record), sort_keys=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line + "\n")
    return path


def load_history(
    history_dir: Union[str, Path], kernel: str
) -> List[Dict[str, Any]]:
    """All records of one kernel's history, oldest first.

    A corrupt or schema-incompatible line raises ``ValueError`` naming the
    file and line number: the history is a CI gate input, so silent skipping
    would turn a truncated file into a vacuously green gate.
    """
    path = history_path(history_dir, kernel)
    records: List[Dict[str, Any]] = []
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            validate_record(record)
        except ValueError as error:
            raise ValueError(f"{path}:{number}: {error}") from error
        if record["kernel"] != kernel:
            raise ValueError(
                f"{path}:{number}: record is for kernel {record['kernel']!r}"
            )
        records.append(record)
    return records


def history_kernels(history_dir: Union[str, Path]) -> List[str]:
    """Kernel names with a history file, sorted."""
    directory = Path(history_dir)
    if not directory.is_dir():
        return []
    return sorted(path.stem for path in directory.glob("*.jsonl"))


def _canonical(payload: Mapping[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def params_key(record: Mapping[str, Any]) -> str:
    """Canonical form of a record's benchmark parameters."""
    return _canonical(record["params"])


def machine_key(record: Mapping[str, Any]) -> str:
    """Canonical form of a record's machine fingerprint."""
    return _canonical(record["machine"])


def backend_key(record: Mapping[str, Any]) -> str:
    """The compute backend a record was measured under.

    Records predating the backend layer carry no field and count as the
    ``"numpy"`` reference tier, so existing histories keep their baselines.
    """
    return record.get("backend") or "numpy"


def compatible(
    record: Mapping[str, Any],
    reference: Mapping[str, Any],
    match_machine: bool = True,
) -> bool:
    """Whether two records may be compared by the regression gate.

    Records from different parameter sets (scales, trial counts, scenario
    lists) or different compute backends (a JIT tier's wall time says
    nothing about a numpy regression, and vice versa) are never comparable;
    machine matching is on by default and can be relaxed for speedup-only
    analyses (ratios largely cancel the host).
    """
    if params_key(record) != params_key(reference):
        return False
    if backend_key(record) != backend_key(reference):
        return False
    if match_machine and machine_key(record) != machine_key(reference):
        return False
    return True


def robust_baseline(
    records: Sequence[Mapping[str, Any]], window: int = 5
) -> Optional[Dict[str, Any]]:
    """Median summary of the last ``window`` records, or ``None`` if empty.

    The median (not the mean, not the single previous run) absorbs one-off
    outliers — a single slow run neither fails the next gate nor poisons the
    baseline.  ``bit_identical`` is a consensus: ``True`` only if every
    record that states a verdict states ``True``.
    """
    pool = list(records)[-window:] if window > 0 else list(records)
    if not pool:
        return None
    walls = [float(r["wall_seconds"]) for r in pool]
    speedups = [
        float(r["speedup_vs_serial"])
        for r in pool
        if r.get("speedup_vs_serial") is not None
    ]
    verdicts = [r["bit_identical"] for r in pool if r.get("bit_identical") is not None]
    return {
        "wall_seconds": statistics.median(walls),
        "speedup_vs_serial": statistics.median(speedups) if speedups else None,
        "bit_identical": all(verdicts) if verdicts else None,
        "records": len(pool),
        "params": dict(pool[-1]["params"]),
        "machine": dict(pool[-1]["machine"]),
    }


@dataclass(frozen=True)
class RegressionPolicy:
    """Noise bands and comparison rules of the regression gate.

    ``wall_band`` is the tolerated fractional wall-time increase over the
    baseline (0.25 → fail beyond +25 %); ``speedup_band`` the tolerated
    fractional speedup loss (0.15 → fail below 85 % of baseline speedup).
    ``window`` bounds the rolling-median baseline.  The defaults absorb
    shared-runner noise observed across the checked-in records; tighten them
    locally with the gate's CLI flags when chasing a specific regression.
    """

    wall_band: float = 0.25
    speedup_band: float = 0.15
    window: int = 5
    match_machine: bool = True


@dataclass(frozen=True)
class Finding:
    """One gate failure: which kernel, what kind, and the evidence."""

    kernel: str
    kind: str  # "wall-regression" | "speedup-regression" | "bit-identity" | "vanished"
    message: str

    def __str__(self) -> str:  # pragma: no cover - formatting only
        return f"REGRESSION {self.kernel} [{self.kind}]: {self.message}"


def check_kernel(
    kernel: str,
    records: Sequence[Mapping[str, Any]],
    policy: RegressionPolicy = RegressionPolicy(),
    pinned_baseline: Optional[Mapping[str, Any]] = None,
) -> Tuple[List[Finding], Dict[str, Any]]:
    """Judge one kernel's latest record against its robust baseline.

    Returns ``(findings, explanation)``; the explanation dict feeds the
    gate's ``--explain`` output and records which baseline was used (pinned
    vs rolling median), how many records were compatible, and every computed
    ratio — so a red gate is diagnosable from its log alone.
    """
    findings: List[Finding] = []
    latest = records[-1]
    explanation: Dict[str, Any] = {
        "kernel": kernel,
        "latest": {
            "wall_seconds": latest["wall_seconds"],
            "speedup_vs_serial": latest.get("speedup_vs_serial"),
            "bit_identical": latest.get("bit_identical"),
            "backend": backend_key(latest),
            "commit": latest.get("commit"),
            "timestamp": latest.get("timestamp"),
        },
        "history_records": len(records),
    }

    # A bit-identity flip is a correctness failure, never a noise question:
    # the batched tiers' contract is exact equality with the serial
    # reference, so a single False fails the gate outright.
    if latest.get("bit_identical") is False:
        findings.append(
            Finding(
                kernel,
                "bit-identity",
                "latest record reports bit_identical=false "
                "(batched/vectorized output diverged from serial)",
            )
        )

    baseline: Optional[Mapping[str, Any]] = None
    if pinned_baseline is not None and compatible(
        pinned_baseline, latest, policy.match_machine
    ):
        baseline = pinned_baseline
        explanation["baseline_source"] = "pinned"
    else:
        pool = [
            record
            for record in records[:-1]
            if compatible(record, latest, policy.match_machine)
        ]
        explanation["compatible_prior_records"] = len(pool)
        baseline = robust_baseline(pool, policy.window)
        explanation["baseline_source"] = "median" if baseline else None

    if baseline is None:
        explanation["judged"] = False
        return findings, explanation
    explanation["judged"] = True
    explanation["baseline"] = {
        "wall_seconds": baseline["wall_seconds"],
        "speedup_vs_serial": baseline.get("speedup_vs_serial"),
    }

    wall_limit = float(baseline["wall_seconds"]) * (1.0 + policy.wall_band)
    explanation["wall_limit"] = wall_limit
    if float(latest["wall_seconds"]) > wall_limit:
        findings.append(
            Finding(
                kernel,
                "wall-regression",
                f"wall {latest['wall_seconds']:.4f}s exceeds baseline "
                f"{baseline['wall_seconds']:.4f}s by more than "
                f"{policy.wall_band:.0%} (limit {wall_limit:.4f}s)",
            )
        )

    base_speedup = baseline.get("speedup_vs_serial")
    latest_speedup = latest.get("speedup_vs_serial")
    if base_speedup is not None and latest_speedup is not None:
        speedup_floor = float(base_speedup) * (1.0 - policy.speedup_band)
        explanation["speedup_floor"] = speedup_floor
        if float(latest_speedup) < speedup_floor:
            findings.append(
                Finding(
                    kernel,
                    "speedup-regression",
                    f"speedup x{latest_speedup:.2f} fell below baseline "
                    f"x{float(base_speedup):.2f} by more than "
                    f"{policy.speedup_band:.0%} (floor x{speedup_floor:.2f})",
                )
            )
    return findings, explanation


def check_histories(
    history_dir: Union[str, Path],
    registry_kernels: Optional[Sequence[str]] = None,
    policy: RegressionPolicy = RegressionPolicy(),
    kernels: Optional[Sequence[str]] = None,
) -> Tuple[List[Finding], List[Dict[str, Any]]]:
    """Run the gate over every history (or an explicit kernel subset).

    Each history is judged once per backend, on that backend's newest
    record, so a ``cnative`` append cannot hide a ``numpy`` regression just
    before it.  ``registry_kernels`` enables the vanished-kernel check: a
    history whose kernel is neither registered nor tombstoned fails the
    gate, so a kernel cannot silently drop out of benchmarking.  Pass
    ``None`` to skip the check (e.g. over a scratch directory in tests).
    """
    findings: List[Finding] = []
    explanations: List[Dict[str, Any]] = []
    names = list(kernels) if kernels is not None else history_kernels(history_dir)
    pinned = load_baselines(history_dir)
    tombstones = load_tombstones(history_dir)
    for kernel in names:
        records = load_history(history_dir, kernel)
        if not records:
            continue
        if registry_kernels is not None and kernel not in registry_kernels:
            if kernel in tombstones:
                explanations.append({"kernel": kernel, "tombstoned": True})
                continue
            findings.append(
                Finding(
                    kernel,
                    "vanished",
                    "kernel has a benchmark history but is no longer in the "
                    f"registry and has no tombstone in {TOMBSTONES_FILENAME}",
                )
            )
            continue
        by_backend: Dict[str, List[Mapping[str, Any]]] = {}
        for record in records:
            by_backend.setdefault(backend_key(record), []).append(record)
        for backend_records in by_backend.values():
            kernel_findings, explanation = check_kernel(
                kernel, backend_records, policy, pinned.get(kernel)
            )
            findings.extend(kernel_findings)
            explanations.append(explanation)
    return findings, explanations


def load_tombstones(history_dir: Union[str, Path]) -> Dict[str, str]:
    """Retired kernels: ``{name: reason}`` from the ``TOMBSTONES`` file.

    Format: one kernel name per line, optionally followed by ``# reason``;
    blank lines and full-line comments are ignored.
    """
    path = Path(history_dir) / TOMBSTONES_FILENAME
    if not path.is_file():
        return {}
    tombstones: Dict[str, str] = {}
    for line in path.read_text().splitlines():
        body, _, comment = line.partition("#")
        name = body.strip()
        if name:
            tombstones[name] = comment.strip()
    return tombstones


def load_baselines(history_dir: Union[str, Path]) -> Dict[str, Dict[str, Any]]:
    """Pinned baselines from ``BASELINES.json`` (empty when absent)."""
    path = Path(history_dir) / BASELINES_FILENAME
    if not path.is_file():
        return {}
    entries = json.loads(path.read_text())
    if not isinstance(entries, dict):
        raise ValueError(f"{path}: expected a kernel -> record mapping")
    for kernel, record in entries.items():
        try:
            validate_record(record)
        except ValueError as error:
            raise ValueError(f"{path}: baseline for {kernel!r}: {error}") from error
    return entries


def write_baselines(
    history_dir: Union[str, Path],
    kernels: Optional[Sequence[str]] = None,
) -> Path:
    """Pin each kernel's latest record as its baseline (``BASELINES.json``).

    This is the "accept an intentional perf change" workflow: rerun the
    bench, append the new records, then pin them so the gate measures the
    next change against the new level instead of the old median.
    """
    names = list(kernels) if kernels is not None else history_kernels(history_dir)
    existing = load_baselines(history_dir)
    for kernel in names:
        records = load_history(history_dir, kernel)
        if records:
            existing[kernel] = records[-1]
    path = Path(history_dir) / BASELINES_FILENAME
    path.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")
    return path
