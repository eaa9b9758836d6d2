#!/usr/bin/env python
"""CI gate over the perf-trajectory histories (benchmarks/history/*.jsonl).

Compares the **latest** record of each kernel's history, once per compute
backend, against a robust baseline — a pinned entry from ``BASELINES.json``
when one is compatible, otherwise the median of the last N
params/machine-compatible prior records — and exits nonzero when:

* wall time regressed beyond the noise band (default +25 %),
* vectorized-vs-serial speedup regressed beyond its band (default −15 %),
* the latest record flipped ``bit_identical`` to ``false``, or
* a history's kernel vanished from the registry without a tombstone in
  ``benchmarks/history/TOMBSTONES``.

Records with no compatible baseline (first run at a new scale or on a new
machine) extend the history without being judged.  The **compute backend**
is part of the compatibility key alongside the benchmark parameters:
records produced under different backends (``numpy`` vs ``cnative``) are
never compared, even with ``--ignore-machine``, and
pre-backend records count as ``numpy`` (see ``docs/backends.md``).  Run
from the repository root:

    PYTHONPATH=src python scripts/check_bench_regression.py [--explain]
        [--kernel NAME ...] [--history-dir DIR] [--window N]
        [--wall-band FRACTION] [--speedup-band FRACTION]
        [--ignore-machine] [--no-registry-check] [--write-baseline]

``--write-baseline`` pins each kernel's latest record as its baseline (the
"accept an intentional perf change" workflow) instead of gating.
``--explain`` prints the latest-vs-baseline comparison for every kernel even
when the gate is green.  Exit codes: 0 clean, 1 regression findings, 2 bad
invocation or unreadable history.  See ``docs/benchmarks.md``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.experiments import benchhistory

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_HISTORY_DIR = REPO_ROOT / "benchmarks" / "history"

#: Pseudo-kernels benchmarked by scripts/bench_all.py outside the registry —
#: one source of truth, shared with bench_all.py's --only handling.
EXTRA_KERNELS = benchhistory.PSEUDO_KERNELS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--history-dir", type=Path, default=DEFAULT_HISTORY_DIR,
                        help="history directory (default: benchmarks/history)")
    parser.add_argument("--kernel", action="append", default=None, metavar="NAME",
                        help="gate only this kernel (repeatable; default: every "
                        "history file)")
    parser.add_argument("--window", type=int, default=5,
                        help="rolling-median baseline window (default: 5)")
    parser.add_argument("--wall-band", type=float, default=0.25,
                        help="tolerated fractional wall-time increase "
                        "(default: 0.25)")
    parser.add_argument("--speedup-band", type=float, default=0.15,
                        help="tolerated fractional speedup loss (default: 0.15)")
    parser.add_argument("--ignore-machine", action="store_true",
                        help="compare records across machine fingerprints")
    parser.add_argument("--no-registry-check", action="store_true",
                        help="skip the vanished-kernel check (scratch dirs)")
    parser.add_argument("--explain", action="store_true",
                        help="print latest-vs-baseline detail for every kernel")
    parser.add_argument("--write-baseline", action="store_true",
                        help="pin each kernel's latest record as its baseline "
                        "and exit (no gating)")
    return parser


def explain_line(entry: dict) -> str:
    if entry.get("tombstoned"):
        return f"  {entry['kernel']}: tombstoned, skipped"
    latest = entry["latest"]
    parts = [f"wall {latest['wall_seconds']:.4f}s"]
    if latest.get("speedup_vs_serial") is not None:
        parts.append(f"speedup x{latest['speedup_vs_serial']:.2f}")
    if latest.get("bit_identical") is not None:
        parts.append(f"bit-identical {latest['bit_identical']}")
    if not entry.get("judged"):
        parts.append(
            f"UNJUDGED (no compatible baseline among "
            f"{entry.get('compatible_prior_records', 0)} prior records)"
        )
    else:
        baseline = entry["baseline"]
        parts.append(
            f"baseline[{entry['baseline_source']}] wall "
            f"{baseline['wall_seconds']:.4f}s (limit {entry['wall_limit']:.4f}s)"
        )
        if entry.get("speedup_floor") is not None:
            parts.append(f"speedup floor x{entry['speedup_floor']:.2f}")
    return f"  {entry['kernel']} [{latest['backend']}]: " + ", ".join(parts)


def registry_names() -> list:
    from repro.experiments import kernels

    return kernels.kernel_names() + list(EXTRA_KERNELS)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not args.history_dir.is_dir():
        print(f"[bench-gate] no history directory at {args.history_dir}",
              file=sys.stderr)
        return 2

    if args.write_baseline:
        path = benchhistory.write_baselines(args.history_dir, args.kernel)
        print(f"[bench-gate] pinned latest records as baselines -> {path}")
        return 0

    policy = benchhistory.RegressionPolicy(
        wall_band=args.wall_band,
        speedup_band=args.speedup_band,
        window=args.window,
        match_machine=not args.ignore_machine,
    )
    registry = None if args.no_registry_check else registry_names()
    try:
        findings, explanations = benchhistory.check_histories(
            args.history_dir, registry, policy, kernels=args.kernel,
        )
    except (OSError, ValueError) as error:
        print(f"[bench-gate] unreadable history: {error}", file=sys.stderr)
        return 2

    judged = sum(1 for entry in explanations if entry.get("judged"))
    print(
        f"[bench-gate] {len(explanations)} kernel/backend groups, {judged} judged against a "
        f"baseline (wall band +{policy.wall_band:.0%}, speedup band "
        f"-{policy.speedup_band:.0%}, window {policy.window})"
    )
    if args.explain:
        for entry in explanations:
            print(explain_line(entry))
    if findings:
        for finding in findings:
            print(str(finding), file=sys.stderr)
        print(f"[bench-gate] FAILED: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("[bench-gate] clean: no perf-trajectory regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
