#!/usr/bin/env python
"""Same-host bench gate: judge a change's BENCH records against its parent's.

CI runs ``scripts/bench_all.py`` of the parent commit and of the change on
one runner, in alternating rounds, each run into its own directory, then:

    PYTHONPATH=src python scripts/check_bench_regression.py \\
        --base DIR [DIR ...] --change DIR [DIR ...]

Records are matched by file name (``BENCH_<kernel>[.<backend>].json``) and
each side is summarised by its median over the runs.  The gate exits 1 on:

* a **wall regression**: the change's median ``wall_seconds`` is above
  1.25 × the base median *and* every change run is slower than every base
  run, so one slow run on a shared host does not fail it;
* a **speedup regression**: the change's median ``speedup_vs_serial`` is
  below 0.85 × the base median *and* every change run is below every base
  run;
* a **bit-identity** failure: any change record with
  ``bit_identical_to_serial`` or ``bit_identical_to_numpy`` false;
* a **vanished** record: present in the base runs, missing from a change
  run.

A record found only in the change runs, or whose ``params`` differ between
the two sides, is printed as unjudged.  Exit 2: a directory without any
``BENCH_*.json``, or a record that cannot be read.  See
``docs/benchmarks.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

#: (field, direction, band): a field regresses when the change median passes
#: ``band`` × the base median in the worse direction (+1: higher is worse)
#: and every change run is worse than every base run.
RULES = (("wall_seconds", +1, 1.25), ("speedup_vs_serial", -1, 0.85))
IDENTITY_FIELDS = ("bit_identical_to_serial", "bit_identical_to_numpy")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    for side in ("base", "change"):
        parser.add_argument(f"--{side}", nargs="+", type=Path, required=True,
                            metavar="DIR", help=f"bench_all output, one directory "
                            f"per {side} run")
    return parser


def load_run(directory: Path) -> dict:
    """One run's records by name; ``ValueError`` when missing or unreadable."""
    paths = sorted(directory.glob("BENCH_*.json"))
    if not paths:
        raise ValueError(f"no BENCH_*.json records in {directory}")
    run = {}
    for path in paths:
        try:
            record = json.loads(path.read_text())
            valid = isinstance(record["params"], dict) and isinstance(
                record["wall_seconds"], (int, float))
        except (OSError, ValueError, KeyError, TypeError):
            valid = False
        if not valid:
            raise ValueError(f"unreadable record {path}")
        run[path.name[len("BENCH_"):-len(".json")]] = record
    return run


def compare(base: list, change: list) -> tuple:
    """The median comparison text of each rule, and the rules regressed."""
    parts, regressed = [], []
    for field, sign, band in RULES:
        old, new = [r.get(field) for r in base], [r.get(field) for r in change]
        if None in old + new:
            continue
        old_median, new_median = statistics.median(old), statistics.median(new)
        ratio = new_median / old_median if old_median else math.inf
        parts.append(f"{field} {old_median:.4g} -> {new_median:.4g} (x{ratio:.3f})")
        if sign * (ratio - band) > 0 and (
            min(sign * v for v in new) > max(sign * v for v in old)
        ):
            regressed.append(f"{field} median x{ratio:.3f}, past x{band}, "
                             f"every change run worse than every base run")
    return ", ".join(parts), regressed


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        base_runs = [load_run(path) for path in args.base]
        change_runs = [load_run(path) for path in args.change]
    except ValueError as error:
        print(f"[bench-gate] {error}", file=sys.stderr)
        return 2
    print(f"[bench-gate] {len(base_runs)} base run(s) against "
          f"{len(change_runs)} change run(s)")
    findings = []
    for name in sorted(set().union(*base_runs, *change_runs)):
        base = [run[name] for run in base_runs if name in run]
        change = [run[name] for run in change_runs if name in run]
        findings += [f"{name} [bit-identity]: {field} is false"
                     for record in change for field in IDENTITY_FIELDS
                     if record.get(field) is False]
        if base and len(change) < len(change_runs):
            findings.append(f"{name} [vanished]: missing from "
                            f"{len(change_runs) - len(change)} change run(s)")
        elif not base or any(r["params"] != base[0]["params"] for r in base + change):
            reason = "params differ" if base else "only in the change runs"
            print(f"  {name}: unjudged ({reason})")
        else:
            text, regressed = compare(base, change)
            print(f"  {name}: {text}")
            findings += [f"{name} [regression]: {why}" for why in regressed]
    for finding in findings:
        print(f"REGRESSION {finding}", file=sys.stderr)
    if findings:
        print(f"[bench-gate] FAILED: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("[bench-gate] clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
