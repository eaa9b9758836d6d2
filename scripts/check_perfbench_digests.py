#!/usr/bin/env python
"""Pin the values the repository benchmark's workloads produce.

Builds each ``perfbench`` workload at seeds 3 and 7 and checks that its
first timed run (vectorized executor, sharded campaign) and its serial-engine
reference give the same value digest, and that both equal the digests pinned
below.  ``perfbench/test_ledger.py`` only compares a run with its own serial
reference, so a change that moves the serial and the vectorized values in
step passes it; this check catches that.

Run from the repository root (``perfbench/bootstrap.py`` puts ``src/`` on
the path and selects the numpy backend)::

    python3 scripts/check_perfbench_digests.py

Exit codes: 0 when every digest matches, 1 otherwise.  About 12 s per seed
on a 2-CPU x86_64 host.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import bootstrap  # noqa: E402

bootstrap.prepare()

import workloads  # noqa: E402

#: Seed -> workload -> first 16 hex digits of the value digest.
PINNED = {
    3: {
        "batched-sgd-sweep": "2d7c0079e3983a4a",
        "scalar-baseline-sweep": "e4f641f64a84df97",
        "campaign-adaptive-search": "6545da4f263b8e04",
    },
    7: {
        "batched-sgd-sweep": "a6814b2ca0e9dedb",
        "scalar-baseline-sweep": "3008016cec41779e",
        "campaign-adaptive-search": "0cc521d2910e6dcc",
    },
}


def check(seed: int, name: str, scratch: Path) -> bool:
    """Whether workload ``name`` at ``seed`` gives its pinned digest twice."""
    workload = workloads.make(name, seed, scratch)
    workload.setup()
    outcome = workload.run(0)
    run, reference = outcome.digest[:16], workload.reference()[:16]
    ok = outcome.checks == [] and run == reference == PINNED[seed][name]
    print(
        f"seed {seed} {name}: run {run} reference {reference} "
        f"pinned {PINNED[seed][name]} checks {outcome.checks} "
        f"{'ok' if ok else 'MISMATCH'}",
        flush=True,
    )
    return ok


def main() -> int:
    results = []
    for seed, pinned in PINNED.items():
        for name in pinned:
            with tempfile.TemporaryDirectory() as scratch:
                results.append(check(seed, name, Path(scratch)))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
