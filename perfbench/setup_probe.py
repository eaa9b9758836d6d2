"""One fresh process for ``setup_s``: set a workload up, say ``ready``, exit.

``run.py`` times this process from launch until the ``ready`` line, which
covers interpreter start, imports, backend resolution and the workload's
first ``KernelSpec.sweep_functions`` build (a memo miss).  The line also
carries the seconds spent in host-speed probes and the speed they measured
(see ``hostspeed.py``): ``ready <probe seconds> <scale>``.
"""

from __future__ import annotations

import argparse

import bootstrap


def main() -> None:
    root = bootstrap.prepare()
    import hostspeed

    with hostspeed.Sampler() as speed:
        import workloads

        parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
        parser.add_argument("--workload", required=True, choices=workloads.names())
        parser.add_argument("--seed", type=int, required=True)
        args = parser.parse_args()
        workloads.make(args.workload, args.seed, root / ".perfbench-out").setup()
    print(f"ready {speed.spent!r} {speed.scale!r}", flush=True)


if __name__ == "__main__":
    main()
