"""Repository benchmark: closed-loop Monte-Carlo sweep workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload batched-sgd-sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: set-up time
(median over fresh processes), median wall time per run, trials per second
and peak resident memory.  Times are rescaled to a reference host speed
measured while they run (see ``hostspeed.py``).
``--trace 1`` measures untraced runs for half of
``--seconds`` and traced runs for the other half, and reports the per-layer
metrics.  Every run's values are checked against the serial engine's values
for the same seed.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See ``README.md`` here.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Tuple

import bootstrap

#: Fresh processes timed per invocation for ``setup_s``.
SETUP_SAMPLES = 5

#: Seconds a set-up process may take before it counts as hung.
SETUP_TIMEOUT = 60

#: Spans listed by name in the traced report.
REPORTED_SPANS = 14


def benchmark_spec() -> dict:
    """``BENCHMARK.json``: the workloads, metric names and units reported."""
    return json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def host_facts() -> dict:
    """What a record needs so results from different hosts are never mixed."""
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "loadavg_start": list(os.getloadavg()),
    }


def setup_seconds(root: Path, workload: str, seed: int) -> Tuple[float, float]:
    """Seconds from launching a fresh interpreter until its first trial can run.

    Returns those seconds less the time the process spent in host-speed
    probes, and the reference seconds per measured second the probes gave.
    """
    command = [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
               "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(command, cwd=root, env=bootstrap.environment(),
                          stdout=subprocess.PIPE, text=True) as probe:
        try:
            readable, _, _ = select.select([probe.stdout], [], [], SETUP_TIMEOUT)
            line = probe.stdout.readline() if readable else ""
            elapsed = time.perf_counter() - start
            probe.wait(timeout=SETUP_TIMEOUT)
        except subprocess.TimeoutExpired:
            line = ""
        finally:
            if probe.poll() is None:
                probe.kill()
                probe.wait()
    fields = line.split()
    if len(fields) != 3 or fields[0] != "ready" or probe.returncode != 0:
        raise RuntimeError(f"set-up process failed or hung (exit {probe.returncode})")
    return elapsed - float(fields[1]), float(fields[2])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def by_layer(self_times: dict) -> dict:
    """Self seconds per layer: a span's layer is its name without the last part."""
    layers: dict = {}
    for name, entry in self_times.items():
        layer = name.rsplit(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + entry["self_s"]
    return layers


def print_self_times(self_times: dict) -> None:
    total = sum(entry["self_s"] for entry in self_times.values()) or 1.0
    print("self time per traced run (s), by layer:")
    for layer, seconds in sorted(by_layer(self_times).items(), key=lambda item: -item[1]):
        print(f"  {layer:<28} self {seconds:9.4f}  {100 * seconds / total:5.1f}%")
    print("by span:")
    ranked = sorted(self_times.items(), key=lambda item: -item[1]["self_s"])
    for name, entry in ranked[:REPORTED_SPANS]:
        print(f"  {name:<28} self {entry['self_s']:9.4f}  {100 * entry['self_s'] / total:5.1f}%"
              f"  total {entry['total_s']:9.4f}  calls {entry['calls']:9.1f}")


def main(argv=None) -> int:
    root = bootstrap.prepare()
    host = host_facts()

    import numpy
    import harness
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.names())
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    host.update(numpy=numpy.__version__, backend="numpy")

    spec = benchmark_spec()
    why = {entry["name"]: entry["why"] for entry in spec["workloads"]}
    out_dir = root / ".perfbench-out"
    scratch = out_dir / f"work-{os.getpid()}"
    workload = workloads.make(args.workload, args.seed, scratch)
    print(f"host {json.dumps(host, sort_keys=True)}")
    print(f"workload {workload.name} (seed {args.seed}): {why[workload.name]}")
    print("closed loop: 1 caller, next run starts when the previous one ends")
    try:
        setups = [
            setup_seconds(root, workload.name, args.seed)
            for _ in range(0 if args.trace else SETUP_SAMPLES)
        ]
        workload.setup()
        loop_seconds = args.seconds / 2 if args.trace else args.seconds
        untraced = harness.closed_loop(workload, loop_seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced = None
        records = untraced
        if args.trace:
            traced = harness.traced_runs(workload, args.seconds / 2, first_index=len(untraced))
            records = untraced + traced.records
        reference = workload.reference()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = sum(1 for record in records if record.failed(reference))
    for record in records:
        if record.error:
            print(f"run {record.index} raised:\n{record.error}", file=sys.stderr)
        elif record.failed(reference):
            print(f"run {record.index} incorrect: {record.outcome.checks or 'digest differs'}",
                  file=sys.stderr)
    correct = failed == 0
    wall = harness.median_wall(untraced)

    if traced is None:
        values = {
            "setup_s": statistics.median(seconds * scale for seconds, scale in setups),
            "wall_s": wall,
            "trials_per_s": harness.trials_per_second(untraced),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {
            entry["name"]: metric(values[entry["name"]], entry["unit"])
            for entry in spec["end_to_end"]
        }
        measured_setup = statistics.median(seconds for seconds, _ in setups)
        measured_wall = statistics.median(record.seconds for record in untraced)
        speed = statistics.median(record.scale for record in untraced)
        print(f"host speed    probes took {1 / speed:.3f} x their reference time "
              f"(median of runs)")
        print(f"setup_s       {values['setup_s']:.4f} s     median of {len(setups)} fresh "
              f"processes (measured {measured_setup:.4f} s)")
        print(f"wall_s        {wall:.4f} s     median of {len(untraced)} runs "
              f"(measured {measured_wall:.4f} s)")
        print(f"trials_per_s  {values['trials_per_s']:.3f} 1/s")
        print(f"peak_rss_mb   {peak_rss_mb:.1f} MB")
    else:
        mismatched = traced.ledger_mismatches()
        if mismatched:
            correct = False
            print(f"exact counts differ between traced runs {mismatched}", file=sys.stderr)
        layers = traced.layer_metrics(wall)
        metrics = {
            entry["name"]: metric(layers[entry["name"]], entry["unit"])
            for entry in spec["per_layer"]
        }
        print_self_times(traced.self_times)
        print(f"ledger {json.dumps(traced.ledger(), sort_keys=True)}")
        for name, entry in metrics.items():
            print(f"  {name:<36} {entry['value']:.6g} {entry['unit']}")
        write_trace(out_dir, workload, args.seed, host, traced, layers)
    print(f"failed_frac   {failed / len(records):.4f}       {failed} of {len(records)} runs "
          f"differ from the serial reference or raised")
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def write_trace(out_dir: Path, workload, seed: int, host: dict, traced, layers: dict) -> None:
    """Write spans and the derived report as JSON lines: a header, then spans."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"trace-{workload.name}-seed{seed}.jsonl"
    header = {
        "workload": workload.name,
        "seed": seed,
        "host": host,
        "ledger": traced.ledger(),
        "layers": layers,
        "self_times": traced.self_times,
    }
    with path.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        for span in traced.spans:
            handle.write(json.dumps(span) + "\n")
    print(f"trace written to {path.relative_to(bootstrap.ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
