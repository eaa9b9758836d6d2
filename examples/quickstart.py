"""Quickstart: run robust applications and their baselines on a faulty processor.

Run:  python examples/quickstart.py
"""

import numpy as np

import repro
from repro.applications.least_squares import robust_least_squares_cg
from repro.applications.sorting import baseline_sort, default_sorting_config, robust_sort
from repro.workloads.generators import random_least_squares


def main() -> None:
    # A stochastic processor whose FPU corrupts 5 % of floating-point results
    # (one random mantissa/sign bit per faulty result, Figure 5.1 model).
    proc = repro.StochasticProcessor(fault_rate=0.05, rng=0)

    # --- Sorting, the paper's fragile example (Section 4.3) -----------------
    values = np.array([7.3, 0.6, 4.8, 2.2, 9.1])
    config = default_sorting_config(iterations=3000, values=values)
    result = robust_sort(values, proc, config)
    print("robust sort   :", np.round(result.output, 3), "success =", result.success)

    baseline = baseline_sort(values, proc.spawn())
    print("baseline sort :", np.round(baseline.output, 3), "success =", baseline.success)

    # --- Least squares with conjugate gradient (Sections 4.1, 6.3) ----------
    A, b, _ = random_least_squares(100, 10, rng=1)
    lsq = robust_least_squares_cg(A, b, proc.spawn())
    print(f"CG least squares: relative error = {lsq.relative_error:.2e} "
          f"({lsq.flops} FLOPs, {lsq.faults_injected} faults injected)")

    # Energy accounting: how much would this run cost at the overscaled voltage?
    print(f"processor voltage = {proc.voltage:.2f} V, "
          f"energy so far = {proc.energy():.0f} nominal-FLOP units")


if __name__ == "__main__":
    main()
