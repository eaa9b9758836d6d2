"""Voltage-overscaling energy trade-off for least squares (Figure 6.7).

For a range of supply voltages this example measures the accuracy the
CG-based robust solver and the Cholesky baseline actually achieve, and the
energy (power × FLOPs) each spends — showing why an error-tolerant solver can
run at a lower voltage and finish the job with less energy.

Run:  python examples/energy_tradeoff.py
"""


import repro
from repro.applications.least_squares import baseline_least_squares, robust_least_squares_cg
from repro.processor.energy import EnergyModel
from repro.processor.voltage import VoltageErrorModel
from repro.workloads.generators import random_least_squares


def main() -> None:
    A, b, _ = random_least_squares(100, 10, rng=11)
    voltage_model = VoltageErrorModel()
    energy_model = EnergyModel()

    print("voltage | error rate | CG error | CG energy | Cholesky error | Cholesky energy")
    print("-" * 86)
    for voltage in (1.0, 0.85, 0.75, 0.70, 0.65):
        error_rate = voltage_model.error_rate(voltage)

        proc = repro.StochasticProcessor(fault_rate=error_rate, rng=1)
        cg = robust_least_squares_cg(A, b, proc)
        cg_energy = energy_model.energy(cg.flops, voltage)

        proc = repro.StochasticProcessor(fault_rate=error_rate, rng=2)
        cholesky = baseline_least_squares(A, b, proc, method="cholesky")
        cholesky_energy = energy_model.energy(cholesky.flops, voltage)

        print(f"{voltage:7.2f} | {error_rate:10.2e} | {cg.relative_error:8.2e} "
              f"| {cg_energy:9.0f} | {cholesky.relative_error:14.2e} | {cholesky_energy:15.0f}")

    print("\nAs the voltage drops the Cholesky baseline's accuracy collapses, while the")
    print("CG solver keeps delivering usable answers at a fraction of the energy —")
    print("the Figure 6.7 trade-off.")


if __name__ == "__main__":
    main()
