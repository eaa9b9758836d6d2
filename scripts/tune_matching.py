"""Offline tuning sweep for the matching solver defaults (not shipped API).

Run: python scripts/tune_matching.py
"""
import itertools
import time


import repro
from repro.applications.matching import (
    matching_linear_program,
    matching_margin,
    optimal_matching,
    round_to_matching,
)
from repro.optimizers.annealing import PenaltyAnnealing
from repro.optimizers.penalty import PenaltyKind
from repro.optimizers.step_schedules import AggressiveStepping
from repro.workloads.generators import random_bipartite_graph


def main():
    for seed in (7, 11, 23, 42, 57):
        g = random_bipartite_graph(5, 6, 30, rng=seed)
        print("seed", seed, "margin", round(matching_margin(g), 4))

    seed = 42
    g = random_bipartite_graph(5, 6, 30, rng=seed)
    print("using seed", seed, "margin", round(matching_margin(g), 4))
    opt_edges, _ = optimal_matching(g)
    lp = matching_linear_program(g)
    maxw = max(g.weights)

    def trial(fr, rng_seed, step, momentum, iters, use_as, use_anneal, variant_schedule="sqs"):
        proc = repro.StochasticProcessor(fault_rate=fr, rng=rng_seed)
        from repro.optimizers.sgd import SGDOptions, stochastic_gradient_descent
        from repro.optimizers.penalty import ExactPenaltyProblem

        annealing = (
            PenaltyAnnealing(
                initial_penalty=maxw / 4.0,
                growth_factor=2.0,
                period=max(iters // 8, 1),
                max_penalty=2.0 * maxw,
            )
            if use_anneal
            else None
        )
        options = SGDOptions(
            iterations=iters,
            schedule=variant_schedule,
            base_step=step,
            momentum=momentum,
            aggressive=AggressiveStepping(max_iterations=400, fail_factor=0.7) if use_as else None,
            annealing=annealing,
        )
        penalized = ExactPenaltyProblem(lp, penalty=2.0 * maxw, kind=PenaltyKind.L1)
        result = stochastic_gradient_descent(penalized, proc, options=options)
        return round_to_matching(g, result.x) == opt_edges

    grid = list(
        itertools.product([0.02, 0.05], [None, 0.5], [6000, 10000], [False, True], [False, True])
    )
    print("step momentum iters AS anneal | ff fr0.2 fr0.5 (of 4)")
    for step, momentum, iters, use_as, use_anneal in grid:
        t0 = time.time()
        ff = trial(0.0, 0, step, momentum, iters, use_as, use_anneal)
        n2 = sum(trial(0.2, 100 + k, step, momentum, iters, use_as, use_anneal) for k in range(4))
        n5 = sum(trial(0.5, 200 + k, step, momentum, iters, use_as, use_anneal) for k in range(4))
        print(
            f"{step:5.2f} {str(momentum):5s} {iters:6d} {int(use_as)}  {int(use_anneal)}"
            f"     |  {int(ff)}   {n2}/4   {n5}/4   ({time.time() - t0:.0f}s)"
        )


if __name__ == "__main__":
    main()
