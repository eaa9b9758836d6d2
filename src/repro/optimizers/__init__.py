"""Stochastic optimization engines (Chapter 3 of the paper).

This subpackage is the computational back-end of application robustification:

* :mod:`repro.optimizers.problem` — unconstrained and linearly constrained
  problem descriptions (the variational forms of Chapter 4).
* :mod:`repro.optimizers.penalty` — the exact-penalty transformation of
  Theorem 2 that converts constrained problems to unconstrained ones.
* :mod:`repro.optimizers.step_schedules` — 1/t, 1/√t, and constant step-size
  schedules plus the aggressive-stepping controller (§3.2).
* :mod:`repro.optimizers.sgd` — stochastic (sub)gradient descent with
  momentum, preconditioning hooks, annealing, and aggressive stepping.
* :mod:`repro.optimizers.conjugate_gradient` — the restarted conjugate
  gradient solver used for least squares (§3.3, Figures 6.6/6.7).
* :mod:`repro.optimizers.preconditioning` — QR-based preconditioning (§6.2.1).
* :mod:`repro.optimizers.annealing` — penalty-parameter annealing (§6.2.4).
"""
