"""Application transformations (Chapter 4) and their non-robust baselines.

Each module converts one application into its variational / penalty form and
solves it with the stochastic optimizers, and also exposes the conventional
deterministic baseline executed on the noisy FPU:

* :mod:`repro.applications.least_squares` — §4.1, Figures 6.2, 6.6, 6.7.
* :mod:`repro.applications.iir` — §4.2, Figure 6.3.
* :mod:`repro.applications.sorting` — §4.3, Figure 6.1.
* :mod:`repro.applications.matching` — §4.4, Figures 6.4, 6.5.
* :mod:`repro.applications.maxflow` — §4.5 (described, not evaluated, in the
  paper; implemented here as an extension experiment).
* :mod:`repro.applications.shortest_path` — §4.6 (likewise an extension).
* :mod:`repro.applications.eigen`, :mod:`repro.applications.svm` — the "other
  numerical problems" of §4.7.
"""
