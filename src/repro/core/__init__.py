"""The robustification methodology (the paper's primary contribution).

* :mod:`repro.core.transform` — mechanical conversion of a constrained
  variational form into its unconstrained exact-penalty form and the shared
  "penalized linear program" solve pipeline with the §6.2 enhancements
  (preconditioning, momentum, step-size scaling, annealing).
* :mod:`repro.core.variants` — the named solver variants that appear in the
  figures ("SGD", "SGD+AS,LS", "SGD+AS,SQS", "PRECOND", "ANNEAL", "ALL", ...).

The robust applications built on it live in :mod:`repro.applications`
(``robust_sort``, ``robust_least_squares_cg``, ...), each next to its
conventional baseline; :mod:`repro.metrics.quality` scores their outputs.
"""
