"""Noisy linear-algebra substrate.

The paper's baselines ("least squares was implemented using SVD, QR, or
Cholesky decompositions") run on the error-prone FPU of the Leon3 core and
are "disastrously unstable under numerical noise".  To reproduce that role we
implement the decompositions from scratch on top of the stochastic processor:
every floating-point operation they perform may be corrupted.

The same noisy primitives (:mod:`repro.linalg.ops`) are used by the robust
solvers to evaluate gradients, matching the paper's setting where the gradient
computation is the noisy part and the control phase is reliable.
"""
