"""Conventional (non-robust) baseline algorithms executed on the noisy FPU.

The paper compares each robust application against a state-of-the-art
deterministic implementation running on the same error-prone hardware (STL
sort, OpenCV bipartite matching, SVD/QR/Cholesky least squares, a direct-form
IIR routine).  The modules here are from-scratch Python equivalents whose
floating-point work is routed through :class:`repro.faults.fpu.StochasticFPU`,
so they fail in exactly the way the paper's baselines fail: corrupted
comparisons mis-order sorts, corrupted reductions derail the Hungarian
algorithm, corrupted recursions accumulate error in IIR outputs.

(The least-squares decomposition baselines live in :mod:`repro.linalg`.)
"""
