"""QR preconditioning of linear programs (§6.2.1).

For the penalty form ``min cᵀx + μ·penalty(Ax - b)`` the conditioning of the
constraint matrix ``A`` controls how fast gradient descent converges.  The
paper preconditions by taking a QR decomposition ``A = QR`` and changing
variables to ``y = Rx``: the penalty becomes ``penalty(Qy - b)`` (now with an
orthogonal matrix, condition number one) and the cost vector ``c_new`` is
obtained from ``Rᵀ c_new = c``.  After the solve, ``x`` is recovered from
``Rx = y``.

Constructing the preconditioner (one QR factorization and one triangular
solve) is part of the program transformation, not of the noisy runtime; it is
performed with reliable arithmetic, consistent with the paper's assumption
that the transformation itself is produced offline.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import ProblemSpecificationError
from repro.optimizers.problem import LinearConstraints, LinearProgram

__all__ = ["QRPreconditioner"]


class QRPreconditioner:
    """Change of variables ``y = Rx`` that orthogonalizes the constraint matrix.

    Usage::

        precond = QRPreconditioner()
        preconditioned_lp = precond.fit(lp)
        # ... solve preconditioned_lp for y ...
        x = precond.recover(y)
    """

    def __init__(self) -> None:
        self._R: Optional[np.ndarray] = None

    def fit(self, lp: LinearProgram) -> LinearProgram:
        """Build the preconditioned linear program in the ``y`` coordinates.

        The QR factorization is taken of the stacked constraint matrix
        (equalities above inequalities).  The matrix must have full column
        rank and at least as many rows as columns — true for every
        transformation in Chapter 4, whose constraint blocks always include a
        non-negativity identity block.
        """
        constraints = lp.constraints
        blocks = [m for m in (constraints.A_eq, constraints.A_ub) if m is not None]
        if not blocks:
            raise ProblemSpecificationError("cannot precondition an unconstrained LP")
        stacked = np.vstack(blocks)
        m, n = stacked.shape
        if m < n:
            raise ProblemSpecificationError(
                f"constraint matrix has shape {stacked.shape}; QR preconditioning "
                "requires at least as many constraint rows as variables"
            )
        # Reduced QR; R is n x n upper triangular.
        _, R = np.linalg.qr(stacked)
        if np.min(np.abs(np.diag(R))) < 1e-12 * np.max(np.abs(np.diag(R))):
            raise ProblemSpecificationError(
                "constraint matrix is (numerically) rank deficient; "
                "QR preconditioning is not applicable"
            )
        # SciPy is imported here, not at module level, so that only
        # preconditioned solves pay for its import time and memory.
        from scipy.linalg import solve_triangular

        self._R = R
        R_inv = solve_triangular(R, np.eye(n), lower=False)
        # New cost vector: Rᵀ c_new = c.
        c_new = solve_triangular(R.T, lp.c, lower=True)
        new_constraints = LinearConstraints(
            A_eq=None if constraints.A_eq is None else constraints.A_eq @ R_inv,
            b_eq=None if constraints.b_eq is None else constraints.b_eq.copy(),
            A_ub=None if constraints.A_ub is None else constraints.A_ub @ R_inv,
            b_ub=None if constraints.b_ub is None else constraints.b_ub.copy(),
        )
        initial_y = R @ lp.initial_point()
        return LinearProgram(
            c=c_new,
            constraints=new_constraints,
            name=f"{lp.name}+precond",
            initial_point=initial_y,
        )

    def recover(self, y: np.ndarray) -> np.ndarray:
        """Map a solution in the preconditioned coordinates back to ``x``.

        Solves ``R x = y`` with reliable arithmetic (control phase).
        """
        if self._R is None:
            raise ProblemSpecificationError("preconditioner has not been fitted")
        y_arr = np.asarray(y, dtype=np.float64).ravel()
        if y_arr.shape[0] != self._R.shape[0]:
            raise ProblemSpecificationError(
                f"solution has dimension {y_arr.shape[0]}, expected {self._R.shape[0]}"
            )
        from scipy.linalg import solve_triangular

        return solve_triangular(self._R, y_arr, lower=False)
