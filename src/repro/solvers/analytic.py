"""Closed-form solver for QuickSel's penalised quadratic program.

Problem 3 of the paper replaces the equality constraints ``A w = s`` of
Theorem 1 by a quadratic penalty and drops the positivity constraint:

``min_w  wᵀ Q w + λ ‖A w − s‖²``

Setting the gradient to zero gives the normal equations

``(Q + λ AᵀA) w = λ Aᵀ s``

whose solution is a single dense solve -- this is the source of QuickSel's
constant, milliseconds-scale refinement cost and the subject of Figure 6.
The incremental trainer's refactorisations run the same routine,
:func:`~repro.solvers.linalg.factorize_normal_matrix`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import SolverError
from repro.solvers.linalg import (
    cholesky_solve,
    factorize_normal_matrix,
    regularized_solve,
    symmetrize,
)

__all__ = ["AnalyticSolution", "solve_penalized_qp"]


@dataclass(frozen=True)
class AnalyticSolution:
    """Result of the analytic solve.

    Attributes:
        weights: the unconstrained minimiser ``w*``.
        constraint_residual: ``max_i |(A w* − s)_i|`` — how far the model
            is from exactly reproducing the observed selectivities.
        objective: value of the penalised objective at ``w*``.
    """

    weights: np.ndarray
    constraint_residual: float
    objective: float


def solve_penalized_qp(
    Q: np.ndarray,
    A: np.ndarray,
    s: np.ndarray,
    penalty: float = 1.0e6,
    ridge: float = 1.0e-9,
) -> AnalyticSolution:
    """Solve ``min_w wᵀQw + λ‖Aw − s‖²`` in closed form.

    Args:
        Q: ``(m, m)`` overlap matrix of Theorem 1.
        A: ``(n, m)`` constraint matrix of Theorem 1.
        s: length-``n`` vector of observed selectivities.
        penalty: λ of Problem 3 (paper default ``1e6``).
        ridge: small diagonal regulariser for numerical stability; scaled
            by the penalty so its relative size is independent of λ.

    Returns:
        An :class:`AnalyticSolution` with the optimal weights and
        diagnostics.
    """
    Q = symmetrize(np.asarray(Q, dtype=float))
    A = np.asarray(A, dtype=float)
    s = np.asarray(s, dtype=float)
    m = Q.shape[0]
    if A.ndim != 2 or A.shape[1] != m:
        raise SolverError(
            f"A must have shape (n, {m}); got {A.shape}"
        )
    if s.shape != (A.shape[0],):
        raise SolverError(
            f"s must have length {A.shape[0]}; got shape {s.shape}"
        )
    if penalty <= 0:
        raise SolverError("penalty must be positive")

    rhs = penalty * (A.T @ s)
    ridge = ridge * max(penalty, 1.0)
    try:
        factor = factorize_normal_matrix(Q, A, penalty, ridge)
        weights = cholesky_solve(factor, rhs)
    except SolverError:
        weights = regularized_solve(Q + penalty * (A.T @ A), rhs, ridge=ridge)

    residual_vector = A @ weights - s
    residual = float(np.abs(residual_vector).max()) if residual_vector.size else 0.0
    objective = float(
        weights @ Q @ weights + penalty * float(residual_vector @ residual_vector)
    )
    return AnalyticSolution(
        weights=weights, constraint_residual=residual, objective=objective
    )
