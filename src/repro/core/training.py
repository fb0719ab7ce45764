"""Training of QuickSel's uniform mixture model (Section 4 of the paper).

The training pipeline is:

1. assemble the matrices of Theorem 1 from the observed queries and the
   subpopulation boxes::

       Q[i, j] = |G_i ∩ G_j| / (|G_i| · |G_j|)
       A[i, j] = |B_i ∩ G_j| / |G_j|

   (``B_i`` may be a union of boxes when the predicate contains
   disjunctions or negations; the intersection volume simply sums over
   its disjoint pieces), and

2. hand ``(Q, A, s)`` to one of the solvers: the analytic closed form of
   Problem 3 (default), the projected-gradient QP, or the SciPy
   constrained QP of Theorem 1.

The module is deliberately free of estimator state so that benchmarks can
time matrix construction and the solve independently.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.geometry import Hyperrectangle, stack_bounds
from repro.core.region import Region
from repro.core.subpopulation import Subpopulation
from repro.exceptions import TrainingError
from repro.kernels import intersection_volumes
from repro.solvers.analytic import solve_penalized_qp
from repro.solvers.projected_gradient import solve_projected_gradient
from repro.solvers.scipy_qp import solve_constrained_qp

__all__ = [
    "ObservedQuery",
    "TrainingProblem",
    "TrainingResult",
    "assemble_query_rows",
    "build_problem",
    "default_query_row",
    "solve",
    "validate_warm_start",
]


@dataclass(frozen=True)
class ObservedQuery:
    """One piece of query feedback: a predicate region and its true selectivity."""

    region: Region
    selectivity: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.selectivity <= 1.0):
            raise TrainingError(
                f"selectivity must be in [0, 1]; got {self.selectivity}"
            )


@dataclass(frozen=True)
class TrainingProblem:
    """The assembled quadratic program of Theorem 1.

    Attributes:
        Q: ``(m, m)`` subpopulation-overlap matrix.
        A: ``(n, m)`` predicate/subpopulation overlap-fraction matrix.
        s: length-``n`` observed selectivities.
    """

    Q: np.ndarray
    A: np.ndarray
    s: np.ndarray

    @property
    def query_count(self) -> int:
        """Number of observed queries ``n`` (rows of ``A``)."""
        return self.A.shape[0]

    @property
    def subpopulation_count(self) -> int:
        """Number of subpopulations ``m`` (columns of ``A``)."""
        return self.A.shape[1]


@dataclass(frozen=True)
class TrainingResult:
    """Weights plus solver diagnostics."""

    weights: np.ndarray
    solver: str
    constraint_residual: float
    iterations: int


def build_problem(
    subpopulations: Sequence[Subpopulation],
    queries: Sequence[ObservedQuery],
    domain: Hyperrectangle | None = None,
    include_default_query: bool = True,
) -> TrainingProblem:
    """Assemble the ``Q``, ``A`` and ``s`` of Theorem 1.

    Args:
        subpopulations: the mixture components ``G_1 … G_m``.
        queries: observed ``(B_i, s_i)`` pairs.
        domain: the data domain ``B_0``; required when
            ``include_default_query`` is True.
        include_default_query: prepend the implicit constraint
            ``∫_{B_0} f = 1`` so the model integrates to one.

    Returns:
        A :class:`TrainingProblem`.
    """
    if not subpopulations:
        raise TrainingError("at least one subpopulation is required")
    if include_default_query and domain is None:
        raise TrainingError("domain is required to include the default query")

    boxes = [sub.box for sub in subpopulations]
    volumes = np.array([sub.volume for sub in subpopulations])
    if (volumes <= 0).any():
        raise TrainingError("subpopulation boxes must have positive volume")

    # Stack the subpopulation bounds once; the Q matrix, the default-query
    # containment check, and every single-box A row reuse the same arrays.
    col_lower, col_upper = stack_bounds(boxes)
    overlap = intersection_volumes(
        col_lower, col_upper, col_lower, col_upper
    )
    Q = overlap / np.outer(volumes, volumes)

    row_count = (1 if include_default_query else 0) + len(queries)
    A = np.zeros((row_count, len(boxes)))
    s = np.zeros(row_count)
    offset = 0
    if include_default_query and domain is not None:
        A[0] = default_query_row(domain, col_lower, col_upper, volumes)
        s[0] = 1.0
        offset = 1
    A[offset:], s[offset:] = assemble_query_rows(
        queries, boxes, col_lower, col_upper, volumes
    )
    return TrainingProblem(Q=Q, A=A, s=s)


def assemble_query_rows(
    queries: Sequence[ObservedQuery],
    boxes: Sequence[Hyperrectangle],
    col_lower: np.ndarray,
    col_upper: np.ndarray,
    volumes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The ``(n, m)`` A rows and selectivities for observed queries.

    Fast path: most predicates are plain conjunctions, i.e. single-box
    regions, which can all be intersected against the subpopulations in
    one vectorised call.  Multi-box regions (disjunctions/negations) fall
    back to the per-region computation.

    Shared by :func:`build_problem` and the incremental trainer's
    delta-row assembly — one kernel, so a row is bitwise identical no
    matter which path (or batch size) computed it.
    """
    rows = np.zeros((len(queries), len(boxes)))
    selectivities = np.zeros(len(queries))
    single_rows: list[int] = []
    single_boxes = []
    for index, query in enumerate(queries):
        query_boxes = query.region.boxes
        selectivities[index] = query.selectivity
        if len(query_boxes) == 1:
            single_rows.append(index)
            single_boxes.append(query_boxes[0])
        else:
            rows[index] = query.region.intersection_volumes(boxes) / volumes
    if single_boxes:
        row_lower, row_upper = stack_bounds(single_boxes)
        overlaps = intersection_volumes(
            row_lower, row_upper, col_lower, col_upper
        )
        rows[np.array(single_rows)] = overlaps / volumes
    return rows, selectivities


def default_query_row(
    domain: Hyperrectangle,
    col_lower: np.ndarray,
    col_upper: np.ndarray,
    volumes: np.ndarray,
) -> np.ndarray:
    """The A row of the implicit default query ``(B_0, 1)``.

    Subpopulation boxes are clipped to the domain at construction, so in
    the common case ``|B_0 ∩ G_j| = |G_j|`` and the row is exactly ones —
    no cross-intersection needed.  The containment check keeps
    :func:`build_problem` correct for caller-supplied subpopulations that
    stick out of the domain (then the row is the usual overlap fraction).
    """
    contained = bool(
        (col_lower >= domain.lower).all() and (col_upper <= domain.upper).all()
    )
    if contained:
        return np.ones(volumes.shape[0])
    domain_lower, domain_upper = stack_bounds([domain])
    overlap = intersection_volumes(
        domain_lower, domain_upper, col_lower, col_upper
    )[0]
    return overlap / volumes


def validate_warm_start(
    warm_start: np.ndarray | None, subpopulation_count: int
) -> np.ndarray | None:
    """A warm-start vector usable for a ``subpopulation_count``-sized solve.

    Returns None — warm starts are best-effort, never errors — when the
    shape no longer matches (a centre rebuild changed ``m``) or the
    vector carries non-finite values (a pathological earlier solve must
    not poison every subsequent warm-started iteration).  Shared by
    :func:`solve` and the incremental trainer so both paths accept
    exactly the same warm starts.
    """
    if warm_start is None:
        return None
    warm_start = np.asarray(warm_start, dtype=float)
    if warm_start.shape != (subpopulation_count,):
        return None
    if not np.isfinite(warm_start).all():
        return None
    return warm_start


def solve(
    problem: TrainingProblem,
    solver: str = "analytic",
    penalty: float = 1.0e6,
    regularization: float = 1.0e-9,
    warm_start: np.ndarray | None = None,
) -> TrainingResult:
    """Solve a :class:`TrainingProblem` with the requested solver.

    ``analytic`` uses the closed form of Problem 3; ``projected_gradient``
    and ``scipy`` solve the same program iteratively (the latter honours
    the Theorem 1 constraints exactly).

    ``warm_start`` seeds the iterative solvers with a previous weight
    vector (the incremental refit path passes the last solution).  A warm
    start whose shape does not match the problem — e.g. recorded before a
    subpopulation rebuild changed ``m`` — is ignored gracefully, as is one
    handed to the closed-form solver.
    """
    warm_start = validate_warm_start(warm_start, problem.subpopulation_count)
    if solver == "analytic":
        result = solve_penalized_qp(
            problem.Q,
            problem.A,
            problem.s,
            penalty=penalty,
            ridge=regularization,
        )
        return TrainingResult(
            weights=result.weights,
            solver=solver,
            constraint_residual=result.constraint_residual,
            iterations=1,
        )
    if solver == "projected_gradient":
        pg = solve_projected_gradient(
            problem.Q, problem.A, problem.s, penalty=penalty, initial=warm_start
        )
        return TrainingResult(
            weights=pg.weights,
            solver=solver,
            constraint_residual=pg.constraint_residual,
            iterations=pg.iterations,
        )
    if solver == "scipy":
        sp = solve_constrained_qp(
            problem.Q, problem.A, problem.s, initial=warm_start
        )
        return TrainingResult(
            weights=sp.weights,
            solver=solver,
            constraint_residual=sp.constraint_residual,
            iterations=sp.iterations,
        )
    raise TrainingError(f"unknown solver {solver!r}")
