"""Small linear-algebra helpers shared by the QP solvers.

Every analytic solve factorises the normal matrix ``G = Q + λAᵀA`` in
one in-place BLAS/LAPACK pass (:func:`factorize_normal_matrix`).  This
module also owns the factor cache behind the incremental training
pipeline: :class:`CachedCholesky` keeps that factor alive between
refits and absorbs newly observed constraint rows with a rank-k update
(:func:`cholesky_update`) — and, for streaming-window training, folds
*expired* rows back out with a rank-k downdate
(:func:`cholesky_downdate`) — instead of refactorising, falling back to
a full refactorisation when the combined sweep would be slower than a
fresh factorisation, when the factor's condition estimate degrades, or
when a downdate loses positive definiteness numerically.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg as scipy_linalg
from scipy.linalg import blas as scipy_blas
from scipy.linalg import lapack as scipy_lapack

from repro.exceptions import SolverError

__all__ = [
    "symmetrize",
    "regularized_solve",
    "factorize_normal_matrix",
    "cholesky_solve",
    "project_to_simplex_nonneg",
    "cholesky_update",
    "cholesky_downdate",
    "CachedCholesky",
]


def symmetrize(matrix: np.ndarray) -> np.ndarray:
    """Return the symmetric part of a square matrix.

    The ``Q`` and ``AᵀA`` matrices are symmetric in exact arithmetic;
    symmetrising removes the tiny asymmetries floating point introduces so
    Cholesky-based solvers stay happy.
    """
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise SolverError(f"expected a square matrix; got shape {arr.shape}")
    return 0.5 * (arr + arr.T)


def regularized_solve(
    matrix: np.ndarray, rhs: np.ndarray, ridge: float = 0.0
) -> np.ndarray:
    """Solve ``(matrix + ridge * I) x = rhs`` robustly.

    The fallback ladder for a normal matrix :func:`factorize_normal_matrix`
    rejected: a Cholesky-backed solve of the symmetrised matrix first,
    then a generic LU solve, and finally least squares when the matrix is
    numerically singular, which can happen when subpopulations coincide
    exactly.
    """
    vec = np.asarray(rhs, dtype=float)
    mat = symmetrize(matrix)
    if ridge < 0:
        raise SolverError("ridge must be non-negative")
    if ridge > 0:
        mat = mat + ridge * np.eye(mat.shape[0])
    if vec.shape[0] != mat.shape[0]:
        raise SolverError(
            f"rhs length {vec.shape[0]} does not match matrix size {mat.shape[0]}"
        )
    try:
        factor = scipy_linalg.cho_factor(mat, lower=True)
        return scipy_linalg.cho_solve(factor, vec)
    except (np.linalg.LinAlgError, scipy_linalg.LinAlgError, ValueError):
        pass
    try:
        return np.linalg.solve(mat, vec)
    except np.linalg.LinAlgError:
        solution, *_ = np.linalg.lstsq(mat, vec, rcond=None)
        return solution


def factorize_normal_matrix(
    base: np.ndarray,
    rows: np.ndarray | None = None,
    scale: float = 1.0,
    ridge: float = 0.0,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Lower Cholesky factor ``L`` of ``base + scale·rowsᵀrows + ridge·I``.

    One pass of BLAS/LAPACK over a Fortran-order ``(m, m)`` buffer:
    ``base`` is copied in, ``dsyrk`` adds ``scale·rowsᵀrows`` to its
    lower triangle, the ridge lands on the diagonal and ``dpotrf``
    overwrites that triangle with the factor ``L``.  ``base`` must be
    symmetric (callers pass a symmetrised ``Q``); the buffer's upper
    triangle keeps ``base``'s entries, which nothing reads.  ``out`` (a
    float64 buffer from an earlier call) is reused when it is a
    Fortran-order ``(m, m)`` array; the buffer holding ``L`` is returned.

    Raises :class:`SolverError` when the matrix is not numerically
    positive definite or has a non-finite entry in its lower triangle.
    The finiteness check reads only the ``m`` pivots: a non-finite entry
    in row ``i`` is pivot ``i`` or makes an entry of ``L[i, :i]``
    non-finite, whose square feeds pivot ``i``, so it ends as a NaN/inf
    pivot or a ``dpotrf`` failure.  The buffer's contents are undefined
    after a raise.
    """
    base = np.asarray(base, dtype=float)
    m = base.shape[0]
    if base.ndim != 2 or base.shape[1] != m:
        raise SolverError(f"expected a square matrix; got shape {base.shape}")
    if ridge < 0:
        raise SolverError("ridge must be non-negative")
    if out is None or out.shape != (m, m) or not out.flags.f_contiguous:
        out = np.empty((m, m), order="F")
    # base is symmetric, so copying its transpose is the same values; for
    # a C-ordered base that copy into a Fortran buffer is contiguous.
    np.copyto(out, base.T)
    if rows is not None and len(rows):
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != m:
            raise SolverError(f"rows must have {m} columns; got {rows.shape}")
        # rows.T is (m, n) Fortran order for C-ordered rows (no copy);
        # dsyrk's default trans=0 form adds scale·rowsᵀrows to the buffer.
        scipy_blas.dsyrk(scale, rows.T, 1.0, out, lower=1, overwrite_c=1)
    if ridge > 0:
        out.ravel(order="K")[:: m + 1] += ridge
    _, info = scipy_lapack.dpotrf(out, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        raise SolverError(f"normal matrix is not positive definite ({info=})")
    if not np.isfinite(np.diagonal(out)).all():
        raise SolverError("normal matrix has non-finite entries")
    return out


def cholesky_solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``L Lᵀ x = rhs`` for a lower factor ``L`` (LAPACK dpotrs)."""
    return scipy_lapack.dpotrs(factor, rhs, lower=1)[0]


def project_to_simplex_nonneg(weights: np.ndarray) -> np.ndarray:
    """Clip to the non-negative orthant and rescale the total mass to 1.

    Not a true Euclidean simplex projection -- it matches what the paper's
    pragmatic treatment needs: negative weights are artefacts of dropping
    the positivity constraint and should simply be removed.
    """
    clipped = np.clip(np.asarray(weights, dtype=float), 0.0, None)
    total = clipped.sum()
    if total <= 0:
        raise SolverError("cannot renormalise a weight vector with no positive mass")
    return clipped / total


def cholesky_update(factor: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Rank-k update of a lower Cholesky factor: ``L'L'ᵀ = LLᵀ + rowsᵀrows``.

    ``rows`` is a ``(k, m)`` block of new constraint rows (already scaled
    by ``sqrt(λ)`` for the penalised normal equations), applied as ``k``
    sequential rank-1 Givens sweeps — the classic ``cholupdate`` with the
    column tail vectorised.  Updates are always *positive* (we only ever
    add observations), so the factor cannot lose positive definiteness in
    exact arithmetic; a numerical breakdown raises :class:`SolverError`
    so the caller can refactorise from the accumulated normal matrix.

    Returns a new array; the input factor is left untouched.
    """
    L = np.array(factor, dtype=float, copy=True)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise SolverError(f"factor must be square; got shape {L.shape}")
    update = np.atleast_2d(np.asarray(rows, dtype=float))
    if update.shape[1] != L.shape[0]:
        raise SolverError(
            f"update rows must have {L.shape[0]} columns; got {update.shape}"
        )
    m = L.shape[0]
    for vector in update:
        w = vector.copy()
        for j in range(m):
            ljj = L[j, j]
            wj = w[j]
            if wj == 0.0:
                continue
            r = np.hypot(ljj, wj)
            if not np.isfinite(r) or r <= 0.0 or ljj <= 0.0:
                raise SolverError("cholesky update broke down; refactorise")
            c = r / ljj
            s = wj / ljj
            L[j, j] = r
            if j + 1 < m:
                tail = (L[j + 1 :, j] + s * w[j + 1 :]) / c
                w[j + 1 :] = c * w[j + 1 :] - s * tail
                L[j + 1 :, j] = tail
    return L


def cholesky_downdate(factor: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Rank-k downdate of a lower Cholesky factor: ``L'L'ᵀ = LLᵀ - rowsᵀrows``.

    The mirror of :func:`cholesky_update` for *removing* constraint rows
    (streaming-window training evicting expired feedback): ``k``
    sequential rank-1 hyperbolic-rotation sweeps with the column tail
    vectorised.  Unlike updates, downdates can destroy positive
    definiteness — the downdated matrix is only SPD if the removed rows
    were actually part of it, and even then accumulated float error can
    push a pivot below zero.  The standard guard applies: each pivot
    must satisfy ``L[j,j]² - w[j]² > 0``; a violation (or any
    non-finite intermediate) raises :class:`SolverError` so the caller
    refactorises from the surviving rows instead.

    Returns a new array; the input factor is left untouched.
    """
    L = np.array(factor, dtype=float, copy=True)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise SolverError(f"factor must be square; got shape {L.shape}")
    update = np.atleast_2d(np.asarray(rows, dtype=float))
    if update.shape[1] != L.shape[0]:
        raise SolverError(
            f"downdate rows must have {L.shape[0]} columns; got {update.shape}"
        )
    m = L.shape[0]
    for vector in update:
        w = vector.copy()
        for j in range(m):
            ljj = L[j, j]
            wj = w[j]
            if wj == 0.0:
                continue
            # (ljj - wj)(ljj + wj) is the numerically kinder form of
            # ljj² - wj²; non-positive means the downdate would leave
            # the matrix indefinite — the PD guard.
            r2 = (ljj - wj) * (ljj + wj)
            if not np.isfinite(r2) or r2 <= 0.0 or ljj <= 0.0:
                raise SolverError("cholesky downdate lost positive definiteness; refactorise")
            r = np.sqrt(r2)
            c = r / ljj
            s = wj / ljj
            L[j, j] = r
            if j + 1 < m:
                tail = (L[j + 1 :, j] - s * w[j + 1 :]) / c
                w[j + 1 :] = c * w[j + 1 :] - s * tail
                L[j + 1 :, j] = tail
    return L


class CachedCholesky:
    """A reusable Cholesky factorisation of a growing SPD normal matrix.

    The incremental trainer keeps one of these per model: a full
    :meth:`factorize` at (re)build time, then :meth:`modify_rows` folds
    each refit's ``Δn`` new constraint rows in — and, under a sliding
    training window, the expired rows *out* (rank-k downdate) — in
    ``O((Δn_in + Δn_out)·m²)`` instead of the ``O(m³)`` refactorisation.
    Each refactorisation overwrites the same buffer in place.

    :meth:`modify_rows` *declines* (returns False, leaving the factor
    untouched) when the caller should refactorise instead:

    * the Python-level rank-1 sweeps would be slower than refactorising.
      The update+downdate pair is priced together: ``k = k_in + k_out``
      sweeps cost ``k·m`` small numpy operations, each worth about
      ``update_cost_ratio`` BLAS flops; refactorising costs ``m³/3``
      flops *plus whatever it takes the caller to rebuild the matrix* —
      the trainer passes ``history_rows = n`` so the ``O(n·m²)``
      normal-equation syrk its refactorisation implies is priced in.
      The crossover is ``k · update_cost_ratio > m²/3 + history_rows·m``:
      at small ``m`` and short history a fresh BLAS factorisation wins;
      as the stream (or window) grows the rank-k path takes over and
      per-refit cost stops scaling with ``n``.
    * the modified factor's diagonal-based condition estimate exceeds
      ``condition_limit`` (accumulated update/downdate error is no
      longer safely bounded), or
    * a sweep breaks down numerically — which a downdate can do even in
      exact arithmetic if asked to remove rows the matrix never
      contained (the positive-definiteness guard).

    The ``refactorizations``/``rank_updates``/``rank_downdates``
    counters make the chosen path observable to tests and benchmarks.
    """

    def __init__(
        self,
        condition_limit: float = 1.0e13,
        update_cost_ratio: float = 3.0e5,
    ) -> None:
        if condition_limit <= 0:
            raise SolverError("condition_limit must be positive")
        if update_cost_ratio <= 0:
            raise SolverError("update_cost_ratio must be positive")
        self._condition_limit = float(condition_limit)
        self._update_cost_ratio = float(update_cost_ratio)
        # The factor lives in the lower triangle of this buffer; it is
        # kept across invalidate() so the next factorize() can reuse it.
        self._buffer: np.ndarray | None = None
        self._valid = False
        self.refactorizations = 0
        self.rank_updates = 0
        self.rank_downdates = 0

    @property
    def available(self) -> bool:
        """True if a factor is cached and usable for solves/updates."""
        return self._valid

    @property
    def buffer(self) -> np.ndarray | None:
        """The ``(m, m)`` Fortran-order array the factor is written into."""
        return self._buffer

    def invalidate(self) -> None:
        """Drop the cached factor (e.g. after a subpopulation rebuild)."""
        self._valid = False

    def factorize(
        self,
        matrix: np.ndarray,
        ridge: float = 0.0,
        rows: np.ndarray | None = None,
        scale: float = 1.0,
    ) -> None:
        """Fully factorise ``matrix + scale·rowsᵀrows + ridge·I``.

        ``matrix`` must be symmetric.  Runs
        :func:`factorize_normal_matrix` into the cached buffer.  Raises
        :class:`SolverError` when the matrix is not numerically positive
        definite or not finite, leaving the cache unavailable (the
        caller falls back to :func:`regularized_solve`).
        """
        self._valid = False
        self._buffer = factorize_normal_matrix(
            matrix, rows, scale, ridge, out=self._buffer
        )
        self._valid = True
        self.refactorizations += 1

    def update_rows(self, rows: np.ndarray, history_rows: int = 0) -> bool:
        """Fold ``(k, m)`` new rows into the factor; False = refactorise.

        Equivalent to :meth:`modify_rows` with no removed rows — kept as
        the named entry point for the append-only (unbounded) stream.
        """
        return self.modify_rows(rows, None, history_rows=history_rows)

    def downdate_rows(self, rows: np.ndarray, history_rows: int = 0) -> bool:
        """Fold ``(k, m)`` expired rows out of the factor; False = refactorise.

        Equivalent to :meth:`modify_rows` with no added rows.
        """
        return self.modify_rows(None, rows, history_rows=history_rows)

    def modify_rows(
        self,
        added: np.ndarray | None,
        removed: np.ndarray | None,
        history_rows: int = 0,
    ) -> bool:
        """Fold an update+downdate pair into the factor; False = refactorise.

        ``added`` are the refit's new constraint rows, ``removed`` the
        rows a sliding training window just evicted (either may be None
        or empty).  The pair is priced as one decision — ``k = k_in +
        k_out`` rank-1 sweeps against one refactorisation — because the
        caller either keeps the cached factor consistent with the whole
        window move or rebuilds it once; updates apply before downdates
        so the intermediate matrix stays maximal (downdating first could
        lose positive definiteness transiently even when the final
        matrix is SPD).

        ``history_rows`` is the number of rows the caller would have to
        re-aggregate (one ``O(history_rows·m²)`` syrk) if this
        modification is declined; it raises the refactorisation's priced
        cost so long streams/windows favour the rank-k path.

        On False the cached factor is unchanged if the decline was a cost
        or condition decision, and invalidated if a sweep broke down —
        including a downdate's positive-definiteness guard firing.
        """
        if not self._valid:
            return False
        m = self._buffer.shape[0]
        update = self._as_rows(added, m)
        downdate = self._as_rows(removed, m)
        if update is None or downdate is None:
            return False
        k = update.shape[0] + downdate.shape[0]
        if k == 0:
            return True
        # Cost crossover (see class docstring): k·m Python-level sweep
        # iterations at ~update_cost_ratio flops-equivalent each, vs. an
        # O(m³/3) BLAS refactorisation plus the caller's O(n·m²) matrix
        # rebuild.
        if k * self._update_cost_ratio > m * m / 3 + history_rows * m:
            return False
        try:
            modified = self._buffer
            if update.shape[0]:
                modified = cholesky_update(modified, update)
            if downdate.shape[0]:
                modified = cholesky_downdate(modified, downdate)
        except SolverError:
            self._valid = False
            return False
        diagonal = np.diag(modified)
        smallest = float(diagonal.min())
        largest = float(diagonal.max())
        if smallest <= 0.0 or (largest / smallest) ** 2 > self._condition_limit:
            return False
        np.copyto(self._buffer, modified)
        if update.shape[0]:
            self.rank_updates += 1
        if downdate.shape[0]:
            self.rank_downdates += 1
        return True

    @staticmethod
    def _as_rows(rows: np.ndarray | None, m: int) -> np.ndarray | None:
        """Normalise an optional row block; None = shape mismatch (decline)."""
        if rows is None:
            return np.zeros((0, m))
        block = np.asarray(rows, dtype=float)
        if block.size == 0:
            return np.zeros((0, m))
        block = np.atleast_2d(block)
        if block.shape[1] != m:
            return None
        return block

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve against the cached factor."""
        if not self._valid:
            raise SolverError("no factorization cached; call factorize() first")
        vec = np.asarray(rhs, dtype=float)
        if vec.shape[0] != self._buffer.shape[0]:
            raise SolverError(
                f"rhs length {vec.shape[0]} does not match factor size "
                f"{self._buffer.shape[0]}"
            )
        return cholesky_solve(self._buffer, vec)
