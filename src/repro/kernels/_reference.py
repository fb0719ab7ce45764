"""NumPy implementations of the hot estimation kernels.

:mod:`repro.kernels` binds these directly; they are the only backend.
Both box kernels work one axis at a time on ``(n, m)`` arrays: per axis
they take the overlap width of every (row, column) pair, clamp it at 0
and multiply it into a running product.  Broadcasting a full
``(n, m, d)`` tensor instead would make NumPy's innermost loop run over
the ``d`` (typically 2–5) axis, a handful of elements at a time; the
per-axis form keeps every inner loop ``m`` long and its temporaries
bounded by a few ``(n, m)`` arrays.  ``tests/test_kernels.py``
property-tests the kernels against a brute-force per-pair loop and pins
the temporary-memory bound.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "intersection_volumes",
    "weighted_overlap_estimates",
    "decay_weights",
]


def intersection_volumes(
    row_lower: np.ndarray,
    row_upper: np.ndarray,
    col_lower: np.ndarray,
    col_upper: np.ndarray,
) -> np.ndarray:
    """The ``(n, m)`` matrix of box-intersection volumes.

    ``row_*`` are ``(n, d)`` corner arrays, ``col_*`` are ``(m, d)``.
    Empty inputs produce a zero matrix of the right shape.
    """
    if row_lower.size == 0 or col_lower.size == 0:
        return np.zeros(
            (row_lower.shape[0], col_lower.shape[0]), dtype=row_lower.dtype
        )
    volumes = None
    for axis in range(row_lower.shape[1]):
        widths = np.minimum(row_upper[:, axis, None], col_upper[None, :, axis])
        widths -= np.maximum(row_lower[:, axis, None], col_lower[None, :, axis])
        np.maximum(widths, 0.0, out=widths)
        if volumes is None:
            volumes = widths
        else:
            volumes *= widths
    return volumes


def weighted_overlap_estimates(
    piece_lower: np.ndarray,
    piece_upper: np.ndarray,
    owners: np.ndarray,
    count: int,
    col_lower: np.ndarray,
    col_upper: np.ndarray,
    weight_over_volume: np.ndarray,
) -> np.ndarray:
    """Per-predicate estimates ``clip(Σ_pieces overlaps @ w/|G|, 0, 1)``.

    The one kernel behind the mixture model (weights over component
    volumes), the bucket histograms (frequencies over bucket volumes) and
    the bootstrap snapshot (the domain over its own volume): every
    predicate piece's overlap volume with every column box, dotted with
    ``weight_over_volume``, summed back to the owning predicate via
    ``owners`` (in piece order) and clipped to ``[0, 1]``.
    """
    if piece_lower.shape[0] == 0 or col_lower.shape[0] == 0:
        return np.zeros(count, dtype=weight_over_volume.dtype)
    per_piece = (
        intersection_volumes(piece_lower, piece_upper, col_lower, col_upper)
        @ weight_over_volume
    )
    estimates = np.bincount(owners, weights=per_piece, minlength=count)
    return np.clip(estimates, 0.0, 1.0, out=estimates)


def decay_weights(ages: np.ndarray, half_life: float) -> np.ndarray:
    """Exponential decay ``0.5 ** (age / half_life)`` per row age."""
    return np.power(0.5, ages / half_life)
