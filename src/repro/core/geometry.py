"""Axis-aligned interval and hyperrectangle geometry.

Every object QuickSel reasons about -- the data domain ``B0``, a query
predicate ``B_i``, and a mixture-model subpopulation ``G_z`` -- is an
axis-aligned hyperrectangle.  Training only needs three geometric
primitives (Section 3.2 of the paper):

* the volume ``|B|`` of a hyperrectangle,
* the intersection ``B ∩ G`` of two hyperrectangles (another
  hyperrectangle, possibly empty), and
* the volume of that intersection,

all of which reduce to per-dimension ``min``/``max`` operations.  This
module provides those primitives both as small dataclass-style objects
(:class:`Interval`, :class:`Hyperrectangle`) and as vectorised NumPy
routines used on the hot path of matrix construction
(:func:`pairwise_intersection_volumes`, :func:`cross_intersection_volumes`).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

import numpy as np

from repro.exceptions import GeometryError
from repro.kernels import intersection_volumes

__all__ = [
    "Interval",
    "Hyperrectangle",
    "intersection_volume",
    "pairwise_intersection_volumes",
    "cross_intersection_volumes",
    "stack_bounds",
]


class Interval:
    """A closed one-dimensional interval ``[low, high]``.

    Degenerate intervals (``low == high``) are allowed; they have zero
    length and intersect other intervals only at a point (which has zero
    measure and therefore contributes zero volume).
    """

    __slots__ = ("low", "high")

    def __init__(self, low: float, high: float) -> None:
        low = float(low)
        high = float(high)
        if math.isnan(low) or math.isnan(high):
            raise GeometryError("interval bounds must not be NaN")
        if low > high:
            raise GeometryError(f"interval low ({low}) exceeds high ({high})")
        self.low = low
        self.high = high

    @property
    def length(self) -> float:
        """Length (1-D Lebesgue measure) of the interval."""
        return self.high - self.low

    @property
    def center(self) -> float:
        """Midpoint of the interval."""
        return 0.5 * (self.low + self.high)

    def contains(self, value: float) -> bool:
        """Return True if ``value`` lies inside the closed interval."""
        return self.low <= value <= self.high

    def intersects(self, other: "Interval") -> bool:
        """Return True if the two intervals share at least one point."""
        return self.low <= other.high and other.low <= self.high

    def intersection(self, other: "Interval") -> "Interval | None":
        """Return the overlapping interval, or None if disjoint."""
        low = max(self.low, other.low)
        high = min(self.high, other.high)
        if low > high:
            return None
        return Interval(low, high)

    def union_bounds(self, other: "Interval") -> "Interval":
        """Return the smallest interval containing both inputs."""
        return Interval(min(self.low, other.low), max(self.high, other.high))

    def clip(self, other: "Interval") -> "Interval":
        """Clip this interval to ``other``; raise if they are disjoint."""
        clipped = self.intersection(other)
        if clipped is None:
            raise GeometryError("cannot clip disjoint intervals")
        return clipped

    def as_tuple(self) -> tuple[float, float]:
        """Return ``(low, high)``."""
        return (self.low, self.high)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Interval):
            return NotImplemented
        return self.low == other.low and self.high == other.high

    def __hash__(self) -> int:
        return hash((self.low, self.high))

    def __repr__(self) -> str:
        return f"Interval({self.low!r}, {self.high!r})"


class Hyperrectangle:
    """An axis-aligned box in ``d`` dimensions.

    Internally stored as a ``(d, 2)`` float array of ``[low, high]``
    bounds per dimension.  The class is immutable by convention: all
    operations return new instances.
    """

    __slots__ = ("_bounds",)

    def __init__(self, bounds: Sequence[Sequence[float]] | np.ndarray) -> None:
        arr = np.asarray(bounds, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise GeometryError(
                f"bounds must have shape (d, 2); got {arr.shape}"
            )
        if arr.shape[0] == 0:
            raise GeometryError("a hyperrectangle needs at least one dimension")
        if np.isnan(arr).any():
            raise GeometryError("hyperrectangle bounds must not contain NaN")
        if (arr[:, 0] > arr[:, 1]).any():
            raise GeometryError("every dimension must satisfy low <= high")
        self._bounds = arr
        self._bounds.setflags(write=False)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_intervals(cls, intervals: Iterable[Interval]) -> "Hyperrectangle":
        """Build a box from per-dimension :class:`Interval` objects."""
        return cls([iv.as_tuple() for iv in intervals])

    @classmethod
    def from_corners(
        cls, lower: Sequence[float], upper: Sequence[float]
    ) -> "Hyperrectangle":
        """Build a box from its lower-left and upper-right corners."""
        lower_arr = np.asarray(lower, dtype=float)
        upper_arr = np.asarray(upper, dtype=float)
        if lower_arr.shape != upper_arr.shape:
            raise GeometryError("corner vectors must have the same shape")
        return cls(np.stack([lower_arr, upper_arr], axis=1))

    @classmethod
    def unit(cls, dimension: int) -> "Hyperrectangle":
        """The unit cube ``[0, 1]^d``."""
        if dimension < 1:
            raise GeometryError("dimension must be at least 1")
        return cls(np.tile([0.0, 1.0], (dimension, 1)))

    @classmethod
    def centered(
        cls,
        center: Sequence[float],
        widths: Sequence[float] | float,
        clip_to: "Hyperrectangle | None" = None,
    ) -> "Hyperrectangle":
        """Build a box centred at ``center`` with the given side widths.

        If ``clip_to`` is given, the result is clipped to that domain
        (used when subpopulation boxes must stay inside ``B0``).
        """
        center_arr = np.asarray(center, dtype=float)
        widths_arr = np.broadcast_to(
            np.asarray(widths, dtype=float), center_arr.shape
        )
        if (widths_arr < 0).any():
            raise GeometryError("widths must be non-negative")
        lower = center_arr - widths_arr / 2.0
        upper = center_arr + widths_arr / 2.0
        box = cls.from_corners(lower, upper)
        if clip_to is not None:
            box = box.intersection(clip_to)
            if box is None:
                raise GeometryError("centered box lies outside the clip domain")
        return box

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def bounds(self) -> np.ndarray:
        """The ``(d, 2)`` bounds array (read-only view)."""
        return self._bounds

    @property
    def dimension(self) -> int:
        """Number of dimensions."""
        return self._bounds.shape[0]

    @property
    def lower(self) -> np.ndarray:
        """Vector of per-dimension lower bounds."""
        return self._bounds[:, 0]

    @property
    def upper(self) -> np.ndarray:
        """Vector of per-dimension upper bounds."""
        return self._bounds[:, 1]

    @property
    def widths(self) -> np.ndarray:
        """Vector of per-dimension side lengths."""
        return self._bounds[:, 1] - self._bounds[:, 0]

    @property
    def center(self) -> np.ndarray:
        """The box centre point."""
        return 0.5 * (self._bounds[:, 0] + self._bounds[:, 1])

    @property
    def volume(self) -> float:
        """The d-dimensional Lebesgue measure of the box."""
        return float(np.prod(self.widths))

    def interval(self, dim: int) -> Interval:
        """Return the :class:`Interval` spanned along dimension ``dim``."""
        low, high = self._bounds[dim]
        return Interval(low, high)

    def intervals(self) -> list[Interval]:
        """Return all per-dimension intervals."""
        return [self.interval(i) for i in range(self.dimension)]

    def is_degenerate(self) -> bool:
        """True if the box has zero volume (some side has zero width)."""
        return bool((self.widths == 0).any())

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def contains_point(self, point: Sequence[float]) -> bool:
        """Return True if ``point`` lies inside the closed box."""
        p = np.asarray(point, dtype=float)
        if p.shape != (self.dimension,):
            raise GeometryError(
                f"point has dimension {p.shape}, expected ({self.dimension},)"
            )
        return bool((p >= self.lower).all() and (p <= self.upper).all())

    def contains_points(self, points: np.ndarray) -> np.ndarray:
        """Vectorised membership test for an ``(n, d)`` array of points."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dimension:
            raise GeometryError(
                f"points must have shape (n, {self.dimension}); got {pts.shape}"
            )
        return np.logical_and(
            (pts >= self.lower).all(axis=1), (pts <= self.upper).all(axis=1)
        )

    def contains_box(self, other: "Hyperrectangle") -> bool:
        """True if ``other`` lies entirely inside this box."""
        self._check_dimension(other)
        return bool(
            (other.lower >= self.lower).all() and (other.upper <= self.upper).all()
        )

    def intersects(self, other: "Hyperrectangle") -> bool:
        """True if the two boxes share at least one point."""
        self._check_dimension(other)
        return bool(
            (self.lower <= other.upper).all() and (other.lower <= self.upper).all()
        )

    def intersection(self, other: "Hyperrectangle") -> "Hyperrectangle | None":
        """Return the overlapping box, or None if the boxes are disjoint."""
        self._check_dimension(other)
        lower = np.maximum(self.lower, other.lower)
        upper = np.minimum(self.upper, other.upper)
        if (lower > upper).any():
            return None
        return Hyperrectangle(np.stack([lower, upper], axis=1))

    def intersection_volume(self, other: "Hyperrectangle") -> float:
        """Volume of the overlap (0.0 if disjoint)."""
        self._check_dimension(other)
        lower = np.maximum(self.lower, other.lower)
        upper = np.minimum(self.upper, other.upper)
        widths = upper - lower
        if (widths < 0).any():
            return 0.0
        return float(np.prod(widths))

    def overlap_fraction(self, other: "Hyperrectangle") -> float:
        """Fraction of *this* box's volume covered by ``other``.

        Used by histogram estimators that distribute a bucket's frequency
        proportionally to overlap.  Degenerate (zero-volume) boxes report
        1.0 when contained in ``other`` and 0.0 otherwise.
        """
        volume = self.volume
        if volume == 0.0:
            return 1.0 if other.contains_box(self) else 0.0
        return self.intersection_volume(other) / volume

    def union_bounds(self, other: "Hyperrectangle") -> "Hyperrectangle":
        """The smallest box containing both inputs (bounding box)."""
        self._check_dimension(other)
        lower = np.minimum(self.lower, other.lower)
        upper = np.maximum(self.upper, other.upper)
        return Hyperrectangle(np.stack([lower, upper], axis=1))

    def expand(self, factor: float) -> "Hyperrectangle":
        """Scale the box about its centre by ``factor`` (>= 0)."""
        if factor < 0:
            raise GeometryError("expansion factor must be non-negative")
        half = self.widths * factor / 2.0
        center = self.center
        return Hyperrectangle.from_corners(center - half, center + half)

    def split(self, dim: int, value: float) -> tuple["Hyperrectangle", "Hyperrectangle"]:
        """Split the box along ``dim`` at ``value`` into (lower, upper) parts.

        ``value`` must lie strictly inside the box's extent on that
        dimension; histogram estimators use this to carve buckets.
        """
        low, high = self._bounds[dim]
        if not (low < value < high):
            raise GeometryError(
                f"split value {value} is not strictly inside [{low}, {high}]"
            )
        lower_bounds = self._bounds.copy()
        upper_bounds = self._bounds.copy()
        lower_bounds[dim, 1] = value
        upper_bounds[dim, 0] = value
        return Hyperrectangle(lower_bounds), Hyperrectangle(upper_bounds)

    def subtract(self, other: "Hyperrectangle") -> list["Hyperrectangle"]:
        """Return a disjoint box cover of ``self \\ other``.

        The result is the standard "slab" decomposition: at most ``2 d``
        boxes, produced by peeling one dimension at a time.  Zero-volume
        slabs are dropped.  Query-driven histograms use this when a new
        predicate punches a hole into an existing bucket.
        """
        self._check_dimension(other)
        overlap = self.intersection(other)
        if overlap is None or overlap.volume == 0.0:
            return [] if self.volume == 0.0 else [self]
        pieces: list[Hyperrectangle] = []
        remaining = self._bounds.copy()
        for dim in range(self.dimension):
            low, high = remaining[dim]
            olow, ohigh = overlap.bounds[dim]
            if olow > low:
                piece = remaining.copy()
                piece[dim] = (low, olow)
                if np.prod(piece[:, 1] - piece[:, 0]) > 0:
                    pieces.append(Hyperrectangle(piece))
            if ohigh < high:
                piece = remaining.copy()
                piece[dim] = (ohigh, high)
                if np.prod(piece[:, 1] - piece[:, 0]) > 0:
                    pieces.append(Hyperrectangle(piece))
            remaining[dim] = (olow, ohigh)
        return pieces

    def sample_points(
        self, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw ``count`` points uniformly at random from the box."""
        if count < 0:
            raise GeometryError("count must be non-negative")
        return rng.uniform(
            low=self.lower, high=self.upper, size=(count, self.dimension)
        )

    def as_array(self) -> np.ndarray:
        """Return a writable copy of the bounds array."""
        return self._bounds.copy()

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def _check_dimension(self, other: "Hyperrectangle") -> None:
        if self.dimension != other.dimension:
            raise GeometryError(
                "dimension mismatch: "
                f"{self.dimension} vs {other.dimension}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hyperrectangle):
            return NotImplemented
        return (
            self.dimension == other.dimension
            and bool(np.array_equal(self._bounds, other._bounds))
        )

    def __hash__(self) -> int:
        return hash(self._bounds.tobytes())

    def __repr__(self) -> str:
        parts = ", ".join(
            f"[{low:g}, {high:g}]" for low, high in self._bounds
        )
        return f"Hyperrectangle({parts})"


def intersection_volume(a: Hyperrectangle, b: Hyperrectangle) -> float:
    """Module-level convenience wrapper for ``a.intersection_volume(b)``."""
    return a.intersection_volume(b)


def stack_bounds(boxes: Sequence[Hyperrectangle]) -> tuple[np.ndarray, np.ndarray]:
    """Stack lower/upper corners of a list of boxes into two ``(n, d)`` arrays.

    Callers that evaluate many intersection queries against a *fixed* set
    of boxes (e.g. a trained mixture model's subpopulations) should stack
    once and reuse the arrays with
    :func:`repro.kernels.intersection_volumes`, skipping the per-call
    Python loop over box objects.
    """
    if not boxes:
        return np.empty((0, 0)), np.empty((0, 0))
    lower = np.stack([box.lower for box in boxes])
    upper = np.stack([box.upper for box in boxes])
    return lower, upper


def pairwise_intersection_volumes(boxes: Sequence[Hyperrectangle]) -> np.ndarray:
    """Return the ``(m, m)`` matrix of intersection volumes between boxes.

    This is the vectorised kernel behind the ``Q`` matrix of Theorem 1:
    ``Q[i, j] = |G_i ∩ G_j| / (|G_i| |G_j|)`` -- the caller divides by the
    volumes.  Runs in O(m^2 d) using broadcasting.
    """
    lower, upper = stack_bounds(boxes)
    if lower.size == 0:
        return np.zeros((0, 0))
    return intersection_volumes(lower, upper, lower, upper)


def cross_intersection_volumes(
    rows: Sequence[Hyperrectangle], cols: Sequence[Hyperrectangle]
) -> np.ndarray:
    """Return the ``(n, m)`` matrix of intersection volumes rows x cols.

    Vectorised kernel behind the ``A`` matrix of Theorem 1:
    ``A[i, j] = |B_i ∩ G_j| / |G_j|``.
    """
    row_lower, row_upper = stack_bounds(rows)
    col_lower, col_upper = stack_bounds(cols)
    if row_lower.size == 0 or col_lower.size == 0:
        return np.zeros((len(rows), len(cols)))
    return intersection_volumes(row_lower, row_upper, col_lower, col_upper)
