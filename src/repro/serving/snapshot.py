"""Immutable, versioned model snapshots.

A :class:`ModelSnapshot` freezes one trained
:class:`~repro.estimators.backend.ServableModel` — any immutable value
object with ``estimate_many``/``parameter_count``, e.g. a
:class:`~repro.core.mixture.UniformMixtureModel` or a frozen baseline
estimator — together with the metadata the serving layer needs: a
monotonically increasing version number, the domain it was trained over,
and how much feedback it had seen.  Snapshots are what
:class:`~repro.serving.registry.EstimatorRegistry` hands to readers, so
an estimate always runs against one consistent model even while a
background refit is publishing the next version — the snapshot-consistency
discipline that conditioning a live probabilistic model requires.

Batch dispatch is capability-based: models exposing
``estimate_from_bounds`` (QuickSel's mixture model, the bucket
histograms, AutoHist) get the vectorised fast path — the whole batch is
lowered to raw piece bounds once and evaluated in one kernel call —
while anything else is served through its own ``estimate_many`` (which
may be the :class:`~repro.estimators.base.SelectivityEstimator` scalar
loop fallback).  Either way the batch result is elementwise equal to the
scalar path.

Version 0 is the *bootstrap* snapshot: no model yet, so estimates fall
back to the uniform distribution over the domain (the predicate's volume
fraction), matching QuickSel's documented initial state with only the
default query ``(P_0, 1)``.  That prior is a one-component mixture — the
domain weighted by ``1/volume`` — so it runs through the same
:func:`~repro.kernels.weighted_overlap_estimates` kernel as trained
models.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
import time

import numpy as np

from repro.core.geometry import Hyperrectangle
from repro.core.predicate import Predicate, lower_batch
from repro.core.region import Region
from repro.estimators.backend import ServableModel
from repro.exceptions import ServingError
from repro.kernels import weighted_overlap_estimates

__all__ = ["ModelSnapshot"]

PredicateLike = Predicate | Hyperrectangle | Region


@dataclass(frozen=True)
class ModelSnapshot:
    """One immutable version of a served selectivity model.

    Attributes:
        version: monotonically increasing per model key; 0 is bootstrap.
        domain: the data domain ``B_0`` the model covers.
        model: the frozen servable model (None for the bootstrap
            snapshot).  Must not be mutated after publication — backends
            guarantee this by publishing value objects or frozen copies.
        trained_on: number of observed queries the model was fitted to.
        created_at: wall-clock publication time (``time.time()``).
    """

    version: int
    domain: Hyperrectangle
    model: ServableModel | None
    trained_on: int = 0
    created_at: float = field(default_factory=time.time)

    @property
    def is_bootstrap(self) -> bool:
        """True for the pre-training uniform snapshot (version 0)."""
        return self.model is None

    @property
    def parameter_count(self) -> int:
        """Parameters held by the served model (0 at bootstrap)."""
        return 0 if self.model is None else self.model.parameter_count

    def estimate(self, predicate: PredicateLike) -> float:
        """Estimate the selectivity of one predicate under this version.

        Delegates to :meth:`estimate_many`, so the scalar and batch
        serving paths are the same code — parity between
        ``service.estimate`` and ``service.estimate_batch`` holds by
        construction, and both match the bare backend's estimate on the
        same model to floating-point dot-order differences (< 1e-12).
        """
        return float(self.estimate_many([predicate])[0])

    def estimate_many(self, predicates: Sequence[PredicateLike]) -> np.ndarray:
        """Vectorised batch estimation under this version.

        Elementwise equal to :meth:`estimate` (to floating-point dot-order
        differences, < 1e-12).  Models with an ``estimate_from_bounds``
        surface get the whole batch lowered once via
        :func:`~repro.core.predicate.lower_batch` and evaluated through a
        single raw-bounds kernel call; other models answer through their
        own ``estimate_many`` (the loop fallback for plain estimators).
        """
        model = self.model
        if model is not None:
            fast = getattr(model, "estimate_from_bounds", None)
            if fast is not None:
                piece_lower, piece_upper, owners = lower_batch(
                    predicates, self.domain
                )
                return np.asarray(
                    fast(piece_lower, piece_upper, owners, len(predicates)),
                    dtype=float,
                )
            return np.asarray(
                model.estimate_many(list(predicates)), dtype=float
            )
        domain_volume = self.domain.volume
        if domain_volume <= 0.0:
            raise ServingError("cannot serve a zero-volume domain")
        # The uniform prior is a one-component mixture: the domain itself,
        # weighted by 1/volume.  Region pieces arrive unclipped from
        # lower_batch; the kernel counts only the part inside the domain.
        piece_lower, piece_upper, owners = lower_batch(predicates, self.domain)
        return weighted_overlap_estimates(
            np.array(piece_lower),
            np.array(piece_upper),
            owners,
            len(predicates),
            self.domain.lower[None, :],
            self.domain.upper[None, :],
            np.array([1.0 / domain_volume]),
        )

    def __repr__(self) -> str:
        kind = "bootstrap" if self.is_bootstrap else "trained"
        return (
            f"ModelSnapshot(version={self.version}, {kind}, "
            f"trained_on={self.trained_on})"
        )
