"""The estimation kernels, in NumPy, with a backend report.

``repro.kernels`` hosts the three hot kernels the serving stack spends
its math time in (ROADMAP item 2):

* :func:`intersection_volumes` — the box-intersection volume matrix
  behind ``A``/``Q`` assembly and every batched estimate,
* :func:`weighted_overlap_estimates` — the shared estimation kernel:
  piece overlaps dotted with per-component ``weight/volume`` and summed
  back to owning predicates (mixture models, bucket histograms and the
  bootstrap snapshot all reduce to exactly this form), and
* :func:`decay_weights` — exponential row decay for windowed training.

There is one backend, per-axis NumPy (see
:mod:`repro.kernels._reference`); :func:`backend_report` names it and
the NumPy version for benchmark records.  The kernels allocate their
results and a few ``(n, m)`` temporaries per call; they match a
brute-force per-pair loop to ≤1e-12, property-tested in
``tests/test_kernels.py``.
"""

from __future__ import annotations

import numpy as np

from repro.kernels._reference import (
    decay_weights,
    intersection_volumes,
    weighted_overlap_estimates,
)

__all__ = [
    "backend_report",
    "intersection_volumes",
    "weighted_overlap_estimates",
    "decay_weights",
]

# Old names, kept only because perfbench/tracer.py still looks them up.
intersection_volumes_into = intersection_volumes
weighted_overlap_estimates_into = weighted_overlap_estimates
decay_weights_into = decay_weights


def backend_report() -> dict[str, str]:
    """The kernel backend and library version, for benchmark records."""
    return {
        "backend": "numpy",
        "reason": "NumPy per-axis kernels (the only backend)",
        "numpy": np.__version__,
    }
