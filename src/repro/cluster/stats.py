"""Fleet-wide metrics: per-shard serving stats rolled up into one surface.

:func:`merge_worker_stats` is the one fleet rollup.  It reduces
per-shard :meth:`~repro.cluster.shard.ShardWorker.stats_view` dicts:
counters sum across shards, the cache hit rate is recomputed from the
summed hit/miss counts (a mean of per-shard rates would weight an idle
shard like a hot one), and latency percentiles are computed over the
*merged* per-shard latency reservoirs (percentiles do not average).  The
counter names come from :attr:`~repro.serving.stats.ServingStats.
COUNTERS` and :attr:`~repro.cluster.buffer.ObservationBuffer.COUNTERS`,
so no list here needs keeping in sync.

:class:`ClusterStats` presents a :class:`~repro.cluster.service.
ShardedSelectivityService` as a single observable system through that
rollup; the gateway's ``fleet_stats`` feeds the same function the views
its socket workers return, so both fleets read one schema.  The
per-shard view is kept alongside the aggregate so operators can spot a
hot or unbalanced shard at a glance.

Counters cover the *live* fleet: like any per-node metrics system, a
shard retired by ``remove_shard`` takes its history with it (its keys'
feedback is migrated, its counters are not).  Scrape :meth:`snapshot`
periodically if cumulative history across resizes matters.
"""

from __future__ import annotations

import numpy as np

from repro.serving.stats import ServingStats, mean_backend_errors
from repro.cluster.buffer import ObservationBuffer

__all__ = ["ClusterStats", "merge_worker_stats"]


def merge_worker_stats(
    per_worker: dict[str, dict[str, object]],
) -> dict[str, object]:
    """Roll per-shard stats views into one fleet view.

    ``per_worker`` maps shard name to a
    :meth:`~repro.cluster.shard.ShardWorker.stats_view` dict —
    in-process shards hand theirs over directly, socket workers ship
    theirs over the wire.  Returns ``{"aggregate": ..., "backend_errors":
    ...}``: every :attr:`ServingStats.COUNTERS` entry and every
    ``observations_<buffer counter>`` summed, the hit rate recomputed
    from summed hits and misses (a mean of per-shard rates would weight
    an idle shard like a hot one), latency percentiles over the *merged*
    reservoirs (percentiles do not average), and each ``(key, backend)``
    error window merged before its mean is taken.
    """
    totals: dict[str, float] = dict.fromkeys(ServingStats.COUNTERS, 0)
    buffer_totals = dict.fromkeys(ObservationBuffer.COUNTERS, 0)
    latencies: list[float] = []
    merged_errors: dict[tuple[str, str], list[float]] = {}
    model_keys = 0
    for view in per_worker.values():
        counters = view.get("counters", {})
        for name in totals:
            totals[name] += counters.get(name, 0)
        latencies.extend(view.get("latencies", ()))
        for name, value in view.get("buffer", {}).items():
            if name in buffer_totals:
                buffer_totals[name] += value
        for scope, window in view.get("backend_error_windows", {}).items():
            merged_errors.setdefault(scope, []).extend(window)
        model_keys += int(view.get("model_keys", 0))
    lookups = totals["cache_hits"] + totals["cache_misses"]
    totals["hit_rate"] = totals["cache_hits"] / lookups if lookups else 0.0
    merged = np.array(latencies) if latencies else None
    totals["p50_latency_seconds"] = (
        float(np.percentile(merged, 50.0)) if merged is not None else 0.0
    )
    totals["p99_latency_seconds"] = (
        float(np.percentile(merged, 99.0)) if merged is not None else 0.0
    )
    for name, value in buffer_totals.items():
        totals[f"observations_{name}"] = value
    totals["shard_count"] = len(per_worker)
    totals["model_keys"] = model_keys
    return {
        "aggregate": totals,
        "backend_errors": mean_backend_errors(merged_errors),
    }


class ClusterStats:
    """Aggregated metrics across every shard of a sharded service."""

    def __init__(self, cluster) -> None:
        self._cluster = cluster

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def per_shard(self) -> dict[str, dict[str, float]]:
        """Each shard's serving-stats snapshot plus its buffer counters."""
        views: dict[str, dict[str, float]] = {}
        for shard_id, worker in self._workers().items():
            view = worker.stats.snapshot()
            view["model_keys"] = len(worker.model_keys())
            for name, value in worker.buffer.counters().items():
                view[f"observations_{name}"] = value
            view["refits_coalesced"] = worker.scheduler.coalesced
            views[shard_id] = view
        return views

    def backend_errors(self) -> dict[str, dict[str, float]]:
        """Fleet-wide per-``{model key: {backend: mean |error|}}`` view.

        Error windows for the same (key, backend) are merged across
        shards before the mean is taken — a key's windows live on its
        owning shard (migration moves them with the key), and merging
        (rather than averaging shard means) keeps the statistic honest
        if any transient overlap exists mid-resize.
        """
        return self._merged()["backend_errors"]

    def aggregate(self) -> dict[str, float]:
        """One fleet-wide view: summed counters, true hit rate, merged
        latency percentiles."""
        return self._merged()["aggregate"]

    def snapshot(self) -> dict[str, object]:
        """Aggregate plus per-shard breakdown, as plain dicts."""
        merged = self._merged()
        merged["per_shard"] = self.per_shard()
        return merged

    # ------------------------------------------------------------------
    # Convenience properties (mirror ServingStats where they make sense)
    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        """Fleet-wide cache hit rate over all predicates served."""
        return self.aggregate()["hit_rate"]

    @property
    def refits_completed(self) -> int:
        """Refits published across all shards."""
        return int(self.aggregate()["refits_completed"])

    @property
    def observations(self) -> int:
        """Observations absorbed by trainers across all shards."""
        return int(self.aggregate()["observations"])

    @property
    def p50_latency_seconds(self) -> float:
        """Fleet-wide median request latency over the merged windows."""
        return self.aggregate()["p50_latency_seconds"]

    @property
    def p99_latency_seconds(self) -> float:
        """Fleet-wide tail request latency over the merged windows."""
        return self.aggregate()["p99_latency_seconds"]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _workers(self):
        return self._cluster._workers_snapshot()

    def _merged(self) -> dict[str, object]:
        return merge_worker_stats(
            {
                shard_id: worker.stats_view()
                for shard_id, worker in self._workers().items()
            }
        )

    def __repr__(self) -> str:
        totals = self.aggregate()
        return (
            f"ClusterStats(shards={totals['shard_count']}, "
            f"served={int(totals['predicates_served'])}, "
            f"hit_rate={totals['hit_rate']:.2f}, "
            f"refits={int(totals['refits_completed'])})"
        )
