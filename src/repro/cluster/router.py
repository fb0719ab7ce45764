"""Stable hash-ring routing of model keys to shards.

:class:`ShardRouter` decides, for every
:class:`~repro.serving.registry.ModelKey`, which shard serves it.  It is
a classic consistent-hash ring:

* each shard contributes ``replicas`` virtual points, placed by hashing
  ``"{shard_id}\\x1f{replica}"`` with BLAKE2b — a *stable* hash, so the
  same key routes to the same shard across processes, restarts, and
  router instances (Python's built-in ``hash`` is salted per process and
  would scatter the fleet's routing on every restart);
* a key routes to the owner of the first ring point at or clockwise of
  its own hash;
* adding a shard moves onto it only the keys whose arc it takes over,
  and removing a shard re-homes only that shard's keys — the minimal,
  deterministic migration set the cluster's add/remove protocol relies
  on.

The router itself holds no locks; the cluster serialises membership
changes and routing lookups behind its own lock.

Both fleet front ends — the threaded
:class:`~repro.cluster.service.ShardedSelectivityService` and the
asyncio :class:`~repro.net.gateway.SelectivityGateway` — take their
membership decisions here: :meth:`ShardRouter.moved_keys` names the keys
a resize must migrate, and :func:`drain_budget` slices one fleet-wide
drain budget across the members in turn.
"""

from __future__ import annotations

import bisect
import hashlib
import time
from collections.abc import Iterable, Iterator, Mapping, Sequence
from typing import TypeVar

from repro.exceptions import ClusterError, ServingError
from repro.serving.registry import ModelKey

__all__ = ["ShardRouter", "drain_budget"]

_Member = TypeVar("_Member")

_SEPARATOR = "\x1f"


def _stable_hash(token: str) -> int:
    """A 64-bit process-stable hash of ``token``."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _key_token(key: ModelKey) -> str:
    return _SEPARATOR.join((key.table, *key.columns))


class ShardRouter:
    """Consistent-hash ring mapping model keys to shard ids."""

    def __init__(self, shard_ids: Iterable[str], replicas: int = 64) -> None:
        if replicas < 1:
            raise ClusterError("replicas must be at least 1")
        self._replicas = replicas
        self._shards: set[str] = set()
        self._points: list[int] = []
        self._owners: list[str] = []
        for shard_id in shard_ids:
            self.add(shard_id)
        if not self._shards:
            raise ClusterError("router needs at least one shard")

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    @property
    def shards(self) -> tuple[str, ...]:
        """All shard ids, sorted."""
        return tuple(sorted(self._shards))

    @property
    def replicas(self) -> int:
        """Virtual ring points per shard."""
        return self._replicas

    def __len__(self) -> int:
        return len(self._shards)

    def __contains__(self, shard_id: str) -> bool:
        return shard_id in self._shards

    def add(self, shard_id: str) -> None:
        """Add a shard to the ring (its arcs' keys now route to it)."""
        if not isinstance(shard_id, str) or not shard_id:
            raise ClusterError("shard id must be a non-empty string")
        if shard_id in self._shards:
            raise ClusterError(f"shard {shard_id!r} is already on the ring")
        self._shards.add(shard_id)
        self._rebuild()

    def remove(self, shard_id: str) -> None:
        """Remove a shard (its keys re-home to the next points clockwise)."""
        if shard_id not in self._shards:
            raise ClusterError(f"shard {shard_id!r} is not on the ring")
        if len(self._shards) == 1:
            raise ClusterError("cannot remove the last shard from the ring")
        self._shards.remove(shard_id)
        self._rebuild()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route(self, key: ModelKey) -> str:
        """The shard id serving ``key`` under the current membership."""
        index = bisect.bisect_left(
            self._points, _stable_hash(_key_token(key))
        ) % len(self._points)
        return self._owners[index]

    def moved_keys(
        self, placements: Mapping[ModelKey, str]
    ) -> list[tuple[ModelKey, str, str]]:
        """The keys whose route no longer matches where they live.

        ``placements`` maps each served key to its current owner; the
        result is ``(key, owner, new owner)`` for every key the current
        ring routes elsewhere, sorted by key — after an :meth:`add`,
        exactly the arcs the new shard took over.
        """
        return sorted(
            (key, owner, self.route(key))
            for key, owner in placements.items()
            if self.route(key) != owner
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _rebuild(self) -> None:
        # Sorting (point, owner) pairs makes even the astronomically
        # unlikely 64-bit point collision resolve deterministically
        # (lowest shard id wins the point).
        pairs = sorted(
            (_stable_hash(f"{shard_id}{_SEPARATOR}{replica}"), shard_id)
            for shard_id in self._shards
            for replica in range(self._replicas)
        )
        self._points = [point for point, _ in pairs]
        self._owners = [owner for _, owner in pairs]

    def __repr__(self) -> str:
        return (
            f"ShardRouter(shards={len(self._shards)}, "
            f"replicas={self._replicas})"
        )


def drain_budget(
    members: Sequence[_Member], timeout: float | None
) -> Iterator[tuple[_Member, float | None]]:
    """Yield each member with its slice of a fleet-total drain budget.

    ``timeout`` (seconds) bounds the whole sweep, not each member: every
    member gets whatever remains when its turn comes (``None`` when
    unbounded).  An exhausted budget raises :class:`ServingError` naming
    how many members were still undrained.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    for position, member in enumerate(members):
        remaining: float | None = None
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServingError(
                    f"drain budget of {timeout}s exhausted with "
                    f"{len(members) - position} member(s) undrained"
                )
        yield member, remaining
