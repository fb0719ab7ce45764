"""Supervised respawn: watch worker processes, restart, repoint, resync.

:class:`FleetSupervisor` closes the loop the fault-tolerance layer
needs a driver for: it polls each managed worker's ``alive`` flag, and
when a worker dies it

1. respawns it via the factory the caller registered (a fresh
   :class:`~repro.net.worker.WorkerProcess` with the same shard id and
   checkpoint directory, so the child boots by restoring its latest
   checkpoints),
2. repoints the gateway's link at the new address via the existing
   ``set_worker_address``, and
3. asks the gateway to ``resync_worker`` — re-delivering the
   acknowledged feedback the checkpoint missed and replaying writes
   buffered during the outage.

Crash loops are contained two ways: respawn delays grow exponentially
with jitter (:func:`~repro.net.breaker.equal_jitter`, so several
crashed workers don't respawn in lockstep), and after ``max_restarts``
consecutive failures the supervisor's restart circuit breaker gives the
worker up — the gateway keeps serving its keys degraded, and an
operator clears the state with :meth:`FleetSupervisor.reset`.  A worker
that stays alive ``stable_seconds`` after a respawn resets its failure
count: only *consecutive* crashes count toward giving up.

The gateway handle is duck-typed: a
:class:`~repro.net.gateway.GatewayServer` (driven through its ``run``
bridge), a :class:`~repro.net.client.RemoteSelectivityService`, or any
object with ``set_worker_address`` (and optionally ``resync_worker``)
works; so do stub processes in tests — anything with ``alive``,
``address``, and ``shard_id`` can be supervised.
"""

from __future__ import annotations

import random
import threading
import time
from collections.abc import Callable
from typing import Any

from repro.exceptions import NetError
from repro.net.breaker import equal_jitter

__all__ = ["FleetSupervisor"]


class _Supervised:
    """One managed worker's supervision state."""

    __slots__ = (
        "name",
        "process",
        "factory",
        "failures",
        "restarts",
        "next_attempt",
        "spawned_at",
        "given_up",
        "last_error",
        "last_exitcode",
    )

    def __init__(
        self, name: str, process: Any, factory: Callable[[], Any], now: float
    ) -> None:
        self.name = name
        self.process = process
        self.factory = factory
        self.failures = 0
        self.restarts = 0
        self.next_attempt = now
        self.spawned_at = now
        self.given_up = False
        self.last_error: str | None = None
        self.last_exitcode: int | None = None


class FleetSupervisor:
    """Respawn dead workers with backoff and repoint the gateway."""

    def __init__(
        self,
        gateway: Any = None,
        poll_interval: float = 0.25,
        backoff_base: float = 0.5,
        backoff_cap: float = 30.0,
        max_restarts: int = 5,
        stable_seconds: float = 10.0,
        rng: random.Random | None = None,
        clock: Callable[[], float] = time.monotonic,
        on_event: Callable[[dict[str, Any]], None] | None = None,
    ) -> None:
        """``gateway`` is where respawned addresses get repointed (may be
        None for bare process babysitting).  ``max_restarts`` bounds
        *consecutive* failures before the restart breaker gives a worker
        up; ``stable_seconds`` of uptime resets the count.  ``on_event``
        receives every lifecycle event dict (died / respawned /
        respawn_failed / repoint_failed / gave_up) as it happens.
        """
        if poll_interval <= 0:
            raise NetError("poll_interval must be positive")
        if backoff_base < 0 or backoff_cap < 0:
            raise NetError("backoff must be non-negative")
        if max_restarts < 1:
            raise NetError("max_restarts must be at least 1")
        if stable_seconds < 0:
            raise NetError("stable_seconds must be non-negative")
        self._gateway = gateway
        self._poll_interval = poll_interval
        self._backoff_base = backoff_base
        self._backoff_cap = backoff_cap
        self._max_restarts = max_restarts
        self._stable_seconds = stable_seconds
        self._rng = rng if rng is not None else random.Random()
        self._clock = clock
        self._on_event = on_event
        self._lock = threading.Lock()
        self._workers: dict[str, _Supervised] = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def manage(
        self,
        process: Any,
        factory: Callable[[], Any],
        name: str | None = None,
    ) -> str:
        """Start watching ``process``; ``factory`` builds its replacement.

        The factory must reproduce the worker's identity: same shard id
        (its ring position) and, for durability, the same checkpoint
        directory.  Returns the supervised name.
        """
        worker_name = name if name is not None else process.shard_id
        with self._lock:
            if worker_name in self._workers:
                raise NetError(
                    f"worker {worker_name!r} is already supervised"
                )
            self._workers[worker_name] = _Supervised(
                worker_name, process, factory, self._clock()
            )
        return worker_name

    def forget(self, name: str) -> None:
        """Stop watching a worker (it was retired deliberately)."""
        with self._lock:
            self._workers.pop(name, None)

    def reset(self, name: str) -> None:
        """Operator override: clear a worker's give-up/backoff state."""
        with self._lock:
            entry = self._workers.get(name)
            if entry is None:
                raise NetError(f"unknown supervised worker {name!r}")
            entry.failures = 0
            entry.given_up = False
            entry.next_attempt = self._clock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Run the supervision loop on a daemon thread."""
        if self._thread is not None:
            raise NetError("supervisor already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-net-supervisor", daemon=True
        )
        self._thread.start()

    def close(self, timeout: float = 10.0) -> None:
        """Stop the loop (managed processes are left running)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def _loop(self) -> None:
        while not self._stop.wait(self._poll_interval):
            try:
                self.check_once()
            except Exception as error:  # never let one pass kill the loop
                self._emit({"event": "supervisor_error", "error": repr(error)})

    # ------------------------------------------------------------------
    # One supervision pass (directly callable in tests)
    # ------------------------------------------------------------------
    def check_once(self, now: float | None = None) -> list[dict[str, Any]]:
        """Inspect every worker once; respawn what's dead and due.

        Returns the lifecycle events of this pass.
        """
        events: list[dict[str, Any]] = []
        if now is None:
            now = self._clock()
        with self._lock:
            entries = list(self._workers.values())
        for entry in entries:
            events.extend(self._check_entry(entry, now))
        return events

    def _check_entry(
        self, entry: _Supervised, now: float
    ) -> list[dict[str, Any]]:
        events: list[dict[str, Any]] = []
        if entry.given_up:
            return events
        process = entry.process
        if process is not None and process.alive:
            if (
                entry.failures
                and now - entry.spawned_at >= self._stable_seconds
            ):
                # Survived the crash window: the loop is broken.
                entry.failures = 0
            return events
        if process is not None:
            # Newly observed death: reap it and schedule the respawn.
            # ``last_error`` then holds this death's errors (reap,
            # respawn, repoint) until the next one.
            entry.last_exitcode = getattr(process, "exitcode", None)
            entry.last_error = None
            entry.process = None
            entry.failures += 1
            events.append(self._emit({
                "event": "died",
                "worker": entry.name,
                "failures": entry.failures,
                "exitcode": entry.last_exitcode,
            }))
            join = getattr(process, "join", None)
            if join is not None:
                try:
                    join(0)
                except Exception as error:
                    entry.last_error = repr(error)
                    events.append(self._emit({
                        "event": "reap_failed",
                        "worker": entry.name,
                        "error": repr(error),
                    }))
            if entry.failures > self._max_restarts:
                entry.given_up = True
                events.append(self._emit({
                    "event": "gave_up",
                    "worker": entry.name,
                    "failures": entry.failures,
                }))
                return events
            if entry.failures == 1:
                entry.next_attempt = now  # first respawn is immediate
            else:
                entry.next_attempt = now + equal_jitter(
                    self._backoff_base,
                    entry.failures - 2,
                    self._rng,
                    cap=self._backoff_cap,
                )
        if entry.process is None and now >= entry.next_attempt:
            events.extend(self._respawn(entry, now))
        return events

    def _respawn(
        self, entry: _Supervised, now: float
    ) -> list[dict[str, Any]]:
        events: list[dict[str, Any]] = []
        try:
            process = entry.factory()
        except Exception as error:
            entry.failures += 1
            entry.last_error = repr(error)
            events.append(self._emit({
                "event": "respawn_failed",
                "worker": entry.name,
                "failures": entry.failures,
                "error": repr(error),
            }))
            if entry.failures > self._max_restarts:
                entry.given_up = True
                events.append(self._emit({
                    "event": "gave_up",
                    "worker": entry.name,
                    "failures": entry.failures,
                }))
            else:
                entry.next_attempt = now + equal_jitter(
                    self._backoff_base,
                    max(0, entry.failures - 2),
                    self._rng,
                    cap=self._backoff_cap,
                )
            return events
        entry.process = process
        entry.spawned_at = self._clock()
        entry.restarts += 1
        host, port = process.address
        try:
            self._repoint(entry.name, host, port)
        except Exception as error:
            entry.last_error = repr(error)
            events.append(self._emit({
                "event": "repoint_failed",
                "worker": entry.name,
                "address": (host, port),
                "error": repr(error),
            }))
            return events
        events.append(self._emit({
            "event": "respawned",
            "worker": entry.name,
            "address": (host, port),
            "restarts": entry.restarts,
        }))
        return events

    def _repoint(self, name: str, host: str, port: int) -> None:
        gateway = self._gateway
        if gateway is None:
            return
        core = getattr(gateway, "gateway", None)
        run = getattr(gateway, "run", None)
        if core is not None and callable(run):
            # A GatewayServer: drive its asyncio core via the bridge.
            run(core.set_worker_address(name, host, port))
            run(core.resync_worker(name))
            return
        gateway.set_worker_address(name, host, port)
        resync = getattr(gateway, "resync_worker", None)
        if callable(resync):
            resync(name)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def status(self) -> dict[str, dict[str, Any]]:
        """One dict per supervised worker: liveness and restart state."""
        now = self._clock()
        with self._lock:
            entries = list(self._workers.values())
        view: dict[str, dict[str, Any]] = {}
        for entry in entries:
            process = entry.process
            view[entry.name] = {
                "alive": bool(process is not None and process.alive),
                "address": (
                    tuple(process.address) if process is not None else None
                ),
                "failures": entry.failures,
                "restarts": entry.restarts,
                "given_up": entry.given_up,
                "retry_in": max(0.0, entry.next_attempt - now),
                "last_error": entry.last_error,
                "last_exitcode": entry.last_exitcode,
            }
        return view

    def _emit(self, event: dict[str, Any]) -> dict[str, Any]:
        if self._on_event is not None:
            try:
                self._on_event(dict(event))
            except Exception:
                pass  # a broken listener must not stop supervision
        return event

    def __repr__(self) -> str:
        with self._lock:
            count = len(self._workers)
        return (
            f"FleetSupervisor(workers={count}, "
            f"running={self._thread is not None})"
        )
