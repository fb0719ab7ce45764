"""Fault-tolerance tests: breakers, checkpoints, degraded serving,
supervised respawn, and chaos injection.

Most of the file runs worker servers in-thread (real sockets, no child
interpreters) so the failure machinery is debuggable and counted by
coverage; one end-to-end test SIGKILLs a real worker process and drives
the full supervisor → checkpoint-restore → resync recovery path.
"""

from __future__ import annotations

import copy
import os
import random
import signal
import time

import numpy as np
import pytest

from repro.core.config import QuickSelConfig
from repro.core.quicksel import QuickSel
from repro.exceptions import (
    NetError,
    ServingError,
    WorkerUnavailableError,
)
from repro.net import (
    ChaosProxy,
    ChaosSchedule,
    CheckpointStore,
    CircuitBreaker,
    FleetSupervisor,
    GatewayServer,
    RemoteSelectivityService,
    WorkerProcess,
    WorkerServer,
    connect,
    equal_jitter,
    full_jitter,
)
from repro.serving.registry import normalize_key
from repro.workloads.queries import RandomRangeQueryGenerator, labelled_feedback
from repro.workloads.synthetic import gaussian_dataset

PARITY = 1e-12


@pytest.fixture(scope="module")
def workload():
    dataset = gaussian_dataset(1200, dimension=2, correlation=0.5, seed=41)
    generator = RandomRangeQueryGenerator(dataset.domain, seed=42)
    feedback = labelled_feedback(generator.generate(50), dataset.rows)
    probes = RandomRangeQueryGenerator(dataset.domain, seed=43).generate(25)
    trainer = QuickSel(dataset.domain, QuickSelConfig(random_seed=4))
    trainer.observe_many(feedback, refit=True)
    return dataset, feedback, probes, trainer


class FakeClock:
    """A controllable monotonic clock for breaker/supervisor tests."""

    def __init__(self, start: float = 100.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# Jitter and circuit breaker units
# ----------------------------------------------------------------------
class TestJitter:
    def test_full_jitter_spans_the_envelope(self):
        rng = random.Random(7)
        for attempt in range(6):
            for _ in range(50):
                delay = full_jitter(0.1, attempt, rng)
                assert 0.0 <= delay <= 0.1 * 2.0**attempt

    def test_equal_jitter_keeps_a_floor_and_honours_cap(self):
        rng = random.Random(7)
        for attempt in range(8):
            envelope = min(2.0, 0.5 * 2.0**attempt)
            for _ in range(50):
                delay = equal_jitter(0.5, attempt, rng, cap=2.0)
                assert envelope / 2.0 <= delay <= envelope

    def test_validation(self):
        rng = random.Random(0)
        with pytest.raises(NetError):
            full_jitter(-1.0, 0, rng)
        with pytest.raises(NetError):
            full_jitter(1.0, -1, rng)
        with pytest.raises(NetError):
            equal_jitter(-1.0, 0, rng)


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=3, cooldown_seconds=1.0, clock=clock
        )
        assert breaker.allow()
        assert breaker.record_failure() is False
        assert breaker.record_failure() is False
        assert breaker.record_failure() is True  # this one opened it
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        assert breaker.opens == 1

    def test_success_resets_the_failure_streak(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=2, cooldown_seconds=1.0, clock=clock
        )
        breaker.record_failure()
        breaker.record_success()
        assert breaker.record_failure() is False  # streak restarted
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_admits_one_probe_then_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_seconds=1.0, clock=clock
        )
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(1.1)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow()  # the single probe slot
        assert not breaker.allow()  # everyone else keeps failing fast
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_failed_probe_reopens_and_restarts_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_seconds=1.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(1.1)
        assert breaker.allow()
        assert breaker.record_failure() is True
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opens == 2
        clock.advance(0.5)
        assert not breaker.allow()  # cooldown restarted at probe failure

    def test_reset_and_validation(self):
        breaker = CircuitBreaker(failure_threshold=1)
        breaker.record_failure()
        breaker.reset()
        assert breaker.state == CircuitBreaker.CLOSED
        with pytest.raises(NetError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(NetError):
            CircuitBreaker(cooldown_seconds=0.0)


# ----------------------------------------------------------------------
# CheckpointStore
# ----------------------------------------------------------------------
def _bundle(key, marker: int) -> dict:
    return {"key": key, "trainer": b"t", "marker": marker}


class TestCheckpointStore:
    def test_save_latest_and_version_monotonicity(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=3)
        key = normalize_key("orders", ())
        store.save(_bundle(key, 1))
        store.save(_bundle(key, 2))
        assert store.versions(key) == (1, 2)
        assert store.latest(key)["marker"] == 2
        assert store.latest(normalize_key("ghost", ())) is None

    def test_prunes_to_keep(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=2)
        key = normalize_key("orders", ())
        for marker in range(5):
            store.save(_bundle(key, marker))
        assert store.versions(key) == (4, 5)
        assert store.latest(key)["marker"] == 4

    def test_corrupt_newest_falls_back_to_older_version(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=3)
        key = normalize_key("orders", ())
        store.save(_bundle(key, 1))
        newest = store.save(_bundle(key, 2))
        newest.write_bytes(b"\x80garbage")  # crash-truncated write
        assert store.latest(key)["marker"] == 1

    def test_discard_drops_every_version(self, tmp_path):
        store = CheckpointStore(tmp_path)
        key = normalize_key("orders", ())
        store.save(_bundle(key, 1))
        store.save(_bundle(key, 2))
        assert store.discard(key) == 2
        assert store.latest(key) is None
        assert store.discard(key) == 0

    def test_latest_bundles_yields_one_per_key(self, tmp_path):
        store = CheckpointStore(tmp_path)
        orders, parts = normalize_key("orders", ()), normalize_key("parts", ())
        store.save(_bundle(orders, 1))
        store.save(_bundle(orders, 2))
        store.save(_bundle(parts, 3))
        markers = {b["marker"] for b in store.latest_bundles()}
        assert markers == {2, 3}

    def test_validation(self, tmp_path):
        with pytest.raises(NetError):
            CheckpointStore(tmp_path, keep=0)
        store = CheckpointStore(tmp_path)
        with pytest.raises(NetError, match="ModelKey"):
            store.save({"trainer": b"t"})


# ----------------------------------------------------------------------
# Worker checkpoint / restore (in-thread servers)
# ----------------------------------------------------------------------
class TestWorkerCheckpointing:
    def test_restore_serves_checkpointed_state_exactly(
        self, tmp_path, workload
    ):
        _, feedback, probes, trainer = workload
        ckpt = str(tmp_path / "w1")
        server = WorkerServer(shard_id="w1", checkpoint_dir=ckpt)
        server.start()
        client = connect("127.0.0.1", server.port)
        try:
            client.register_model("orders", copy.deepcopy(trainer))
            for predicate, selectivity in feedback[:5]:
                client.observe("orders", predicate, selectivity)
            assert server.checkpoint_all() == 1
            expected = client.estimate_batch("orders", probes)
            count = client.feedback_count("orders")
        finally:
            client.close()
            server.close()
        respawn = WorkerServer(shard_id="w1", checkpoint_dir=ckpt)
        respawn.start()
        client = connect("127.0.0.1", respawn.port)
        try:
            restored = client.estimate_batch("orders", probes)
            assert np.max(np.abs(restored - expected)) <= PARITY
            assert client.feedback_count("orders") == count == 55
            counters = respawn.worker.stats.counters()
            assert counters["checkpoint_restores"] == 1
        finally:
            client.close()
            respawn.close()

    def test_checkpoint_every_policy_triggers_automatically(
        self, tmp_path, workload
    ):
        _, feedback, _, trainer = workload
        server = WorkerServer(
            shard_id="w1",
            checkpoint_dir=str(tmp_path / "w1"),
            checkpoint_every=3,
        )
        server.start()
        client = connect("127.0.0.1", server.port)
        try:
            key = client.register_model("orders", copy.deepcopy(trainer))
            taken_at_register = server.worker.stats.counters()[
                "checkpoints_taken"
            ]
            assert taken_at_register >= 1  # registration checkpoints
            for predicate, selectivity in feedback[:3]:
                client.observe("orders", predicate, selectivity)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                taken = server.worker.stats.counters()["checkpoints_taken"]
                if taken > taken_at_register:
                    break
                time.sleep(0.02)
            assert (
                server.worker.stats.counters()["checkpoints_taken"]
                > taken_at_register
            )
            latest = server.checkpoints.latest(key)
            assert latest["feedback_count"] == 53
        finally:
            client.close()
            server.close()

    def test_close_checkpoints_dirty_keys(self, tmp_path, workload):
        _, feedback, _, trainer = workload
        ckpt = str(tmp_path / "w1")
        server = WorkerServer(
            shard_id="w1", checkpoint_dir=ckpt, checkpoint_every=10_000
        )
        server.start()
        client = connect("127.0.0.1", server.port)
        client.register_model("orders", copy.deepcopy(trainer))
        for predicate, selectivity in feedback[:4]:
            client.observe("orders", predicate, selectivity)
        client.close()
        server.close()  # must flush the 4 un-checkpointed writes
        respawn = WorkerServer(shard_id="w1", checkpoint_dir=ckpt)
        try:
            key = normalize_key("orders", ())
            assert respawn.worker.service.feedback_count(key) == 54
        finally:
            respawn.close()

    def test_failed_close_checkpoint_is_counted(self, tmp_path, workload):
        _, feedback, _, trainer = workload

        class FailingStore(CheckpointStore):
            def save(self, bundle):
                raise OSError("disk full")

        server = WorkerServer(
            shard_id="w1",
            checkpoint_dir=str(tmp_path / "w1"),
            checkpoint_every=10_000,
        )
        server.start()
        client = connect("127.0.0.1", server.port)
        client.register_model("orders", copy.deepcopy(trainer))
        client.observe("orders", *feedback[0])
        client.close()
        server._checkpoints = FailingStore(tmp_path / "w1")
        server.close()  # the dirty key's save fails; close still completes
        assert server.wait(0)
        assert server.worker.stats.counters()["checkpoint_failures"] == 1

    def test_unregister_discards_durable_state(self, tmp_path, workload):
        _, _, _, trainer = workload
        ckpt = str(tmp_path / "w1")
        server = WorkerServer(shard_id="w1", checkpoint_dir=ckpt)
        server.start()
        client = connect("127.0.0.1", server.port)
        try:
            key = client.register_model("orders", copy.deepcopy(trainer))
            assert server.checkpoints.latest(key) is not None
            client.unregister_model("orders")
            assert server.checkpoints.latest(key) is None
        finally:
            client.close()
            server.close()
        respawn = WorkerServer(shard_id="w1", checkpoint_dir=ckpt)
        try:
            assert respawn.worker.model_keys() == ()
        finally:
            respawn.close()

    def test_checkpoint_wire_method(self, tmp_path, workload):
        _, _, _, trainer = workload
        server = WorkerServer(
            shard_id="w1", checkpoint_dir=str(tmp_path / "w1")
        )
        server.start()
        client = RemoteSelectivityService("127.0.0.1", server.port)
        try:
            client.register_model("orders", copy.deepcopy(trainer))
            assert client._call("checkpoint") == 1
            key = normalize_key("orders", ())
            assert client._call("checkpoint", {"table": key}) == 1
        finally:
            client.close()
            server.close()

    def test_checkpointless_worker_is_unchanged(self, workload):
        _, _, _, trainer = workload
        server = WorkerServer(shard_id="w1")
        server.start()
        try:
            assert server.checkpoints is None
            assert server.checkpoint_all() == 0
        finally:
            server.close()

    def test_config_validation(self, tmp_path):
        with pytest.raises(NetError):
            WorkerServer(checkpoint_dir=str(tmp_path), checkpoint_every=0)
        with pytest.raises(NetError):
            WorkerServer(checkpoint_dir=str(tmp_path), checkpoint_interval=0.0)


# ----------------------------------------------------------------------
# Gateway: degraded reads, write buffering, breaker integration, resync
# ----------------------------------------------------------------------
@pytest.fixture
def durable_fleet(tmp_path, workload):
    """Two checkpointing in-thread workers behind a buffering gateway."""
    _, _, _, trainer = workload
    workers = {}
    for name in ("w1", "w2"):
        server = WorkerServer(
            shard_id=name, checkpoint_dir=str(tmp_path / name)
        )
        server.start()
        workers[name] = server
    gateway_server = GatewayServer(
        {name: ("127.0.0.1", server.port) for name, server in workers.items()},
        retry_backoff=0.01,
        max_retries=1,
        write_buffer_capacity=8,
    )
    gateway_server.start()
    client = connect(*gateway_server.address)
    client.register_model("orders", copy.deepcopy(trainer))
    owner = gateway_server.gateway.router.route(client.key_for("orders"))
    yield workers, gateway_server, client, owner, tmp_path
    client.close()
    gateway_server.close()
    for server in workers.values():
        server.close()


class TestGatewayDegradedServing:
    def test_reads_survive_a_dead_owner_via_snapshot_cache(
        self, durable_fleet, workload
    ):
        _, _, probes, _ = workload
        workers, server, client, owner, _ = durable_fleet
        expected = client.estimate_batch("orders", probes)
        workers[owner].close()
        degraded = client.estimate_batch("orders", probes)
        # Stale, not fabricated: the cached snapshot is the exact model
        # the owner was serving, so values match to parity.
        assert np.max(np.abs(degraded - expected)) <= PARITY
        scalar = client.estimate("orders", probes[0])
        assert abs(scalar - expected[0]) <= PARITY
        counters = server.gateway.stats.counters()
        assert counters["degraded_estimates"] >= len(probes) + 1

    def test_mixed_batch_degrades_only_the_dead_owners_slice(
        self, durable_fleet, workload
    ):
        _, _, probes, trainer = workload
        workers, server, client, owner, _ = durable_fleet
        client.register_model("parts", copy.deepcopy(trainer))
        other_owner = server.gateway.router.route(client.key_for("parts"))
        pairs = [(table, probe) for probe in probes[:10]
                 for table in ("orders", "parts")]
        expected = client.estimate_batch_mixed(pairs)
        workers[owner].close()
        mixed = client.estimate_batch_mixed(pairs)
        assert np.max(np.abs(mixed - expected)) <= PARITY
        if other_owner != owner:
            # The live worker's slice was served live, not degraded.
            live = server.gateway.stats.counters()["degraded_estimates"]
            assert live < len(pairs)

    def test_prior_answers_when_no_snapshot_was_ever_cached(
        self, durable_fleet, workload
    ):
        _, _, probes, _ = workload
        workers, server, client, owner, _ = durable_fleet
        workers[owner].close()
        server.gateway._snapshots.clear()  # as if register's refresh failed
        value = client.estimate("orders", probes[0])
        assert value == pytest.approx(0.5)  # the default degraded prior

    def test_degraded_reads_off_surfaces_the_failure(self, workload):
        _, _, probes, trainer = workload
        worker = WorkerServer(shard_id="w1")
        worker.start()
        server = GatewayServer(
            {"w1": ("127.0.0.1", worker.port)},
            retry_backoff=0.01,
            max_retries=0,
            degraded_reads=False,
        )
        server.start()
        client = connect(*server.address)
        try:
            client.register_model("orders", copy.deepcopy(trainer))
            worker.close()
            with pytest.raises(WorkerUnavailableError):
                client.estimate("orders", probes[0])
        finally:
            client.close()
            server.close()
            worker.close()

    def test_breaker_opens_and_is_reported_in_fleet_stats(
        self, durable_fleet, workload
    ):
        _, _, probes, _ = workload
        workers, server, client, owner, _ = durable_fleet
        workers[owner].close()
        for _ in range(6):  # enough failures to trip the threshold of 5
            client.estimate("orders", probes[0])
        breaker = server.gateway.breakers[owner]
        assert breaker.state == CircuitBreaker.OPEN
        view = client.fleet_stats()
        assert view["breakers"][owner] == CircuitBreaker.OPEN
        assert view["gateway"]["breaker_opens"] >= 1
        # Open breaker means reads fail fast into the degraded path
        # instead of re-dialling the dead worker.
        start = time.monotonic()
        client.estimate("orders", probes[0])
        assert time.monotonic() - start < 0.5


class TestGatewayWriteBuffering:
    def test_outage_writes_are_acked_buffered_and_replayed(
        self, durable_fleet, workload
    ):
        _, feedback, _, _ = workload
        workers, server, client, owner, tmp = durable_fleet
        for predicate, selectivity in feedback[:5]:
            client.observe("orders", predicate, selectivity)
        workers[owner].checkpoint_all()  # durable at 55
        for predicate, selectivity in feedback[5:7]:
            client.observe("orders", predicate, selectivity)
        workers[owner].close()
        # close() checkpointed the dirty key on the way out; a SIGKILL
        # would not have — drop that final version so the newest durable
        # state is the forced checkpoint at 55, with 2 acknowledged
        # writes existing only in the gateway's journal.
        newest = sorted((tmp / owner).glob("*/ckpt-*.pkl"))[-1]
        newest.unlink()
        for predicate, selectivity in feedback[7:10]:
            assert client.observe("orders", predicate, selectivity)  # buffered
        counters = server.gateway.stats.counters()
        assert counters["buffered_writes"] == 3
        # Respawn on the same checkpoint directory: boots at 55.
        respawn = WorkerServer(
            shard_id=owner, checkpoint_dir=str(tmp / owner)
        )
        respawn.start()
        workers[owner] = respawn
        client.set_worker_address(owner, "127.0.0.1", respawn.port)
        result = client.resync_worker(owner)
        # 2 acknowledged-after-checkpoint writes re-delivered from the
        # journal + 3 outage writes replayed: no acknowledged feedback
        # was lost.
        assert result == {"keys": 1, "replayed": 5, "lost": 0}
        assert client.feedback_count("orders") == 60
        counters = server.gateway.stats.counters()
        assert counters["buffered_writes_replayed"] == 5
        assert counters["lost_writes"] == 0
        assert counters["checkpoint_restores"] >= 1

    def test_full_buffer_stops_acknowledging(self, workload):
        _, feedback, _, trainer = workload
        worker = WorkerServer(shard_id="w1")
        worker.start()
        server = GatewayServer(
            {"w1": ("127.0.0.1", worker.port)},
            retry_backoff=0.01,
            max_retries=0,
            write_buffer_capacity=2,
        )
        server.start()
        client = connect(*server.address)
        try:
            client.register_model("orders", copy.deepcopy(trainer))
            worker.close()
            for predicate, selectivity in feedback[:2]:
                assert client.observe("orders", predicate, selectivity)
            predicate, selectivity = feedback[2]
            with pytest.raises(WorkerUnavailableError, match="pending"):
                client.observe("orders", predicate, selectivity)
        finally:
            client.close()
            server.close()
            worker.close()

    def test_zero_capacity_keeps_strict_ack_semantics(self, workload):
        _, feedback, _, trainer = workload
        worker = WorkerServer(shard_id="w1")
        worker.start()
        server = GatewayServer(
            {"w1": ("127.0.0.1", worker.port)},
            retry_backoff=0.01,
            max_retries=0,
        )
        server.start()
        client = connect(*server.address)
        try:
            client.register_model("orders", copy.deepcopy(trainer))
            worker.close()
            predicate, selectivity = feedback[0]
            with pytest.raises(WorkerUnavailableError):
                client.observe("orders", predicate, selectivity)
        finally:
            client.close()
            server.close()
            worker.close()

    def test_health_loop_replays_buffered_writes_on_recovery(
        self, tmp_path, workload
    ):
        _, feedback, _, trainer = workload
        ckpt = str(tmp_path / "w1")
        worker = WorkerServer(shard_id="w1", checkpoint_dir=ckpt)
        worker.start()
        port = worker.port
        server = GatewayServer(
            {"w1": ("127.0.0.1", port)},
            retry_backoff=0.01,
            max_retries=0,
            write_buffer_capacity=8,
            health_interval=0.05,
            breaker_cooldown=0.1,
        )
        server.start()
        client = connect(*server.address)
        respawned = None
        try:
            client.register_model("orders", copy.deepcopy(trainer))
            worker.close()
            for predicate, selectivity in feedback[:3]:
                assert client.observe("orders", predicate, selectivity)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if server.gateway.stats.counters()["health_failures"]:
                    break
                time.sleep(0.02)
            assert server.gateway.stats.counters()["health_failures"] >= 1
            # Rebind on the SAME port: the health loop's next successful
            # ping replays the buffer without any explicit admin call.
            deadline = time.monotonic() + 10.0
            while True:
                try:
                    respawned = WorkerServer(
                        port=port, shard_id="w1", checkpoint_dir=ckpt
                    )
                    break
                except OSError:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.05)
            respawned.start()
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                counters = server.gateway.stats.counters()
                if counters["buffered_writes_replayed"] >= 3:
                    break
                time.sleep(0.05)
            assert (
                server.gateway.stats.counters()["buffered_writes_replayed"]
                >= 3
            )
            assert client.feedback_count("orders") == 53
        finally:
            client.close()
            server.close()
            worker.close()
            if respawned is not None:
                respawned.close()

    def test_drain_with_a_dead_worker_spares_the_budget(
        self, durable_fleet
    ):
        """Regression: one dead worker must not burn the whole drain
        budget — the live workers drain and the dead one is reported."""
        workers, _, client, owner, _ = durable_fleet
        workers[owner].close()
        start = time.monotonic()
        with pytest.raises(ServingError, match="unreachable"):
            client.drain(timeout=30.0)
        assert time.monotonic() - start < 10.0


# ----------------------------------------------------------------------
# FleetSupervisor (stub processes, injected clock)
# ----------------------------------------------------------------------
class StubProcess:
    def __init__(self, shard_id="s1", port=9001):
        self.shard_id = shard_id
        self.address = ("127.0.0.1", port)
        self.alive = True
        self.exitcode = None
        self.joined = False

    def join(self, timeout=None):
        self.joined = True


class StubGateway:
    def __init__(self):
        self.repoints = []
        self.resyncs = []

    def set_worker_address(self, name, host, port):
        self.repoints.append((name, host, port))

    def resync_worker(self, name):
        self.resyncs.append(name)


class TestFleetSupervisor:
    def _supervisor(self, gateway=None, **kwargs):
        clock = FakeClock()
        kwargs.setdefault("rng", random.Random(0))
        kwargs.setdefault("backoff_base", 1.0)
        kwargs.setdefault("backoff_cap", 8.0)
        kwargs.setdefault("stable_seconds", 10.0)
        return FleetSupervisor(gateway=gateway, clock=clock, **kwargs), clock

    def test_first_respawn_is_immediate_and_repoints(self):
        gateway = StubGateway()
        supervisor, clock = self._supervisor(gateway)
        process = StubProcess(port=9001)
        replacement = StubProcess(port=9002)
        supervisor.manage(process, lambda: replacement, name="s1")
        assert supervisor.check_once() == []
        process.alive = False
        events = supervisor.check_once()
        kinds = [event["event"] for event in events]
        assert kinds == ["died", "respawned"]
        assert process.joined  # the corpse was reaped
        assert gateway.repoints == [("s1", "127.0.0.1", 9002)]
        assert gateway.resyncs == ["s1"]
        status = supervisor.status()["s1"]
        assert status["alive"] and status["restarts"] == 1

    def test_crash_loop_backs_off_then_gives_up(self):
        supervisor, clock = self._supervisor(StubGateway(), max_restarts=2)
        crashed = []

        def factory():
            process = StubProcess(port=9000 + len(crashed))
            crashed.append(process)
            return process

        first = StubProcess()
        supervisor.manage(first, factory, name="s1")
        first.alive = False
        supervisor.check_once()  # death 1 → immediate respawn
        assert len(crashed) == 1
        crashed[-1].alive = False
        events = supervisor.check_once()  # death 2 → scheduled, not run
        assert [e["event"] for e in events] == ["died"]
        assert len(crashed) == 1
        status = supervisor.status()["s1"]
        assert status["retry_in"] > 0.0  # backoff window is real
        clock.advance(9.0)  # beyond the capped envelope
        events = supervisor.check_once()
        assert [e["event"] for e in events] == ["respawned"]
        assert len(crashed) == 2
        crashed[-1].alive = False
        events = supervisor.check_once()  # death 3 > max_restarts → done
        assert [e["event"] for e in events] == ["died", "gave_up"]
        assert supervisor.status()["s1"]["given_up"]
        assert supervisor.check_once() == []  # no further respawn attempts
        assert len(crashed) == 2

    def test_stable_uptime_resets_the_failure_count(self):
        supervisor, clock = self._supervisor(StubGateway(), max_restarts=2)
        replacement = StubProcess(port=9002)
        process = StubProcess()
        supervisor.manage(process, lambda: replacement, name="s1")
        process.alive = False
        supervisor.check_once()
        assert supervisor.status()["s1"]["failures"] == 1
        clock.advance(11.0)  # past stable_seconds, still alive
        supervisor.check_once()
        assert supervisor.status()["s1"]["failures"] == 0

    def test_reset_clears_given_up_state(self):
        supervisor, clock = self._supervisor(StubGateway(), max_restarts=1)
        spawned = []

        def factory():
            process = StubProcess(port=9100 + len(spawned))
            spawned.append(process)
            return process

        process = StubProcess()
        supervisor.manage(process, factory, name="s1")
        process.alive = False
        supervisor.check_once()
        spawned[-1].alive = False
        supervisor.check_once()
        assert supervisor.status()["s1"]["given_up"]
        supervisor.reset("s1")
        events = supervisor.check_once()
        assert [e["event"] for e in events] == ["respawned"]

    def test_factory_failure_is_an_event_not_a_crash(self):
        events_seen = []
        supervisor, clock = self._supervisor(
            StubGateway(), max_restarts=3, on_event=events_seen.append
        )
        process = StubProcess()
        supervisor.manage(
            process,
            lambda: (_ for _ in ()).throw(OSError("no ports")),
            name="s1",
        )
        process.alive = False
        events = supervisor.check_once()
        assert [e["event"] for e in events] == ["died", "respawn_failed"]
        assert any(e["event"] == "respawn_failed" for e in events_seen)
        assert supervisor.status()["s1"]["last_error"] is not None

    def test_reap_failure_is_recorded_and_the_worker_still_respawns(self):
        events_seen = []
        gateway = StubGateway()
        supervisor, _ = self._supervisor(gateway, on_event=events_seen.append)
        process = StubProcess(port=9001)

        def broken_join(timeout=None):
            raise OSError("reap failed")

        process.join = broken_join
        supervisor.manage(process, lambda: StubProcess(port=9002), name="s1")
        process.alive = False
        events = supervisor.check_once()
        assert [e["event"] for e in events] == ["died", "reap_failed", "respawned"]
        reap = events[1]
        assert reap["worker"] == "s1" and "reap failed" in reap["error"]
        assert reap in events_seen
        status = supervisor.status()["s1"]
        assert "reap failed" in status["last_error"]
        assert status["alive"] and status["address"] == ("127.0.0.1", 9002)
        assert status["restarts"] == 1
        assert gateway.repoints == [("s1", "127.0.0.1", 9002)]

    def test_registration_validation(self):
        supervisor, _ = self._supervisor(None)
        process = StubProcess()
        supervisor.manage(process, StubProcess, name="s1")
        with pytest.raises(NetError, match="already supervised"):
            supervisor.manage(process, StubProcess, name="s1")
        with pytest.raises(NetError, match="unknown supervised"):
            supervisor.reset("ghost")
        supervisor.forget("s1")
        supervisor.manage(process, StubProcess, name="s1")
        with pytest.raises(NetError):
            FleetSupervisor(poll_interval=0.0)
        with pytest.raises(NetError):
            FleetSupervisor(max_restarts=0)

    def test_background_loop_respawns_a_real_death(self):
        gateway = StubGateway()
        supervisor = FleetSupervisor(
            gateway=gateway,
            poll_interval=0.02,
            backoff_base=0.01,
            backoff_cap=0.05,
        )
        process = StubProcess(port=9001)
        replacement = StubProcess(port=9002)
        supervisor.manage(process, lambda: replacement, name="s1")
        supervisor.start()
        with pytest.raises(NetError, match="already started"):
            supervisor.start()
        try:
            process.alive = False
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if supervisor.status()["s1"]["restarts"]:
                    break
                time.sleep(0.02)
            assert supervisor.status()["s1"]["restarts"] == 1
            assert gateway.repoints == [("s1", "127.0.0.1", 9002)]
        finally:
            supervisor.close()


# ----------------------------------------------------------------------
# Chaos proxy and schedule
# ----------------------------------------------------------------------
class TestChaos:
    def test_clean_proxy_relays_the_protocol(self, workload):
        _, _, probes, trainer = workload
        worker = WorkerServer(shard_id="w1")
        worker.start()
        try:
            with ChaosProxy("127.0.0.1", worker.port, seed=1) as proxy:
                client = connect(*proxy.address)
                client.register_model("orders", copy.deepcopy(trainer))
                direct = RemoteSelectivityService("127.0.0.1", worker.port)
                via_proxy = client.estimate_batch("orders", probes)
                live = direct.estimate_batch("orders", probes)
                assert np.max(np.abs(via_proxy - live)) <= PARITY
                assert proxy.counters()["connections_accepted"] >= 1
                client.close()
                direct.close()
        finally:
            worker.close()

    def test_connect_drop_rejects_new_connections(self, workload):
        worker = WorkerServer(shard_id="w1")
        worker.start()
        try:
            with ChaosProxy(
                "127.0.0.1", worker.port, seed=2, connect_drop_rate=1.0
            ) as proxy:
                client = RemoteSelectivityService(
                    *proxy.address, max_retries=0
                )
                with pytest.raises((WorkerUnavailableError, NetError)):
                    client.ping(timeout=5.0)
                assert proxy.counters()["connections_dropped"] >= 1
                client.close()
        finally:
            worker.close()

    def test_sever_all_cuts_live_streams_then_heals(self, workload):
        worker = WorkerServer(shard_id="w1")
        worker.start()
        try:
            with ChaosProxy("127.0.0.1", worker.port, seed=3) as proxy:
                client = RemoteSelectivityService(
                    *proxy.address, max_retries=2, retry_backoff=0.01
                )
                assert client.ping() == "pong"
                assert proxy.sever_all() >= 1
                # The read path retries through a fresh connection.
                assert client.ping() == "pong"
                assert proxy.counters()["connections_severed"] >= 1
                client.close()
        finally:
            worker.close()

    def test_delay_range_slows_frames(self, workload):
        worker = WorkerServer(shard_id="w1")
        worker.start()
        try:
            with ChaosProxy(
                "127.0.0.1",
                worker.port,
                seed=4,
                delay_range=(0.05, 0.05),
            ) as proxy:
                client = RemoteSelectivityService(*proxy.address)
                start = time.monotonic()
                assert client.ping() == "pong"
                assert time.monotonic() - start >= 0.05
                assert proxy.counters()["chunks_delayed"] >= 1
                client.close()
        finally:
            worker.close()

    def test_runtime_reconfiguration_and_validation(self, workload):
        worker = WorkerServer(shard_id="w1")
        worker.start()
        try:
            proxy = ChaosProxy(
                "127.0.0.1", worker.port, seed=5, connect_drop_rate=1.0
            )
            try:
                proxy.heal()
                client = connect(*proxy.address)
                assert client.ping() == "pong"
                client.close()
                with pytest.raises(NetError):
                    proxy.configure(connect_drop_rate=1.5)
                with pytest.raises(NetError):
                    proxy.configure(delay_range=(0.2, 0.1))
            finally:
                proxy.close()
            with pytest.raises(NetError):
                ChaosProxy("127.0.0.1", worker.port, chunk_size=0)
        finally:
            worker.close()

    def test_schedule_is_deterministic_per_seed(self):
        first = ChaosSchedule(seed=9, mean_interval=2.0, jitter=0.5)
        second = ChaosSchedule(seed=9, mean_interval=2.0, jitter=0.5)
        delays = [first.next_delay() for _ in range(20)]
        assert delays == [second.next_delay() for _ in range(20)]
        assert all(1.0 <= delay <= 3.0 for delay in delays)
        with pytest.raises(NetError):
            ChaosSchedule(mean_interval=0.0)
        with pytest.raises(NetError):
            ChaosSchedule(jitter=2.0)


# ----------------------------------------------------------------------
# Process-level: terminate escalation and the full recovery loop
# ----------------------------------------------------------------------
class _WedgedChild:
    """A child that shrugs off SIGTERM until it is SIGKILLed."""

    def __init__(self):
        self.terminated = False
        self.killed = False
        self.exitcode = None

    def terminate(self):
        self.terminated = True  # ignored: still alive

    def kill(self):
        self.killed = True
        self.exitcode = -signal.SIGKILL

    def join(self, timeout=None):
        pass

    def is_alive(self):
        return not self.killed


class TestProcessFaults:
    def test_terminate_reaps_a_cooperative_child(self):
        process = WorkerProcess(shard_id="brief")
        exitcode = process.terminate(timeout=10.0)
        assert exitcode is not None
        assert not process.alive

    def test_terminate_escalates_to_kill_for_a_wedged_child(self):
        # A real child honouring SIGTERM never exercises the escalation
        # branch, so wedge a stub: terminate() is ignored and only
        # kill() lands — terminate(timeout=) must fall through to it.
        process = WorkerProcess.__new__(WorkerProcess)
        process._shard_id = "wedged"
        process._host, process._port = "127.0.0.1", 0
        child = _WedgedChild()
        process._process = child
        exitcode = process.terminate(timeout=0.05)
        assert child.terminated and child.killed
        assert exitcode == -signal.SIGKILL

    def test_sigkill_supervised_worker_recovers_exact_state(
        self, tmp_path, workload
    ):
        """The tentpole loop end to end: SIGKILL a real worker process,
        the supervisor respawns it from its checkpoints, repoints the
        gateway, resyncs the journal — restored estimates match and no
        acknowledged feedback is lost."""
        _, feedback, probes, trainer = workload
        ckpt = str(tmp_path / "w1")
        processes = {}

        def spawn():
            process = WorkerProcess(
                shard_id="w1", checkpoint_dir=ckpt, checkpoint_every=4
            )
            processes["w1"] = process
            return process

        process = spawn()
        server = GatewayServer(
            {"w1": process.address},
            retry_backoff=0.05,
            write_buffer_capacity=16,
        )
        server.start()
        client = connect(*server.address)
        supervisor = FleetSupervisor(
            gateway=server,
            poll_interval=0.05,
            backoff_base=0.05,
            backoff_cap=0.5,
            stable_seconds=30.0,
        )
        supervisor.manage(process, spawn, name="w1")
        supervisor.start()
        try:
            client.register_model("orders", copy.deepcopy(trainer))
            for predicate, selectivity in feedback[:8]:
                client.observe("orders", predicate, selectivity)
            expected = client.estimate_batch("orders", probes)
            assert client.feedback_count("orders") == 58
            process.kill()  # SIGKILL mid-service
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if supervisor.status()["w1"]["restarts"] >= 1:
                    break
                time.sleep(0.05)
            assert supervisor.status()["w1"]["restarts"] >= 1
            # The respawned child restored its checkpoints and the
            # supervisor resynced the journal: exact state, no loss.
            deadline = time.monotonic() + 30.0
            count = -1
            while time.monotonic() < deadline:
                try:
                    count = client.feedback_count("orders")
                except (WorkerUnavailableError, NetError):
                    time.sleep(0.1)
                    continue
                if count == 58:
                    break
                time.sleep(0.1)
            assert count == 58
            restored = client.estimate_batch("orders", probes)
            assert np.max(np.abs(restored - expected)) <= PARITY
            counters = server.gateway.stats.counters()
            assert counters["checkpoint_restores"] >= 1
            assert counters["lost_writes"] == 0
        finally:
            supervisor.close()
            client.close()
            server.close()
            for child in processes.values():
                try:
                    child.request_shutdown()
                except Exception:
                    child.terminate()
