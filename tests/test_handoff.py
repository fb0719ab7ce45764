"""One hand-off bundle and one fleet rollup, checked across every route.

A key's serving state — trainer, drift window, A/B error windows,
lifetime error totals, challenger and ``shadow_frac`` — leaves a shard
as one :meth:`~repro.cluster.shard.ShardWorker.export_key` /
:meth:`~repro.cluster.shard.ShardWorker.capture_key` bundle whichever
route it takes: an in-process resize, a socket migration between two
worker servers, or a checkpoint restored on a fresh worker.  Each route
must land the same state, including observations that raced the
withdrawal.  The fleet counters must likewise read the
same whether the fleet is in-process shards or socket workers behind a
gateway.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.cluster import (
    BufferedObservation,
    ShardedSelectivityService,
    ShardRouter,
    ShardWorker,
)
from repro.core.config import QuickSelConfig
from repro.core.quicksel import QuickSel
from repro.net import GatewayServer, WorkerServer, connect
from repro.serving.registry import normalize_key
from repro.workloads.queries import RandomRangeQueryGenerator, labelled_feedback
from repro.workloads.synthetic import gaussian_dataset

PARITY = 1e-12
TABLES = ("orders", "parts", "supplies")


@pytest.fixture(scope="module")
def workload():
    dataset = gaussian_dataset(1200, dimension=2, correlation=0.5, seed=71)
    generator = RandomRangeQueryGenerator(dataset.domain, seed=72)
    feedback = labelled_feedback(generator.generate(70), dataset.rows)
    probes = RandomRangeQueryGenerator(dataset.domain, seed=73).generate(20)
    champion = QuickSel(dataset.domain, QuickSelConfig(random_seed=0))
    champion.observe_many(feedback[:40], refit=True)
    challenger = QuickSel(dataset.domain, QuickSelConfig(random_seed=1))
    challenger.observe_many(feedback[:20], refit=True)
    return feedback, probes, champion, challenger


def _load(worker, workload):
    """Serve one key with a challenger on ``worker`` and feed it."""
    feedback, _, champion, challenger = workload
    key = worker.register_model("orders", copy.deepcopy(champion))
    worker.register_challenger(key, copy.deepcopy(challenger), shadow_frac=0.5)
    for predicate, selectivity in feedback[40:70]:
        worker.observe(key, predicate, selectivity)
    worker.drain()
    # More errors than an A/B window keeps, so the lifetime totals hold
    # history that replaying the windows alone cannot rebuild.
    for _, backend in list(worker.stats.backend_error_windows()):
        worker.stats.record_backend_errors(
            key, backend, [0.01 * (index % 7) for index in range(600)]
        )
    return key


def _state(worker, key, probes):
    service = worker.service
    model = str(key)
    return {
        "estimates": worker.snapshot_for(key).estimate_many(probes),
        "challenger_estimates": (
            worker.challenger_snapshot_for(key).estimate_many(probes)
        ),
        "feedback_count": worker.feedback_count(key),
        "drift_errors": service.drift_errors(key),
        "challenger_errors": service.challenger_drift_errors(key),
        "shadow_frac": service.challenger_shadow_frac(key),
        "backend_windows": {
            scope: window
            for scope, window in worker.stats.backend_error_windows().items()
            if scope[0] == model
        },
        "lifetime_totals": {
            scope: totals
            for scope, totals in worker.stats.lifetime_error_totals().items()
            if scope[0] == model
        },
    }


def _via_add_shard(workload):
    key = normalize_key("orders")
    new_id = next(
        f"s{index}"
        for index in range(1000)
        if ShardRouter(["s-source", f"s{index}"]).route(key) == f"s{index}"
    )
    cluster = ShardedSelectivityService(
        shard_ids=["s-source"], scheduler_mode="inline"
    )
    try:
        _load(cluster.shard("s-source"), workload)
        before = _state(cluster.shard("s-source"), key, workload[1])
        cluster.add_shard(new_id)
        assert cluster.shard("s-source").model_keys() == ()
        after = _state(cluster.shard(new_id), key, workload[1])
    finally:
        cluster.close()
    return before, after


def _via_socket_migration(workload):
    source = WorkerServer(shard_id="src", scheduler_mode="inline")
    dest = WorkerServer(shard_id="dst", scheduler_mode="inline")
    source.start()
    dest.start()
    source_client = connect("127.0.0.1", source.port)
    dest_client = connect("127.0.0.1", dest.port)
    try:
        key = _load(source.worker, workload)
        before = _state(source.worker, key, workload[1])
        bundle = source_client._call("migrate_out", {"table": key})
        dest_client._call("migrate_in", {"bundle": bundle})
        assert source.worker.model_keys() == ()
        after = _state(dest.worker, key, workload[1])
    finally:
        source_client.close()
        dest_client.close()
        source.close()
        dest.close()
    return before, after


def _via_checkpoint(workload, directory):
    server = WorkerServer(
        shard_id="w", scheduler_mode="inline", checkpoint_dir=directory
    )
    try:
        key = _load(server.worker, workload)
        before = _state(server.worker, key, workload[1])
        assert server.checkpoint_key(key)
    finally:
        server.close()
    respawn = WorkerServer(
        shard_id="w", scheduler_mode="inline", checkpoint_dir=directory
    )
    try:
        after = _state(respawn.worker, key, workload[1])
    finally:
        respawn.close()
    return before, after


@pytest.mark.parametrize("route", ["add_shard", "migrate", "checkpoint"])
def test_every_route_lands_the_same_key_state(route, workload, tmp_path):
    if route == "add_shard":
        before, after = _via_add_shard(workload)
    elif route == "migrate":
        before, after = _via_socket_migration(workload)
    else:
        before, after = _via_checkpoint(workload, str(tmp_path / "ckpt"))
    # The fed key carries real evidence, so equality below is not vacuous.
    assert before["drift_errors"] and before["challenger_errors"]
    assert before["backend_windows"] and before["lifetime_totals"]
    assert before["shadow_frac"] == 0.5
    for name in ("estimates", "challenger_estimates"):
        assert np.max(np.abs(after[name] - before[name])) <= PARITY
    for name in (
        "feedback_count",
        "drift_errors",
        "challenger_errors",
        "shadow_frac",
        "backend_windows",
        "lifetime_totals",
    ):
        assert after[name] == before[name], name


def test_observations_racing_a_withdrawal_reach_the_destination(
    workload, monkeypatch
):
    feedback, _, champion, _ = workload
    source = ShardWorker("a", scheduler_mode="inline")
    dest = ShardWorker("b", scheduler_mode="inline")
    try:
        key = source.register_model("orders", copy.deepcopy(champion))
        accepted = source.feedback_count(key)
        withdraw = source.unregister_model

        def withdraw_while_an_observe_lands(target):
            backend = withdraw(target)
            # An observe priced before the withdrawal buffers after it.
            source.buffer.append(
                target, BufferedObservation(feedback[50][0], feedback[50][1], 0.5)
            )
            return backend

        monkeypatch.setattr(
            source, "unregister_model", withdraw_while_an_observe_lands
        )
        bundle = source.export_key(key)
        assert len(bundle["leftovers"]) == 1
        dest.install_key(bundle)
        assert dest.feedback_count(key) == accepted + 1
    finally:
        source.close()
        dest.close()


def test_resize_sweeps_observations_that_land_during_install(
    workload, monkeypatch
):
    feedback, _, champion, _ = workload
    cluster = ShardedSelectivityService(num_shards=2, scheduler_mode="inline")
    try:
        key = cluster.register_model("orders", copy.deepcopy(champion))
        source_id = cluster.shard_for(key)
        (dest_id,) = set(cluster.shard_ids) - {source_id}
        source, dest = cluster.shard(source_id), cluster.shard(dest_id)
        accepted = cluster.feedback_count(key)
        install = dest.install_key

        def install_while_an_observe_lands(bundle):
            installed = install(bundle)
            source.buffer.append(
                key, BufferedObservation(feedback[50][0], feedback[50][1], 0.5)
            )
            return installed

        monkeypatch.setattr(dest, "install_key", install_while_an_observe_lands)
        assert cluster.remove_shard(source_id) == 1
        assert cluster.feedback_count(key) == accepted + 1
    finally:
        cluster.close()


def _script(service, feedback, probes, trainers):
    """The same traffic for an in-process cluster and a gateway client."""
    for table, trainer in trainers.items():
        service.register_model(table, copy.deepcopy(trainer))
    for table in TABLES:
        service.estimate_batch(table, probes)
        for predicate in probes[:5]:
            service.estimate(table, predicate)
    service.estimate_batch_mixed(
        [(TABLES[index % 3], predicate) for index, predicate in enumerate(probes)]
    )
    for index, (predicate, selectivity) in enumerate(feedback[40:64]):
        service.observe(TABLES[index % 3], predicate, selectivity)
    service.refit_now("parts")
    service.drain()


def test_cluster_and_gateway_fleets_count_alike(workload):
    feedback, probes, champion, _ = workload
    trainers = dict.fromkeys(TABLES, champion)
    names = ("shard-0", "shard-1")
    cluster = ShardedSelectivityService(shard_ids=names, scheduler_mode="inline")
    workers = {
        name: WorkerServer(shard_id=name, scheduler_mode="inline")
        for name in names
    }
    for server in workers.values():
        server.start()
    gateway = GatewayServer(
        {name: ("127.0.0.1", server.port) for name, server in workers.items()}
    )
    gateway.start()
    client = connect(*gateway.address)
    try:
        _script(cluster, feedback, probes, trainers)
        _script(client, feedback, probes, trainers)
        local = cluster.stats.aggregate()
        remote = client.fleet_stats()["aggregate"]
    finally:
        client.close()
        gateway.close()
        for server in workers.values():
            server.close()
        cluster.close()
    assert set(local) == set(remote)
    assert local["observations"] == 24 and local["refits_completed"] >= 1
    timing = {"p50_latency_seconds", "p99_latency_seconds"}
    assert {name: local[name] for name in set(local) - timing} == {
        name: remote[name] for name in set(remote) - timing
    }
