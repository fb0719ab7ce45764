"""The out-of-process fleet for ``remote_fleet``: gateway plus workers.

Untraced runs use :class:`repro.net.WorkerProcess`.  Traced runs spawn
the same worker through :func:`perfbench.tracer.traced_worker_main`,
which installs the tracer and then calls the public
:func:`repro.net.run_worker`; each writes its trace summary to a file in
the run's output directory when it shuts down.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import socket
import time

from repro.exceptions import NetError
from repro.net import GatewayServer, WorkerProcess, connect
from repro.net.protocol import Request, recv_message, send_message

from perfbench.tracer import traced_worker_main
from perfbench.workloads import KEYS

WORKERS = 2
# Refits run inside the worker's observe call, so an observe that
# triggers one returns after the publish, as in the in-process workloads.
WORKER_CONFIG = {"scheduler_mode": "inline"}
START_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0


class TracedWorker:
    """A spawned worker process running under the tracer."""

    def __init__(self, shard_id: str, trace_path: str) -> None:
        context = multiprocessing.get_context("spawn")
        parent, child = context.Pipe()
        self.shard_id = shard_id
        self.trace_path = trace_path
        self._process = context.Process(
            target=traced_worker_main,
            kwargs={
                "trace_path": trace_path,
                "host": "127.0.0.1",
                "port": 0,
                "shard_id": shard_id,
                "ready": child,
                **WORKER_CONFIG,
            },
            daemon=True,
        )
        self._process.start()
        child.close()
        try:
            if not parent.poll(START_TIMEOUT):
                raise RuntimeError(f"traced worker {shard_id} did not start")
            self.address = parent.recv()
        except BaseException:
            self.terminate()
            raise
        finally:
            parent.close()

    @property
    def pid(self) -> int:
        return self._process.pid

    def request_shutdown(self, timeout: float = STOP_TIMEOUT) -> None:
        with socket.create_connection(self.address, timeout=timeout) as sock:
            for request_id, method, kwargs in (
                (0, "drain", {"timeout": timeout}),
                (1, "shutdown", {}),
            ):
                send_message(sock, Request(request_id, method, kwargs))
                recv_message(sock)
        self._process.join(timeout)

    def terminate(self, timeout: float = 5.0) -> None:
        self._process.terminate()
        self._process.join(timeout)
        if self._process.is_alive():
            self._process.kill()
            self._process.join(timeout)

    @property
    def alive(self) -> bool:
        return self._process.is_alive()


class Fleet:
    """A thread-hosted gateway over ``WORKERS`` worker processes."""

    def __init__(self, inputs, trace_dir: str | None = None) -> None:
        self.workers: list = []
        self.server: GatewayServer | None = None
        self.client = None
        try:
            for index in range(WORKERS):
                shard = f"w{index}"
                if trace_dir is None:
                    self.workers.append(WorkerProcess(shard_id=shard, **WORKER_CONFIG))
                else:
                    path = os.path.join(trace_dir, f"worker-{shard}.json")
                    self.workers.append(TracedWorker(shard, path))
            self.server = GatewayServer(
                {worker.shard_id: worker.address for worker in self.workers}
            )
            self.server.start()
            self.client = connect(*self.server.address)
            for index, key in enumerate(KEYS):
                self.client.register_model(key, inputs.trainer(index))
        except BaseException:
            self.close()
            raise

    def trace_workers(self, on: bool) -> None:
        """Start or end the traced phase inside traced workers."""
        for worker in self.workers:
            if isinstance(worker, TracedWorker):
                os.kill(worker.pid, signal.SIGUSR1 if on else signal.SIGUSR2)
        # The handlers run on each worker's main thread, which is idle
        # in its shutdown wait; give them a moment to land.
        time.sleep(0.2)

    def worker_pids(self) -> list[int]:
        return [worker.pid for worker in self.workers]

    def gateway_stats(self) -> dict:
        return self.server.gateway.stats.snapshot()

    def close(self) -> list[dict]:
        """Stop everything; returns the traced workers' summaries."""
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            self.server.close()
            self.server = None
        summaries = []
        for worker in self.workers:
            try:
                worker.request_shutdown(STOP_TIMEOUT)
            except (OSError, EOFError, NetError):
                pass  # already gone, or wedged: terminated below
            if worker.alive:
                worker.terminate()
            path = getattr(worker, "trace_path", None)
            if path is not None and os.path.exists(path):
                with open(path) as handle:
                    summaries.append(json.load(handle))
        self.workers = []
        return summaries
