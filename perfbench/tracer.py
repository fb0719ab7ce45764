"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of each layer (``net``, ``cluster``,
``serving``, ``core``, ``solvers``, ``kernels``) at the place each one is
looked up, so nothing under ``src/`` changes:

* methods are replaced on their class, which every caller goes through;
* module-level functions are replaced in *every* loaded ``repro`` module
  that holds a reference to them.  ``core.mixture``, ``core.geometry``
  and ``estimators.buckets`` import kernels by name, so patching
  ``repro.kernels`` alone would miss their calls.

A span's self time is its duration minus the time its child spans cover
(children on the same thread).  Spans are folded into per-name
aggregates as they close, and the first ``SPAN_SAMPLE`` raw spans are
kept in memory and written out with the summary at the end; nothing is
written while a phase runs.

Scalar estimates are classified by the spans that ran below them: no
cache lookup means the FastSlot memo answered, a cache lookup without a
snapshot evaluation is a cache hit, anything else is a cold estimate.

To trace inside worker processes, :func:`traced_worker_main` is a spawn
target that installs the same wrappers and then calls the public
:func:`repro.net.run_worker`; it writes its summary to a file when the
worker shuts down.
"""

from __future__ import annotations

import json
import signal
import sys
import threading
import time
from array import array

SPAN_SAMPLE = 20_000

# Bits a span ORs into every ancestor, used to classify scalar estimates.
CACHE_GET = 1
SNAPSHOT = 2

# Spans at which scalar estimates are classified (in-process service
# reads, and a worker's shard reads).
SCALAR_SPANS = ("serving.estimate", "cluster.estimate")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Per-thread span stacks folded into per-name aggregates."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.enabled = False
        # name -> [calls, total seconds, self seconds]
        self.spans: dict[str, list[float]] = {}
        self.counters: dict[str, float] = {}
        # scalar path -> inclusive durations (seconds)
        self.paths: dict[str, array] = {
            "memo": array("d"),
            "cache": array("d"),
            "cold": array("d"),
        }
        self.sample: list[tuple[str, int, float, float]] = []
        # layer -> self seconds of spans on the client thread, which is
        # what the client's end-to-end time is made of.
        self.client_self: dict[str, float] = {}
        self._client: int | None = None
        self._client_gap = 0.0
        self._client_last_end: float | None = None

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Enable tracing; the calling thread becomes the client thread."""
        self._client = threading.get_ident()
        self._client_gap = 0.0
        self._client_last_end = time.perf_counter()
        self.enabled = True

    def stop(self) -> float:
        """Disable tracing; returns the client's time outside any span."""
        self.enabled = False
        if self._client_last_end is not None:
            self._client_gap += time.perf_counter() - self._client_last_end
            self._client_last_end = None
        return self._client_gap

    def reset(self) -> None:
        """Forget everything recorded so far (a new phase starts)."""
        with self._lock:
            self.spans.clear()
            self.counters.clear()
            for values in self.paths.values():
                del values[:]
            self.sample.clear()
            self.client_self.clear()

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + amount

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(self, name: str, fn, bit: int = 0, after=None):
        """A traced stand-in for ``fn`` recording span ``name``.

        ``after(args, kwargs, result)`` runs after a successful call (for
        counters that need the arguments or the result).
        """
        local = self._local
        record = self._record

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            frame = [0.0, 0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                bits = frame[1] | bit
                if stack:
                    parent = stack[-1]
                    parent[0] += duration
                    parent[1] |= bits
                    depth = len(stack)
                else:
                    depth = 0
                record(name, start, end, duration, duration - frame[0], bits, depth)
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _record(self, name, start, end, duration, self_time, bits, depth):
        with self._lock:
            entry = self.spans.get(name)
            if entry is None:
                entry = self.spans[name] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += duration
            entry[2] += self_time
            if name in SCALAR_SPANS:
                if not bits & CACHE_GET:
                    self.paths["memo"].append(duration)
                elif not bits & SNAPSHOT:
                    self.paths["cache"].append(duration)
                else:
                    self.paths["cold"].append(duration)
            if len(self.sample) < SPAN_SAMPLE:
                self.sample.append((name, depth, start, end))
            if threading.get_ident() != self._client:
                return
            layer = layer_of(name)
            self.client_self[layer] = self.client_self.get(layer, 0.0) + self_time
            if depth == 0:
                if self._client_last_end is not None:
                    self._client_gap += start - self._client_last_end
                self._client_last_end = end

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        with self._lock:
            return {
                "spans": {name: list(entry) for name, entry in self.spans.items()},
                "counters": dict(self.counters),
                "paths": {path: list(values) for path, values in self.paths.items()},
            }

    def write(self, path: str, extra: dict | None = None) -> None:
        payload = self.summary()
        payload["sample"] = self.sample
        if extra:
            payload.update(extra)
        with open(path, "w") as handle:
            json.dump(payload, handle)


def merge(summaries: list[dict]) -> dict:
    """Sum span aggregates, counters and path samples across processes."""
    merged: dict = {"spans": {}, "counters": {}, "paths": {}}
    for summary in summaries:
        for name, (calls, total, own) in summary["spans"].items():
            entry = merged["spans"].setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        for name, value in summary["counters"].items():
            merged["counters"][name] = merged["counters"].get(name, 0.0) + value
        for path, values in summary["paths"].items():
            merged["paths"].setdefault(path, []).extend(values)
    return merged


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------
def _method_targets():
    """``(span name, class, attribute, bit)`` for every traced method."""
    from repro.cluster.buffer import ObservationBuffer
    from repro.cluster.shard import ShardWorker
    from repro.core.incremental import IncrementalTrainer
    from repro.core.mixture import UniformMixtureModel
    from repro.core.quicksel import QuickSel
    from repro.net.client import RemoteSelectivityService
    from repro.net.stats import GatewayStats
    from repro.serving.cache import EstimateCache
    from repro.serving.service import FastSlot, SelectivityService
    from repro.serving.snapshot import ModelSnapshot
    from repro.serving.stats import ServingStats
    from repro.solvers.linalg import CachedCholesky

    targets = [
        (f"net.client_{method}", RemoteSelectivityService, method, 0)
        for method in (
            "estimate", "estimate_batch", "estimate_batch_mixed", "observe",
        )
    ]
    targets += [
        ("net.gateway_fanout", GatewayStats, "record_fanout", 0),
        ("cluster.estimate", ShardWorker, "estimate", 0),
        ("cluster.estimate_batch", ShardWorker, "estimate_batch", 0),
        ("cluster.observe", ShardWorker, "observe", 0),
        ("cluster.buffer_flush", ObservationBuffer, "flush", 0),
        ("serving.estimate", SelectivityService, "estimate", 0),
        ("serving.estimate_batch", SelectivityService, "estimate_batch", 0),
        ("serving.estimate_batch_mixed", SelectivityService, "estimate_batch_mixed", 0),
        ("serving.observe", SelectivityService, "observe", 0),
        ("serving.apply_feedback", SelectivityService, "apply_feedback", 0),
        ("serving.slot", FastSlot, "estimate", 0),
        ("serving.cache_get", EstimateCache, "get", CACHE_GET),
        ("serving.cache_put", EstimateCache, "put", 0),
        ("serving.snapshot", ModelSnapshot, "estimate_many", SNAPSHOT),
        ("core.mixture", UniformMixtureModel, "estimate_from_bounds", 0),
        ("core.quicksel_refit", QuickSel, "refit", 0),
        ("core.quicksel_observe", QuickSel, "observe", 0),
        ("core.quicksel_observe", QuickSel, "observe_many", 0),
        ("core.fit", IncrementalTrainer, "fit", 0),
    ]
    targets += [
        ("serving.stats", ServingStats, method, 0)
        for method in (
            "record_estimate", "record_estimates", "record_batch",
            "record_observation", "record_observations", "record_backend_errors",
        )
    ]
    targets += [
        ("solvers.cholesky", CachedCholesky, method, 0)
        for method in (
            "factorize", "update_rows", "downdate_rows", "modify_rows", "solve",
        )
    ]
    return targets


def _function_targets():
    """``(span name, function)`` for every traced module-level function."""
    import repro.kernels as kernels
    from repro.core.predicate import lower_batch
    from repro.net.protocol import decode_frame, encode_frame
    from repro.solvers import linalg, projected_gradient, scipy_qp

    return [
        ("kernels.volumes", kernels.intersection_volumes),
        ("kernels.volumes", kernels.intersection_volumes_into),
        ("kernels.overlap", kernels.weighted_overlap_estimates),
        ("kernels.overlap", kernels.weighted_overlap_estimates_into),
        ("kernels.decay", kernels.decay_weights),
        ("kernels.decay", kernels.decay_weights_into),
        ("core.lower", lower_batch),
        ("net.encode", encode_frame),
        ("net.decode", decode_frame),
        ("solvers.regularized_solve", linalg.regularized_solve),
        ("solvers.cholesky_update", linalg.cholesky_update),
        ("solvers.cholesky_downdate", linalg.cholesky_downdate),
        ("solvers.projected_gradient", projected_gradient.solve_projected_gradient),
        ("solvers.scipy_qp", scipy_qp.solve_constrained_qp),
    ]


def _after_hooks(tracer: Tracer) -> dict:
    """Counters recorded from a call's arguments or result."""

    def kernel_pairs(args, kwargs, result):
        # (pieces, d) rows against (components, d) columns: the first
        # 2-D array after the row bounds is the column lower corners.
        rows = args[0]
        cols = next(arg for arg in args[2:] if getattr(arg, "ndim", 0) == 2)
        tracer.count("kernels.pairs", rows.shape[0] * cols.shape[0])

    def encode(args, kwargs, result):
        if threading.get_ident() == tracer._client:
            tracer.count("net.request_bytes", len(result))

    def decode(args, kwargs, result):
        if threading.get_ident() == tracer._client:
            tracer.count("net.response_bytes", len(args[0]) + 4)

    def fanout(args, kwargs, result):
        tracer.count("net.fanout_workers", args[1] if len(args) > 1 else kwargs["workers"])

    def fit(args, kwargs, result):
        tracer.count("core.fits")
        tracer.count("core.fit_build_s", result.build_seconds)
        tracer.count("core.fit_incremental", float(result.incremental))
        tracer.count("core.refactorized", float(result.refactorized))
        tracer.count("core.subpopulations", float(len(result.subpopulations)))

    return {
        "kernels.volumes": kernel_pairs,
        "kernels.overlap": kernel_pairs,
        "net.encode": encode,
        "net.decode": decode,
        "net.gateway_fanout": fanout,
        "core.fit": fit,
    }


def _count_evictions(tracer: Tracer, put):
    """``EstimateCache.put`` that counts an eviction when a put of a new
    key leaves the cache size unchanged (puts follow a missed ``get``)."""

    def put_counting(cache, key, value):
        if not tracer.enabled:
            return put(cache, key, value)
        before = len(cache)
        result = put(cache, key, value)
        if len(cache) == before:
            tracer.count("serving.cache_evictions")
        return result

    return put_counting


def install(tracer: Tracer):
    """Wrap every target; returns a callable that restores the originals."""
    import repro.cluster  # noqa: F401  (load every module holding a target)
    import repro.net  # noqa: F401
    from repro.serving import EstimateCache

    hooks = _after_hooks(tracer)
    restore: list[tuple[object, str, object]] = []
    for name, owner, attribute, bit in _method_targets():
        original = owner.__dict__[attribute]
        fn = original
        if owner is EstimateCache and attribute == "put":
            fn = _count_evictions(tracer, original)
        setattr(owner, attribute, tracer.wrap(name, fn, bit, hooks.get(name)))
        restore.append((owner, attribute, original))
    for name, function in _function_targets():
        traced = tracer.wrap(name, function, 0, hooks.get(name))
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attribute, value in list(vars(module).items()):
                if value is function:
                    setattr(module, attribute, traced)
                    restore.append((module, attribute, function))

    def uninstall() -> None:
        for owner, attribute, original in reversed(restore):
            setattr(owner, attribute, original)

    return uninstall


def traced_worker_main(trace_path: str, **worker_config) -> None:
    """Spawn target: a worker process with the tracer installed.

    ``SIGUSR1`` starts a traced phase (earlier records are dropped, so
    set-up and warm-up are not counted) and ``SIGUSR2`` ends it.  Runs
    the public :func:`repro.net.run_worker` until the worker is asked to
    shut down, then writes the trace summary to ``trace_path``.
    """
    from repro.net import run_worker

    tracer = Tracer()
    install(tracer)

    def begin(signum, frame):
        tracer.reset()
        tracer.enabled = True

    def end(signum, frame):
        tracer.enabled = False

    signal.signal(signal.SIGUSR1, begin)
    signal.signal(signal.SIGUSR2, end)
    try:
        run_worker(**worker_config)
    finally:
        tracer.enabled = False
        tracer.write(trace_path)
