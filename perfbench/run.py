"""The repository benchmark: three closed-loop workloads over the serving stack.

Usage (from the repository root)::

    python3 perfbench/run.py --workload plan_probe --seed 1 --seconds 12 --trace 0

``--trace 0`` measures with tracing off and prints every end-to-end
metric; ``--trace 1`` runs the same workload once untraced and once
under the span tracer and prints the per-layer metrics.  Earlier lines
of standard output carry a detail record (host, parameters, sample
counts, checks); the last line is the result object.  The run fails
(``"correct": false``) when any output check fails.  See
``perfbench/README.md`` for why each workload exists and which metric
each layer should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("plan_probe", "learn_loop", "remote_fleet")
SETUPS = 3
# Plans before timing starts: enough for the cache and every key's
# FastSlot memo to fill (4096 entries each), so a run measures the
# steady state rather than the fill.
WARMUP_PLANS = {"plan_probe": 14_000, "remote_fleet": 600}
# One plan in N is followed by a feedback write to one of the two
# written keys.  Remote plans cost ~40x more wall time, so the remote
# stream writes after every plan to see a comparable number of refits.
WRITE_EVERY = {"plan_probe": 48, "remote_fleet": 1}
# learn_loop scores (and warms up on) one full rotation of its stream.
LEARN_SCORED = 2000
# The timed phase is cut into windows; medians and throughput are the
# median over windows, so a burst of noise on a shared host moves one
# window, not the figure.  Tails pool every sample of the phase.
WINDOWS = 5
# Workloads whose per-call times and throughput are divided by the host
# speed factor (perfbench/calibrate.py).  Their timed work is
# interpreter-bound on the client's side, which the reference chunk
# tracks: over 10 seeds on a 2-vCPU shared host the quartile spread of
# remote_fleet's estimate_p50_us fell from 0.25 raw to 0.06 and of its
# ops_per_s from 0.27 to 0.09.  learn_loop's chunks run between NumPy/BLAS
# calls on large arrays and read slow after them, so calibrating it
# widened its spreads (ops_per_s 0.06 raw, 0.20 calibrated); its windows
# are divided by the factorisation chunk run after each refit
# (perfbench/calibrate.py SolveReference), which also divides every
# refit in every workload.  Set-up is reported raw everywhere.
CALIBRATED = ("plan_probe", "remote_fleet")
PARITY_TOLERANCE = 1e-12


# One BLAS thread per process.  With OpenBLAS's default of one thread
# per core, the client and both remote workers each keep spinning BLAS
# threads after a refit, oversubscribing a 2-vCPU host: measured on
# remote_fleet, refit p50 180-240 ms and per-window ops/s swinging 3x,
# against 95 ms and +-10% with one thread.  Set before NumPy loads;
# spawned workers inherit it.
BLAS_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
# One malloc arena per worker process.  A worker serves each connection
# on its own thread and glibc gives threads their own arenas, so its peak
# RSS depended on timing: measured on remote_fleet, a worker's VmHWM read
# 374-515 MiB over runs of one seed with the default arenas and 329-344
# with one.  Takes effect in the spawned workers only; the client's
# allocator is set up before this runs, and its peak repeats.
ALLOCATOR = {"MALLOC_ARENA_MAX": "1"}


def _prepare() -> None:
    """Serve the checkout's own sources, never an installed copy; run on
    one CPU with one BLAS thread.

    Every process of a run (client, gateway thread, spawned workers,
    which inherit the mask) shares one CPU.  A closed loop with one
    client has nothing to run in parallel, and each hop between threads
    or processes on different vCPUs of a shared host pays a cross-CPU
    wake-up: measured on remote_fleet, per-window ops/s 354-770 across
    two vCPUs against 808-1149 on one."""
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit(f"perfbench: no src/repro under {ROOT}; run from a checkout")
    for name, value in {**BLAS_THREADS, **ALLOCATOR}.items():
        os.environ.setdefault(name, value)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Linearly interpolated percentile (NumPy's default method)."""
    import numpy as np

    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values), q))


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def peak_rss_mb(pids) -> float:
    """Sum of VmHWM over the given processes, in MiB."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0


def source_id() -> str:
    """The git sha when run from a clone, else a hash of ``src/``."""
    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if sha.returncode == 0:
            return sha.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha1()
    for directory, _, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(directory, name), "rb") as handle:
                    digest.update(handle.read())
    return "src-sha1:" + digest.hexdigest()


def host_record(args) -> dict:
    import numpy
    import scipy
    from repro.kernels import backend_report

    return {
        "source": source_id(),
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernels": backend_report(),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREADS},
        "allocator": {name: os.environ.get(name) for name in ALLOCATOR},
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def timed_setups(build, teardown):
    """Set the system up ``SETUPS`` times; keep the last one."""
    times = []
    for attempt in range(SETUPS):
        began = time.perf_counter()
        system = build()
        times.append(time.perf_counter() - began)
        if attempt < SETUPS - 1:
            teardown(system)
            del system
    return system, times


class Outcome:
    """What one run produced, before it is turned into metrics."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.setup_times: list[float] = []
        self.checks: dict[str, bool] = {}
        self.notes: dict = {}
        self.worker_rss_mb = 0.0
        self.trace: dict | None = None


def plan_probe(args, outcome: Outcome):
    from perfbench import workloads as w

    inputs = w.ServingInputs(args.seed)
    outcome.notes["inputs"] = inputs.fingerprint()
    service, outcome.setup_times = timed_setups(
        lambda: w.setup_plan_service(inputs), lambda s: s.close()
    )
    stream = w.PlanStream(inputs, args.seed, WRITE_EVERY["plan_probe"])
    recorder = w.Recorder()
    try:
        w.run_plans(service, inputs, stream, recorder,
                    plans=WARMUP_PLANS["plan_probe"])
        measure(args, outcome, recorder,
                lambda seconds: w.run_plans(service, inputs, stream, recorder,
                                            seconds=seconds))
        check_plan_probe(service, inputs, recorder, outcome)
    finally:
        service.close()
    return recorder


def learn_loop(args, outcome: Outcome):
    from perfbench import workloads as w

    inputs = w.LearnInputs(args.seed)
    outcome.notes["inputs"] = inputs.fingerprint()
    service, outcome.setup_times = timed_setups(
        lambda: w.setup_learn_service(inputs), lambda s: s.close()
    )
    recorder = w.Recorder()
    state = {"index": 0}
    try:
        state["index"] = w.run_learning(service, inputs, recorder, 0,
                                        queries=LEARN_SCORED,
                                        score_first=LEARN_SCORED)

        def phase(seconds):
            state["index"] = w.run_learning(
                service, inputs, recorder, state["index"], seconds=seconds
            )

        measure(args, outcome, recorder, phase)
        service.drain()
        expected = len(inputs.initial) + recorder.acked_writes["k"]
        outcome.checks["values_in_unit_interval"] = recorder.out_of_range == 0
        outcome.checks["feedback_count_equals_acked_writes"] = (
            service.feedback_count("k") == expected
        )
        outcome.checks["no_refit_failures"] = not service.scheduler.failures
    finally:
        service.close()
    return recorder


def remote_fleet(args, outcome: Outcome):
    from perfbench import workloads as w
    from perfbench.fleet import Fleet

    inputs = w.ServingInputs(args.seed)
    outcome.notes["inputs"] = inputs.fingerprint()
    fleet, outcome.setup_times = timed_setups(
        lambda: Fleet(inputs), lambda f: f.close()
    )
    stream = w.PlanStream(inputs, args.seed, WRITE_EVERY["remote_fleet"])
    recorder = w.Recorder()
    holder = {"fleet": fleet}
    try:
        w.run_plans(fleet.client, inputs, stream, recorder,
                    plans=WARMUP_PLANS["remote_fleet"])

        def phase(seconds):
            w.run_plans(holder["fleet"].client, inputs, stream, recorder,
                        seconds=seconds)

        def traced_fleet():
            # The traced phase needs workers running under the tracer:
            # replace the fleet, then bring the new one to the same
            # stream position's steady state before timing.
            check_remote(holder["fleet"], inputs, recorder, outcome)
            holder["fleet"].close()
            holder["fleet"] = None
            os.makedirs(OUT_DIR, exist_ok=True)
            holder["fleet"] = Fleet(inputs, trace_dir=OUT_DIR)
            recorder.acked_writes = {key: 0 for key in recorder.acked_writes}
            w.run_plans(holder["fleet"].client, inputs, stream, recorder,
                        plans=WARMUP_PLANS["remote_fleet"])

        measure(args, outcome, recorder, phase, before_trace=traced_fleet,
                fleet=holder)
        check_remote(holder["fleet"], inputs, recorder, outcome)
        outcome.worker_rss_mb = peak_rss_mb(holder["fleet"].worker_pids())
        outcome.notes["gateway"] = _gateway_counters(holder["fleet"])
    finally:
        if holder["fleet"] is not None:
            summaries = holder["fleet"].close()
            if outcome.trace is not None:
                outcome.trace["workers"] = summaries
    return recorder


def _gateway_counters(fleet) -> dict:
    stats = fleet.gateway_stats()
    return {
        name: stats[name]
        for name in ("requests", "errors", "retries", "degraded_estimates",
                     "lost_writes", "fanouts")
    }


def measure(args, outcome: Outcome, recorder, phase, before_trace=None,
            fleet=None) -> None:
    """Untraced: the timed phase, in ``WINDOWS`` windows.  Traced: an
    untraced half for the overhead baseline, then a traced half."""
    if not args.trace:
        from perfbench.calibrate import Calibrator, SolveReference

        recorder.mark()
        recorder.solve_reference = SolveReference()
        if outcome.workload in CALIBRATED:
            recorder.calibrator = Calibrator()
        for _ in range(WINDOWS):
            recorder.window(phase, args.seconds / WINDOWS)
        return
    from perfbench.tracer import Tracer, install

    half = args.seconds / 2.0
    recorder.mark()
    phase(half)
    baseline = (recorder.wall, recorder.ops - recorder.ops_at_mark)
    if before_trace is not None:
        before_trace()
    gateway_before = _gateway_counters(fleet["fleet"]) if fleet else None
    tracer = Tracer()
    uninstall = install(tracer)
    recorder.mark()
    if fleet:
        fleet["fleet"].trace_workers(True)
    try:
        tracer.start()
        began = time.perf_counter()
        phase(half)
        wall = time.perf_counter() - began
        gap = tracer.stop()
    finally:
        uninstall()
        if fleet:
            fleet["fleet"].trace_workers(False)
    outcome.trace = {
        "tracer": tracer,
        "baseline": baseline,
        "traced": (wall, recorder.ops - recorder.ops_at_mark),
        "gap": gap,
    }
    if fleet:
        after = _gateway_counters(fleet["fleet"])
        outcome.trace["gateway_delta"] = {
            name: after[name] - gateway_before[name] for name in after
        }
        outcome.trace["gateway"] = fleet["fleet"].gateway_stats()


# ----------------------------------------------------------------------
# Correctness checks
# ----------------------------------------------------------------------
def check_plan_probe(service, inputs, recorder, outcome: Outcome) -> None:
    """Served values against an uncached scalar reference; batch against
    scalar on every pool structure; feedback accounting."""
    import numpy as np
    from perfbench import workloads as w

    outcome.checks["values_in_unit_interval"] = recorder.out_of_range == 0
    reference = {}
    worst_batch = 0.0
    for key_index, key in enumerate(w.KEYS):
        snapshot = service.snapshot_for(key)
        structures = inputs.pool[key_index]
        scalar = np.array(
            [snapshot.estimate(w.fresh_predicate(b)) for b in structures]
        )
        batch = service.estimate_batch_mixed(
            [(key, w.fresh_predicate(b)) for b in structures]
        )
        worst_batch = max(worst_batch, float(np.max(np.abs(batch - scalar))))
        reference[key_index] = scalar
    outcome.checks["batch_equals_scalar"] = worst_batch <= PARITY_TOLERANCE
    outcome.checks["read_only_keys_match_reference"] = _served_match(
        recorder, reference
    )
    service.drain()
    outcome.checks["feedback_count_equals_acked_writes"] = all(
        service.feedback_count(key) == len(inputs.train[index]) + recorder.acked_writes[key]
        for index, key in enumerate(w.WRITE_KEYS)
    )
    outcome.checks["no_refit_failures"] = not service.scheduler.failures
    outcome.notes["qerrors"] = _pool_qerrors(reference, inputs)
    outcome.notes["raw_qerrors"] = _pool_qerrors(reference, inputs, w.RAW_QERROR_FLOOR)


def check_remote(fleet, inputs, recorder, outcome: Outcome) -> None:
    """Read-only keys against an in-process reference trained from the
    same seed; feedback accounting after a drain; no degraded reads."""
    import numpy as np
    from perfbench import workloads as w

    outcome.checks["values_in_unit_interval"] = (
        outcome.checks.get("values_in_unit_interval", True)
        and recorder.out_of_range == 0
    )
    reference = {}
    for key_index in range(len(w.WRITE_KEYS), len(w.KEYS)):
        trainer = inputs.trainer(key_index)
        trainer.refit()
        reference[key_index] = np.asarray(
            trainer.estimate_many([w.fresh_predicate(b) for b in inputs.pool[key_index]])
        )
    matched = _served_match(recorder, reference)
    outcome.checks["read_only_keys_match_reference"] = (
        outcome.checks.get("read_only_keys_match_reference", True) and matched
    )
    fleet.client.drain()
    counted = all(
        fleet.client.feedback_count(key) == len(inputs.train[index]) + recorder.acked_writes[key]
        for index, key in enumerate(w.WRITE_KEYS)
    )
    outcome.checks["feedback_count_equals_acked_writes"] = (
        outcome.checks.get("feedback_count_equals_acked_writes", True) and counted
    )
    stats = fleet.gateway_stats()
    healthy = stats["degraded_estimates"] == 0 and stats["lost_writes"] == 0
    outcome.checks["no_degraded_or_lost"] = (
        outcome.checks.get("no_degraded_or_lost", True) and healthy
    )
    served = np.array([
        fleet.client.estimate_batch_mixed(
            [(key, w.fresh_predicate(b)) for b in inputs.pool[key_index]]
        )
        for key_index, key in enumerate(w.KEYS)
    ])
    outcome.notes["qerrors"] = _pool_qerrors(dict(enumerate(served)), inputs)
    outcome.notes["raw_qerrors"] = _pool_qerrors(
        dict(enumerate(served)), inputs, w.RAW_QERROR_FLOOR
    )
    # Only the values served since the last check remain to be checked.
    recorder.clear_served()


def _served_match(recorder, reference) -> bool:
    """Every value served on a read-only key equals its reference."""
    import numpy as np
    from perfbench import workloads as w

    keys = np.frombuffer(recorder.served_keys, dtype=np.int32)
    structures = np.frombuffer(recorder.served_structures, dtype=np.int32)
    values = np.frombuffer(recorder.served_values, dtype=np.float64)
    for key_index, expected in reference.items():
        if w.KEYS[key_index] in w.WRITE_KEYS:
            continue
        mask = keys == key_index
        if not mask.any():
            continue
        worst = np.max(np.abs(values[mask] - expected[structures[mask]]))
        if worst > PARITY_TOLERANCE:
            return False
    return True


def _pool_qerrors(served: dict, inputs, floor=None) -> list[float]:
    from perfbench.workloads import QERROR_FLOOR, qerror

    return [
        qerror(float(value), float(truth), floor or QERROR_FLOOR)
        for key_index, values in served.items()
        for value, truth in zip(values, inputs.truth[key_index])
    ]


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(outcome: Outcome, recorder) -> tuple[dict, dict]:
    """Every end-to-end metric, plus the sample count behind each."""
    us, ms = 1e6, 1e3
    learning = outcome.workload == "learn_loop"
    qerrors = list(recorder.qerrors) if learning else outcome.notes["qerrors"]
    raw_qerrors = (
        list(recorder.raw_qerrors) if learning else outcome.notes["raw_qerrors"]
    )
    ops = recorder.ops - recorder.ops_at_mark
    attempted = recorder.attempted - recorder.attempted_at_mark

    # Per-call times are divided, and throughput multiplied, by each
    # window's host speed factor.
    def windowed(name):
        return statistics.median(
            view[name] / view["speed"] for view in recorder.windows
        )

    speed = statistics.median(view["speed"] for view in recorder.windows)
    # Each refit divided by its own factorisation chunk's speed factor.
    solve_speeds = recorder.solve_reference.speeds()
    refits = [elapsed / factor for elapsed, factor in zip(recorder.refit, solve_speeds)]

    def tail(values, q):
        return percentile(values, q) / speed

    metrics = {
        "setup_s": metric(statistics.median(outcome.setup_times), "s"),
        "ops_per_s": metric(statistics.median(
            view["ops_per_s"] * view["speed"] for view in recorder.windows
        ), "1/s"),
        "ok_frac": metric(ops / attempted if attempted else 0.0, "fraction"),
        "peak_rss_mb": metric(
            peak_rss_mb([os.getpid()]) + outcome.worker_rss_mb, "MiB"
        ),
        "estimate_p50_us": metric(windowed("estimate") * us, "us"),
        "batch_p50_us": metric(windowed("batch") * us, "us"),
        "observe_p50_us": metric(windowed("observe") * us, "us"),
        "refit_p50_ms": metric(percentile(refits, 50) * ms, "ms"),
        "qerror_p50": metric(percentile(qerrors, 50), "ratio"),
        "qerror_p95": metric(percentile(qerrors, 95), "ratio"),
    }
    samples = {
        "setup_s": len(outcome.setup_times),
        "estimate": len(recorder.estimate),
        "batch": len(recorder.batch),
        "observe": len(recorder.observe),
        "refit": len(recorder.refit),
        "qerror": len(qerrors),
        # Tails that do not repeat within their bound from run to run on
        # a shared host, reported here and not gated: remote_fleet's
        # swing with GIL hand-offs between the client and gateway
        # threads, and plan_probe's refit p90 rests on ~20 refits.
        "unsteady_tails": {
            "estimate_p99_us": tail(recorder.estimate, 99) * us,
            "batch_p90_us": tail(recorder.batch, 90) * us,
            "observe_p99_us": tail(recorder.observe, 99) * us,
            "refit_p90_ms": percentile(refits, 90) * ms,
        },
        "qerror_floor_1e-4": {
            "p50": percentile(raw_qerrors, 50), "p95": percentile(raw_qerrors, 95),
        },
        "windows": [
            {name: round(value, 9) for name, value in view.items()}
            for view in recorder.windows
        ],
    }
    # The highest percentile with at least ten samples beyond it, to
    # show where a named tail is thinner than that rule asks.
    samples["supported_tail_pct"] = {
        name: tail_supported(count)
        for name, count in samples.items()
        if name not in ("setup_s", "windows", "qerror_floor_1e-4", "unsteady_tails")
    }
    samples["refit_raw_p50_ms"] = percentile(recorder.refit, 50) * ms
    samples["solve_speed_p50"] = percentile(solve_speeds, 50)
    return metrics, samples


def tail_supported(count: int) -> float:
    if count <= 10:
        return 0.0
    return math.floor(1000.0 * (count - 10) / count) / 10.0


def per_layer(outcome: Outcome, recorder) -> tuple[dict, dict]:
    from perfbench.tracer import layer_of, merge

    trace = outcome.trace
    tracer = trace["tracer"]
    merged = merge([tracer.summary()] + trace.get("workers", []))
    spans = merged["spans"]
    counters = merged["counters"]
    paths = merged["paths"]

    def calls(*names):
        return sum(spans.get(name, (0, 0.0, 0.0))[0] for name in names)

    def total(*names):
        return sum(spans.get(name, (0, 0.0, 0.0))[1] for name in names)

    def own(*names):
        return sum(spans.get(name, (0, 0.0, 0.0))[2] for name in names)

    def per(value, count):
        return value / count if count else 0.0

    us, ms = 1e6, 1e3
    traced_wall, traced_ops = trace["traced"]
    base_wall, base_ops = trace["baseline"]
    scalar = sum(len(values) for values in paths.values())
    fits = counters.get("core.fits", 0.0)
    kernel_names = ("kernels.volumes", "kernels.overlap", "kernels.decay")
    kernel_calls = calls(*kernel_names)
    client_names = [name for name in spans if name.startswith("net.client_")]
    requests = calls(*client_names)
    codec = own("net.encode", "net.decode")
    cluster_time = total("cluster.estimate", "cluster.estimate_batch", "cluster.observe")
    solver_names = [name for name in spans if layer_of(name) == "solvers"]
    writes = calls("serving.observe", "cluster.observe")
    gateway = trace.get("gateway", {})
    per_worker = gateway.get("per_worker_latency", {})
    worker_calls = sum(view["calls"] for view in per_worker.values())
    gateway_worker = per(
        sum(view["p50_latency_seconds"] * view["calls"] for view in per_worker.values()),
        worker_calls,
    )
    delta = trace.get("gateway_delta", {})
    overhead = per(traced_wall, traced_ops) / per(base_wall, base_ops) - 1.0
    accounted = (sum(tracer.client_self.values()) + trace["gap"]) / traced_wall

    def median_us(path):
        values = paths.get(path, [])
        return percentile(values, 50) * us if values else 0.0

    metrics = {
        "serving.memo_hit_ratio": metric(per(len(paths["memo"]), scalar), "fraction"),
        "serving.cache_hit_ratio": metric(per(len(paths["cache"]), scalar), "fraction"),
        "serving.memo_hit_us": metric(median_us("memo"), "us"),
        "serving.cache_hit_us": metric(median_us("cache"), "us"),
        "serving.cold_us": metric(median_us("cold"), "us"),
        "serving.cache_get_us": metric(per(own("serving.cache_get"), calls("serving.cache_get")) * us, "us"),
        "serving.cache_put_us": metric(per(own("serving.cache_put"), calls("serving.cache_put")) * us, "us"),
        "serving.snapshot_us": metric(per(own("serving.snapshot"), calls("serving.snapshot")) * us, "us"),
        "serving.stats_us": metric(per(own("serving.stats"), calls("serving.stats")) * us, "us"),
        "serving.cache_evictions": metric(counters.get("serving.cache_evictions", 0.0), "count"),
        "serving.observe_us": metric(per(own("serving.observe", "serving.apply_feedback"), writes) * us, "us"),
        "kernels.volumes_us": metric(per(own("kernels.volumes"), calls("kernels.volumes")) * us, "us"),
        "kernels.overlap_us": metric(per(own("kernels.overlap"), calls("kernels.overlap")) * us, "us"),
        "kernels.calls": metric(per(kernel_calls, traced_ops), "calls/op"),
        "kernels.pairs": metric(per(counters.get("kernels.pairs", 0.0), kernel_calls), "pairs/call"),
        "kernels.share": metric(own(*kernel_names) / traced_wall, "fraction"),
        "core.lower_us": metric(per(own("core.lower"), calls("core.lower")) * us, "us"),
        "core.mixture_us": metric(per(own("core.mixture"), calls("core.mixture")) * us, "us"),
        "core.fit_build_ms": metric(per(counters.get("core.fit_build_s", 0.0), fits) * ms, "ms"),
        "core.fit_incremental_frac": metric(per(counters.get("core.fit_incremental", 0.0), fits), "fraction"),
        "core.refactorize_frac": metric(per(counters.get("core.refactorized", 0.0), fits), "fraction"),
        "core.subpopulations": metric(per(counters.get("core.subpopulations", 0.0), fits), "count"),
        "solvers.solve_ms": metric(per(own(*solver_names), fits) * ms, "ms"),
        "net.client_us": metric(per(total("net.client_estimate"), calls("net.client_estimate")) * us, "us"),
        "net.codec_us": metric(per(codec, requests) * us, "us"),
        "net.request_bytes": metric(per(counters.get("net.request_bytes", 0.0), requests), "B"),
        "net.response_bytes": metric(per(counters.get("net.response_bytes", 0.0), requests), "B"),
        "net.wire_us": metric(per(total(*client_names) - cluster_time - codec, requests) * us, "us"),
        "net.gateway_worker_us": metric(gateway_worker * us, "us"),
        "net.fanout_width": metric(per(counters.get("net.fanout_workers", 0.0), calls("net.gateway_fanout")), "workers"),
        "net.retries": metric(delta.get("retries", 0), "count"),
        "net.errors": metric(delta.get("errors", 0), "count"),
        "cluster.estimate_us": metric(per(total("cluster.estimate"), calls("cluster.estimate")) * us, "us"),
        "cluster.observe_us": metric(per(total("cluster.observe"), calls("cluster.observe")) * us, "us"),
        "cluster.buffer_flushes": metric(per(calls("cluster.buffer_flush"), calls("cluster.observe")), "flushes/write"),
        "trace.overhead_frac": metric(overhead, "fraction"),
        "trace.unattributed_us": metric(per(trace["gap"], traced_ops) * us, "us"),
        "trace.accounted_frac": metric(accounted, "fraction"),
    }
    detail = {
        "client_self_s": dict(tracer.client_self),
        "client_unattributed_s": trace["gap"],
        "traced_wall_s": traced_wall,
        "traced_ops": traced_ops,
        "baseline": {"wall_s": base_wall, "ops": base_ops},
        "span_calls": {name: entry[0] for name, entry in spans.items()},
        "ladder_us": {
            "memo_hit": median_us("memo"),
            "cache_hit": median_us("cache"),
            "cold_scalar": median_us("cold"),
            "remote_scalar": metrics["net.client_us"]["value"],
        },
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(
        os.path.join(OUT_DIR, f"trace-{outcome.workload}.json"),
        {"workers": trace.get("workers", [])},
    )
    return metrics, detail


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
RUNNERS = {
    "plan_probe": plan_probe,
    "learn_loop": learn_loop,
    "remote_fleet": remote_fleet,
}


def run(args) -> dict:
    """Run one workload and return the result object (the last line)."""
    from perfbench import workloads as w  # noqa: F401  (fails without src/)

    outcome = Outcome(args.workload)
    recorder = RUNNERS[args.workload](args, outcome)
    correct = bool(outcome.checks) and all(outcome.checks.values())
    detail = {
        "host": host_record(args),
        "workload": args.workload,
        "parameters": workload_parameters(args.workload),
        "checks": outcome.checks,
        "attempted": recorder.attempted,
        "failed": recorder.failed,
        "succeeded": recorder.attempted - recorder.failed,
        "errors": recorder.errors,
        "acked_writes": {k: v for k, v in recorder.acked_writes.items() if v},
        "inputs": outcome.notes.get("inputs"),
        "setup_times_s": outcome.setup_times,
    }
    if args.trace:
        metrics, extra = per_layer(outcome, recorder)
        detail["trace"] = extra
    else:
        metrics, extra = end_to_end(outcome, recorder)
        detail["samples"] = extra
    if "gateway" in outcome.notes:
        detail["gateway"] = outcome.notes["gateway"]
    print(json.dumps({"detail": detail}))
    return {
        "correct": correct,
        "attempted": int(recorder.attempted),
        "failed": int(recorder.failed),
        "metrics": metrics,
    }


def workload_parameters(workload: str) -> dict:
    from perfbench import workloads as w

    common = {"d": 2, "window": w.WINDOW, "setups": SETUPS,
              "clients": 1, "loop": "closed"}
    if workload == "learn_loop":
        return {**common, "stream": "RotatingDriftStream(period=2000)", "windows": WINDOWS,
                "warmup_queries": LEARN_SCORED, "scored_queries": LEARN_SCORED,
                "batch_every_queries": w.BATCH_EVERY * 2,
                "batch_pairs": w.BATCH_PAIRS, "scheduler": "inline"}
    return {**common, "keys": len(w.KEYS), "write_keys": len(w.WRITE_KEYS),
            "pool_per_key": w.POOL_PER_KEY, "zipf_s": w.ZIPF_S,
            "predicates_per_plan": w.PREDICATES_PER_PLAN,
            "probes_per_predicate": w.PROBES_PER_PREDICATE,
            "batch_every_plans": w.BATCH_EVERY, "batch_pairs": w.BATCH_PAIRS,
            "write_every_plans": WRITE_EVERY[workload],
            "warmup_plans": WARMUP_PLANS[workload],
            "workers": 2 if workload == "remote_fleet" else 0}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _child_pids(pid: int) -> list[int]:
    """Every live descendant of ``pid``, read from ``/proc``."""
    parents = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue  # ended while we looked
        # The command name is parenthesised and may hold spaces.
        parents[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    found, frontier = [], [pid]
    while frontier:
        parent = frontier.pop()
        children = [child for child, ppid in parents.items() if ppid == parent]
        found.extend(children)
        frontier.extend(children)
    return found


def stop_children() -> None:
    """Stop every process this run started and wait for each to end.

    Fleets join their workers, but the spawn start method also launches
    multiprocessing's resource tracker, which nothing waits for: left
    alone it outlives the run.  Anything still running after the tracker
    is stopped is killed and reaped."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join(5.0)
    resource_tracker._resource_tracker._stop()
    for pid in _child_pids(os.getpid()):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for pid in _child_pids(os.getpid()):
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass  # not ours to reap: its parent was killed above


def main(argv=None) -> int:
    _prepare()
    args = parse_args(argv)
    try:
        result = run(args)
    finally:
        stop_children()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
