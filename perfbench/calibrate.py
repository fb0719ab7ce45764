"""Host-speed calibration for time metrics on shared hosts.

On a shared virtual machine the speed of a vCPU drifts by tens of
percent over seconds to minutes (neighbours on the same physical core),
and every CPU-bound latency drifts with it.  To keep run-to-run spreads
inside the benchmark's bounds, in the workloads listed in
``perfbench.run.CALIBRATED`` the client thread runs a fixed reference
chunk every ``INTERVAL_S`` of load — between operations, never inside a
timed call — and each window's per-call times are divided by that
window's speed factor: mean chunk time / ``NOMINAL_CHUNK_S``.  A reported time is
therefore the time at the reference speed, at which one chunk takes
``NOMINAL_CHUNK_S``; the raw figures and factors are in the detail
record.

The chunk uses only the standard library and NumPy, so no change to the
program can move it.  It mirrors what the measured paths spend their
time on: small-object allocation, tuple hashing, an ordered-dict lookup
with a lock, and small NumPy reductions.  Only the calling thread runs
it; the workloads keep no other thread busy between operations, so
background work added by the program would show, not cancel out.
"""

from __future__ import annotations

import statistics
import threading
import time
from collections import OrderedDict

import numpy as np

NOMINAL_CHUNK_S = 1.0e-3
INTERVAL_S = 0.025


class _Constraint:
    __slots__ = ("dim", "low", "high")

    def __init__(self, dim: int, low: float, high: float) -> None:
        self.dim = dim
        self.low = low
        self.high = high


class Calibrator:
    """Runs reference chunks between operations and keeps their times."""

    def __init__(self) -> None:
        self._table = OrderedDict(
            ((("t", 0), 1, ((0, 0.001 * i, 0.5), (1, 0.1, 0.2))), float(i))
            for i in range(64)
        )
        self._lock = threading.Lock()
        self._array = np.random.default_rng(0).random((1, 64, 2))
        self._next = 0.0
        self.seconds = 0.0
        self.chunks = 0

    def chunk(self) -> float:
        """One reference chunk; returns its duration."""
        clock = time.perf_counter
        began = clock()
        stamps = []
        for i in range(300):
            constraints = (_Constraint(0, 0.001 * (i % 64), 0.5), _Constraint(1, 0.1, 0.2))
            key = (("t", 0), 1, tuple((c.dim, c.low, c.high) for c in constraints))
            with self._lock:
                if self._table.get(key) is not None:
                    self._table.move_to_end(key)
            stamps.append(clock())
        for _ in range(20):
            np.minimum(self._array, 0.5).prod(axis=2).sum()
        elapsed = clock() - began
        self.seconds += elapsed
        self.chunks += 1
        return elapsed

    def tick(self) -> None:
        """Run a chunk if ``INTERVAL_S`` has passed since the last one."""
        now = time.perf_counter()
        if now >= self._next:
            self.chunk()
            self._next = time.perf_counter() + INTERVAL_S

    def mark(self) -> tuple[float, int]:
        return self.seconds, self.chunks

    def speed_since(self, mark: tuple[float, int]) -> float:
        """Mean chunk time since ``mark`` over the nominal chunk time."""
        seconds, chunks = self.seconds - mark[0], self.chunks - mark[1]
        if not chunks:
            return 1.0
        return seconds / chunks / NOMINAL_CHUNK_S


# Refits are dominated by the Cholesky factorisation of the m x m
# training system (m=1200: ~50 of ~90 ms), BLAS-3 work whose speed on a
# shared host moves with the load on the physical core and not with the
# interpreter-bound chunk above: refit p50s of one seed read 74 ms in
# one run and 96-98 ms in three later ones, at similar chunk speeds.  So
# every refit in a timed phase is followed by a small factorisation with
# the same LAPACK, and refits are divided by it.  Windows without the
# chunk above (learn_loop, whose estimates and bursts are NumPy-bound
# too) take the median factor of their refits' factorisations.
SOLVE_N = 400
NOMINAL_SOLVE_S = 2.0e-3


class SolveReference:
    """Times a fixed Cholesky factorisation after each refit."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        a = rng.random((SOLVE_N, SOLVE_N))
        self._matrix = a @ a.T + SOLVE_N * np.eye(SOLVE_N)
        self.times: list[float] = []
        self.seconds = 0.0

    def run(self) -> None:
        from scipy import linalg

        began = time.perf_counter()
        linalg.cho_factor(self._matrix, lower=True)
        elapsed = time.perf_counter() - began
        self.times.append(elapsed)
        self.seconds += elapsed

    def speeds(self) -> list[float]:
        """Each refit's factor: its chunk time over the nominal time."""
        return [elapsed / NOMINAL_SOLVE_S for elapsed in self.times]

    def mark(self) -> tuple[float, int]:
        return self.seconds, len(self.times)

    def speed_since(self, mark: tuple[float, int]) -> float:
        """Median factor of the chunks since ``mark`` (1 if none ran)."""
        times = self.times[mark[1]:]
        if not times:
            return 1.0
        return statistics.median(times) / NOMINAL_SOLVE_S
