"""Seeded inputs and the three closed-loop workloads.

Every workload has one client in one process that waits for each reply
before it sends the next request, because a query optimizer blocks on
every estimate.  All three serve d=2 QuickSel models trained on a
300-query sliding window (the paper's 300-query figure).  The seed is
a benchmark argument; the program only ever sees the generated
predicates and selectivities.  Why each workload exists, and which
metric each layer should move on it, is in ``perfbench/README.md``.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

from repro import QuickSel, QuickSelConfig
from repro.core.geometry import Hyperrectangle
from repro.core.predicate import BoxPredicate, RangeConstraint
from repro.serving import RefitScheduler, SelectivityService
from repro.workloads.drift import (
    AbruptShiftStream,
    DriftRegime,
    RotatingDriftStream,
)
from repro.workloads.queries import RandomRangeQueryGenerator

WINDOW = 300
KEYS = tuple(f"t{index}" for index in range(8))
WRITE_KEYS = KEYS[:2]
# The written keys arrive with 4 windows of feedback history (the window
# keeps the last 300), so their subpopulation centres were last rebuilt
# at 1200 queries and the next rebuild (at 2x) lies beyond any run: the
# refits a run sees are the steady-state sliding-window refits.
# learn_loop's stream, which starts at 300, covers the rebuilds.
WRITE_HISTORY = 4 * WINDOW
POOL_PER_KEY = 768  # 8 x 768 = 6144 structures > EstimateCache's 4096
ZIPF_S = 1.0
PREDICATES_PER_PLAN = 3
PROBES_PER_PREDICATE = 4
BATCH_PAIRS = 64
BATCH_EVERY = 8  # one plan in 8 is a 64-pair estimate_batch_mixed burst
PLAN_BLOCK = 4096


def quicksel_config() -> QuickSelConfig:
    return QuickSelConfig(window_policy="sliding", training_window=WINDOW)


def fresh_predicate(bounds: tuple[float, float, float, float]) -> BoxPredicate:
    """A new predicate object with a known structure (a cache key, not a
    memo key: the FastSlot memo is keyed by object identity)."""
    return BoxPredicate(
        (
            RangeConstraint(0, bounds[0], bounds[1]),
            RangeConstraint(1, bounds[2], bounds[3]),
        )
    )


def _bounds_of(predicate: BoxPredicate) -> tuple[float, float, float, float]:
    first, second = predicate.constraints
    return (float(first.low), float(first.high), float(second.low), float(second.high))


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
class ServingInputs:
    """Eight static tables, their training feedback, and probe pools.

    Key ``i``'s data is a Gaussian regime fixed by ``i`` (means around
    the centre, correlations from -0.6 to 0.6), sampled from the seed;
    its model trains on the last ``WINDOW`` of its labelled feedback.
    Each key's pool holds
    ``POOL_PER_KEY`` predicate structures with exact selectivities;
    plans draw from it with Zipf(``ZIPF_S``) popularity.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.train: list[list[tuple[BoxPredicate, float]]] = []
        self.pool: list[list[tuple[float, float, float, float]]] = []
        self.truth: list[np.ndarray] = []
        for index in range(len(KEYS)):
            angle = 2.0 * np.pi * index / len(KEYS)
            regime = DriftRegime(
                mean=(0.5 + 0.15 * np.cos(angle), 0.5 + 0.15 * np.sin(angle)),
                correlation=-0.6 + 1.2 * index / (len(KEYS) - 1),
                scale=0.12 + 0.02 * (index % 4),
            )
            stream = AbruptShiftStream(
                shift_at=10**9,
                before=regime,
                after=DriftRegime(mean=(0.5, 0.5)),
                seed=seed * 1000 + index,
            )
            history = WRITE_HISTORY if KEYS[index] in WRITE_KEYS else WINDOW
            self.train.append(stream.labelled(history))
            predicates = RandomRangeQueryGenerator(
                stream.domain, seed=seed * 1000 + 500 + index
            ).generate(POOL_PER_KEY)
            self.pool.append([_bounds_of(p) for p in predicates])
            self.truth.append(stream.truth(predicates))
        weights = 1.0 / np.arange(1, POOL_PER_KEY + 1) ** ZIPF_S
        self.zipf_cdf = np.cumsum(weights) / weights.sum()

    def trainer(self, index: int) -> QuickSel:
        """An untrained QuickSel holding key ``index``'s feedback."""
        model = QuickSel(Hyperrectangle.unit(2), quicksel_config())
        model.observe_many(self.train[index])
        return model

    def fingerprint(self) -> float:
        return float(sum(t.sum() for t in self.truth))


class PlanStream:
    """The deterministic optimizer request stream over ``ServingInputs``.

    Yields ``("scalar", key, [structures])`` plans (each predicate probed
    ``PROBES_PER_PREDICATE`` times), ``("batch", [(key, structure)])``
    bursts, and ``("write", key, structure)`` feedback after one plan in
    ``write_every``, confined to ``WRITE_KEYS``, with the reads' Zipf
    popularity.
    """

    def __init__(self, inputs: ServingInputs, seed: int, write_every: int) -> None:
        self._inputs = inputs
        self._rng = np.random.default_rng(seed + 77)
        self._write_every = write_every
        self._queue: list[tuple] = []
        self._position = 0

    def _zipf(self, size) -> np.ndarray:
        return np.searchsorted(self._inputs.zipf_cdf, self._rng.random(size))

    def _fill(self) -> None:
        rng = self._rng
        kinds = rng.integers(0, BATCH_EVERY, PLAN_BLOCK)
        keys = rng.integers(0, len(KEYS), PLAN_BLOCK)
        structures = self._zipf((PLAN_BLOCK, PREDICATES_PER_PLAN))
        writes = rng.integers(0, self._write_every, PLAN_BLOCK)
        write_keys = rng.integers(0, len(WRITE_KEYS), PLAN_BLOCK)
        # Feedback follows the same popularity as the reads: the queries
        # an optimizer executes are the ones it plans most.
        write_structures = self._zipf(PLAN_BLOCK)
        plans: list[tuple] = []
        for row in range(PLAN_BLOCK):
            if kinds[row] == 0:
                pair_keys = rng.integers(0, len(KEYS), BATCH_PAIRS)
                pair_structures = self._zipf(BATCH_PAIRS)
                plans.append(
                    ("batch", list(zip(pair_keys.tolist(), pair_structures.tolist())))
                )
            else:
                plans.append(("scalar", int(keys[row]), structures[row].tolist()))
            if writes[row] == 0:
                plans.append(
                    ("write", int(write_keys[row]), int(write_structures[row]))
                )
        self._queue = plans
        self._position = 0

    def next(self) -> tuple:
        if self._position >= len(self._queue):
            self._fill()
        plan = self._queue[self._position]
        self._position += 1
        return plan


class LearnInputs:
    """The paper's online loop: a rotating-drift feedback stream."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._stream = RotatingDriftStream(period=2000, seed=seed)
        self.initial = self._stream.labelled(WINDOW)
        self._pairs: list[tuple[BoxPredicate, float]] = []
        self._batch_generator = RandomRangeQueryGenerator(
            self._stream.domain, seed=seed + 7
        )
        self.extend(6000)

    def extend(self, count: int) -> None:
        self._pairs.extend(self._stream.labelled(count))

    def pair(self, index: int) -> tuple[BoxPredicate, float]:
        while index >= len(self._pairs):
            self.extend(1000)
        return self._pairs[index]

    def batch(self) -> list[BoxPredicate]:
        return self._batch_generator.generate(BATCH_PAIRS)

    def trainer(self) -> QuickSel:
        model = QuickSel(self._stream.domain, quicksel_config())
        model.observe_many(self.initial)
        return model

    def fingerprint(self) -> float:
        return float(sum(s for _, s in self._pairs[:1000]))


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------
WINDOWED = ("estimate", "batch", "observe")


class Recorder:
    """Per-operation latencies, outcomes and served values."""

    def __init__(self) -> None:
        self.estimate = array("d")
        self.batch = array("d")
        self.observe = array("d")
        self.refit = array("d")
        self.attempted = 0
        self.failed = 0
        self.errors: dict[str, int] = {}
        self.acked_writes = {key: 0 for key in KEYS + ("k",)}
        # (key index, structure) -> served values, for the parity checks
        self.served_keys = array("i")
        self.served_structures = array("i")
        self.served_values = array("d")
        self.out_of_range = 0
        self.qerrors = array("d")
        self.raw_qerrors = array("d")
        self.wall = 0.0
        self.ops_at_mark = 0
        self.attempted_at_mark = 0
        # A perfbench.calibrate.Calibrator while a timed phase runs.
        self.calibrator = None
        # A perfbench.calibrate.SolveReference while a timed phase runs.
        self.solve_reference = None

    def mark(self) -> None:
        """Start a timed phase: drop earlier timings, keep the counts."""
        self.estimate = array("d")
        self.batch = array("d")
        self.observe = array("d")
        self.refit = array("d")
        self.wall = 0.0
        self.ops_at_mark = self.ops
        self.attempted_at_mark = self.attempted
        self.windows: list[dict] = []

    def window(self, phase, seconds: float) -> None:
        """Run ``phase(seconds)`` as one window of the timed phase and
        keep its own medians and throughput."""
        starts = {name: len(getattr(self, name)) for name in WINDOWED}
        ops, wall = self.ops, self.wall
        calibrator = self.calibrator
        calibration = calibrator.mark() if calibrator else (0.0, 0)
        reference = self.solve_reference
        solving = reference.mark()
        phase(seconds)
        view = {
            name: np.median(np.asarray(getattr(self, name)[starts[name]:]))
            if len(getattr(self, name)) > starts[name] else 0.0
            for name in WINDOWED
        }
        spent = calibrator.seconds - calibration[0] if calibrator else 0.0
        spent += reference.seconds - solving[0]
        view["ops_per_s"] = (self.ops - ops) / (self.wall - wall - spent)
        view["solve_speed"] = reference.speed_since(solving)
        view["speed"] = (
            calibrator.speed_since(calibration) if calibrator else view["solve_speed"]
        )
        self.windows.append(view)

    def clear_served(self) -> None:
        """Forget served values that have already been checked."""
        self.served_keys = array("i")
        self.served_structures = array("i")
        self.served_values = array("d")

    def fail(self, error: Exception) -> None:
        self.failed += 1
        name = type(error).__name__
        self.errors[name] = self.errors.get(name, 0) + 1

    def served(self, key: int, structure: int, value: float) -> None:
        self.served_keys.append(key)
        self.served_structures.append(structure)
        self.served_values.append(value)
        if not 0.0 <= value <= 1.0:
            self.out_of_range += 1

    @property
    def ops(self) -> int:
        return self.attempted - self.failed


# Selectivities below 1% of the table are floored there before the
# ratio: an optimizer treats all of them as "small", and near-empty
# predicates would otherwise make the tail a lottery over which empty
# corners a seed's queries hit.  The detail record also carries the
# quantiles at a one-in-10^4 floor, where that tail shows.
QERROR_FLOOR = 0.01
RAW_QERROR_FLOOR = 1e-4


def qerror(estimate: float, truth: float, floor: float = QERROR_FLOOR) -> float:
    estimate = max(estimate, floor)
    truth = max(truth, floor)
    return max(estimate / truth, truth / estimate)


# ----------------------------------------------------------------------
# The plan loop (plan_probe and remote_fleet share it)
# ----------------------------------------------------------------------
def run_plans(service, inputs: ServingInputs, stream: PlanStream, recorder,
              plans: int | None = None, seconds: float | None = None) -> None:
    """Run ``plans`` plans, or plans until ``seconds`` have passed."""
    pool = inputs.pool
    truth = inputs.truth
    calibrator = recorder.calibrator
    clock = time.perf_counter
    deadline = None if seconds is None else clock() + seconds
    done = 0
    start = clock()
    while True:
        if plans is not None and done >= plans:
            break
        if deadline is not None and clock() >= deadline:
            break
        done += 1
        if calibrator is not None:
            calibrator.tick()
        plan = stream.next()
        kind = plan[0]
        if kind == "scalar":
            key_index = plan[1]
            key = KEYS[key_index]
            structures = plan[2]
            predicates = [fresh_predicate(pool[key_index][s]) for s in structures]
            for _ in range(PROBES_PER_PREDICATE):
                for structure, predicate in zip(structures, predicates):
                    recorder.attempted += 1
                    try:
                        began = clock()
                        value = service.estimate(key, predicate)
                        recorder.estimate.append(clock() - began)
                    except Exception as error:  # noqa: BLE001 (counted)
                        recorder.fail(error)
                        continue
                    recorder.served(key_index, structure, value)
        elif kind == "batch":
            pairs = plan[1]
            request = [
                (KEYS[k], fresh_predicate(pool[k][s])) for k, s in pairs
            ]
            recorder.attempted += 1
            try:
                began = clock()
                values = service.estimate_batch_mixed(request)
                recorder.batch.append(clock() - began)
            except Exception as error:  # noqa: BLE001 (counted)
                recorder.fail(error)
                continue
            for (k, s), value in zip(pairs, values):
                recorder.served(k, s, float(value))
        else:
            key_index, structure = plan[1], plan[2]
            key = KEYS[key_index]
            predicate = fresh_predicate(pool[key_index][structure])
            recorder.attempted += 1
            try:
                began = clock()
                refitted = service.observe(
                    key, predicate, float(truth[key_index][structure])
                )
                elapsed = clock() - began
            except Exception as error:  # noqa: BLE001 (counted)
                recorder.fail(error)
                continue
            recorder.acked_writes[key] += 1
            (recorder.refit if refitted else recorder.observe).append(elapsed)
            if refitted and recorder.solve_reference is not None:
                recorder.solve_reference.run()
    recorder.wall += clock() - start


def run_learning(service, inputs: LearnInputs, recorder, start_index: int,
                 queries: int | None = None, seconds: float | None = None,
                 score_first: int = 0) -> int:
    """The online loop: estimate each new query, then feed back its truth.

    Every ``BATCH_EVERY * 2``-th query the optimizer also costs a burst
    of ``BATCH_PAIRS`` never-seen predicates (the cold batch path).  The
    first ``score_first`` estimates are scored for q-error, so the score
    repeats exactly for a seed.  Returns the next stream index.
    """
    calibrator = recorder.calibrator
    clock = time.perf_counter
    deadline = None if seconds is None else clock() + seconds
    index = start_index
    done = 0
    start = clock()
    while True:
        if queries is not None and done >= queries:
            break
        if deadline is not None and clock() >= deadline and done >= score_first:
            break
        if calibrator is not None:
            calibrator.tick()
        predicate, selectivity = inputs.pair(index)
        index += 1
        done += 1
        recorder.attempted += 1
        try:
            began = clock()
            value = service.estimate("k", predicate)
            recorder.estimate.append(clock() - began)
        except Exception as error:  # noqa: BLE001 (counted)
            recorder.fail(error)
            continue
        recorder.served(0, 0, value)
        if done <= score_first:
            recorder.qerrors.append(qerror(value, selectivity))
            recorder.raw_qerrors.append(qerror(value, selectivity, RAW_QERROR_FLOOR))
        recorder.attempted += 1
        try:
            began = clock()
            refitted = service.observe("k", predicate, selectivity)
            elapsed = clock() - began
        except Exception as error:  # noqa: BLE001 (counted)
            recorder.fail(error)
            continue
        recorder.acked_writes["k"] += 1
        (recorder.refit if refitted else recorder.observe).append(elapsed)
        if refitted and recorder.solve_reference is not None:
            recorder.solve_reference.run()
        if done % (BATCH_EVERY * 2) == 0:
            request = [("k", p) for p in inputs.batch()]
            recorder.attempted += 1
            try:
                began = clock()
                values = service.estimate_batch_mixed(request)
                recorder.batch.append(clock() - began)
            except Exception as error:  # noqa: BLE001 (counted)
                recorder.fail(error)
                continue
            for value in values:
                recorder.served(0, 0, float(value))
    recorder.wall += clock() - start
    return index


# ----------------------------------------------------------------------
# In-process set-up
# ----------------------------------------------------------------------
def inline_service() -> SelectivityService:
    """A service whose refits run on the caller's thread, so an
    ``observe`` that triggers one returns only after the publish."""
    return SelectivityService(scheduler=RefitScheduler(mode="inline"))


def setup_plan_service(inputs: ServingInputs) -> SelectivityService:
    service = inline_service()
    for index, key in enumerate(KEYS):
        service.register_model(key, inputs.trainer(index))
    return service


def setup_learn_service(inputs: LearnInputs) -> SelectivityService:
    service = inline_service()
    service.register_model("k", inputs.trainer())
    return service
