"""Tests for the native estimation kernels and the serving fast path.

Covers the ISSUE 10 contracts:

* the NumPy kernels match a brute-force per-pair Python loop to ≤1e-12
  (float64) and ≤1e-6 (float32), property-tested over random, empty,
  and degenerate boxes, and over owner layouts that are not the identity
  (regression: an endpoints-only identity check passed ``[0, 0, 2]``),
* ``intersection_volumes`` keeps its temporaries to a few ``(n, m)``
  arrays (no ``(n, m, d)`` broadcast),
* the :class:`~repro.serving.cache.EstimateCache` TTL accounting —
  expired entries are excluded from counts and never evict live entries
  (fake-clock regressions), ``_model_key_of`` no longer buckets foreign
  tuple keys under their first element, TinyLFU admission is
  scan-resistant,
* :class:`~repro.serving.service.FastSlot` parity with
  ``SelectivityService.estimate`` and its buffered stats accounting.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels as kernels
from repro.core.config import QuickSelConfig
from repro.core.geometry import Hyperrectangle
from repro.core.mixture import UniformMixtureModel
from repro.core.predicate import box_predicate
from repro.core.quicksel import QuickSel
from repro.core.subpopulation import Subpopulation
from repro.estimators.buckets import Bucket, BucketSet
from repro.estimators.stholes import STHoles
from repro.exceptions import ServingError
from repro.kernels import (
    decay_weights,
    intersection_volumes,
    weighted_overlap_estimates,
)
from repro.serving import (
    EstimateCache,
    FrequencySketch,
    ModelKey,
    RefitScheduler,
    SelectivityService,
)
from repro.serving.cache import _model_key_of
from repro.workloads.queries import RandomRangeQueryGenerator, labelled_feedback
from repro.workloads.synthetic import gaussian_dataset

def _oracle_volumes(row_lower, row_upper, col_lower, col_upper):
    """Box-intersection volumes, one (row, column) pair at a time."""
    volumes = np.zeros((len(row_lower), len(col_lower)))
    for i in range(len(row_lower)):
        for j in range(len(col_lower)):
            volume = 1.0
            for low_a, high_a, low_b, high_b in zip(
                row_lower[i], row_upper[i], col_lower[j], col_upper[j]
            ):
                volume *= max(0.0, min(high_a, high_b) - max(low_a, low_b))
            volumes[i, j] = volume
    return volumes


def _oracle_estimates(
    piece_lower, piece_upper, owners, count, col_lower, col_upper,
    weight_over_volume,
):
    """Per-predicate clip(Σ overlap · w/|G|), summed piece by piece."""
    volumes = _oracle_volumes(piece_lower, piece_upper, col_lower, col_upper)
    estimates = [0.0] * count
    for i, owner in enumerate(owners):
        for j, ratio in enumerate(weight_over_volume):
            estimates[owner] += volumes[i, j] * ratio
    return np.array([min(1.0, max(0.0, value)) for value in estimates])


def _random_bounds(rng, count, dimension, degenerate_frac=0.0):
    lower = rng.uniform(-5.0, 5.0, size=(count, dimension))
    width = rng.uniform(0.0, 4.0, size=(count, dimension))
    if degenerate_frac:
        flat = rng.random(size=(count, dimension)) < degenerate_frac
        width[flat] = 0.0
    return lower, lower + width


# (owners, count) layouts the scatter back to predicates must get right,
# beside the random sorted owners: the identity, [0, 0, 2] (an
# endpoints-only identity check once passed it), a non-zero start, more
# pieces than predicates, empty and singleton batches, and predicates
# with no pieces at all.
OWNER_LAYOUTS = [
    ([0, 1, 2, 3], 4),
    ([0, 0, 2], 3),
    ([1, 2, 3], 4),
    ([0, 0, 1], 2),
    ([], 0),
    ([0], 1),
    ([], 3),
    ([0, 2], 4),
]


@st.composite
def bounds_case(draw):
    """Random (rows, cols) bound sets, including empty and degenerate."""
    dimension = draw(st.integers(1, 4))
    n = draw(st.integers(0, 6))
    m = draw(st.integers(0, 6))
    seed = draw(st.integers(0, 2**31 - 1))
    degenerate = draw(st.floats(0.0, 0.5))
    rng = np.random.default_rng(seed)
    row_lower, row_upper = _random_bounds(rng, n, dimension, degenerate)
    col_lower, col_upper = _random_bounds(rng, m, dimension, degenerate)
    return row_lower, row_upper, col_lower, col_upper


class TestKernelBackend:
    def test_backend_report_is_explicit(self):
        report = kernels.backend_report()
        assert report["backend"] == "numpy"
        assert report["reason"]
        assert report["numpy"] == np.__version__

    @settings(max_examples=60, deadline=None)
    @given(case=bounds_case())
    def test_intersection_volumes_matches_reference_f64(self, case):
        row_lower, row_upper, col_lower, col_upper = case
        active = intersection_volumes(row_lower, row_upper, col_lower, col_upper)
        reference = _oracle_volumes(row_lower, row_upper, col_lower, col_upper)
        np.testing.assert_allclose(active, reference, atol=1e-12, rtol=0)

    @settings(max_examples=60, deadline=None)
    @given(case=bounds_case())
    def test_intersection_volumes_matches_reference_f32(self, case):
        arrays = [a.astype(np.float32) for a in case]
        active = intersection_volumes(*arrays)
        reference = _oracle_volumes(*[a.astype(np.float64) for a in arrays])
        assert active.dtype == np.float32
        np.testing.assert_allclose(active, reference, atol=1e-6, rtol=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(case=bounds_case(), seed=st.integers(0, 2**31 - 1))
    def test_weighted_overlap_estimates_matches_reference(self, case, seed):
        row_lower, row_upper, col_lower, col_upper = case
        n, m = row_lower.shape[0], col_lower.shape[0]
        rng = np.random.default_rng(seed)
        owners = np.sort(rng.integers(0, max(n, 1), size=n)).astype(np.intp)
        weight_over_volume = rng.uniform(0.0, 2.0, size=m)
        batches = [(row_lower, row_upper, owners, max(n, 1))]
        for layout, count in OWNER_LAYOUTS:
            lower, upper = _random_bounds(rng, len(layout), row_lower.shape[1])
            batches.append((lower, upper, np.array(layout, dtype=np.intp), count))
        for lower, upper, owners, count in batches:
            active = weighted_overlap_estimates(
                lower, upper, owners, count,
                col_lower, col_upper, weight_over_volume,
            )
            reference = _oracle_estimates(
                lower, upper, owners, count,
                col_lower, col_upper, weight_over_volume,
            )
            assert active.shape == (count,)
            np.testing.assert_allclose(active, reference, atol=1e-12, rtol=0)
            assert (active >= 0.0).all() and (active <= 1.0).all()

    def test_intersection_volumes_temporaries_stay_bounded(self):
        """One call peaks at a few (n, m) arrays, never an (n, m, d) one."""
        n, m, d = 64, 1200, 3
        rng = np.random.default_rng(21)
        row_lower, row_upper = _random_bounds(rng, n, d)
        col_lower, col_upper = _random_bounds(rng, m, d)
        intersection_volumes(row_lower, row_upper, col_lower, col_upper)
        tracemalloc.start()
        try:
            intersection_volumes(row_lower, row_upper, col_lower, col_upper)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * n * m * 8

    def test_decay_weights_matches_closed_form(self):
        ages = np.arange(20.0)
        expected = 0.5 ** (ages / 7.0)
        np.testing.assert_allclose(decay_weights(ages, 7.0), expected, atol=1e-12)

    def test_config_decay_weights_delegates_to_kernel(self):
        config = QuickSelConfig(
            window_policy="decayed", training_window=64, decay_half_life=5.0
        )
        ages = np.array([0.0, 5.0, 10.0])
        np.testing.assert_allclose(
            config.decay_weights(ages), [1.0, 0.5, 0.25], atol=1e-12
        )


def _per_piece_and_estimates(owners, count, seed=5, dimension=2):
    """The kernel's estimates for one owner layout, beside the per-piece
    values it scatters back to predicates (checked against the oracle)."""
    rng = np.random.default_rng(seed)
    owners = np.array(owners, dtype=np.intp)
    lower, upper = _random_bounds(rng, len(owners), dimension)
    col_lower, col_upper = _random_bounds(rng, 4, dimension)
    weight_over_volume = rng.uniform(0.0, 0.2, size=4)
    active = weighted_overlap_estimates(
        lower, upper, owners, count, col_lower, col_upper, weight_over_volume
    )
    reference = _oracle_estimates(
        lower, upper, owners, count, col_lower, col_upper, weight_over_volume
    )
    assert active.shape == (count,)
    np.testing.assert_allclose(active, reference, atol=1e-12, rtol=0)
    per_piece = _oracle_volumes(lower, upper, col_lower, col_upper) @ weight_over_volume
    return per_piece, active


class TestOwnersArray:
    """Owner layouts the scatter back to predicates must get right."""

    def test_identity_is_certified(self):
        per_piece, active = _per_piece_and_estimates([0, 1, 2, 3], 4)
        np.testing.assert_allclose(
            active, np.clip(per_piece, 0.0, 1.0), atol=1e-12, rtol=0
        )

    def test_regression_0_0_2_is_not_identity(self):
        """Endpoint checks (first==0, last==n-1) pass [0, 0, 2]; the
        scatter must still sum pieces 0 and 1 into predicate 0."""
        per_piece, active = _per_piece_and_estimates([0, 0, 2], 3)
        expected = np.clip([per_piece[0] + per_piece[1], 0.0, per_piece[2]], 0, 1)
        np.testing.assert_allclose(active, expected, atol=1e-12, rtol=0)

    def test_non_zero_start_is_not_identity(self):
        per_piece, active = _per_piece_and_estimates([1, 2, 3], 4)
        expected = np.clip(np.concatenate([[0.0], per_piece]), 0.0, 1.0)
        np.testing.assert_allclose(active, expected, atol=1e-12, rtol=0)

    def test_length_mismatch_is_not_identity(self):
        per_piece, active = _per_piece_and_estimates([0, 0, 1], 2)
        expected = np.clip([per_piece[0] + per_piece[1], per_piece[2]], 0, 1)
        np.testing.assert_allclose(active, expected, atol=1e-12, rtol=0)

    def test_empty_and_singleton(self):
        _, empty = _per_piece_and_estimates([], 0)
        assert empty.shape == (0,)
        _, no_pieces = _per_piece_and_estimates([], 3)
        np.testing.assert_array_equal(no_pieces, np.zeros(3))
        per_piece, single = _per_piece_and_estimates([0], 1)
        np.testing.assert_allclose(
            single, np.clip(per_piece, 0.0, 1.0), atol=1e-12, rtol=0
        )

    def test_identity_skip_equals_scatter_add(self):
        """bincount over identity owners equals the np.add.at scatter-add
        it replaced, bit for bit."""
        owners = np.arange(6, dtype=np.intp)
        per_piece, active = _per_piece_and_estimates(owners, 6)
        scattered = np.zeros(6)
        np.add.at(scattered, owners, per_piece)
        np.testing.assert_allclose(
            active, np.clip(scattered, 0.0, 1.0), atol=1e-12, rtol=0
        )


def _mixture_model(seed=0, components=12, dimension=2):
    rng = np.random.default_rng(seed)
    subs = []
    for _ in range(components):
        low = rng.uniform(0.0, 0.6, size=dimension)
        high = low + rng.uniform(0.1, 0.4, size=dimension)
        box = Hyperrectangle(np.stack([low, high], axis=1))
        subs.append(Subpopulation(box, center=(low + high) / 2.0))
    weights = rng.dirichlet(np.ones(components))
    return UniformMixtureModel(subs, weights)


class TestModelBatchKernels:
    def test_mixture_batch_matches_scalar(self):
        model = _mixture_model(seed=4)
        rng = np.random.default_rng(9)
        boxes = []
        for _ in range(7):
            low = rng.uniform(0.0, 0.7, size=2)
            boxes.append(
                Hyperrectangle(
                    np.stack([low, low + rng.uniform(0.05, 0.3, size=2)], axis=1)
                )
            )
        batched = model.estimate_many(boxes)
        scalar = np.array([model.estimate(box) for box in boxes])
        np.testing.assert_allclose(batched, scalar, atol=1e-9)

    def test_bucket_set_batch_matches_scalar_after_inplace_feedback(self):
        """STHoles mutates bucket frequencies in place; the cached
        frequency/volume vector must observe it (the dirty protocol)."""
        domain = Hyperrectangle.unit(2)
        estimator = STHoles(domain, max_buckets=16)
        rng = np.random.default_rng(2)
        for _ in range(12):
            low = rng.uniform(0.0, 0.6, size=2)
            high = low + rng.uniform(0.1, 0.4, size=2)
            box = Hyperrectangle(np.stack([low, high], axis=1))
            estimator.observe(box, float(rng.uniform(0.0, 1.0)))
            probe = Hyperrectangle(np.stack([low, np.minimum(high + 0.05, 1.0)], axis=1))
            batched = estimator.estimate_many([probe])[0]
            assert batched == pytest.approx(estimator.estimate(probe), abs=1e-9)

    def test_bucket_set_set_frequencies_invalidates_cache(self):
        domain = Hyperrectangle.unit(1)
        buckets = BucketSet(
            domain=domain,
            buckets=[
                Bucket(Hyperrectangle([[0.0, 0.5]]), frequency=0.5),
                Bucket(Hyperrectangle([[0.5, 1.0]]), frequency=0.5),
            ],
        )
        probe_lower = [np.array([0.0])]
        probe_upper = [np.array([0.5])]
        first = buckets.estimate_from_bounds(probe_lower, probe_upper, [0], 1)
        assert first[0] == pytest.approx(0.5)
        buckets.set_frequencies([1.0, 0.0])
        second = buckets.estimate_from_bounds(probe_lower, probe_upper, [0], 1)
        assert second[0] == pytest.approx(1.0)


class TestCacheModelKeyOf:
    def test_service_shaped_keys_are_recognised(self):
        key = (ModelKey("t"), 3, ("H", b"bytes"))
        assert _model_key_of(key) == ModelKey("t")
        scoped = (("challenger", ModelKey("t")), 0, ("T",))
        assert _model_key_of(scoped) == ("challenger", ModelKey("t"))

    def test_bare_predicate_tokens_are_foreign(self):
        """Regression: ("H", bytes) was bucketed under phantom model key
        "H" — invalidate("H") would drop it and entries_for("H") counted
        it."""
        assert _model_key_of(("H", b"\x00" * 32)) is None
        assert _model_key_of(("T",)) is None
        assert _model_key_of(("r", 0, 1.0, 2.0)) is None
        assert _model_key_of("plain") is None

    def test_raw_token_survives_unrelated_invalidate(self):
        cache = EstimateCache(capacity=8, per_key_capacity=4)
        token = ("H", b"\x01" * 16)
        cache.put(token, 0.25)
        assert cache.entries_for("H") == 0
        assert cache.invalidate("H") == 0
        assert cache.get(token) == pytest.approx(0.25)


class TestCacheTTL:
    def _make(self, **kwargs):
        clock = {"now": 0.0}
        cache = EstimateCache(clock=lambda: clock["now"], **kwargs)
        return cache, clock

    def test_expired_entries_leave_len_and_counts(self):
        cache, clock = self._make(capacity=8, ttl_seconds=10.0)
        service_key = (ModelKey("t"), 1, ("T",))
        cache.put(service_key, 0.5)
        assert len(cache) == 1
        assert cache.entries_for(ModelKey("t")) == 1
        clock["now"] = 10.0
        assert len(cache) == 0
        assert cache.entries_for(ModelKey("t")) == 0
        assert cache.get(service_key) is None

    def test_expired_entries_never_evict_live_ones(self):
        """Regression: at put overflow the global LRU evicted the oldest
        *live* entry while expired entries squatted in capacity."""
        cache, clock = self._make(capacity=3, ttl_seconds=10.0)
        cache.put("dead-1", 0.1)
        cache.put("dead-2", 0.2)
        clock["now"] = 5.0
        cache.put("live", 0.3)
        clock["now"] = 12.0  # dead-1/dead-2 expired, live is not
        cache.put("new", 0.4)
        assert cache.get("live") == pytest.approx(0.3)
        assert cache.get("new") == pytest.approx(0.4)
        assert len(cache) == 2

    def test_re_put_refreshes_deadline(self):
        cache, clock = self._make(capacity=4, ttl_seconds=10.0)
        cache.put("k", 0.1)
        clock["now"] = 8.0
        cache.put("k", 0.2)  # fresh deadline at t=18
        clock["now"] = 12.0  # original record expired, entry must live on
        assert cache.get("k") == pytest.approx(0.2)
        assert len(cache) == 1
        clock["now"] = 18.0
        assert cache.get("k") is None

    def test_sweep_clears_per_key_buckets(self):
        cache, clock = self._make(
            capacity=8, per_key_capacity=4, ttl_seconds=5.0
        )
        key = (ModelKey("t"), 1, ("T",))
        cache.put(key, 0.5)
        clock["now"] = 6.0
        assert cache.entries_for(ModelKey("t")) == 0
        cache.put(key, 0.7)
        assert cache.entries_for(ModelKey("t")) == 1


class TestTinyLFU:
    def test_sketch_counts_and_saturates(self):
        sketch = FrequencySketch(64)
        assert sketch.estimate("k") == 0
        for _ in range(40):
            sketch.increment("k")
        assert sketch.estimate("k") == 15  # 4-bit saturation

    def test_sketch_ages_by_halving(self):
        sketch = FrequencySketch(4)  # sample size 40 → quick aging
        for _ in range(12):
            sketch.increment("hot")
        before = sketch.estimate("hot")
        for i in range(40):
            sketch.increment(("filler", i))
        assert sketch.estimate("hot") < before

    def test_scan_resistance(self):
        """A one-pass scan mixed into a hot working set must not flush
        the hot keys out of a TinyLFU cache, while plain LRU loses them."""
        capacity = 64
        hot = [("hot", i) for i in range(capacity // 2)]
        rng = np.random.default_rng(0)

        def run(cache):
            # Warm the hot working set with repeated hits.
            for _ in range(8):
                for key in hot:
                    if cache.get(key) is None:
                        cache.put(key, 1.0)
            # One-pass scan of never-repeated keys, hot gets re-probed.
            # The scan is wide enough (8 cold keys per hot probe against a
            # 64-entry cache) that a recency-only policy churns through
            # its whole capacity between repeat touches of any hot key.
            hits = 0
            probes = 0
            scan_key = 0
            for i in range(500):
                for _ in range(8):
                    cache.get(("scan", scan_key))
                    cache.put(("scan", scan_key), 0.0)
                    scan_key += 1
                key = hot[int(rng.integers(len(hot)))]
                probes += 1
                if cache.get(key) is not None:
                    hits += 1
                else:
                    cache.put(key, 1.0)
            return hits / probes

        lru_rate = run(EstimateCache(capacity=capacity))
        tlfu_rate = run(EstimateCache(capacity=capacity, admission="tinylfu"))
        assert lru_rate < 0.5  # LRU thrashes under the scan
        assert tlfu_rate >= 2 * lru_rate
        assert tlfu_rate > 0.9  # scan keys never displace the hot set

    def test_admission_rejects_cold_new_key_when_full(self):
        cache = EstimateCache(capacity=2, admission="tinylfu")
        for _ in range(5):
            cache.put("a", 1.0)
            cache.put("b", 2.0)
        cache.put("cold", 3.0)  # first sighting loses to warm victims
        assert cache.get("cold") is None
        assert cache.get("a") == pytest.approx(1.0)
        assert cache.get("b") == pytest.approx(2.0)

    def test_repeatedly_requested_key_is_eventually_admitted(self):
        cache = EstimateCache(capacity=2, admission="tinylfu")
        cache.put("a", 1.0)
        cache.put("b", 2.0)
        for _ in range(20):
            cache.get("comeback")  # misses still count as frequency
        cache.put("comeback", 3.0)
        assert cache.get("comeback") == pytest.approx(3.0)


@pytest.fixture(scope="module")
def fast_world():
    """A service with a trained QuickSel model and probe predicates."""
    dataset = gaussian_dataset(4_000, dimension=2, correlation=0.4, seed=21)
    generator = RandomRangeQueryGenerator(dataset.domain, seed=22)
    feedback = labelled_feedback(generator.generate(60), dataset.rows)
    trained = QuickSel(dataset.domain, QuickSelConfig(random_seed=1))
    trained.observe_many(feedback, refit=True)
    service = SelectivityService(scheduler=RefitScheduler("inline"))
    service.register_model("orders", trained)
    rng = np.random.default_rng(7)
    predicates = []
    for _ in range(32):
        low = rng.uniform(0.0, 0.6, size=2)
        high = np.minimum(low + rng.uniform(0.1, 0.4, size=2), 1.0)
        predicates.append(
            box_predicate([(0, low[0], high[0]), (1, low[1], high[1])])
        )
    yield service, predicates
    service.close()


class TestFastSlot:
    def test_slot_matches_service_estimate(self, fast_world):
        service, predicates = fast_world
        slot = service.fast_slot("orders", flush_every=8)
        for predicate in predicates:
            assert slot.estimate(predicate) == pytest.approx(
                service.estimate("orders", predicate), abs=1e-12
            )
        slot.flush()

    def test_buffered_stats_flush(self, fast_world):
        service, predicates = fast_world
        slot = service.fast_slot("orders", flush_every=1000)
        before = service.stats.counters()
        for predicate in predicates[:10]:
            slot.estimate(predicate)
        mid = service.stats.counters()
        assert mid["estimate_requests"] == before["estimate_requests"]
        slot.flush()
        after = service.stats.counters()
        assert (
            after["estimate_requests"] - before["estimate_requests"] == 10
        )
        assert after["predicates_served"] - before["predicates_served"] == 10
        hits = after["cache_hits"] - before["cache_hits"]
        misses = after["cache_misses"] - before["cache_misses"]
        assert hits + misses == 10

    def test_flush_every_one_records_immediately(self, fast_world):
        service, predicates = fast_world
        slot = service.fast_slot("orders", flush_every=1)
        before = service.stats.counters()["estimate_requests"]
        slot.estimate(predicates[0])
        assert service.stats.counters()["estimate_requests"] == before + 1

    def test_slot_sees_publishes_instantly(self, fast_world):
        service, predicates = fast_world
        slot = service.fast_slot("orders")
        version = slot.snapshot().version
        service.refit_now("orders")
        assert slot.snapshot().version == version + 1
        slot.flush()

    def test_slot_for_unknown_key_raises(self, fast_world):
        service, _ = fast_world
        with pytest.raises(ServingError):
            service.fast_slot("missing-table")

    def test_estimate_still_raises_for_unknown_key(self, fast_world):
        service, predicates = fast_world
        with pytest.raises(ServingError):
            service.estimate("missing-table", predicates[0])

    def test_slot_survives_unregister_reregister(self, make_service, fast_world):
        _, predicates = fast_world
        dataset = gaussian_dataset(2_000, dimension=2, correlation=0.2, seed=31)
        generator = RandomRangeQueryGenerator(dataset.domain, seed=32)
        feedback = labelled_feedback(generator.generate(40), dataset.rows)
        trained = QuickSel(dataset.domain, QuickSelConfig(random_seed=2))
        trained.observe_many(feedback, refit=True)
        service = make_service()
        service.register_model("t", trained)
        slot = service.fast_slot("t", flush_every=1)
        first = slot.estimate(predicates[0])
        trainer = service.unregister_model("t")
        with pytest.raises(ServingError):
            slot.estimate(predicates[0])
        service.register_model("t", trainer)
        assert slot.estimate(predicates[0]) == pytest.approx(first, abs=1e-9)
