"""Tests for the in-place refactorisation route and reweighted models.

Covers the contracts of the analytic refit path:

* :func:`~repro.solvers.linalg.factorize_normal_matrix` factorises
  ``base + scale·rowsᵀrows + ridge·I`` into one reused Fortran-order
  buffer and raises :class:`SolverError` on a non-finite or
  non-positive-definite matrix,
* a steady-state sliding-window refit allocates less than one ``(m, m)``
  float64 array and keeps the cached factor in the same buffer,
* a rejected normal matrix sends the trainer down the
  :func:`~repro.solvers.linalg.regularized_solve` ladder and leaves the
  factor cache unavailable,
* :meth:`~repro.core.mixture.UniformMixtureModel.reweighted` estimates
  bit for bit like a freshly built model, and ``QuickSel.refit`` shares
  geometry only while the subpopulations are unchanged.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import repro.core.incremental as incremental
from repro.core.config import QuickSelConfig
from repro.core.geometry import Hyperrectangle
from repro.core.mixture import UniformMixtureModel
from repro.core.quicksel import QuickSel
from repro.core.region import Region
from repro.core.subpopulation import Subpopulation
from repro.exceptions import SolverError
from repro.solvers.linalg import (
    CachedCholesky,
    cholesky_solve,
    factorize_normal_matrix,
)
from repro.workloads.queries import RandomRangeQueryGenerator, labelled_feedback
from repro.workloads.synthetic import gaussian_dataset


@pytest.fixture(scope="module")
def feedback_pool():
    dataset = gaussian_dataset(5_000, dimension=2, correlation=0.5, seed=7)
    generator = RandomRangeQueryGenerator(dataset.domain, seed=8)
    return dataset.domain, labelled_feedback(
        generator.generate(240), dataset.rows
    )


def sliding_estimator(domain, window=64, m=160, **kwargs):
    kwargs.setdefault("center_rebuild_factor", 1e9)
    config = QuickSelConfig(
        window_policy="sliding",
        training_window=window,
        fixed_subpopulations=m,
        random_seed=0,
        **kwargs,
    )
    return QuickSel(domain, config)


def spd_problem(rng, m=12, n=30):
    base = rng.normal(size=(m, m))
    base = base @ base.T / m + np.eye(m)
    base = 0.5 * (base + base.T)
    return base, rng.normal(size=(n, m))


# ----------------------------------------------------------------------
# The helper
# ----------------------------------------------------------------------
class TestFactorizeNormalMatrix:
    def test_matches_direct_solve_and_reuses_out(self, rng):
        base, rows = spd_problem(rng)
        rhs = rng.normal(size=base.shape[0])
        out = np.empty(base.shape, order="F")
        factor = factorize_normal_matrix(base, rows, 3.0, 0.5, out=out)
        assert factor is out
        expected = np.linalg.solve(
            base + 3.0 * rows.T @ rows + 0.5 * np.eye(base.shape[0]), rhs
        )
        np.testing.assert_allclose(cholesky_solve(factor, rhs), expected, atol=1e-10)

    def test_mismatched_out_is_replaced(self, rng):
        base, rows = spd_problem(rng)
        c_order = np.empty(base.shape)
        assert factorize_normal_matrix(base, rows, out=c_order) is not c_order
        small = np.empty((3, 3), order="F")
        assert factorize_normal_matrix(base, rows, out=small) is not small

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["diagonal", "off_diagonal", "rows"])
    def test_non_finite_input_raises(self, rng, value, where):
        base, rows = spd_problem(rng)
        if where == "diagonal":
            base[4, 4] = value
        elif where == "off_diagonal":
            base[7, 2] = base[2, 7] = value
        else:
            rows[5, 3] = value
        with pytest.raises(SolverError):
            factorize_normal_matrix(base, rows, 1.0, 1e-9)

    def test_indefinite_and_malformed_input_raise(self, rng):
        base, rows = spd_problem(rng)
        with pytest.raises(SolverError, match="positive definite"):
            factorize_normal_matrix(-base)
        with pytest.raises(SolverError, match="square"):
            factorize_normal_matrix(np.ones((2, 3)))
        with pytest.raises(SolverError, match="rows"):
            factorize_normal_matrix(base, rows[:, :4])
        with pytest.raises(SolverError, match="ridge"):
            factorize_normal_matrix(base, ridge=-1.0)

    def test_failure_leaves_cache_unavailable(self, rng):
        base, rows = spd_problem(rng)
        cache = CachedCholesky()
        cache.factorize(base, rows=rows)
        buffer = cache.buffer
        bad = base.copy()
        bad[0, 0] = np.nan
        with pytest.raises(SolverError):
            cache.factorize(bad, rows=rows)
        assert not cache.available
        with pytest.raises(SolverError):
            cache.solve(np.ones(base.shape[0]))
        cache.factorize(base, rows=rows)
        assert cache.available and cache.buffer is buffer


# ----------------------------------------------------------------------
# The trainer's refit path
# ----------------------------------------------------------------------
class TestSteadyStateRefit:
    def test_refit_allocates_less_than_one_normal_matrix(self, feedback_pool):
        domain, feedback = feedback_pool
        m = 160
        estimator = sliding_estimator(domain, m=m)
        estimator.observe_many(feedback[:64], refit=True)
        for start in range(64, 96, 8):
            estimator.observe_many(feedback[start : start + 8], refit=True)
        trainer = estimator.trainer
        assert trainer.last_report.refactorized
        buffer = trainer.factor_cache.buffer
        estimator.observe_many(feedback[96:104])
        tracemalloc.start()
        try:
            estimator.refit()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        report = trainer.last_report
        assert report.incremental and report.refactorized
        assert report.evicted_rows == 8
        assert len(report.subpopulations) == m
        assert trainer.factor_cache.buffer is buffer
        assert peak < 8 * m * m

    @pytest.mark.parametrize("value", [-1.0e12, np.inf])
    def test_rejected_normal_matrix_falls_back(
        self, feedback_pool, monkeypatch, value
    ):
        domain, feedback = feedback_pool
        estimator = sliding_estimator(domain, m=48)
        estimator.observe_many(feedback[:64], refit=True)
        trainer = estimator.trainer
        calls = []

        def spy(matrix, rhs, ridge=0.0):
            calls.append(matrix)
            return np.full(rhs.shape[0], 1.0 / rhs.shape[0])

        monkeypatch.setattr(incremental, "regularized_solve", spy)
        original = trainer._Q_sym[0, 0]
        trainer._Q_sym[0, 0] = value
        estimator.observe_many(feedback[64:72], refit=True)
        assert len(calls) == 1 and calls[0][0, 0] != original
        assert trainer.last_report.refactorized
        assert not trainer.factor_cache.available

        trainer._Q_sym[0, 0] = original
        estimator.observe_many(feedback[72:80], refit=True)
        assert len(calls) == 1
        assert trainer.factor_cache.available


# ----------------------------------------------------------------------
# Reweighted models
# ----------------------------------------------------------------------
def box(lower, upper):
    return Hyperrectangle(np.stack([lower, upper], axis=1))


def random_model(rng, m=40):
    lower = rng.uniform(0.0, 0.7, size=(m, 2))
    upper = lower + rng.uniform(0.05, 0.3, size=(m, 2))
    subs = [
        Subpopulation(box=box(lo, hi), center=(lo + hi) / 2)
        for lo, hi in zip(lower, upper)
    ]
    return UniformMixtureModel(subs, rng.dirichlet(np.ones(m)))


class TestReweightedModel:
    def test_estimates_equal_a_fresh_model_bit_for_bit(self, rng):
        model = random_model(rng)
        weights = rng.normal(size=model.size)
        reweighted = model.reweighted(weights)
        fresh = UniformMixtureModel(model.subpopulations, weights)
        assert reweighted.subpopulations is model.subpopulations
        np.testing.assert_array_equal(reweighted.weights, fresh.weights)

        boxes = []
        for _ in range(30):
            lo = rng.uniform(0.0, 0.6, size=2)
            boxes.append(box(lo, lo + rng.uniform(0.1, 0.4, size=2)))
        targets = boxes + [Region(boxes[i : i + 3]) for i in range(0, 27, 3)]
        for target in targets:
            assert reweighted.estimate(target) == fresh.estimate(target)
        np.testing.assert_array_equal(
            reweighted.estimate_many(targets), fresh.estimate_many(targets)
        )
        lower = [box.lower for box in boxes]
        upper = [box.upper for box in boxes]
        owners = list(range(len(boxes)))
        np.testing.assert_array_equal(
            reweighted.estimate_from_bounds(lower, upper, owners, len(boxes)),
            fresh.estimate_from_bounds(lower, upper, owners, len(boxes)),
        )
        # The original keeps its own weights.
        np.testing.assert_array_equal(
            model.estimate_many(targets),
            UniformMixtureModel(model.subpopulations, model.weights).estimate_many(
                targets
            ),
        )

    def test_clipped_matches_a_fresh_model(self, rng):
        model = random_model(rng).reweighted(rng.normal(size=40))
        clipped = model.clipped()
        fresh_weights = np.clip(model.weights, 0.0, None)
        fresh = UniformMixtureModel(
            model.subpopulations, fresh_weights / fresh_weights.sum()
        )
        np.testing.assert_array_equal(clipped.weights, fresh.weights)
        target = box(np.array([0.2, 0.1]), np.array([0.7, 0.6]))
        assert clipped.estimate(target) == fresh.estimate(target)

    def test_refit_shares_geometry_until_a_centre_rebuild(self, feedback_pool):
        domain, feedback = feedback_pool
        estimator = sliding_estimator(
            domain, m=48, center_rebuild_every=3, center_rebuild_factor=2.0
        )
        estimator.observe_many(feedback[:16], refit=True)
        shared = rebuilt = 0
        for start in range(16, 112, 8):
            previous = estimator.model
            estimator.observe_many(feedback[start : start + 8], refit=True)
            model = estimator.model
            report = estimator.trainer.last_report
            same_geometry = model._component_lower is previous._component_lower
            if report.rebuilt_centers:
                assert model.subpopulations is not previous.subpopulations
                assert not same_geometry
                rebuilt += 1
            else:
                assert model.subpopulations is previous.subpopulations
                assert same_geometry
                shared += 1
            fresh = UniformMixtureModel(
                report.subpopulations, report.result.weights
            )
            np.testing.assert_array_equal(model.weights, fresh.weights)
        assert shared and rebuilt
