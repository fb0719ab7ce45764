"""Tests for the experiment harness, metrics, reporting, and tiny end-to-end runs
of every table/figure experiment."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import QuickSelConfig
from repro.core.quicksel import QuickSel
from repro.exceptions import ExperimentError
from repro.experiments.ablations import (
    run_anchor_points_ablation,
    run_clipping_ablation,
    run_penalty_ablation,
    run_solver_ablation,
)
from repro.experiments.datasets import make_bundle
from repro.experiments.figure3 import run_figure3
from repro.experiments.figure4 import run_figure4
from repro.experiments.figure5 import run_figure5
from repro.experiments.figure6 import run_figure6
from repro.experiments.figure7 import (
    run_figure7a,
    run_figure7b,
    run_figure7c,
    run_figure7d,
)
from repro.experiments.harness import evaluate, sweep_query_driven
from repro.experiments.metrics import (
    mean_absolute_error,
    mean_relative_error,
    relative_error,
)
from repro.experiments.reporting import format_series, format_table, rows_to_dicts


class TestMetrics:
    def test_relative_error_definition(self):
        assert relative_error(0.5, 0.4) == pytest.approx(20.0)
        # Epsilon guard for tiny true selectivities.
        assert relative_error(0.0, 0.001) == pytest.approx(100.0)

    def test_mean_errors(self):
        truths = [0.5, 0.2]
        estimates = [0.4, 0.3]
        assert mean_relative_error(truths, estimates) == pytest.approx(
            (20.0 + 50.0) / 2
        )
        assert mean_absolute_error(truths, estimates) == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ExperimentError):
            mean_relative_error([0.5], [0.4, 0.3])
        with pytest.raises(ExperimentError):
            mean_absolute_error([], [])
        with pytest.raises(ExperimentError):
            relative_error(0.5, 0.5, epsilon=0)


class TestReporting:
    def test_format_table_from_dicts(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 3, "b": 4.25}]
        text = format_table(rows, title="demo")
        assert "demo" in text
        assert "a" in text and "b" in text
        assert "4.2500" in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])

    def test_format_series(self):
        text = format_series({"m": [(1, 2.0)]}, x_label="x", y_label="y")
        assert "[m]" in text and "1" in text

    def test_rows_to_dicts_rejects_unknown(self):
        with pytest.raises(TypeError):
            rows_to_dicts([object()])


class TestHarness:
    def test_bundle_construction(self):
        bundle = make_bundle("gaussian", train_queries=10, test_queries=5, row_count=2000)
        assert len(bundle.train) == 10
        assert len(bundle.test) == 5
        assert bundle.row_count == 2000
        with pytest.raises(ExperimentError):
            make_bundle("unknown", train_queries=5)

    def test_evaluate_and_sweep(self):
        bundle = make_bundle("gaussian", train_queries=20, test_queries=10, row_count=2000)
        factories = {
            "QuickSel": lambda domain: QuickSel(domain, QuickSelConfig(random_seed=0))
        }
        records = sweep_query_driven(
            factories, bundle.domain, bundle.train, bundle.test, [5, 20],
            dataset="gaussian",
        )
        assert len(records) == 2
        assert records[0].observed_queries == 5
        assert records[1].observed_queries == 20
        assert records[1].parameter_count >= records[0].parameter_count
        assert all(r.per_query_ms > 0 for r in records)

    def test_sweep_validation(self):
        bundle = make_bundle("gaussian", train_queries=5, test_queries=5, row_count=1000)
        factories = {"QuickSel": lambda domain: QuickSel(domain)}
        with pytest.raises(ExperimentError):
            sweep_query_driven(factories, bundle.domain, bundle.train, bundle.test, [])
        with pytest.raises(ExperimentError):
            sweep_query_driven(
                factories, bundle.domain, bundle.train, bundle.test, [10]
            )
        estimator = QuickSel(bundle.domain)
        with pytest.raises(ExperimentError):
            evaluate(estimator, [])


class TestExperimentRuns:
    """Tiny-scale end-to-end runs of every table/figure experiment."""

    def test_table3(self, table3_small):
        result = table3_small
        assert len(result.efficiency_rows) == 4
        assert len(result.accuracy_rows) == 4
        assert set(result.speedups) == {"dmv", "instacart"}
        assert all(v > 0 for v in result.speedups.values())
        assert "Table 3a" in result.render()

    def test_figure3(self):
        result = run_figure3(
            datasets=("gaussian",),
            checkpoints=(5, 10),
            test_queries=10,
            row_count=5000,
            include_slow=False,
        )
        assert result.records
        series = result.queries_vs_time("gaussian")
        assert "QuickSel" in series
        assert len(series["QuickSel"]) == 2
        assert "Figure 3" in result.render()

    def test_figure4(self):
        result = run_figure4(
            datasets=("gaussian",),
            checkpoints=(5, 10),
            test_queries=10,
            row_count=5000,
            include_slow=False,
        )
        params = result.queries_vs_parameters("gaussian")["QuickSel"]
        assert params[1][1] >= params[0][1]
        assert "Figure 4" in result.render()

    def test_figure5(self):
        result = run_figure5(
            initial_rows=3000,
            insert_rows=600,
            queries_per_phase=10,
            phases=3,
            parameter_budget=50,
        )
        assert set(result.mean_error_pct) == {"AutoHist", "AutoSample", "QuickSel"}
        assert len(result.points) == 9
        assert all(v >= 0 for v in result.update_seconds.values())
        assert "Figure 5a" in result.render()

    def test_figure6(self):
        result = run_figure6(query_counts=(10, 20), row_count=3000)
        series = result.runtime_series()
        assert "QuickSel's QP (analytic)" in series
        assert "Standard QP (projected gradient)" in series
        assert result.speedup_at(20) > 0
        assert "Figure 6" in result.render()

    def test_figure7a_flat_across_correlation(self):
        points = run_figure7a(
            correlations=(0.0, 0.8), train_queries=30, test_queries=20, row_count=5000
        )
        assert len(points) == 2
        assert all(p.relative_error_pct < 100 for p in points)

    def test_figure7b_scenarios(self):
        points = run_figure7b(total_queries=40, block=20, row_count=5000)
        scenarios = {p.scenario for p in points}
        assert scenarios == {"Random shift", "Sliding shift", "No shift"}

    def test_figure7c_error_decreases_with_budget(self):
        points = run_figure7c(
            parameter_counts=(10, 100),
            train_queries=40,
            test_queries=20,
            row_count=5000,
        )
        assert points[1].relative_error_pct <= points[0].relative_error_pct * 1.5

    def test_figure7d_methods_present(self):
        points = run_figure7d(
            dimensions=(1, 2), budget=100, train_queries=30, test_queries=20,
            row_count=5000,
        )
        methods = {p.method for p in points}
        assert methods == {"AutoHist", "AutoSample", "QuickSel"}

    def test_ablations(self):
        penalty = run_penalty_ablation(
            penalties=(1e2, 1e6), train_queries=20, test_queries=20, row_count=3000
        )
        assert len(penalty) == 2
        # Larger penalty satisfies the constraints at least as well.
        assert penalty[1].constraint_residual <= penalty[0].constraint_residual * 10
        clipping = run_clipping_ablation(train_queries=20, test_queries=20, row_count=3000)
        assert {r.setting for r in clipping} == {"True", "False"}
        anchors = run_anchor_points_ablation(
            points_per_predicate=(1, 10), train_queries=20, test_queries=20,
            row_count=3000,
        )
        assert len(anchors) == 2
        solvers = run_solver_ablation(train_queries=15, test_queries=15, row_count=3000)
        assert {r.setting for r in solvers} == {
            "analytic", "projected_gradient", "scipy"
        }


class TestPaperShapes:
    """Higher-level assertions about the shapes the paper reports."""

    def test_quicksel_per_query_time_is_flat_while_isomer_grows(self):
        result = run_figure3(
            datasets=("gaussian",),
            checkpoints=(10, 30),
            test_queries=10,
            row_count=5000,
            include_slow=True,
        )
        records = {
            (r.method, r.observed_queries): r for r in result.records_for("gaussian")
        }
        isomer_growth = (
            records[("ISOMER", 30)].per_query_ms
            / max(records[("ISOMER", 10)].per_query_ms, 1e-9)
        )
        quicksel_growth = (
            records[("QuickSel", 30)].per_query_ms
            / max(records[("QuickSel", 10)].per_query_ms, 1e-9)
        )
        # ISOMER's per-query cost grows faster with the number of observed
        # queries than QuickSel's (bucket explosion vs constant-size refit).
        assert isomer_growth > quicksel_growth

    def test_quicksel_is_faster_than_isomer_for_same_queries(self):
        result = run_figure3(
            datasets=("gaussian",),
            checkpoints=(30,),
            test_queries=10,
            row_count=5000,
            include_slow=True,
        )
        records = {r.method: r for r in result.records_for("gaussian")}
        assert records["QuickSel"].per_query_ms < records["ISOMER"].per_query_ms

    def test_analytic_solver_is_faster_than_iterative(self):
        result = run_figure6(query_counts=(100,), row_count=5000)
        assert result.speedup_at(100) > 1.0
