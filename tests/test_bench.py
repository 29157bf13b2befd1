"""Benchmark harness: RPD formula, aggregation bookkeeping, table rendering."""

import ipctp.bench as bench_mod
from ipctp.bench import (
    BenchRow,
    RunRecord,
    aggregate,
    rows_to_csv,
    rows_to_text,
    rpd_percent,
    run_bench,
)
from ipctp.generator import GenConfig, generate


class TestRpd:
    def test_short_run_ten_percent_worse(self):
        assert rpd_percent(110, 100) == 10.0

    def test_equal_objectives(self):
        assert rpd_percent(100, 100) == 0.0

    def test_proven_optimal_under_both_budgets(self):
        # Identical objectives whatever the budget: deviation is zero.
        assert rpd_percent(320, 320) == 0.0

    def test_two_zero_objectives(self):
        # An instance without shipments solves to zero under both budgets.
        assert rpd_percent(0, 0) == 0.0


def _record(name, config, budget, objective, status="optimal", wall=1.0, gap=0.0):
    return RunRecord(
        name=name,
        config=config,
        replicate=0,
        budget=budget,
        objective=objective,
        status=status,
        wall_time=wall,
        gap_percent=gap,
    )


class TestAggregation:
    def test_three_row_fixture_matches_hand_computed_means(self):
        pairs = [
            (_record("a", "cfg", 5.0, 110), _record("a", "cfg", 30.0, 100, wall=2.0)),
            (_record("b", "cfg", 5.0, 230), _record("b", "cfg", 30.0, 200, wall=4.0)),
            (
                _record("c", "cfg", 5.0, 300),
                _record("c", "cfg", 30.0, 300, status="feasible", wall=6.0, gap=12.0),
            ),
        ]
        rows = aggregate(pairs)
        assert len(rows) == 1
        row = rows[0]
        assert row.config == "cfg"
        assert row.mean_objective == (100 + 200 + 300) / 3
        assert row.mean_wall_time == (2.0 + 4.0 + 6.0) / 3
        assert row.gap_percent == (0.0 + 0.0 + 12.0) / 3
        assert row.optimal_count == 2
        assert row.infeasible_count == 0
        assert row.rpd_percent == (10.0 + 15.0 + 0.0) / 3
        assert row.replicates == 3

    def test_missing_objectives_are_counted_infeasible(self):
        pairs = [
            (
                _record("a", "cfg", 5.0, None, status="unknown"),
                _record("a", "cfg", 30.0, None, status="unknown"),
            ),
            (_record("b", "cfg", 5.0, 50), _record("b", "cfg", 30.0, 50)),
        ]
        rows = aggregate(pairs)
        assert rows[0].infeasible_count == 1
        assert rows[0].mean_objective == 50
        assert rows[0].rpd_percent == 0.0

    def test_failures_do_not_abort_the_batch(self, monkeypatch):
        def exploding_runner(instance, budget):
            raise RuntimeError("boom")

        monkeypatch.setattr(bench_mod, "_default_runner", exploding_runner)
        instance = generate(
            GenConfig(ul_ratio=2, bays=4, shipments=2, inbound_ratio=0.5, seed=3)
        )
        rows, pairs = run_bench([("one", "cfg", 0, instance)], budgets=(1.0, 2.0))
        [(short, long)] = pairs
        assert (short.budget, long.budget) == (1.0, 2.0)
        assert short.status == long.status == "error"
        assert rows[0].infeasible_count == 1

    def test_real_solves_on_tiny_instance(self):
        instance = generate(
            GenConfig(ul_ratio=2, bays=4, shipments=2, inbound_ratio=0.5, seed=3)
        )
        rows, pairs = run_bench(
            [("one", "cfg", 0, instance)], budgets=(5.0, 10.0)
        )
        assert rows[0].optimal_count == 1
        assert rows[0].rpd_percent == 0.0
        assert all(r.objective is not None for pair in pairs for r in pair)


class TestRendering:
    def test_text_and_csv_contain_the_column_set(self):
        rows = [
            BenchRow("cfg", 100.0, 2.0, 0.0, 5, 0, 0.0, 5),
            BenchRow("other", None, None, None, 0, 5, None, 5),
        ]
        text = rows_to_text(rows)
        assert "Obj." in text and "CPU" in text and "GAP%" in text and "RPD%" in text
        assert "NA" in text  # missing aggregates render like the result tables
        csv = rows_to_csv(rows)
        header = csv.splitlines()[0].split(",")
        assert header == [
            "config", "obj", "cpu", "gap_percent", "rpd_percent",
            "optimal_count", "infeasible_count",
        ]
        assert csv.splitlines()[2].startswith("other,,")
