"""Dual-budget benchmark harness with per-configuration aggregation.

Every instance is solved once per budget; the relative percentage deviation
compares the short-budget objective against the long-budget one.  Failures
are recorded per instance and never abort the batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .instance import Instance, build_derived
from .solver import SolveParams, solve


@dataclass(frozen=True)
class RunRecord:
    name: str
    config_id: str
    replicate: int
    budget: float
    objective: Optional[int]
    status: str
    wall_time: float
    gap_percent: Optional[float]
    error: Optional[str] = None


@dataclass(frozen=True)
class BenchRow:
    config_id: str
    mean_objective: Optional[float]
    mean_wall_time: Optional[float]
    gap_percent: Optional[float]
    optimal_count: int
    infeasible_count: int
    rpd_percent: Optional[float]
    replicates: int


def rpd_percent(short_objective: float, long_objective: float) -> float:
    """Relative deviation of the short-budget objective from the long one;
    zero when they are equal, as for two zero objectives."""
    if short_objective == long_objective:
        return 0.0
    return (short_objective - long_objective) * 100.0 / long_objective


def run_bench(
    items: Iterable[tuple[str, str, int, Instance]],
    budgets: tuple[float, float],
) -> tuple[list[BenchRow], list[RunRecord]]:
    """Solve each (name, config_id, replicate, instance) under both budgets."""
    records: list[RunRecord] = []
    for name, config_id, replicate, instance in items:
        for budget in budgets:
            error = None
            try:
                objective, status, wall, gap = _default_runner(instance, budget)
            except Exception as exc:  # per-instance failures stay local
                objective, status, wall, gap = None, "error", 0.0, None
                error = f"{type(exc).__name__}: {exc}"
            records.append(
                RunRecord(
                    name=name,
                    config_id=config_id,
                    replicate=replicate,
                    budget=budget,
                    objective=objective,
                    status=status,
                    wall_time=wall,
                    gap_percent=gap,
                    error=error,
                )
            )
    return aggregate(records, budgets), records


def _default_runner(instance: Instance, budget: float):
    report, _ = solve(instance, build_derived(instance), SolveParams(time_limit=budget))
    return report.best_objective, report.status, report.wall_time, report.gap_percent


def _mean(values: Sequence[float]) -> Optional[float]:
    return sum(values) / len(values) if values else None


def aggregate(
    records: Sequence[RunRecord], budgets: tuple[float, float]
) -> list[BenchRow]:
    """Per-configuration means over the long-budget runs plus RPD vs short.

    ``records`` come as ``run_bench`` gives them: each item's runs, one per
    budget, next to each other.  Items are told apart by their place, not
    their name: two corpora may hold files of the same name.  So are an
    item's runs: its short run is the first at the short budget and its
    long run the last at the long one, which keeps both when the budgets
    are equal."""
    short_budget, long_budget = budgets
    by_config: dict[str, list[tuple[Optional[RunRecord], Optional[RunRecord]]]] = {}
    for k in range(0, len(records), len(budgets)):
        runs = records[k:k + len(budgets)]
        short = next((r for r in runs if r.budget == short_budget), None)
        long = next((r for r in reversed(runs) if r.budget == long_budget), None)
        by_config.setdefault(records[k].config_id, []).append((short, long))

    rows: list[BenchRow] = []
    for config_id in sorted(by_config):
        items = by_config[config_id]
        long_runs = [long for _, long in items if long is not None]
        objectives = [r.objective for r in long_runs if r.objective is not None]
        walls = [r.wall_time for r in long_runs if r.error is None]
        gaps = [r.gap_percent for r in long_runs if r.gap_percent is not None]
        rpds = [
            rpd_percent(short.objective, long.objective)
            for short, long in items
            if short is not None and long is not None
            and short.objective is not None and long.objective is not None
        ]
        rows.append(
            BenchRow(
                config_id=config_id,
                mean_objective=_mean(objectives),
                mean_wall_time=_mean(walls),
                gap_percent=_mean(gaps),
                optimal_count=sum(1 for r in long_runs if r.status == "optimal"),
                infeasible_count=sum(1 for r in long_runs if r.objective is None),
                rpd_percent=_mean(rpds),
                replicates=len(long_runs),
            )
        )
    return rows


def _cell(value: Optional[float], width: int) -> str:
    return ("NA" if value is None else f"{value:.2f}").rjust(width)


def rows_to_text(rows: Sequence[BenchRow]) -> str:
    header = (
        f"{'Config':<20} {'Obj.':>10} {'CPU':>10} {'GAP%':>8} "
        f"{'RPD%':>8} {'Opt':>4} {'Inf':>4}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.config_id:<20} {_cell(row.mean_objective, 10)} "
            f"{_cell(row.mean_wall_time, 10)} {_cell(row.gap_percent, 8)} "
            f"{_cell(row.rpd_percent, 8)} {row.optimal_count:>4} "
            f"{row.infeasible_count:>4}"
        )
    return "\n".join(lines) + "\n"


def rows_to_csv(rows: Sequence[BenchRow]) -> str:
    lines = ["config,obj,cpu,gap_percent,rpd_percent,optimal_count,infeasible_count"]
    for row in rows:
        cells = [
            row.config_id,
            "" if row.mean_objective is None else f"{row.mean_objective:.4f}",
            "" if row.mean_wall_time is None else f"{row.mean_wall_time:.4f}",
            "" if row.gap_percent is None else f"{row.gap_percent:.4f}",
            "" if row.rpd_percent is None else f"{row.rpd_percent:.4f}",
            str(row.optimal_count),
            str(row.infeasible_count),
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
