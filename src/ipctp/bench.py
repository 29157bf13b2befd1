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
    config: str
    replicate: int
    budget: float
    objective: Optional[int]
    status: str
    wall_time: float
    gap_percent: Optional[float]
    error: Optional[str] = None


@dataclass(frozen=True)
class BenchRow:
    config: str
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
) -> tuple[list[BenchRow], list[tuple[RunRecord, RunRecord]]]:
    """Solve each (name, config, replicate, instance) under the short and
    then the long budget; each item's runs come back as a (short, long) pair."""
    short_budget, long_budget = budgets
    pairs = [(_run(item, short_budget), _run(item, long_budget)) for item in items]
    return aggregate(pairs), pairs


def _run(item: tuple[str, str, int, Instance], budget: float) -> RunRecord:
    name, config, replicate, instance = item
    error = None
    try:
        objective, status, wall, gap = _default_runner(instance, budget)
    except Exception as exc:  # per-instance failures stay local
        objective, status, wall, gap = None, "error", 0.0, None
        error = f"{type(exc).__name__}: {exc}"
    return RunRecord(
        name, config, replicate, budget, objective, status, wall, gap, error
    )


def _default_runner(instance: Instance, budget: float):
    report, _ = solve(instance, build_derived(instance), SolveParams(time_limit=budget))
    return report.best_objective, report.status, report.wall_time, report.gap_percent


def _mean(values: Sequence[float]) -> Optional[float]:
    return sum(values) / len(values) if values else None


def aggregate(pairs: Sequence[tuple[RunRecord, RunRecord]]) -> list[BenchRow]:
    """Per-configuration means over the long-budget runs plus RPD vs short."""
    by_config: dict[str, list[tuple[RunRecord, RunRecord]]] = {}
    for short, long in pairs:
        by_config.setdefault(long.config, []).append((short, long))

    rows: list[BenchRow] = []
    for config in sorted(by_config):
        items = by_config[config]
        long_runs = [long for _, long in items]
        objectives = [r.objective for r in long_runs if r.objective is not None]
        walls = [r.wall_time for r in long_runs if r.error is None]
        gaps = [r.gap_percent for r in long_runs if r.gap_percent is not None]
        rpds = [
            rpd_percent(short.objective, long.objective)
            for short, long in items
            if short.objective is not None and long.objective is not None
        ]
        rows.append(
            BenchRow(
                config=config,
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
            f"{row.config:<20} {_cell(row.mean_objective, 10)} "
            f"{_cell(row.mean_wall_time, 10)} {_cell(row.gap_percent, 8)} "
            f"{_cell(row.rpd_percent, 8)} {row.optimal_count:>4} "
            f"{row.infeasible_count:>4}"
        )
    return "\n".join(lines) + "\n"


def rows_to_csv(rows: Sequence[BenchRow]) -> str:
    lines = ["config,obj,cpu,gap_percent,rpd_percent,optimal_count,infeasible_count"]
    for row in rows:
        cells = [
            row.config,
            "" if row.mean_objective is None else f"{row.mean_objective:.4f}",
            "" if row.mean_wall_time is None else f"{row.mean_wall_time:.4f}",
            "" if row.gap_percent is None else f"{row.gap_percent:.4f}",
            "" if row.rpd_percent is None else f"{row.rpd_percent:.4f}",
            str(row.optimal_count),
            str(row.infeasible_count),
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
