"""Workload corpora, the operations the benchmark times, and their gates.

Every call into ipctp goes through a ``Recorder`` (see ``spans.py``), so
the traced run sees one span per public call.  Each operation returns an
``Outcome``: its user-facing figure, the correctness problems found (an
empty list means the operation passed every gate), a determinism
fingerprint and a few counts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from ipctp import (
    SolveParams,
    brute_force,
    build_derived,
    build_mip,
    check_point,
    mip_point_from_solution,
    solve,
    validate,
)
from ipctp.generator import GenConfig, derive_seed, generate, instance_name
from ipctp.mip import render_lp
from ipctp.oracle import estimate_combinations
from ipctp.solver import lower_bound, propagate, root_node

from formulas import normalised_s, primal_integral_pct
from pace import NOMINAL_S, Pace
from spans import Recorder

# Base seed of the timed corpora; the same seed the acceptance suite's
# desk-scale corpus uses.  The timed corpora do not depend on --seed (see
# README.md for why); --seed draws the gate sample and the run order.
CORPUS_SEED = 707

# Verify keeps the instances the oracle can enumerate in about a second
# or less: the two largest s5 instances need 166k and 174k schedules,
# about 17 s each.
VERIFY_LIMIT = 20_000
# Solves in the ground-truth pipeline must prove optimality; s3-s5
# instances do so in milliseconds, so this limit is never the binding one.
VERIFY_SOLVE_LIMIT = 60.0

GATE_INSTANCES = 4


@dataclass(frozen=True)
class Item:
    name: str
    config: GenConfig


@dataclass
class Outcome:
    name: str
    elapsed: float  # wall seconds of the timed region
    work: int  # units of work done, for the tracing-overhead rate
    problems: list[str]
    # Equal on every repetition of the operation; None where the clock
    # decides the result (a solve stopped by its budget).
    fingerprint: Optional[tuple] = None
    # Whether running the operation again measures anything new: a solve
    # stopped by its budget would only measure the budget again.
    repeatable: bool = False
    extra: dict = field(default_factory=dict)
    # The workload's user-facing figure in normalised seconds (see
    # pace.py); set by the runner from ``elapsed`` and the pace around it.
    value: float = 0.0


def grid(ul_ratios, bays, shipments, inbound_ratios, replicates, base_seed) -> list[Item]:
    """Generator configurations sub-seeded exactly as ``generate_grid`` does."""
    items = []
    for s in shipments:
        for u in ul_ratios:
            for b in bays:
                for r in inbound_ratios:
                    for rep in range(replicates):
                        plain = GenConfig(ul_ratio=u, bays=b, shipments=s, inbound_ratio=r)
                        seeded = dataclasses.replace(
                            plain, seed=derive_seed(base_seed, plain, rep)
                        )
                        items.append(Item(instance_name(seeded, rep), seeded))
    return items


def gate_items(seed: int) -> list[Item]:
    """Tiny instances drawn from --seed that run the ground-truth pipeline."""
    rng = random.Random(seed)
    items = []
    for k in range(GATE_INSTANCES):
        config = GenConfig(
            ul_ratio=rng.choice((2, 3)),
            bays=rng.choice((4, 6, 8)),
            shipments=rng.choice((3, 4)),
            inbound_ratio=rng.choice((0.2, 0.5)),
            seed=rng.getrandbits(63),
        )
        items.append(Item(f"gate_{config.id_string()}_{k}", config))
    return items


# -- gates ----------------------------------------------------------------


def solution_problems(rec: Recorder, instance, derived, report, solution) -> list[str]:
    """Gates every returned solution must pass."""
    if solution is None:
        if report.best_objective is not None:
            return ["an objective was reported without a solution"]
        return []
    problems = []
    violations = rec.call(
        "schedule", validate, instance, derived, solution,
        counts=lambda v: {"violations": len(v)},
    )
    if violations:
        problems.append(f"validate: {violations[0]}")
    if solution.objective != report.best_objective:
        problems.append(
            f"solution objective {solution.objective} != reported {report.best_objective}"
        )
    if report.lower_bound is None or report.lower_bound > report.best_objective:
        problems.append(
            f"lower bound {report.lower_bound} above objective {report.best_objective}"
        )
    if report.status == "optimal" and report.lower_bound != report.best_objective:
        problems.append("proved optimal but the bound differs from the objective")
    return problems


# -- traced calls -----------------------------------------------------------


def _derive(rec: Recorder, instance):
    return rec.call(
        "instance", build_derived, instance,
        counts=lambda d: {"interference_tuples": len(d.interference_set)},
    )


def _solve(rec: Recorder, instance, derived, budget: float):
    def counts(result):
        report, _ = result
        trace = report.incumbent_trace
        return {
            "nodes": report.nodes,
            "propagations": report.propagations,
            "incumbents": len(trace),
            "first_incumbent_s": trace[0][0] if trace else None,
        }

    return rec.call(
        "solver", solve, instance, derived,
        SolveParams(time_limit=budget, workers=1), counts=counts,
    )


def _build_mip(rec: Recorder, instance, derived):
    return rec.call(
        "mip", build_mip, instance, derived,
        counts=lambda a: {"rows": len(a.rows), "variables": len(a.variables)},
    )


def _render(rec: Recorder, artifacts) -> tuple[str, list[str]]:
    text = rec.call("mip", render_lp, artifacts, counts=lambda t: {"lp_bytes": len(t)})
    problems = []
    if sum(artifacts.row_counts.values()) != len(artifacts.rows):
        problems.append("row family counts do not add up to the row count")
    # One "name: " header per row plus the objective's.
    if text.count(": ") != len(artifacts.rows) + 1 or not text.endswith("End\n"):
        problems.append("LP text does not hold one header per row")
    return text, problems


# -- operations -------------------------------------------------------------


def _solve_op(rec: Recorder, instance, budget: float) -> tuple:
    started = time.perf_counter()
    derived = _derive(rec, instance)
    report, solution = _solve(rec, instance, derived, budget)
    elapsed = time.perf_counter() - started
    problems = solution_problems(rec, instance, derived, report, solution)
    proved = report.status == "optimal"
    integral = primal_integral_pct(
        budget, report.incumbent_trace, report.lower_bound,
        report.wall_time if proved else None,
    )
    extra = {
        "status": report.status,
        "proved": proved,
        "nodes": report.nodes,
        "gap_pct": 100.0 if report.gap_percent is None else report.gap_percent,
        "primal_integral_pct": integral,
    }
    return elapsed, report, problems, extra


def prove_op(rec: Recorder, item: Item, instance, budget: float,
             pace: Optional[Pace] = None) -> Outcome:
    """build_derived + solve to proof; the figure is the time to optimum."""
    elapsed, report, problems, extra = _solve_op(rec, instance, budget)
    fingerprint = None
    if extra["proved"]:  # a timed-out tree depends on the clock
        fingerprint = (
            report.nodes, tuple(obj for _, obj in report.incumbent_trace),
            report.best_objective,
        )
    return Outcome(
        item.name, elapsed, report.nodes, problems, fingerprint,
        repeatable=extra["proved"], extra=extra,
    )


def anytime_op(rec: Recorder, item: Item, instance, budget: float,
               pace: Optional[Pace] = None) -> Outcome:
    """solve at a fixed budget; the figure is the primal integral."""
    elapsed, report, problems, extra = _solve_op(rec, instance, budget)
    return Outcome(item.name, elapsed, report.nodes, problems, extra=extra)


def _verify(rec: Recorder, item: Item, instance, render: bool) -> Outcome:
    started = time.perf_counter()
    derived = _derive(rec, instance)
    oracle = rec.call(
        "oracle", brute_force, instance, derived, VERIFY_LIMIT,
        counts=lambda o: {"enumerated": o.enumerated},
    )
    report, solution = _solve(rec, instance, derived, VERIFY_SOLVE_LIMIT)
    problems = solution_problems(rec, instance, derived, report, solution)
    if solution is None:
        problems.append("the solver returned no solution")
        elapsed = time.perf_counter() - started
        return Outcome(item.name, elapsed, 1, problems)
    artifacts = _build_mip(rec, instance, derived)
    point = rec.call("mip", mip_point_from_solution, instance, derived, artifacts, solution)
    violated = rec.call("mip", check_point, artifacts, point)
    elapsed = time.perf_counter() - started
    if report.status != "optimal":
        problems.append(f"solver status {report.status}, expected optimal")
    if report.best_objective != oracle.best_objective:
        problems.append(
            f"solver objective {report.best_objective} != oracle {oracle.best_objective}"
        )
    if violated:
        problems.append(f"check_point violates {len(violated)} rows, first {violated[0]}")
    if render:
        problems += _render(rec, artifacts)[1]
    fingerprint = (
        oracle.enumerated, oracle.best_objective, report.nodes,
        tuple(obj for _, obj in report.incumbent_trace),
    )
    extra = {"enumerated": oracle.enumerated, "nodes": report.nodes}
    return Outcome(item.name, elapsed, 1, problems, fingerprint, True, extra)


def verify_op(rec: Recorder, item: Item, instance, budget: Optional[float],
              pace: Optional[Pace] = None) -> Outcome:
    """brute_force, solve, validate, build_mip, inject and check the point."""
    return _verify(rec, item, instance, render=False)


def gate_op(rec: Recorder, item: Item, instance, budget: Optional[float],
            pace: Optional[Pace] = None) -> Outcome:
    """The verify pipeline plus the LP rendering, on a seed-drawn instance."""
    return _verify(rec, item, instance, render=True)


def export_op(rec: Recorder, item: Item, instance, budget: Optional[float],
              pace: Optional[Pace] = None) -> Outcome:
    """build_mip + render_lp; the figure is the export time.

    A pace reading between the two halves of this second-long operation
    tracks the host's pace during it more closely than the readings
    around it alone (see ``export_figure``).
    """
    started = time.perf_counter()
    derived = _derive(rec, instance)
    artifacts = _build_mip(rec, instance, derived)
    built = time.perf_counter() - started
    mid_pace = pace.sample() if pace is not None else None
    started = time.perf_counter()
    text, problems = _render(rec, artifacts)
    rendered = time.perf_counter() - started
    digest = hashlib.sha256(text.encode("ascii")).hexdigest()[:16]
    rows = len(artifacts.rows)
    fingerprint = (rows, len(artifacts.variables), len(text), digest)
    extra = {"rows": rows, "lp_bytes": len(text),
             "segments": (built, rendered), "mid_pace": mid_pace}
    return Outcome(item.name, built + rendered, 1, problems, fingerprint, True, extra)


def root_probe(rec: Recorder, instance) -> None:
    """Root bound and root propagation, measured apart from any search."""
    derived = _derive(rec, instance)
    root = rec.call("solver", root_node, instance, derived)
    rec.call("solver", lower_bound, instance, derived, root, counts=lambda lb: {"root_lb": lb})
    rec.call("solver", propagate, instance, derived, root)


# -- workloads --------------------------------------------------------------


def proof_figure(outcome: Outcome, before: float, after: float, budget: float) -> float:
    """Time to optimum; an unproven instance counts at its budget."""
    if not outcome.extra["proved"]:
        return budget
    return min(normalised_s(outcome.elapsed, before, after, NOMINAL_S), budget)


def integral_figure(outcome: Outcome, before: float, after: float, budget: float) -> float:
    """The primal integral: its time-average times the budget."""
    return outcome.extra["primal_integral_pct"] * budget / 100.0


def time_figure(outcome: Outcome, before: float, after: float,
                budget: Optional[float]) -> float:
    """The operation's own time."""
    return normalised_s(outcome.elapsed, before, after, NOMINAL_S)


def export_figure(outcome: Outcome, before: float, after: float,
                  budget: Optional[float]) -> float:
    """Build and render time, each at the pace read around it."""
    mid = outcome.extra["mid_pace"]
    if mid is None:
        return time_figure(outcome, before, after, budget)
    built, rendered = outcome.extra["segments"]
    return (normalised_s(built, before, mid, NOMINAL_S)
            + normalised_s(rendered, mid, after, NOMINAL_S))


@dataclass(frozen=True)
class Workload:
    name: str
    items: tuple[Item, ...]
    op: Callable[..., Outcome]
    # (outcome, pace before, pace after, budget) -> the per-instance
    # figure in normalised seconds.
    figure: Callable[[Outcome, float, float, Optional[float]], float]
    # Solve-based workloads share this part of --seconds out as
    # per-instance budgets in normalised seconds; the others do fixed
    # work and have none.
    budget_share: Optional[float]
    # Corpus items, in corpus order, run under cProfile in the traced run.
    profile_items: int
    # Reference calls per pace sample: operations of a second or more
    # need a steadier pace reading than millisecond ones.
    pace_calls: int = 1

    def budget(self, seconds: float) -> Optional[float]:
        if self.budget_share is None:
            return None
        return seconds * self.budget_share / len(self.items)

    def instances(self, seed: int) -> tuple[list, list]:
        """Set-up: generate the timed corpus and the gate sample."""
        corpus = [(item, generate(item.config)) for item in self.items]
        gates = [(item, generate(item.config)) for item in gate_items(seed)]
        return corpus, gates


def _verify_items() -> tuple[Item, ...]:
    kept = []
    for item in grid((2, 3), (4, 6, 8), (3, 4, 5), (0.2, 0.5), 1, CORPUS_SEED):
        instance = generate(item.config)
        if estimate_combinations(instance, build_derived(instance), 10**9) <= VERIFY_LIMIT:
            kept.append(item)
    return tuple(kept)


def make_workloads() -> dict[str, Workload]:
    return {
        "prove": Workload(
            "prove",
            tuple(grid((2, 3), (4, 6, 8), (8,), (0.2, 0.5), 2, CORPUS_SEED)),
            # At 25 s this budget is 0.42 normalised s: 2.5x the slowest
            # proof among the instances that close, 2.6x below the quickest
            # among those that do not (1.1 s).  So no instance proves in
            # one run and not in another.
            prove_op, proof_figure, budget_share=0.4, profile_items=2,
        ),
        "anytime": Workload(
            "anytime",
            tuple(grid((2, 3), (4, 8), (10, 15), (0.2, 0.5), 2, CORPUS_SEED)),
            # Every solve runs to its budget, so a slow host stretches the
            # whole pass; 0.5 keeps it within --seconds at half speed.
            anytime_op, integral_figure, budget_share=0.5, profile_items=2,
        ),
        "verify": Workload(
            "verify", _verify_items(), verify_op, time_figure,
            budget_share=None, profile_items=8,
        ),
        "export": Workload(
            "export",
            tuple(
                grid((3,), (4, 8), (15,), (0.5,), 10, CORPUS_SEED)
                + grid((3,), (4, 8), (20,), (0.5,), 1, CORPUS_SEED)
            ),
            export_op, export_figure, budget_share=None, profile_items=1, pace_calls=8,
        ),
    }


# The ground-truth pipeline on the seed-drawn gate sample; never timed.
GATE = Workload("gate", (), gate_op, time_figure, budget_share=None, profile_items=0)
