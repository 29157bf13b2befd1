"""Exhaustive optimum finder for tiny instances.

The oracle enumerates every complete decision combination without any
symmetry reduction so that its verdicts are trivially auditable; it exists
as ground truth for the branch-and-bound solver and the exported MIP.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from math import factorial, perm

from .errors import BudgetExceeded, CyclicOrdering, IpctpError, NoFeasibleSolution
from .instance import DerivedTables, Instance
from .schedule import (
    Decisions,
    I_FIRST,
    J_FIRST,
    Solution,
    _schedule,
    active_interference,
    locations,
    validate,
)

DEFAULT_LIMIT = 1_000_000


@dataclass(frozen=True)
class OracleResult:
    best_objective: int
    best_solution: Solution
    enumerated: int


def _yc_members(instance: Instance, yard_assignment: dict[int, int]) -> dict[int, list[int]]:
    """Each yard crane's shipments by id, cranes by id."""
    members: dict[int, list[int]] = {c: [] for c in range(1, instance.yc_count + 1)}
    location = locations(instance, yard_assignment)
    for s in instance.shipments:
        members[instance.location(location[s.id]).yc].append(s.id)
    return members


def estimate_combinations(
    instance: Instance, derived: DerivedTables, limit: int
) -> int:
    """Exact number of complete decision combinations, or BudgetExceeded."""
    inbound = [s.id for s in instance.inbound_shipments]
    available = [k.id for k in instance.inbound_available_locations]
    yard_count = perm(len(available), len(inbound))
    if yard_count > limit:
        raise BudgetExceeded(
            f"{yard_count} yard assignments alone exceed the budget {limit}"
        )

    yard_side = 0
    for chosen in permutations(available, len(inbound)):
        members = _yc_members(instance, dict(zip(inbound, chosen)))
        factor = 1
        for crane_members in members.values():
            factor *= factorial(len(crane_members))
        yard_side += factor

    ship_ids = [s.id for s in instance.shipments]
    eligibility = [derived.eligible_qcs[i] for i in ship_ids]
    qc_count = 1
    for options in eligibility:
        qc_count *= len(options)
    if qc_count > limit:
        raise BudgetExceeded(
            f"{qc_count} crane assignments alone exceed the budget {limit}"
        )

    qc_side = 0
    for choice in product(*eligibility):
        assignment = dict(zip(ship_ids, choice))
        buckets: dict[int, int] = {}
        for crane in choice:
            buckets[crane] = buckets.get(crane, 0) + 1
        factor = 1
        for size in buckets.values():
            factor *= factorial(size)
        factor *= 2 ** len(active_interference(derived, assignment))
        qc_side += factor

    total = yard_side * qc_side
    if total > limit:
        raise BudgetExceeded(f"{total} combinations exceed the budget {limit}")
    return total


def brute_force(
    instance: Instance, derived: DerivedTables, limit: int = DEFAULT_LIMIT
) -> OracleResult:
    """Prove the optimum by enumerating every complete decision combination."""
    estimate_combinations(instance, derived, limit)

    inbound = [s.id for s in instance.inbound_shipments]
    available = [k.id for k in instance.inbound_available_locations]
    ship_ids = [s.id for s in instance.shipments]
    eligibility = [derived.eligible_qcs[i] for i in ship_ids]
    qc_ids = list(range(1, instance.qc_count + 1))

    enumerated = 0
    best: Solution | None = None

    for chosen in permutations(available, len(inbound)):
        yard = dict(zip(inbound, chosen))
        members = _yc_members(instance, yard)
        yc_options = [list(permutations(ships)) for ships in members.values()]

        for choice in product(*eligibility):
            qc_assignment = dict(zip(ship_ids, choice))
            buckets: dict[int, list[int]] = {q: [] for q in qc_ids}
            for ship, crane in zip(ship_ids, choice):
                buckets[crane].append(ship)
            active = active_interference(derived, qc_assignment)

            qc_options = [list(permutations(buckets[q])) for q in qc_ids]
            for qc_combo in product(*qc_options):
                qc_sequences = dict(zip(qc_ids, qc_combo))
                for directions in product((I_FIRST, J_FIRST), repeat=len(active)):
                    order = dict(zip(active, directions))
                    for yc_combo in product(*yc_options):
                        enumerated += 1
                        decisions = Decisions(
                            yard_assignment=yard,
                            qc_sequences=qc_sequences,
                            yc_sequences=dict(zip(members, yc_combo)),
                            interference_order=order,
                            qc_assignment=qc_assignment,
                        )
                        try:  # built sound here, so the structure goes unchecked
                            solution = _schedule(instance, derived, decisions)
                        except CyclicOrdering:
                            continue
                        if best is None or solution.objective < best.objective:
                            best = solution

    if best is None:
        raise NoFeasibleSolution("every decision combination was cyclic")
    best = best.with_status("optimal")
    problems = validate(instance, derived, best)
    if problems:  # pragma: no cover - internal consistency guard
        raise IpctpError(f"oracle produced an invalid solution: {problems[0]}")
    return OracleResult(
        best_objective=best.objective, best_solution=best, enumerated=enumerated
    )
