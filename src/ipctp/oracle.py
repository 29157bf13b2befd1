"""Exhaustive optimum finder for tiny instances.

The oracle enumerates every complete decision combination without any
symmetry reduction so that its verdicts are trivially auditable; it exists
as ground truth for the branch-and-bound solver and the exported MIP.
Each precedence-arc segment is built once, at the loop level it depends
on, and each combination is scored from its start times alone; only the
winner is built into a ``Solution`` and validated.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from math import comb, factorial, perm, prod

from .errors import BudgetExceeded, IpctpError, NoFeasibleSolution
from .instance import DerivedTables, Instance
from .schedule import (
    QUAY,
    YARD,
    Decisions,
    I_FIRST,
    J_FIRST,
    Solution,
    active_interference,
    compute_schedule,
    crane_arcs,
    crane_members,
    locations,
    order_arcs,
    relax,
    transfer_arcs,
    validate,
    yard_cranes,
)

DEFAULT_LIMIT = 1_000_000


@dataclass(frozen=True)
class OracleResult:
    best_objective: int
    best_solution: Solution
    enumerated: int


def _yard_choices(instance: Instance):
    """Each yard assignment, with each yard crane's shipments by id."""
    inbound = [s.id for s in instance.inbound_shipments]
    available = [k.id for k in instance.inbound_available_locations]
    for chosen in permutations(available, len(inbound)):
        yard = dict(zip(inbound, chosen))
        crane_of = yard_cranes(instance, locations(instance, yard))
        yield yard, crane_members(instance, YARD, crane_of)


def _quay_choices(instance: Instance, derived: DerivedTables):
    """For each quay assignment, each quay crane's shipments by id and the
    interference tuples the assignment makes active."""
    ship_ids = [s.id for s in instance.shipments]
    for choice in product(*(derived.eligible_qcs[i] for i in ship_ids)):
        assignment = dict(zip(ship_ids, choice))
        yield (crane_members(instance, QUAY, assignment),
               active_interference(derived, assignment))


def _orderings(groups: dict[int, list[int]]) -> int:
    """How many ways each crane's shipments can be sequenced, all cranes together."""
    return prod(map(factorial, map(len, groups.values())))


def _yard_orderings(instance: Instance) -> int:
    """``_orderings`` of each yard assignment's cranes, summed over every
    assignment ``_yard_choices`` walks, without walking them.

    Split the n inbound shipments over the yard cranes as n_c each.  That
    split is n! / prod(n_c!) choices of shipments, and a crane with
    ``free_c`` inbound-available locations and ``fixed_c`` outbound
    shipments places its n_c in perm(free_c, n_c) ways and sequences its
    shipments in (fixed_c + n_c)!.  Cranes are added one at a time, the
    multinomial as one binomial per crane.
    """
    free = dict.fromkeys(range(1, instance.yc_count + 1), 0)
    for k in instance.inbound_available_locations:
        free[k.yc] += 1
    fixed = dict.fromkeys(free, 0)
    for s in instance.outbound_shipments:
        fixed[instance.location(s.fixed_location).yc] += 1
    n = len(instance.inbound_shipments)
    ways = {0: 1}  # per number of inbound shipments placed so far
    for c in free:
        grown: dict[int, int] = {}
        for placed, count in ways.items():
            for n_c in range(min(free[c], n - placed) + 1):
                grown[placed + n_c] = grown.get(placed + n_c, 0) + (
                    count * comb(placed + n_c, n_c) * perm(free[c], n_c)
                    * factorial(fixed[c] + n_c)
                )
        ways = grown
    return ways.get(n, 0)


def estimate_combinations(
    instance: Instance, derived: DerivedTables, limit: int
) -> int:
    """Exact number of complete decision combinations, or BudgetExceeded."""
    yard_count = perm(
        len(instance.inbound_available_locations), len(instance.inbound_shipments)
    )
    if yard_count > limit:
        raise BudgetExceeded(
            f"{yard_count} yard assignments alone exceed the budget {limit}"
        )
    yard_side = _yard_orderings(instance)

    qc_count = prod(len(options) for options in derived.eligible_qcs.values())
    if qc_count > limit:
        raise BudgetExceeded(
            f"{qc_count} crane assignments alone exceed the budget {limit}"
        )
    qc_side = sum(
        _orderings(buckets) * 2 ** len(active)
        for buckets, active in _quay_choices(instance, derived)
    )

    total = yard_side * qc_side
    if total > limit:
        raise BudgetExceeded(f"{total} combinations exceed the budget {limit}")
    return total


def _completion_table(
    instance: Instance, derived: DerivedTables
) -> list[tuple[int, list[tuple[int, int]]]]:
    """Per vessel with shipments, its weight and, per shipment, the task that
    ends its handling with that task's duration (yard side in, quay side out)."""
    table = []
    for v in instance.vessels:
        ends = [
            (derived.quay_task[s.id] + YARD, s.yc_time) if s.is_inbound
            else (derived.quay_task[s.id], s.qc_time)
            for s in instance.shipments_of_vessel(v.id)
        ]
        if ends:
            table.append((v.weight, ends))
    return table


def brute_force(
    instance: Instance, derived: DerivedTables, limit: int = DEFAULT_LIMIT
) -> OracleResult:
    """Prove the optimum by enumerating every complete decision combination.

    The first combination in enumeration order with the least objective wins.

    Each yard assignment's combinations of yard sequences are joined into
    arc lists once.  For each quay combination and direction the transfer,
    quay and order arcs are relaxed once, and when they are cyclic every
    yard combination is skipped: each would hold that cycle.  Otherwise
    each combination is relaxed from a copy of the settled starts.  Those
    starts are a fixpoint of a subset of its arcs, so they lie at or below
    the least fixpoint of them all; ``relax`` therefore ends at the same
    starts as from zero, within no more passes, and a positive cycle still
    never settles.  Every score, and so the winner, is unchanged.
    """
    enumerated = estimate_combinations(instance, derived, limit)

    def sequenced(kind, ships, location):
        """Each sequence of the crane's shipments, with its arcs."""
        return [
            (seq, crane_arcs(instance, derived, kind, seq, [], location))
            for seq in permutations(ships)
        ]

    quay_side = [
        ([sequenced(QUAY, b, {}) for b in buckets.values()], active)
        for buckets, active in _quay_choices(instance, derived)
    ]
    qc_ids = list(range(1, instance.qc_count + 1))
    n_tasks = 2 * len(instance.shipments)
    table = _completion_table(instance, derived)

    best_score = None
    best_decisions = None

    for yard, members in _yard_choices(instance):
        location = locations(instance, yard)
        transfer = transfer_arcs(instance, derived, yard)
        yc_options = [sequenced(YARD, ships, location) for ships in members.values()]
        yard_side = [
            (yc_combo, [a for _, seg in yc_combo for a in seg])
            for yc_combo in product(*yc_options)
        ]

        for qc_options, active in quay_side:
            for qc_combo in product(*qc_options):
                quay_arcs = transfer + [a for _, seg in qc_combo for a in seg]
                for directions in product((I_FIRST, J_FIRST), repeat=len(active)):
                    order = dict(zip(active, directions))
                    fixed = quay_arcs + order_arcs(derived, order)
                    settled = [0] * n_tasks
                    if not relax(fixed, settled)[0]:  # cyclic
                        continue
                    for yc_combo, yard_arcs in yard_side:
                        start = settled.copy()
                        if not relax(yard_arcs + fixed, start)[0]:  # cyclic
                            continue
                        score = sum(
                            weight * max(start[t] + d for t, d in ends)
                            for weight, ends in table
                        )
                        if best_score is None or score < best_score:
                            best_score = score
                            best_decisions = (yard, qc_combo, order, members, yc_combo)

    # Every sequence in id order with every tuple i_first is acyclic, so no
    # best means no combination at all: too few locations for the inbound.
    if best_decisions is None:
        raise NoFeasibleSolution(
            f"no decision combination: {len(instance.inbound_shipments)} inbound "
            f"shipment(s) exceed {len(instance.inbound_available_locations)} "
            "inbound-available location(s)"
        )
    yard, qc_combo, order, members, yc_combo = best_decisions
    decisions = Decisions(
        yard_assignment=yard,
        qc_sequences=dict(zip(qc_ids, (seq for seq, _ in qc_combo))),
        yc_sequences=dict(zip(members, (seq for seq, _ in yc_combo))),
        interference_order=order,
    )
    best = compute_schedule(instance, derived, decisions).with_status("optimal")
    problems = validate(instance, derived, best)
    if problems:  # pragma: no cover - internal consistency guard
        raise IpctpError(f"oracle produced an invalid solution: {problems[0]}")
    if best.objective != best_score:
        raise IpctpError(
            f"oracle scored {best_score} but built a solution of objective "
            f"{best.objective}"
        )
    return OracleResult(
        best_objective=best.objective, best_solution=best, enumerated=enumerated
    )
