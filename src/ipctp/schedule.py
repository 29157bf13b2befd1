"""Candidate solutions: earliest-start scheduling, objective, validation.

A solution fixes the discrete decisions (yard locations, crane assignment,
per-crane sequences, interference orderings); start times then follow as
longest paths through the induced precedence graph, which makes them
componentwise minimal.  ``validate`` is the single feasibility authority:
every producer in this package passes its output through it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Callable, Mapping

from .errors import CyclicOrdering, MalformedSolution
from .instance import DerivedTables, Instance, canonical_dumps, is_integer

I_FIRST = "i_first"
J_FIRST = "j_first"

# Violation families, one per semantic constraint group.
LOCATION_CAPACITY = "location_capacity"
LOCATION_ASSIGNMENT = "location_assignment"
QC_CHAIN_MISSING = "qc_chain_missing"
YC_CHAIN_MISSING = "yc_chain_missing"
QC_CHAIN_UNKNOWN = "qc_chain_unknown"
YC_CHAIN_UNKNOWN = "yc_chain_unknown"
QC_ELIGIBILITY = "qc_eligibility"
YC_MEMBERSHIP_INBOUND = "yc_membership_inbound"
YC_MEMBERSHIP_OUTBOUND = "yc_membership_outbound"
QC_CHAIN_CONSISTENCY = "qc_chain_consistency"
YC_CHAIN_CONSISTENCY = "yc_chain_consistency"
YT_TRANSFER_VALUE = "yt_transfer_value"
YC_EMPTY_VALUE_TO_OUTBOUND = "yc_empty_value_to_outbound"
YC_EMPTY_VALUE_BETWEEN_INBOUND = "yc_empty_value_between_inbound"
YC_EMPTY_VALUE_FROM_OUTBOUND = "yc_empty_value_from_outbound"
QC_SEQUENCE_TIMING = "qc_sequence_timing"
YC_SEQUENCE_TIMING_AFTER_INBOUND = "yc_sequence_timing_after_inbound"
YC_SEQUENCE_TIMING_OUTBOUND_TO_INBOUND = "yc_sequence_timing_outbound_to_inbound"
YC_SEQUENCE_TIMING_BETWEEN_OUTBOUND = "yc_sequence_timing_between_outbound"
OUTBOUND_PRECEDENCE = "outbound_precedence"
INBOUND_PRECEDENCE = "inbound_precedence"
INTERFERENCE_OVERLAP = "interference_overlap"
INTERFERENCE_ORDER_MISSING = "interference_order_missing"
INTERFERENCE_SEPARATION = "interference_separation"
START_NEGATIVE = "start_negative"
OBJECTIVE_VALUE = "objective_value"


@dataclass(frozen=True)
class Violation:
    family: str
    ids: tuple
    detail: str

    def __str__(self) -> str:
        return f"{self.family}{list(self.ids)}: {self.detail}"


def qc_assignment_of(qc_sequences: Mapping[int, tuple[int, ...]]) -> dict[int, int]:
    """The quay crane of each shipment, read off the crane sequences."""
    return {ship: q for q, sequence in qc_sequences.items() for ship in sequence}


@dataclass(frozen=True)
class Decisions:
    """The discrete part of a solution; start times follow deterministically."""

    yard_assignment: Mapping[int, int]
    qc_sequences: Mapping[int, tuple[int, ...]]
    yc_sequences: Mapping[int, tuple[int, ...]]
    interference_order: Mapping[tuple[int, int, int, int], str]
    qc_assignment: Mapping[int, int] | None = None

    def resolved_qc_assignment(self) -> dict[int, int]:
        if self.qc_assignment is not None:
            return dict(self.qc_assignment)
        return qc_assignment_of(self.qc_sequences)


@dataclass(frozen=True)
class Solution:
    yard_assignment: Mapping[int, int]
    qc_assignment: Mapping[int, int]
    qc_sequences: Mapping[int, tuple[int, ...]]
    yc_sequences: Mapping[int, tuple[int, ...]]
    interference_order: Mapping[tuple[int, int, int, int], str]
    qc_start: Mapping[int, int]
    yc_start: Mapping[int, int]
    objective: int
    status: str = "feasible"
    yt_time: Mapping[int, int] | None = None
    yc_empty: Mapping[tuple[int, int], int] | None = None
    per_vessel_completion: Mapping[int, int] | None = None

    def decisions(self) -> Decisions:
        return Decisions(
            yard_assignment=dict(self.yard_assignment),
            qc_sequences={q: tuple(s) for q, s in self.qc_sequences.items()},
            yc_sequences={c: tuple(s) for c, s in self.yc_sequences.items()},
            interference_order=dict(self.interference_order),
            qc_assignment=dict(self.qc_assignment),
        )

    def with_status(self, status: str) -> "Solution":
        return replace(self, status=status)


def active_interference(
    derived: DerivedTables, qc_assignment: Mapping[int, int]
) -> list[tuple[int, int, int, int]]:
    """Interference tuples actually selected by the crane assignment."""
    return [
        (i, j, v, w)
        for (i, j, v, w) in derived.interference_set
        if qc_assignment.get(i) == v and qc_assignment.get(j) == w
    ]


def vessel_completions(instance: Instance, solution: Solution) -> dict[int, int]:
    return _vessel_completions(instance, solution.qc_start, solution.yc_start)


def _vessel_completions(
    instance: Instance, qc_start: Mapping[int, int], yc_start: Mapping[int, int]
) -> dict[int, int]:
    """Latest handling completion per vessel (yard side in, quay side out)."""
    done = {
        s.id: yc_start[s.id] + s.yc_time if s.is_inbound else qc_start[s.id] + s.qc_time
        for s in instance.shipments
    }
    return {
        v.id: max((done[s.id] for s in instance.shipments_of_vessel(v.id)), default=0)
        for v in instance.vessels
    }


def _weighted_sum(instance: Instance, per_vessel: Mapping[int, int]) -> int:
    return sum(
        instance.vessel(v).weight * completion for v, completion in per_vessel.items()
    )


def objective_of(instance: Instance, solution: Solution):
    """Sum of weighted vessel completion times, recomputed from start times."""
    return _weighted_sum(instance, vessel_completions(instance, solution))


# -- schedule construction ----------------------------------------------


def _crane_pairs(
    sequences: Mapping[int, tuple[int, ...]],
    crane_count: int,
    ship_ids: list[int],
    crane_of: Callable[[int], int | None],
) -> list[tuple[int, int]]:
    """Pairs (a, b) where b follows a on one crane, crane by crane.

    Each crane contributes its sequence chain, then one pair from its last
    sequenced shipment to each shipment that ``crane_of`` puts on it but no
    sequence holds yet (by id).
    """
    unsequenced: dict[int, list[int]] = {}
    sequenced = set().union(*sequences.values())
    if len(sequenced) < len(ship_ids):
        for i in ship_ids:
            crane = None if i in sequenced else crane_of(i)
            if crane is not None:
                unsequenced.setdefault(crane, []).append(i)
    pairs: list[tuple[int, int]] = []
    for crane in range(1, crane_count + 1):
        sequence = sequences[crane]
        if sequence:
            pairs += zip(sequence, sequence[1:])
            pairs += [(sequence[-1], u) for u in unsequenced.get(crane, ())]
    return pairs


def precedence_arcs(
    instance: Instance,
    derived: DerivedTables,
    yard_assignment: Mapping[int, int],
    qc_assignment: Mapping[int, int],
    qc_sequences: Mapping[int, tuple[int, ...]],
    yc_sequences: Mapping[int, tuple[int, ...]],
    interference_order: Mapping[tuple[int, int, int, int], str],
) -> list[tuple[int, int, int]]:
    """Precedence arcs ``(u, v, min_gap)`` induced by possibly partial decisions.

    Task ``2p`` is the quay task and ``2p + 1`` the yard task of the p-th
    shipment by id; every arc demands ``start[v] >= start[u] + min_gap``.
    Arcs come in a fixed order: the transfer of each shipment by id; per
    quay crane its sequence chain, then an arc from its last sequenced
    shipment to each unsequenced member; the same per yard crane; then one
    arc per interference order, in mapping order.  An inbound shipment
    without a location gets the smallest transfer time of a free location.
    """
    shipment = instance.shipment
    ships = sorted(instance.shipments, key=attrgetter("id"))
    ship_ids = [s.id for s in ships]
    task = {i: 2 * p for p, i in enumerate(ship_ids)}
    location: dict[int, int] = {}
    arcs: list[tuple[int, int, int]] = []
    min_free = None
    for s in ships:
        t = task[s.id]
        if s.is_outbound:
            location[s.id] = s.fixed_location
            arcs.append((t + 1, t, s.yc_time + s.yt_outbound_time))
            continue
        k = yard_assignment.get(s.id)
        if k is not None:
            location[s.id] = k
            transfer = instance.tt(k)
        else:
            if min_free is None:
                used = set(yard_assignment.values())
                min_free = min(
                    (tt for free, tt in instance.yt_inbound_transfer.items()
                     if free not in used),
                    default=0,
                )
            transfer = min_free
        arcs.append((t, t + 1, s.qc_time + transfer))

    qc_pairs = _crane_pairs(
        qc_sequences, instance.qc_count, ship_ids, qc_assignment.get
    )
    yc_pairs = _crane_pairs(
        yc_sequences,
        instance.yc_count,
        ship_ids,
        lambda i: instance.location(location[i]).yc if i in location else None,
    )
    qc_empty = derived.qc_empty_travel
    for a, b in qc_pairs:
        arcs.append((task[a], task[b], shipment(a).qc_time + qc_empty[(a, b)]))
    for a, b in yc_pairs:
        arcs.append(
            (
                task[a] + 1,
                task[b] + 1,
                shipment(a).yc_time + instance.tyc(location[a], location[b]),
            )
        )

    separation = derived.interference_time
    for key, direction in interference_order.items():
        first, second = key[:2] if direction == I_FIRST else (key[1], key[0])
        arcs.append(
            (task[first], task[second], shipment(first).qc_time + separation[key])
        )
    return arcs


def compute_schedule(
    instance: Instance, derived: DerivedTables, decisions: Decisions
) -> Solution:
    """Earliest-start schedule for fixed discrete decisions.

    Assigns every task its longest path from time zero through
    ``precedence_arcs``.  Raises CyclicOrdering when the interference
    orders contradict the sequences, MalformedSolution when the decisions
    are structurally broken.
    """
    qc_assignment = decisions.resolved_qc_assignment()
    structural = _structural_violations(
        instance,
        derived,
        decisions.yard_assignment,
        qc_assignment,
        decisions.qc_sequences,
        decisions.yc_sequences,
    )
    if structural:
        raise MalformedSolution("; ".join(str(v) for v in structural[:3]))

    order = {}
    for key in active_interference(derived, qc_assignment):
        order[key] = decisions.interference_order.get(key)
        if order[key] not in (I_FIRST, J_FIRST):
            raise MalformedSolution(f"no ordering decided for interference {key}")

    n_tasks = 2 * len(instance.shipments)
    adjacency: list[list[tuple[int, int, int]]] = [[] for _ in range(n_tasks)]
    indegree = [0] * n_tasks
    for arc in precedence_arcs(
        instance,
        derived,
        decisions.yard_assignment,
        qc_assignment,
        decisions.qc_sequences,
        decisions.yc_sequences,
        order,
    ):
        adjacency[arc[0]].append(arc)
        indegree[arc[1]] += 1

    start = [0] * n_tasks
    stack = [node for node in range(n_tasks) if indegree[node] == 0]
    processed = 0
    while stack:
        u = stack.pop()
        processed += 1
        for _, v, weight in adjacency[u]:
            if start[u] + weight > start[v]:
                start[v] = start[u] + weight
            indegree[v] -= 1
            if indegree[v] == 0:
                stack.append(v)
    if processed < n_tasks:
        raise CyclicOrdering(
            "interference orderings are incompatible with the crane sequences"
        )

    ships = sorted(instance.shipments, key=attrgetter("id"))
    location = dict(decisions.yard_assignment)
    for s in instance.outbound_shipments:
        location[s.id] = s.fixed_location
    yc_empty: dict[tuple[int, int], int] = {}
    for crane in sorted(decisions.yc_sequences):
        sequence = decisions.yc_sequences[crane]
        for a, b in zip(sequence, sequence[1:]):
            if instance.shipment(a).is_outbound and instance.shipment(b).is_outbound:
                continue
            yc_empty[(a, b)] = instance.tyc(location[a], location[b])

    qc_start = {s.id: start[2 * p] for p, s in enumerate(ships)}
    yc_start = {s.id: start[2 * p + 1] for p, s in enumerate(ships)}
    per_vessel = _vessel_completions(instance, qc_start, yc_start)
    return Solution(
        yard_assignment=dict(decisions.yard_assignment),
        qc_assignment=qc_assignment,
        qc_sequences={q: tuple(s) for q, s in decisions.qc_sequences.items()},
        yc_sequences={c: tuple(s) for c, s in decisions.yc_sequences.items()},
        interference_order=order,
        qc_start=qc_start,
        yc_start=yc_start,
        objective=_weighted_sum(instance, per_vessel),
        yt_time={s.id: instance.tt(location[s.id]) for s in ships if s.is_inbound},
        yc_empty=yc_empty,
        per_vessel_completion=per_vessel,
    )


# -- validation ----------------------------------------------------------


def _structural_violations(
    instance: Instance,
    derived: DerivedTables,
    yard_assignment: Mapping[int, int],
    qc_assignment: Mapping[int, int],
    qc_sequences: Mapping[int, tuple[int, ...]],
    yc_sequences: Mapping[int, tuple[int, ...]],
) -> list[Violation]:
    out: list[Violation] = []
    ship_ids = {s.id for s in instance.shipments}
    inbound_ids = {s.id for s in instance.shipments if s.is_inbound}

    # Stage A: id-level sanity.  Later stages assume these hold.
    inbound_available = {k.id for k in instance.inbound_available_locations}
    for i in sorted(inbound_ids):
        if i not in yard_assignment:
            out.append(
                Violation(LOCATION_ASSIGNMENT, (i,), "inbound shipment has no location")
            )
    for i, k in sorted(yard_assignment.items()):
        if i not in inbound_ids:
            out.append(
                Violation(LOCATION_ASSIGNMENT, (i,), "assignment for non-inbound id")
            )
        elif k not in inbound_available:
            out.append(
                Violation(
                    LOCATION_ASSIGNMENT, (i, k), "location not available for inbound"
                )
            )
    used: dict[int, list[int]] = {}
    for i, k in sorted(yard_assignment.items()):
        if i in inbound_ids and k in inbound_available:
            used.setdefault(k, []).append(i)
    for k, holders in sorted(used.items()):
        if len(holders) > 1:
            out.append(
                Violation(
                    LOCATION_CAPACITY, (k, *holders), "location stores several shipments"
                )
            )

    qc_ids = set(range(1, instance.qc_count + 1))
    for q in sorted(qc_ids - set(qc_sequences)):
        out.append(Violation(QC_CHAIN_MISSING, (q,), "no sequence for quay crane"))
    for q in sorted(set(qc_sequences) - qc_ids):
        out.append(Violation(QC_CHAIN_UNKNOWN, (q,), "sequence for unknown quay crane"))
    yc_ids = set(range(1, instance.yc_count + 1))
    for c in sorted(yc_ids - set(yc_sequences)):
        out.append(Violation(YC_CHAIN_MISSING, (c,), "no sequence for yard crane"))
    for c in sorted(set(yc_sequences) - yc_ids):
        out.append(Violation(YC_CHAIN_UNKNOWN, (c,), "sequence for unknown yard crane"))

    for q in sorted(set(qc_sequences) & qc_ids):
        for i in qc_sequences[q]:
            if i not in ship_ids:
                out.append(
                    Violation(QC_CHAIN_CONSISTENCY, (q, i), "unknown shipment in sequence")
                )
    for c in sorted(set(yc_sequences) & yc_ids):
        for i in yc_sequences[c]:
            if i not in ship_ids:
                out.append(
                    Violation(YC_CHAIN_CONSISTENCY, (c, i), "unknown shipment in sequence")
                )
    if out:
        return out

    # Stage B: membership and eligibility.
    qc_holder: dict[int, list[int]] = {i: [] for i in ship_ids}
    for q in sorted(qc_sequences):
        for i in qc_sequences[q]:
            qc_holder[i].append(q)
    for i in sorted(ship_ids):
        holders = qc_holder[i]
        if len(holders) != 1:
            out.append(
                Violation(
                    QC_ELIGIBILITY,
                    (i, *holders),
                    f"shipment appears {len(holders)} times across quay cranes",
                )
            )
        elif holders[0] not in derived.eligible_qcs[i]:
            out.append(
                Violation(QC_ELIGIBILITY, (i, holders[0]), "quay crane not eligible")
            )
        elif qc_assignment.get(i) != holders[0]:
            out.append(
                Violation(
                    QC_CHAIN_CONSISTENCY,
                    (i, qc_assignment.get(i), holders[0]),
                    "assignment and sequence disagree",
                )
            )
    for i in sorted(set(qc_assignment) - ship_ids):
        out.append(Violation(QC_CHAIN_CONSISTENCY, (i,), "assignment for unknown id"))

    own_yc = {
        s.id: instance.location(
            s.fixed_location if s.is_outbound else yard_assignment[s.id]
        ).yc
        for s in instance.shipments
    }
    for i in sorted(ship_ids):
        family = (
            YC_MEMBERSHIP_INBOUND
            if instance.shipment(i).is_inbound
            else YC_MEMBERSHIP_OUTBOUND
        )
        count = sum(1 for j in yc_sequences.get(own_yc[i], ()) if j == i)
        if count != 1:
            out.append(
                Violation(
                    family,
                    (i, own_yc[i]),
                    f"shipment appears {count} times on its yard crane",
                )
            )
    for c in sorted(yc_sequences):
        for i in yc_sequences[c]:
            if own_yc[i] != c:
                out.append(
                    Violation(
                        YC_CHAIN_CONSISTENCY, (i, c), "shipment on a foreign yard crane"
                    )
                )
    return out


def validate(
    instance: Instance, derived: DerivedTables, solution: Solution
) -> list[Violation]:
    """All constraint violations of a solution; empty list means feasible."""
    structural = _structural_violations(
        instance,
        derived,
        solution.yard_assignment,
        solution.qc_assignment,
        solution.qc_sequences,
        solution.yc_sequences,
    )
    missing_starts = [
        Violation(START_NEGATIVE, (i,), "missing start time")
        for i in sorted(s.id for s in instance.shipments)
        if i not in solution.qc_start or i not in solution.yc_start
    ]
    if structural or missing_starts:
        return structural + missing_starts

    out: list[Violation] = []
    location = dict(solution.yard_assignment)
    for s in instance.outbound_shipments:
        location[s.id] = s.fixed_location

    for i in sorted(s.id for s in instance.shipments):
        if solution.qc_start[i] < 0 or solution.yc_start[i] < 0:
            out.append(Violation(START_NEGATIVE, (i,), "negative start time"))

    for q in sorted(solution.qc_sequences):
        sequence = solution.qc_sequences[q]
        for a, b in zip(sequence, sequence[1:]):
            required = (
                solution.qc_start[a]
                + instance.shipment(a).qc_time
                + derived.qc_empty_travel[(a, b)]
            )
            if solution.qc_start[b] < required:
                out.append(
                    Violation(
                        QC_SEQUENCE_TIMING,
                        (a, b, q),
                        f"start {solution.qc_start[b]} < {required}",
                    )
                )

    family_by_dirs = {
        (True, True): YC_SEQUENCE_TIMING_AFTER_INBOUND,
        (True, False): YC_SEQUENCE_TIMING_AFTER_INBOUND,
        (False, True): YC_SEQUENCE_TIMING_OUTBOUND_TO_INBOUND,
        (False, False): YC_SEQUENCE_TIMING_BETWEEN_OUTBOUND,
    }
    for c in sorted(solution.yc_sequences):
        sequence = solution.yc_sequences[c]
        for a, b in zip(sequence, sequence[1:]):
            required = (
                solution.yc_start[a]
                + instance.shipment(a).yc_time
                + instance.tyc(location[a], location[b])
            )
            if solution.yc_start[b] < required:
                family = family_by_dirs[
                    (instance.shipment(a).is_inbound, instance.shipment(b).is_inbound)
                ]
                out.append(
                    Violation(
                        family, (a, b, c), f"start {solution.yc_start[b]} < {required}"
                    )
                )

    for s in instance.shipments:
        if s.is_outbound:
            required = solution.yc_start[s.id] + s.yc_time + s.yt_outbound_time
            if solution.qc_start[s.id] < required:
                out.append(
                    Violation(
                        OUTBOUND_PRECEDENCE,
                        (s.id,),
                        f"quay start {solution.qc_start[s.id]} < {required}",
                    )
                )
        else:
            required = solution.qc_start[s.id] + s.qc_time + instance.tt(location[s.id])
            if solution.yc_start[s.id] < required:
                out.append(
                    Violation(
                        INBOUND_PRECEDENCE,
                        (s.id,),
                        f"yard start {solution.yc_start[s.id]} < {required}",
                    )
                )

    if solution.yt_time is not None:
        expected_yt = {
            s.id: instance.tt(location[s.id]) for s in instance.inbound_shipments
        }
        for i in sorted(set(expected_yt) | set(solution.yt_time)):
            if solution.yt_time.get(i) != expected_yt.get(i):
                out.append(
                    Violation(
                        YT_TRANSFER_VALUE,
                        (i,),
                        f"stored {solution.yt_time.get(i)} != {expected_yt.get(i)}",
                    )
                )

    if solution.yc_empty is not None:
        expected_empty: dict[tuple[int, int], int] = {}
        for c in sorted(solution.yc_sequences):
            sequence = solution.yc_sequences[c]
            for a, b in zip(sequence, sequence[1:]):
                if (
                    instance.shipment(a).is_outbound
                    and instance.shipment(b).is_outbound
                ):
                    continue
                expected_empty[(a, b)] = instance.tyc(location[a], location[b])
        empty_family = {
            (True, False): YC_EMPTY_VALUE_TO_OUTBOUND,
            (True, True): YC_EMPTY_VALUE_BETWEEN_INBOUND,
            (False, True): YC_EMPTY_VALUE_FROM_OUTBOUND,
            (False, False): YC_EMPTY_VALUE_FROM_OUTBOUND,
        }
        for a, b in sorted(set(expected_empty) | set(solution.yc_empty)):
            if solution.yc_empty.get((a, b)) != expected_empty.get((a, b)):
                family = empty_family[
                    (instance.shipment(a).is_inbound, instance.shipment(b).is_inbound)
                ]
                out.append(
                    Violation(
                        family,
                        (a, b),
                        f"stored {solution.yc_empty.get((a, b))} "
                        f"!= {expected_empty.get((a, b))}",
                    )
                )

    for key in active_interference(derived, solution.qc_assignment):
        i, j, v, w = key
        order = solution.interference_order.get(key)
        if order not in (I_FIRST, J_FIRST):
            out.append(
                Violation(
                    INTERFERENCE_ORDER_MISSING, key, "no ordering for active tuple"
                )
            )
            continue
        first, second = (i, j) if order == I_FIRST else (j, i)
        first_start = solution.qc_start[first]
        first_time = instance.shipment(first).qc_time
        second_start = solution.qc_start[second]
        second_time = instance.shipment(second).qc_time
        if (
            first_start < second_start + second_time
            and second_start < first_start + first_time
        ):
            out.append(
                Violation(INTERFERENCE_OVERLAP, key, "interfering tasks overlap")
            )
        elif second_start - first_start < first_time + derived.interference_time[key]:
            out.append(
                Violation(
                    INTERFERENCE_SEPARATION,
                    key,
                    f"separation {second_start - first_start} < "
                    f"{first_time + derived.interference_time[key]}",
                )
            )

    recomputed = objective_of(instance, solution)
    if solution.objective != recomputed:
        out.append(
            Violation(
                OBJECTIVE_VALUE,
                (),
                f"stated objective {solution.objective} != {recomputed}",
            )
        )
    if solution.per_vessel_completion is not None:
        actual = vessel_completions(instance, solution)
        if dict(solution.per_vessel_completion) != actual:
            out.append(
                Violation(OBJECTIVE_VALUE, (), "per-vessel completions mismatch")
            )
    return out


# -- solution file format -------------------------------------------------


def solution_to_payload(solution: Solution) -> dict:
    return {
        "yard_assignment": {
            str(i): k for i, k in sorted(solution.yard_assignment.items())
        },
        "qc_sequences": {
            str(q): list(solution.qc_sequences[q]) for q in sorted(solution.qc_sequences)
        },
        "yc_sequences": {
            str(c): list(solution.yc_sequences[c]) for c in sorted(solution.yc_sequences)
        },
        "interference_order": [
            {"i": i, "j": j, "v": v, "w": w, "order": solution.interference_order[key]}
            for key in sorted(solution.interference_order)
            for i, j, v, w in [key]
        ],
        "starts": {
            "qc": {str(i): t for i, t in sorted(solution.qc_start.items())},
            "yc": {str(i): t for i, t in sorted(solution.yc_start.items())},
        },
        "objective": solution.objective,
        "status": solution.status,
    }


def solution_from_payload(payload: Mapping) -> Solution:
    try:
        qc_sequences = {
            int(q): tuple(seq) for q, seq in payload["qc_sequences"].items()
        }
        yc_sequences = {
            int(c): tuple(seq) for c, seq in payload["yc_sequences"].items()
        }
        solution = Solution(
            yard_assignment={
                int(i): k for i, k in payload["yard_assignment"].items()
            },
            qc_assignment=qc_assignment_of(qc_sequences),
            qc_sequences=qc_sequences,
            yc_sequences=yc_sequences,
            interference_order={
                (e["i"], e["j"], e["v"], e["w"]): e["order"]
                for e in payload["interference_order"]
            },
            qc_start={int(i): t for i, t in payload["starts"]["qc"].items()},
            yc_start={int(i): t for i, t in payload["starts"]["yc"].items()},
            objective=payload["objective"],
            status=payload["status"],
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise MalformedSolution(f"malformed solution file: {exc}") from exc
    numbers = [
        *(i for sequence in qc_sequences.values() for i in sequence),
        *(i for sequence in yc_sequences.values() for i in sequence),
        *solution.yard_assignment.values(),
        *(i for key in solution.interference_order for i in key),
        *solution.qc_start.values(),
        *solution.yc_start.values(),
        solution.objective,
    ]
    for value in numbers:
        if not is_integer(value):
            raise MalformedSolution(
                f"malformed solution file: {value!r} is not an integer"
            )
    return solution


def solution_to_json(solution: Solution) -> str:
    return canonical_dumps(solution_to_payload(solution))


def solution_from_json(text: str) -> Solution:
    return solution_from_payload(json.loads(text))


def read_solution(path) -> Solution:
    with open(path, "r", encoding="utf-8") as handle:
        return solution_from_payload(json.load(handle))


def write_solution(path, solution: Solution) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(solution_to_json(solution))
