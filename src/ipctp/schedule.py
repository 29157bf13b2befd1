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
from typing import Mapping

from .errors import CyclicOrdering, MalformedSolution
from .instance import DerivedTables, Instance, Shipment, canonical_dumps, is_integer

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
    """The discrete part of a solution; start times follow deterministically.

    The one record of these decisions: a ``Solution`` adds its timetable,
    and the solver's ``SearchNode`` holds the decisions made so far, each
    crane's sequence so far among them.  ``compute_schedule`` reads the four
    fields by name, so the solver passes it a leaf's node record as it is."""

    yard_assignment: Mapping[int, int]
    qc_sequences: Mapping[int, tuple[int, ...]]
    yc_sequences: Mapping[int, tuple[int, ...]]
    interference_order: Mapping[tuple[int, int, int, int], str]


@dataclass(frozen=True)
class Solution(Decisions):
    """Decisions with their start times, stated objective and status.

    Every field reaches the solution file, so ``validate`` gives the same
    verdict in memory and after a file round trip."""

    qc_start: Mapping[int, int]
    yc_start: Mapping[int, int]
    objective: int
    status: str = "feasible"

    def with_status(self, status: str) -> "Solution":
        return replace(self, status=status)


def locations(instance: Instance, yard_assignment: Mapping[int, int]) -> dict[int, int]:
    """Each shipment's yard location: as assigned if inbound, fixed if outbound."""
    location = dict(yard_assignment)
    for s in instance.outbound_shipments:
        location[s.id] = s.fixed_location
    return location


def yard_timing_family(a: Shipment, b: Shipment) -> str:
    """The family of a yard crane's timing constraint from a to b."""
    if a.is_inbound:
        return YC_SEQUENCE_TIMING_AFTER_INBOUND
    if b.is_inbound:
        return YC_SEQUENCE_TIMING_OUTBOUND_TO_INBOUND
    return YC_SEQUENCE_TIMING_BETWEEN_OUTBOUND


def active_interference(
    derived: DerivedTables, qc_assignment: Mapping[int, int]
) -> list[tuple[int, int, int, int]]:
    """Interference tuples actually selected by the crane assignment."""
    return [
        (i, j, v, w)
        for (i, j, v, w) in derived.interference_set
        if qc_assignment.get(i) == v and qc_assignment.get(j) == w
    ]


def vessel_completions(
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
    return _weighted_sum(
        instance, vessel_completions(instance, solution.qc_start, solution.yc_start)
    )


# -- schedule construction ----------------------------------------------

# Crane kinds; a shipment's task of a kind is its ``quay_task`` plus the kind.
QUAY, YARD = 0, 1

Arc = tuple[int, int, int]


def transfer_arcs(
    instance: Instance, derived: DerivedTables, yard_assignment: Mapping[int, int]
) -> list[Arc]:
    """The arc between the two tasks of each shipment, by id.

    An inbound shipment without a location gets the smallest transfer time
    of a free location.
    """
    arcs: list[Arc] = []
    min_free = None
    for s in instance.shipments:
        t = derived.quay_task[s.id]
        if s.is_outbound:
            arcs.append((t + 1, t, s.yc_time + s.yt_outbound_time))
            continue
        k = yard_assignment.get(s.id)
        if k is not None:
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
    return arcs


def crane_arcs(
    instance: Instance,
    derived: DerivedTables,
    kind: int,
    sequence: tuple[int, ...],
    unsequenced: list[int],
    location: Mapping[int, int],
) -> list[Arc]:
    """The arcs of one crane of the kind.

    Its sequence chain, then one arc from its last sequenced shipment to
    each shipment in ``unsequenced``.  ``location`` is needed for yard
    cranes only.
    """
    if not sequence:
        return []
    pairs = zip(sequence, sequence[1:])
    if unsequenced:
        pairs = [*pairs, *((sequence[-1], u) for u in unsequenced)]
    shipment, task = instance.shipment, derived.quay_task
    if kind == QUAY:
        tqc = instance.tqc
        return [
            (task[a], task[b],
             shipment(a).qc_time + tqc(shipment(a).bay, shipment(b).bay))
            for a, b in pairs
        ]
    tyc = instance.tyc
    return [
        (task[a] + 1, task[b] + 1, shipment(a).yc_time + tyc(location[a], location[b]))
        for a, b in pairs
    ]


def order_arcs(
    derived: DerivedTables,
    interference_order: Mapping[tuple[int, int, int, int], str],
) -> list[Arc]:
    """One arc per interference order, in mapping order."""
    separation = derived.separation_arcs
    return [
        separation[key][direction != I_FIRST]
        for key, direction in interference_order.items()
    ]


def yard_cranes(instance: Instance, location: Mapping[int, int]) -> dict[int, int]:
    """The yard crane of each shipment that has a location."""
    return {i: instance.location(k).yc for i, k in location.items()}


def crane_members(
    instance: Instance, kind: int, crane_of: Mapping[int, int]
) -> dict[int, list[int]]:
    """Each crane of the kind by id, with the shipments ``crane_of`` puts on
    it by id."""
    count = instance.qc_count if kind == QUAY else instance.yc_count
    members: dict[int, list[int]] = {c: [] for c in range(1, count + 1)}
    for s in instance.shipments:
        crane = crane_of.get(s.id)
        if crane is not None:
            members[crane].append(s.id)
    return members


def precedence_arcs(
    instance: Instance,
    derived: DerivedTables,
    decisions: Decisions,
    qc_assignment: Mapping[int, int],
    interference_order: Mapping[tuple[int, int, int, int], str],
) -> list[Arc]:
    """Precedence arcs ``(u, v, min_gap)`` induced by possibly partial
    decisions: their locations and crane sequences, with the quay crane of
    each shipment in ``qc_assignment`` and the orders of
    ``interference_order``.

    Tasks are numbered by ``derived.quay_task``; every arc demands
    ``start[v] >= start[u] + min_gap``.  The arcs are the concatenation of
    fixed segments: ``transfer_arcs``; ``crane_arcs`` of each quay crane,
    then of each yard crane, by id, where a crane's unsequenced shipments
    are those of its ``crane_members`` that its sequence does not hold;
    then ``order_arcs``.
    """
    location = locations(instance, decisions.yard_assignment)
    arcs = transfer_arcs(instance, derived, decisions.yard_assignment)
    for kind, sequences, crane_of in (
        (QUAY, decisions.qc_sequences, qc_assignment),
        (YARD, decisions.yc_sequences, yard_cranes(instance, location)),
    ):
        for crane, ships in crane_members(instance, kind, crane_of).items():
            sequence = sequences[crane]
            left = [i for i in ships if i not in sequence]
            arcs += crane_arcs(instance, derived, kind, sequence, left, location)
    return arcs + order_arcs(derived, interference_order)


def default_big_m(instance: Instance, derived: DerivedTables) -> int:
    """A provably sufficient horizon of the precedence graph: the MIP's
    big-M constant and every task's latest start at the solver's root."""
    inbound_transfer = max(instance.yt_inbound_transfer.values(), default=0)
    total = 0
    for s in instance.shipments:
        transfer = s.yt_outbound_time if s.is_outbound else inbound_transfer
        total += s.qc_time + s.yc_time + transfer
    eqc_max = instance.qc_unit_travel * (instance.total_bays - 1)
    eyc_max = max((max(row) for row in instance.yc_travel), default=0)
    delta_max = max(derived.interference_time.values(), default=0)
    return total + len(instance.shipments) * (eqc_max + eyc_max + delta_max) + 1


def compute_schedule(
    instance: Instance, derived: DerivedTables, decisions: Decisions
) -> Solution:
    """Earliest-start schedule for fixed discrete decisions.

    Assigns every task its longest path from time zero through
    ``precedence_arcs``.  Raises CyclicOrdering when the interference
    orders contradict the sequences, MalformedSolution when the decisions
    are structurally broken.  ``decisions`` may be any record with the
    four ``Decisions`` fields: the solver passes a leaf's node as it is.
    """
    structural = _structural_violations(instance, derived, decisions)
    if structural:
        raise MalformedSolution("; ".join(str(v) for v in structural[:3]))

    qc_assignment = qc_assignment_of(decisions.qc_sequences)
    order = {}
    for key in active_interference(derived, qc_assignment):
        order[key] = decisions.interference_order.get(key)
        if order[key] not in (I_FIRST, J_FIRST):
            raise MalformedSolution(f"no ordering decided for interference {key}")
    start = _longest_paths(
        2 * len(instance.shipments),
        precedence_arcs(instance, derived, decisions, qc_assignment, order),
    )

    qc_start = {i: start[t] for i, t in derived.quay_task.items()}
    yc_start = {i: start[t + YARD] for i, t in derived.quay_task.items()}
    return Solution(
        yard_assignment=dict(decisions.yard_assignment),
        qc_sequences={q: tuple(s) for q, s in decisions.qc_sequences.items()},
        yc_sequences={c: tuple(s) for c, s in decisions.yc_sequences.items()},
        interference_order=order,
        qc_start=qc_start,
        yc_start=yc_start,
        objective=_weighted_sum(
            instance, vessel_completions(instance, qc_start, yc_start)
        ),
    )


def relax(arcs: list[Arc], start: list[int]) -> tuple[bool, int]:
    """Raise ``start`` in place until every arc ``(u, v, w)`` holds
    ``start[v] >= start[u] + w``, walking the arcs pass by pass.

    Returns whether it settled and how many times a start was raised.  It
    gives up after ``len(start) + 2`` passes: a longest path has fewer arcs
    than there are tasks, so only a positive cycle survives that many.
    """
    raises = 0
    for _ in range(len(start) + 2):
        changed = False
        for u, v, weight in arcs:
            candidate = start[u] + weight
            if candidate > start[v]:
                start[v] = candidate
                changed = True
                raises += 1
        if not changed:
            return True, raises
    return False, raises


def _longest_paths(n_tasks: int, arcs: list[Arc]) -> list[int]:
    """Each task's longest path from time zero through the arcs, in any order.

    Raises CyclicOrdering when the arcs close a cycle.  Every model arc
    weighs at least 1 (a positive handling time plus a travel, transfer or
    interference time that is not negative), so every cycle is positive
    and ``relax`` never settles on one.
    """
    start = [0] * n_tasks
    if not relax(arcs, start)[0]:
        raise CyclicOrdering(
            "interference orderings are incompatible with the crane sequences"
        )
    return start


# -- validation ----------------------------------------------------------


def _structural_violations(
    instance: Instance, derived: DerivedTables, decisions: Decisions
) -> list[Violation]:
    yard_assignment = decisions.yard_assignment
    qc_sequences = decisions.qc_sequences
    yc_sequences = decisions.yc_sequences
    out: list[Violation] = []
    ship_ids = {s.id for s in instance.shipments}
    inbound_ids = {s.id for s in instance.inbound_shipments}

    # Stage A: id-level sanity.  Later stages assume these hold.
    inbound_available = {k.id for k in instance.inbound_available_locations}
    for s in instance.inbound_shipments:
        i = s.id
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

    # Crane-level problems of both kinds come before shipment-level ones.
    unknown_ships: list[Violation] = []
    for sequences, crane_count, noun, missing, unknown, consistency in (
        (qc_sequences, instance.qc_count, "quay",
         QC_CHAIN_MISSING, QC_CHAIN_UNKNOWN, QC_CHAIN_CONSISTENCY),
        (yc_sequences, instance.yc_count, "yard",
         YC_CHAIN_MISSING, YC_CHAIN_UNKNOWN, YC_CHAIN_CONSISTENCY),
    ):
        cranes = set(range(1, crane_count + 1))
        for c in sorted(cranes - set(sequences)):
            out.append(Violation(missing, (c,), f"no sequence for {noun} crane"))
        for c in sorted(set(sequences) - cranes):
            out.append(Violation(unknown, (c,), f"sequence for unknown {noun} crane"))
        unknown_ships += [
            Violation(consistency, (c, i), "unknown shipment in sequence")
            for c in sorted(set(sequences) & cranes)
            for i in sequences[c]
            if i not in ship_ids
        ]
    out += unknown_ships
    if out:
        return out

    # Stage B: membership and eligibility.
    qc_holder: dict[int, list[int]] = {i: [] for i in ship_ids}
    for q in sorted(qc_sequences):
        for i in qc_sequences[q]:
            qc_holder[i].append(q)
    for s in instance.shipments:
        i = s.id
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

    own_yc = yard_cranes(instance, locations(instance, yard_assignment))
    for s in instance.shipments:
        i = s.id
        family = YC_MEMBERSHIP_INBOUND if s.is_inbound else YC_MEMBERSHIP_OUTBOUND
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
    structural = _structural_violations(instance, derived, solution)
    missing_starts = [
        Violation(START_NEGATIVE, (s.id,), "missing start time")
        for s in instance.shipments
        if s.id not in solution.qc_start or s.id not in solution.yc_start
    ]
    if structural or missing_starts:
        return structural + missing_starts

    out: list[Violation] = []
    location = locations(instance, solution.yard_assignment)

    for s in instance.shipments:
        if solution.qc_start[s.id] < 0 or solution.yc_start[s.id] < 0:
            out.append(Violation(START_NEGATIVE, (s.id,), "negative start time"))

    shipment = instance.shipment
    for sequences, start, duration, travel, family in (
        (
            solution.qc_sequences,
            solution.qc_start,
            attrgetter("qc_time"),
            lambda a, b: instance.tqc(shipment(a).bay, shipment(b).bay),
            lambda a, b: QC_SEQUENCE_TIMING,
        ),
        (
            solution.yc_sequences,
            solution.yc_start,
            attrgetter("yc_time"),
            lambda a, b: instance.tyc(location[a], location[b]),
            lambda a, b: yard_timing_family(shipment(a), shipment(b)),
        ),
    ):
        for c in sorted(sequences):
            sequence = sequences[c]
            for a, b in zip(sequence, sequence[1:]):
                required = start[a] + duration(shipment(a)) + travel(a, b)
                if start[b] < required:
                    detail = f"start {start[b]} < {required}"
                    out.append(Violation(family(a, b), (a, b, c), detail))

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

    qc_assignment = qc_assignment_of(solution.qc_sequences)
    for key in active_interference(derived, qc_assignment):
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
