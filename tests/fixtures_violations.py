"""Curated single-violation solutions, one per validator family.

Each fixture builds a feasible baseline via compute_schedule, applies one
surgical mutation, and must be flagged with exactly its intended family.
Timing mutations recompute the stated objective so the objective check
stays quiet; structural mutations rely on the validator's staging (id-level
problems suppress the downstream checks that would otherwise cascade).
"""

from __future__ import annotations

from dataclasses import replace

from ipctp.instance import (
    INBOUND,
    INBOUND_AVAILABLE,
    OUTBOUND,
    OUTBOUND_FIXED,
    Instance,
    Shipment,
    Vessel,
    YardLocation,
    build_derived,
)
from ipctp.schedule import (
    Decisions,
    I_FIRST,
    INBOUND_PRECEDENCE,
    INTERFERENCE_ORDER_MISSING,
    INTERFERENCE_OVERLAP,
    INTERFERENCE_SEPARATION,
    LOCATION_ASSIGNMENT,
    LOCATION_CAPACITY,
    OUTBOUND_PRECEDENCE,
    QC_CHAIN_CONSISTENCY,
    QC_CHAIN_MISSING,
    QC_CHAIN_UNKNOWN,
    QC_ELIGIBILITY,
    QC_SEQUENCE_TIMING,
    Solution,
    YC_CHAIN_CONSISTENCY,
    YC_CHAIN_MISSING,
    YC_CHAIN_UNKNOWN,
    YC_MEMBERSHIP_INBOUND,
    YC_MEMBERSHIP_OUTBOUND,
    YC_SEQUENCE_TIMING_AFTER_INBOUND,
    YC_SEQUENCE_TIMING_BETWEEN_OUTBOUND,
    YC_SEQUENCE_TIMING_OUTBOUND_TO_INBOUND,
    compute_schedule,
    objective_of,
    validate,
)

from conftest import (
    interference_pair_decisions,
    interference_pair_instance,
    mixed_decisions,
    mixed_instance,
    single_inbound_instance,
    single_outbound_instance,
)


def rebuilt(instance: Instance, solution: Solution, **overrides) -> Solution:
    """Copy a solution with overrides, restating the objective from starts."""
    fields = dict(
        yard_assignment=dict(solution.yard_assignment),
        qc_sequences={q: tuple(s) for q, s in solution.qc_sequences.items()},
        yc_sequences={c: tuple(s) for c, s in solution.yc_sequences.items()},
        interference_order=dict(solution.interference_order),
        qc_start=dict(solution.qc_start),
        yc_start=dict(solution.yc_start),
        status=solution.status,
    )
    fields.update(overrides)
    probe = Solution(objective=0, **fields)
    try:
        objective = objective_of(instance, probe)
    except Exception:
        objective = solution.objective
    return replace(probe, objective=objective)


def _mixed_baseline():
    instance = mixed_instance()
    derived = build_derived(instance)
    solution = compute_schedule(instance, derived, mixed_decisions())
    assert validate(instance, derived, solution) == []
    return instance, derived, solution


def _mixed_variant_baseline():
    """Quay order 1 then 3; yard chain 1, 4, then outbound 3."""
    instance = mixed_instance()
    derived = build_derived(instance)
    decisions = Decisions(
        yard_assignment={1: 1, 4: 2},
        qc_sequences={1: (1, 3), 2: (2, 4)},
        yc_sequences={1: (1, 4, 3), 2: (2,)},
        interference_order={(1, 2, 1, 2): I_FIRST},
    )
    solution = compute_schedule(instance, derived, decisions)
    assert validate(instance, derived, solution) == []
    return instance, derived, solution


def _pair_baseline():
    instance = interference_pair_instance()
    derived = build_derived(instance)
    solution = compute_schedule(
        instance, derived, interference_pair_decisions(I_FIRST)
    )
    assert validate(instance, derived, solution) == []
    return instance, derived, solution


def _single_yc_outbound_then_inbound():
    """A long outbound yard job ahead of a quick inbound one on one crane."""
    instance = Instance(
        vessels=(Vessel(1, 1),),
        shipments=(
            Shipment(id=1, vessel=1, direction=OUTBOUND, bay=1, containers=2,
                     qc_time=5, yc_time=20, fixed_location=2, yt_outbound_time=4),
            Shipment(id=2, vessel=1, direction=INBOUND, bay=2, containers=2,
                     qc_time=2, yc_time=5),
        ),
        total_bays=2,
        qc_count=1,
        yc_count=1,
        yard_locations=(
            YardLocation(1, 1, 1, "C", INBOUND_AVAILABLE),
            YardLocation(2, 1, 2, "C", OUTBOUND_FIXED),
        ),
        safety_distance=1,
        qc_unit_travel=3,
        yc_travel=((0, 1), (1, 0)),
        yt_inbound_transfer={1: 1},
    )
    derived = build_derived(instance)
    solution = compute_schedule(
        instance,
        derived,
        Decisions(
            yard_assignment={2: 1},
            qc_sequences={1: (2, 1)},
            yc_sequences={1: (1, 2)},
            interference_order={},
        ),
    )
    assert validate(instance, derived, solution) == []
    return instance, derived, solution


def _single_yc_two_outbound():
    instance = Instance(
        vessels=(Vessel(1, 1),),
        shipments=(
            Shipment(id=1, vessel=1, direction=OUTBOUND, bay=1, containers=2,
                     qc_time=3, yc_time=6, fixed_location=1, yt_outbound_time=2),
            Shipment(id=2, vessel=1, direction=OUTBOUND, bay=2, containers=2,
                     qc_time=4, yc_time=5, fixed_location=2, yt_outbound_time=2),
        ),
        total_bays=2,
        qc_count=1,
        yc_count=1,
        yard_locations=(
            YardLocation(1, 1, 1, "C", OUTBOUND_FIXED),
            YardLocation(2, 1, 2, "C", OUTBOUND_FIXED),
        ),
        safety_distance=1,
        qc_unit_travel=3,
        yc_travel=((0, 1), (1, 0)),
        yt_inbound_transfer={},
    )
    derived = build_derived(instance)
    solution = compute_schedule(
        instance,
        derived,
        Decisions(
            yard_assignment={},
            qc_sequences={1: (1, 2)},
            yc_sequences={1: (1, 2)},
            interference_order={},
        ),
    )
    assert validate(instance, derived, solution) == []
    return instance, derived, solution


# -- fixture builders ------------------------------------------------------


def capacity_two_inbound_share_location():
    instance, derived, sol = _mixed_baseline()
    return instance, derived, rebuilt(instance, sol, yard_assignment={1: 1, 4: 1})


def assignment_missing_inbound():
    instance, derived, sol = _mixed_baseline()
    return instance, derived, rebuilt(instance, sol, yard_assignment={1: 1})


def assignment_to_outbound_location():
    instance, derived, sol = _mixed_baseline()
    return instance, derived, rebuilt(instance, sol, yard_assignment={1: 5, 4: 2})


def qc_chain_missing_crane():
    instance, derived, sol = _mixed_baseline()
    return instance, derived, rebuilt(instance, sol, qc_sequences={1: (3, 1)})


def yc_chain_missing_crane():
    instance, derived, sol = _mixed_baseline()
    return instance, derived, rebuilt(instance, sol, yc_sequences={1: (3, 1, 4)})


def qc_chain_unknown_crane():
    instance, derived, sol = _mixed_baseline()
    return instance, derived, rebuilt(
        instance, sol, qc_sequences={1: (3, 1), 2: (2, 4), 9: ()}
    )


def yc_chain_unknown_crane():
    instance, derived, sol = _mixed_baseline()
    return instance, derived, rebuilt(
        instance, sol, yc_sequences={1: (3, 1, 4), 2: (2,), 9: ()}
    )


def qc_chain_ghost_shipment():
    instance, derived, sol = _mixed_baseline()
    return instance, derived, rebuilt(
        instance, sol, qc_sequences={1: (3, 1, 99), 2: (2, 4)}
    )


def qc_ineligible_crane():
    instance, derived, sol = _mixed_baseline()
    # Shipment 3 sits in bay 1, reachable only by the first crane.
    return instance, derived, rebuilt(
        instance,
        sol,
        qc_sequences={1: (1,), 2: (2, 4, 3)},
    )


def qc_duplicate_across_cranes():
    instance, derived, sol = _mixed_baseline()
    return instance, derived, rebuilt(
        instance, sol, qc_sequences={1: (3, 1), 2: (2, 4, 1)}
    )


def yc_missing_inbound_membership():
    instance, derived, sol = _mixed_baseline()
    return instance, derived, rebuilt(
        instance, sol, yc_sequences={1: (3, 1), 2: (2,)}
    )


def yc_missing_outbound_membership():
    instance, derived, sol = _mixed_baseline()
    return instance, derived, rebuilt(
        instance, sol, yc_sequences={1: (3, 1, 4), 2: ()}
    )


def yc_foreign_duplicate():
    instance, derived, sol = _mixed_baseline()
    return instance, derived, rebuilt(
        instance, sol, yc_sequences={1: (3, 1, 4), 2: (2, 1)}
    )


def qc_consecutive_too_close():
    instance, derived, sol = _mixed_baseline()
    starts = dict(sol.qc_start)
    starts[1] -= 1
    return instance, derived, rebuilt(instance, sol, qc_start=starts)


def yc_inbound_pair_too_close():
    instance, derived, sol = _mixed_baseline()
    starts = dict(sol.yc_start)
    starts[4] -= 1
    return instance, derived, rebuilt(instance, sol, yc_start=starts)


def yc_inbound_to_outbound_too_close():
    instance, derived, sol = _mixed_variant_baseline()
    starts = dict(sol.yc_start)
    starts[3] -= 1
    return instance, derived, rebuilt(instance, sol, yc_start=starts)


def yc_outbound_to_inbound_too_close():
    instance, derived, sol = _single_yc_outbound_then_inbound()
    starts = dict(sol.yc_start)
    starts[2] -= 1
    return instance, derived, rebuilt(instance, sol, yc_start=starts)


def yc_outbound_pair_too_close():
    instance, derived, sol = _single_yc_two_outbound()
    starts = dict(sol.yc_start)
    starts[2] -= 1
    return instance, derived, rebuilt(instance, sol, yc_start=starts)


def outbound_precedence_broken():
    instance = single_outbound_instance()
    derived = build_derived(instance)
    sol = compute_schedule(
        instance,
        derived,
        Decisions(
            yard_assignment={},
            qc_sequences={1: (1,)},
            yc_sequences={1: (1,)},
            interference_order={},
        ),
    )
    starts = dict(sol.qc_start)
    starts[1] -= 1
    return instance, derived, rebuilt(instance, sol, qc_start=starts)


def inbound_precedence_broken():
    instance = single_inbound_instance()
    derived = build_derived(instance)
    sol = compute_schedule(
        instance,
        derived,
        Decisions(
            yard_assignment={1: 1},
            qc_sequences={1: (1,)},
            yc_sequences={1: (1,)},
            interference_order={},
        ),
    )
    starts = dict(sol.yc_start)
    starts[1] -= 1
    return instance, derived, rebuilt(instance, sol, yc_start=starts)


def interference_overlapping_tasks():
    instance, derived, sol = _pair_baseline()
    starts = dict(sol.qc_start)
    starts[2] = 2
    return instance, derived, rebuilt(instance, sol, qc_start=starts)


def interference_order_missing_tuple():
    instance, derived, sol = _pair_baseline()
    return instance, derived, rebuilt(instance, sol, interference_order={})


def interference_gap_too_small():
    instance, derived, sol = _pair_baseline()
    starts = dict(sol.qc_start)
    starts[2] -= 1
    return instance, derived, rebuilt(instance, sol, qc_start=starts)


FIXTURES = (
    ("capacity_two_inbound_share_location", LOCATION_CAPACITY,
     capacity_two_inbound_share_location),
    ("assignment_missing_inbound", LOCATION_ASSIGNMENT, assignment_missing_inbound),
    ("assignment_to_outbound_location", LOCATION_ASSIGNMENT,
     assignment_to_outbound_location),
    ("qc_chain_missing_crane", QC_CHAIN_MISSING, qc_chain_missing_crane),
    ("yc_chain_missing_crane", YC_CHAIN_MISSING, yc_chain_missing_crane),
    ("qc_chain_unknown_crane", QC_CHAIN_UNKNOWN, qc_chain_unknown_crane),
    ("yc_chain_unknown_crane", YC_CHAIN_UNKNOWN, yc_chain_unknown_crane),
    ("qc_chain_ghost_shipment", QC_CHAIN_CONSISTENCY, qc_chain_ghost_shipment),
    ("qc_ineligible_crane", QC_ELIGIBILITY, qc_ineligible_crane),
    ("qc_duplicate_across_cranes", QC_ELIGIBILITY, qc_duplicate_across_cranes),
    ("yc_missing_inbound_membership", YC_MEMBERSHIP_INBOUND,
     yc_missing_inbound_membership),
    ("yc_missing_outbound_membership", YC_MEMBERSHIP_OUTBOUND,
     yc_missing_outbound_membership),
    ("yc_foreign_duplicate", YC_CHAIN_CONSISTENCY, yc_foreign_duplicate),
    ("qc_consecutive_too_close", QC_SEQUENCE_TIMING, qc_consecutive_too_close),
    ("yc_inbound_pair_too_close", YC_SEQUENCE_TIMING_AFTER_INBOUND,
     yc_inbound_pair_too_close),
    ("yc_inbound_to_outbound_too_close", YC_SEQUENCE_TIMING_AFTER_INBOUND,
     yc_inbound_to_outbound_too_close),
    ("yc_outbound_to_inbound_too_close", YC_SEQUENCE_TIMING_OUTBOUND_TO_INBOUND,
     yc_outbound_to_inbound_too_close),
    ("yc_outbound_pair_too_close", YC_SEQUENCE_TIMING_BETWEEN_OUTBOUND,
     yc_outbound_pair_too_close),
    ("outbound_precedence_broken", OUTBOUND_PRECEDENCE, outbound_precedence_broken),
    ("inbound_precedence_broken", INBOUND_PRECEDENCE, inbound_precedence_broken),
    ("interference_overlapping_tasks", INTERFERENCE_OVERLAP,
     interference_overlapping_tasks),
    ("interference_order_missing_tuple", INTERFERENCE_ORDER_MISSING,
     interference_order_missing_tuple),
    ("interference_gap_too_small", INTERFERENCE_SEPARATION,
     interference_gap_too_small),
)
