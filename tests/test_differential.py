"""Solver, oracle, validator and bound against each other on drawn instances.

The draws reach what the generator never makes: several weighted vessels,
safety distances 0 to 2, free quay travel, a choice of quay crane and
inbound-only or outbound-only mixes.  Yard travel is drawn at random and
then closed under shortest paths, so it is metric as every instance must be.
A second test draws two quay cranes with the shipments next to their
border, so that the search and the oracle decide interference orders.
A fixed sample of the draws with two or more inbound shipments also goes
through the exported MILP, solved by HiGHS.
"""

import zlib
from dataclasses import replace

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ipctp.errors import BudgetExceeded
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
from ipctp.oracle import brute_force, estimate_combinations
from ipctp.schedule import Solution, qc_assignment_of, validate
from ipctp.solver import (
    SearchNode,
    SolveParams,
    lower_bound,
    propagate,
    root_node,
    solve,
)

from conftest import constructive_schedule
from milp_backend import round_trip

# Draws with more complete decision combinations are skipped: the oracle
# enumerates every one of them.
COMBINATIONS = 20_000

# One in MILP_EVERY draws of two or three shipments with two or more
# inbound, picked by a checksum of the draw, is also solved as a MILP: 25
# draws of the first test below and 15 of the second, 2.4 s and 0.9 s of
# HiGHS on 2 cores.  The draws are derandomized, so the sample is fixed,
# and a replayed draw is picked again.  Four-shipment draws are
# left out because they take HiGHS up to 3.4 s each.
MILP_EVERY = 4


@st.composite
def instances(draw, interfering: bool = False) -> Instance:
    """A drawn instance.  An ``interfering`` one has two quay cranes that
    each own half of ``2 (safety + 1)`` bays, two shipments or more on the
    bays next to their border and quay travel that costs time, so that its
    interference tuples are active and their orders get decided."""
    count = draw(st.integers(2 if interfering else 1, 4))
    mix = draw(st.sampled_from(("inbound", "outbound", "mixed")))
    if mix == "mixed":
        directions = draw(st.lists(st.sampled_from((INBOUND, OUTBOUND)),
                                   min_size=count, max_size=count))
    else:
        directions = [INBOUND if mix == "inbound" else OUTBOUND] * count
    vessels = tuple(
        Vessel(v, draw(st.integers(1, 3))) for v in range(1, draw(st.integers(1, 2)) + 1)
    )
    if interfering:
        qc_count, safety = 2, draw(st.integers(1, 2))
        total_bays = 2 * (safety + 1)
        bays = st.integers(safety, safety + 3)
    else:
        qc_count = draw(st.integers(1, 2))
        safety = draw(st.integers(0, 2))
        # Two cranes leave no bay without one when there are twice the spacing.
        total_bays = draw(st.integers(max(1, 2 * (safety + 1) * (qc_count - 1)), 8))
        bays = st.integers(1, total_bays)
    yc_count = draw(st.integers(1, 2))

    inbound = directions.count(INBOUND)
    free = inbound + draw(st.integers(0, 2)) if inbound else 0
    locations = [
        YardLocation(k, draw(st.integers(1, yc_count)), 1, "C", INBOUND_AVAILABLE)
        for k in range(1, free + 1)
    ]
    shipments = []
    for i, direction in enumerate(directions, start=1):
        body = dict(
            id=i,
            vessel=draw(st.integers(1, len(vessels))),
            direction=direction,
            bay=draw(bays),
            containers=1,
            qc_time=draw(st.integers(1, 6)),
            yc_time=draw(st.integers(1, 6)),
        )
        if direction == OUTBOUND:
            k = len(locations) + 1
            locations.append(
                YardLocation(k, draw(st.integers(1, yc_count)), 1, "A", OUTBOUND_FIXED)
            )
            body.update(fixed_location=k, yt_outbound_time=draw(st.integers(0, 5)))
        shipments.append(Shipment(**body))

    size = len(locations)
    travel = [[0] * size for _ in range(size)]
    for a in range(size):
        for b in range(a + 1, size):
            travel[a][b] = travel[b][a] = draw(st.integers(0, 6))
    for m in range(size):  # Floyd-Warshall: the shortest-path closure
        for a in range(size):
            for b in range(size):
                travel[a][b] = min(travel[a][b], travel[a][m] + travel[m][b])
    return Instance(
        vessels=vessels,
        shipments=tuple(shipments),
        total_bays=total_bays,
        qc_count=qc_count,
        yc_count=yc_count,
        yard_locations=tuple(locations),
        safety_distance=safety,
        qc_unit_travel=draw(st.integers(1 if interfering else 0, 3)),
        yc_travel=tuple(map(tuple, travel)),
        yt_inbound_transfer={
            k.id: draw(st.integers(0, 5))
            for k in locations if k.reserved_for == INBOUND_AVAILABLE
        },
    )


@given(instance=instances())
@settings(max_examples=400, derandomize=True, database=None, deadline=None)
def test_solver_oracle_and_bounds_agree(instance):
    check_against_the_oracle(instance)


@given(instance=instances(interfering=True))
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
def test_solver_oracle_and_bounds_agree_on_interfering_cranes(instance):
    check_against_the_oracle(instance)


def check_against_the_oracle(instance: Instance) -> None:
    derived = build_derived(instance)
    try:
        estimate_combinations(instance, derived, COMBINATIONS)
    except BudgetExceeded:
        assume(False)
    oracle = brute_force(instance, derived)
    optimum = oracle.best_objective
    report, solution = solve(instance, derived, SolveParams(time_limit=60))
    assert (report.status, report.best_objective) == ("optimal", optimum)
    assert validate(instance, derived, solution) == []

    # Every draw has a location for each inbound shipment, so the root
    # propagates and the constructive schedule exists; it is the first
    # incumbent, and each later one is strictly better.
    first = constructive_schedule(instance, derived)
    assert validate(instance, derived, first) == []
    assert first.objective >= optimum
    trace = [objective for _, objective in report.incumbent_trace]
    assert trace[0] == first.objective
    assert all(a > b for a, b in zip(trace, trace[1:]))

    if in_milp_sample(instance):
        round_trip(instance, derived, optimum)

    # No node on the way to the oracle's solution is pruned without an
    # incumbent, and none has a bound above the optimum.
    for node in oracle_path(root_node(instance, derived), oracle.best_solution):
        propagated = propagate(instance, derived, node)
        assert propagated is not None
        assert lower_bound(instance, derived, propagated) <= optimum


def in_milp_sample(instance: Instance) -> bool:
    return (
        len(instance.inbound_shipments) >= 2
        and len(instance.shipments) <= 3
        and zlib.crc32(repr(instance).encode()) % MILP_EVERY == 0
    )


def oracle_path(root: SearchNode, best: Solution):
    """The root, then the nodes that add the decisions of ``best`` to it:
    its yard locations one shipment at a time, then its quay cranes, then
    each crane's sequence one shipment at a time, then its interference
    orders one tuple at a time, in key order."""
    node = root
    yield node
    for i, k in sorted(best.yard_assignment.items()):
        node = replace(node, yard_assignment={**node.yard_assignment, i: k})
        yield node
    for i, q in sorted(qc_assignment_of(best.qc_sequences).items()):
        if i not in node.qc_of:
            node = replace(node, qc_of={**node.qc_of, i: q})
            yield node
    for field in ("qc_sequences", "yc_sequences"):
        for crane, sequence in sorted(getattr(best, field).items()):
            for end in range(1, len(sequence) + 1):
                so_far = getattr(node, field)
                node = replace(node, **{field: {**so_far, crane: sequence[:end]}})
                yield node
    for key, direction in sorted(best.interference_order.items()):
        node = replace(
            node, interference_order={**node.interference_order, key: direction}
        )
        yield node
