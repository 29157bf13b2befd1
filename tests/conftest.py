"""Shared instance builders and decision helpers for the test suite."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from ipctp.generator import GenConfig, grid_entry
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
from ipctp.schedule import Decisions, I_FIRST, J_FIRST, Solution, active_interference
from ipctp.solver import _Engine


class TickingClock:
    """A stand-in for the ``time`` module whose clock advances by one on
    every reading, so a time limit counts clock readings."""

    def __init__(self):
        self.now = 0

    def monotonic(self) -> float:
        self.now += 1
        return self.now


def random_instance(shipments, ratio, bays, seed, ul=2, replicate=0) -> Instance:
    """One replicate of a generator configuration, sub-seeded from ``seed``."""
    config = GenConfig(ul_ratio=ul, bays=bays, shipments=shipments, inbound_ratio=ratio)
    return grid_entry(seed, config, replicate).instance


def single_outbound_instance() -> Instance:
    """One outbound shipment, one crane of each kind, zero empty travel."""
    return Instance(
        vessels=(Vessel(1, 1),),
        shipments=(
            Shipment(
                id=1,
                vessel=1,
                direction=OUTBOUND,
                bay=1,
                containers=2,
                qc_time=8,
                yc_time=10,
                fixed_location=1,
                yt_outbound_time=5,
            ),
        ),
        total_bays=2,
        qc_count=1,
        yc_count=1,
        yard_locations=(YardLocation(1, 1, 1, "C", OUTBOUND_FIXED),),
        safety_distance=1,
        qc_unit_travel=3,
        yc_travel=((0,),),
        yt_inbound_transfer={},
    )


def single_inbound_instance(tt: int = 5, locations: int = 1) -> Instance:
    """One inbound shipment with one or more candidate yard locations."""
    yard = tuple(
        YardLocation(k, 1, k, "C", INBOUND_AVAILABLE) for k in range(1, locations + 1)
    )
    travel = tuple(
        tuple(0 if a == b else 1 for b in range(locations)) for a in range(locations)
    )
    return Instance(
        vessels=(Vessel(1, 1),),
        shipments=(
            Shipment(
                id=1,
                vessel=1,
                direction=INBOUND,
                bay=1,
                containers=2,
                qc_time=8,
                yc_time=10,
            ),
        ),
        total_bays=2,
        qc_count=1,
        yc_count=1,
        yard_locations=yard,
        safety_distance=1,
        qc_unit_travel=3,
        yc_travel=travel,
        yt_inbound_transfer={k: tt + 2 * (k - 1) for k in range(1, locations + 1)},
    )


def constructive_schedule(instance: Instance, derived) -> Solution | None:
    """The schedule a solve offers before its root, if it has one."""
    engine = _Engine(instance, derived)
    return engine.constructive(engine.facts(engine.root()))


def overfull_yard_instance() -> Instance:
    """Two inbound shipments but a single inbound-available location: no
    yard assignment exists, so the decision space is empty."""
    base = single_inbound_instance()
    second = Shipment(id=2, vessel=1, direction=INBOUND, bay=2, containers=2,
                      qc_time=6, yc_time=6)
    return replace(base, shipments=(*base.shipments, second))


def shared_yard_crane_instance() -> Instance:
    """Two inbound shipments whose two free locations, 9 apart, are the one
    yard crane's: its empty travel between them sets the optimum, 13, which
    would be 4 without it."""
    return Instance(
        vessels=(Vessel(1, 1),),
        shipments=tuple(
            Shipment(id=i, vessel=1, direction=INBOUND, bay=1, containers=1,
                     qc_time=1, yc_time=1)
            for i in (1, 2)
        ),
        total_bays=1,
        qc_count=1,
        yc_count=1,
        yard_locations=tuple(
            YardLocation(k, 1, 1, "C", INBOUND_AVAILABLE) for k in (1, 2)
        ),
        safety_distance=1,
        qc_unit_travel=0,
        yc_travel=((0, 9), (9, 0)),
        yt_inbound_transfer={1: 1, 2: 1},
    )


def yard_crane_trip_instance(inbound_weight: int) -> Instance:
    """Inbound shipment 1 of vessel 1, weighing ``inbound_weight``, and
    outbound shipment 2 of vessel 2 share the one yard crane, whose two
    locations are 9 apart.  At weight 10 the crane serves 1 first and the
    optimum, 45, charges its trip from 1's location to 2's (36 without it);
    at weight 1 it serves 2 first and the optimum, 14, charges the trip
    back (6 without it)."""
    return Instance(
        vessels=(Vessel(1, inbound_weight), Vessel(2, 1)),
        shipments=(
            Shipment(id=1, vessel=1, direction=INBOUND, bay=1, containers=1,
                     qc_time=1, yc_time=1),
            Shipment(id=2, vessel=2, direction=OUTBOUND, bay=1, containers=1,
                     qc_time=1, yc_time=1, fixed_location=2, yt_outbound_time=1),
        ),
        total_bays=1,
        qc_count=1,
        yc_count=1,
        yard_locations=(
            YardLocation(1, 1, 1, "C", INBOUND_AVAILABLE),
            YardLocation(2, 1, 1, "C", OUTBOUND_FIXED),
        ),
        safety_distance=1,
        qc_unit_travel=0,
        yc_travel=((0, 9), (9, 0)),
        yt_inbound_transfer={1: 1},
    )


def interference_pair_instance() -> Instance:
    """Two inbound shipments on separate cranes with a single active conflict.

    Bays 5 and 4 with safety distance 1 give a start separation of 9 time
    units when shipment 1 runs on crane 1 and shipment 2 on crane 2.
    """
    return Instance(
        vessels=(Vessel(1, 1),),
        shipments=(
            Shipment(
                id=1, vessel=1, direction=INBOUND, bay=5, containers=2,
                qc_time=4, yc_time=6,
            ),
            Shipment(
                id=2, vessel=1, direction=INBOUND, bay=4, containers=2,
                qc_time=6, yc_time=6,
            ),
        ),
        total_bays=8,
        qc_count=2,
        yc_count=2,
        yard_locations=(
            YardLocation(1, 1, 1, "C", INBOUND_AVAILABLE),
            YardLocation(2, 2, 1, "C", INBOUND_AVAILABLE),
        ),
        safety_distance=1,
        qc_unit_travel=3,
        yc_travel=((0, 2), (2, 0)),
        yt_inbound_transfer={1: 2, 2: 2},
    )


def interference_pair_decisions(order: str = I_FIRST) -> Decisions:
    return Decisions(
        yard_assignment={1: 1, 2: 2},
        qc_sequences={1: (1,), 2: (2,)},
        yc_sequences={1: (1,), 2: (2,)},
        interference_order={(1, 2, 1, 2): order},
    )


def detour_payload() -> dict:
    """An instance file whose yard travel breaks the triangle inequality.

    Three outbound shipments share one crane of each kind; every time is 1
    and quay travel is free.  Locations 2 and 3 are 2 apart, but 0 through
    location 1, so the yard crane's best order is 2, 1, 3 (objective 4).
    """
    return {
        "vessels": [{"id": 1, "weight": 1}],
        "shipments": [
            {"id": i, "vessel": 1, "direction": OUTBOUND, "bay": 1, "containers": 1,
             "qc_time": 1, "yc_time": 1, "fixed_location": i, "yt_outbound_time": 0}
            for i in (1, 2, 3)
        ],
        "yard_locations": [
            {"id": k, "yc": 1, "block_group": 1, "field": "A",
             "reserved_for": OUTBOUND_FIXED}
            for k in (1, 2, 3)
        ],
        "geometry": {"B_T": 1, "QC_T": 1, "yc_count": 1, "delta": 1, "s_qc": 0},
        "travel": {"tyc": [[0, 0, 0], [0, 0, 2], [0, 2, 0]], "tt": [0, 0, 0]},
    }


def mixed_instance() -> Instance:
    """Four shipments, two cranes of each kind, a rich interference set."""
    return Instance(
        vessels=(Vessel(1, 1),),
        shipments=(
            Shipment(id=1, vessel=1, direction=INBOUND, bay=4, containers=2,
                     qc_time=8, yc_time=10),
            Shipment(id=2, vessel=1, direction=OUTBOUND, bay=5, containers=2,
                     qc_time=6, yc_time=4, fixed_location=4, yt_outbound_time=5),
            Shipment(id=3, vessel=1, direction=OUTBOUND, bay=1, containers=2,
                     qc_time=7, yc_time=9, fixed_location=5, yt_outbound_time=6),
            Shipment(id=4, vessel=1, direction=INBOUND, bay=6, containers=2,
                     qc_time=9, yc_time=6),
        ),
        total_bays=8,
        qc_count=2,
        yc_count=2,
        yard_locations=(
            YardLocation(1, 1, 1, "C", INBOUND_AVAILABLE),
            YardLocation(2, 1, 2, "C", INBOUND_AVAILABLE),
            YardLocation(3, 2, 1, "A", INBOUND_AVAILABLE),
            YardLocation(4, 2, 1, "A", OUTBOUND_FIXED),
            YardLocation(5, 1, 1, "C", OUTBOUND_FIXED),
        ),
        safety_distance=1,
        qc_unit_travel=3,
        yc_travel=(
            (0, 1, 4, 4, 0),
            (1, 0, 4, 4, 1),
            (4, 4, 0, 0, 4),
            (4, 4, 0, 0, 4),
            (0, 1, 4, 4, 0),
        ),
        yt_inbound_transfer={1: 5, 2: 6, 3: 9},
    )


def mixed_decisions() -> Decisions:
    return Decisions(
        yard_assignment={1: 1, 4: 2},
        qc_sequences={1: (3, 1), 2: (2, 4)},
        yc_sequences={1: (3, 1, 4), 2: (2,)},
        interference_order={(1, 2, 1, 2): J_FIRST},
    )


def random_decisions(instance: Instance, derived, rng: random.Random) -> Decisions:
    """Structurally valid, acyclic decisions drawn from a seeded generator."""
    inbound = sorted(s.id for s in instance.inbound_shipments)
    available = sorted(k.id for k in instance.inbound_available_locations)
    yard = dict(zip(inbound, rng.sample(available, len(inbound))))
    ship_ids = sorted(s.id for s in instance.shipments)
    qc_assignment = {
        i: rng.choice(sorted(derived.eligible_qcs[i])) for i in ship_ids
    }
    priority = list(ship_ids)
    rng.shuffle(priority)
    rank = {ship: pos for pos, ship in enumerate(priority)}

    qc_sequences = {
        q: tuple(
            sorted((i for i in ship_ids if qc_assignment[i] == q), key=rank.get)
        )
        for q in range(1, instance.qc_count + 1)
    }
    yc_of = {}
    for ship in instance.shipments:
        location = (
            ship.fixed_location if ship.is_outbound else yard[ship.id]
        )
        yc_of[ship.id] = instance.location(location).yc
    yc_sequences = {
        c: tuple(sorted((i for i in ship_ids if yc_of[i] == c), key=rank.get))
        for c in range(1, instance.yc_count + 1)
    }
    order = {
        key: (I_FIRST if rank[key[0]] < rank[key[1]] else J_FIRST)
        for key in active_interference(derived, qc_assignment)
    }
    return Decisions(
        yard_assignment=yard,
        qc_sequences=qc_sequences,
        yc_sequences=yc_sequences,
        interference_order=order,
    )


@pytest.fixture
def mixed() -> tuple[Instance, object]:
    instance = mixed_instance()
    return instance, build_derived(instance)


def wide_eligibility_instance(rng: random.Random, shipments: int = 3) -> Instance:
    """Random instance whose middle bays are reachable by several cranes.

    Eight bays with two cranes leave bays 3 to 6 shared, so crane choice,
    interference-tuple activation and crane-assignment branching are all
    exercised (the grid generator's geometry keeps eligibility singleton).
    """
    inbound_count = max(1, shipments // 2)
    locations = []
    travel_groups = []
    for k in range(1, 2 * inbound_count + 1):
        yc = 1 + (k - 1) % 2
        group = 1 + (k - 1) // 2 % 2
        locations.append(YardLocation(k, yc, group, "C", INBOUND_AVAILABLE))
        travel_groups.append((yc, group))
    ships = []
    next_location = 2 * inbound_count + 1
    for ship_id in range(1, shipments + 1):
        body = dict(
            id=ship_id,
            vessel=1,
            bay=rng.randint(1, 8),
            containers=rng.randint(2, 6),
            qc_time=rng.randint(3, 12),
            yc_time=rng.randint(3, 12),
        )
        if ship_id <= inbound_count:
            ships.append(Shipment(direction=INBOUND, **body))
        else:
            yc = rng.randint(1, 2)
            group = rng.randint(1, 2)
            locations.append(
                YardLocation(next_location, yc, group, "A", OUTBOUND_FIXED)
            )
            travel_groups.append((yc, group))
            ships.append(
                Shipment(
                    direction=OUTBOUND,
                    fixed_location=next_location,
                    yt_outbound_time=rng.randint(3, 8),
                    **body,
                )
            )
            next_location += 1
    size = len(locations)

    def dist(a, b):
        if a == b:
            return 0
        (yc_a, group_a), (yc_b, group_b) = travel_groups[a], travel_groups[b]
        if yc_a == yc_b:
            return 0 if group_a == group_b else 1
        return 3

    return Instance(
        vessels=(Vessel(1, 1),),
        shipments=tuple(ships),
        total_bays=8,
        qc_count=2,
        yc_count=2,
        yard_locations=tuple(locations),
        safety_distance=1,
        qc_unit_travel=3,
        yc_travel=tuple(tuple(dist(a, b) for b in range(size)) for a in range(size)),
        yt_inbound_transfer={
            k.id: rng.randint(4, 9)
            for k in locations
            if k.reserved_for == INBOUND_AVAILABLE
        },
    )
