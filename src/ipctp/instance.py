"""Problem data model: vessels, shipments, quay geometry, yard side.

An :class:`Instance` is immutable after construction and safe to share across
threads.  All times are nonnegative integers so that every downstream
computation (schedules, bounds, the exported MIP) is exact.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import partial
from itertools import chain, combinations, product
from operator import attrgetter
from typing import Mapping

from .errors import InstanceInvalid, NoEligibleCrane

INBOUND = "inbound"
OUTBOUND = "outbound"
INBOUND_AVAILABLE = "inbound-available"
OUTBOUND_FIXED = "outbound-fixed"
YARD_FIELDS = ("A", "B", "C")


_INSTANCE_INTEGERS = (
    "total_bays", "qc_count", "yc_count", "safety_distance", "qc_unit_travel",
)
_SHIPMENT_INTEGERS = (
    "id", "vessel", "bay", "containers", "qc_time", "yc_time",
    "fixed_location", "yt_outbound_time",
)
_OPTIONAL_INTEGERS = ("fixed_location", "yt_outbound_time")


def is_integer(value) -> bool:
    """True only for a plain int; a bool (an int subclass) is not a number here."""
    return type(value) is int


def canonical_dumps(payload) -> str:
    """Serialize JSON with a stable key order so equal objects give equal bytes."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@dataclass(frozen=True)
class Vessel:
    id: int
    weight: int = 1


@dataclass(frozen=True)
class Shipment:
    """A batch of containers stored in one yard block and one vessel bay."""

    id: int
    vessel: int
    direction: str
    bay: int
    containers: int
    qc_time: int
    yc_time: int
    fixed_location: int | None = None
    yt_outbound_time: int | None = None

    @property
    def is_inbound(self) -> bool:
        return self.direction == INBOUND

    @property
    def is_outbound(self) -> bool:
        return self.direction == OUTBOUND


@dataclass(frozen=True)
class YardLocation:
    id: int
    yc: int
    block_group: int
    field: str
    reserved_for: str


@dataclass(frozen=True)
class Instance:
    """Immutable problem data; construction raises InstanceInvalid on bad data."""

    vessels: tuple[Vessel, ...]
    shipments: tuple[Shipment, ...]
    total_bays: int
    qc_count: int
    yc_count: int
    yard_locations: tuple[YardLocation, ...]
    safety_distance: int
    qc_unit_travel: int
    yc_travel: tuple[tuple[int, ...], ...]
    yt_inbound_transfer: Mapping[int, int]

    def __post_init__(self) -> None:
        put = partial(object.__setattr__, self)
        put("vessels", tuple(self.vessels))
        put("shipments", tuple(self.shipments))
        put("yard_locations", tuple(self.yard_locations))
        put("yc_travel", tuple(tuple(row) for row in self.yc_travel))
        put("yt_inbound_transfer", dict(self.yt_inbound_transfer))
        self._check_integers()
        # Shipments are held in id order, whatever order they came in; every
        # view below, and each layer that walks them, inherits that order.
        ships = tuple(sorted(self.shipments, key=attrgetter("id")))
        put("shipments", ships)
        put("_vessel_by_id", {v.id: v for v in self.vessels})
        put("_shipment_by_id", {s.id: s for s in ships})
        put("_shipments_by_direction", {
            d: tuple(s for s in ships if s.direction == d) for d in (INBOUND, OUTBOUND)
        })
        put("_shipments_by_vessel", {
            v.id: tuple(s for s in ships if s.vessel == v.id) for v in self.vessels
        })
        put("_location_by_id", {k.id: k for k in self.yard_locations})
        put("_location_index", {k.id: pos for pos, k in enumerate(self.yard_locations)})
        put("_inbound_available", tuple(sorted(
            (k for k in self.yard_locations if k.reserved_for == INBOUND_AVAILABLE),
            key=attrgetter("id"),
        )))
        self._check()

    # -- lookups -------------------------------------------------------

    def vessel(self, vessel_id: int) -> Vessel:
        return self._vessel_by_id[vessel_id]

    def shipment(self, shipment_id: int) -> Shipment:
        return self._shipment_by_id[shipment_id]

    def location(self, location_id: int) -> YardLocation:
        return self._location_by_id[location_id]

    @property
    def inbound_shipments(self) -> tuple[Shipment, ...]:
        return self._shipments_by_direction[INBOUND]

    @property
    def outbound_shipments(self) -> tuple[Shipment, ...]:
        return self._shipments_by_direction[OUTBOUND]

    @property
    def inbound_available_locations(self) -> tuple[YardLocation, ...]:
        """The locations inbound shipments may take, in id order."""
        return self._inbound_available

    def shipments_of_vessel(self, vessel_id: int) -> tuple[Shipment, ...]:
        return self._shipments_by_vessel.get(vessel_id, ())

    def tyc(self, from_location: int, to_location: int) -> int:
        """Yard-crane travel time between two yard locations (by id)."""
        idx = self._location_index
        return self.yc_travel[idx[from_location]][idx[to_location]]

    def tqc(self, from_bay: int, to_bay: int) -> int:
        """Quay-crane empty travel time between two bays."""
        return self.qc_unit_travel * abs(from_bay - to_bay)

    def tt(self, location_id: int) -> int:
        """Quay-to-yard transfer time for an inbound-available location."""
        return self.yt_inbound_transfer[location_id]

    # -- validation ----------------------------------------------------

    def _check(self) -> None:
        if self.total_bays < 1:
            raise InstanceInvalid("total_bays must be positive")
        if self.qc_count < 1:
            raise InstanceInvalid("qc_count must be positive")
        if self.yc_count < 1:
            raise InstanceInvalid("yc_count must be positive")
        if self.safety_distance < 0:
            raise InstanceInvalid("safety_distance must be nonnegative")
        if self.qc_unit_travel < 0:
            raise InstanceInvalid("qc_unit_travel must be nonnegative")

        if len(self._vessel_by_id) != len(self.vessels):
            raise InstanceInvalid("duplicate vessel ids")
        for v in self.vessels:
            if v.weight <= 0:
                raise InstanceInvalid(f"vessel {v.id}: weight must be positive")

        if len(self._location_by_id) != len(self.yard_locations):
            raise InstanceInvalid("duplicate yard location ids")
        for k in self.yard_locations:
            if not 1 <= k.yc <= self.yc_count:
                raise InstanceInvalid(f"location {k.id}: unknown yard crane {k.yc}")
            if k.field not in YARD_FIELDS:
                raise InstanceInvalid(f"location {k.id}: unknown field {k.field!r}")
            if k.reserved_for not in (INBOUND_AVAILABLE, OUTBOUND_FIXED):
                raise InstanceInvalid(
                    f"location {k.id}: unknown reservation {k.reserved_for!r}"
                )

        n_locations = len(self.yard_locations)
        if len(self.yc_travel) != n_locations or any(
            len(row) != n_locations for row in self.yc_travel
        ):
            raise InstanceInvalid("yc_travel must be square over yard_locations")
        for a in range(n_locations):
            if self.yc_travel[a][a] != 0:
                raise InstanceInvalid("yc_travel diagonal must be zero")
            for b in range(n_locations):
                if self.yc_travel[a][b] < 0:
                    raise InstanceInvalid("yc_travel times must be nonnegative")
                if self.yc_travel[a][b] != self.yc_travel[b][a]:
                    raise InstanceInvalid("yc_travel must be symmetric")
        # A yard crane moves only between its own locations, and the solver's
        # crane arcs take the direct move as the quickest: no detour through
        # a third location of the crane may beat it.
        travel = self.yc_travel
        for crane in range(1, self.yc_count + 1):
            spots = [p for p, k in enumerate(self.yard_locations) if k.yc == crane]
            for a, m in product(spots, repeat=2):
                row, via = travel[a], travel[m]
                for b in spots:
                    if row[b] > row[m] + via[b]:
                        a, b, m = (self.yard_locations[p].id for p in (a, b, m))
                        raise InstanceInvalid(
                            f"yc_travel from location {a} to {b} exceeds the "
                            f"detour through {m}"
                        )

        if set(self.yt_inbound_transfer) != {k.id for k in self._inbound_available}:
            raise InstanceInvalid(
                "yt_inbound_transfer must cover exactly the inbound-available locations"
            )
        for k_id, value in self.yt_inbound_transfer.items():
            if value < 0:
                raise InstanceInvalid(f"transfer time to location {k_id} is negative")

        if len(self._shipment_by_id) != len(self.shipments):
            raise InstanceInvalid("duplicate shipment ids")
        fixed_seen: dict[int, int] = {}
        for s in self.shipments:
            if s.vessel not in self._vessel_by_id:
                raise InstanceInvalid(f"shipment {s.id}: unknown vessel {s.vessel}")
            if s.direction not in (INBOUND, OUTBOUND):
                raise InstanceInvalid(f"shipment {s.id}: unknown direction")
            if not 1 <= s.bay <= self.total_bays:
                raise InstanceInvalid(f"shipment {s.id}: bay {s.bay} outside vessel")
            if s.containers < 1:
                raise InstanceInvalid(f"shipment {s.id}: containers must be positive")
            if s.qc_time < 1 or s.yc_time < 1:
                raise InstanceInvalid(f"shipment {s.id}: handling times must be positive")
            if s.is_inbound:
                if s.fixed_location is not None or s.yt_outbound_time is not None:
                    raise InstanceInvalid(
                        f"shipment {s.id}: inbound shipments carry no fixed location"
                    )
            else:
                if s.fixed_location is None or s.yt_outbound_time is None:
                    raise InstanceInvalid(
                        f"shipment {s.id}: outbound shipments need location and travel"
                    )
                if s.yt_outbound_time < 0:
                    raise InstanceInvalid(f"shipment {s.id}: negative travel time")
                loc = self._location_by_id.get(s.fixed_location)
                if loc is None:
                    raise InstanceInvalid(
                        f"shipment {s.id}: unknown location {s.fixed_location}"
                    )
                if loc.reserved_for != OUTBOUND_FIXED:
                    raise InstanceInvalid(
                        f"shipment {s.id}: location {loc.id} is not outbound-reserved"
                    )
                if loc.id in fixed_seen:
                    raise InstanceInvalid(
                        f"location {loc.id} fixed for two outbound shipments"
                    )
                fixed_seen[loc.id] = s.id
        for k in self.yard_locations:
            if k.reserved_for == OUTBOUND_FIXED and k.id not in fixed_seen:
                raise InstanceInvalid(
                    f"outbound location {k.id} is referenced by no shipment"
                )

    def _check_integers(self) -> None:
        """Every number is an int (not a bool), so all arithmetic stays exact."""
        for label, items, names in (
            ("", (self,), _INSTANCE_INTEGERS),
            ("vessel", self.vessels, ("id", "weight")),
            ("shipment", self.shipments, _SHIPMENT_INTEGERS),
            ("location", self.yard_locations, ("id", "yc", "block_group")),
        ):
            for item in items:
                for name in names:
                    value = getattr(item, name)
                    if is_integer(value) or (
                        value is None and name in _OPTIONAL_INTEGERS
                    ):
                        continue
                    what = f"{label} {item.id!r} {name}" if label else name
                    raise InstanceInvalid(f"{what} must be an integer, got {value!r}")
        for what, values in (
            ("transfer time", self.yt_inbound_transfer.values()),
            ("yc_travel entry", chain.from_iterable(self.yc_travel)),
        ):
            values = list(values)
            # Types first: the travel matrix holds thousands of entries.
            if set(map(type, values)) - {int}:
                bad = next(v for v in values if not is_integer(v))
                raise InstanceInvalid(f"{what} must be an integer, got {bad!r}")


# -- quay geometry -----------------------------------------------------


def eligible_qcs(bay: int, total_bays: int, qc_count: int, safety_distance: int) -> frozenset[int]:
    """Quay cranes that can stand at ``bay`` while the others keep clear.

    Crane q has q-1 cranes pinned on its left and qc_count-q on its right;
    neighbours on the shared rail cannot cross and must stay at least
    safety_distance+1 bays apart, which pins q to a window of bays.
    """
    if not 1 <= bay <= total_bays:
        raise InstanceInvalid(f"bay {bay} outside [1, {total_bays}]")
    if qc_count < 1:
        raise InstanceInvalid("qc_count must be positive")
    spacing = safety_distance + 1
    cranes = frozenset(
        q
        for q in range(1, qc_count + 1)
        if (q - 1) * spacing + 1 <= bay <= total_bays - (qc_count - q) * spacing
    )
    if not cranes:
        raise NoEligibleCrane(
            f"no quay crane can service bay {bay} "
            f"(bays={total_bays}, cranes={qc_count}, safety={safety_distance})"
        )
    return cranes


def crane_min_distance(crane_v: int, crane_w: int, safety_distance: int) -> int:
    """Smallest allowed bay gap between two cranes on the shared rail."""
    return (safety_distance + 1) * abs(crane_v - crane_w)


def bay_interference_time(
    bay_i: int,
    bay_j: int,
    crane_v: int,
    crane_w: int,
    safety_distance: int,
    qc_unit_travel: int,
) -> int:
    """Minimum start separation for two distinct shipments on cranes v and w.

    When the shipments' bays leave the cranes closer than their minimum gap,
    the first crane must travel to a safe bay before the second may start;
    the returned value is that travel time, and 0 means no interference.
    """
    if crane_v == crane_w:
        return 0
    gap = crane_min_distance(crane_v, crane_w, safety_distance)
    if crane_v < crane_w and bay_i > bay_j - gap:
        return (bay_i - bay_j + gap) * qc_unit_travel
    if crane_v > crane_w and bay_i < bay_j + gap:
        return (bay_j - bay_i + gap) * qc_unit_travel
    return 0


# -- derived tables ----------------------------------------------------


@dataclass(frozen=True)
class DerivedTables:
    """Precomputed eligibility, interference and task numbering."""

    # Each shipment's eligible quay cranes, in id order.
    eligible_qcs: Mapping[int, tuple[int, ...]]
    # The separation of each interference tuple (i, j, v, w) with i < j: an
    # ordering of the pair in either direction needs the same one.
    interference_time: Mapping[tuple[int, int, int, int], int]
    # The keys of ``interference_time``, in sorted order.
    interference_set: tuple[tuple[int, int, int, int], ...]
    # The task numbering: each shipment's quay task is ``2 * rank``, where
    # rank is its position by id, and its yard task the one after it.  Add a
    # crane kind (QUAY = 0, YARD = 1 in ``schedule``) to get that kind's task.
    quay_task: Mapping[int, int]
    # Per interference tuple (i, j, v, w) of ``interference_set``: the arc
    # ``(u, v, min_gap)`` that ordering i first adds, then the one that
    # ordering j first adds.  Each runs from the first shipment's quay task
    # to the second's and waits for the first's quay work plus the tuple's
    # interference time.
    separation_arcs: Mapping[
        tuple[int, int, int, int], tuple[tuple[int, int, int], tuple[int, int, int]]
    ]


def build_derived(instance: Instance) -> DerivedTables:
    """Populate every derived table; rejects instances with unreachable bays."""
    ships = instance.shipments
    eligible = {
        s.id: tuple(sorted(eligible_qcs(
            s.bay, instance.total_bays, instance.qc_count, instance.safety_distance
        )))
        for s in ships
    }

    # Keys come in sorted order: shipments and cranes are walked by id.
    interference: dict[tuple[int, int, int, int], int] = {}
    for a, b in combinations(ships, 2):
        for v in eligible[a.id]:
            for w in eligible[b.id]:
                t = bay_interference_time(
                    a.bay,
                    b.bay,
                    v,
                    w,
                    instance.safety_distance,
                    instance.qc_unit_travel,
                )
                if t > 0:
                    interference[(a.id, b.id, v, w)] = t

    quay_task = {s.id: 2 * rank for rank, s in enumerate(ships)}
    separation = {}
    for key in interference:
        i, j = key[:2]
        separation[key] = tuple(
            (quay_task[a], quay_task[b], instance.shipment(a).qc_time + interference[key])
            for a, b in ((i, j), (j, i))
        )

    return DerivedTables(
        eligible_qcs=eligible,
        interference_time=interference,
        interference_set=tuple(interference),
        quay_task=quay_task,
        separation_arcs=separation,
    )


# -- canonical instance file format -------------------------------------


def instance_to_payload(instance: Instance) -> dict:
    """Instance as a plain JSON-ready dictionary (canonical file format)."""
    tt_vector = [
        instance.yt_inbound_transfer.get(k.id, 0) for k in instance.yard_locations
    ]
    return {
        "vessels": [asdict(v) for v in instance.vessels],
        # An inbound shipment's outbound-only fields are None and left out.
        "shipments": [
            {name: value for name, value in asdict(s).items() if value is not None}
            for s in instance.shipments
        ],
        "yard_locations": [asdict(k) for k in instance.yard_locations],
        "geometry": {
            "B_T": instance.total_bays,
            "QC_T": instance.qc_count,
            "yc_count": instance.yc_count,
            "delta": instance.safety_distance,
            "s_qc": instance.qc_unit_travel,
        },
        "travel": {
            "tyc": [list(row) for row in instance.yc_travel],
            "tt": tt_vector,
        },
    }


def instance_from_payload(payload: Mapping) -> Instance:
    """Build (and validate) an Instance from the canonical dictionary form."""
    try:
        geometry = payload["geometry"]
        travel = payload["travel"]
        locations = tuple(
            YardLocation(
                id=k["id"],
                yc=k["yc"],
                block_group=k["block_group"],
                field=k["field"],
                reserved_for=k["reserved_for"],
            )
            for k in payload["yard_locations"]
        )
        tt_vector = travel["tt"]
        if len(tt_vector) != len(locations):
            raise InstanceInvalid(
                f"travel.tt has {len(tt_vector)} entries for "
                f"{len(locations)} yard locations"
            )
        transfer = {}
        for k, value in zip(locations, tt_vector):
            if k.reserved_for == INBOUND_AVAILABLE:
                transfer[k.id] = value
            elif not is_integer(value):  # an unused slot is still a number
                raise InstanceInvalid(
                    f"transfer time must be an integer, got {value!r}"
                )
        return Instance(
            vessels=tuple(
                Vessel(id=v["id"], weight=v["weight"]) for v in payload["vessels"]
            ),
            shipments=tuple(
                Shipment(
                    id=s["id"],
                    vessel=s["vessel"],
                    direction=s["direction"],
                    bay=s["bay"],
                    containers=s["containers"],
                    qc_time=s["qc_time"],
                    yc_time=s["yc_time"],
                    fixed_location=s.get("fixed_location"),
                    yt_outbound_time=s.get("yt_outbound_time"),
                )
                for s in payload["shipments"]
            ),
            total_bays=geometry["B_T"],
            qc_count=geometry["QC_T"],
            yc_count=geometry["yc_count"],
            yard_locations=locations,
            safety_distance=geometry["delta"],
            qc_unit_travel=geometry["s_qc"],
            yc_travel=tuple(tuple(row) for row in travel["tyc"]),
            yt_inbound_transfer=transfer,
        )
    except (KeyError, IndexError, TypeError) as exc:
        raise InstanceInvalid(f"malformed instance file: {exc}") from exc


def instance_to_json(instance: Instance) -> str:
    return canonical_dumps(instance_to_payload(instance))


def instance_from_json(text: str) -> Instance:
    return instance_from_payload(json.loads(text))


def read_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as handle:
        return instance_from_payload(json.load(handle))


def write_instance(path, instance: Instance) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(instance_to_json(instance))
