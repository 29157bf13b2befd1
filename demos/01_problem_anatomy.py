#!/usr/bin/env python3
# A guided tour of the problem data: a berthed vessel holds container
# shipments in bays; quay cranes on a shared rail serve the bays subject to
# safety spacing; inbound shipments need a yard location, outbound ones
# already have one.  This script builds a small instance by hand and prints
# every derived quantity the solver later relies on.

from ipctp import (
    Instance,
    Shipment,
    Vessel,
    YardLocation,
    bay_interference_time,
    build_derived,
    crane_min_distance,
    eligible_qcs,
)

# ---------------------------------------------------------------------------
# Quay geometry.  Nine bays, three cranes, one bay of safety distance.
# Cranes cannot cross, so each crane only reaches a window of bays.
# ---------------------------------------------------------------------------
print("Eligibility windows (9 bays, 3 cranes, safety distance 1):")
for bay in range(1, 10):
    cranes = sorted(eligible_qcs(bay, total_bays=9, qc_count=3, safety_distance=1))
    print(f"  bay {bay}: cranes {cranes}")

print("\nMinimum bay gap between cranes:")
for v, w in ((1, 2), (1, 3), (2, 3)):
    print(f"  cranes {v} and {w}: {crane_min_distance(v, w, safety_distance=1)} bays")

# ---------------------------------------------------------------------------
# Interference.  Two shipments in nearby bays on different cranes force a
# start-time separation: the first crane must travel clear before the second
# may begin.  Moving one bay takes 3 time units here.
# ---------------------------------------------------------------------------
print("\nStart separation for shipments in bays 5 and 4:")
for v, w in ((1, 2), (2, 1)):
    sep = bay_interference_time(5, 4, v, w, safety_distance=1, qc_unit_travel=3)
    print(f"  first on crane {v}, second on crane {w}: {sep} time units")

# ---------------------------------------------------------------------------
# A complete instance: one vessel, two shipments, a two-crane yard.
# ---------------------------------------------------------------------------
instance = Instance(
    vessels=(Vessel(id=1, weight=1),),
    shipments=(
        Shipment(id=1, vessel=1, direction="inbound", bay=4, containers=10,
                 qc_time=30, yc_time=40),
        Shipment(id=2, vessel=1, direction="outbound", bay=5, containers=8,
                 qc_time=24, yc_time=16, fixed_location=3, yt_outbound_time=7),
    ),
    total_bays=8,
    qc_count=2,
    yc_count=2,
    yard_locations=(
        YardLocation(id=1, yc=1, block_group=1, field="C",
                     reserved_for="inbound-available"),
        YardLocation(id=2, yc=2, block_group=1, field="A",
                     reserved_for="inbound-available"),
        YardLocation(id=3, yc=2, block_group=2, field="A",
                     reserved_for="outbound-fixed"),
    ),
    safety_distance=1,
    qc_unit_travel=3,
    yc_travel=((0, 3, 3), (3, 0, 1), (3, 1, 0)),
    yt_inbound_transfer={1: 5, 2: 9},
)

derived = build_derived(instance)
print("\nDerived tables for the two-shipment instance:")
print(f"  eligible cranes: { {i: sorted(q) for i, q in derived.eligible_qcs.items()} }")
print(f"  conflict set:    {list(derived.interference_set)}")
for key in derived.interference_set:
    print(f"    tuple {key} needs separation {derived.interference_time[key]}")
bays = (instance.shipment(1).bay, instance.shipment(2).bay)
print(f"  empty quay travel from bay {bays[0]} to {bays[1]}: {instance.tqc(*bays)}")
