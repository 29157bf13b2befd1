#!/usr/bin/env python3
# Discrete decisions (where, which crane, what order) determine the whole
# timetable: start times are the longest paths through the precedence graph,
# which makes them as early as possible.  The validator checks every
# constraint family and names what a broken timetable violates.

from dataclasses import replace

from ipctp import Decisions, build_derived, compute_schedule, objective_of, validate
from ipctp.gantt import render_text
from ipctp.generator import GenConfig, generate

instance = generate(
    GenConfig(ul_ratio=2, bays=4, shipments=4, inbound_ratio=0.5, seed=42)
)
derived = build_derived(instance)

inbound = sorted(s.id for s in instance.inbound_shipments)
locations = sorted(k.id for k in instance.inbound_available_locations)
print(f"{len(instance.shipments)} shipments, inbound {inbound}, "
      f"candidate locations {locations}")

# Assign inbound shipments to the first locations, run each crane in id
# order, and let the conflict pairs run lowest id first.
yard = dict(zip(inbound, locations))
qc_assignment = {
    s.id: min(derived.eligible_qcs[s.id]) for s in instance.shipments
}
qc_sequences = {
    q: tuple(i for i in sorted(qc_assignment) if qc_assignment[i] == q)
    for q in range(1, instance.qc_count + 1)
}
yc_of = {
    s.id: instance.location(
        s.fixed_location if s.is_outbound else yard[s.id]
    ).yc
    for s in instance.shipments
}
yc_sequences = {
    c: tuple(i for i in sorted(yc_of) if yc_of[i] == c)
    for c in range(1, instance.yc_count + 1)
}
order = {
    key: "i_first"
    for key in derived.interference_set
    if qc_assignment[key[0]] == key[2] and qc_assignment[key[1]] == key[3]
}

decisions = Decisions(
    yard_assignment=yard,
    qc_sequences=qc_sequences,
    yc_sequences=yc_sequences,
    interference_order=order,
)
solution = compute_schedule(instance, derived, decisions)
print(f"\nweighted completion time: {solution.objective}")
print(render_text(instance, solution))

print(f"violations on the computed schedule: {validate(instance, derived, solution)}")

# Pull one quay start a single unit earlier: minimality means something
# must break, and the validator says exactly what.
victim = qc_sequences[1][-1]
starts = dict(solution.qc_start)
starts[victim] -= 1
broken = replace(solution, qc_start=starts)
broken = replace(broken, objective=objective_of(instance, broken))
print(f"after starting shipment {victim} one unit earlier:")
for violation in validate(instance, derived, broken):
    print(f"  {violation}")
