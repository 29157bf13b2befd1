"""Mixed-integer export of the full scheduling model in CPLEX LP format.

The emitted file encodes the whole feasible set (assignment, successor
chains with dummy start/end shipments, big-M timing, interference
disjunctions, and the linearized inbound-pair empty-travel terms) so any
external MILP engine can solve it.  The artifacts returned alongside the
text allow a solution vector to be parsed back into a validated Solution,
and a Solution to be injected as a point satisfying every row.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, NamedTuple

from .errors import MalformedSolution
from .instance import DerivedTables, Instance, canonical_dumps
# Row families the validator reports too are defined once, in schedule.
from .schedule import (
    I_FIRST,
    INBOUND_PRECEDENCE,
    INTERFERENCE_SEPARATION,
    J_FIRST,
    LOCATION_ASSIGNMENT,
    LOCATION_CAPACITY,
    OUTBOUND_PRECEDENCE,
    QC_ELIGIBILITY,
    QC_SEQUENCE_TIMING,
    YC_MEMBERSHIP_INBOUND,
    YC_MEMBERSHIP_OUTBOUND,
    YC_SEQUENCE_TIMING_AFTER_INBOUND,
    YC_SEQUENCE_TIMING_BETWEEN_OUTBOUND,
    YC_SEQUENCE_TIMING_OUTBOUND_TO_INBOUND,
    Solution,
    active_interference,
    objective_of,
    qc_assignment_of,
    vessel_completions,
)

COMPLETION_OUTBOUND = "completion_outbound"
COMPLETION_INBOUND = "completion_inbound"
QC_CHAIN_START = "qc_chain_start"
YC_CHAIN_START = "yc_chain_start"
QC_CHAIN_END = "qc_chain_end"
YC_CHAIN_END = "yc_chain_end"
QC_FLOW = "qc_flow"
YC_FLOW = "yc_flow"
YT_TRANSFER = "yt_transfer"
YC_EMPTY_TO_OUTBOUND = "yc_empty_to_outbound"
YC_EMPTY_BETWEEN_INBOUND = "yc_empty_between_inbound"
YC_EMPTY_LINEARIZATION = "yc_empty_linearization"
YC_EMPTY_FROM_OUTBOUND = "yc_empty_from_outbound"
QC_DISJUNCTION = "qc_disjunction"
INTERFERENCE_DISJUNCTION = "interference_disjunction"

ALL_FAMILIES = (
    COMPLETION_OUTBOUND,
    COMPLETION_INBOUND,
    LOCATION_CAPACITY,
    LOCATION_ASSIGNMENT,
    QC_CHAIN_START,
    YC_CHAIN_START,
    QC_CHAIN_END,
    YC_CHAIN_END,
    QC_ELIGIBILITY,
    YC_MEMBERSHIP_INBOUND,
    YC_MEMBERSHIP_OUTBOUND,
    QC_FLOW,
    YC_FLOW,
    YT_TRANSFER,
    YC_EMPTY_TO_OUTBOUND,
    YC_EMPTY_BETWEEN_INBOUND,
    YC_EMPTY_LINEARIZATION,
    YC_EMPTY_FROM_OUTBOUND,
    QC_SEQUENCE_TIMING,
    YC_SEQUENCE_TIMING_AFTER_INBOUND,
    YC_SEQUENCE_TIMING_OUTBOUND_TO_INBOUND,
    YC_SEQUENCE_TIMING_BETWEEN_OUTBOUND,
    OUTBOUND_PRECEDENCE,
    INBOUND_PRECEDENCE,
    QC_DISJUNCTION,
    INTERFERENCE_DISJUNCTION,
    INTERFERENCE_SEPARATION,
)


class _Chain(NamedTuple):
    """How the successor chains of one crane kind appear in the model."""

    arc: str  # successor variables are named f"{arc}_{i}_{j}_{crane}"
    # Families of the chain start, chain end and flow rows.
    start: str
    end: str
    flow: str


# Crane kinds, quay cranes first; the kind also prefixes each row name.
_CHAINS = {
    "qc": _Chain("z", QC_CHAIN_START, QC_CHAIN_END, QC_FLOW),
    "yc": _Chain("v", YC_CHAIN_START, YC_CHAIN_END, YC_FLOW),
}


@dataclass(frozen=True)
class Row:
    name: str
    coeffs: Mapping[str, int]
    sense: str  # "<=", ">=", "="
    rhs: int
    family: str


@dataclass(frozen=True)
class MipArtifacts:
    variables: Mapping[str, dict]
    rows: tuple[Row, ...]
    objective: Mapping[str, int]
    big_m: int
    dummy_start: int
    dummy_end: int
    row_counts: Mapping[str, int]

    def mapping_payload(self) -> dict:
        return {
            "variables": {name: info for name, info in sorted(self.variables.items())},
            "big_m": self.big_m,
            "dummy_start": self.dummy_start,
            "dummy_end": self.dummy_end,
            "row_families": dict(sorted(self.row_counts.items())),
        }


def default_big_m(instance: Instance, derived: DerivedTables) -> int:
    """A provably sufficient scheduling horizon used as the big-M constant."""
    total = 0
    for s in instance.shipments:
        transfer = (
            s.yt_outbound_time
            if s.is_outbound
            else max(instance.yt_inbound_transfer.values(), default=0)
        )
        total += s.qc_time + s.yc_time + transfer
    eqc_max = instance.qc_unit_travel * (instance.total_bays - 1)
    eyc_max = max((max(row) for row in instance.yc_travel), default=0)
    delta_max = max(derived.interference_time.values(), default=0)
    return total + len(instance.shipments) * (eqc_max + eyc_max + delta_max) + 1


class _Builder:
    def __init__(self, instance: Instance, derived: DerivedTables):
        self.instance = instance
        self.derived = derived
        self.big_m = default_big_m(instance, derived)
        self.ships = sorted(instance.shipments, key=lambda s: s.id)
        self.ship_ids = [s.id for s in self.ships]
        self.inbound = [s.id for s in self.ships if s.is_inbound]
        self.outbound = [s.id for s in self.ships if s.is_outbound]
        self.available = sorted(k.id for k in instance.inbound_available_locations)
        self.dummy_start = 0
        self.dummy_end = max(self.ship_ids, default=0) + 1
        self.variables: dict[str, dict] = {}
        self.rows: list[Row] = []
        inbound_ycs = sorted({instance.location(k).yc for k in self.available})
        # Per crane kind: each shipment's possible cranes, and each crane's
        # possible shipments in id order.
        self.cranes_of = {
            "qc": {i: sorted(derived.eligible_qcs[i]) for i in self.ship_ids},
            "yc": {
                s.id: (
                    inbound_ycs
                    if s.is_inbound
                    else [instance.location(s.fixed_location).yc]
                )
                for s in self.ships
            },
        }
        crane_count = {"qc": instance.qc_count, "yc": instance.yc_count}
        self.members = {
            kind: {
                c: [i for i in self.ship_ids if c in cranes[i]]
                for c in range(1, crane_count[kind] + 1)
            }
            for kind, cranes in self.cranes_of.items()
        }
        # Every crane's chain as (kind, crane), quay cranes first.
        self.chains = [(kind, c) for kind in _CHAINS for c in self.members[kind]]

    # -- variables --------------------------------------------------------

    def var(self, name: str, kind: str, binary: bool, **indices) -> str:
        if name not in self.variables:
            self.variables[name] = {"kind": kind, "binary": binary, **indices}
        return name

    def x(self, i: int, k: int) -> str:
        return self.var(f"x_{i}_{k}", "yard_assignment", True, shipment=i, location=k)

    def arc(self, kind: str, i: int, j: int, c: int) -> str:
        """Successor variable: crane c of the kind handles j right after i."""
        return self.var(
            f"{_CHAINS[kind].arc}_{i}_{j}_{c}",
            f"{kind}_successor",
            True,
            predecessor=i,
            successor=j,
            crane=c,
        )

    def into(self, kind: str, i: int, c: int) -> dict[str, int]:
        """Unit coefficients of the arcs entering i on crane c of the kind."""
        return {
            self.arc(kind, j, i, c): 1
            for j in [self.dummy_start] + self.members[kind][c]
            if j != i
        }

    def out_of(self, kind: str, i: int, c: int) -> dict[str, int]:
        """Unit coefficients of the arcs leaving i on crane c of the kind."""
        return {
            self.arc(kind, i, j, c): 1
            for j in self.members[kind][c] + [self.dummy_end]
            if j != i
        }

    def qz(self, i: int, j: int) -> str:
        return self.var(f"qz_{i}_{j}", "qc_ordering", True, before=i, after=j)

    def theta(self, i: int, k: int, j: int, l: int) -> str:
        return self.var(
            f"th_{i}_{k}_{j}_{l}",
            "pair_placement",
            True,
            shipment_a=i,
            location_a=k,
            shipment_b=j,
            location_b=l,
        )

    def sqc(self, i: int) -> str:
        return self.var(f"sqc_{i}", "qc_start", False, shipment=i)

    def syc(self, i: int) -> str:
        return self.var(f"syc_{i}", "yc_start", False, shipment=i)

    def t(self, i: int) -> str:
        return self.var(f"t_{i}", "yt_transfer", False, shipment=i)

    def sy(self, i: int, j: int) -> str:
        return self.var(f"sy_{i}_{j}", "yc_empty", False, from_shipment=i, to_shipment=j)

    def cmax(self, s: int) -> str:
        return self.var(f"cmax_{s}", "vessel_completion", False, vessel=s)

    def row(self, name, coeffs, sense, rhs, family) -> None:
        self.rows.append(Row(name, dict(coeffs), sense, rhs, family))

    def empty_travel(self, kind: str, i: int, j: int) -> tuple[int, dict, str]:
        """A crane's empty travel from i to j in the timing row of arc i -> j.

        Returns its fixed part, the row terms that carry the rest, and the
        row's family.
        """
        if kind == "qc":
            return self.derived.qc_empty_travel[(i, j)], {}, QC_SEQUENCE_TIMING
        a, b = self.instance.shipment(i), self.instance.shipment(j)
        if a.is_outbound and b.is_outbound:
            travel = self.instance.tyc(a.fixed_location, b.fixed_location)
            return travel, {}, YC_SEQUENCE_TIMING_BETWEEN_OUTBOUND
        family = (
            YC_SEQUENCE_TIMING_AFTER_INBOUND
            if a.is_inbound
            else YC_SEQUENCE_TIMING_OUTBOUND_TO_INBOUND
        )
        return 0, {self.sy(i, j): -1}, family

    # -- model ------------------------------------------------------------

    def declare_variables(self) -> None:
        instance = self.instance
        for i in self.inbound:
            for k in self.available:
                self.x(i, k)
            self.t(i)
        for kind, c in self.chains:
            for i in [self.dummy_start] + self.members[kind][c]:
                self.out_of(kind, i, c)  # declares the arcs leaving i
        for i in self.ship_ids:
            for j in self.ship_ids:
                if i != j:
                    self.qz(i, j)
        for i in self.inbound:
            for j in self.inbound:
                if i == j:
                    continue
                for k in self.available:
                    for l in self.available:
                        if k != l:
                            self.theta(i, k, j, l)
        for i in self.ship_ids:
            self.sqc(i)
            self.syc(i)
        for i in self.ship_ids:
            for j in self.ship_ids:
                if i == j:
                    continue
                a = instance.shipment(i)
                b = instance.shipment(j)
                if a.is_outbound and b.is_outbound:
                    continue
                self.sy(i, j)
        for vessel in instance.vessels:
            self.cmax(vessel.id)

    def emit(self) -> None:
        instance = self.instance
        M = self.big_m

        for vessel in instance.vessels:
            for i in self.outbound:
                if instance.shipment(i).vessel != vessel.id:
                    continue
                self.row(
                    f"cmo_{vessel.id}_{i}",
                    {self.cmax(vessel.id): 1, self.sqc(i): -vessel.weight},
                    ">=",
                    vessel.weight * instance.shipment(i).qc_time,
                    COMPLETION_OUTBOUND,
                )
            for i in self.inbound:
                if instance.shipment(i).vessel != vessel.id:
                    continue
                self.row(
                    f"cmi_{vessel.id}_{i}",
                    {self.cmax(vessel.id): 1, self.syc(i): -vessel.weight},
                    ">=",
                    vessel.weight * instance.shipment(i).yc_time,
                    COMPLETION_INBOUND,
                )

        for k in self.available:
            self.row(
                f"cap_{k}",
                {self.x(i, k): 1 for i in self.inbound},
                "<=",
                1,
                LOCATION_CAPACITY,
            )
        for i in self.inbound:
            self.row(
                f"asg_{i}",
                {self.x(i, k): 1 for k in self.available},
                "=",
                1,
                LOCATION_ASSIGNMENT,
            )

        for kind, c in self.chains:
            chain = _CHAINS[kind]
            first = self.out_of(kind, self.dummy_start, c)
            last = self.into(kind, self.dummy_end, c)
            self.row(f"{kind}s_{c}", first, "=", 1, chain.start)
            self.row(f"{kind}e_{c}", last, "=", 1, chain.end)

        for i in self.ship_ids:
            coeffs: dict[str, int] = {}
            for q in self.cranes_of["qc"][i]:
                coeffs.update(self.out_of("qc", i, q))
            self.row(f"elig_{i}", coeffs, "=", 1, QC_ELIGIBILITY)

        for i in self.inbound:
            for c in self.cranes_of["yc"][i]:
                coeffs = self.out_of("yc", i, c)
                for k in self.available:
                    if instance.location(k).yc == c:
                        coeffs[self.x(i, k)] = -1
                self.row(f"ymi_{i}_{c}", coeffs, "=", 0, YC_MEMBERSHIP_INBOUND)
        for i in self.outbound:
            (c,) = self.cranes_of["yc"][i]
            coeffs = self.out_of("yc", i, c)
            self.row(f"ymo_{i}", coeffs, "=", 1, YC_MEMBERSHIP_OUTBOUND)

        for kind, chain in _CHAINS.items():
            for i in self.ship_ids:
                for c in self.cranes_of[kind][i]:
                    coeffs = self.into(kind, i, c)
                    coeffs.update(dict.fromkeys(self.out_of(kind, i, c), -1))
                    self.row(f"{kind}f_{i}_{c}", coeffs, "=", 0, chain.flow)

        for i in self.inbound:
            coeffs = {self.t(i): 1}
            for k in self.available:
                coeffs[self.x(i, k)] = -instance.tt(k)
            self.row(f"ytt_{i}", coeffs, "=", 0, YT_TRANSFER)

        for i in self.inbound:
            for j in self.outbound:
                coeffs = {self.sy(i, j): 1}
                target = instance.shipment(j).fixed_location
                for m in self.available:
                    coeffs[self.x(i, m)] = -instance.tyc(m, target)
                self.row(f"sy_uo_{i}_{j}", coeffs, "=", 0, YC_EMPTY_TO_OUTBOUND)
        for i in self.inbound:
            for j in self.inbound:
                if i == j:
                    continue
                coeffs = {self.sy(i, j): 1}
                for k in self.available:
                    for l in self.available:
                        if k != l:
                            coeffs[self.theta(i, k, j, l)] = -instance.tyc(k, l)
                self.row(f"sy_uu_{i}_{j}", coeffs, "=", 0, YC_EMPTY_BETWEEN_INBOUND)
                for k in self.available:
                    for l in self.available:
                        if k == l:
                            continue
                        self.row(
                            f"thl_{i}_{k}_{j}_{l}",
                            {
                                self.x(i, k): 1,
                                self.x(j, l): 1,
                                self.theta(i, k, j, l): -1,
                            },
                            "<=",
                            1,
                            YC_EMPTY_LINEARIZATION,
                        )
                        self.row(
                            f"thu_{i}_{k}_{j}_{l}",
                            {
                                self.theta(i, k, j, l): 2,
                                self.x(i, k): -1,
                                self.x(j, l): -1,
                            },
                            "<=",
                            0,
                            YC_EMPTY_LINEARIZATION,
                        )
        for i in self.outbound:
            source = instance.shipment(i).fixed_location
            for j in self.inbound:
                coeffs = {self.sy(i, j): 1}
                for m in self.available:
                    coeffs[self.x(j, m)] = -instance.tyc(source, m)
                self.row(f"sy_ou_{i}_{j}", coeffs, "=", 0, YC_EMPTY_FROM_OUTBOUND)

        for kind, c in self.chains:
            start = self.sqc if kind == "qc" else self.syc
            nodes = self.members[kind][c]
            for i in nodes:
                a = instance.shipment(i)
                duration = a.qc_time if kind == "qc" else a.yc_time
                for j in nodes:
                    if i == j:
                        continue
                    travel, terms, family = self.empty_travel(kind, i, j)
                    coeffs = {start(j): 1, start(i): -1, self.arc(kind, i, j, c): -M}
                    coeffs.update(terms)
                    self.row(
                        f"{kind[0]}st_{i}_{j}_{c}",
                        coeffs,
                        ">=",
                        duration + travel - M,
                        family,
                    )

        for i in self.outbound:
            s = instance.shipment(i)
            self.row(
                f"opr_{i}",
                {self.sqc(i): 1, self.syc(i): -1},
                ">=",
                s.yc_time + s.yt_outbound_time,
                OUTBOUND_PRECEDENCE,
            )
        for i in self.inbound:
            self.row(
                f"ipr_{i}",
                {self.syc(i): 1, self.sqc(i): -1, self.t(i): -1},
                ">=",
                instance.shipment(i).qc_time,
                INBOUND_PRECEDENCE,
            )

        for i in self.ship_ids:
            for j in self.ship_ids:
                if i == j:
                    continue
                self.row(
                    f"qdj_{i}_{j}",
                    {self.sqc(i): 1, self.sqc(j): -1, self.qz(i, j): M},
                    "<=",
                    M - instance.shipment(i).qc_time,
                    QC_DISJUNCTION,
                )

        for key in self.derived.interference_set:
            i, j, v, w = key
            on_v = self.into("qc", i, v)
            on_w = self.into("qc", j, w)
            coeffs = {**on_v, **on_w, self.qz(i, j): -1, self.qz(j, i): -1}
            self.row(f"idj_{i}_{j}_{v}_{w}", coeffs, "<=", 1, INTERFERENCE_DISJUNCTION)

            sep = self.derived.interference_time[key]
            for a, b, crane_a, crane_b in ((i, j, v, w), (j, i, w, v)):
                coeffs = {self.sqc(a): 1, self.sqc(b): -1, self.qz(a, b): M}
                coeffs.update(dict.fromkeys([*on_v, *on_w], M))
                self.row(
                    f"isp_{a}_{b}_{crane_a}_{crane_b}",
                    coeffs,
                    "<=",
                    3 * M - instance.shipment(a).qc_time - sep,
                    INTERFERENCE_SEPARATION,
                )

    def build(self) -> MipArtifacts:
        self.declare_variables()
        self.emit()
        counts = {family: 0 for family in ALL_FAMILIES}
        for row in self.rows:
            counts[row.family] += 1
        objective = {self.cmax(v.id): 1 for v in self.instance.vessels}
        return MipArtifacts(
            variables=dict(self.variables),
            rows=tuple(self.rows),
            objective=objective,
            big_m=self.big_m,
            dummy_start=self.dummy_start,
            dummy_end=self.dummy_end,
            row_counts=counts,
        )


def build_mip(instance: Instance, derived: DerivedTables) -> MipArtifacts:
    return _Builder(instance, derived).build()


def _format_terms(coeffs: Mapping[str, int]) -> list[str]:
    terms = []
    for pos, (name, coef) in enumerate(sorted(coeffs.items())):
        if coef == 0:
            continue
        sign = "-" if coef < 0 else "+"
        magnitude = abs(coef)
        body = name if magnitude == 1 else f"{magnitude} {name}"
        if pos == 0 and sign == "+":
            terms.append(body)
        else:
            terms.append(f"{sign} {body}")
    return terms or ["0 " + next(iter(sorted(coeffs)), "zero")]


def render_lp(artifacts: MipArtifacts) -> str:
    lines = ["\\ integrated terminal scheduling model", "Minimize"]
    lines.append(" obj: " + " ".join(_format_terms(artifacts.objective)))
    lines.append("Subject To")
    for row in artifacts.rows:
        terms = _format_terms(row.coeffs)
        body = f" {row.name}: "
        chunks = [body + " ".join(terms[:8])]
        for start in range(8, len(terms), 8):
            chunks.append("   " + " ".join(terms[start : start + 8]))
        chunks[-1] += f" {row.sense} {row.rhs}"
        lines.extend(chunks)
    binaries = sorted(
        name for name, info in artifacts.variables.items() if info["binary"]
    )
    if binaries:
        lines.append("Binaries")
        for start in range(0, len(binaries), 10):
            lines.append(" " + " ".join(binaries[start : start + 10]))
    lines.append("End")
    return "\n".join(lines) + "\n"


def export_lp(instance: Instance, derived: DerivedTables) -> tuple[str, MipArtifacts]:
    """LP text plus the variable registry needed to interpret solutions."""
    artifacts = build_mip(instance, derived)
    return render_lp(artifacts), artifacts


# -- solution <-> point mappings -----------------------------------------


def mip_point_from_solution(
    instance: Instance,
    derived: DerivedTables,
    artifacts: MipArtifacts,
    solution: Solution,
) -> dict[str, int]:
    """Inject a feasible Solution as an assignment of every MIP variable."""
    point = {name: 0 for name in artifacts.variables}

    def set_var(name: str, value: int) -> None:
        if name not in point:
            raise MalformedSolution(f"solution needs unknown variable {name}")
        point[name] = value

    for i, k in solution.yard_assignment.items():
        set_var(f"x_{i}_{k}", 1)
    chains = {"qc": solution.qc_sequences, "yc": solution.yc_sequences}
    for kind, sequences in chains.items():
        for c in sorted(sequences):
            nodes = [artifacts.dummy_start, *sequences[c], artifacts.dummy_end]
            for a, b in zip(nodes, nodes[1:]):
                set_var(f"{_CHAINS[kind].arc}_{a}_{b}_{c}", 1)

    ships = sorted(instance.shipments, key=lambda s: s.id)
    for a in ships:
        for b in ships:
            if a.id == b.id:
                continue
            finished_before = (
                solution.qc_start[a.id] + a.qc_time <= solution.qc_start[b.id]
            )
            set_var(f"qz_{a.id}_{b.id}", 1 if finished_before else 0)

    location = dict(solution.yard_assignment)
    for s in instance.outbound_shipments:
        location[s.id] = s.fixed_location
    available = sorted(k.id for k in instance.inbound_available_locations)
    inbound = [s.id for s in ships if s.is_inbound]
    for i in inbound:
        for j in inbound:
            if i == j:
                continue
            for k in available:
                for l in available:
                    if k != l and location[i] == k and location[j] == l:
                        set_var(f"th_{i}_{k}_{j}_{l}", 1)

    for s in ships:
        set_var(f"sqc_{s.id}", solution.qc_start[s.id])
        set_var(f"syc_{s.id}", solution.yc_start[s.id])
    for i in inbound:
        set_var(f"t_{i}", instance.tt(location[i]))
    for a in ships:
        for b in ships:
            if a.id == b.id or (a.is_outbound and b.is_outbound):
                continue
            set_var(f"sy_{a.id}_{b.id}", instance.tyc(location[a.id], location[b.id]))

    per_vessel = vessel_completions(instance, solution)
    for vessel in instance.vessels:
        set_var(f"cmax_{vessel.id}", vessel.weight * per_vessel[vessel.id])
    return point


def check_point(
    artifacts: MipArtifacts, point: Mapping[str, float], tolerance: float = 1e-6
) -> list[str]:
    """Names of rows the point violates (empty list: all rows satisfied)."""
    violated = []
    for row in artifacts.rows:
        value = sum(coef * point.get(name, 0) for name, coef in row.coeffs.items())
        if row.sense == "<=" and value > row.rhs + tolerance:
            violated.append(row.name)
        elif row.sense == ">=" and value < row.rhs - tolerance:
            violated.append(row.name)
        elif row.sense == "=" and abs(value - row.rhs) > tolerance:
            violated.append(row.name)
    return violated


def solution_from_values(
    instance: Instance,
    derived: DerivedTables,
    artifacts: MipArtifacts,
    values: Mapping[str, float],
) -> Solution:
    """Parse an external solver's variable values back into a Solution."""

    def on(name: str) -> bool:
        return values.get(name, 0) > 0.5

    yard: dict[int, int] = {}
    for name, info in artifacts.variables.items():
        if info["kind"] == "yard_assignment" and on(name):
            yard[info["shipment"]] = info["location"]

    def chains(kind: str, crane_count: int) -> dict[int, tuple[int, ...]]:
        """Each crane's sequence, read off its chosen successor arcs."""
        hops: dict[int, dict[int, int]] = {c: {} for c in range(1, crane_count + 1)}
        for name, info in artifacts.variables.items():
            if info["kind"] == kind and on(name):
                hops[info["crane"]][info["predecessor"]] = info["successor"]
        sequences: dict[int, tuple[int, ...]] = {}
        for c, after in hops.items():
            chain: list[int] = []
            here = artifacts.dummy_start
            while here in after and after[here] != artifacts.dummy_end:
                here = after[here]
                chain.append(here)
                if len(chain) > len(instance.shipments) + 1:
                    raise MalformedSolution(
                        f"{kind} chain of crane {c} does not terminate"
                    )
            sequences[c] = tuple(chain)
        return sequences

    qc_sequences = chains("qc_successor", instance.qc_count)
    yc_sequences = chains("yc_successor", instance.yc_count)

    qc_assignment = qc_assignment_of(qc_sequences)

    qc_start = {
        s.id: int(round(values.get(f"sqc_{s.id}", 0))) for s in instance.shipments
    }
    yc_start = {
        s.id: int(round(values.get(f"syc_{s.id}", 0))) for s in instance.shipments
    }

    order: dict[tuple[int, int, int, int], str] = {}
    for key in active_interference(derived, qc_assignment):
        i, j, _, _ = key
        if on(f"qz_{i}_{j}"):
            order[key] = I_FIRST
        elif on(f"qz_{j}_{i}"):
            order[key] = J_FIRST
        else:
            order[key] = I_FIRST if qc_start[i] <= qc_start[j] else J_FIRST

    solution = Solution(
        yard_assignment=yard,
        qc_assignment=qc_assignment,
        qc_sequences=qc_sequences,
        yc_sequences=yc_sequences,
        interference_order=order,
        qc_start=qc_start,
        yc_start=yc_start,
        objective=0,
    )
    return replace(solution, objective=objective_of(instance, solution))


def mapping_to_json(artifacts: MipArtifacts) -> str:
    return canonical_dumps(artifacts.mapping_payload())
