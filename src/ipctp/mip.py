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
from typing import Mapping, Optional

from .errors import MalformedSolution
from .instance import DerivedTables, Instance, canonical_dumps
from .schedule import (
    I_FIRST,
    J_FIRST,
    Solution,
    active_interference,
    objective_of,
    vessel_completions,
)

COMPLETION_OUTBOUND = "completion_outbound"
COMPLETION_INBOUND = "completion_inbound"
LOCATION_CAPACITY = "location_capacity"
LOCATION_ASSIGNMENT = "location_assignment"
QC_CHAIN_START = "qc_chain_start"
YC_CHAIN_START = "yc_chain_start"
QC_CHAIN_END = "qc_chain_end"
YC_CHAIN_END = "yc_chain_end"
QC_ELIGIBILITY = "qc_eligibility"
YC_MEMBERSHIP_INBOUND = "yc_membership_inbound"
YC_MEMBERSHIP_OUTBOUND = "yc_membership_outbound"
QC_FLOW = "qc_flow"
YC_FLOW = "yc_flow"
YT_TRANSFER = "yt_transfer"
YC_EMPTY_TO_OUTBOUND = "yc_empty_to_outbound"
YC_EMPTY_BETWEEN_INBOUND = "yc_empty_between_inbound"
YC_EMPTY_LINEARIZATION = "yc_empty_linearization"
YC_EMPTY_FROM_OUTBOUND = "yc_empty_from_outbound"
QC_SEQUENCE_TIMING = "qc_sequence_timing"
YC_SEQUENCE_TIMING_AFTER_INBOUND = "yc_sequence_timing_after_inbound"
YC_SEQUENCE_TIMING_OUTBOUND_TO_INBOUND = "yc_sequence_timing_outbound_to_inbound"
YC_SEQUENCE_TIMING_BETWEEN_OUTBOUND = "yc_sequence_timing_between_outbound"
OUTBOUND_PRECEDENCE = "outbound_precedence"
INBOUND_PRECEDENCE = "inbound_precedence"
QC_DISJUNCTION = "qc_disjunction"
INTERFERENCE_DISJUNCTION = "interference_disjunction"
INTERFERENCE_SEPARATION = "interference_separation"

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
    def __init__(self, instance: Instance, derived: DerivedTables, big_m: int):
        self.instance = instance
        self.derived = derived
        self.big_m = big_m
        self.ships = sorted(instance.shipments, key=lambda s: s.id)
        self.ship_ids = [s.id for s in self.ships]
        self.inbound = [s.id for s in self.ships if s.is_inbound]
        self.outbound = [s.id for s in self.ships if s.is_outbound]
        self.available = sorted(k.id for k in instance.inbound_available_locations)
        self.qc_ids = list(range(1, instance.qc_count + 1))
        self.yc_ids = list(range(1, instance.yc_count + 1))
        self.dummy_start = 0
        self.dummy_end = max(self.ship_ids, default=0) + 1
        self.variables: dict[str, dict] = {}
        self.rows: list[Row] = []
        inbound_ycs = sorted(
            {instance.location(k).yc for k in self.available}
        )
        self.possible_ycs = {
            i: (
                inbound_ycs
                if instance.shipment(i).is_inbound
                else [instance.location(instance.shipment(i).fixed_location).yc]
            )
            for i in self.ship_ids
        }

    # -- variables --------------------------------------------------------

    def var(self, name: str, kind: str, binary: bool, **indices) -> str:
        if name not in self.variables:
            self.variables[name] = {"kind": kind, "binary": binary, **indices}
        return name

    def x(self, i: int, k: int) -> str:
        return self.var(f"x_{i}_{k}", "yard_assignment", True, shipment=i, location=k)

    def z(self, i: int, j: int, q: int) -> str:
        return self.var(
            f"z_{i}_{j}_{q}", "qc_successor", True, predecessor=i, successor=j, crane=q
        )

    def v(self, i: int, j: int, c: int) -> str:
        return self.var(
            f"v_{i}_{j}_{c}", "yc_successor", True, predecessor=i, successor=j, crane=c
        )

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

    def qc_nodes(self, q: int) -> list[int]:
        return [i for i in self.ship_ids if q in self.derived.eligible_qcs[i]]

    def yc_nodes(self, c: int) -> list[int]:
        return [i for i in self.ship_ids if c in self.possible_ycs[i]]

    def row(self, name, coeffs, sense, rhs, family) -> None:
        self.rows.append(Row(name, dict(coeffs), sense, rhs, family))

    # -- model ------------------------------------------------------------

    def declare_variables(self) -> None:
        instance = self.instance
        for i in self.inbound:
            for k in self.available:
                self.x(i, k)
            self.t(i)
        for q in self.qc_ids:
            nodes = self.qc_nodes(q)
            for i in [self.dummy_start] + nodes:
                for j in nodes + [self.dummy_end]:
                    if i != j:
                        self.z(i, j, q)
        for c in self.yc_ids:
            nodes = self.yc_nodes(c)
            for i in [self.dummy_start] + nodes:
                for j in nodes + [self.dummy_end]:
                    if i != j:
                        self.v(i, j, c)
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

        for q in self.qc_ids:
            nodes = self.qc_nodes(q)
            self.row(
                f"qcs_{q}",
                {self.z(self.dummy_start, j, q): 1 for j in nodes + [self.dummy_end]},
                "=",
                1,
                QC_CHAIN_START,
            )
            self.row(
                f"qce_{q}",
                {self.z(i, self.dummy_end, q): 1 for i in [self.dummy_start] + nodes},
                "=",
                1,
                QC_CHAIN_END,
            )
        for c in self.yc_ids:
            nodes = self.yc_nodes(c)
            self.row(
                f"ycs_{c}",
                {self.v(self.dummy_start, j, c): 1 for j in nodes + [self.dummy_end]},
                "=",
                1,
                YC_CHAIN_START,
            )
            self.row(
                f"yce_{c}",
                {self.v(i, self.dummy_end, c): 1 for i in [self.dummy_start] + nodes},
                "=",
                1,
                YC_CHAIN_END,
            )

        for i in self.ship_ids:
            coeffs: dict[str, int] = {}
            for q in sorted(self.derived.eligible_qcs[i]):
                for j in self.qc_nodes(q) + [self.dummy_end]:
                    if j != i:
                        coeffs[self.z(i, j, q)] = 1
            self.row(f"elig_{i}", coeffs, "=", 1, QC_ELIGIBILITY)

        for i in self.inbound:
            for c in self.possible_ycs[i]:
                coeffs = {
                    self.v(i, j, c): 1
                    for j in self.yc_nodes(c) + [self.dummy_end]
                    if j != i
                }
                for k in self.available:
                    if instance.location(k).yc == c:
                        coeffs[self.x(i, k)] = -1
                self.row(f"ymi_{i}_{c}", coeffs, "=", 0, YC_MEMBERSHIP_INBOUND)
        for i in self.outbound:
            c = self.possible_ycs[i][0]
            self.row(
                f"ymo_{i}",
                {
                    self.v(i, j, c): 1
                    for j in self.yc_nodes(c) + [self.dummy_end]
                    if j != i
                },
                "=",
                1,
                YC_MEMBERSHIP_OUTBOUND,
            )

        for i in self.ship_ids:
            for q in sorted(self.derived.eligible_qcs[i]):
                coeffs = {}
                for j in [self.dummy_start] + self.qc_nodes(q):
                    if j != i:
                        coeffs[self.z(j, i, q)] = 1
                for j in self.qc_nodes(q) + [self.dummy_end]:
                    if j != i:
                        coeffs[self.z(i, j, q)] = coeffs.get(self.z(i, j, q), 0) - 1
                self.row(f"qcf_{i}_{q}", coeffs, "=", 0, QC_FLOW)
        for i in self.ship_ids:
            for c in self.possible_ycs[i]:
                coeffs = {}
                for j in [self.dummy_start] + self.yc_nodes(c):
                    if j != i:
                        coeffs[self.v(j, i, c)] = 1
                for j in self.yc_nodes(c) + [self.dummy_end]:
                    if j != i:
                        coeffs[self.v(i, j, c)] = coeffs.get(self.v(i, j, c), 0) - 1
                self.row(f"ycf_{i}_{c}", coeffs, "=", 0, YC_FLOW)

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

        for q in self.qc_ids:
            nodes = self.qc_nodes(q)
            for i in nodes:
                for j in nodes:
                    if i == j:
                        continue
                    self.row(
                        f"qst_{i}_{j}_{q}",
                        {self.sqc(j): 1, self.sqc(i): -1, self.z(i, j, q): -M},
                        ">=",
                        instance.shipment(i).qc_time
                        + self.derived.qc_empty_travel[(i, j)]
                        - M,
                        QC_SEQUENCE_TIMING,
                    )
        for c in self.yc_ids:
            nodes = self.yc_nodes(c)
            for i in nodes:
                for j in nodes:
                    if i == j:
                        continue
                    a = instance.shipment(i)
                    b = instance.shipment(j)
                    if a.is_outbound and b.is_outbound:
                        self.row(
                            f"yst_{i}_{j}_{c}",
                            {self.syc(j): 1, self.syc(i): -1, self.v(i, j, c): -M},
                            ">=",
                            a.yc_time
                            + instance.tyc(a.fixed_location, b.fixed_location)
                            - M,
                            YC_SEQUENCE_TIMING_BETWEEN_OUTBOUND,
                        )
                        continue
                    family = (
                        YC_SEQUENCE_TIMING_AFTER_INBOUND
                        if a.is_inbound
                        else YC_SEQUENCE_TIMING_OUTBOUND_TO_INBOUND
                    )
                    self.row(
                        f"yst_{i}_{j}_{c}",
                        {
                            self.syc(j): 1,
                            self.syc(i): -1,
                            self.sy(i, j): -1,
                            self.v(i, j, c): -M,
                        },
                        ">=",
                        a.yc_time - M,
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
            on_v = {
                self.z(u, i, v): 1
                for u in [self.dummy_start] + self.qc_nodes(v)
                if u != i
            }
            on_w = {
                self.z(u, j, w): 1
                for u in [self.dummy_start] + self.qc_nodes(w)
                if u != j
            }
            coeffs = dict(on_v)
            coeffs.update(on_w)
            coeffs[self.qz(i, j)] = -1
            coeffs[self.qz(j, i)] = -1
            self.row(f"idj_{i}_{j}_{v}_{w}", coeffs, "<=", 1, INTERFERENCE_DISJUNCTION)

            sep = self.derived.interference_time[key]
            coeffs = {self.sqc(i): 1, self.sqc(j): -1, self.qz(i, j): M}
            for name in on_v:
                coeffs[name] = M
            for name in on_w:
                coeffs[name] = M
            self.row(
                f"isp_{i}_{j}_{v}_{w}",
                coeffs,
                "<=",
                3 * M - instance.shipment(i).qc_time - sep,
                INTERFERENCE_SEPARATION,
            )
            coeffs = {self.sqc(j): 1, self.sqc(i): -1, self.qz(j, i): M}
            for name in on_v:
                coeffs[name] = M
            for name in on_w:
                coeffs[name] = M
            self.row(
                f"isp_{j}_{i}_{w}_{v}",
                coeffs,
                "<=",
                3 * M - instance.shipment(j).qc_time - sep,
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


def build_mip(
    instance: Instance,
    derived: DerivedTables,
    big_m: Optional[int] = None,
) -> MipArtifacts:
    chosen = big_m if big_m is not None else default_big_m(instance, derived)
    if chosen <= 0:
        raise MalformedSolution("big_m must be positive")
    return _Builder(instance, derived, chosen).build()


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


def export_lp(
    instance: Instance,
    derived: DerivedTables,
    big_m: Optional[int] = None,
) -> tuple[str, MipArtifacts]:
    """LP text plus the variable registry needed to interpret solutions."""
    artifacts = build_mip(instance, derived, big_m=big_m)
    return render_lp(artifacts), artifacts


# -- solution <-> point mappings -----------------------------------------


def _chain_arcs(sequence: tuple[int, ...], start: int, end: int) -> list[tuple[int, int]]:
    nodes = [start] + list(sequence) + [end]
    return list(zip(nodes, nodes[1:]))


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
    for q in sorted(solution.qc_sequences):
        for a, b in _chain_arcs(
            tuple(solution.qc_sequences[q]), artifacts.dummy_start, artifacts.dummy_end
        ):
            set_var(f"z_{a}_{b}_{q}", 1)
    for c in sorted(solution.yc_sequences):
        for a, b in _chain_arcs(
            tuple(solution.yc_sequences[c]), artifacts.dummy_start, artifacts.dummy_end
        ):
            set_var(f"v_{a}_{b}_{c}", 1)

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

    qc_assignment: dict[int, int] = {}
    for q, sequence in qc_sequences.items():
        for ship in sequence:
            qc_assignment[ship] = q

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
