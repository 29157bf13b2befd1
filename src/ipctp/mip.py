"""Mixed-integer export of the full scheduling model in CPLEX LP format.

The emitted file encodes the whole feasible set (assignment, successor
chains with dummy start/end shipments, big-M timing, interference
disjunctions and a yard crane's empty travel) so any external MILP engine
can solve it.  The artifacts returned alongside the text allow a solution
vector to be parsed back into a validated Solution, and a Solution to be
injected as a point satisfying every row.

No variable stands for a value an equality fixes.  The transfer time of
inbound shipment i is sum_k tt(k) x_ik, and a yard crane's empty travel
from inbound i to outbound j is sum_m tyc(m, loc j) x_im (from outbound i
to inbound j, sum_m tyc(loc i, m) x_jm).  Each such sum sits in the one
row that reads it: ipr_i, or the yard timing row yst_i_j_c.  A variable
for it would appear only in its defining equality and in that row, and
the sum is nonnegative, so substituting it drops a coordinate of the MIP
and of its LP relaxation and changes neither otherwise.

The empty travel sy_i_j from inbound shipment i to inbound shipment j has
one row for each ordered pair (k, l) of distinct free locations of one
yard crane with t = tyc(k, l) > 0: ``sy_i_j - t x_ik - t x_jl >= -t``, the
lower envelope of McCormick (1976) for t * x_ik * x_jl.  That is I(I-1)
rows per such pair for I inbound shipments, and no pair variable.  The
model stays exact:

- sy_i_j appears only in its own rows and, with coefficient -1, in the
  yard timing rows yst_i_j_c, which bind only when v_ijc = 1;
- then the membership and flow rows put i and j on locations k and l of
  crane c, and row (k, l) gives sy_i_j >= tyc(k, l);
- a larger sy_i_j only delays a start, so the big-M is unchanged;
- so every schedule maps to a point, with sy_i_j = tyc(loc i, loc j), and
  every point's sequences and starts form a schedule: the optimum is the
  same.

The LP relaxation is McCormick's, weaker than that of the rows of the
reformulation-linearisation technique, which need a variable per pair of
placements.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Mapping, NamedTuple

from .errors import MalformedSolution
from .instance import DerivedTables, Instance
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
    default_big_m,
    locations,
    objective_of,
    qc_assignment_of,
    vessel_completions,
    yard_timing_family,
)

COMPLETION_OUTBOUND = "completion_outbound"
COMPLETION_INBOUND = "completion_inbound"
QC_CHAIN_START = "qc_chain_start"
YC_CHAIN_START = "yc_chain_start"
QC_CHAIN_END = "qc_chain_end"
YC_CHAIN_END = "yc_chain_end"
QC_FLOW = "qc_flow"
YC_FLOW = "yc_flow"
YC_EMPTY_BETWEEN_INBOUND = "yc_empty_between_inbound"
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
    YC_EMPTY_BETWEEN_INBOUND,
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


class Row(NamedTuple):
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


class _Builder:
    def __init__(self, instance: Instance, derived: DerivedTables):
        self.instance = instance
        self.derived = derived
        self.big_m = default_big_m(instance, derived)
        self.ship_ids = [s.id for s in instance.shipments]
        self.inbound = [s.id for s in instance.inbound_shipments]
        self.outbound = [s.id for s in instance.outbound_shipments]
        self.available = [k.id for k in instance.inbound_available_locations]
        self.dummy_start = 0
        self.dummy_end = max(self.ship_ids, default=0) + 1
        self.variables: dict[str, dict] = {}
        self.rows: list[Row] = []
        inbound_ycs = sorted({instance.location(k).yc for k in self.available})
        # Per crane kind: each shipment's possible cranes, and each crane's
        # possible shipments in id order.
        self.cranes_of = {
            "qc": derived.eligible_qcs,
            "yc": {
                s.id: (
                    inbound_ycs
                    if s.is_inbound
                    else [instance.location(s.fixed_location).yc]
                )
                for s in instance.shipments
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

    def sqc(self, i: int) -> str:
        return self.var(f"sqc_{i}", "qc_start", False, shipment=i)

    def syc(self, i: int) -> str:
        return self.var(f"syc_{i}", "yc_start", False, shipment=i)

    def sy(self, i: int, j: int) -> str:
        return self.var(f"sy_{i}_{j}", "yc_empty", False, from_shipment=i, to_shipment=j)

    def cmax(self, s: int) -> str:
        return self.var(f"cmax_{s}", "vessel_completion", False, vessel=s)

    def row(self, name, coeffs, sense, rhs, family) -> None:
        """Adds a row; it keeps coeffs, which the caller must not touch again."""
        self.rows.append(Row(name, coeffs, sense, rhs, family))

    def empty_travel(self, kind: str, i: int, j: int) -> tuple[int, dict, str]:
        """A crane's empty travel from i to j in the timing row of arc i -> j.

        Returns its fixed part, the row terms that carry the rest, and the
        row's family.  A trip with one inbound end costs the travel between
        the other end and the inbound shipment's location, -tyc on each of
        its x; only a trip between two inbound shipments has a variable.
        """
        a, b = self.instance.shipment(i), self.instance.shipment(j)
        if kind == "qc":
            return self.instance.tqc(a.bay, b.bay), {}, QC_SEQUENCE_TIMING
        tyc, family = self.instance.tyc, yard_timing_family(a, b)
        if a.is_inbound and b.is_inbound:
            return 0, {self.sy(i, j): -1}, family
        if a.is_inbound:
            target = b.fixed_location
            return 0, {self.x(i, m): -tyc(m, target) for m in self.available}, family
        if b.is_inbound:
            source = a.fixed_location
            return 0, {self.x(j, m): -tyc(source, m) for m in self.available}, family
        return tyc(a.fixed_location, b.fixed_location), {}, family

    # -- model ------------------------------------------------------------

    def emit(self) -> None:
        instance = self.instance
        M = self.big_m

        for vessel in instance.vessels:
            ships = instance.shipments_of_vessel(vessel.id)
            for s in ships:
                if s.is_outbound:
                    self.row(
                        f"cmo_{vessel.id}_{s.id}",
                        {self.cmax(vessel.id): 1, self.sqc(s.id): -vessel.weight},
                        ">=",
                        vessel.weight * s.qc_time,
                        COMPLETION_OUTBOUND,
                    )
            for s in ships:
                if s.is_inbound:
                    self.row(
                        f"cmi_{vessel.id}_{s.id}",
                        {self.cmax(vessel.id): 1, self.syc(s.id): -vessel.weight},
                        ">=",
                        vessel.weight * s.yc_time,
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

        # A crane travels empty only between its own locations, so only
        # pairs (k, l) of one crane bound the travel; see the module
        # docstring for why the rows are exact.
        crane = {k: instance.location(k).yc for k in self.available}
        trips = [
            (k, l, t)
            for k in self.available
            for l in self.available
            if k != l and crane[k] == crane[l] and (t := instance.tyc(k, l)) > 0
        ]
        x_of = {i: {k: self.x(i, k) for k in self.available} for i in self.inbound}
        for i, x_i in x_of.items():
            for j, x_j in x_of.items():
                if i == j:
                    continue
                sy = self.sy(i, j)
                for k, l, t in trips:
                    self.row(
                        f"sy_uu_{i}_{j}_{k}_{l}",
                        {sy: 1, x_i[k]: -t, x_j[l]: -t},
                        ">=",
                        -t,
                        YC_EMPTY_BETWEEN_INBOUND,
                    )

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
            coeffs = {self.syc(i): 1, self.sqc(i): -1}
            for k in self.available:
                coeffs[self.x(i, k)] = -instance.tt(k)
            self.row(
                f"ipr_{i}",
                coeffs,
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

            for (a, b, crane_a, crane_b), (_, _, gap) in zip(
                ((i, j, v, w), (j, i, w, v)), self.derived.separation_arcs[key]
            ):
                coeffs = {self.sqc(a): 1, self.sqc(b): -1, self.qz(a, b): M}
                coeffs.update(dict.fromkeys([*on_v, *on_w], M))
                self.row(
                    f"isp_{a}_{b}_{crane_a}_{crane_b}",
                    coeffs,
                    "<=",
                    3 * M - gap,
                    INTERFERENCE_SEPARATION,
                )

    def build(self) -> MipArtifacts:
        self.emit()
        counts = {family: 0 for family in ALL_FAMILIES}
        for row in self.rows:
            counts[row.family] += 1
        objective = {self.cmax(v.id): 1 for v in self.instance.vessels}
        return MipArtifacts(
            variables=self.variables,
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
    names = sorted(coeffs)  # the keys are unique, so names alone order them
    terms = [
        f"+ {name}" if coef == 1
        else f"- {name}" if coef == -1
        else f"+ {coef} {name}" if coef > 0
        else f"- {-coef} {name}"
        for name in names
        if (coef := coeffs[name])
    ]
    if not terms:
        return ["0 " + (names[0] if names else "zero")]
    if coeffs[names[0]] > 0:
        terms[0] = terms[0][2:]
    return terms


def render_lp(artifacts: MipArtifacts) -> str:
    """The model as CPLEX LP text, one byte sequence per model.

    Each row's terms come in name order as ``+ name``, ``- name``,
    ``+ k name`` or ``- k name``; zero coefficients are left out.  The
    first term drops its ``+ `` only when it is the first name in order,
    so after a leading zero the next term keeps it.  A row or objective
    with no nonzero term reads ``0 <first name>``, or ``0 zero`` when it
    has no names at all.  A row is `` name: terms sense rhs`` with 8 terms
    per line; further lines start with three spaces and the last carries
    the sense and right-hand side.  ``Binaries`` lists the binary
    variables in name order, 10 per line, and the text ends ``End``.
    """
    lines = ["\\ integrated terminal scheduling model", "Minimize"]
    lines.append(" obj: " + " ".join(_format_terms(artifacts.objective)))
    lines.append("Subject To")
    for name, coeffs, sense, rhs, _ in artifacts.rows:
        terms = _format_terms(coeffs)
        if len(terms) <= 8:
            lines.append(f" {name}: {' '.join(terms)} {sense} {rhs}")
            continue
        chunks = [f" {name}: " + " ".join(terms[:8])]
        for start in range(8, len(terms), 8):
            chunks.append("   " + " ".join(terms[start : start + 8]))
        chunks[-1] += f" {sense} {rhs}"
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
    names = _Builder(instance, derived)  # spells each variable's name

    def set_var(name: str, value: int) -> None:
        if name not in point:
            raise MalformedSolution(f"solution needs unknown variable {name}")
        point[name] = value

    ships = instance.shipments
    location = locations(instance, solution.yard_assignment)
    for s in ships:
        if s.id not in location:
            raise MalformedSolution(f"inbound shipment {s.id} has no yard location")
        if s.id not in solution.qc_start or s.id not in solution.yc_start:
            raise MalformedSolution(f"shipment {s.id} has no start time")

    for i, k in solution.yard_assignment.items():
        set_var(names.x(i, k), 1)
    chains = {"qc": solution.qc_sequences, "yc": solution.yc_sequences}
    for kind, sequences in chains.items():
        for c in sorted(sequences):
            nodes = [artifacts.dummy_start, *sequences[c], artifacts.dummy_end]
            for a, b in zip(nodes, nodes[1:]):
                set_var(names.arc(kind, a, b, c), 1)

    for a in ships:
        for b in ships:
            if a.id == b.id:
                continue
            finished_before = (
                solution.qc_start[a.id] + a.qc_time <= solution.qc_start[b.id]
            )
            set_var(names.qz(a.id, b.id), 1 if finished_before else 0)

    inbound = [s.id for s in instance.inbound_shipments]
    for s in ships:
        set_var(names.sqc(s.id), solution.qc_start[s.id])
        set_var(names.syc(s.id), solution.yc_start[s.id])
    for i in inbound:
        for j in inbound:
            if i != j:
                set_var(names.sy(i, j), instance.tyc(location[i], location[j]))

    per_vessel = vessel_completions(instance, solution.qc_start, solution.yc_start)
    for vessel in instance.vessels:
        set_var(names.cmax(vessel.id), vessel.weight * per_vessel[vessel.id])
    return point


# How far a point may miss a row's right-hand side and still satisfy it:
# points read from an external solver carry floating-point noise.
POINT_TOLERANCE = 1e-6


def check_point(artifacts: MipArtifacts, point: Mapping[str, float]) -> list[str]:
    """Names of rows the point violates (empty list: all rows satisfied).

    A row counts as satisfied only when its comparison holds, so a NaN
    value violates every row it appears in.
    """
    violated = []
    for name, coeffs, sense, rhs, _ in artifacts.rows:
        value = sum(coef * point.get(var, 0) for var, coef in coeffs.items())
        if sense == "<=":
            holds = value <= rhs + POINT_TOLERANCE
        elif sense == ">=":
            holds = value >= rhs - POINT_TOLERANCE
        else:
            holds = abs(value - rhs) <= POINT_TOLERANCE
        if not holds:
            violated.append(name)
    return violated


def solution_from_values(
    instance: Instance,
    derived: DerivedTables,
    artifacts: MipArtifacts,
    values: Mapping[str, float],
) -> Solution:
    """Parse an external solver's variable values back into a Solution."""
    names = _Builder(instance, derived)  # spells each variable's name

    def on(name: str) -> bool:
        value = values.get(name, 0)
        if not math.isfinite(value):
            raise MalformedSolution(f"binary {name} is not finite: {value}")
        return value > 0.5

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

    def start(name: str) -> int:
        value = values.get(name, 0)
        if not math.isfinite(value):
            raise MalformedSolution(f"start time {name} is not finite: {value}")
        return int(round(value))

    qc_start = {s.id: start(names.sqc(s.id)) for s in instance.shipments}
    yc_start = {s.id: start(names.syc(s.id)) for s in instance.shipments}

    order: dict[tuple[int, int, int, int], str] = {}
    for key in active_interference(derived, qc_assignment_of(qc_sequences)):
        i, j, _, _ = key
        if on(names.qz(i, j)):
            order[key] = I_FIRST
        elif on(names.qz(j, i)):
            order[key] = J_FIRST
        else:
            order[key] = I_FIRST if qc_start[i] <= qc_start[j] else J_FIRST

    solution = Solution(
        yard_assignment=yard,
        qc_sequences=qc_sequences,
        yc_sequences=yc_sequences,
        interference_order=order,
        qc_start=qc_start,
        yc_start=yc_start,
        objective=0,
    )
    return replace(solution, objective=objective_of(instance, solution))


def mapping_to_json(artifacts: MipArtifacts) -> str:
    payload = {
        "variables": artifacts.variables,
        "big_m": artifacts.big_m,
        "dummy_start": artifacts.dummy_start,
        "dummy_end": artifacts.dummy_end,
        "row_families": artifacts.row_counts,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
