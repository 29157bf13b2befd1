"""Exact anytime branch-and-bound over assignment, sequencing and ordering.

Search order: yard locations for inbound shipments, then quay-crane
assignment, then rank-based sequencing on the most loaded crane, then the
interference disjunctions (branched lazily, only when both sides are
assigned and their time windows still overlap).  Every node keeps earliest
and latest start windows that only tighten along a branch; an admissible
lower bound prunes against the incumbent.  A sequencing child is never
built when its shipment cannot go first: the two-task not-first rule of
disjunctive scheduling.

Nor is a yard child built for a dominated location.  Location a dominates
inbound location b when both are on one yard crane, a comes first by
(transfer time, id) and no trip of that crane from a to another location
is longer than from b; a twin has b's transfer time and trips as well.  A
location gets no child when a free twin of lower id exists, or when the
free dominators of used locations outnumber the inbound shipments left to
place (the hole rule).  Both rules are exact: moving a shipment to a free
dominator lowers no arc weight and strictly lowers the rank sum of the used
locations, so some optimal solution escapes them.  They act in branching
only: the public ``propagate`` accepts any location.

Before the root, one schedule is built without search and offered as the
first incumbent, so the incumbent's caps on latest starts act from the
root on.  The shipments are ranked by their quay task's earliest start at
the propagated root, then by id; inbound shipments take the free locations
in id order, each shipment in rank order takes its least-loaded eligible
quay crane, and every crane sequence and interference order follows the
rank.  Every arc of that schedule then stays inside one shipment or points
forward in rank, so its precedence graph is acyclic.

All arithmetic is exact integer arithmetic, tie-breaking is by lowest id
and the search is single-threaded, so runs are reproducible.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from itertools import combinations
from operator import gt
from typing import Iterator, Mapping, NamedTuple, Optional

from .instance import DerivedTables, Instance
from .schedule import (
    QUAY,
    YARD,
    Arc,
    Decisions,
    I_FIRST,
    J_FIRST,
    Solution,
    active_interference,
    compute_schedule,
    crane_arcs,
    crane_members,
    default_big_m,
    locations,
    order_arcs,
    relax,
    transfer_arcs,
    validate,
    yard_cranes,
)
from .errors import CyclicOrdering, IpctpError


@dataclass(frozen=True)
class SolveParams:
    time_limit: float = 600.0
    # Solves are single-threaded; any value but 1 is rejected.
    workers: int = 1


@dataclass
class SolveReport:
    """What a solve found and counted.  The engine counts into its report as
    it searches, and ``solve`` returns that same record.  ``propagations``
    also counts the raises of the root propagation that ranks the shipments
    for the constructive schedule."""

    best_objective: Optional[int] = None
    lower_bound: Optional[int] = None
    gap_percent: Optional[float] = None
    status: str = "unknown"
    nodes: int = 0
    propagations: int = 0
    # Prunes by cause: propagation found no window, the bound reached the
    # incumbent; the sequencing children never built because their shipment
    # could not go first, and the yard children never built because their
    # location is dominated.  No leaf is cyclic: see ``_Engine.propagate``.
    infeasible: int = 0
    bounded: int = 0
    not_first: int = 0
    dominated: int = 0
    wall_time: float = 0.0
    incumbent_trace: list[tuple[float, int]] = field(default_factory=list)

    def to_payload(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SearchNode(Decisions):
    """The decisions made so far, each crane's sequence so far among them,
    plus each shipment's quay crane once chosen and the per-task start-time
    windows [est, lct].  A leaf is scheduled as it is."""

    qc_of: Mapping[int, int]
    est: tuple[int, ...]
    lct: tuple[int, ...]


# The SearchNode field holding each kind's crane sequences.
_SEQUENCES_FIELD = ("qc_sequences", "yc_sequences")


class _Resource(NamedTuple):
    """A unary resource: its tasks never overlap.  Either one crane at a
    node, or a clique of assigned quay tasks that pairwise share a crane or
    an active interference tuple, which spans several quay cranes."""

    # QUAY or YARD for a crane, None for a clique.
    kind: Optional[int]
    # Its tasks in id order, and their total duration.
    tasks: list[int]
    workload: int
    # A crane's shipments that no sequence holds yet, in id order, and its
    # arcs as ``crane_arcs`` gives them; a clique has neither.
    left: list[int]
    arcs: list[Arc]
    # The least cost of one unit of transition, and the place of each task
    # it is counted in: a quay crane's ``qc_unit_travel`` per bay of its
    # tasks' span, a clique's least interference time per change of quay
    # crane.  A yard crane has step 0 and no places.
    step: int
    place: Optional[dict[int, int]]


class _Facts(NamedTuple):
    """What a node's decisions fix; propagation leaves all of it unchanged.
    A node's free yard locations are not kept: ``_placed`` lists them where
    it reads them."""

    # Yard location of every shipment that has one.
    location: dict[int, int]
    # Shortest remaining chain after each task ends: a transfer and the
    # second task for a shipment's first task, 0 for every other task.
    tail: list[int]
    # Interference tuples the quay assignment selects.
    active: list[tuple[int, int, int, int]]
    # The arc between each shipment's two tasks, as ``transfer_arcs`` gives
    # them.
    transfer: list[Arc]
    # Every unary resource: each crane by (kind, id), quay cranes first and
    # each kind by id; then each maximal clique of assigned quay tasks by its
    # rank in id order, a set equal to one crane's tasks left to that crane.
    resources: dict[tuple[int, int] | int, _Resource]


class _Engine:
    """One search over one instance: the tables every node shares, a cache
    of each quay assignment's active tuples and cliques, the search's clock
    and incumbent, and the ``SolveReport`` it counts into.

    Keep an engine to at most 29 attributes, and derive what can be
    derived: past that, CPython 3.11 no longer keeps them inline, and each
    ``self.`` read in propagation takes its slower, dict-based path.  So a
    counter is a field of ``report``, never an attribute of its own.
    """

    def __init__(
        self, instance: Instance, derived: DerivedTables, time_limit: float = math.inf
    ):
        self.instance = instance
        self.derived = derived
        ships = instance.shipments
        self.ship_ids = [s.id for s in ships]
        self.inbound_ids = [s.id for s in instance.inbound_shipments]
        self.available = sorted(
            (k.id for k in instance.inbound_available_locations),
            key=lambda k: (instance.tt(k), k),
        )
        self.yc_at = {k.id: k.yc for k in instance.yard_locations}
        self.quay_task = quay_task = derived.quay_task
        # Per kind, a crane's empty travel between the spots of two shipments:
        # a shipment's spot is its bay for quay cranes, its location for yard
        # cranes.  A yard crane travels only between its own locations.
        places: dict[int, list[int]] = {}
        for k in instance.yard_locations:
            places.setdefault(k.yc, []).append(k.id)
        self.bay = {s.id: s.bay for s in ships}
        bays = set(self.bay.values())
        self.travel = (
            {(a, b): instance.tqc(a, b) for a in bays for b in bays},
            {(k, l): instance.tyc(k, l)
             for own in places.values() for k in own for l in own},
        )
        self.dominators, self.twins = self._dominance(places)
        n_tasks = 2 * len(ships)
        self.duration = [0] * n_tasks
        self.vessel_of_task = [0] * n_tasks
        for s in ships:
            quay = quay_task[s.id]
            self.duration[quay], self.duration[quay + 1] = s.qc_time, s.yc_time
            self.vessel_of_task[quay] = self.vessel_of_task[quay + 1] = s.vessel
        self.weight = {v.id: v.weight for v in instance.vessels}
        self.horizon = default_big_m(instance, derived)
        # The active tuples and cliques of each quay assignment met so far,
        # keyed by every shipment's crane (None when unassigned) in id order.
        self._quay: dict[tuple, tuple[list, dict[int, _Resource]]] = {}
        # Read once the tables are built, so wall time leaves them out.
        self.deadline = time.monotonic() + time_limit
        self.started = time.monotonic()
        self.incumbent: Optional[int] = None
        self.best: Optional[Solution] = None
        self.report = SolveReport()

    def _dominance(
        self, places: dict[int, list[int]]
    ) -> tuple[dict[int, frozenset[int]], dict[int, tuple[int, ...]]]:
        """Each inbound location's dominators, and its twins of lower id.

        Location a dominates inbound location b when a is on b's yard crane,
        ``(tt(a), a) < (tt(b), b)`` and ``tyc(a, x) <= tyc(b, x)`` for every
        other location x of that crane.  A dominator is a twin when it has
        b's transfer time and b's travel to every such x.

        Each location's row holds its travel to every location of its crane
        in ``places``.  With its own entry raised above every travel time,
        b's row compares with a's by ``map(gt, ...)`` with neither own entry
        counting: a's is 0, b's is the raised one.
        """
        instance, trips = self.instance, self.travel[YARD]
        top = 1 + max(trips.values(), default=0)
        row, raised = {}, {}
        for k in self.available:
            own = places[self.yc_at[k]]
            row[k] = [trips[k, l] for l in own]
            raised[k] = [top if l == k else t for l, t in zip(own, row[k])]
        # Each crane's inbound locations so far, by (transfer time, id).
        ranked: dict[int, list[int]] = {c: [] for c in range(1, instance.yc_count + 1)}
        dominators: dict[int, frozenset[int]] = {}
        twins: dict[int, tuple[int, ...]] = {}
        for b in self.available:
            better = [a for a in ranked[self.yc_at[b]]
                      if not any(map(gt, row[a], raised[b]))]
            dominators[b] = frozenset(better)
            twins[b] = tuple(
                a for a in better if instance.tt(a) == instance.tt(b)
                and not any(map(gt, row[b], raised[a]))
            )
            ranked[self.yc_at[b]].append(b)
        return dominators, twins

    def root(self) -> SearchNode:
        eligible = self.derived.eligible_qcs
        n_tasks = len(self.duration)
        return SearchNode(
            yard_assignment={},
            qc_sequences=dict.fromkeys(range(1, self.instance.qc_count + 1), ()),
            yc_sequences=dict.fromkeys(range(1, self.instance.yc_count + 1), ()),
            interference_order={},
            qc_of={i: eligible[i][0] for i in self.ship_ids if len(eligible[i]) == 1},
            est=(0,) * n_tasks,
            lct=(self.horizon,) * n_tasks,
        )

    def facts(self, node: SearchNode) -> _Facts:
        location = locations(self.instance, node.yard_assignment)
        resources = {
            (kind, crane): self.crane(node, (kind, crane), ships, location)
            for kind, crane_of in (
                (QUAY, node.qc_of), (YARD, yard_cranes(self.instance, location))
            )
            for crane, ships in crane_members(self.instance, kind, crane_of).items()
        }
        transfer = transfer_arcs(self.instance, self.derived, node.yard_assignment)
        active, cliques = self.quay(node.qc_of)
        resources.update(cliques)
        return _Facts(location, self.tail(transfer), active, transfer, resources)

    def crane(
        self,
        node: SearchNode,
        key: tuple[int, int],
        ships: list[int],
        location: Mapping[int, int],
    ) -> _Resource:
        """The record of crane ``key`` serving ``ships``, given in id order."""
        kind, crane = key
        sequence = getattr(node, _SEQUENCES_FIELD[kind])[crane]
        tasks = [self.quay_task[i] + kind for i in ships]
        left = [i for i in ships if i not in sequence]
        step, place = 0, None
        if kind == QUAY:
            step = self.instance.qc_unit_travel
            place = {t: self.bay[i] for i, t in zip(ships, tasks)}
        return _Resource(
            kind, tasks, sum(self.duration[t] for t in tasks), left,
            crane_arcs(self.instance, self.derived, kind, sequence, left, location),
            step, place,
        )

    def tail(self, transfer: list[Arc]) -> list[int]:
        """Each task's tail: a shipment's first task is followed by its
        transfer arc's wait, less its own duration, then its second task."""
        tail = [0] * len(self.duration)
        for u, v, weight in transfer:
            tail[u] = weight - self.duration[u] + self.duration[v]
        return tail

    def quay(
        self, qc_of: Mapping[int, int]
    ) -> tuple[list[tuple[int, int, int, int]], dict[int, _Resource]]:
        """The interference tuples a quay assignment selects, and the
        records of the maximal cliques of its assigned quay tasks' conflict
        graph by rank, less those equal to one crane's tasks.

        Two tasks conflict when they share a crane or an active interference
        tuple: every interference time is positive, so neither may overlap
        the other.  Bron-Kerbosch with pivoting, in id order, once per
        quay assignment; so is each clique's least interference time.
        """
        key = tuple(qc_of.get(i) for i in self.ship_ids)
        if key in self._quay:
            return self._quay[key]
        active = active_interference(self.derived, qc_of)
        ships = [i for i in self.ship_ids if i in qc_of]

        def by_id(group) -> list[int]:
            return [i for i in ships if i in group]

        near = {i: {j for j in ships if j != i and qc_of[j] == qc_of[i]} for i in ships}
        for i, j, _, _ in active:
            near[i].add(j)
            near[j].add(i)
        found: list[list[int]] = []

        def extend(clique: set[int], candidates: set[int], excluded: set[int]) -> None:
            if not candidates:
                if not excluded:
                    found.append(by_id(clique))
                return
            pivot = max(by_id(candidates | excluded),
                        key=lambda u: len(near[u] & candidates))
            for i in by_id(candidates - near[pivot]):
                extend(clique | {i}, candidates & near[i], excluded & near[i])
                candidates = candidates - {i}
                excluded = excluded | {i}

        extend(set(), set(ships), set())
        own = crane_members(self.instance, QUAY, qc_of).values()
        interference = self.derived.interference_time
        task = self.quay_task
        cliques = {
            rank: _Resource(
                None, [task[i] for i in clique],
                sum(self.duration[task[i]] for i in clique), [], [],
                min(interference[t] for t in active
                    if t[0] in clique and t[1] in clique),
                {task[i]: qc_of[i] for i in clique},
            )
            for rank, clique in enumerate(c for c in found if c not in own)
        }
        self._quay[key] = active, cliques
        return active, cliques

    # -- propagation -----------------------------------------------------

    def propagate(
        self, node: SearchNode, facts: _Facts
    ) -> Optional[tuple[SearchNode, dict[int, int]]]:
        """The node at its propagation fixpoint and its vessel bounds; None
        means pruned.

        Each round relaxes, tightens the latest starts, then infers; the loop
        ends on a prune or on a round that inferred nothing.  So the node
        returned satisfies every arc of ``precedence_arcs`` for its
        decisions, ``qc_of`` and orders, its latest starts are at their
        fixpoint and neither ``_pairwise`` nor ``_force_orders`` infers more;
        as every arc weighs at least 1, a leaf has an acyclic graph.  A round
        that goes on decides an active tuple or raises an earliest start by
        at least 1, the only change ``_pairwise`` reports.  Earliest starts
        only rise, latest starts only fall from the horizon, and a start past
        its latest start prunes: at most |active| + sum_t (horizon + 1) rounds go on."""
        est = list(node.est)
        lct = list(node.lct)
        order = dict(node.interference_order)

        # Too few locations for the inbound shipments: no node completes.
        if len(self.inbound_ids) > len(self.available):
            return None

        # The arcs precedence_arcs gives for the node and its working order:
        # its facts' arcs, then the orders, each newly forced one appended.
        arcs = list(facts.transfer)
        for resource in facts.resources.values():
            arcs += resource.arcs
        arcs += order_arcs(self.derived, order)
        while True:  # arcs + inferences
            if not self._relax(arcs, est):
                return None
            vessel_lb = self._tighten_lct(facts.tail, arcs, est, lct)
            if any(map(gt, est, lct)):
                return None
            changed = self._pairwise(facts, est, lct)
            if changed is None:
                return None
            forced = self._force_orders(facts, order, est, lct)
            if forced is None:
                return None
            if not (changed or forced):
                break
            arcs += forced
        return SearchNode(
            node.yard_assignment, node.qc_sequences, node.yc_sequences, order,
            node.qc_of, tuple(est), tuple(lct),
        ), vessel_lb

    def _relax(self, arcs: list[Arc], est: list[int]) -> bool:
        """``relax``, counting its raises as propagations; False means a
        positive cycle."""
        settled, raises = relax(arcs, est)
        self.report.propagations += raises
        return settled

    def _tighten_lct(
        self,
        tail: list[int],
        arcs: list[tuple[int, int, int]],
        est: list[int],
        lct: list[int],
    ) -> dict[int, int]:
        """Cap each task's latest start by the incumbent, then pull it back
        along the arcs until a walk changes nothing; returns the vessel
        bounds of ``est`` that the caps came from.  ``relax`` has just
        settled these arcs, which weigh at least 1, so they have no cycle and
        settle within ``len(lct)`` walks.  They mostly run forward along the
        crane chains, so a reversed walk pulls back a whole chain at once."""
        vessel_lb = self._vessel_bounds(est, tail)
        caps: dict[int, int] = {}
        total = sum(self.weight[s] * lb for s, lb in vessel_lb.items())
        for vessel_id, lb in vessel_lb.items():
            if self.incumbent is None:
                caps[vessel_id] = self.horizon
            else:
                others = total - self.weight[vessel_id] * lb
                caps[vessel_id] = (self.incumbent - 1 - others) // self.weight[vessel_id]
        raises = 0
        for task, (vessel_id, duration, rest) in enumerate(
            zip(self.vessel_of_task, self.duration, tail)
        ):
            deadline = caps[vessel_id] - duration - rest
            if deadline < lct[task]:
                lct[task] = deadline
                raises += 1
        changed = True
        while changed:
            changed = False
            for u, v, weight in reversed(arcs):
                candidate = lct[v] - weight
                if candidate < lct[u]:
                    lct[u] = candidate
                    changed = True
                    raises += 1
        self.report.propagations += raises
        return vessel_lb

    def _pairwise(
        self, facts: _Facts, est: list[int], lct: list[int]
    ) -> Optional[bool]:
        """Disjunctive reasoning between unsequenced tasks on one crane."""
        duration = self.duration
        changed = False
        raises = 0
        task = self.quay_task
        for resource in facts.resources.values():
            if len(resource.left) < 2:
                continue
            kind, travel = resource.kind, self.travel[resource.kind]
            spot = facts.location if kind == YARD else self.bay
            for a, b in combinations(resource.left, 2):
                ta, tb, sa, sb = task[a] + kind, task[b] + kind, spot[a], spot[b]
                a_done = est[ta] + duration[ta] + travel[sa, sb]
                b_done = est[tb] + duration[tb] + travel[sb, sa]
                a_first, b_first = a_done <= lct[tb], b_done <= lct[ta]
                if not a_first and not b_first:
                    self.report.propagations += raises
                    return None
                if a_first != b_first:  # one order left: push the second
                    later, ready = (tb, a_done) if a_first else (ta, b_done)
                    if ready > est[later]:
                        est[later] = ready
                        raises += 1
                        changed = True
        self.report.propagations += raises
        return changed

    def _force_orders(
        self,
        facts: _Facts,
        order: dict,
        est: list[int],
        lct: list[int],
    ) -> Optional[list[Arc]]:
        """Decide interference tuples whose disjunction has one side left.

        Returns the arcs of the orders decided, as ``order_arcs`` gives them,
        in the order they were added to ``order``; None when a tuple has no
        side left.
        """
        separation = self.derived.separation_arcs
        forced = []
        for key in facts.active:
            if key in order:
                continue
            (ti, tj, gap_i), (_, _, gap_j) = separation[key]
            i_possible = est[ti] + gap_i <= lct[tj]
            j_possible = est[tj] + gap_j <= lct[ti]
            if not i_possible and not j_possible:
                return None
            if i_possible != j_possible:
                order[key] = J_FIRST if j_possible else I_FIRST
                forced.append(separation[key][j_possible])
        return forced

    def _vessel_bounds(self, est: list[int], tail: list[int]) -> dict[int, int]:
        bounds = dict.fromkeys(self.weight, 0)
        for start, duration, rest, vessel_id in zip(
            est, self.duration, tail, self.vessel_of_task
        ):
            if start + duration + rest > bounds[vessel_id]:
                bounds[vessel_id] = start + duration + rest
        return bounds

    # -- bounding ---------------------------------------------------------

    def lower_bound(
        self, node: SearchNode, facts: _Facts, vessel_lb: dict[int, int]
    ) -> int:
        """The best of the vessel bounds ``vessel_lb`` of ``node.est`` and,
        per unary resource, the head-body-tail bound of each set of its tasks
        that start no earlier than some head: the last of them to run ends
        no earlier than that head plus their work and the transitions
        between them, and its vessel then ends no earlier than that plus its
        tail.

        The transitions stay admissible because every task of the set starts
        no earlier than the head, whatever order they run in:

        - Any two tasks of a clique on different cranes form an active
          tuple, so whichever starts second waits for the first one's end
          plus the tuple's separation, even if other tasks run between them.
          A set over c cranes changes crane at least c - 1 times, each
          costing at least the clique's least interference time.
        - A quay crane that visits a set of bays travels at least their
          span, ``qc_unit_travel`` per bay.

        Yard cranes get no transition term: tried as the least travel
        between the set's locations, it proved no more instances and made
        each node more costly.

        A resource with one task is skipped: its term is that task's
        ``est + duration + tail``, which its vessel's bound already holds."""
        est, tail, duration = node.est, facts.tail, self.duration
        vessel_of, weight = self.vessel_of_task, self.weight
        best = sum(weight[s] * lb for s, lb in vessel_lb.items())
        for kind, tasks, _, _, _, step, place in facts.resources.values():
            if len(tasks) < 2:
                continue
            work = moves = 0
            least: dict[int, int] = {}  # per vessel, the least tail so far
            seen: set[int] = set()  # a quay crane's bays, a clique's cranes
            for t in sorted(tasks, key=est.__getitem__, reverse=True):
                work += duration[t]
                if step:
                    seen.add(place[t])
                    moves = max(seen) - min(seen) if kind == QUAY else len(seen) - 1
                vessel = vessel_of[t]
                if vessel not in least or tail[t] < least[vessel]:
                    least[vessel] = tail[t]
                head = est[t] + work + step * moves
                # The least over vessels is at most this task's own term.
                if weight[vessel] * (head + least[vessel]) > best:
                    best = max(best, min(
                        weight[v] * (head + rest) for v, rest in least.items()
                    ))
        return best

    # -- branching --------------------------------------------------------

    def _children(self, node: SearchNode, facts: _Facts):
        """The node's children, each with its facts, in search order; None
        once every decision is made.  A child is built only when the search
        reaches it."""
        ship = next(
            (i for i in self.inbound_ids if i not in node.yard_assignment), None
        )
        if ship is not None:  # identical domains, lowest id first
            return self._placed(node, facts, ship)

        unassigned_qc = [i for i in self.ship_ids if i not in node.qc_of]
        if unassigned_qc:
            eligible = self.derived.eligible_qcs
            ship = min(unassigned_qc, key=lambda i: (len(eligible[i]), i))
            cranes = sorted(
                eligible[ship], key=lambda q: (facts.resources[QUAY, q].workload, q)
            )
            return self._with_facts(
                SearchNode(node.yard_assignment, node.qc_sequences,
                           node.yc_sequences, node.interference_order,
                           {**node.qc_of, ship: q}, node.est, node.lct)
                for q in cranes
            )

        # The most loaded crane with shipments left to sequence; keys never
        # tie, and a clique has none left, so its key meets no crane's.
        pending = [(-r.workload, key) for key, r in facts.resources.items() if r.left]
        if pending:
            return self._sequenced(node, facts, min(pending)[1])

        est, decided = node.est, node.interference_order
        free_orders: dict[tuple[int, int, int, int], str] = {}
        for key in facts.active:
            if key in decided:
                continue
            (ti, tj, gap_i), (_, _, gap_j) = self.derived.separation_arcs[key]
            if est[tj] >= est[ti] + gap_i:
                free_orders[key] = I_FIRST
            elif est[ti] >= est[tj] + gap_j:
                free_orders[key] = J_FIRST
            else:
                directions = (
                    (I_FIRST, J_FIRST) if est[ti] <= est[tj] else (J_FIRST, I_FIRST)
                )
                return (
                    (self._ordered(node, {**decided, key: d}), facts)
                    for d in directions
                )
        if free_orders:  # dominated directions are fixed in one child
            return [(self._ordered(node, {**decided, **free_orders}), facts)]
        return None

    @staticmethod
    def _ordered(node: SearchNode, order: dict) -> SearchNode:
        return SearchNode(node.yard_assignment, node.qc_sequences,
                          node.yc_sequences, order, node.qc_of, node.est, node.lct)

    def _with_facts(self, children):
        """Each of ``children`` with its facts built in full."""
        for child in children:
            yield child, self.facts(child)

    def _placed(self, node: SearchNode, facts: _Facts, ship: int):
        """The children that give inbound shipment ``ship`` each free
        location, in (transfer time, id) order.

        The free locations are the available ones less the node's, listed
        once per expansion.  A child carries its parent's facts and rebuilds
        only what a location changes: the location map, the transfer arcs and
        tails (the least free transfer time may move) and the record of the
        location's yard crane, whose members ``crane_members`` gives.  The
        quay assignment, and so the active tuples and cliques, stay as they
        are.

        A location gets no child, counted in ``dominated``, when a free twin
        of lower id exists, or when the free locations that dominate some
        used location would outnumber the inbound shipments still unplaced
        after the child (the hole rule): some dominator of a used location
        then stays free in every completion.

        Both rules keep an optimal solution.  Moving a shipment from b to a
        free dominator a lowers no arc weight's bound: its transfer and its
        yard crane's trips to and from it stay or fall, so no start moves
        later.  The move also strictly lowers the sum of the used locations'
        ranks in (transfer time, id) order.  Swapping the shipments of two
        twins changes no arc at all.  So take, among the optimal solutions
        with the least rank sum, the one whose locations in shipment id
        order come first.  No used location of it has a free dominator; and
        a twin of lower id, free when a shipment is placed, would either stay
        free, a dominator of a used location, or take a later shipment, which
        a swap would place first.  Neither rule cuts that solution.
        """
        placed = node.yard_assignment
        taken = set(placed.values())
        free = [k for k in self.available if k not in taken]
        holes = {a for b in taken for a in self.dominators[b]} - taken
        left = len(self.inbound_ids) - len(placed) - 1
        for k in free:
            if any(t not in taken for t in self.twins[k]) or len(
                holes.union(self.dominators[k] - taken) - {k}
            ) > left:
                self.report.dominated += 1
                continue
            yard = {**placed, ship: k}
            child = SearchNode(yard, node.qc_sequences, node.yc_sequences,
                               node.interference_order, node.qc_of, node.est, node.lct)
            location = {**facts.location, ship: k}
            key = (YARD, self.yc_at[k])
            members = crane_members(
                self.instance, YARD, yard_cranes(self.instance, location)
            )[key[1]]
            record = self.crane(child, key, members, location)
            resources = {**facts.resources, key: record}
            transfer = transfer_arcs(self.instance, self.derived, yard)
            yield child, facts._replace(
                location=location,
                tail=self.tail(transfer),
                transfer=transfer,
                resources=resources,
            )

    def _sequenced(self, node: SearchNode, facts: _Facts, key: tuple[int, int]):
        """The children that append one shipment to crane ``key``'s sequence.

        A child carries its parent's resource records and rebuilds only this
        crane's: building its facts in full gives the same trees but makes a
        node about 1.6 to 1.8 times as costly.

        A shipment that cannot go first gets no child (the not-first rule):
        when it cannot end and travel to some other shipment left on the
        crane before that one's latest start, the arc its child adds lifts
        that start above its latest one.  The child's windows only tighten
        from the parent's, even under a better incumbent, so its propagation
        would return None.
        """
        kind, crane = key
        record = facts.resources[key]
        sequences = getattr(node, _SEQUENCES_FIELD[kind])
        task, duration, travel = self.quay_task, self.duration, self.travel[kind]
        spot = facts.location if kind == YARD else self.bay
        est, lct = node.est, node.lct
        for ship in sorted(record.left, key=lambda i: (est[task[i] + kind], i)):
            t = task[ship] + kind
            done, at = est[t] + duration[t], spot[ship]
            if any(done + travel[at, spot[u]] > lct[task[u] + kind]
                   for u in record.left if u != ship):
                self.report.not_first += 1
                continue
            sequence = sequences[crane] + (ship,)
            chosen = {**sequences, crane: sequence}
            qc_sequences, yc_sequences = (
                (chosen, node.yc_sequences) if kind == QUAY
                else (node.qc_sequences, chosen)
            )
            child = SearchNode(node.yard_assignment, qc_sequences, yc_sequences,
                               node.interference_order, node.qc_of, est, lct)
            left = [i for i in record.left if i != ship]
            arcs = crane_arcs(
                self.instance, self.derived, kind, sequence, left, facts.location
            )
            resources = {**facts.resources, key: record._replace(left=left, arcs=arcs)}
            yield child, facts._replace(resources=resources)

    def _offer_incumbent(self, solution: Solution) -> None:
        if self.incumbent is None or solution.objective < self.incumbent:
            self.incumbent = solution.objective
            self.best = solution
            self.report.incumbent_trace.append(
                (time.monotonic() - self.started, solution.objective)
            )

    def constructive(self, root: SearchNode, facts: _Facts) -> Optional[Solution]:
        """One complete schedule built without search; None when the root
        propagates to None, as it does when the inbound shipments outnumber
        the free locations.

        The shipments are ranked by their quay task's earliest start at the
        propagated root, then by id.  Inbound shipments, in id order, take
        the free locations by (transfer time, id).  In rank order, each
        shipment takes the eligible quay crane with the least quay time
        given to it so far, the lowest id on ties.  Every crane sequence and
        every interference order puts the lower rank first.

        The precedence graph is then acyclic.  An arc inside one shipment is
        its transfer arc, one per shipment; every other arc, a crane chain's
        or an interference order's, points from a lower rank to a higher
        one.  A cycle visits two shipments, so it climbs in rank on some arc
        and no arc brings it back down.  A ``CyclicOrdering`` here is
        therefore an internal error.
        """
        propagated = self.propagate(root, facts)
        if propagated is None:
            return None
        est, task = propagated[0].est, self.quay_task
        ranked = sorted(self.ship_ids, key=lambda i: (est[task[i]], i))
        rank = {i: r for r, i in enumerate(ranked)}
        yard = dict(zip(self.inbound_ids, self.available))
        location = locations(self.instance, yard)
        eligible = self.derived.eligible_qcs
        load = dict.fromkeys(range(1, self.instance.qc_count + 1), 0)
        qc_sequences = {q: [] for q in load}
        yc_sequences = {c: [] for c in range(1, self.instance.yc_count + 1)}
        for i in ranked:
            q = min(eligible[i], key=lambda q: (load[q], q))
            load[q] += self.duration[task[i]]
            qc_sequences[q].append(i)
            yc_sequences[self.yc_at[location[i]]].append(i)
        decisions = Decisions(
            yard_assignment=yard,
            qc_sequences={q: tuple(s) for q, s in qc_sequences.items()},
            yc_sequences={c: tuple(s) for c, s in yc_sequences.items()},
            # compute_schedule reads the orders of the active tuples only.
            interference_order={
                key: I_FIRST if rank[key[0]] < rank[key[1]] else J_FIRST
                for key in self.derived.interference_set
            },
        )
        try:
            return compute_schedule(self.instance, self.derived, decisions)
        except CyclicOrdering as error:  # pragma: no cover - see the docstring
            raise IpctpError(f"constructive schedule is cyclic: {error}") from error

    def _search(self, node: SearchNode, facts: _Facts) -> Optional[int]:
        """Depth-first search from ``node`` on an explicit stack: an entry per
        expanded node on the current path, holding its bound and the children
        it has left.  A child is built only when the loop draws it.

        Returns None once the tree is exhausted.  On timeout it returns the
        least bound of the open subtrees: every one hangs below an entry."""
        stack: list[tuple[int, Iterator[tuple[SearchNode, _Facts]]]] = []
        report = self.report
        while True:
            report.nodes += 1
            # Every node past the root reads the clock; the root's entry is
            # then always on the stack.
            if stack and time.monotonic() > self.deadline:
                return min(bound for bound, _ in stack)
            entry = self._expand(node, facts)
            if entry is not None:
                stack.append(entry)
            while stack and (child := next(stack[-1][1], None)) is None:
                stack.pop()
            if not stack:
                return None
            node, facts = child

    def _expand(self, node: SearchNode, facts: _Facts):
        """The node's stack entry, its bound and its children; None when it
        is pruned or a leaf, which is scheduled and offered as incumbent."""
        propagated = self.propagate(node, facts)
        if propagated is None:
            self.report.infeasible += 1
            return None
        node, vessel_lb = propagated
        bound = self.lower_bound(node, facts, vessel_lb)
        if self.incumbent is not None and bound >= self.incumbent:
            self.report.bounded += 1
            return None
        children = self._children(node, facts)
        if children is not None:
            return bound, iter(children)
        self._offer_incumbent(compute_schedule(self.instance, self.derived, node))
        return None


def propagate(
    instance: Instance,
    derived: DerivedTables,
    node: SearchNode,
    incumbent: Optional[int] = None,
) -> Optional[SearchNode]:
    """Tighten a node's windows to their fixpoint; None means pruned.  The
    node returned satisfies all its ``precedence_arcs``, with latest starts
    at their fixpoint, so a leaf is acyclic: see ``_Engine.propagate``."""
    engine = _Engine(instance, derived)
    engine.incumbent = incumbent
    propagated = engine.propagate(node, engine.facts(node))
    return None if propagated is None else propagated[0]


def lower_bound(
    instance: Instance, derived: DerivedTables, node: SearchNode
) -> int:
    """Admissible lower bound on any feasible completion of the node."""
    engine = _Engine(instance, derived)
    facts = engine.facts(node)
    return engine.lower_bound(node, facts, engine._vessel_bounds(node.est, facts.tail))


def root_node(instance: Instance, derived: DerivedTables) -> SearchNode:
    return _Engine(instance, derived).root()


def solve(
    instance: Instance,
    derived: DerivedTables,
    params: SolveParams = SolveParams(),
) -> tuple[SolveReport, Optional[Solution]]:
    """Branch and bound with an anytime incumbent and optimality proof.

    The returned solution, when present, passes ``validate`` with zero
    violations; status "optimal" means the search tree was exhausted.

    The engine's constructive schedule, when there is one, is the first
    incumbent, offered before the search's root.  Building it costs one
    root propagation and one ``compute_schedule`` more before the search
    first reads the clock; both count in the wall time and the limit.
    """
    if not params.time_limit > 0:  # NaN too: no clock reading exceeds it
        raise IpctpError("time_limit must be positive")
    if params.workers != 1:
        raise IpctpError("workers must be 1: solves are single-threaded")
    engine = _Engine(instance, derived, params.time_limit)
    root = engine.root()
    facts = engine.facts(root)
    if (first := engine.constructive(root, facts)) is not None:
        engine._offer_incumbent(first)
    open_lb = engine._search(root, facts)

    report = engine.report
    report.wall_time = time.monotonic() - engine.started
    report.best_objective = best = lb = engine.incumbent
    if open_lb is None:
        report.status = "infeasible" if best is None else "optimal"
    else:
        report.status = "feasible" if best is not None else "unknown"
        lb = open_lb if best is None else min(open_lb, best)
    report.lower_bound = lb

    if best is not None and lb is not None and best > 0:
        report.gap_percent = (best - lb) * 100.0 / best
    elif best is not None and best == lb:
        report.gap_percent = 0.0

    solution = None
    if engine.best is not None:
        solution = engine.best.with_status(
            "optimal" if report.status == "optimal" else "feasible"
        )
        problems = validate(instance, derived, solution)
        if problems:  # pragma: no cover - internal consistency guard
            raise IpctpError(f"solver produced an invalid solution: {problems[0]}")
    return report, solution
