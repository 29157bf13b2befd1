"""Exact anytime branch-and-bound over assignment, sequencing and ordering.

Search order: yard locations for inbound shipments, then quay-crane
assignment, then rank-based sequencing on the most loaded crane, then the
interference disjunctions (branched lazily, only when both sides are
assigned and their time windows still overlap).  Every node keeps earliest
and latest start windows that only tighten along a branch; an admissible
lower bound prunes against the incumbent.  All arithmetic is exact integer
arithmetic, tie-breaking is by lowest id and the search is single-threaded,
so runs are reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import Mapping, NamedTuple, Optional

from .instance import DerivedTables, Instance
from .mip import default_big_m
from .schedule import (
    Decisions,
    I_FIRST,
    J_FIRST,
    Solution,
    active_interference,
    compute_schedule,
    precedence_arcs,
    validate,
)
from .errors import CyclicOrdering, IpctpError


@dataclass(frozen=True)
class SolveParams:
    time_limit: float = 600.0
    # Solves are single-threaded; any value but 1 is rejected.
    workers: int = 1


@dataclass
class SolveReport:
    best_objective: Optional[int]
    lower_bound: Optional[int]
    gap_percent: Optional[float]
    status: str
    nodes: int
    propagations: int
    wall_time: float
    incumbent_trace: list[tuple[float, int]] = field(default_factory=list)

    def to_payload(self) -> dict:
        return {
            "best_objective": self.best_objective,
            "lower_bound": self.lower_bound,
            "gap_percent": self.gap_percent,
            "status": self.status,
            "nodes": self.nodes,
            "propagations": self.propagations,
            "wall_time": self.wall_time,
            "incumbent_trace": [[t, obj] for t, obj in self.incumbent_trace],
        }


@dataclass(frozen=True)
class SearchNode:
    """Partial decisions plus per-task start-time windows [est, lct]."""

    yard: Mapping[int, int]
    qc_of: Mapping[int, int]
    qc_prefix: Mapping[int, tuple[int, ...]]
    yc_prefix: Mapping[int, tuple[int, ...]]
    order: Mapping[tuple[int, int, int, int], str]
    est: tuple[int, ...]
    lct: tuple[int, ...]


# Crane kinds; a shipment's task of a kind is ``2 * position + kind``.
QUAY, YARD = 0, 1
# The SearchNode field holding each kind's crane sequences.
_PREFIX_FIELD = ("qc_prefix", "yc_prefix")


class _Facts(NamedTuple):
    """What a node's decisions fix; propagation leaves all of it unchanged."""

    # Yard location of every shipment that has one.
    location: dict[int, int]
    # Per kind (quay first), each crane's shipments in id order.
    members: tuple[dict[int, list[int]], dict[int, list[int]]]
    # Shortest remaining chain after each task ends.
    tail: list[int]
    # Inbound locations no shipment holds yet, in id order.
    free: list[int]


class _Timeout(Exception):
    pass


class _Context:
    """Immutable per-instance data shared by every node."""

    def __init__(self, instance: Instance, derived: DerivedTables):
        self.instance = instance
        self.derived = derived
        ships = sorted(instance.shipments, key=lambda s: s.id)
        self.ship_ids = [s.id for s in ships]
        self.pos = {s.id: p for p, s in enumerate(ships)}
        self.n_tasks = 2 * len(ships)
        self.inbound_ids = [s.id for s in ships if s.is_inbound]
        self.available = sorted(k.id for k in instance.inbound_available_locations)
        self.eligible = {i: sorted(derived.eligible_qcs[i]) for i in self.ship_ids}
        self.qc_ids = list(range(1, instance.qc_count + 1))
        self.yc_ids = list(range(1, instance.yc_count + 1))
        self.yc_at = {k.id: k.yc for k in instance.yard_locations}
        self.fixed_location = {s.id: s.fixed_location for s in ships if s.is_outbound}
        self.delta = derived.interference_time
        self.duration = [0] * self.n_tasks
        self.vessel_of_task = [0] * self.n_tasks
        # Tails that no decision changes; an inbound quay task's depends on
        # its location and is filled in per node.
        self.tail = [0] * self.n_tasks
        for s in ships:
            quay, yard = self.task(s.id, QUAY), self.task(s.id, YARD)
            self.duration[quay], self.duration[yard] = s.qc_time, s.yc_time
            self.vessel_of_task[quay] = self.vessel_of_task[yard] = s.vessel
            if s.is_outbound:
                self.tail[yard] = s.yt_outbound_time + s.qc_time
        self.weight = {v.id: v.weight for v in instance.vessels}
        self.min_tt = min(instance.yt_inbound_transfer.values(), default=0)
        self.horizon = default_big_m(instance, derived)

    def task(self, ship_id: int, kind: int) -> int:
        return 2 * self.pos[ship_id] + kind

    def transition(self, kind: int, a: int, b: int, location: Mapping[int, int]) -> int:
        """Empty travel of a crane of the kind from shipment a to shipment b."""
        if kind == QUAY:
            return self.derived.qc_empty_travel[(a, b)]
        return self.instance.tyc(location[a], location[b])

    def root(self) -> SearchNode:
        return SearchNode(
            yard={},
            qc_of={i: self.eligible[i][0] for i in self.ship_ids
                   if len(self.eligible[i]) == 1},
            qc_prefix={q: () for q in self.qc_ids},
            yc_prefix={c: () for c in self.yc_ids},
            order={},
            est=(0,) * self.n_tasks,
            lct=(self.horizon,) * self.n_tasks,
        )

    def facts(self, node: SearchNode) -> _Facts:
        location = {**self.fixed_location, **node.yard}
        members = ({q: [] for q in self.qc_ids}, {c: [] for c in self.yc_ids})
        for i in self.ship_ids:
            if i in node.qc_of:
                members[QUAY][node.qc_of[i]].append(i)
            if i in location:
                members[YARD][self.yc_at[location[i]]].append(i)
        tail = list(self.tail)
        for i in self.inbound_ids:
            k = node.yard.get(i)
            transfer = self.instance.tt(k) if k is not None else self.min_tt
            tail[self.task(i, QUAY)] = transfer + self.duration[self.task(i, YARD)]
        taken = set(node.yard.values())
        free = [k for k in self.available if k not in taken]
        return _Facts(location, members, tail, free)


class _Engine:
    def __init__(self, ctx: _Context, params: SolveParams):
        self.ctx = ctx
        self.deadline = time.monotonic() + params.time_limit
        self.started = time.monotonic()
        self.incumbent: Optional[int] = None
        self.best_decisions: Optional[Decisions] = None
        self.trace: list[tuple[float, int]] = []
        self.nodes = 0
        self.propagations = 0
        self.root_lb = 0
        self.frontier_lbs: list[int] = []
        self.interrupt_lb: Optional[int] = None

    # -- propagation -----------------------------------------------------

    def propagate(self, node: SearchNode, facts: _Facts) -> Optional[SearchNode]:
        ctx = self.ctx
        n = ctx.n_tasks
        est = list(node.est)
        lct = list(node.lct)
        order = dict(node.order)

        unassigned = sum(1 for i in ctx.inbound_ids if i not in node.yard)
        if unassigned > len(facts.free):
            return None

        for _ in range(40):  # joint fixpoint of arcs + disjunctive inferences
            arcs = precedence_arcs(
                ctx.instance, ctx.derived, node.yard, node.qc_of,
                node.qc_prefix, node.yc_prefix, order,
            )
            if not self._relax(arcs, est):
                return None
            self._tighten_lct(facts.tail, arcs, est, lct)
            for task in range(n):
                if est[task] > lct[task]:
                    return None
            changed = self._pairwise(node, facts, est, lct)
            if changed is None:
                return None
            forced = self._force_orders(node, order, est, lct)
            if forced is None:
                return None
            if not (changed or forced):
                break
        return replace(node, order=order, est=tuple(est), lct=tuple(lct))

    def _relax(self, arcs: list[tuple[int, int, int]], est: list[int]) -> bool:
        for round_no in range(self.ctx.n_tasks + 2):
            changed = False
            for u, v, weight in arcs:
                candidate = est[u] + weight
                if candidate > est[v]:
                    est[v] = candidate
                    changed = True
                    self.propagations += 1
            if not changed:
                return True
        return False  # positive cycle

    def _tighten_lct(
        self,
        tail: list[int],
        arcs: list[tuple[int, int, int]],
        est: list[int],
        lct: list[int],
    ) -> None:
        ctx = self.ctx
        vessel_lb = self._vessel_bounds(est, tail)
        caps: dict[int, int] = {}
        total = sum(ctx.weight[s] * lb for s, lb in vessel_lb.items())
        for vessel_id, lb in vessel_lb.items():
            if self.incumbent is None:
                caps[vessel_id] = ctx.horizon
            else:
                others = total - ctx.weight[vessel_id] * lb
                caps[vessel_id] = (self.incumbent - 1 - others) // ctx.weight[vessel_id]
        for task in range(ctx.n_tasks):
            cap = caps[ctx.vessel_of_task[task]]
            deadline = cap - ctx.duration[task] - tail[task]
            if deadline < lct[task]:
                lct[task] = deadline
                self.propagations += 1
        for _ in range(ctx.n_tasks + 2):
            changed = False
            for u, v, weight in arcs:
                candidate = lct[v] - weight
                if candidate < lct[u]:
                    lct[u] = candidate
                    changed = True
                    self.propagations += 1
            if not changed:
                break

    def _pairwise(
        self, node: SearchNode, facts: _Facts, est: list[int], lct: list[int]
    ) -> Optional[bool]:
        """Disjunctive reasoning between unsequenced tasks on one crane."""
        ctx = self.ctx
        duration, transition, location = ctx.duration, ctx.transition, facts.location
        changed = False
        for kind, cranes in enumerate(facts.members):
            prefixes = getattr(node, _PREFIX_FIELD[kind])
            for crane, members in cranes.items():
                left = [i for i in members if i not in prefixes[crane]]
                for a, b in combinations(left, 2):
                    ta, tb = ctx.task(a, kind), ctx.task(b, kind)
                    a_done = est[ta] + duration[ta] + transition(kind, a, b, location)
                    b_done = est[tb] + duration[tb] + transition(kind, b, a, location)
                    a_first, b_first = a_done <= lct[tb], b_done <= lct[ta]
                    if not a_first and not b_first:
                        return None
                    if a_first != b_first:  # one order left: push the second
                        later, ready = (tb, a_done) if a_first else (ta, b_done)
                        if ready > est[later]:
                            est[later] = ready
                            self.propagations += 1
                            changed = True
        return changed

    def _force_orders(
        self,
        node: SearchNode,
        order: dict,
        est: list[int],
        lct: list[int],
    ) -> Optional[bool]:
        """Decide interference tuples whose disjunction has one side left."""
        ctx = self.ctx
        forced = False
        for key in active_interference(ctx.derived, node.qc_of):
            if key in order:
                continue
            i, j, _, _ = key
            ti, tj = ctx.task(i, QUAY), ctx.task(j, QUAY)
            sep = ctx.delta[key]
            i_possible = est[ti] + ctx.duration[ti] + sep <= lct[tj]
            j_possible = est[tj] + ctx.duration[tj] + sep <= lct[ti]
            if not i_possible and not j_possible:
                return None
            if i_possible and not j_possible:
                order[key] = I_FIRST
                forced = True
            elif j_possible and not i_possible:
                order[key] = J_FIRST
                forced = True
        return forced

    def _vessel_bounds(self, est: list[int], tail: list[int]) -> dict[int, int]:
        ctx = self.ctx
        bounds = {v.id: 0 for v in ctx.instance.vessels}
        for task in range(ctx.n_tasks):
            completion = est[task] + ctx.duration[task] + tail[task]
            vessel_id = ctx.vessel_of_task[task]
            if completion > bounds[vessel_id]:
                bounds[vessel_id] = completion
        return bounds

    # -- bounding ---------------------------------------------------------

    def lower_bound(self, node: SearchNode, facts: _Facts) -> int:
        ctx = self.ctx
        vessel_lb = self._vessel_bounds(node.est, facts.tail)
        best = sum(ctx.weight[s] * lb for s, lb in vessel_lb.items())
        for kind, cranes in enumerate(facts.members):
            for crane, members in cranes.items():
                tasks = [ctx.task(i, kind) for i in members]
                if kind == QUAY:  # an unassigned shipment with one eligible crane
                    tasks += [
                        ctx.task(i, QUAY) for i in ctx.ship_ids
                        if i not in node.qc_of and ctx.eligible[i] == [crane]
                    ]
                if not tasks:
                    continue
                earliest = min(node.est[t] for t in tasks)
                workload = sum(ctx.duration[t] for t in tasks)
                candidate = min(
                    ctx.weight[ctx.vessel_of_task[t]]
                    * (earliest + workload + facts.tail[t])
                    for t in tasks
                )
                if candidate > best:
                    best = candidate
        return best

    # -- branching --------------------------------------------------------

    def _next_decision(self, node: SearchNode, facts: _Facts):
        ctx = self.ctx
        unassigned_yard = [i for i in ctx.inbound_ids if i not in node.yard]
        if unassigned_yard:
            free = sorted(facts.free, key=lambda k: (ctx.instance.tt(k), k))
            ship = min(unassigned_yard)  # identical domains, lowest id first
            return ("yard", ship, free)

        unassigned_qc = [i for i in ctx.ship_ids if i not in node.qc_of]
        if unassigned_qc:
            ship = min(unassigned_qc, key=lambda i: (len(ctx.eligible[i]), i))
            load = {
                q: sum(ctx.duration[ctx.task(i, QUAY)] for i in members)
                for q, members in facts.members[QUAY].items()
            }
            cranes = sorted(ctx.eligible[ship], key=lambda q: (load[q], q))
            return ("qc", ship, cranes)

        pending: list[tuple[int, int, int, list[int]]] = []
        for kind, cranes in enumerate(facts.members):
            prefixes = getattr(node, _PREFIX_FIELD[kind])
            for crane, members in cranes.items():
                left = [i for i in members if i not in prefixes[crane]]
                if left:
                    load = sum(ctx.duration[ctx.task(i, kind)] for i in members)
                    pending.append((-load, kind, crane, left))
        if pending:
            _, kind, crane, left = min(pending)  # (kind, crane) never ties
            left.sort(key=lambda i: (node.est[ctx.task(i, kind)], i))
            return ("seq", kind, crane, left)

        free_orders: dict[tuple[int, int, int, int], str] = {}
        for key in active_interference(ctx.derived, node.qc_of):
            if key in node.order:
                continue
            i, j, _, _ = key
            ti, tj = ctx.task(i, QUAY), ctx.task(j, QUAY)
            sep = ctx.delta[key]
            if node.est[tj] >= node.est[ti] + ctx.duration[ti] + sep:
                free_orders[key] = I_FIRST
            elif node.est[ti] >= node.est[tj] + ctx.duration[tj] + sep:
                free_orders[key] = J_FIRST
            else:
                directions = (
                    (I_FIRST, J_FIRST)
                    if node.est[ti] <= node.est[tj]
                    else (J_FIRST, I_FIRST)
                )
                return ("order", key, directions)
        if free_orders:
            return ("finalize", free_orders)
        return None

    def _children(self, node: SearchNode, decision):
        kind = decision[0]
        if kind == "yard":
            _, ship, locations = decision
            for location in locations:
                yield replace(node, yard={**node.yard, ship: location})
        elif kind == "qc":
            _, ship, cranes = decision
            for crane in cranes:
                yield replace(node, qc_of={**node.qc_of, ship: crane})
        elif kind == "seq":
            _, crane_kind, crane, candidates = decision
            field_name = _PREFIX_FIELD[crane_kind]
            prefixes = getattr(node, field_name)
            for ship in candidates:
                prefix = {**prefixes, crane: prefixes[crane] + (ship,)}
                yield replace(node, **{field_name: prefix})
        elif kind == "order":
            _, key, directions = decision
            for direction in directions:
                yield replace(node, order={**node.order, key: direction})
        else:  # finalize: dominated directions are fixed in one child
            _, free_orders = decision
            yield replace(node, order={**node.order, **free_orders})

    def _decisions_of(self, node: SearchNode) -> Decisions:
        return Decisions(
            yard_assignment=dict(node.yard),
            qc_sequences={q: tuple(node.qc_prefix[q]) for q in self.ctx.qc_ids},
            yc_sequences={c: tuple(node.yc_prefix[c]) for c in self.ctx.yc_ids},
            interference_order=dict(node.order),
            qc_assignment=dict(node.qc_of),
        )

    def _offer_incumbent(self, objective: int, decisions: Decisions) -> None:
        if self.incumbent is None or objective < self.incumbent:
            self.incumbent = objective
            self.best_decisions = decisions
            self.trace.append((time.monotonic() - self.started, objective))

    def _dfs(self, node: SearchNode) -> None:
        self.nodes += 1
        if self.nodes % 64 == 0 and time.monotonic() > self.deadline:
            # Snapshot the open-subtree bound before the stack unwinds.
            self.interrupt_lb = min(self.frontier_lbs, default=None)
            raise _Timeout
        facts = self.ctx.facts(node)
        tightened = self.propagate(node, facts)
        if tightened is None:
            return
        node = tightened
        bound = self.lower_bound(node, facts)
        if self.incumbent is not None and bound >= self.incumbent:
            return
        decision = self._next_decision(node, facts)
        if decision is None:
            try:
                solution = compute_schedule(
                    self.ctx.instance, self.ctx.derived, self._decisions_of(node)
                )
            except CyclicOrdering:
                return
            self._offer_incumbent(solution.objective, solution.decisions())
            return
        self.frontier_lbs.append(bound)
        try:
            for child in self._children(node, decision):
                self._dfs(child)
        finally:
            self.frontier_lbs.pop()


def propagate(
    instance: Instance,
    derived: DerivedTables,
    node: SearchNode,
    incumbent: Optional[int] = None,
) -> Optional[SearchNode]:
    """Tighten a node's windows to their fixpoint; None means pruned."""
    ctx = _Context(instance, derived)
    engine = _Engine(ctx, SolveParams(time_limit=1e9))
    engine.incumbent = incumbent
    return engine.propagate(node, ctx.facts(node))


def lower_bound(
    instance: Instance, derived: DerivedTables, node: SearchNode
) -> int:
    """Admissible lower bound on any feasible completion of the node."""
    ctx = _Context(instance, derived)
    engine = _Engine(ctx, SolveParams(time_limit=1e9))
    return engine.lower_bound(node, ctx.facts(node))


def root_node(instance: Instance, derived: DerivedTables) -> SearchNode:
    return _Context(instance, derived).root()


def solve(
    instance: Instance,
    derived: DerivedTables,
    params: SolveParams = SolveParams(),
) -> tuple[SolveReport, Optional[Solution]]:
    """Branch and bound with an anytime incumbent and optimality proof.

    The returned solution, when present, passes ``validate`` with zero
    violations; status "optimal" means the search tree was exhausted.
    """
    if params.time_limit <= 0:
        raise IpctpError("time_limit must be positive")
    if params.workers != 1:
        raise IpctpError("workers must be 1: solves are single-threaded")
    ctx = _Context(instance, derived)
    engine = _Engine(ctx, params)
    root = ctx.root()
    engine.root_lb = engine.lower_bound(root, ctx.facts(root))
    try:
        engine._dfs(root)
        completed = True
    except _Timeout:
        completed = False

    wall = time.monotonic() - engine.started
    best = engine.incumbent
    if completed:
        if best is None:
            status = "infeasible"
            lb: Optional[int] = None
        else:
            status = "optimal"
            lb = best
    else:
        status = "feasible" if best is not None else "unknown"
        lb = engine.root_lb if engine.interrupt_lb is None else engine.interrupt_lb
        if best is not None:
            lb = min(lb, best)

    gap = None
    if best is not None and lb is not None and best > 0:
        gap = (best - lb) * 100.0 / best
    elif best is not None and best == lb:
        gap = 0.0

    solution = None
    if engine.best_decisions is not None:
        solution = compute_schedule(instance, derived, engine.best_decisions)
        solution = solution.with_status("optimal" if status == "optimal" else "feasible")
        problems = validate(instance, derived, solution)
        if problems:  # pragma: no cover - internal consistency guard
            raise IpctpError(f"solver produced an invalid solution: {problems[0]}")

    report = SolveReport(
        best_objective=best,
        lower_bound=lb,
        gap_percent=gap,
        status=status,
        nodes=engine.nodes,
        propagations=engine.propagations,
        wall_time=wall,
        incumbent_trace=list(engine.trace),
    )
    return report, solution
