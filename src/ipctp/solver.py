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
from typing import Mapping, Optional

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
    depth: int = 0


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
        self.delta = derived.interference_time
        self.duration = [0] * self.n_tasks
        self.vessel_of_task = [0] * self.n_tasks
        for s in ships:
            self.duration[self.qc_task(s.id)] = s.qc_time
            self.duration[self.yc_task(s.id)] = s.yc_time
            self.vessel_of_task[self.qc_task(s.id)] = s.vessel
            self.vessel_of_task[self.yc_task(s.id)] = s.vessel
        self.weight = {v.id: v.weight for v in instance.vessels}
        self.min_tt = min(instance.yt_inbound_transfer.values(), default=0)
        self.horizon = default_big_m(instance, derived)

    def qc_task(self, ship_id: int) -> int:
        return 2 * self.pos[ship_id]

    def yc_task(self, ship_id: int) -> int:
        return 2 * self.pos[ship_id] + 1

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
            depth=0,
        )

    # -- node geometry helpers ------------------------------------------

    def location_of(self, node: SearchNode, ship_id: int) -> Optional[int]:
        ship = self.instance.shipment(ship_id)
        if ship.is_outbound:
            return ship.fixed_location
        return node.yard.get(ship_id)

    def yc_of(self, node: SearchNode, ship_id: int) -> Optional[int]:
        location = self.location_of(node, ship_id)
        if location is None:
            return None
        return self.instance.location(location).yc

    def tail_min(self, node: SearchNode, task: int) -> int:
        """Shortest remaining chain after the task ends, for bounds/deadlines."""
        ship_id = self.ship_ids[task // 2]
        ship = self.instance.shipment(ship_id)
        if task % 2 == 0:  # quay task
            if ship.is_outbound:
                return 0
            location = node.yard.get(ship_id)
            transfer = (
                self.instance.tt(location) if location is not None else self.min_tt
            )
            return transfer + ship.yc_time
        if ship.is_outbound:
            return ship.yt_outbound_time + ship.qc_time
        return 0


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

    def propagate(self, node: SearchNode) -> Optional[SearchNode]:
        ctx = self.ctx
        n = ctx.n_tasks
        est = list(node.est)
        lct = list(node.lct)
        order = dict(node.order)

        free_locations = [k for k in ctx.available if k not in set(node.yard.values())]
        unassigned = sum(1 for i in ctx.inbound_ids if i not in node.yard)
        if unassigned > len(free_locations):
            return None

        for _ in range(40):  # joint fixpoint of arcs + disjunctive inferences
            arcs = precedence_arcs(
                ctx.instance, ctx.derived, node.yard, node.qc_of,
                node.qc_prefix, node.yc_prefix, order,
            )
            if not self._relax(arcs, est):
                return None
            self._tighten_lct(node, arcs, est, lct)
            for task in range(n):
                if est[task] > lct[task]:
                    return None
            changed = self._pairwise(node, est, lct)
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
        node: SearchNode,
        arcs: list[tuple[int, int, int]],
        est: list[int],
        lct: list[int],
    ) -> None:
        ctx = self.ctx
        vessel_lb = self._vessel_bounds(node, est)
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
            deadline = cap - ctx.duration[task] - ctx.tail_min(node, task)
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
        self, node: SearchNode, est: list[int], lct: list[int]
    ) -> Optional[bool]:
        """Disjunctive reasoning between unsequenced tasks on one crane."""
        ctx = self.ctx
        instance = ctx.instance
        changed = False
        groups: list[tuple[list[int], dict]] = []
        for q in ctx.qc_ids:
            members = [
                i
                for i in ctx.ship_ids
                if node.qc_of.get(i) == q and i not in node.qc_prefix[q]
            ]
            if len(members) > 1:
                groups.append((members, {"kind": "qc"}))
        for c in ctx.yc_ids:
            members = [
                i
                for i in ctx.ship_ids
                if ctx.yc_of(node, i) == c and i not in node.yc_prefix[c]
            ]
            if len(members) > 1:
                groups.append((members, {"kind": "yc"}))

        for members, info in groups:
            for ai in range(len(members)):
                for bi in range(ai + 1, len(members)):
                    a, b = members[ai], members[bi]
                    if info["kind"] == "qc":
                        ta, tb = ctx.qc_task(a), ctx.qc_task(b)
                        trans_ab = ctx.derived.qc_empty_travel[(a, b)]
                        trans_ba = ctx.derived.qc_empty_travel[(b, a)]
                    else:
                        ta, tb = ctx.yc_task(a), ctx.yc_task(b)
                        loc_a = ctx.location_of(node, a)
                        loc_b = ctx.location_of(node, b)
                        trans_ab = instance.tyc(loc_a, loc_b)
                        trans_ba = instance.tyc(loc_b, loc_a)
                    a_first = est[ta] + ctx.duration[ta] + trans_ab <= lct[tb]
                    b_first = est[tb] + ctx.duration[tb] + trans_ba <= lct[ta]
                    if not a_first and not b_first:
                        return None
                    if a_first and not b_first:
                        candidate = est[ta] + ctx.duration[ta] + trans_ab
                        if candidate > est[tb]:
                            est[tb] = candidate
                            self.propagations += 1
                            changed = True
                    elif b_first and not a_first:
                        candidate = est[tb] + ctx.duration[tb] + trans_ba
                        if candidate > est[ta]:
                            est[ta] = candidate
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
            ti, tj = ctx.qc_task(i), ctx.qc_task(j)
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

    def _vessel_bounds(self, node: SearchNode, est: list[int]) -> dict[int, int]:
        ctx = self.ctx
        bounds = {v.id: 0 for v in ctx.instance.vessels}
        for task in range(ctx.n_tasks):
            completion = est[task] + ctx.duration[task] + ctx.tail_min(node, task)
            vessel_id = ctx.vessel_of_task[task]
            if completion > bounds[vessel_id]:
                bounds[vessel_id] = completion
        return bounds

    # -- bounding ---------------------------------------------------------

    def lower_bound(self, node: SearchNode) -> int:
        ctx = self.ctx
        est = list(node.est)
        vessel_lb = self._vessel_bounds(node, est)
        best = sum(ctx.weight[s] * lb for s, lb in vessel_lb.items())

        for q in ctx.qc_ids:
            forced = [
                i
                for i in ctx.ship_ids
                if node.qc_of.get(i) == q
                or (i not in node.qc_of and ctx.eligible[i] == [q])
            ]
            if not forced:
                continue
            earliest = min(est[ctx.qc_task(i)] for i in forced)
            workload = sum(ctx.instance.shipment(i).qc_time for i in forced)
            candidate = min(
                ctx.weight[ctx.instance.shipment(i).vessel]
                * (earliest + workload + ctx.tail_min(node, ctx.qc_task(i)))
                for i in forced
            )
            if candidate > best:
                best = candidate
        for c in ctx.yc_ids:
            forced = [i for i in ctx.ship_ids if ctx.yc_of(node, i) == c]
            if not forced:
                continue
            earliest = min(est[ctx.yc_task(i)] for i in forced)
            workload = sum(ctx.instance.shipment(i).yc_time for i in forced)
            candidate = min(
                ctx.weight[ctx.instance.shipment(i).vessel]
                * (earliest + workload + ctx.tail_min(node, ctx.yc_task(i)))
                for i in forced
            )
            if candidate > best:
                best = candidate
        return best

    # -- branching --------------------------------------------------------

    def _next_decision(self, node: SearchNode):
        ctx = self.ctx
        unassigned_yard = [i for i in ctx.inbound_ids if i not in node.yard]
        if unassigned_yard:
            free = sorted(
                (k for k in ctx.available if k not in set(node.yard.values())),
                key=lambda k: (ctx.instance.tt(k), k),
            )
            ship = min(unassigned_yard)  # identical domains, lowest id first
            return ("yard", ship, free)

        unassigned_qc = [i for i in ctx.ship_ids if i not in node.qc_of]
        if unassigned_qc:
            ship = min(unassigned_qc, key=lambda i: (len(ctx.eligible[i]), i))
            load = {q: 0 for q in ctx.qc_ids}
            for i, q in node.qc_of.items():
                load[q] += ctx.instance.shipment(i).qc_time
            cranes = sorted(ctx.eligible[ship], key=lambda q: (load[q], q))
            return ("qc", ship, cranes)

        pending: list[tuple[int, int, str, int, list[int]]] = []
        for q in ctx.qc_ids:
            members = [i for i in ctx.ship_ids if node.qc_of.get(i) == q]
            left = [i for i in members if i not in node.qc_prefix[q]]
            if left:
                load = sum(ctx.instance.shipment(i).qc_time for i in members)
                pending.append((-load, 0, "qc", q, left))
        for c in ctx.yc_ids:
            members = [i for i in ctx.ship_ids if ctx.yc_of(node, i) == c]
            left = [i for i in members if i not in node.yc_prefix[c]]
            if left:
                load = sum(ctx.instance.shipment(i).yc_time for i in members)
                pending.append((-load, 1, "yc", c, left))
        if pending:
            pending.sort(key=lambda entry: (entry[0], entry[1], entry[3]))
            _, _, kind, crane, left = pending[0]
            task_of = ctx.qc_task if kind == "qc" else ctx.yc_task
            left.sort(key=lambda i: (node.est[task_of(i)], i))
            return ("seq", kind, crane, left)

        free_orders: dict[tuple[int, int, int, int], str] = {}
        for key in active_interference(ctx.derived, node.qc_of):
            if key in node.order:
                continue
            i, j, _, _ = key
            ti, tj = ctx.qc_task(i), ctx.qc_task(j)
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
        depth = node.depth + 1
        if kind == "yard":
            _, ship, locations = decision
            for location in locations:
                yield replace(node, yard={**node.yard, ship: location}, depth=depth)
        elif kind == "qc":
            _, ship, cranes = decision
            for crane in cranes:
                yield replace(node, qc_of={**node.qc_of, ship: crane}, depth=depth)
        elif kind == "seq":
            _, crane_kind, crane, candidates = decision
            field_name = "qc_prefix" if crane_kind == "qc" else "yc_prefix"
            prefixes = getattr(node, field_name)
            for ship in candidates:
                prefix = {**prefixes, crane: prefixes[crane] + (ship,)}
                yield replace(node, **{field_name: prefix}, depth=depth)
        elif kind == "order":
            _, key, directions = decision
            for direction in directions:
                yield replace(node, order={**node.order, key: direction}, depth=depth)
        else:  # finalize: dominated directions are fixed in one child
            _, free_orders = decision
            yield replace(node, order={**node.order, **free_orders}, depth=depth)

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
        tightened = self.propagate(node)
        if tightened is None:
            return
        node = tightened
        bound = self.lower_bound(node)
        if self.incumbent is not None and bound >= self.incumbent:
            return
        decision = self._next_decision(node)
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
    engine = _Engine(_Context(instance, derived), SolveParams(time_limit=1e9))
    engine.incumbent = incumbent
    return engine.propagate(node)


def lower_bound(
    instance: Instance, derived: DerivedTables, node: SearchNode
) -> int:
    """Admissible lower bound on any feasible completion of the node."""
    engine = _Engine(_Context(instance, derived), SolveParams(time_limit=1e9))
    return engine.lower_bound(node)


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
    engine.root_lb = engine.lower_bound(root)
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
