"""Branch-and-bound solver: propagation, bounds, optimality, anytime contract."""

import random
import sys
import time
from collections import Counter
from dataclasses import fields, replace
from itertools import combinations, product

import pytest

from ipctp.errors import BudgetExceeded, IpctpError
from ipctp.generator import GenConfig, generate, grid_entry
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
from ipctp.oracle import brute_force, estimate_combinations
from ipctp.schedule import (
    QUAY,
    YARD,
    I_FIRST,
    J_FIRST,
    compute_schedule,
    crane_arcs,
    crane_members,
    order_arcs,
    precedence_arcs,
    qc_assignment_of,
    solution_to_json,
    validate,
)
import ipctp.solver
from ipctp.solver import (
    _SEQUENCES_FIELD,
    SearchNode,
    SolveParams,
    SolveReport,
    _Engine,
    _Resource,
    lower_bound,
    propagate,
    root_node,
    solve,
)

from conftest import (
    TickingClock,
    constructive_schedule,
    interference_pair_decisions,
    interference_pair_instance,
    overfull_yard_instance,
    random_instance,
    single_inbound_instance,
    single_outbound_instance,
    wide_eligibility_instance,
)


def weighted_two_vessel_instances(count: int) -> list[Instance]:
    """Six-shipment grid draws with two vessels weighted 2 and 3."""
    config = GenConfig(ul_ratio=2, bays=6, shipments=6, inbound_ratio=0.5, vessels=2)
    return [
        replace(grid_entry(33, config, rep).instance,
                vessels=(Vessel(1, 2), Vessel(2, 3)))
        for rep in range(count)
    ]


class TestPropagate:
    def test_inbound_transfer_chain(self):
        instance = single_inbound_instance(tt=5)
        derived = build_derived(instance)
        node = propagate(instance, derived, root_node(instance, derived))
        # yard crane task waits for quay handling plus the transfer
        assert node.est[1] >= 8 + 5

    def test_sequenced_pair_pushes_successor(self):
        instance = interference_pair_instance()
        derived = build_derived(instance)
        root = root_node(instance, derived)
        node = replace(
            root,
            yard_assignment={1: 1, 2: 2},
            qc_of={1: 1, 2: 1},  # both on crane 1
            qc_sequences={1: (1,), 2: ()},
        )
        tightened = propagate(instance, derived, node)
        # successor est >= predecessor end + empty travel between bays 5 and 4
        assert tightened.est[2] >= 0 + 4 + 3

    def test_decided_order_raises_successor(self):
        instance = interference_pair_instance()
        derived = build_derived(instance)
        root = root_node(instance, derived)
        node = replace(
            root,
            yard_assignment={1: 1, 2: 2},
            qc_of={1: 1, 2: 2},
            qc_sequences={1: (1,), 2: (2,)},
            yc_sequences={1: (1,), 2: (2,)},
            interference_order={(1, 2, 1, 2): I_FIRST},
        )
        tightened = propagate(instance, derived, node)
        assert tightened.est[2] >= 4 + 9  # handling of the first plus separation
        schedule = compute_schedule(
            instance, derived, interference_pair_decisions(I_FIRST)
        )
        assert tightened.est[2] == schedule.qc_start[2]

    def test_one_sided_disjunction_is_forced(self):
        base = interference_pair_instance()
        slow_yard = replace(base.shipments[1], yc_time=20)
        instance = replace(base, shipments=(base.shipments[0], slow_yard))
        derived = build_derived(instance)
        node = replace(
            root_node(instance, derived),
            yard_assignment={1: 1, 2: 2},
            qc_of={1: 1, 2: 2},
            qc_sequences={1: (1,), 2: (2,)},
            yc_sequences={1: (1,), 2: (2,)},
        )
        # With this cap only the order that schedules shipment 2 first survives.
        tightened = propagate(instance, derived, node, incumbent=30)
        assert tightened is not None
        assert tightened.interference_order == {(1, 2, 1, 2): J_FIRST}

    def test_impossible_windows_prune(self):
        instance = interference_pair_instance()
        derived = build_derived(instance)
        node = replace(
            root_node(instance, derived),
            yard_assignment={1: 1, 2: 2},
            qc_of={1: 1, 2: 2},
            qc_sequences={1: (1,), 2: (2,)},
            yc_sequences={1: (1,), 2: (2,)},
        )
        # Optimum of this instance is 27; a cap below it wipes both orders.
        assert propagate(instance, derived, node, incumbent=27) is None



    def test_same_crane_disjunction_forced_by_cap(self):
        base = interference_pair_instance()
        slow_yard = replace(base.shipments[1], yc_time=20)
        instance = replace(base, shipments=(base.shipments[0], slow_yard))
        derived = build_derived(instance)
        node = replace(
            root_node(instance, derived),
            yard_assignment={1: 1, 2: 2},
            qc_of={1: 1, 2: 1},  # both on the same quay crane
            yc_sequences={1: (1,), 2: (2,)},
        )
        relaxed = propagate(instance, derived, node)
        assert relaxed.est[0] == 0  # either order still open
        capped = propagate(instance, derived, node, incumbent=30)
        assert capped is not None
        # only "shipment 2 first" beats the cap: 6 handling + 3 empty travel
        assert capped.est[0] >= 9


class TestLowerBound:
    def test_root_of_single_chain_is_exact(self):
        instance = single_inbound_instance(tt=5)
        derived = build_derived(instance)
        assert lower_bound(instance, derived, root_node(instance, derived)) == 23

    def test_admissible_at_root(self):
        for seed in range(8):
            instance = random_instance(3, 0.5, 4, seed=seed)
            derived = build_derived(instance)
            optimum = brute_force(instance, derived).best_objective
            root = propagate(instance, derived, root_node(instance, derived))
            assert lower_bound(instance, derived, root) <= optimum

    def test_fully_decided_node_equals_schedule_objective(self):
        instance = interference_pair_instance()
        derived = build_derived(instance)
        decisions = interference_pair_decisions(I_FIRST)
        node = replace(
            root_node(instance, derived),
            yard_assignment=dict(decisions.yard_assignment),
            qc_of=qc_assignment_of(decisions.qc_sequences),
            qc_sequences={q: tuple(s) for q, s in decisions.qc_sequences.items()},
            yc_sequences={c: tuple(s) for c, s in decisions.yc_sequences.items()},
            interference_order=dict(decisions.interference_order),
        )
        tightened = propagate(instance, derived, node)
        schedule = compute_schedule(instance, derived, decisions)
        assert lower_bound(instance, derived, tightened) == schedule.objective


    def test_interfering_cranes_bound_as_one_resource(self):
        # Shipment 1 on crane 1 and shipment 2 on crane 2 form an active
        # interference tuple, so their quay tasks never overlap and the
        # second waits for the first plus the tuple's separation.
        instance = interference_pair_instance()
        derived = build_derived(instance)
        node = replace(root_node(instance, derived), qc_of={1: 1, 2: 2})
        ships = {s.id: s for s in instance.shipments}
        # At the root every head is 0 and every tail the least transfer
        # time plus the yard handling.
        tail = {i: min(instance.yt_inbound_transfer.values()) + s.yc_time
                for i, s in ships.items()}
        per_crane = max(s.qc_time + tail[i] for i, s in ships.items())
        separation = derived.interference_time[1, 2, 1, 2]
        clique = (ships[1].qc_time + ships[2].qc_time + separation
                  + min(tail.values()))
        assert (per_crane, clique) == (14, 27)
        # 27 is also this node's optimum: the bound is tight.
        assert lower_bound(instance, derived, node) == clique

    def test_later_heads_outweigh_the_whole_crane(self):
        # Three inbound shipments on one quay crane; the two long ones cannot
        # start before 10, and their bays lie one apart (travel 3), so one
        # of them ends no earlier than 23, and its yard task (transfer 1,
        # handling 1) no earlier than 25.
        instance = Instance(
            vessels=(Vessel(1, 1),),
            shipments=tuple(
                Shipment(id=i, vessel=1, direction=INBOUND, bay=i, containers=2,
                         qc_time=qc_time, yc_time=1)
                for i, qc_time in ((1, 1), (2, 5), (3, 5))
            ),
            total_bays=4,
            qc_count=1,
            yc_count=1,
            yard_locations=tuple(
                YardLocation(k, 1, 1, "C", INBOUND_AVAILABLE) for k in (1, 2, 3)
            ),
            safety_distance=1,
            qc_unit_travel=3,
            yc_travel=((0, 0, 0),) * 3,
            yt_inbound_transfer={1: 1, 2: 1, 3: 1},
        )
        derived = build_derived(instance)
        # Tasks 2p and 2p + 1 are the quay and yard tasks of shipment p + 1.
        node = replace(root_node(instance, derived), est=(0, 0, 10, 0, 10, 0))
        # The whole crane gives 0 + 11 + 2 * 3 + 2 = 19, one task alone
        # 10 + 5 + 2.
        assert lower_bound(instance, derived, node) == 10 + 5 + 3 + 5 + 2

    @staticmethod
    def two_inbound(bays, qc_count, qc_times) -> Instance:
        """Two inbound shipments, each with its own location and yard crane
        (transfer 1, handling 2), at ``bays`` of a four-bay vessel."""
        return Instance(
            vessels=(Vessel(1, 1),),
            shipments=tuple(
                Shipment(id=i, vessel=1, direction=INBOUND, bay=bay, containers=2,
                         qc_time=qc_time, yc_time=2)
                for i, bay, qc_time in zip((1, 2), bays, qc_times)
            ),
            total_bays=4,
            qc_count=qc_count,
            yc_count=2,
            yard_locations=tuple(
                YardLocation(k, k, 1, "C", INBOUND_AVAILABLE) for k in (1, 2)
            ),
            safety_distance=1,
            qc_unit_travel=3,
            yc_travel=((0, 0), (0, 0)),
            yt_inbound_transfer={1: 1, 2: 1},
        )

    def test_the_clique_bound_charges_the_separation(self):
        # Bays 2 and 3 are each reachable by one crane only, and the cranes
        # must keep two bays apart: whichever shipment goes second waits one
        # bay of travel, 3, after the first ends.
        instance = self.two_inbound(bays=(2, 3), qc_count=2, qc_times=(4, 6))
        derived = build_derived(instance)
        assert derived.eligible_qcs == {1: (1,), 2: (2,)}
        assert derived.interference_time[1, 2, 1, 2] == 3
        optimum = brute_force(instance, derived).best_objective
        bound = lower_bound(instance, derived, root_node(instance, derived))
        assert bound == 4 + 6 + 3 + 1 + 2 == optimum

    def test_the_crane_bound_charges_its_bay_span(self):
        # One crane serves bays 1 and 3: it travels two bays, 6, between them.
        instance = self.two_inbound(bays=(1, 3), qc_count=1, qc_times=(4, 6))
        derived = build_derived(instance)
        optimum = brute_force(instance, derived).best_objective
        bound = lower_bound(instance, derived, root_node(instance, derived))
        assert bound == 4 + 6 + 2 * 3 + 1 + 2 == optimum

    def test_unplaced_tails_take_the_least_free_transfer(self):
        # Shipment 1 holds location 1 (transfer 1); shipments 2 and 3 can
        # only take locations 2 and 3 (transfer 9), each on its own yard crane.
        instance = Instance(
            vessels=(Vessel(1, 1),),
            shipments=tuple(
                Shipment(id=i, vessel=1, direction=INBOUND, bay=1, containers=2,
                         qc_time=4, yc_time=3)
                for i in (1, 2, 3)
            ),
            total_bays=4,
            qc_count=1,
            yc_count=3,
            yard_locations=tuple(
                YardLocation(k, k, 1, "C", INBOUND_AVAILABLE) for k in (1, 2, 3)
            ),
            safety_distance=1,
            qc_unit_travel=3,
            yc_travel=((0, 0, 0),) * 3,
            yt_inbound_transfer={1: 1, 2: 9, 3: 9},
        )
        derived = build_derived(instance)
        node = replace(
            root_node(instance, derived), yard_assignment={1: 1},
            est=(0, 0, 10, 0, 10, 0)
        )
        # Shipments 2 and 3 start no earlier than 10, so the later ends its
        # quay task at 18 and its yard task no earlier than 18 + 9 + 3: this
        # node's optimum.
        assert lower_bound(instance, derived, node) == 30

    # Optima that HiGHS proved on the exported LP of two grid instances
    # (base seed 707); recorded once, no MILP solve runs here.
    PROVEN = [
        ((2, 8, 8, 0.5), 1, 353),
        ((3, 8, 10, 0.5), 0, 396),
    ]

    @pytest.mark.parametrize("shape, replicate, optimum", PROVEN)
    def test_timed_out_bound_is_below_a_proven_optimum(self, shape, replicate, optimum):
        ul, bays, shipments, ratio = shape
        config = GenConfig(ul_ratio=ul, bays=bays, shipments=shipments,
                           inbound_ratio=ratio)
        instance = grid_entry(707, config, replicate).instance
        report, _ = solve(instance, build_derived(instance), SolveParams(time_limit=0.5))
        assert report.lower_bound <= optimum <= report.best_objective

    def test_timed_out_bounds_are_admissible_at_tiny_limits(self, monkeypatch):
        # The clock is read at every node past the root, so a tree of fewer
        # nodes than the limit has ticks never times out; most s4/s5 draws
        # are that small, so draw until 24 have.  The reported bound is
        # capped by the incumbent, so the draws go on until a dozen timeouts
        # also hold an incumbent above the optimum.
        monkeypatch.setattr(ipctp.solver, "time", TickingClock())
        rng = random.Random(2024)
        timeouts = above = draws = 0
        while timeouts < 24 or above < 12:
            draws += 1
            assert draws < 600
            config = GenConfig(
                ul_ratio=rng.choice((2, 3)), bays=rng.choice((4, 6, 8)),
                shipments=rng.choice((4, 5)), inbound_ratio=0.5,
                vessels=rng.choice((1, 2)), seed=rng.getrandbits(32),
            )
            instance = generate(config)
            if config.vessels == 2:
                instance = replace(instance, vessels=(
                    Vessel(1, rng.randint(1, 3)), Vessel(2, rng.randint(1, 3))))
            derived = build_derived(instance)
            try:  # the oracle enumerates every combination
                estimate_combinations(instance, derived, 10_000)
            except BudgetExceeded:
                continue
            optimum = None
            for limit in (16, 32, 64):
                report, _ = solve(instance, derived, SolveParams(time_limit=limit))
                if report.status == "optimal":
                    break
                timeouts += 1
                if optimum is None:
                    optimum = brute_force(instance, derived).best_objective
                assert report.lower_bound <= optimum
                if report.best_objective is not None:
                    assert optimum <= report.best_objective
                best = report.best_objective
                above += best is not None and best > optimum


class TestSolve:
    def test_single_shipment_proven_fast(self):
        for instance in (single_inbound_instance(), single_outbound_instance()):
            derived = build_derived(instance)
            started = time.monotonic()
            report, solution = solve(instance, derived, SolveParams(time_limit=60))
            assert time.monotonic() - started < 1.0
            assert report.status == "optimal"
            assert report.best_objective == 23
            assert report.gap_percent == 0.0
            assert solution.status == "optimal"

    def test_matches_oracle_on_random_instances(self):
        for seed in range(12):
            instance = random_instance(
                shipments=3 + seed % 3,
                ratio=(0.2, 0.5)[seed % 2],
                bays=(4, 6, 8)[seed % 3],
                seed=seed,
            )
            derived = build_derived(instance)
            oracle_best = brute_force(instance, derived, limit=3_000_000)
            report, solution = solve(instance, derived, SolveParams(time_limit=120))
            assert report.status == "optimal"
            assert report.best_objective == oracle_best.best_objective
            assert validate(instance, derived, solution) == []

    def test_incumbent_trace_strictly_decreases(self):
        instance = random_instance(6, 0.5, 6, seed=40)
        derived = build_derived(instance)
        report, _ = solve(instance, derived, SolveParams(time_limit=20))
        objectives = [obj for _, obj in report.incumbent_trace]
        assert objectives, "no incumbent recorded"
        assert all(a > b for a, b in zip(objectives, objectives[1:]))
        assert objectives[-1] == report.best_objective

    def test_gap_zero_iff_optimal(self):
        instance = random_instance(4, 0.5, 4, seed=41)
        derived = build_derived(instance)
        report, _ = solve(instance, derived, SolveParams(time_limit=60))
        assert report.status == "optimal"
        assert report.gap_percent == 0.0
        assert report.lower_bound == report.best_objective

    def test_timeout_keeps_best_incumbent_and_admissible_bound(self):
        instance = random_instance(15, 0.5, 6, seed=42)
        derived = build_derived(instance)
        report, solution = solve(instance, derived, SolveParams(time_limit=2))
        assert report.status in ("feasible", "unknown")
        if report.best_objective is not None:
            assert solution is not None
            assert validate(instance, derived, solution) == []
            assert report.lower_bound <= report.best_objective
            assert report.gap_percent is not None and report.gap_percent > 0

    @pytest.mark.parametrize("limit", [1, 10, 40])
    def test_a_timed_out_search_stops_within_two_nodes_of_its_limit(
        self, monkeypatch, limit
    ):
        # TestSearchTree's 339-node tree.  The ticking clock is read at every
        # node past the root and at each new incumbent, so a limit of that
        # many ticks leaves the search at most one node past it.
        instance = random_instance(6, 0.5, 4, seed=707, ul=2)
        monkeypatch.setattr(ipctp.solver, "time", TickingClock())
        report, _ = solve(instance, build_derived(instance), SolveParams(time_limit=limit))
        assert report.status != "optimal"
        assert report.nodes <= limit + 2

    def test_search_depth_is_not_bounded_by_the_recursion_limit(self):
        # 60 shipments put the first leaf more than 100 levels down; the
        # search must keep its incumbent rather than raise RecursionError.
        instance = generate(GenConfig(ul_ratio=2, bays=8, shipments=60,
                                      inbound_ratio=0.2, seed=5))
        derived = build_derived(instance)
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            report, solution = solve(instance, derived, SolveParams(time_limit=2))
        finally:
            sys.setrecursionlimit(limit)
        assert report.status in ("feasible", "optimal")
        assert validate(instance, derived, solution) == []
        assert report.lower_bound <= report.best_objective

    def test_nan_time_limit_is_rejected(self):
        # No clock reading exceeds NaN, so such a solve would never time out.
        instance = single_inbound_instance()
        derived = build_derived(instance)
        for limit in (float("nan"), 0.0, -1.0):
            with pytest.raises(IpctpError, match="time_limit must be positive"):
                solve(instance, derived, SolveParams(time_limit=limit))

    def test_workers_other_than_one_are_rejected(self):
        instance = single_inbound_instance()
        derived = build_derived(instance)
        for workers in (0, 2):
            with pytest.raises(IpctpError, match="single-threaded"):
                solve(instance, derived, SolveParams(workers=workers))

    def test_single_worker_runs_are_reproducible(self):
        instance = random_instance(5, 0.5, 4, seed=60)
        derived = build_derived(instance)
        params = SolveParams(time_limit=60)
        report_a, solution_a = solve(instance, derived, params)
        report_b, solution_b = solve(instance, derived, params)
        assert solution_to_json(solution_a) == solution_to_json(solution_b)
        assert report_a.best_objective == report_b.best_objective
        assert report_a.lower_bound == report_b.lower_bound
        assert report_a.status == report_b.status
        assert report_a.nodes == report_b.nodes
        assert report_a.propagations == report_b.propagations
        assert [obj for _, obj in report_a.incumbent_trace] == [
            obj for _, obj in report_b.incumbent_trace
        ]

    def test_smallest_grid_configuration_proves_quickly(self):
        # ul 2, 4 bays, 5 shipments: optimality well under a minute.
        config = GenConfig(ul_ratio=2, bays=4, shipments=5, inbound_ratio=0.2)
        instance = grid_entry(2026, config, 0).instance
        derived = build_derived(instance)
        started = time.monotonic()
        report, _ = solve(instance, derived, SolveParams(time_limit=60))
        assert time.monotonic() - started < 60
        assert report.status == "optimal"


class TestConstructive:
    """The schedule built without search and offered before the root."""

    def test_an_overfull_yard_has_none_and_stays_infeasible(self):
        instance = overfull_yard_instance()
        derived = build_derived(instance)
        assert constructive_schedule(instance, derived) is None
        # Nor does a node that has placed one of the two shipments propagate.
        placed = replace(root_node(instance, derived), yard_assignment={1: 1})
        assert propagate(instance, derived, placed) is None
        report, solution = solve(instance, derived, SolveParams(time_limit=60))
        assert report.status == "infeasible"
        assert solution is None
        assert report.incumbent_trace == []

    def test_an_optimal_constructive_schedule_is_the_solution(self):
        # The search keeps only strictly better incumbents; here the root
        # fails to propagate under this one's caps.
        instance = random_instance(6, 0.5, 6, seed=9)
        derived = build_derived(instance)
        first = constructive_schedule(instance, derived)
        assert validate(instance, derived, first) == []
        report, solution = solve(instance, derived, SolveParams(time_limit=60))
        assert report.status == "optimal"
        assert [obj for _, obj in report.incumbent_trace] == [first.objective]
        assert solution_to_json(solution) == solution_to_json(
            first.with_status("optimal"))

    def test_two_solves_give_the_same_report(self):
        instance = generate(GenConfig(ul_ratio=2, bays=8, shipments=10,
                                      inbound_ratio=0.2, seed=5))
        derived = build_derived(instance)
        payloads = []
        for _ in range(2):
            report, _ = solve(instance, derived, SolveParams(time_limit=60))
            assert report.status == "optimal"
            payload = report.to_payload()
            del payload["wall_time"]
            payload["incumbent_trace"] = [obj for _, obj in payload["incumbent_trace"]]
            payloads.append(payload)
        assert payloads[0] == payloads[1]


class TestSearchTree:
    """The exact tree on fixed instances: a change to propagation, bounding or
    branching that alters any node shows here, even when the optimum holds."""

    # (ul, bays, shipments, inbound ratio) sub-seeded from 707, replicate 0;
    # nodes, propagations, the prunes by cause (infeasible, bounded,
    # not_first, dominated; all but not_first pinned later, at the counts the
    # trees had then) and incumbent objectives as first recorded; the third
    # tree re-recorded when the bound took in interference cliques and
    # per-task heads and tails (1,099 nodes and 5,668 propagations before),
    # the sixth when it took in quay-crane travel and interference
    # separations (375 nodes and 4,926 propagations before), and every tree
    # but the second when sequencing children that cannot go first stopped
    # being built: each tree's nodes before were its nodes plus its
    # not-first count (propagations before: 1,073, 2,346, 1,054, 1,630,
    # 1,755 and 935).  Every tree re-recorded when the constructive schedule
    # became the first incumbent offered: it opens every incumbent list (the
    # first tree's, 360, was already its first); each tree's optimum stayed.
    # Before, in order, the trees had 110, 63, 339, 99, 90, 123 and 84
    # nodes; 849, 553, 1,667, 660, 1,423, 1,438 and 703 propagations; and
    # prunes as 5-tuples (infeasible, bounded, cyclic, not_first, dominated)
    # (40, 0, 0, 14, 0), (36, 0, 0, 0, 0), (11, 119, 0, 128, 0),
    # (28, 0, 0, 9, 0), (48, 0, 0, 4, 5), (30, 6, 0, 10, 0) and
    # (40, 0, 0, 9, 5).  Propagations re-recorded when the backward pass of
    # the latest starts began to walk the arcs in reverse, which changes the
    # number of raises but no tree: before, 713, 568, 1,680, 566, 1,444,
    # 1,370 and 658.  The cyclic count, 0 in every tree, left the prunes when
    # propagation came to settle every node it returns: no leaf can be
    # cyclic.  As 5-tuples with it, the prunes below read (34, 0, 0, 17, 0),
    # (36, 0, 0, 0, 0), (11, 119, 0, 128, 0), (25, 0, 0, 11, 0),
    # (48, 0, 0, 4, 5), (30, 6, 0, 10, 0) and (37, 0, 0, 12, 5).
    PINNED = [
        ((3, 4, 5, 0.5), 93, 695, (34, 0, 17, 0),
         [360, 348, 346, 340, 334, 328]),
        ((2, 6, 5, 0.5), 63, 563, (36, 0, 0, 0), [542, 331, 330]),
        ((2, 4, 6, 0.5), 339, 1667, (11, 119, 128, 0),
         [580, 406, 403, 381, 373, 347, 333]),
        ((2, 6, 6, 0.5), 95, 555, (25, 0, 11, 0),
         [572, 465, 454, 372, 347, 299, 287]),
        ((3, 6, 8, 0.5), 89, 1493, (48, 0, 4, 5),
         [832, 525, 509, 459, 418, 402]),
        ((2, 8, 8, 0.2), 122, 1352, (30, 6, 10, 0),
         [498, 427, 383, 369, 361, 360, 331, 328]),
        ((3, 4, 6, 0.5), 81, 652, (37, 0, 12, 5), [459, 355, 335, 333]),
    ]

    # Named by shape, so that re-recording a tree keeps its test's name.
    @pytest.mark.parametrize(
        "shape, nodes, propagations, prunes, incumbents", PINNED,
        ids=[f"u{ul}_b{bays}_s{ships}_r{round(100 * ratio)}"
             for (ul, bays, ships, ratio), *_ in PINNED],
    )
    def test_tree_is_pinned(self, shape, nodes, propagations, prunes, incumbents):
        ul, bays, shipments, ratio = shape
        instance = random_instance(shipments, ratio, bays, seed=707, ul=ul)
        report, _ = solve(instance, build_derived(instance), SolveParams(time_limit=60))
        assert report.status == "optimal"
        assert report.nodes == nodes
        assert report.propagations == propagations
        assert (report.infeasible, report.bounded,
                report.not_first, report.dominated) == prunes
        assert [obj for _, obj in report.incumbent_trace] == incumbents

    def test_relaxed_arcs_are_the_precedence_arcs(self, monkeypatch):
        """Each propagation pass relaxes exactly the arcs precedence_arcs gives
        for the node's decisions and the working interference order."""
        instances = [
            random_instance(shipments, ratio, bays, seed=707, ul=ul)
            for (ul, bays, shipments, ratio), *_ in self.PINNED
        ]
        instances.append(wide_eligibility_instance(random.Random(8), shipments=4))
        instances += weighted_two_vessel_instances(2)
        seen = {"passes": 0, "forced": 0}
        real_propagate = _Engine.propagate
        real_relax = _Engine._relax
        real_force_orders = _Engine._force_orders

        def propagate(engine, node, *rest):
            seen["node"], seen["order"] = node, node.interference_order
            return real_propagate(engine, node, *rest)

        def force_orders(engine, facts, order, *rest):
            seen["order"] = order  # the next pass relaxes what this one leaves
            decided = len(order)
            forced = real_force_orders(engine, facts, order, *rest)
            if forced is not None:  # the arcs of the orders added, in order
                added = dict(list(order.items())[decided:])
                assert forced == order_arcs(engine.derived, added)
                seen["forced"] += len(forced)
            return forced

        def relax(engine, arcs, est):
            node = seen["node"]
            assert arcs == precedence_arcs(
                engine.instance, engine.derived, node, node.qc_of, seen["order"]
            )
            seen["passes"] += 1
            return real_relax(engine, arcs, est)

        monkeypatch.setattr(_Engine, "propagate", propagate)
        monkeypatch.setattr(_Engine, "_force_orders", force_orders)
        monkeypatch.setattr(_Engine, "_relax", relax)
        for instance in instances:
            report, _ = solve(instance, build_derived(instance), SolveParams(time_limit=60))
            assert report.status == "optimal"
        assert seen["passes"] > 1500
        assert seen["forced"] > 0


def every_sequencing_child(engine, node, facts, key):
    """Every child that appends one shipment to crane ``key``'s sequence,
    built as the solver built them before it rejected shipments that
    cannot go first: the reference for the not-first rule."""
    kind, crane = key
    record = facts.resources[key]
    field_name = _SEQUENCES_FIELD[kind]
    sequences = getattr(node, field_name)
    task = engine.quay_task
    for ship in sorted(record.left, key=lambda i: (node.est[task[i] + kind], i)):
        sequence = sequences[crane] + (ship,)
        child = replace(node, **{field_name: {**sequences, crane: sequence}})
        left = [i for i in record.left if i != ship]
        arcs = crane_arcs(engine.instance, engine.derived, kind, sequence, left,
                          facts.location)
        resources = {**facts.resources, key: record._replace(left=left, arcs=arcs)}
        yield child, facts._replace(resources=resources)


def search_instances() -> list[Instance]:
    """The pinned trees' instances, crane choices and weighted vessels."""
    rng = random.Random(8)
    return [
        *(random_instance(shipments, ratio, bays, seed=707, ul=ul)
          for (ul, bays, shipments, ratio), *_ in TestSearchTree.PINNED),
        *(wide_eligibility_instance(rng, shipments=5) for _ in range(3)),
        *weighted_two_vessel_instances(4),
    ]


class TestLatestStarts:
    def test_each_latest_start_is_its_least_limit(self, monkeypatch):
        """Every node propagation returns holds each task's latest start at
        the least of the horizon, its vessel's cap less its duration and
        tail, and the latest start of each arc's head less the arc's weight.
        The caps come from the returned earliest starts and the incumbent of
        that moment; the arcs are ``precedence_arcs`` of the returned node.
        That is the greatest fixpoint, whatever order the arcs are walked.
        Its earliest starts satisfy every one of those arcs, and neither
        ``_pairwise`` nor ``_force_orders`` infers anything more from it."""
        real_propagate = _Engine.propagate
        checked = 0

        def propagate(engine, node, facts):
            nonlocal checked
            propagated = real_propagate(engine, node, facts)
            if propagated is None:
                return None
            out = propagated[0]
            est, lct, tail = out.est, out.lct, facts.tail
            weight, vessel_of = engine.weight, engine.vessel_of_task
            ends = dict.fromkeys(weight, 0)
            for t, vessel in enumerate(vessel_of):
                ends[vessel] = max(ends[vessel], est[t] + engine.duration[t] + tail[t])
            total = sum(weight[v] * end for v, end in ends.items())
            cap = {
                v: engine.horizon if engine.incumbent is None
                else (engine.incumbent - 1 - total + weight[v] * end) // weight[v]
                for v, end in ends.items()
            }
            limit = [
                min(engine.horizon, cap[vessel_of[t]] - engine.duration[t] - tail[t])
                for t in range(len(lct))
            ]
            for u, v, w in precedence_arcs(engine.instance, engine.derived, out,
                                           out.qc_of, out.interference_order):
                assert est[v] >= est[u] + w
                limit[u] = min(limit[u], lct[v] - w)
            assert list(lct) == limit
            inferred = list(est)
            assert engine._pairwise(facts, inferred, list(lct)) is False
            order = dict(out.interference_order)
            assert engine._force_orders(facts, order, inferred, list(lct)) == []
            assert inferred == list(est)
            checked += 1
            return propagated

        monkeypatch.setattr(_Engine, "propagate", propagate)
        for instance in search_instances():
            report, _ = solve(instance, build_derived(instance), SolveParams(time_limit=60))
            assert report.status == "optimal"
        assert checked > 1000


class TestNotFirst:
    """Sequencing children whose shipment cannot go first are never built;
    the rule removes only children that propagation would prune."""

    @staticmethod
    def surviving_nodes(monkeypatch, instance, sequenced):
        """The solve's report and, in search order, each node that survives
        propagation, with its bound."""
        survivors = []
        real_bound = _Engine.lower_bound

        def lower_bound(engine, node, facts, vessel_lb):
            bound = real_bound(engine, node, facts, vessel_lb)
            survivors.append((node, bound))
            return bound

        with monkeypatch.context() as patch:
            patch.setattr(_Engine, "lower_bound", lower_bound)
            patch.setattr(_Engine, "_sequenced", sequenced)
            report, _ = solve(instance, build_derived(instance),
                              SolveParams(time_limit=60))
        assert report.status == "optimal"
        return report, survivors

    def test_only_dead_children_are_skipped(self, monkeypatch):
        real_sequenced = _Engine._sequenced
        skipped_total = 0

        def checked(engine, node, facts, key):
            nonlocal skipped_total
            before = engine.report.not_first
            built = list(real_sequenced(engine, node, facts, key))
            every = list(every_sequencing_child(engine, node, facts, key))
            kept = [child for child, _ in built]
            # The kept children, with their facts, come in the reference order.
            assert built == [(c, f) for c, f in every if c in kept]
            skipped = [(c, f) for c, f in every if c not in kept]
            assert len(skipped) == engine.report.not_first - before
            # Each skipped child dies in propagation under the incumbent of
            # this moment; a later, better one only tightens its windows.
            propagations = engine.report.propagations
            for child, child_facts in skipped:
                assert engine.propagate(child, child_facts) is None
            engine.report.propagations = propagations
            skipped_total += len(skipped)
            yield from built

        for instance in search_instances():
            reference, expected = self.surviving_nodes(
                monkeypatch, instance, every_sequencing_child)
            report, survivors = self.surviving_nodes(monkeypatch, instance, checked)
            assert survivors == expected
            assert report.nodes + report.not_first == reference.nodes
            assert reference.not_first == 0
            assert report.incumbent_trace and [
                obj for _, obj in report.incumbent_trace
            ] == [obj for _, obj in reference.incumbent_trace]
        assert skipped_total > 100


def yard_instance(transfer, travel, inbound, outbound=(), cranes=None) -> Instance:
    """One quay crane.  Locations 1..n are inbound-available with the
    ``transfer`` times, then one fixed location per outbound shipment;
    ``travel`` is over all of them in id order, and ``cranes`` gives each
    one's yard crane (all crane 1 by default).  Shipments are given as
    ``(qc_time, yc_time)``, outbound ones with their trip to the quay."""
    count = len(transfer)
    cranes = cranes or [1] * len(travel)
    locations = [YardLocation(k, cranes[k - 1], 1, "C", INBOUND_AVAILABLE)
                 for k in range(1, count + 1)]
    shipments = [Shipment(i, 1, INBOUND, i, 1, qc, yc)
                 for i, (qc, yc) in enumerate(inbound, start=1)]
    for k, (qc, yc, trip) in enumerate(outbound, start=count + 1):
        locations.append(YardLocation(k, cranes[k - 1], 2, "A", OUTBOUND_FIXED))
        i = len(shipments) + 1
        shipments.append(Shipment(i, 1, OUTBOUND, i, 1, qc, yc,
                                  fixed_location=k, yt_outbound_time=trip))
    return Instance(
        vessels=(Vessel(1, 1),),
        shipments=tuple(shipments),
        total_bays=len(shipments),
        qc_count=1,
        yc_count=max(cranes),
        yard_locations=tuple(locations),
        safety_distance=0,
        qc_unit_travel=0,
        yc_travel=travel,
        yt_inbound_transfer=dict(enumerate(transfer, start=1)),
    )


def line_instance(rng: random.Random, inbound: int, outbound: int,
                  locations: int) -> Instance:
    """Two yard cranes, each with its locations on a line at positions 0 to
    3, so trips are distances; transfer times 4 to 6 tie often."""
    spots = [(rng.randint(1, 2), rng.randint(0, 3))
             for _ in range(locations + outbound)]
    travel = tuple(
        tuple(abs(pa - pb) if ca == cb else 9 for cb, pb in spots)
        for ca, pa in spots
    )
    return yard_instance(
        [rng.randint(4, 6) for _ in range(locations)], travel,
        inbound=[(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(inbound)],
        outbound=[(rng.randint(1, 6), rng.randint(1, 6), rng.randint(0, 3))
                  for _ in range(outbound)],
        cranes=[crane for crane, _ in spots],
    )


def dominance_by_definition(instance: Instance):
    """Each inbound location's dominators and its twins of lower id, read
    off ``instance.tt`` and ``instance.tyc`` pair by pair."""
    crane = {k.id: k.yc for k in instance.yard_locations}
    inbound = [k.id for k in instance.inbound_available_locations]
    tt, tyc = instance.tt, instance.tyc
    dominators, twins = {}, {}
    for b in inbound:
        dominators[b] = frozenset(
            a for a in inbound
            if crane[a] == crane[b] and (tt(a), a) < (tt(b), b)
            and all(tyc(a, x) <= tyc(b, x) for x in crane
                    if crane[x] == crane[b] and x not in (a, b))
        )
        twins[b] = tuple(sorted(
            a for a in dominators[b]
            if tt(a) == tt(b) and all(tyc(a, x) == tyc(b, x) for x in crane
                                      if crane[x] == crane[b] and x not in (a, b))
        ))
    return dominators, twins


class TestDominance:
    """Yard children are never built for dominated locations, and the
    optimum survives."""

    @staticmethod
    def built_yards(monkeypatch, instance):
        """The solve's report and solution, and the yard assignment of each
        yard child built, in search order."""
        built = []
        real_placed = _Engine._placed

        def placed(engine, node, facts, ship):
            for child, child_facts in real_placed(engine, node, facts, ship):
                built.append(dict(child.yard_assignment))
                yield child, child_facts

        with monkeypatch.context() as patch:
            patch.setattr(_Engine, "_placed", placed)
            report, solution = solve(instance, build_derived(instance),
                                     SolveParams(time_limit=60))
        assert report.status == "optimal"
        return report, solution, built

    def test_only_the_lowest_id_twin_is_branched(self, monkeypatch):
        # Three locations with one transfer time and one trip to every
        # other location: each is the others' twin.
        instance = yard_instance(
            (5, 5, 5),
            ((0, 1, 1, 2), (1, 0, 1, 2), (1, 1, 0, 2), (2, 2, 2, 0)),
            inbound=[(4, 3), (3, 5)], outbound=[(4, 4, 2)],
        )
        engine = _Engine(instance, build_derived(instance))
        assert engine.twins == {1: (), 2: (1,), 3: (1, 2)}
        assert engine.dominators == {
            1: frozenset(), 2: frozenset({1}), 3: frozenset({1, 2})
        }
        report, solution, built = self.built_yards(monkeypatch, instance)
        # Shipment 1 goes to location 1 only, shipment 2 to location 2 only:
        # 2 and 3 at the root and 3 below it are skipped.
        assert built == [{1: 1}, {1: 1, 2: 2}]
        assert report.dominated == 3
        oracle = brute_force(instance, build_derived(instance))
        assert report.best_objective == oracle.best_objective
        assert solution.yard_assignment == {1: 1, 2: 2}

    def test_a_shorter_transfer_with_a_longer_trip_does_not_dominate(
        self, monkeypatch
    ):
        # Location 1 has the shorter transfer (3 against 5), but its yard
        # crane's trip to the outbound location 3 is 6 against 1.
        instance = yard_instance(
            (3, 5), ((0, 5, 6), (5, 0, 1), (6, 1, 0)),
            inbound=[(4, 4)], outbound=[(4, 4, 2)],
        )
        engine = _Engine(instance, build_derived(instance))
        assert engine.dominators == {1: frozenset(), 2: frozenset()}
        report, solution, built = self.built_yards(monkeypatch, instance)
        assert built == [{1: 1}, {1: 2}]
        assert report.dominated == 0
        # The optimum takes the location with the longer transfer.
        oracle = brute_force(instance, build_derived(instance))
        assert oracle.best_solution.yard_assignment == {1: 2}
        assert (report.best_objective, solution.yard_assignment) == (
            oracle.best_objective, {1: 2}
        )

    def test_a_child_that_fills_a_hole_is_built(self, monkeypatch):
        # Location 1 dominates location 2.  The optimum leaves it to the
        # second shipment, whose long yard task needs the short transfer.
        instance = yard_instance((3, 8), ((0, 1), (1, 0)),
                                 inbound=[(2, 2), (2, 10)])
        report, solution, built = self.built_yards(monkeypatch, instance)
        assert built == [{1: 1}, {1: 1, 2: 2}, {1: 2}, {1: 2, 2: 1}]
        assert report.dominated == 0
        oracle = brute_force(instance, build_derived(instance))
        assert (report.best_objective, solution.yard_assignment) == (
            oracle.best_objective, {1: 2, 2: 1}
        )

    def test_solve_matches_the_oracle_and_the_rule_fires(self):
        instances = [
            random_instance(shipments, 1.0 if seed % 3 == 0 else 0.5, 4,
                            seed=seed, ul=ul)
            for seed in range(12) for shipments, ul in product((3, 4, 5), (2, 3))
        ]
        for seed in range(40):
            rng = random.Random(seed)
            instances.append(line_instance(rng, inbound=rng.randint(2, 3),
                                           outbound=rng.randint(0, 2), locations=5))
        dominated = checked = 0
        for instance in instances:
            derived = build_derived(instance)
            try:  # the oracle enumerates every combination
                estimate_combinations(instance, derived, 20_000)
            except BudgetExceeded:
                continue
            report, _ = solve(instance, derived, SolveParams(time_limit=60))
            optimum = brute_force(instance, derived).best_objective
            assert (report.status, report.best_objective) == ("optimal", optimum)
            dominated += report.dominated
            checked += 1
        assert checked > 60 and dominated > 0

    def test_table_matches_the_definition(self):
        for instance in (
            random_instance(40, 0.5, 8, seed=707, ul=3),
            line_instance(random.Random(22), inbound=6, outbound=6, locations=14),
        ):
            engine = _Engine(instance, build_derived(instance))
            dominators, twins = dominance_by_definition(instance)
            assert engine.dominators == dominators
            assert engine.twins == twins
            # Some dominators are not twins, and some are.
            pairs = sum(map(len, dominators.values()))
            assert pairs > sum(map(len, twins.values())) > 0


def test_engine_attributes_stay_inline():
    """CPython 3.11 keeps an object's attributes inline, where ``self.``
    reads are quickest, only up to 29 of them."""
    instance = random_instance(8, 0.5, 4, seed=707, ul=3)
    assert len(vars(_Engine(instance, build_derived(instance)))) <= 29


def test_quay_travel_joins_the_bays_of_the_shipments():
    """The quay travel table holds every ordered pair of the shipments'
    bays, a bay with itself too, and no other pair, however many bays the
    quay has."""
    instance = replace(random_instance(8, 0.5, 4, seed=707, ul=3), total_bays=400)
    travel = _Engine(instance, build_derived(instance)).travel[QUAY]
    bays = {s.bay for s in instance.shipments}
    assert max(bays) <= 4 and len(bays) > 1
    assert set(travel) == {(a, b) for a in bays for b in bays}
    assert all(t == instance.tqc(a, b) for (a, b), t in travel.items())


def test_yard_travel_joins_the_locations_of_one_crane():
    """The yard travel table holds every ordered pair of locations on one
    yard crane, a location with itself too, and no other pair."""
    instance = random_instance(40, 0.5, 8, seed=707, ul=3)
    travel = _Engine(instance, build_derived(instance)).travel[YARD]
    crane = {k.id: k.yc for k in instance.yard_locations}
    assert len(set(crane.values())) > 1
    assert set(travel) == {
        (k, l) for k in crane for l in crane if crane[k] == crane[l]
    }
    assert all(t == instance.tyc(k, l) for (k, l), t in travel.items())

def test_counters_live_only_in_the_report(monkeypatch):
    """The engine keeps no counter of its own: it counts into its report,
    and ``solve`` returns that record."""
    instance = random_instance(5, 0.5, 4, seed=707, ul=3)
    engine = _Engine(instance, build_derived(instance))
    assert not set(vars(engine)) & {f.name for f in fields(SolveReport)}
    assert engine.report == SolveReport()
    engines = []
    real_init = _Engine.__init__

    def init(engine, *args):
        real_init(engine, *args)
        engines.append(engine)

    monkeypatch.setattr(_Engine, "__init__", init)
    report, _ = solve(instance, build_derived(instance), SolveParams(time_limit=60))
    assert report is engines[0].report and report.nodes > 0


class TestChildFacts:
    def test_children_facts_match_a_full_build(self, monkeypatch):
        """Every child's facts equal the ones built from scratch, field by
        field and resource by resource in the same order: yard and
        sequencing children derive theirs from the parent's, quay children
        build theirs and order children carry the parent's."""
        real_children = _Engine._children
        made = Counter()

        def checked(engine, node, children):
            for child, child_facts in children:
                full = engine.facts(child)
                for name in full._fields:
                    assert getattr(child_facts, name) == getattr(full, name), name
                assert list(child_facts.resources) == list(full.resources)
                decided = next(f.name for f in fields(SearchNode)
                               if getattr(child, f.name) != getattr(node, f.name))
                made[decided] += 1
                yield child, child_facts

        def children(engine, node, facts):
            built = real_children(engine, node, facts)
            return None if built is None else checked(engine, node, built)

        monkeypatch.setattr(_Engine, "_children", children)
        instances = search_instances() + [
            random_instance(shipments, 0.5, bays, seed=seed)
            for shipments, bays, seed in ((3, 4, 1), (4, 6, 2), (5, 8, 3), (5, 4, 4))
        ]
        for instance in instances:
            report, _ = solve(instance, build_derived(instance), SolveParams(time_limit=60))
            assert report.status == "optimal"
        assert made["yard_assignment"] > 500 and made["qc_of"] > 50
        assert made["interference_order"] > 50
        assert made["qc_sequences"] + made["yc_sequences"] > 1000


class TestCliques:
    def test_cliques_are_the_maximal_cliques_of_the_conflict_graph(self):
        """Each quay assignment's clique records hold exactly the maximal
        sets of shipments whose quay tasks pairwise share a crane or an
        active interference tuple, found here by enumerating every subset,
        less the sets equal to one crane's shipments."""
        rng = random.Random(18)
        assignments = 0
        for draw in range(300):
            instance = wide_eligibility_instance(rng, shipments=2 + draw % 5)
            derived = build_derived(instance)
            engine = _Engine(instance, derived)
            ships, task = engine.ship_ids, derived.quay_task
            for cranes in product(*(derived.eligible_qcs[i] for i in ships)):
                qc_of = dict(zip(ships, cranes))
                # Each pair's interference time: 0 on one crane, None when
                # the two do not conflict.  Ids come in order, so each pair
                # is (lower id, higher id), as in the interference tuples.
                gap = {
                    (i, j): 0 if qc_of[i] == qc_of[j]
                    else derived.interference_time.get((i, j, qc_of[i], qc_of[j]))
                    for i, j in combinations(ships, 2)
                }
                groups = [
                    set(group) for size in range(1, len(ships) + 1)
                    for group in combinations(ships, size)
                    if all(gap[pair] is not None for pair in combinations(group, 2))
                ]
                own = crane_members(instance, QUAY, qc_of).values()
                expected = sorted(
                    sorted(group) for group in groups
                    if not any(group < other for other in groups)
                    and sorted(group) not in own
                )
                _, cliques = engine.quay(qc_of)
                assert list(cliques) == list(range(len(cliques)))
                found = []
                for record in cliques.values():
                    members = [i for i in ships if task[i] in record.tasks]
                    assert record == _Resource(
                        None, [task[i] for i in members],
                        sum(instance.shipment(i).qc_time for i in members), [], [],
                        min(gap[pair] for pair in combinations(members, 2)
                            if qc_of[pair[0]] != qc_of[pair[1]]),
                        {task[i]: qc_of[i] for i in members},
                    )
                    found.append(members)
                assert sorted(found) == expected
                assignments += 1
        assert assignments > 1500


class TestCraneChoice:
    """Overlapping eligibility windows: crane assignment is a real decision."""

    def test_matches_oracle_with_crane_choice(self):
        from conftest import wide_eligibility_instance

        rng = random.Random(909)
        exercised = 0
        for trial in range(25):
            instance = wide_eligibility_instance(rng, shipments=rng.choice((2, 3, 4)))
            derived = build_derived(instance)
            if any(len(e) > 1 for e in derived.eligible_qcs.values()):
                exercised += 1
            oracle_best = brute_force(instance, derived, limit=3_000_000)
            report, solution = solve(instance, derived, SolveParams(time_limit=120))
            assert report.status == "optimal"
            assert report.best_objective == oracle_best.best_objective
            assert validate(instance, derived, solution) == []
        assert exercised >= 10


class TestWeightedVessels:
    def test_matches_oracle_with_unequal_weights(self):
        from dataclasses import replace as dc_replace

        from ipctp.instance import Vessel

        for seed in range(6):
            config = GenConfig(ul_ratio=2, bays=6, shipments=4,
                               inbound_ratio=0.5, vessels=2)
            base = grid_entry(33, config, seed).instance
            weighted = dc_replace(
                base, vessels=(Vessel(1, 2), Vessel(2, 3))
            )
            derived = build_derived(weighted)
            oracle_best = brute_force(weighted, derived, limit=3_000_000)
            report, solution = solve(weighted, derived, SolveParams(time_limit=120))
            assert report.status == "optimal"
            assert report.best_objective == oracle_best.best_objective
            assert validate(weighted, derived, solution) == []

    def test_scaling_weights_preserves_the_optimal_decisions(self):
        from dataclasses import replace as dc_replace

        from ipctp.instance import Vessel

        config = GenConfig(ul_ratio=2, bays=4, shipments=3, inbound_ratio=0.5)
        base = grid_entry(34, config, 0).instance
        derived = build_derived(base)
        plain = brute_force(base, derived)
        scaled_instance = dc_replace(base, vessels=(Vessel(1, 5),))
        scaled = brute_force(scaled_instance, build_derived(scaled_instance))
        assert scaled.best_objective == 5 * plain.best_objective
        assert scaled.best_solution.yard_assignment == dict(
            plain.best_solution.yard_assignment
        )
        assert scaled.best_solution.qc_sequences == {
            q: tuple(s) for q, s in plain.best_solution.qc_sequences.items()
        }


class TestSafetyDistanceVariants:
    def test_matches_oracle_for_tight_and_wide_spacing(self):
        from conftest import wide_eligibility_instance
        from ipctp.errors import InstanceInvalid

        rng = random.Random(5150)
        checked = {0: 0, 2: 0}
        trial = 0
        while min(checked.values()) < 4 and trial < 60:
            trial += 1
            base = wide_eligibility_instance(rng, shipments=rng.choice((2, 3)))
            spacing = rng.choice((0, 2))
            try:
                instance = replace(base, safety_distance=spacing)
                derived = build_derived(instance)
            except InstanceInvalid:
                continue  # wide spacing can strand a bay with no crane
            oracle_best = brute_force(instance, derived, limit=3_000_000)
            report, solution = solve(instance, derived, SolveParams(time_limit=120))
            assert report.status == "optimal"
            assert report.best_objective == oracle_best.best_objective
            assert validate(instance, derived, solution) == []
            checked[spacing] += 1
        assert min(checked.values()) >= 4
