"""Brute-force oracle: exactness, budget guard, structural properties."""

import random
import re
from dataclasses import replace
from itertools import permutations, product
from math import perm

import pytest

from ipctp import oracle
from ipctp.errors import BudgetExceeded, CyclicOrdering, IpctpError, NoFeasibleSolution
from ipctp.generator import GenConfig, generate_grid, grid_entry
from ipctp.instance import INBOUND_AVAILABLE, Instance, Vessel, build_derived
from ipctp.oracle import (
    _orderings,
    _quay_choices,
    _yard_choices,
    _yard_orderings,
    brute_force,
    estimate_combinations,
)
from ipctp.schedule import (
    Decisions,
    I_FIRST,
    J_FIRST,
    compute_schedule,
    solution_to_json,
    validate,
)
from ipctp.solver import SolveParams, solve

from conftest import (
    overfull_yard_instance,
    random_decisions,
    random_instance,
    single_inbound_instance,
    wide_eligibility_instance,
)


def plain_enumeration(instance, derived):
    """The oracle as a plain loop: ``compute_schedule`` on every combination,
    in the oracle's order; the first least objective wins.

    Returns the combinations enumerated, how many were cyclic, and the best
    solution.
    """
    quay_side = [
        ([list(permutations(b)) for b in buckets.values()], active)
        for buckets, active in _quay_choices(instance, derived)
    ]
    enumerated = cyclic = 0
    best = None
    for yard, members in _yard_choices(instance):
        yc_options = [list(permutations(ships)) for ships in members.values()]
        for qc_options, active in quay_side:
            for qc_combo in product(*qc_options):
                for directions in product((I_FIRST, J_FIRST), repeat=len(active)):
                    for yc_combo in product(*yc_options):
                        enumerated += 1
                        decisions = Decisions(
                            yard_assignment=yard,
                            qc_sequences=dict(enumerate(qc_combo, start=1)),
                            yc_sequences=dict(zip(members, yc_combo)),
                            interference_order=dict(zip(active, directions)),
                        )
                        try:
                            solution = compute_schedule(instance, derived, decisions)
                        except CyclicOrdering:
                            cyclic += 1
                            continue
                        if best is None or solution.objective < best.objective:
                            best = solution
    return enumerated, cyclic, best.with_status("optimal")


def reference_instances() -> list[Instance]:
    """Small instances of every kind the oracle's segments must cover."""
    instances = [
        random_instance(shipments, ratio, bays, seed)
        for shipments, ratio, bays, seed in (
            (3, 0.5, 4, 1), (3, 0.2, 6, 2), (4, 0.5, 4, 3),
            (4, 0.2, 8, 4), (3, 0.5, 8, 5), (4, 0.5, 6, 6),
        )
    ]
    config = GenConfig(ul_ratio=2, bays=6, shipments=3, inbound_ratio=0.5, vessels=2)
    for rep in range(4):
        instances.append(replace(
            grid_entry(33, config, rep).instance,
            vessels=(Vessel(1, 2), Vessel(2, 3)),
        ))
    rng = random.Random(808)
    for _ in range(4):
        wide = wide_eligibility_instance(rng, shipments=3)
        instances += [wide, replace(wide, safety_distance=0),
                      replace(wide, safety_distance=2)]
    return instances


class TestBruteForce:
    def test_one_inbound_two_locations_enumerates_both(self):
        instance = single_inbound_instance(tt=5, locations=2)
        derived = build_derived(instance)
        result = brute_force(instance, derived)
        # Per-location completion is handling + transfer + handling.
        assert result.enumerated == 2
        assert result.best_objective == 8 + 5 + 10
        assert result.best_solution.yard_assignment == {1: 1}
        assert result.best_solution.status == "optimal"
        assert validate(instance, derived, result.best_solution) == []

    def test_estimate_matches_enumeration(self):
        instance = random_instance(4, 0.5, 4, seed=3)
        derived = build_derived(instance)
        estimate = estimate_combinations(instance, derived, limit=10_000_000)
        # brute_force reports the estimate, so the count is checked against
        # the plain loop's walk.
        assert plain_enumeration(instance, derived)[0] == estimate
        assert brute_force(instance, derived, limit=10_000_000).enumerated == estimate

    def test_yard_side_count_matches_its_walk(self):
        # Every grid configuration whose yard assignments are few enough to
        # walk, plus one with more inbound shipments than locations.
        instances = [
            entry.instance for entry in generate_grid(707, 1)
            if perm(len(entry.instance.inbound_available_locations),
                    len(entry.instance.inbound_shipments)) <= 2_000
        ]
        instances.append(overfull_yard_instance())
        assert len(instances) > 20
        for instance in instances:
            walked = sum(_orderings(members) for _, members in _yard_choices(instance))
            assert _yard_orderings(instance) == walked

    def test_large_yard_side_is_refused_without_a_walk(self, monkeypatch):
        # 518,918,400 yard assignments, under the limit; walking them would
        # take the better part of an hour.
        instance = grid_entry(707, GenConfig(ul_ratio=2, bays=4, shipments=15,
                                             inbound_ratio=0.5), 0).instance
        derived = build_derived(instance)

        def no_walk(_):
            raise AssertionError("the yard assignments were walked")

        monkeypatch.setattr(oracle, "_yard_choices", no_walk)
        assert _yard_orderings(instance) == 4_034_482_421_760
        with pytest.raises(BudgetExceeded, match="combinations exceed the budget"):
            estimate_combinations(instance, derived, 10**9)

    def test_budget_guard(self):
        instance = random_instance(5, 0.5, 8, seed=5, ul=3)
        derived = build_derived(instance)
        with pytest.raises(BudgetExceeded):
            brute_force(instance, derived, limit=10)

    def test_crane_assignments_alone_can_exceed_the_budget(self):
        instance = wide_eligibility_instance(random.Random(15), 5)
        derived = build_derived(instance)
        with pytest.raises(
            BudgetExceeded, match="32 crane assignments alone exceed the budget 12"
        ):
            estimate_combinations(instance, derived, 12)

    def test_dominates_every_random_solution(self):
        rng = random.Random(77)
        instance = random_instance(4, 0.5, 6, seed=11)
        derived = build_derived(instance)
        best = brute_force(instance, derived).best_objective
        for _ in range(50):
            candidate = compute_schedule(
                instance, derived, random_decisions(instance, derived, rng)
            )
            assert best <= candidate.objective

    def test_optimum_invariant_under_id_relabeling(self):
        instance = random_instance(4, 0.5, 4, seed=21)
        derived = build_derived(instance)
        baseline = brute_force(instance, derived).best_objective

        mapping = {s.id: 10 - s.id for s in instance.shipments}  # reverse ids
        relabeled = Instance(
            vessels=instance.vessels,
            shipments=tuple(
                replace(s, id=mapping[s.id]) for s in instance.shipments
            ),
            total_bays=instance.total_bays,
            qc_count=instance.qc_count,
            yc_count=instance.yc_count,
            yard_locations=instance.yard_locations,
            safety_distance=instance.safety_distance,
            qc_unit_travel=instance.qc_unit_travel,
            yc_travel=instance.yc_travel,
            yt_inbound_transfer=instance.yt_inbound_transfer,
        )
        assert (
            brute_force(relabeled, build_derived(relabeled)).best_objective
            == baseline
        )

    def test_removing_a_location_never_helps(self):
        instance = random_instance(3, 0.5, 4, seed=31, ul=3)
        derived = build_derived(instance)
        baseline = brute_force(instance, derived).best_objective

        available = [k for k in instance.yard_locations
                     if k.reserved_for == INBOUND_AVAILABLE]
        inbound_count = len(instance.inbound_shipments)
        assert len(available) > inbound_count
        for drop in available:
            keep = tuple(k for k in instance.yard_locations if k.id != drop.id)
            keep_pos = [pos for pos, k in enumerate(instance.yard_locations)
                        if k.id != drop.id]
            restricted = Instance(
                vessels=instance.vessels,
                shipments=instance.shipments,
                total_bays=instance.total_bays,
                qc_count=instance.qc_count,
                yc_count=instance.yc_count,
                yard_locations=keep,
                safety_distance=instance.safety_distance,
                qc_unit_travel=instance.qc_unit_travel,
                yc_travel=tuple(
                    tuple(instance.yc_travel[a][b] for b in keep_pos)
                    for a in keep_pos
                ),
                yt_inbound_transfer={
                    k: t
                    for k, t in instance.yt_inbound_transfer.items()
                    if k != drop.id
                },
            )
            restricted_best = brute_force(
                restricted, build_derived(restricted)
            ).best_objective
            assert restricted_best >= baseline


class TestAgainstPlainEnumeration:
    def test_same_count_objective_and_solution(self):
        cyclic_total = crane_choices = 0
        for instance in reference_instances():
            derived = build_derived(instance)
            enumerated, cyclic, expected = plain_enumeration(instance, derived)
            result = brute_force(instance, derived)
            assert result.enumerated == enumerated
            assert result.best_objective == expected.objective
            assert solution_to_json(result.best_solution) == solution_to_json(expected)
            cyclic_total += cyclic
            crane_choices += any(len(e) > 1 for e in derived.eligible_qcs.values())
        assert cyclic_total > 0
        assert crane_choices > 0

    def test_score_that_disagrees_with_the_built_solution_raises(self, monkeypatch):
        table = oracle._completion_table

        def heavier(instance, derived):
            return [(weight + 1, ends) for weight, ends in table(instance, derived)]

        monkeypatch.setattr(oracle, "_completion_table", heavier)
        instance = random_instance(3, 0.5, 4, seed=1)
        with pytest.raises(IpctpError, match="oracle scored"):
            brute_force(instance, build_derived(instance))


class TestEmptyDecisionSpace:
    """With more inbound shipments than inbound-available locations there is
    no yard assignment, so nothing is enumerated and nothing is solved."""

    MESSAGE = (
        "no decision combination: 2 inbound shipment(s) exceed 1 "
        "inbound-available location(s)"
    )

    def test_oracle_names_both_counts(self):
        instance = overfull_yard_instance()
        derived = build_derived(instance)
        assert estimate_combinations(instance, derived, limit=10) == 0
        with pytest.raises(NoFeasibleSolution, match=re.escape(self.MESSAGE)):
            brute_force(instance, derived)

    def test_solver_reports_infeasible_without_a_bound(self):
        instance = overfull_yard_instance()
        report, solution = solve(
            instance, build_derived(instance), SolveParams(time_limit=5)
        )
        assert report.status == "infeasible"
        assert report.best_objective is None
        assert report.lower_bound is None
        assert report.gap_percent is None
        assert solution is None
