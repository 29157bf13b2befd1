"""Brute-force oracle: exactness, budget guard, structural properties."""

import random
import re
from dataclasses import replace
from math import perm

import pytest

from ipctp import oracle
from ipctp.errors import BudgetExceeded, NoFeasibleSolution
from ipctp.generator import GenConfig, generate_grid, grid_entry
from ipctp.instance import INBOUND_AVAILABLE, Instance, build_derived
from ipctp.oracle import (
    _orderings,
    _yard_choices,
    _yard_orderings,
    brute_force,
    estimate_combinations,
)
from ipctp.schedule import compute_schedule, validate
from ipctp.solver import SolveParams, solve

from conftest import (
    overfull_yard_instance,
    random_decisions,
    random_instance,
    single_inbound_instance,
)


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
        result = brute_force(instance, derived, limit=10_000_000)
        assert result.enumerated == estimate

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
