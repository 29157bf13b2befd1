"""Schedule construction, objective and validator behaviour."""

import hashlib
import random
from dataclasses import replace
from itertools import combinations, product

import pytest

from ipctp.errors import CyclicOrdering, MalformedSolution
from ipctp.generator import GenConfig, grid_entry
from ipctp.instance import Vessel, Instance, build_derived
from ipctp.oracle import brute_force
from ipctp.schedule import (
    Decisions,
    I_FIRST,
    J_FIRST,
    _longest_paths,
    compute_schedule,
    objective_of,
    relax,
    solution_from_json,
    solution_to_json,
    validate,
    vessel_completions,
)
from ipctp.solver import solve

from conftest import (
    interference_pair_decisions,
    interference_pair_instance,
    mixed_decisions,
    mixed_instance,
    random_decisions,
    random_instance,
    single_inbound_instance,
    single_outbound_instance,
)


class TestComputeSchedule:
    def test_single_outbound_chain(self):
        instance = single_outbound_instance()
        derived = build_derived(instance)
        solution = compute_schedule(
            instance,
            derived,
            Decisions(
                yard_assignment={},
                qc_sequences={1: (1,)},
                yc_sequences={1: (1,)},
                interference_order={},
            ),
        )
        assert solution.yc_start[1] == 0
        assert solution.qc_start[1] == 15
        completions = vessel_completions(instance, solution.qc_start, solution.yc_start)
        assert completions[1] == 23
        assert solution.objective == 23

    def test_single_inbound_chain(self):
        instance = single_inbound_instance(tt=5)
        derived = build_derived(instance)
        solution = compute_schedule(
            instance,
            derived,
            Decisions(
                yard_assignment={1: 1},
                qc_sequences={1: (1,)},
                yc_sequences={1: (1,)},
                interference_order={},
            ),
        )
        assert solution.qc_start[1] == 0
        assert solution.yc_start[1] == 13
        assert solution.objective == 23

    def test_forced_interference_order_separates_starts(self):
        instance = interference_pair_instance()
        derived = build_derived(instance)
        assert derived.interference_time[(1, 2, 1, 2)] == 9
        solution = compute_schedule(
            instance, derived, interference_pair_decisions(I_FIRST)
        )
        assert solution.qc_start[1] == 0
        assert solution.qc_start[2] >= 13  # 4 handling + 9 separation

    def test_reversed_order_flips_the_arc(self):
        instance = interference_pair_instance()
        derived = build_derived(instance)
        solution = compute_schedule(
            instance, derived, interference_pair_decisions(J_FIRST)
        )
        assert solution.qc_start[2] == 0
        assert solution.qc_start[1] >= 15  # 6 handling + 9 separation

    def test_cyclic_ordering_detected(self):
        instance = mixed_instance()
        derived = build_derived(instance)
        # Quay order 3 then 1 conflicts with a yard chain ending in 3.
        decisions = Decisions(
            yard_assignment={1: 1, 4: 2},
            qc_sequences={1: (3, 1), 2: (2, 4)},
            yc_sequences={1: (1, 4, 3), 2: (2,)},
            interference_order={(1, 2, 1, 2): J_FIRST},
        )
        with pytest.raises(CyclicOrdering):
            compute_schedule(instance, derived, decisions)

    def test_structurally_broken_decisions_rejected(self):
        instance = mixed_instance()
        derived = build_derived(instance)
        decisions = Decisions(
            yard_assignment={1: 1},  # shipment 4 unassigned
            qc_sequences={1: (3, 1), 2: (2, 4)},
            yc_sequences={1: (3, 1, 4), 2: (2,)},
            interference_order={},
        )
        with pytest.raises(MalformedSolution):
            compute_schedule(instance, derived, decisions)

    def test_missing_interference_order_rejected(self):
        instance = interference_pair_instance()
        derived = build_derived(instance)
        decisions = replace(interference_pair_decisions(), interference_order={})
        with pytest.raises(MalformedSolution):
            compute_schedule(instance, derived, decisions)

    def test_output_always_validates(self):
        rng = random.Random(20260808)
        for trial in range(40):
            instance = random_instance(
                shipments=rng.choice((2, 3, 4, 5)),
                ratio=rng.choice((0.2, 0.5)),
                bays=rng.choice((4, 6, 8)),
                seed=trial,
            )
            derived = build_derived(instance)
            decisions = random_decisions(instance, derived, rng)
            solution = compute_schedule(instance, derived, decisions)
            assert validate(instance, derived, solution) == []

    def test_extra_ordering_arc_never_decreases_starts(self):
        # Without the interference arc the two shipments are independent
        # chains, so the relaxed start times are known in closed form.
        instance = interference_pair_instance()
        derived = build_derived(instance)
        relaxed = {
            "qc": {1: 0, 2: 0},
            "yc": {1: 0 + 4 + 2, 2: 0 + 6 + 2},
        }
        for order in (I_FIRST, J_FIRST):
            with_arc = compute_schedule(
                instance, derived, interference_pair_decisions(order)
            )
            for i in (1, 2):
                assert with_arc.qc_start[i] >= relaxed["qc"][i]
                assert with_arc.yc_start[i] >= relaxed["yc"][i]


class TestLongestPaths:
    # 0 -> 1 -> 3 and 0 -> 2 -> 3; task 4 has no arc.
    DIAMOND = [(0, 1, 2), (0, 2, 5), (1, 3, 4), (2, 3, 3)]

    def test_diamond_takes_the_longer_branch_in_any_arc_order(self):
        expected = [0, 2, 5, 8, 0]
        assert _longest_paths(5, self.DIAMOND) == expected
        rng = random.Random(5)
        for _ in range(5):
            arcs = rng.sample(self.DIAMOND, len(self.DIAMOND))
            assert _longest_paths(5, arcs) == expected

    def test_two_cycle_is_cyclic(self):
        with pytest.raises(CyclicOrdering):
            _longest_paths(3, [(0, 1, 1), (1, 0, 1)])


class TestRelax:
    """``relax`` against a reference that shares no code with it."""

    @staticmethod
    def reference(n_tasks, arcs):
        """Longest paths from time zero by memoised depth-first search over
        each task's incoming arcs."""
        into = [[] for _ in range(n_tasks)]
        for u, v, weight in arcs:
            into[v].append((u, weight))
        memo = {}

        def longest(v):
            if v not in memo:
                memo[v] = max((longest(u) + w for u, w in into[v]), default=0)
            return memo[v]

        return [longest(v) for v in range(n_tasks)]

    def test_random_dags_match_the_reference(self):
        rng = random.Random(17)
        for _ in range(300):
            n = rng.randint(2, 12)
            rank = rng.sample(range(n), n)  # a hidden topological order
            arcs = [
                (rank[a], rank[b], rng.randint(1, 9))
                for a, b in combinations(range(n), 2)
                if rng.random() < 0.4
            ]
            rng.shuffle(arcs)
            start = [0] * n
            settled, raises = relax(arcs, start)
            assert settled
            assert start == self.reference(n, arcs)
            assert raises >= sum(1 for t in start if t > 0)

    def test_two_cycle_gives_up_after_every_pass(self):
        # Three tasks, so five passes, each raising both tasks once.
        assert relax([(0, 1, 1), (1, 0, 1)], [0, 0, 0]) == (False, 10)

    def test_diamond_counts_each_raise(self):
        diamond = TestLongestPaths.DIAMOND
        # In arc order, task 3 is raised twice in the first pass.
        start = [0] * 5
        assert relax(diamond, start) == (True, 4)
        assert start == [0, 2, 5, 8, 0]
        # Reversed, the arcs into 3 come before those that raise 1 and 2:
        # 3 is raised twice in the first pass and once more in the second.
        start = [0] * 5
        assert relax(diamond[::-1], start) == (True, 5)
        assert start == [0, 2, 5, 8, 0]


class TestObjective:
    def test_single_vessel(self):
        instance = single_outbound_instance()
        derived = build_derived(instance)
        solution = compute_schedule(
            instance,
            derived,
            Decisions(
                yard_assignment={},
                qc_sequences={1: (1,)},
                yc_sequences={1: (1,)},
                interference_order={},
            ),
        )
        assert objective_of(instance, solution) == 23

    def test_weighted_sum_two_vessels(self):
        base = mixed_instance()
        weighted = Instance(
            vessels=(Vessel(1, 2), Vessel(2, 3)),
            shipments=tuple(
                replace(s, vessel=1 if s.id in (1, 3) else 2) for s in base.shipments
            ),
            total_bays=base.total_bays,
            qc_count=base.qc_count,
            yc_count=base.yc_count,
            yard_locations=base.yard_locations,
            safety_distance=base.safety_distance,
            qc_unit_travel=base.qc_unit_travel,
            yc_travel=base.yc_travel,
            yt_inbound_transfer=base.yt_inbound_transfer,
        )
        derived = build_derived(weighted)
        solution = compute_schedule(weighted, derived, mixed_decisions())
        completions = vessel_completions(weighted, solution.qc_start, solution.yc_start)
        assert solution.objective == 2 * completions[1] + 3 * completions[2]

    def test_vessel_without_shipments_counts_zero(self):
        base = single_outbound_instance()
        extended = Instance(
            vessels=(Vessel(1, 1), Vessel(2, 5)),
            shipments=base.shipments,
            total_bays=base.total_bays,
            qc_count=base.qc_count,
            yc_count=base.yc_count,
            yard_locations=base.yard_locations,
            safety_distance=base.safety_distance,
            qc_unit_travel=base.qc_unit_travel,
            yc_travel=base.yc_travel,
            yt_inbound_transfer=base.yt_inbound_transfer,
        )
        derived = build_derived(extended)
        solution = compute_schedule(
            extended,
            derived,
            Decisions(
                yard_assignment={},
                qc_sequences={1: (1,)},
                yc_sequences={1: (1,)},
                interference_order={},
            ),
        )
        completions = vessel_completions(extended, solution.qc_start, solution.yc_start)
        assert completions[2] == 0
        assert solution.objective == 23

    def test_weight_scaling_is_linear(self):
        base = mixed_instance()
        derived = build_derived(base)
        solution = compute_schedule(base, derived, mixed_decisions())
        scaled_instance = Instance(
            vessels=(Vessel(1, 4),),
            shipments=base.shipments,
            total_bays=base.total_bays,
            qc_count=base.qc_count,
            yc_count=base.yc_count,
            yard_locations=base.yard_locations,
            safety_distance=base.safety_distance,
            qc_unit_travel=base.qc_unit_travel,
            yc_travel=base.yc_travel,
            yt_inbound_transfer=base.yt_inbound_transfer,
        )
        assert objective_of(scaled_instance, solution) == 4 * solution.objective

    def test_invariant_under_id_relabeling(self):
        rng = random.Random(7)
        instance = random_instance(4, 0.5, 6, 99)
        derived = build_derived(instance)
        decisions = random_decisions(instance, derived, rng)
        solution = compute_schedule(instance, derived, decisions)

        mapping = {s.id: s.id + 100 for s in instance.shipments}
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
        relabeled_derived = build_derived(relabeled)
        relabeled_decisions = Decisions(
            yard_assignment={
                mapping[i]: k for i, k in decisions.yard_assignment.items()
            },
            qc_sequences={
                q: tuple(mapping[i] for i in seq)
                for q, seq in decisions.qc_sequences.items()
            },
            yc_sequences={
                c: tuple(mapping[i] for i in seq)
                for c, seq in decisions.yc_sequences.items()
            },
            interference_order={
                (mapping[i], mapping[j], v, w): order
                for (i, j, v, w), order in decisions.interference_order.items()
            },
        )
        relabeled_solution = compute_schedule(
            relabeled, relabeled_derived, relabeled_decisions
        )
        assert relabeled_solution.objective == solution.objective


class TestSolutionJson:
    def test_round_trip_preserves_decisions_and_validates(self):
        instance = mixed_instance()
        derived = build_derived(instance)
        solution = compute_schedule(instance, derived, mixed_decisions())
        text = solution_to_json(solution)
        loaded = solution_from_json(text)
        assert loaded.yard_assignment == dict(solution.yard_assignment)
        assert loaded.qc_sequences == {
            q: tuple(s) for q, s in solution.qc_sequences.items()
        }
        assert loaded.interference_order == dict(solution.interference_order)
        assert loaded.qc_start == dict(solution.qc_start)
        assert loaded.objective == solution.objective
        assert validate(instance, derived, loaded) == []
        assert solution_to_json(loaded) == text

    @pytest.mark.parametrize("shipments", (3, 4, 5))
    @pytest.mark.parametrize("ratio", (0.2, 0.5))
    def test_solver_and_oracle_solutions_survive_the_file(self, shipments, ratio):
        config = GenConfig(ul_ratio=2, bays=4, shipments=shipments,
                           inbound_ratio=ratio)
        for replicate in range(3):
            instance = grid_entry(707, config, replicate).instance
            derived = build_derived(instance)
            _, solved = solve(instance, derived)
            oracle = brute_force(instance, derived).best_solution
            for solution in (solved, oracle):
                assert solution_from_json(solution_to_json(solution)) == solution

    def test_required_keys(self):
        import json

        instance = mixed_instance()
        derived = build_derived(instance)
        solution = compute_schedule(instance, derived, mixed_decisions())
        payload = json.loads(solution_to_json(solution))
        assert set(payload) == {
            "yard_assignment",
            "qc_sequences",
            "yc_sequences",
            "interference_order",
            "starts",
            "objective",
            "status",
        }

    @pytest.mark.parametrize(
        "path, value",
        [
            (("objective",), 27.5),
            (("objective",), True),
            (("starts", "qc", "1"), 0.0),
            (("yard_assignment", "4"), True),
            (("qc_sequences", "1", 0), 1.0),
        ],
    )
    def test_non_integer_values_rejected(self, path, value):
        import json

        instance = mixed_instance()
        solution = compute_schedule(instance, build_derived(instance), mixed_decisions())
        payload = json.loads(solution_to_json(solution))
        target = payload
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value
        with pytest.raises(MalformedSolution, match="not an integer"):
            solution_from_json(json.dumps(payload))


class TestMinimality:
    def test_any_unit_decrement_breaks_feasibility(self):
        rng = random.Random(4242)
        for trial in range(15):
            instance = random_instance(
                shipments=rng.choice((2, 3, 4)),
                ratio=0.5,
                bays=rng.choice((4, 6)),
                seed=1000 + trial,
            )
            derived = build_derived(instance)
            solution = compute_schedule(
                instance, derived, random_decisions(instance, derived, rng)
            )
            for ship in instance.shipments:
                for attr in ("qc_start", "yc_start"):
                    starts = dict(getattr(solution, attr))
                    starts[ship.id] -= 1
                    mutated = replace(solution, **{attr: starts})
                    mutated = replace(
                        mutated, objective=objective_of(instance, mutated)
                    )
                    assert validate(instance, derived, mutated), (
                        f"decrementing {attr}[{ship.id}] stayed feasible"
                    )


class TestValidate:
    @pytest.mark.parametrize("field, entry, detail", [
        ("yard_assignment", {2: 1}, "assignment for non-inbound id"),
    ], ids=["outbound_shipment"])
    def test_assignments_of_unexpected_ids_are_reported(self, mixed, field, entry,
                                                        detail):
        instance, derived = mixed
        solution = compute_schedule(instance, derived, mixed_decisions())
        broken = replace(solution, **{field: {**getattr(solution, field), **entry}})
        ids = next(iter(entry))
        assert (ids,) in [v.ids for v in validate(instance, derived, broken)
                          if v.detail == detail]


def _mutate(kind, fields, instance, rng):
    """Apply one mutation of the kind to the solution fields in place.

    Returns False when the solution offers nothing to mutate.
    """
    ship_ids = sorted(s.id for s in instance.shipments)
    sequences = fields[rng.choice(("qc_sequences", "yc_sequences"))]
    cranes = sorted(sequences)
    if not cranes and kind.endswith(("_sequence", "_shipment", "_crane", "_cranes")):
        return False
    if kind in ("decrement_start", "drop_start"):
        starts = fields[rng.choice(("qc_start", "yc_start"))]
        i = rng.choice(ship_ids)
        if i not in starts:
            return False
        if kind == "drop_start":
            del starts[i]
        else:
            starts[i] -= rng.randint(1, 5)
    elif kind == "reverse_sequence":
        long = [c for c in cranes if len(sequences[c]) > 1]
        if not long:
            return False
        c = rng.choice(long)
        sequences[c] = sequences[c][::-1]
    elif kind == "append_shipment":
        c = rng.choice(cranes)
        sequences[c] += (rng.choice(ship_ids + [max(ship_ids) + 1]),)
    elif kind == "drop_crane":
        del sequences[rng.choice(cranes)]
    elif kind == "add_crane":
        sequences[max(cranes) + 1] = sequences[rng.choice(cranes)]
    elif kind == "swap_cranes":
        if len(cranes) < 2:
            return False
        a, b = rng.sample(cranes, 2)
        sequences[a], sequences[b] = sequences[b], sequences[a]
    elif kind in ("move_location", "drop_location"):
        yard = fields["yard_assignment"]
        if not yard:
            return False
        i = rng.choice(sorted(yard))
        if kind == "drop_location":
            del yard[i]
        else:
            places = [k.id for k in instance.yard_locations if k.id != yard[i]]
            yard[i] = rng.choice(places + [999])
    else:  # flip_order or drop_order
        order = fields["interference_order"]
        if not order:
            return False
        key = rng.choice(sorted(order))
        if kind == "drop_order":
            del order[key]
        else:
            order[key] = J_FIRST if order[key] == I_FIRST else I_FIRST
    return True


MUTATIONS = (
    "decrement_start",
    "drop_start",
    "reverse_sequence",
    "append_shipment",
    "drop_crane",
    "add_crane",
    "swap_cranes",
    "move_location",
    "drop_location",
    "flip_order",
    "drop_order",
)


class TestPinnedValidation:
    """Every violation ``validate`` reports for seeded mutants of feasible
    schedules, in order, pinned by sha256: a change to any family, id tuple,
    detail text or their order shows here."""

    # Historical: (0cd7d465..., 6038, 2244) while the mutations also
    # corrupted the stored transfer and empty-travel values, then
    # (4db7ed63..., 4699, 1772) without those two mutations.  Recorded once
    # a solution stopped storing them: the 4,699 lists are the earlier ones
    # less their 177 reports of stale stored values, line by line.
    PINNED = (
        "a4bcb4a1cb01660e6bb41c894fde03176321d8266adf760b21b20fd5f421fe8a",
        4699,  # mutants
        1748,  # mutants with two or more violations
    )

    MUTATED_FIELDS = (
        "yard_assignment", "qc_sequences", "yc_sequences",
        "interference_order", "qc_start", "yc_start",
    )

    @classmethod
    def mutants(cls):
        """Each applicable mutant with its instance and derived tables, in
        generation order."""
        rng = random.Random(6006)
        shapes = product((2, 3, 4, 5), (0.2, 0.5), (2, 3), (4, 6, 8), range(2))
        for shipments, ratio, ul, bays, seed in shapes:
            instance = random_instance(shipments, ratio, bays, seed=seed, ul=ul)
            derived = build_derived(instance)
            base = compute_schedule(
                instance, derived, random_decisions(instance, derived, rng)
            )
            singles = [(kind,) for kind in MUTATIONS]
            for combo in singles + list(combinations(MUTATIONS, 2)):
                fields = {f: dict(getattr(base, f)) for f in cls.MUTATED_FIELDS}
                if not all([_mutate(kind, fields, instance, rng) for kind in combo]):
                    continue
                yield instance, derived, replace(base, **fields)

    @classmethod
    def report(cls):
        """One violation list per applicable mutant, in generation order."""
        return [
            [(v.family, list(v.ids), v.detail) for v in validate(*mutant)]
            for mutant in cls.mutants()
        ]

    def test_violation_lists_are_pinned(self):
        lines = self.report()
        text = "\n".join(repr(line) for line in lines)
        digest = hashlib.sha256(text.encode("ascii")).hexdigest()
        several = sum(1 for line in lines if len(line) > 1)
        assert (digest, len(lines), several) == self.PINNED

    def test_verdicts_survive_the_solution_file(self):
        for instance, derived, mutant in self.mutants():
            reloaded = solution_from_json(solution_to_json(mutant))
            assert validate(instance, derived, reloaded) == validate(
                instance, derived, mutant
            ), solution_to_json(mutant)
