"""LP export: row structure, injection feasibility, round trips, determinism."""

import hashlib
import random

import pytest

from ipctp.errors import MalformedSolution
from ipctp.instance import build_derived
from ipctp.mip import (
    INTERFERENCE_DISJUNCTION,
    LOCATION_ASSIGNMENT,
    LOCATION_CAPACITY,
    YC_EMPTY_LINEARIZATION,
    build_mip,
    check_point,
    default_big_m,
    export_lp,
    mapping_to_json,
    mip_point_from_solution,
    solution_from_values,
)
from ipctp.oracle import brute_force
from ipctp.schedule import validate
from ipctp.solver import SolveParams, solve

from conftest import (
    interference_pair_instance,
    mixed_instance,
    random_instance,
    single_inbound_instance,
    wide_eligibility_instance,
)
from milp_backend import solve_lp_text


class TestRowStructure:
    def test_single_inbound_two_locations_assignment_row(self):
        instance = single_inbound_instance(locations=2)
        derived = build_derived(instance)
        artifacts = build_mip(instance, derived)
        rows = [r for r in artifacts.rows if r.family == LOCATION_ASSIGNMENT]
        assert len(rows) == 1
        assert rows[0].sense == "="
        assert rows[0].rhs == 1
        assert sorted(rows[0].coeffs) == ["x_1_1", "x_1_2"]
        assert set(rows[0].coeffs.values()) == {1}

    def test_capacity_rows_one_per_location(self):
        instance = mixed_instance()
        derived = build_derived(instance)
        artifacts = build_mip(instance, derived)
        capacity = [r for r in artifacts.rows if r.family == LOCATION_CAPACITY]
        assert len(capacity) == len(instance.inbound_available_locations)

    def test_every_family_has_a_count(self):
        instance = mixed_instance()
        derived = build_derived(instance)
        artifacts = build_mip(instance, derived)
        assert all(count >= 0 for count in artifacts.row_counts.values())
        assert sum(artifacts.row_counts.values()) == len(artifacts.rows)

    def test_big_m_override_and_default(self):
        instance = mixed_instance()
        derived = build_derived(instance)
        assert build_mip(instance, derived).big_m == default_big_m(instance, derived)

    def test_export_is_byte_stable(self):
        instance = mixed_instance()
        derived = build_derived(instance)
        first, artifacts_a = export_lp(instance, derived)
        second, artifacts_b = export_lp(instance, derived)
        assert first == second
        assert mapping_to_json(artifacts_a) == mapping_to_json(artifacts_b)


class TestPinnedExport:
    """The LP text and mapping of fixed instances, pinned by sha256.

    Renaming, reordering or re-weighting any row or variable changes a
    digest.  ``mixed`` and ``wide`` give shipments a choice of quay crane;
    every case has two or more inbound shipments (``thl``/``thu`` rows) and
    active interference tuples (``idj``/``isp`` rows).
    """

    PINNED = {
        "mixed": (
            "8f16e0bfe402e5a59fc75cf50cc29405f27c9b619b348dcbbb6c15a28e1e8b34",
            "f7af1815be7d12f697f15bf3fbdbec2f0c495fcd8321174740d4c0677d5884a2",
        ),
        "interference_pair": (
            "75945ac5e8fda1fe9b6f4892cccde8f183a2ac544b9a85c53c7b6aada9256288",
            "5a94ceb8b2f087130ecd4b2305b79585853846536fa848450f0d17fe61e69568",
        ),
        "random_s5": (
            "7795d61a9e96f56a48ea5b8835c4010527516d70804d156cefebdc4a47d25d7c",
            "eb8c6255e2ab214d9c63e40ee185ff9273bd17627c19e49e39d9db61c67d8b39",
        ),
        "wide": (
            "6e5896912e91105db20fa5d54f10561296c51b559fb010deb68c0dd6f7d52c75",
            "b85ac42f9b0df818c3018e638940eeed4840449acac6d811aec03900cb245b44",
        ),
    }

    @staticmethod
    def instance(name):
        return {
            "mixed": mixed_instance,
            "interference_pair": interference_pair_instance,
            "random_s5": lambda: random_instance(5, 0.5, 6, seed=3),
            "wide": lambda: wide_eligibility_instance(random.Random(808), shipments=4),
        }[name]()

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_export_digests_are_pinned(self, name):
        instance = self.instance(name)
        derived = build_derived(instance)
        text, artifacts = export_lp(instance, derived)
        assert artifacts.row_counts[YC_EMPTY_LINEARIZATION] > 0
        assert artifacts.row_counts[INTERFERENCE_DISJUNCTION] > 0
        digests = (
            hashlib.sha256(text.encode("ascii")).hexdigest(),
            hashlib.sha256(mapping_to_json(artifacts).encode("ascii")).hexdigest(),
        )
        assert digests == self.PINNED[name]


class TestInjection:
    def test_oracle_and_solver_solutions_satisfy_every_row(self):
        for seed in range(4):
            instance = random_instance(3, 0.5, (4, 6)[seed % 2], seed=seed)
            derived = build_derived(instance)
            artifacts = build_mip(instance, derived)
            oracle = brute_force(instance, derived)
            point = mip_point_from_solution(
                instance, derived, artifacts, oracle.best_solution
            )
            assert check_point(artifacts, point) == []
            _, solver_solution = solve(instance, derived, SolveParams(time_limit=60))
            point = mip_point_from_solution(
                instance, derived, artifacts, solver_solution
            )
            assert check_point(artifacts, point) == []

    def test_point_parse_back_reproduces_the_solution(self):
        instance = random_instance(4, 0.5, 6, seed=8)
        derived = build_derived(instance)
        artifacts = build_mip(instance, derived)
        oracle = brute_force(instance, derived)
        point = mip_point_from_solution(instance, derived, artifacts,
                                        oracle.best_solution)
        parsed = solution_from_values(instance, derived, artifacts, point)
        assert parsed.yard_assignment == dict(oracle.best_solution.yard_assignment)
        assert parsed.qc_sequences == {
            q: tuple(s) for q, s in oracle.best_solution.qc_sequences.items()
        }
        assert parsed.yc_sequences == {
            c: tuple(s) for c, s in oracle.best_solution.yc_sequences.items()
        }
        assert parsed.qc_start == dict(oracle.best_solution.qc_start)
        assert parsed.objective == oracle.best_objective
        assert validate(instance, derived, parsed) == []

    @pytest.mark.parametrize("kind", ["qc_successor", "yc_successor"])
    def test_successor_cycle_is_rejected(self, kind):
        instance = mixed_instance()
        derived = build_derived(instance)
        artifacts = build_mip(instance, derived)
        arc = {
            (info["predecessor"], info["successor"], info["crane"]): name
            for name, info in artifacts.variables.items()
            if info["kind"] == kind
        }
        # start -> 3 -> 1 -> 3 -> ... on crane 1: the chain never reaches the end
        start = artifacts.dummy_start
        values = {arc[(start, 3, 1)]: 1, arc[(3, 1, 1)]: 1, arc[(1, 3, 1)]: 1}
        with pytest.raises(MalformedSolution, match="does not terminate"):
            solution_from_values(instance, derived, artifacts, values)


class TestExternalEngine:
    def test_lp_text_round_trip_reaches_oracle_optimum(self):
        for seed in range(3):
            instance = random_instance(3, 0.5, 4, seed=100 + seed)
            derived = build_derived(instance)
            text, artifacts = export_lp(instance, derived)
            oracle = brute_force(instance, derived)
            objective, values = solve_lp_text(text)
            assert abs(objective - oracle.best_objective) < 1e-6
            parsed = solution_from_values(instance, derived, artifacts, values)
            assert validate(instance, derived, parsed) == []
            assert parsed.objective == oracle.best_objective


class TestCraneChoiceEquivalence:
    """The MILP must agree with the oracle when cranes are a real choice."""

    def test_lp_round_trip_with_crane_choice(self):
        import random

        from conftest import wide_eligibility_instance

        rng = random.Random(808)
        exercised = 0
        for trial in range(8):
            instance = wide_eligibility_instance(rng, shipments=rng.choice((2, 3)))
            derived = build_derived(instance)
            if any(len(e) > 1 for e in derived.eligible_qcs.values()):
                exercised += 1
            text, artifacts = export_lp(instance, derived)
            oracle = brute_force(instance, derived, limit=3_000_000)
            objective, values = solve_lp_text(text)
            assert abs(objective - oracle.best_objective) < 1e-6
            parsed = solution_from_values(instance, derived, artifacts, values)
            assert validate(instance, derived, parsed) == []
            assert parsed.objective == oracle.best_objective
        assert exercised >= 4
