"""LP export: row structure, injection feasibility, round trips, determinism."""

import hashlib
import math
import random
from dataclasses import replace as dc_replace

import pytest

from ipctp.errors import MalformedSolution
from ipctp.generator import GenConfig, grid_entry
from ipctp.instance import Vessel, build_derived
from ipctp.mip import (
    ALL_FAMILIES,
    INTERFERENCE_DISJUNCTION,
    INTERFERENCE_SEPARATION,
    LOCATION_ASSIGNMENT,
    LOCATION_CAPACITY,
    QC_DISJUNCTION,
    YC_EMPTY_BETWEEN_INBOUND,
    MipArtifacts,
    Row,
    build_mip,
    check_point,
    default_big_m,
    export_lp,
    mapping_to_json,
    mip_point_from_solution,
    render_lp,
    solution_from_values,
)
from ipctp.oracle import brute_force
from ipctp.schedule import J_FIRST, compute_schedule, validate
from ipctp.solver import SolveParams, solve

from conftest import (
    interference_pair_instance,
    mixed_decisions,
    mixed_instance,
    random_decisions,
    random_instance,
    shared_yard_crane_instance,
    single_inbound_instance,
    wide_eligibility_instance,
    yard_crane_trip_instance,
)
from fixtures_violations import FIXTURES
from milp_backend import round_trip


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

    def test_big_m_is_the_default_horizon(self):
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

    def test_counts_in_closed_form(self):
        # s8 with three inbound shipments: larger than any pinned instance.
        config = GenConfig(ul_ratio=3, bays=4, shipments=8, inbound_ratio=0.5)
        entry = grid_entry(707, config, 0)
        assert entry.name == "ipctp_u3_b4_s8_r50_0"
        instance = entry.instance
        derived = build_derived(instance)
        artifacts = build_mip(instance, derived)
        n = len(instance.shipments)
        n_in = len(instance.inbound_shipments)
        pairs = len(derived.interference_set)
        assert n_in >= 3 and pairs > 0
        counts = artifacts.row_counts
        crane = {k.id: k.yc for k in instance.inbound_available_locations}
        trips = [
            (k, l) for k in crane for l in crane
            if k != l and crane[k] == crane[l] and instance.tyc(k, l) > 0
        ]
        assert trips
        assert counts[YC_EMPTY_BETWEEN_INBOUND] == n_in * (n_in - 1) * len(trips)
        assert counts[QC_DISJUNCTION] == n * (n - 1)
        assert counts[INTERFERENCE_DISJUNCTION] == pairs
        assert counts[INTERFERENCE_SEPARATION] == 2 * pairs
        assert all(
            info["kind"] != "pair_placement" for info in artifacts.variables.values()
        )
        # Each row is sy_i_j - t x_ik - t x_jl >= -t with t = tyc(k, l).
        for row in artifacts.rows:
            if row.family != YC_EMPTY_BETWEEN_INBOUND:
                continue
            i, j, k, l = map(int, row.name.removeprefix("sy_uu_").split("_"))
            t = instance.tyc(k, l)
            assert (k, l) in trips
            assert row.coeffs == {f"sy_{i}_{j}": 1, f"x_{i}_{k}": -t, f"x_{j}_{l}": -t}
            assert (row.sense, row.rhs) == (">=", -t)

        # No variable stands for a sum an equality fixes: transfer times and
        # trips with one inbound end are x terms of the rows that read them.
        assert len(ALL_FAMILIES) == 23 and set(counts) == set(ALL_FAMILIES)
        inbound = [s.id for s in instance.inbound_shipments]
        assert not [name for name in artifacts.variables if name.startswith("t_")]
        assert {name for name in artifacts.variables if name.startswith("sy_")} == {
            f"sy_{i}_{j}" for i in inbound for j in inbound if i != j
        }
        x_of = {i: {k: f"x_{i}_{k}" for k in crane} for i in inbound}
        rows = {row.name: row for row in artifacts.rows}
        for i in inbound:
            expected = {f"syc_{i}": 1, f"sqc_{i}": -1}
            expected.update({x: -instance.tt(k) for k, x in x_of[i].items()})
            assert rows[f"ipr_{i}"].coeffs == expected
        mixed = 0
        for name, row in rows.items():
            if not name.startswith("yst_"):
                continue
            i, j, c = map(int, name.removeprefix("yst_").split("_"))
            a, b = instance.shipment(i), instance.shipment(j)
            if a.is_inbound == b.is_inbound:
                continue
            if a.is_inbound:
                terms = {
                    x: -instance.tyc(k, b.fixed_location) for k, x in x_of[i].items()
                }
            else:
                terms = {
                    x: -instance.tyc(a.fixed_location, k) for k, x in x_of[j].items()
                }
            M = artifacts.big_m
            assert row.coeffs == {
                f"syc_{j}": 1, f"syc_{i}": -1, f"v_{i}_{j}_{c}": -M, **terms
            }
            assert (row.sense, row.rhs) == (">=", a.yc_time - M)
            mixed += 1
        assert mixed


class TestRenderFormat:
    """The byte format of ``render_lp`` on a hand-built model.

    No pinned instance has a row whose first sorted coefficient is zero, an
    all-zero row or a row that runs to a third line, so these rules are
    fixed here.  Rows of nine or ten unit terms, which take a second line,
    are pinned too: the flow rows of ``random_s5`` and the interference
    disjunctions of ``mixed``.
    """

    def test_exact_text(self):
        binaries = {f"b_{n:02d}": {"kind": "test", "binary": True} for n in range(1, 12)}
        wide = {f"y_{n:02d}": 1 for n in range(1, 18)}
        artifacts = MipArtifacts(
            variables={**binaries, "c": {"kind": "test", "binary": False}},
            rows=(
                Row("lead_zero", {"c": -1, "a": 0, "b": 2}, "<=", 4, "test"),
                Row("all_zero", {"b": 0, "a": 0}, "=", 0, "test"),
                Row("empty", {}, "=", 0, "test"),
                Row("signs", {"d": -4, "c": 3, "b": -1, "a": 1}, ">=", -2, "test"),
                Row("lead_negative", {"b": 1, "a": -3}, "<=", 0, "test"),
                Row("wide", wide, "<=", 1, "test"),
            ),
            objective={},
            big_m=10,
            dummy_start=0,
            dummy_end=1,
            row_counts={"test": 6},
        )
        assert render_lp(artifacts) == (
            "\\ integrated terminal scheduling model\n"
            "Minimize\n"
            " obj: 0 zero\n"
            "Subject To\n"
            " lead_zero: + 2 b - c <= 4\n"
            " all_zero: 0 a = 0\n"
            " empty: 0 zero = 0\n"
            " signs: a - b + 3 c - 4 d >= -2\n"
            " lead_negative: - 3 a + b <= 0\n"
            " wide: y_01 + y_02 + y_03 + y_04 + y_05 + y_06 + y_07 + y_08\n"
            "   + y_09 + y_10 + y_11 + y_12 + y_13 + y_14 + y_15 + y_16\n"
            "   + y_17 <= 1\n"
            "Binaries\n"
            " b_01 b_02 b_03 b_04 b_05 b_06 b_07 b_08 b_09 b_10\n"
            " b_11\n"
            "End\n"
        )


class TestPinnedExport:
    """The LP text and mapping of fixed instances, pinned by sha256.

    Renaming, reordering or re-weighting any row or variable changes a
    digest.  ``mixed`` and ``wide`` give shipments a choice of quay crane;
    every case has active interference tuples (``idj``/``isp`` rows), and
    the cases of ``PAIR_ROWS`` have two free locations on one yard crane
    (``sy_uu`` rows).  ``s15`` is a model of the ``export`` benchmark
    corpus, ``ipctp_u3_b4_s15_r50_0``: 24 free locations on 6 yard cranes
    and 3,704 rows, 2,688 of them ``sy_uu`` rows.
    """

    PAIR_ROWS = {"mixed", "s15", "wide"}

    PINNED = {
        "mixed": (
            "844e2bcaf744051badc556cf91cc6dc5398b61cf6fda05a6d4309ad3f36d764c",
            "4b49ce3695e977030e4d30d32da4fabbc3b9d3cd7c96620d28f1328c8fe4691e",
        ),
        "interference_pair": (
            "0148164e8c9c8328f0d6c870cc8284dcab9607b485e3fa82061d1d0b78e49fed",
            "dbeb92798135e3ada962eb5829f7e69a88941cf248707db105bae6acd5cfb056",
        ),
        "random_s5": (
            "cdae3c37bcd874c15f4342b72b96316b287131943c9fb6af51a9fc002eee510e",
            "08439a5f27a01db3f43d97b392dd175c9a013d2bbe6a3b4e6ecdc99a5504ec84",
        ),
        "wide": (
            "36f9faaa4da731f85a6d4c80404900529e00afe06a29f67ce07b7e3c9a8cec7b",
            "429d438ce49d2622c94268bfce38cfc8a125d10b3f91cc58c4ca30c0c452c7a2",
        ),
        "s15": (
            "5ba5e8b19cf9ab1563d3799307e0c3e473a19fceef4391ebcffa8419352a5aed",
            "f89e8a09fad223a01201744b163af6c3587369ba58206ec3f67579778ece87f0",
        ),
    }

    @staticmethod
    def instance(name):
        return {
            "mixed": mixed_instance,
            "interference_pair": interference_pair_instance,
            "random_s5": lambda: random_instance(5, 0.5, 6, seed=3),
            "wide": lambda: wide_eligibility_instance(random.Random(808), shipments=4),
            "s15": lambda: grid_entry(
                707, GenConfig(ul_ratio=3, bays=4, shipments=15, inbound_ratio=0.5), 0
            ).instance,
        }[name]()

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_export_digests_are_pinned(self, name):
        instance = self.instance(name)
        derived = build_derived(instance)
        text, artifacts = export_lp(instance, derived)
        has_pair_rows = artifacts.row_counts[YC_EMPTY_BETWEEN_INBOUND] > 0
        assert has_pair_rows == (name in self.PAIR_ROWS)
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

    @pytest.mark.parametrize("name, value", [
        ("sqc_1", math.nan), ("syc_2", math.inf), ("sqc_3", -math.inf),
    ])
    def test_non_finite_start_is_rejected(self, name, value):
        instance = mixed_instance()
        derived = build_derived(instance)
        artifacts = build_mip(instance, derived)
        solution = compute_schedule(instance, derived, mixed_decisions())
        point = mip_point_from_solution(instance, derived, artifacts, solution)
        point[name] = value
        with pytest.raises(MalformedSolution, match=f"{name} is not finite"):
            solution_from_values(instance, derived, artifacts, point)

    # A NaN compares false with 0.5, so it once read as an unchosen binary:
    # a NaN x_1_1 parsed to yard assignment {4: 2} without an error.
    @pytest.mark.parametrize("name, value", [
        ("x_1_1", math.nan), ("z_0_3_1", math.inf), ("v_3_1_1", -math.inf),
    ])
    def test_non_finite_binary_is_rejected(self, name, value):
        instance = mixed_instance()
        derived = build_derived(instance)
        artifacts = build_mip(instance, derived)
        solution = compute_schedule(instance, derived, mixed_decisions())
        point = mip_point_from_solution(instance, derived, artifacts, solution)
        point[name] = value
        with pytest.raises(MalformedSolution, match=f"binary {name} is not finite"):
            solution_from_values(instance, derived, artifacts, point)

    # Location 4 is outbound shipment 2's, so no variable places 1 there.
    @pytest.mark.parametrize("broken, message", [
        ({"yard_assignment": {1: 1}}, "shipment 4 has no yard location"),
        ({"qc_start": {}}, "shipment 1 has no start time"),
        ({"yard_assignment": {1: 4, 4: 2}}, "solution needs unknown variable x_1_4"),
    ], ids=["no_location", "no_start", "outbound_location"])
    def test_solution_lacking_a_location_or_start_is_malformed(self, broken, message):
        instance = mixed_instance()
        derived = build_derived(instance)
        solution = dc_replace(
            compute_schedule(instance, derived, mixed_decisions()), **broken
        )
        with pytest.raises(MalformedSolution, match=message):
            mip_point_from_solution(instance, derived, build_mip(instance, derived),
                                    solution)

    def test_tuple_with_neither_order_binary_on_is_ordered_by_start(self):
        instance = mixed_instance()
        derived = build_derived(instance)
        artifacts = build_mip(instance, derived)
        solution = compute_schedule(instance, derived, mixed_decisions())
        point = mip_point_from_solution(instance, derived, artifacts, solution)
        # Tuple (1, 2, 1, 2) is decided j first: shipment 2 starts first.
        assert point["qz_2_1"] == 1
        point["qz_1_2"] = point["qz_2_1"] = 0
        parsed = solution_from_values(instance, derived, artifacts, point)
        assert parsed.interference_order == {(1, 2, 1, 2): J_FIRST}
        assert parsed.objective == solution.objective
        assert validate(instance, derived, parsed) == []


class TestInboundTravelRowsAreExact:
    """With x fixed at a valid solution's point, the ``sy_uu`` rows and the
    bound sy >= 0 put on each sy_i_j a largest lower bound of exactly the
    travel a schedule reads: tyc(loc i, loc j) when i and j share a yard
    crane, and 0 otherwise, where no chain of one crane holds both."""

    CONFIGS = {
        "ipctp_u2_b4_s8_r50_0": GenConfig(
            ul_ratio=2, bays=4, shipments=8, inbound_ratio=0.5
        ),
        "ipctp_u3_b4_s15_r50_0": GenConfig(
            ul_ratio=3, bays=4, shipments=15, inbound_ratio=0.5
        ),
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_largest_lower_bound_is_the_travel_on_one_crane(self, name):
        entry = grid_entry(707, self.CONFIGS[name], 0)
        assert entry.name == name
        instance = entry.instance
        derived = build_derived(instance)
        artifacts = build_mip(instance, derived)
        inbound = [s.id for s in instance.inbound_shipments]
        travelled = 0
        for seed in range(4):
            decisions = random_decisions(instance, derived, random.Random(seed))
            solution = compute_schedule(instance, derived, decisions)
            assert validate(instance, derived, solution) == []
            point = mip_point_from_solution(instance, derived, artifacts, solution)
            assert check_point(artifacts, point) == []

            bound = {f"sy_{i}_{j}": 0 for i in inbound for j in inbound if i != j}
            for row in artifacts.rows:
                if row.family != YC_EMPTY_BETWEEN_INBOUND:
                    continue
                (sy,) = [v for v in row.coeffs if v.startswith("sy_")]
                assert row.coeffs[sy] == 1
                floor = row.rhs - sum(
                    coef * point[v] for v, coef in row.coeffs.items() if v != sy
                )
                bound[sy] = max(bound[sy], floor)

            yard = solution.yard_assignment
            for i in inbound:
                for j in inbound:
                    if i == j:
                        continue
                    k, l = yard[i], yard[j]
                    if instance.location(k).yc == instance.location(l).yc:
                        expected = instance.tyc(k, l)
                        travelled += expected > 0
                    else:
                        expected = 0
                    assert bound[f"sy_{i}_{j}"] == expected, (seed, i, j)
        assert travelled


class TestCheckPointNonFinite:
    """Every comparison with NaN is false, so a row holds only when its
    comparison does; a NaN value breaks exactly the rows it appears in."""

    def setup_method(self):
        self.instance = mixed_instance()
        derived = build_derived(self.instance)
        self.artifacts = build_mip(self.instance, derived)
        solution = compute_schedule(self.instance, derived, mixed_decisions())
        self.point = mip_point_from_solution(
            self.instance, derived, self.artifacts, solution
        )

    def test_one_nan_breaks_the_rows_it_appears_in(self):
        assert check_point(self.artifacts, self.point) == []
        self.point["sqc_1"] = math.nan
        expected = [row.name for row in self.artifacts.rows if "sqc_1" in row.coeffs]
        assert expected
        assert check_point(self.artifacts, self.point) == expected

    def test_all_nan_breaks_every_row(self):
        point = {name: math.nan for name in self.artifacts.variables}
        assert check_point(self.artifacts, point) == [
            row.name for row in self.artifacts.rows
        ]


class TestCheckPointFlagsTheCatalogue:
    """Each catalogue solution whose fault the model sees breaks rows of the
    validator's family; an overlap breaks the interference disjunction."""

    EXPECTED = {name: {family} for name, family, _ in FIXTURES if name in (
        "capacity_two_inbound_share_location",
        "yc_missing_inbound_membership",
        "yc_missing_outbound_membership",
        "qc_consecutive_too_close",
        "yc_inbound_pair_too_close",
        "yc_inbound_to_outbound_too_close",
        "yc_outbound_to_inbound_too_close",
        "yc_outbound_pair_too_close",
        "outbound_precedence_broken",
        "inbound_precedence_broken",
        "interference_gap_too_small",
    )}
    EXPECTED["interference_overlapping_tasks"] = {INTERFERENCE_DISJUNCTION}
    BUILDERS = {name: builder for name, _, builder in FIXTURES}

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_violated_rows_are_of_the_fixture_family(self, name):
        instance, derived, solution = self.BUILDERS[name]()
        artifacts = build_mip(instance, derived)
        point = mip_point_from_solution(instance, derived, artifacts, solution)
        violated = set(check_point(artifacts, point))
        families = {row.family for row in artifacts.rows if row.name in violated}
        assert families == self.EXPECTED[name]


class TestExternalEngine:
    def test_lp_text_round_trip_reaches_oracle_optimum(self):
        for seed in range(3):
            instance = random_instance(3, 0.5, 4, seed=100 + seed)
            derived = build_derived(instance)
            round_trip(instance, derived, brute_force(instance, derived).best_objective)

    def test_weighted_two_vessel_round_trip(self):
        # The generator weighs every vessel 1; each vessel's completion rows
        # must leave out the other vessel's shipments.
        config = GenConfig(ul_ratio=2, bays=6, shipments=3, inbound_ratio=0.5,
                           vessels=2)
        for seed in range(4):
            instance = dc_replace(
                grid_entry(33, config, seed).instance,
                vessels=(Vessel(1, 2), Vessel(2, 3)),
            )
            derived = build_derived(instance)
            round_trip(instance, derived, brute_force(instance, derived).best_objective)

    def test_round_trip_charges_the_travel_between_inbound_shipments(self):
        # Without the sy_uu rows HiGHS would read the yard crane's travel as
        # 0 and return 4.
        instance = shared_yard_crane_instance()
        derived = build_derived(instance)
        assert brute_force(instance, derived).best_objective == 13
        round_trip(instance, derived, 13)

    # Without the x terms of the yard timing row of the optimum's trip
    # HiGHS would return 36 and 6; each case also catches the other trip.
    @pytest.mark.parametrize("weight, optimum, sequence", [
        (10, 45, (1, 2)), (1, 14, (2, 1)),
    ], ids=["inbound_to_outbound", "outbound_to_inbound"])
    def test_round_trip_charges_the_travel_with_one_inbound_end(
        self, weight, optimum, sequence
    ):
        instance = yard_crane_trip_instance(weight)
        derived = build_derived(instance)
        oracle = brute_force(instance, derived)
        assert oracle.best_objective == optimum
        assert oracle.best_solution.yc_sequences == {1: sequence}
        assert round_trip(instance, derived, optimum).yc_sequences == {1: sequence}

    def test_round_trip_of_a_generated_s8_reaches_the_proven_optimum(self):
        # Two yard cranes here hold two free locations each: 48 sy_uu rows.
        config = GenConfig(ul_ratio=2, bays=4, shipments=8, inbound_ratio=0.5)
        entry = grid_entry(707, config, 0)
        assert entry.name == "ipctp_u2_b4_s8_r50_0"
        instance = entry.instance
        derived = build_derived(instance)
        assert build_mip(instance, derived).row_counts[YC_EMPTY_BETWEEN_INBOUND] > 0
        report, _ = solve(instance, derived, SolveParams(time_limit=60))
        assert (report.status, report.best_objective) == ("optimal", 362)
        round_trip(instance, derived, 362)


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
            oracle = brute_force(instance, derived, limit=3_000_000)
            round_trip(instance, derived, oracle.best_objective)
        assert exercised >= 4
