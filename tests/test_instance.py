"""Instance model: eligibility, distances, interference, derived tables, I/O."""

import json
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipctp.errors import InstanceInvalid, NoEligibleCrane
from ipctp.instance import (
    INBOUND,
    OUTBOUND_FIXED,
    Instance,
    Shipment,
    Vessel,
    YardLocation,
    bay_interference_time,
    build_derived,
    crane_min_distance,
    eligible_qcs,
    instance_from_json,
    instance_from_payload,
    instance_to_json,
)
from ipctp.schedule import J_FIRST, order_arcs, solution_to_json
import ipctp.solver
from ipctp.solver import SolveParams, solve

from conftest import (
    TickingClock,
    detour_payload,
    interference_pair_instance,
    mixed_instance,
    random_instance,
    single_inbound_instance,
)


class TestEligibleQcs:
    def test_leftmost_bays_single_crane(self):
        assert eligible_qcs(1, 9, 3, 1) == {1}
        assert eligible_qcs(2, 9, 3, 1) == {1}

    def test_rightmost_bays_single_crane(self):
        assert eligible_qcs(8, 9, 3, 1) == {3}
        assert eligible_qcs(9, 9, 3, 1) == {3}

    def test_shared_bays(self):
        assert eligible_qcs(3, 9, 3, 1) == {1, 2}
        assert eligible_qcs(4, 9, 3, 1) == {1, 2}

    def test_center_bay_all_cranes(self):
        assert eligible_qcs(5, 9, 3, 1) == {1, 2, 3}

    def test_no_crane_fits(self):
        # Three cranes spaced two bays apart cannot all fit along 4 bays.
        with pytest.raises(NoEligibleCrane):
            eligible_qcs(1, 4, 3, 1)

    def test_bay_out_of_range(self):
        with pytest.raises(InstanceInvalid):
            eligible_qcs(0, 9, 3, 1)

    @given(
        bays=st.integers(4, 30),
        extra=st.integers(1, 10),
        cranes=st.integers(1, 4),
        safety=st.integers(0, 2),
    )
    @settings(max_examples=200)
    def test_wider_vessel_never_shrinks_eligibility(self, bays, extra, cranes, safety):
        for bay in range(1, bays + 1):
            try:
                narrow = eligible_qcs(bay, bays, cranes, safety)
            except NoEligibleCrane:
                continue
            wide = eligible_qcs(bay, bays + extra, cranes, safety)
            assert narrow <= wide

    @given(bays=st.integers(4, 30), cranes=st.integers(1, 4), safety=st.integers(0, 2))
    @settings(max_examples=200)
    def test_every_crane_covers_its_own_block(self, bays, cranes, safety):
        if bays < cranes * (safety + 1):
            return
        covered = set()
        for bay in range(1, bays + 1):
            covered |= eligible_qcs(bay, bays, cranes, safety)
        assert covered == set(range(1, cranes + 1))


class TestCraneMinDistance:
    def test_adjacent(self):
        assert crane_min_distance(1, 2, 1) == 2

    def test_self(self):
        assert crane_min_distance(3, 3, 1) == 0

    def test_two_apart(self):
        assert crane_min_distance(1, 3, 1) == 4

    @given(v=st.integers(1, 6), w=st.integers(1, 6), safety=st.integers(0, 3))
    def test_symmetric(self, v, w, safety):
        assert crane_min_distance(v, w, safety) == crane_min_distance(w, v, safety)


class TestInterferenceTime:
    def test_adjacent_cranes_one_bay_apart(self):
        assert bay_interference_time(5, 4, 1, 2, 1, 3) == 9

    def test_far_bays_no_interference(self):
        assert bay_interference_time(1, 9, 1, 3, 1, 3) == 0

    def test_safe_side_is_zero(self):
        # First crane well left of the second: exactly at the minimum gap.
        assert bay_interference_time(2, 4, 1, 2, 1, 3) == 0

    def test_same_crane_never_interferes(self):
        for bay_i in range(1, 9):
            for bay_j in range(1, 9):
                assert bay_interference_time(bay_i, bay_j, 2, 2, 1, 3) == 0

    def test_distinct_shipments_match_the_derived_table(self):
        for instance in (mixed_instance(), random_instance(6, 0.5, 8, seed=4, ul=3)):
            derived = build_derived(instance)
            eligible = derived.eligible_qcs
            ships = [s.id for s in instance.shipments]
            pairs = [(i, j) for i in ships for j in ships if i < j]

            def separation(i, j, v, w):
                return bay_interference_time(
                    instance.shipment(i).bay, instance.shipment(j).bay, v, w,
                    instance.safety_distance, instance.qc_unit_travel,
                )

            assert any(separation(i, j, v, w) > 0
                       for i, j in pairs for v in eligible[i] for w in eligible[j])
            for i, j in pairs:
                for v in eligible[i]:
                    for w in eligible[j]:
                        assert separation(i, j, v, w) == (
                            derived.interference_time.get((i, j, v, w), 0)
                        )

    @given(
        bay_i=st.integers(1, 12),
        bay_j=st.integers(1, 12),
        v=st.integers(1, 4),
        w=st.integers(1, 4),
        safety=st.integers(0, 2),
        unit=st.integers(1, 5),
    )
    @settings(max_examples=300)
    def test_swap_symmetry(self, bay_i, bay_j, v, w, safety, unit):
        assert bay_interference_time(
            bay_i, bay_j, v, w, safety, unit
        ) == bay_interference_time(bay_j, bay_i, w, v, safety, unit)

    @given(
        bay_i=st.integers(1, 12),
        bay_j=st.integers(1, 12),
        v=st.integers(1, 4),
        w=st.integers(1, 4),
    )
    def test_nonnegative(self, bay_i, bay_j, v, w):
        assert bay_interference_time(bay_i, bay_j, v, w, 1, 3) >= 0


class TestBuildDerived:
    def test_single_shipment_has_empty_interference_set(self):
        derived = build_derived(single_inbound_instance())
        assert derived.interference_set == ()

    def test_two_close_shipments_interfere_on_both_crane_orders(self):
        # Bays 4 and 5 with two eligible cranes produce both orientations.
        instance = mixed_instance()
        derived = build_derived(instance)
        tuples = {(i, j, v, w) for (i, j, v, w) in derived.interference_set}
        assert (1, 2, 1, 2) in tuples
        assert (1, 2, 2, 1) in tuples
        assert derived.interference_time[(1, 2, 1, 2)] == 3
        assert derived.interference_time[(1, 2, 2, 1)] == 9

    def test_maximally_separated_bays_do_not_interfere(self):
        instance = single_inbound_instance()
        wide = Instance(
            vessels=instance.vessels,
            shipments=(
                Shipment(id=1, vessel=1, direction=INBOUND, bay=1,
                         containers=2, qc_time=5, yc_time=5),
                Shipment(id=2, vessel=1, direction=INBOUND, bay=9,
                         containers=2, qc_time=5, yc_time=5),
            ),
            total_bays=9,
            qc_count=3,
            yc_count=1,
            yard_locations=instance.yard_locations,
            safety_distance=1,
            qc_unit_travel=3,
            yc_travel=instance.yc_travel,
            yt_inbound_transfer=instance.yt_inbound_transfer,
        )
        derived = build_derived(wide)
        assert derived.interference_set == ()

    def test_theta_is_ordered_and_positive(self, mixed):
        instance, derived = mixed
        for i, j, v, w in derived.interference_set:
            assert i < j
            assert derived.interference_time[(i, j, v, w)] > 0
            assert v in derived.eligible_qcs[i]
            assert w in derived.eligible_qcs[j]

    def test_interference_is_stored_once_per_pair(self):
        for instance in (mixed_instance(), random_instance(6, 0.5, 8, seed=4, ul=3)):
            derived = build_derived(instance)
            assert derived.interference_set
            assert tuple(derived.interference_time) == derived.interference_set
            assert all(i < j for i, j, _, _ in derived.interference_time)

    def test_tqc(self, mixed):
        instance, _ = mixed
        assert instance.tqc(4, 5) == 3
        assert instance.tqc(4, 1) == 9
        assert instance.tqc(4, 4) == 0

    def test_deterministic_byte_for_byte(self):
        first = build_derived(mixed_instance())
        second = build_derived(mixed_instance())
        assert first == second


class TestSeparationArcs:
    def test_pair_table(self):
        derived = build_derived(interference_pair_instance())
        assert derived.separation_arcs == {
            (1, 2, 1, 2): ((0, 2, 13), (2, 0, 15)),
            (1, 2, 2, 1): ((0, 2, 7), (2, 0, 9)),
        }

    def test_order_arcs_look_the_arc_up(self):
        derived = build_derived(interference_pair_instance())
        assert order_arcs(derived, {(1, 2, 1, 2): J_FIRST}) == [(2, 0, 15)]

    @pytest.mark.parametrize("shape", [
        (5, 0.5, 4, 3), (6, 0.5, 6, 3), (8, 0.2, 8, 2), (10, 0.5, 8, 3),
    ])
    def test_each_arc_waits_for_the_first_quay_task(self, shape):
        shipments, ratio, bays, ul = shape
        instance = random_instance(shipments, ratio, bays, 707, ul=ul)
        derived = build_derived(instance)
        assert derived.interference_set
        assert list(derived.separation_arcs) == list(derived.interference_set)
        task = derived.quay_task
        for key, arcs in derived.separation_arcs.items():
            i, j = key[:2]
            for (u, v, gap), (first, second) in zip(arcs, ((i, j), (j, i))):
                assert (u, v) == (task[first], task[second])
                assert gap == (
                    instance.shipment(first).qc_time + derived.interference_time[key]
                )


class TestInstanceValidation:
    def test_bay_outside_vessel(self):
        base = single_inbound_instance()
        with pytest.raises(InstanceInvalid):
            Instance(
                vessels=base.vessels,
                shipments=(
                    Shipment(id=1, vessel=1, direction=INBOUND, bay=7,
                             containers=2, qc_time=8, yc_time=10),
                ),
                total_bays=2,
                qc_count=1,
                yc_count=1,
                yard_locations=base.yard_locations,
                safety_distance=1,
                qc_unit_travel=3,
                yc_travel=base.yc_travel,
                yt_inbound_transfer=base.yt_inbound_transfer,
            )

    def test_asymmetric_travel_rejected(self):
        base = mixed_instance()
        bad = [list(row) for row in base.yc_travel]
        bad[0][1] = 7
        with pytest.raises(InstanceInvalid):
            Instance(
                vessels=base.vessels,
                shipments=base.shipments,
                total_bays=base.total_bays,
                qc_count=base.qc_count,
                yc_count=base.yc_count,
                yard_locations=base.yard_locations,
                safety_distance=base.safety_distance,
                qc_unit_travel=base.qc_unit_travel,
                yc_travel=tuple(tuple(row) for row in bad),
                yt_inbound_transfer=base.yt_inbound_transfer,
            )

    def test_nonpositive_weight_rejected(self):
        base = single_inbound_instance()
        with pytest.raises(InstanceInvalid):
            Instance(
                vessels=(Vessel(1, 0),),
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

    def test_inbound_with_fixed_location_rejected(self):
        base = single_inbound_instance()
        with pytest.raises(InstanceInvalid):
            Instance(
                vessels=base.vessels,
                shipments=(
                    Shipment(id=1, vessel=1, direction=INBOUND, bay=1,
                             containers=2, qc_time=8, yc_time=10,
                             fixed_location=1, yt_outbound_time=2),
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

    def test_unreferenced_outbound_location_rejected(self):
        base = single_inbound_instance()
        with pytest.raises(InstanceInvalid):
            Instance(
                vessels=base.vessels,
                shipments=base.shipments,
                total_bays=base.total_bays,
                qc_count=base.qc_count,
                yc_count=base.yc_count,
                yard_locations=base.yard_locations
                + (YardLocation(9, 1, 1, "C", OUTBOUND_FIXED),),
                safety_distance=base.safety_distance,
                qc_unit_travel=base.qc_unit_travel,
                yc_travel=tuple(
                    tuple(list(row) + [1]) for row in base.yc_travel
                ) + ((1, 0),),
                yt_inbound_transfer=base.yt_inbound_transfer,
            )

    def test_detour_quicker_than_direct_travel_rejected(self):
        # Location 1 lies between 2 and 3; the solver's crane arcs would
        # miss the detour and prove 5 where 4 is the optimum.
        with pytest.raises(InstanceInvalid, match="from location 2 to 3 exceeds"):
            instance_from_payload(detour_payload())

    def test_detour_through_another_crane_is_allowed(self):
        payload = detour_payload()
        payload["geometry"]["yc_count"] = 2
        payload["yard_locations"][0]["yc"] = 2
        assert instance_from_payload(payload).yc_travel[1][2] == 2


_DROP = object()


def _edited(*path, value):
    """Read mixed_instance's file with the entry at ``path`` set to ``value``
    (or removed, for ``_DROP``)."""

    def build():
        payload = json.loads(instance_to_json(mixed_instance()))
        *parents, last = path
        entry = payload
        for key in parents:
            entry = entry[key]
        if value is _DROP:
            del entry[last]
        else:
            entry[last] = value
        return instance_from_payload(payload)

    return build


# Shipments 2 and 3 are outbound, to locations 4 and 5; locations 1 to 3
# are inbound-available.
_REJECTIONS = {
    "no_bays": (_edited("geometry", "B_T", value=0), "total_bays must be positive"),
    "no_quay_cranes": (_edited("geometry", "QC_T", value=0),
                       "qc_count must be positive"),
    "no_yard_cranes": (_edited("geometry", "yc_count", value=0),
                       "yc_count must be positive"),
    "negative_safety": (_edited("geometry", "delta", value=-1),
                        "safety_distance must be nonnegative"),
    "negative_quay_travel": (_edited("geometry", "s_qc", value=-1),
                             "qc_unit_travel must be nonnegative"),
    "duplicate_vessel": (
        _edited("vessels", value=[{"id": 1, "weight": 1}, {"id": 1, "weight": 2}]),
        "duplicate vessel ids",
    ),
    "duplicate_location": (_edited("yard_locations", 1, "id", value=1),
                           "duplicate yard location ids"),
    "duplicate_shipment": (_edited("shipments", 1, "id", value=1),
                           "duplicate shipment ids"),
    "unknown_yard_crane": (_edited("yard_locations", 0, "yc", value=9),
                           "location 1: unknown yard crane 9"),
    "unknown_field": (_edited("yard_locations", 0, "field", value="Z"),
                      "location 1: unknown field 'Z'"),
    "unknown_reservation": (_edited("yard_locations", 0, "reserved_for", value="x"),
                            "location 1: unknown reservation 'x'"),
    "travel_not_square": (_edited("travel", "tyc", value=[[0]]),
                          "yc_travel must be square over yard_locations"),
    "travel_diagonal": (_edited("travel", "tyc", 0, 0, value=1),
                        "yc_travel diagonal must be zero"),
    "negative_travel_entry": (_edited("travel", "tyc", 0, 1, value=-1),
                              "yc_travel times must be nonnegative"),
    "negative_transfer": (_edited("travel", "tt", 0, value=-1),
                          "transfer time to location 1 is negative"),
    "transfer_too_short": (_edited("travel", "tt", value=[5, 6, 9]),
                           "travel.tt has 3 entries for 5 yard locations"),
    "transfer_too_long": (_edited("travel", "tt", value=[5, 6, 9, 0, 0, 99, 100]),
                          "travel.tt has 7 entries for 5 yard locations"),
    "transfer_unused_slot": (_edited("travel", "tt", value=[5, 6, 9, "junk", None]),
                             "transfer time must be an integer, got 'junk'"),
    "unknown_vessel": (_edited("shipments", 0, "vessel", value=9),
                       "shipment 1: unknown vessel 9"),
    "unknown_direction": (_edited("shipments", 0, "direction", value="sideways"),
                          "shipment 1: unknown direction"),
    "no_containers": (_edited("shipments", 0, "containers", value=0),
                      "shipment 1: containers must be positive"),
    "no_handling_time": (_edited("shipments", 0, "yc_time", value=0),
                         "shipment 1: handling times must be positive"),
    "outbound_without_location": (
        _edited("shipments", 1, "fixed_location", value=_DROP),
        "shipment 2: outbound shipments need location and travel",
    ),
    "negative_outbound_travel": (_edited("shipments", 1, "yt_outbound_time", value=-1),
                                 "shipment 2: negative travel time"),
    "unknown_outbound_location": (_edited("shipments", 1, "fixed_location", value=99),
                                  "shipment 2: unknown location 99"),
    "inbound_location_for_outbound": (
        _edited("shipments", 1, "fixed_location", value=1),
        "shipment 2: location 1 is not outbound-reserved",
    ),
    "location_fixed_twice": (_edited("shipments", 2, "fixed_location", value=4),
                             "location 4 fixed for two outbound shipments"),
    # The reader builds the transfer table from ``tt``, so only a direct
    # construction can leave a location out.
    "transfer_coverage": (
        lambda: replace(mixed_instance(), yt_inbound_transfer={1: 5, 2: 6}),
        "yt_inbound_transfer must cover exactly the inbound-available locations",
    ),
}


class TestInputBoundary:
    @pytest.mark.parametrize(
        "build, message", _REJECTIONS.values(), ids=_REJECTIONS.keys()
    )
    def test_each_rejection_names_its_cause(self, build, message):
        with pytest.raises(InstanceInvalid, match=re.escape(message)):
            build()

    def test_eligibility_needs_a_quay_crane(self):
        with pytest.raises(InstanceInvalid, match="qc_count must be positive"):
            eligible_qcs(1, 4, 0, 1)


class TestInstanceJson:
    def test_round_trip_is_identity(self):
        instance = mixed_instance()
        text = instance_to_json(instance)
        again = instance_from_json(text)
        assert again == instance
        assert instance_to_json(again) == text

    def test_geometry_keys(self):
        import json

        payload = json.loads(instance_to_json(mixed_instance()))
        assert set(payload) == {
            "vessels", "shipments", "yard_locations", "geometry", "travel",
        }
        assert set(payload["geometry"]) == {"B_T", "QC_T", "yc_count", "delta", "s_qc"}
        assert set(payload["travel"]) == {"tyc", "tt"}

    @pytest.mark.parametrize("value", [7.5, True, "7"])
    def test_non_integer_handling_time_rejected(self, value):
        import json

        payload = json.loads(instance_to_json(mixed_instance()))
        payload["shipments"][0]["qc_time"] = value
        with pytest.raises(InstanceInvalid, match="qc_time must be an integer"):
            instance_from_json(json.dumps(payload))

    def test_bool_geometry_and_float_travel_rejected(self):
        import json

        payload = json.loads(instance_to_json(mixed_instance()))
        payload["geometry"]["QC_T"] = True
        with pytest.raises(InstanceInvalid, match="qc_count must be an integer"):
            instance_from_json(json.dumps(payload))
        payload = json.loads(instance_to_json(mixed_instance()))
        payload["travel"]["tyc"][0][1] = payload["travel"]["tyc"][1][0] = 1.0
        with pytest.raises(InstanceInvalid, match="yc_travel entry must be an integer"):
            instance_from_json(json.dumps(payload))


class TestShipmentOrder:
    """Shipments may come in any order; an instance holds them by id, and
    nothing downstream can tell in which order they came."""

    @staticmethod
    def originals():
        return [mixed_instance(), random_instance(5, 0.5, 4, 707)]

    @staticmethod
    def reversed_copy(instance):
        return replace(instance, shipments=instance.shipments[::-1])

    def test_shipments_are_held_by_id(self):
        for instance in self.originals():
            ids = [s.id for s in self.reversed_copy(instance).shipments]
            assert ids == sorted(ids)

    def test_files_and_tables_are_byte_for_byte_equal(self):
        for instance in self.originals():
            shuffled = self.reversed_copy(instance)
            assert instance_to_json(shuffled) == instance_to_json(instance)
            assert build_derived(shuffled) == build_derived(instance)

    def test_solves_are_identical(self, monkeypatch):
        def solved(instance):
            # A clock that ticks once per reading makes the trace exact.
            monkeypatch.setattr(ipctp.solver, "time", TickingClock())
            report, solution = solve(
                instance, build_derived(instance), SolveParams(time_limit=1e6)
            )
            return (
                report.nodes, report.propagations, report.incumbent_trace,
                solution_to_json(solution),
            )

        for instance in self.originals():
            assert solved(self.reversed_copy(instance)) == solved(instance)

    def test_non_integer_id_out_of_order_is_invalid(self):
        instance = mixed_instance()
        shipments = list(instance.shipments[::-1])
        shipments[1] = replace(shipments[1], id="3")
        with pytest.raises(InstanceInvalid, match="id must be an integer"):
            replace(instance, shipments=tuple(shipments))
