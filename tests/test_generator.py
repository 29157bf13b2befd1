"""Instance generation: distributions, ratios, layout, determinism, grid."""

import random
from collections import Counter

import pytest

from ipctp.errors import ConfigInvalid
from ipctp.generator import (
    AREAS,
    CONTAINER_RANGE,
    FIELD_TRANSFER_RANGE,
    GenConfig,
    QC_RATE_RANGE,
    YC_RATE_RANGE,
    derive_seed,
    draw_container_count,
    draw_qc_rate,
    draw_transfer_time,
    draw_yc_rate,
    generate,
    generate_grid,
    grid_entry,
)
from ipctp.instance import build_derived, instance_to_json


class TestConfig:
    def test_qc_count_is_half_the_bays(self):
        for bays in (4, 6, 8):
            config = GenConfig(ul_ratio=2, bays=bays, shipments=5, inbound_ratio=0.2)
            assert config.qc_count == bays // 2
            assert generate(config).qc_count == bays // 2

    def test_inbound_counts(self):
        instance = generate(
            GenConfig(ul_ratio=2, bays=4, shipments=5, inbound_ratio=0.2, seed=1)
        )
        assert len(instance.inbound_shipments) == 1
        assert len(instance.inbound_available_locations) == 2
        instance = generate(
            GenConfig(ul_ratio=3, bays=4, shipments=5, inbound_ratio=0.2, seed=1)
        )
        assert len(instance.inbound_available_locations) == 3

    def test_half_ratio_rounds_up(self):
        instance = generate(
            GenConfig(ul_ratio=2, bays=4, shipments=5, inbound_ratio=0.5, seed=1)
        )
        assert len(instance.inbound_shipments) == 3
        assert len(instance.inbound_available_locations) == 6

    def test_rejections(self):
        with pytest.raises(ConfigInvalid):
            GenConfig(ul_ratio=2, bays=5, shipments=5, inbound_ratio=0.2)
        with pytest.raises(ConfigInvalid):
            GenConfig(ul_ratio=0, bays=4, shipments=5, inbound_ratio=0.2)
        with pytest.raises(ConfigInvalid):
            GenConfig(ul_ratio=2, bays=4, shipments=0, inbound_ratio=0.2)
        with pytest.raises(ConfigInvalid):
            GenConfig(ul_ratio=2, bays=4, shipments=5, inbound_ratio=1.5)
        with pytest.raises(ConfigInvalid):
            GenConfig(ul_ratio=2, bays=4, shipments=5, inbound_ratio=0.2, vessels=9)
        with pytest.raises(ConfigInvalid):
            generate_grid(base_seed=5, instances_per_config=0)


class TestDraws:
    def test_ranges_on_large_samples(self):
        rng = random.Random(2026)
        for _ in range(10_000):
            assert CONTAINER_RANGE[0] <= draw_container_count(rng) <= CONTAINER_RANGE[1]
            assert QC_RATE_RANGE[0] <= draw_qc_rate(rng) <= QC_RATE_RANGE[1]
            assert YC_RATE_RANGE[0] <= draw_yc_rate(rng) <= YC_RATE_RANGE[1]
            for fld in ("A", "B", "C"):
                lo, hi = FIELD_TRANSFER_RANGE[fld]
                assert 5 <= lo <= draw_transfer_time(rng, fld) <= hi <= 10

    def test_field_bias_orders_mean_transfer(self):
        rng = random.Random(11)
        samples = {
            fld: [draw_transfer_time(rng, fld) for _ in range(2000)]
            for fld in ("C", "B", "A")
        }
        mean = {fld: sum(v) / len(v) for fld, v in samples.items()}
        assert mean["C"] < mean["B"] < mean["A"]

    def test_handling_times_scale_with_container_count(self):
        instance = generate(
            GenConfig(ul_ratio=2, bays=6, shipments=10, inbound_ratio=0.5, seed=4)
        )
        for ship in instance.shipments:
            assert ship.qc_time % ship.containers == 0
            assert ship.yc_time % ship.containers == 0
            assert 2 <= ship.qc_time // ship.containers <= 4
            assert 2 <= ship.yc_time // ship.containers <= 5
            assert 4 <= ship.containers <= 40


class TestLayout:
    def test_six_yard_cranes_two_groups(self):
        instance = generate(
            GenConfig(ul_ratio=3, bays=8, shipments=20, inbound_ratio=0.5, seed=9)
        )
        assert instance.yc_count == 6
        assert len(AREAS) == 6
        for location in instance.yard_locations:
            assert location.block_group in (1, 2)

    def test_block_group_travel_inside_one_area(self):
        instance = generate(
            GenConfig(ul_ratio=3, bays=8, shipments=20, inbound_ratio=0.5, seed=9)
        )
        same_area = {}
        for location in instance.yard_locations:
            same_area.setdefault(location.yc, []).append(location)
        seen_pair = False
        for locations in same_area.values():
            for a in locations:
                for b in locations:
                    expected = 0 if a.block_group == b.block_group else 1
                    assert instance.tyc(a.id, b.id) == expected
                    seen_pair = seen_pair or a.id != b.id
        assert seen_pair

    def test_transfer_times_follow_fields(self):
        instance = generate(
            GenConfig(ul_ratio=3, bays=8, shipments=20, inbound_ratio=0.5, seed=9)
        )
        for location in instance.inbound_available_locations:
            lo, hi = FIELD_TRANSFER_RANGE[location.field]
            assert lo <= instance.tt(location.id) <= hi
        for ship in instance.outbound_shipments:
            fld = instance.location(ship.fixed_location).field
            lo, hi = FIELD_TRANSFER_RANGE[fld]
            assert lo <= ship.yt_outbound_time <= hi

    def test_geometry_constants(self):
        instance = generate(
            GenConfig(ul_ratio=2, bays=6, shipments=5, inbound_ratio=0.2, seed=3)
        )
        assert instance.safety_distance == 1
        assert instance.qc_unit_travel == 3

    def test_every_generated_shipment_has_a_crane(self):
        for seed in range(5):
            instance = generate(
                GenConfig(ul_ratio=2, bays=8, shipments=10, inbound_ratio=0.5,
                          seed=seed)
            )
            derived = build_derived(instance)
            for ship in instance.shipments:
                assert derived.eligible_qcs[ship.id]

    def test_vessels_split_bays_contiguously(self):
        instance = generate(
            GenConfig(ul_ratio=2, bays=8, shipments=12, inbound_ratio=0.5,
                      vessels=2, seed=13)
        )
        assert len(instance.vessels) == 2
        for ship in instance.shipments:
            expected = 1 if ship.bay <= 4 else 2
            assert ship.vessel == expected
        assert all(v.weight == 1 for v in instance.vessels)


class TestDeterminism:
    def test_same_seed_gives_identical_bytes(self):
        config = GenConfig(ul_ratio=2, bays=6, shipments=8, inbound_ratio=0.5, seed=77)
        assert instance_to_json(generate(config)) == instance_to_json(generate(config))

    def test_different_seeds_differ(self):
        base = GenConfig(ul_ratio=2, bays=6, shipments=8, inbound_ratio=0.5, seed=77)
        other = GenConfig(ul_ratio=2, bays=6, shipments=8, inbound_ratio=0.5, seed=78)
        assert instance_to_json(generate(base)) != instance_to_json(generate(other))

    def test_vessel_count_shows_in_the_name_unless_one(self):
        one = grid_entry(0, GenConfig(2, 4, 5, 0.2), 0)
        two = grid_entry(0, GenConfig(2, 4, 5, 0.2, vessels=2), 0)
        assert one.name == "ipctp_u2_b4_s5_r20_0"
        assert two.name == "ipctp_u2_b4_s5_r20_v2_0"
        assert one.config.seed != two.config.seed

    def test_seed_derivation_is_stable(self):
        config = GenConfig(ul_ratio=2, bays=6, shipments=8, inbound_ratio=0.5)
        assert derive_seed(1, config, 0) == derive_seed(1, config, 0)
        assert derive_seed(1, config, 0) != derive_seed(1, config, 1)
        assert derive_seed(1, config, 0) != derive_seed(2, config, 0)


class TestGrid:
    def test_grid_is_300_instances(self):
        entries = generate_grid(base_seed=5)
        assert len(entries) == 300
        names = {entry.name for entry in entries}
        assert len(names) == 300

    def test_grid_covers_every_configuration(self):
        entries = generate_grid(base_seed=5)
        combos = Counter(
            (e.config.ul_ratio, e.config.bays, e.config.shipments,
             e.config.inbound_ratio)
            for e in entries
        )
        assert len(combos) == 60
        assert set(combos.values()) == {5}

    def test_replicates_differ_and_validate(self):
        entries = [
            e for e in generate_grid(base_seed=5)
            if e.config.bays == 4 and e.config.shipments == 5
            and e.config.ul_ratio == 2 and e.config.inbound_ratio == 0.2
        ]
        assert len(entries) == 5
        payloads = {instance_to_json(e.instance) for e in entries}
        assert len(payloads) == 5
        for entry in entries:
            build_derived(entry.instance)
