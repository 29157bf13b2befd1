"""Random instance generation over a fixed six-area yard layout.

The yard has three fields (C nearest the quay, then B, then A uphill), two
location areas per field with one dedicated yard crane each, and two block
groups per area one time unit apart.  Transfer times grow with the field's
distance from the quay but stay inside [5, 10].
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import asdict, dataclass, replace

from .errors import ConfigInvalid
from .instance import (
    INBOUND,
    INBOUND_AVAILABLE,
    OUTBOUND,
    OUTBOUND_FIXED,
    Instance,
    Shipment,
    Vessel,
    YardLocation,
)

GRID_UL_RATIOS = (2, 3)
GRID_BAYS = (4, 6, 8)
GRID_SHIPMENTS = (5, 10, 15, 20, 25)
GRID_INBOUND_RATIOS = (0.2, 0.5)
GRID_REPLICATES = 5

CONTAINER_RANGE = (4, 40)
QC_RATE_RANGE = (2, 4)
YC_RATE_RANGE = (2, 5)
FIELD_TRANSFER_RANGE = {"C": (5, 7), "B": (6, 8), "A": (8, 10)}
FIELD_RANK = {"C": 0, "B": 1, "A": 2}

# Areas ordered by quay proximity; one yard crane per area, id = index + 1.
AREAS = (("C", 1), ("C", 2), ("B", 1), ("B", 2), ("A", 1), ("A", 2))
YC_COUNT = len(AREAS)
QC_UNIT_TRAVEL = 3
SAFETY_DISTANCE = 1


@dataclass(frozen=True)
class GenConfig:
    ul_ratio: int
    bays: int
    shipments: int
    inbound_ratio: float
    vessels: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.bays < 2 or self.bays % 2 != 0:
            raise ConfigInvalid("bays must be an even number >= 2")
        if self.shipments < 1:
            raise ConfigInvalid("shipments must be positive")
        if self.ul_ratio < 1:
            raise ConfigInvalid("ul_ratio must be >= 1")
        if not 0.0 <= self.inbound_ratio <= 1.0:
            raise ConfigInvalid("inbound_ratio must lie in [0, 1]")
        if not 1 <= self.vessels <= self.bays:
            raise ConfigInvalid("vessels must lie in [1, bays]")

    @property
    def qc_count(self) -> int:
        return self.bays // 2

    def id_string(self) -> str:
        """The config's name; the vessel count shows only when it is not 1."""
        vessels = f"_v{self.vessels}" if self.vessels != 1 else ""
        return (
            f"u{self.ul_ratio}_b{self.bays}_s{self.shipments}"
            f"_r{int(round(self.inbound_ratio * 100))}{vessels}"
        )


def _round_half_up(value: float) -> int:
    return int(value + 0.5)


def derive_seed(base_seed: int, config: GenConfig, replicate: int) -> int:
    """Stable 64-bit sub-seed from the base seed, the config and the replicate."""
    key = (
        f"{base_seed}|{config.ul_ratio}|{config.bays}|{config.shipments}"
        f"|{config.inbound_ratio!r}|{config.vessels}|{replicate}"
    )
    digest = hashlib.sha256(key.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


# -- raw draws (exposed so distribution tests can sample them directly) ----


def draw_container_count(rng: random.Random) -> int:
    return rng.randint(*CONTAINER_RANGE)


def draw_qc_rate(rng: random.Random) -> int:
    return rng.randint(*QC_RATE_RANGE)


def draw_yc_rate(rng: random.Random) -> int:
    return rng.randint(*YC_RATE_RANGE)


def draw_transfer_time(rng: random.Random, field: str) -> int:
    return rng.randint(*FIELD_TRANSFER_RANGE[field])


def _area_travel(area_a: int, group_a: int, area_b: int, group_b: int) -> int:
    if area_a == area_b:
        return 0 if group_a == group_b else 1
    field_a, _ = AREAS[area_a]
    field_b, _ = AREAS[area_b]
    return 2 + abs(FIELD_RANK[field_a] - FIELD_RANK[field_b])


def generate(config: GenConfig) -> Instance:
    """Deterministic instance for the config's seed."""
    rng = random.Random(config.seed)
    n = config.shipments
    ship_ids = list(range(1, n + 1))
    inbound_count = min(n, _round_half_up(config.inbound_ratio * n))
    inbound_ids = set(rng.sample(ship_ids, inbound_count)) if inbound_count else set()

    vessels = tuple(Vessel(id=v, weight=1) for v in range(1, config.vessels + 1))

    def vessel_of_bay(bay: int) -> int:
        return (bay - 1) * config.vessels // config.bays + 1

    # Outbound shipments get their fixed location and travel time below.
    drawn = []
    for ship_id in ship_ids:
        bay = rng.randint(1, config.bays)
        containers = draw_container_count(rng)
        qc_rate = draw_qc_rate(rng)
        yc_rate = draw_yc_rate(rng)
        drawn.append(
            Shipment(
                id=ship_id,
                vessel=vessel_of_bay(bay),
                direction=INBOUND if ship_id in inbound_ids else OUTBOUND,
                bay=bay,
                containers=containers,
                qc_time=qc_rate * containers,
                yc_time=yc_rate * containers,
            )
        )

    available_count = config.ul_ratio * inbound_count
    locations: list[YardLocation] = []
    placements: list[tuple[int, int]] = []  # (area index, block group)
    for pos in range(available_count):
        area = pos % YC_COUNT
        group = 1 + (pos // YC_COUNT) % 2
        placements.append((area, group))
        field, _ = AREAS[area]
        locations.append(
            YardLocation(
                id=pos + 1,
                yc=area + 1,
                block_group=group,
                field=field,
                reserved_for=INBOUND_AVAILABLE,
            )
        )
    transfer = {
        loc.id: draw_transfer_time(rng, loc.field) for loc in locations
    }

    shipments = []
    next_location = available_count + 1
    for ship in drawn:
        if ship.is_inbound:
            shipments.append(ship)
            continue
        area = rng.randrange(YC_COUNT)
        group = rng.randint(1, 2)
        field, _ = AREAS[area]
        locations.append(
            YardLocation(
                id=next_location,
                yc=area + 1,
                block_group=group,
                field=field,
                reserved_for=OUTBOUND_FIXED,
            )
        )
        placements.append((area, group))
        shipments.append(
            replace(
                ship,
                fixed_location=next_location,
                yt_outbound_time=draw_transfer_time(rng, field),
            )
        )
        next_location += 1

    size = len(locations)
    travel = tuple(
        tuple(
            _area_travel(*placements[a], *placements[b]) if a != b else 0
            for b in range(size)
        )
        for a in range(size)
    )

    return Instance(
        vessels=vessels,
        shipments=tuple(shipments),
        total_bays=config.bays,
        qc_count=config.qc_count,
        yc_count=YC_COUNT,
        yard_locations=tuple(locations),
        safety_distance=SAFETY_DISTANCE,
        qc_unit_travel=QC_UNIT_TRAVEL,
        yc_travel=travel,
        yt_inbound_transfer=transfer,
    )


@dataclass(frozen=True)
class GridEntry:
    name: str
    config: GenConfig
    replicate: int
    instance: Instance


def instance_name(config: GenConfig, replicate: int) -> str:
    return f"ipctp_{config.id_string()}_{replicate}"


def grid_entry(base_seed: int, config: GenConfig, replicate: int) -> GridEntry:
    """One replicate of a configuration, sub-seeded from the base seed."""
    seeded = replace(config, seed=derive_seed(base_seed, config, replicate))
    return GridEntry(
        name=instance_name(seeded, replicate),
        config=seeded,
        replicate=replicate,
        instance=generate(seeded),
    )


def generate_grid(
    base_seed: int, instances_per_config: int = GRID_REPLICATES
) -> list[GridEntry]:
    """The full experimental corpus: every configuration times replicates."""
    if instances_per_config < 1:
        raise ConfigInvalid("instances_per_config must be positive")
    entries: list[GridEntry] = []
    for ul_ratio in GRID_UL_RATIOS:
        for bays in GRID_BAYS:
            for shipments in GRID_SHIPMENTS:
                for inbound_ratio in GRID_INBOUND_RATIOS:
                    config = GenConfig(
                        ul_ratio=ul_ratio,
                        bays=bays,
                        shipments=shipments,
                        inbound_ratio=inbound_ratio,
                    )
                    for replicate in range(instances_per_config):
                        entries.append(grid_entry(base_seed, config, replicate))
    return entries


def manifest_payload(base_seed: int, entries: list[GridEntry]) -> dict:
    return {
        "base_seed": base_seed,
        "instances": [
            {
                "file": entry.name + ".json",
                "config": {
                    k: v for k, v in asdict(entry.config).items() if k != "seed"
                },
                "replicate": entry.replicate,
                "seed": entry.config.seed,
            }
            for entry in entries
        ],
    }
