"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see the per-criterion
lines (captured stdout is replayed in the summary).
"""

import random
import time
from collections import Counter
from dataclasses import replace

import pytest
from scipy import stats

from ipctp.bench import run_bench, rows_to_text
from ipctp.generator import (
    GenConfig,
    draw_container_count,
    draw_qc_rate,
    draw_transfer_time,
    draw_yc_rate,
    generate,
    generate_grid,
)
from ipctp.instance import build_derived, instance_to_json
from ipctp.mip import build_mip, check_point, mip_point_from_solution
from ipctp.oracle import brute_force
from ipctp.schedule import (
    I_FIRST,
    compute_schedule,
    objective_of,
    qc_assignment_of,
    solution_to_json,
    validate,
)
from ipctp.solver import SolveParams, lower_bound, propagate, root_node, solve

from conftest import random_decisions, random_instance
from fixtures_violations import FIXTURES
from milp_backend import round_trip

ORACLE_LIMIT = 5_000_000


def _small_corpus():
    """>= 200 instances, <= 5 shipments, all bay counts, both inbound ratios."""
    corpus = []
    for shipments, replicates in ((3, 8), (4, 8), (5, 1)):
        for ul in (2, 3):
            for bays in (4, 6, 8):
                for ratio in (0.2, 0.5):
                    for replicate in range(replicates):
                        corpus.append(
                            (
                                f"s{shipments}_u{ul}_b{bays}_r{ratio}_{replicate}",
                                random_instance(shipments, ratio, bays, 20260808,
                                                ul=ul, replicate=replicate),
                            )
                        )
    return corpus


@pytest.fixture(scope="module")
def solved_corpus():
    """Criterion 1 workhorse: oracle + proven solver run per instance."""
    results = []
    for name, instance in _small_corpus():
        derived = build_derived(instance)
        oracle = brute_force(instance, derived, limit=ORACLE_LIMIT)
        report, solution = solve(instance, derived, SolveParams(time_limit=300))
        results.append((name, instance, derived, oracle, report, solution))
    return results


def test_criterion_1_oracle_equivalence(solved_corpus):
    started = time.monotonic()
    mismatches = [
        (name, oracle.best_objective, report.best_objective, report.status)
        for name, _, _, oracle, report, _ in solved_corpus
        if report.status != "optimal"
        or report.best_objective != oracle.best_objective
    ]
    sizes = {len(inst.shipments) for _, inst, _, _, _, _ in solved_corpus}
    bays = {inst.total_bays for _, inst, _, _, _, _ in solved_corpus}
    ratios = {
        round(len(inst.inbound_shipments) / len(inst.shipments), 1) > 0.3
        for _, inst, _, _, _, _ in solved_corpus
    }
    assert len(solved_corpus) >= 200
    assert max(sizes) <= 5
    assert bays == {4, 6, 8}
    assert ratios == {True, False}
    assert not mismatches, mismatches[:5]
    print(
        f"ACCEPTANCE 1: PASS criterion-1 oracle equivalence on "
        f"{len(solved_corpus)} instances (exact equality, "
        f"checked in {time.monotonic() - started:.0f}s after solving)"
    )


def test_root_bound_is_admissible(solved_corpus):
    """The root bound never exceeds the optimum, before or after propagation."""
    over = []
    for name, instance, derived, oracle, _, _ in solved_corpus:
        root = root_node(instance, derived)
        for node in (root, propagate(instance, derived, root)):
            bound = lower_bound(instance, derived, node)
            if bound > oracle.best_objective:
                over.append((name, bound, oracle.best_objective))
    assert not over, over[:5]


def test_criterion_2_model_equivalence():
    checked = 0
    for shipments in (2, 3, 4):
        for ratio in (0.2, 0.5):
            for bays in (4, 6):
                for replicate in (0, 1):
                    instance = random_instance(shipments, ratio, bays, 6_0202,
                                               replicate=replicate)
                    derived = build_derived(instance)
                    oracle = brute_force(instance, derived, limit=ORACLE_LIMIT)
                    report, _ = solve(instance, derived, SolveParams(time_limit=120))
                    artifacts = build_mip(instance, derived)
                    point = mip_point_from_solution(
                        instance, derived, artifacts, oracle.best_solution
                    )
                    assert check_point(artifacts, point) == []
                    round_trip(instance, derived, oracle.best_objective)
                    assert report.best_objective == oracle.best_objective
                    checked += 1
    assert checked >= 20
    print(
        f"ACCEPTANCE 2: PASS criterion-2 three-way model equivalence "
        f"(external MILP == oracle == solver) on {checked} instances, exact"
    )


def test_criterion_3_validator_fixtures(solved_corpus):
    assert len(FIXTURES) == 23
    for name, family, builder in FIXTURES:
        instance, derived, solution = builder()
        families = [v.family for v in validate(instance, derived, solution)]
        assert families == [family], (name, families)
    clean = 0
    for name, instance, derived, oracle, _, solution in solved_corpus:
        assert validate(instance, derived, oracle.best_solution) == [], name
        assert validate(instance, derived, solution) == [], name
        clean += 2
    print(
        f"ACCEPTANCE 3: PASS criterion-3 validator fixtures "
        f"(23/23 single-violation ids exact; {clean} oracle/solver outputs clean)"
    )


def test_criterion_4_interference_semantics(solved_corpus):
    tuples_checked = 0
    for name, instance, derived, oracle, _, solution in solved_corpus:
        for candidate in (oracle.best_solution, solution):
            qc_of = qc_assignment_of(candidate.qc_sequences)
            for key in derived.interference_set:
                i, j, v, w = key
                if qc_of.get(i) != v or qc_of.get(j) != w:
                    continue
                start_i = candidate.qc_start[i]
                start_j = candidate.qc_start[j]
                time_i = instance.shipment(i).qc_time
                time_j = instance.shipment(j).qc_time
                assert not (
                    start_i < start_j + time_j and start_j < start_i + time_i
                ), (name, key, "overlap")
                order = candidate.interference_order[key]
                if order == I_FIRST:
                    separation = start_j - start_i
                    needed = time_i + derived.interference_time[key]
                else:
                    separation = start_i - start_j
                    needed = time_j + derived.interference_time[key]
                assert separation >= needed, (name, key, separation, needed)
                tuples_checked += 1
    assert tuples_checked > 0
    print(
        f"ACCEPTANCE 4: PASS criterion-4 interference semantics on "
        f"{tuples_checked} active tuples (no overlap, full separation)"
    )


def test_criterion_5_schedule_minimality():
    rng = random.Random(515151)
    checked = 0
    while checked < 100:
        # Drawn in the order written; the instances depend on it.
        instance = random_instance(
            ul=rng.choice((2, 3)),
            bays=rng.choice((4, 6, 8)),
            shipments=rng.choice((2, 3, 4, 5)),
            ratio=rng.choice((0.2, 0.5)),
            seed=515,
            replicate=checked,
        )
        derived = build_derived(instance)
        solution = compute_schedule(
            instance, derived, random_decisions(instance, derived, rng)
        )
        assert validate(instance, derived, solution) == []
        for ship in instance.shipments:
            for attr in ("qc_start", "yc_start"):
                starts = dict(getattr(solution, attr))
                starts[ship.id] -= 1
                probe = replace(solution, **{attr: starts})
                probe = replace(probe, objective=objective_of(instance, probe))
                assert validate(instance, derived, probe), (
                    f"decrement of {attr}[{ship.id}] undetected"
                )
        checked += 1
    print(
        "ACCEPTANCE 5: PASS criterion-5 componentwise minimality on "
        "100 random decision sets (every unit decrement violates)"
    )


def test_criterion_6_generator_fidelity():
    rng = random.Random(2026)  # fixed seed: the check is deterministic
    n = 10_000
    containers = [draw_container_count(rng) for _ in range(n)]
    yc_rates = [draw_yc_rate(rng) for _ in range(n)]
    qc_rates = [draw_qc_rate(rng) for _ in range(n)]
    transfers = {
        fld: [draw_transfer_time(rng, fld) for _ in range(n)]
        for fld in ("C", "B", "A")
    }

    def chi_square_uniform(samples, lo, hi):
        counts = Counter(samples)
        assert set(counts) <= set(range(lo, hi + 1))
        observed = [counts.get(value, 0) for value in range(lo, hi + 1)]
        return stats.chisquare(observed).pvalue

    assert chi_square_uniform(containers, 4, 40) > 0.05
    assert chi_square_uniform(yc_rates, 2, 5) > 0.05
    assert chi_square_uniform(qc_rates, 2, 4) > 0.05
    for fld, (lo, hi) in (("C", (5, 7)), ("B", (6, 8)), ("A", (8, 10))):
        assert all(5 <= value <= 10 for value in transfers[fld])
        assert chi_square_uniform(transfers[fld], lo, hi) > 0.05

    entries = generate_grid(base_seed=606)
    assert len(entries) == 300
    for entry in entries:
        instance = entry.instance
        assert instance.qc_count == entry.config.bays // 2
        inbound = len(instance.inbound_shipments)
        assert inbound == int(entry.config.inbound_ratio * entry.config.shipments + 0.5)
        assert len(instance.inbound_available_locations) == (
            entry.config.ul_ratio * inbound
        )
    print(
        "ACCEPTANCE 6: PASS criterion-6 generator fidelity "
        "(ranges + chi-square at 5% on 10^4 samples; grid of 300; exact ratios)"
    )


def test_criterion_7_desk_scale_trends():
    items = []
    for shipments in (5, 10, 15):
        for ratio in (0.2, 0.5):
            name = f"s{shipments}_r{int(ratio * 100)}"
            items.append(
                (
                    name,
                    name,
                    0,
                    random_instance(shipments, ratio, 4, 707),
                )
            )
    rows, pairs = run_bench(items, budgets=(5.0, 30.0))
    table = rows_to_text(rows)
    by_size = {}
    for _, long in pairs:
        size = int(long.config.split("_")[0][1:])
        by_size.setdefault(size, []).append(long)
    mean_time = {
        size: sum(r.wall_time for r in recs) / len(recs)
        for size, recs in by_size.items()
    }
    five_optimal = all(r.status == "optimal" for r in by_size[5])
    monotone = mean_time[5] <= mean_time[10] and mean_time[10] <= mean_time[15] * 1.5
    print("ACCEPTANCE 7: desk-scale trend report (s5 proofs asserted, trend reported)")
    print(table)
    print(
        f"  mean long-budget solve time by shipment count: "
        f"{ {size: round(t, 2) for size, t in sorted(mean_time.items())} }"
    )
    print(f"  five-shipment configs all proven optimal: {five_optimal}")
    print(f"  time grows with shipment count: {monotone}")
    # s5 proves in milliseconds, so this does not depend on the clock.
    assert five_optimal
    print("ACCEPTANCE 7: PASS criterion-7 s5 proven, report produced (trend soft)")


def test_criterion_8_determinism():
    config = GenConfig(ul_ratio=2, bays=6, shipments=5, inbound_ratio=0.5, seed=88)
    assert instance_to_json(generate(config)) == instance_to_json(generate(config))

    instance = generate(config)
    derived = build_derived(instance)
    params = SolveParams(time_limit=120)
    report_a, solution_a = solve(instance, derived, params)
    report_b, solution_b = solve(instance, derived, params)
    assert solution_to_json(solution_a) == solution_to_json(solution_b)
    assert (report_a.best_objective, report_a.lower_bound, report_a.status,
            report_a.nodes, report_a.propagations) == (
        report_b.best_objective, report_b.lower_bound, report_b.status,
        report_b.nodes, report_b.propagations,
    )
    print(
        "ACCEPTANCE 8: PASS criterion-8 determinism "
        "(byte-identical instance and solution files; stable report counters)"
    )
