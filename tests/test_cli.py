"""End-to-end command-line flows on temporary directories."""

import json

import pytest

from ipctp import bench as bench_mod
from ipctp.cli import _bench_items, main
from ipctp.gantt import render_svg, render_text
from ipctp.generator import generate_grid
from ipctp.instance import (
    build_derived,
    instance_to_json,
    read_instance,
    write_instance,
)
from ipctp.mip import default_big_m
from ipctp.schedule import compute_schedule, read_solution

from conftest import (
    detour_payload,
    mixed_decisions,
    mixed_instance,
    overfull_yard_instance,
)


@pytest.fixture
def corpus(tmp_path):
    out = tmp_path / "instances"
    code = main([
        "generate", "--out-dir", str(out), "--seed", "9",
        "--shipments", "3", "--bays", "4", "--inbound-ratio", "0.5",
        "--ul-ratio", "2", "--count", "2",
    ])
    assert code == 0
    return out


def test_generate_writes_instances_and_manifest(corpus):
    manifest = json.loads((corpus / "manifest.json").read_text())
    assert manifest["base_seed"] == 9
    assert len(manifest["instances"]) == 2
    for entry in manifest["instances"]:
        assert entry["file"].startswith("ipctp_u2_b4_s3_r50_")
        instance = read_instance(corpus / entry["file"])
        assert len(instance.shipments) == 3


def test_generate_is_reproducible(tmp_path):
    args = ["generate", "--seed", "4", "--shipments", "2", "--count", "1"]
    main(args + ["--out-dir", str(tmp_path / "a")])
    main(args + ["--out-dir", str(tmp_path / "b")])
    name = "ipctp_u2_b4_s2_r20_0.json"
    assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_solve_validate_oracle_flow(corpus, capsys):
    instance_file = next(iter(sorted(corpus.glob("ipctp_*.json"))))
    assert main(["solve", str(instance_file), "--time-limit", "30"]) == 0
    captured = capsys.readouterr().out
    assert "status=optimal" in captured

    stem = instance_file.stem
    solution_file = corpus / f"{stem}.sol.json"
    report_file = corpus / f"{stem}.report.json"
    assert solution_file.exists() and report_file.exists()
    report = json.loads(report_file.read_text())
    assert set(report) == {
        "best_objective", "lower_bound", "gap_percent", "status",
        "nodes", "propagations", "infeasible", "bounded", "not_first",
        "dominated", "wall_time", "incumbent_trace",
    }

    assert main(["validate", str(instance_file), str(solution_file)]) == 0
    assert json.loads(capsys.readouterr().out) == []

    assert main(["oracle", str(instance_file)]) == 0
    oracle_out = capsys.readouterr().out
    assert "enumerated=" in oracle_out
    oracle_file = corpus / f"{stem}.oracle.json"
    assert read_solution(oracle_file).objective == report["best_objective"]
    assert main(["validate", str(instance_file), str(oracle_file)]) == 0


def test_validate_flags_broken_solution(corpus, tmp_path, capsys):
    instance_file = next(iter(sorted(corpus.glob("ipctp_*.json"))))
    main(["solve", str(instance_file), "--time-limit", "30"])
    capsys.readouterr()
    solution_file = corpus / f"{instance_file.stem}.sol.json"
    payload = json.loads(solution_file.read_text())
    payload["objective"] += 1
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(payload))
    assert main(["validate", str(instance_file), str(broken)]) == 1
    families = [v["family"] for v in json.loads(capsys.readouterr().out)]
    assert families == ["objective_value"]


def test_export_mip(corpus, capsys):
    instance_file = next(iter(sorted(corpus.glob("ipctp_*.json"))))
    assert main(["export-mip", str(instance_file)]) == 0
    out = capsys.readouterr().out
    instance = read_instance(instance_file)
    big_m = default_big_m(instance, build_derived(instance))
    assert f"big_m={big_m}" in out
    lp_file = corpus / f"{instance_file.stem}.lp"
    text = lp_file.read_text()
    assert text.startswith("\\")
    assert "Minimize" in text and "Subject To" in text and text.rstrip().endswith("End")
    mapping = json.loads((corpus / f"{instance_file.stem}.mapping.json").read_text())
    assert mapping["big_m"] == big_m
    assert "variables" in mapping and "row_families" in mapping


def test_bench_over_manifest(corpus, tmp_path, capsys):
    out_dir = tmp_path / "bench"
    assert main([
        "bench", str(corpus), "--budgets", "5,10", "--out-dir", str(out_dir),
    ]) == 0
    table = capsys.readouterr().out
    assert "u2_b4_s3_r50" in table
    assert (out_dir / "bench.csv").exists()
    assert (out_dir / "runs.json").exists()
    runs = json.loads((out_dir / "runs.json").read_text())
    assert len(runs) == 4  # two instances, two budgets


def test_bench_runs_json_holds_every_record_field(corpus, tmp_path, monkeypatch):
    monkeypatch.setattr(
        bench_mod, "_default_runner",
        lambda instance, budget: (40 + int(budget), "feasible", budget / 2, 12.5),
    )
    out_dir = tmp_path / "bench"
    assert main([
        "bench", str(corpus), "--budgets", "5,10", "--out-dir", str(out_dir),
    ]) == 0
    runs = json.loads((out_dir / "runs.json").read_text())
    assert runs == [
        {"name": f"ipctp_u2_b4_s3_r50_{replicate}.json", "config": "u2_b4_s3_r50",
         "replicate": replicate, "budget": budget, "objective": 40 + int(budget),
         "status": "feasible", "wall_time": budget / 2, "gap_percent": 12.5,
         "error": None}
        for replicate in (0, 1)
        for budget in (5.0, 10.0)
    ]


def test_bench_keeps_instances_of_the_same_name_apart(tmp_path, monkeypatch):
    """Two corpora generated with different seeds share their file names;
    every instance still counts once in the row."""
    corpora = []
    for seed in ("9", "10"):
        out = tmp_path / f"seed{seed}"
        assert main([
            "generate", "--out-dir", str(out), "--seed", seed, "--shipments", "3",
            "--bays", "4", "--inbound-ratio", "0.5", "--count", "2",
        ]) == 0
        corpora.append(out)
    names = [sorted(p.name for p in c.glob("ipctp_*.json")) for c in corpora]
    assert names[0] == names[1]

    def work(instance):
        return sum(s.qc_time + s.yc_time for s in instance.shipments)

    # The short budget's objective is 10 above the long one's.
    monkeypatch.setattr(
        bench_mod, "_default_runner",
        lambda instance, budget: (work(instance) + (10 if budget == 5.0 else 0),
                                  "optimal", 1.0, 0.0),
    )
    out_dir = tmp_path / "bench"
    assert main([
        "bench", *map(str, corpora), "--budgets", "5,10", "--out-dir", str(out_dir),
    ]) == 0
    works = [work(read_instance(c / name)) for c, batch in zip(corpora, names)
             for name in batch]
    assert len(set(works)) > 1
    config, obj, _, _, rpd, optimal, infeasible = (
        (out_dir / "bench.csv").read_text().splitlines()[1].split(",")
    )
    assert config == "u2_b4_s3_r50"
    # The table holds four decimals.
    assert float(obj) == pytest.approx(sum(works) / 4, abs=1e-4)
    assert float(rpd) == pytest.approx(sum(1000 / w for w in works) / 4, abs=1e-4)
    assert (optimal, infeasible) == ("4", "0")
    assert len(json.loads((out_dir / "runs.json").read_text())) == 8


def test_bench_with_equal_budgets_keeps_both_runs(corpus, tmp_path, monkeypatch):
    """An item's first run is its short one and its second its long one,
    even when both budgets are the same."""
    objectives = iter([101, 102] * 2)
    monkeypatch.setattr(
        bench_mod, "_default_runner",
        lambda instance, budget: (next(objectives), "feasible", 1.0, 1.0),
    )
    out_dir = tmp_path / "bench"
    assert main([
        "bench", str(corpus), "--budgets", "5,5", "--out-dir", str(out_dir),
    ]) == 0
    _, obj, _, _, rpd, _, _ = (
        (out_dir / "bench.csv").read_text().splitlines()[1].split(",")
    )
    assert float(obj) == 102.0
    assert float(rpd) == pytest.approx((101 - 102) * 100 / 102, abs=1e-4)


def test_bench_keeps_vessel_counts_apart(tmp_path, monkeypatch):
    """Configs that differ only in vessel count get one row each."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    entries = []
    for vessels in ("1", "2"):
        part = tmp_path / f"v{vessels}"
        assert main([
            "generate", "--out-dir", str(part), "--shipments", "3", "--bays", "4",
            "--vessels", vessels, "--count", "1",
        ]) == 0
        manifest = json.loads((part / "manifest.json").read_text())
        for entry in manifest["instances"]:
            (corpus / entry["file"]).write_text((part / entry["file"]).read_text())
            entries.append(entry)
    (corpus / "manifest.json").write_text(json.dumps({**manifest, "instances": entries}))
    monkeypatch.setattr(
        bench_mod, "_default_runner", lambda instance, budget: (1, "optimal", 0.0, 0.0)
    )
    rows, _ = bench_mod.run_bench(_bench_items([str(corpus)]), budgets=(1.0, 2.0))
    assert [row.config for row in rows] == ["u2_b4_s3_r20", "u2_b4_s3_r20_v2"]
    assert [row.replicates for row in rows] == [1, 1]


def test_bench_on_an_instance_without_shipments(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({
        "vessels": [{"id": 1, "weight": 1}], "shipments": [], "yard_locations": [],
        "geometry": {"B_T": 2, "QC_T": 1, "yc_count": 1, "delta": 1, "s_qc": 3},
        "travel": {"tyc": [], "tt": []},
    }))
    assert main(["bench", str(empty), "--budgets", "1,2"]) == 0
    assert "empty" in capsys.readouterr().out


def test_gantt_text_and_svg(corpus, tmp_path, capsys):
    instance_file = next(iter(sorted(corpus.glob("ipctp_*.json"))))
    main(["solve", str(instance_file), "--time-limit", "30"])
    capsys.readouterr()
    solution_file = corpus / f"{instance_file.stem}.sol.json"
    assert main(["gantt", str(instance_file), str(solution_file)]) == 0
    text = capsys.readouterr().out
    assert "QC 1" in text and "objective" in text
    svg_file = tmp_path / "plot.svg"
    assert main([
        "gantt", str(instance_file), str(solution_file), "--svg", str(svg_file),
    ]) == 0
    assert svg_file.read_text().startswith("<svg")


@pytest.mark.parametrize("shape", ["unknown_shipment", "missing_start"])
def test_gantt_of_a_malformed_solution_is_a_machine_readable_error(
    corpus, tmp_path, capsys, shape
):
    instance_file = next(iter(sorted(corpus.glob("ipctp_*.json"))))
    main(["solve", str(instance_file), "--time-limit", "30"])
    capsys.readouterr()
    payload = json.loads((corpus / f"{instance_file.stem}.sol.json").read_text())
    if shape == "unknown_shipment":
        payload["qc_sequences"]["1"].append(999)
    else:
        ship = next(i for seq in payload["qc_sequences"].values() for i in seq)
        del payload["starts"]["yc"][str(ship)]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(payload))
    assert main(["gantt", str(instance_file), str(broken)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "MalformedSolution"


def test_missing_file_is_a_machine_readable_error(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "nope.json")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FileNotFound"


def test_malformed_json_is_a_machine_readable_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vessels": [')
    assert main(["solve", str(bad)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "JSONDecodeError"


@pytest.mark.parametrize("command", ["solve", "validate", "bench"])
@pytest.mark.parametrize("content, error", [
    (b"\xff{}", "UnicodeDecodeError"),
    (b"[" * 200_000, "RecursionError"),
], ids=["not_utf8", "nested"])
def test_undecodable_file_is_a_machine_readable_error(
    corpus, tmp_path, capsys, command, content, error
):
    """A file that is not UTF-8, or nests deeper than the parser can, read
    as the instance, the solution or the manifest."""
    instance_file = next(iter(sorted(corpus.glob("ipctp_*.json"))))
    bad = corpus / "manifest.json" if command == "bench" else tmp_path / "bad.json"
    bad.write_bytes(content)
    args = {
        "solve": ["solve", str(bad)],
        "validate": ["validate", str(instance_file), str(bad)],
        "bench": ["bench", str(corpus), "--budgets", "1,2"],
    }[command]
    assert main(args) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == error


def test_detour_quicker_than_direct_travel_is_a_machine_readable_error(
    tmp_path, capsys
):
    path = tmp_path / "detour.json"
    path.write_text(json.dumps(detour_payload()))
    assert main(["solve", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InstanceInvalid"
    assert "detour" in err["message"]


def test_empty_decision_space(tmp_path, capsys):
    path = tmp_path / "overfull.json"
    write_instance(path, overfull_yard_instance())
    message = (
        "no decision combination: 2 inbound shipment(s) exceed 1 "
        "inbound-available location(s)"
    )
    assert main(["oracle", str(path)]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "NoFeasibleSolution", "message": message,
    }

    assert main(["solve", str(path), "--time-limit", "5"]) == 1
    assert "status=infeasible" in capsys.readouterr().out
    report = json.loads((tmp_path / "overfull.report.json").read_text())
    assert report["status"] == "infeasible"
    assert report["best_objective"] is None and report["lower_bound"] is None
    assert not (tmp_path / "overfull.sol.json").exists()


def test_empty_instance_file_is_a_machine_readable_error(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"vessels": []}))
    assert main(["solve", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InstanceInvalid"
    assert err["message"].startswith("malformed instance file")


def test_directory_as_instance_is_a_machine_readable_error(tmp_path, capsys):
    assert main(["solve", str(tmp_path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "IsADirectoryError"


def test_list_of_sequences_is_a_machine_readable_error(corpus, tmp_path, capsys):
    instance_file = next(iter(sorted(corpus.glob("ipctp_*.json"))))
    main(["solve", str(instance_file), "--time-limit", "30"])
    capsys.readouterr()
    payload = json.loads((corpus / f"{instance_file.stem}.sol.json").read_text())
    payload["qc_sequences"] = list(payload["qc_sequences"].values())
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(payload))
    assert main(["validate", str(instance_file), str(broken)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "MalformedSolution"


@pytest.mark.parametrize(
    "shape", ["no-instances", "entry-without-config", "numeric-file", "list"]
)
def test_malformed_manifest_is_a_machine_readable_error(corpus, capsys, shape):
    manifest_file = corpus / "manifest.json"
    manifest = json.loads(manifest_file.read_text())
    if shape == "no-instances":
        del manifest["instances"]
    elif shape == "entry-without-config":
        del manifest["instances"][0]["config"]
    elif shape == "numeric-file":
        manifest["instances"][0]["file"] = 5
    else:
        manifest = manifest["instances"]
    manifest_file.write_text(json.dumps(manifest))
    assert main(["bench", str(corpus), "--budgets", "1,2"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "IpctpError"
    assert "manifest" in err["message"]


@pytest.mark.parametrize(
    "budgets", ["1", "1,2,3", "short,long", "nan,5", "5,0", "2,0.5"]
)
def test_malformed_budgets_are_a_machine_readable_error(corpus, capsys, budgets):
    assert main(["bench", str(corpus), "--budgets", budgets]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "IpctpError"
    assert "--budgets" in err["message"]


@pytest.mark.parametrize("limit", ["nan", "0"])
def test_non_positive_time_limit_is_a_machine_readable_error(corpus, capsys, limit):
    instance_file = next(iter(sorted(corpus.glob("ipctp_*.json"))))
    assert main(["solve", str(instance_file), "--time-limit", limit]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "IpctpError"
    assert "time_limit must be positive" in err["message"]


def test_generate_matches_the_grid_for_one_configuration(tmp_path):
    assert main([
        "generate", "--out-dir", str(tmp_path), "--seed", "5", "--shipments", "10",
        "--bays", "6", "--inbound-ratio", "0.5", "--ul-ratio", "3", "--count", "2",
    ]) == 0
    grid = [
        entry for entry in generate_grid(5, instances_per_config=2)
        if entry.config.id_string() == "u3_b6_s10_r50"
    ]
    assert len(grid) == 2
    for entry in grid:
        written = (tmp_path / f"{entry.name}.json").read_text()
        assert written == instance_to_json(entry.instance)


def test_generate_grid_honours_count(tmp_path):
    assert main(["generate", "--grid", "--count", "1", "--out-dir", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert len(manifest["instances"]) == 60
    assert {entry["replicate"] for entry in manifest["instances"]} == {0}


@pytest.mark.parametrize("grid", [[], ["--grid"]], ids=["single", "grid"])
def test_generate_count_below_one_is_a_machine_readable_error(tmp_path, capsys, grid):
    out = tmp_path / "out"
    assert main(["generate", *grid, "--count", "0", "--out-dir", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigInvalid"
    assert not out.exists()


def test_render_helpers_directly():
    instance = mixed_instance()
    derived = build_derived(instance)
    solution = compute_schedule(instance, derived, mixed_decisions())
    text = render_text(instance, solution)
    assert "QC 1" in text and "YC 2" in text
    svg = render_svg(instance, solution)
    assert svg.count("<rect") == 2 * len(instance.shipments)

