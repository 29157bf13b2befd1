"""End-to-end command-line flows on temporary directories."""

import json
from pathlib import Path

import pytest

from ipctp.cli import main
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

from conftest import mixed_decisions, mixed_instance


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
        "nodes", "propagations", "wall_time", "incumbent_trace",
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


@pytest.mark.parametrize("budgets", ["1", "1,2,3", "short,long"])
def test_malformed_budgets_are_a_machine_readable_error(corpus, capsys, budgets):
    assert main(["bench", str(corpus), "--budgets", budgets]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "IpctpError"
    assert "--budgets" in err["message"]


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


def test_solve_gantt_flag(corpus, capsys):
    instance_file = next(iter(sorted(corpus.glob("ipctp_*.json"))))
    assert main(["solve", str(instance_file), "--time-limit", "30", "--gantt"]) == 0
    out = capsys.readouterr().out
    assert "QC 1" in out


def test_render_helpers_directly():
    instance = mixed_instance()
    derived = build_derived(instance)
    solution = compute_schedule(instance, derived, mixed_decisions())
    text = render_text(instance, solution)
    assert "QC 1" in text and "YC 2" in text
    svg = render_svg(instance, solution)
    assert svg.count("<rect") == 2 * len(instance.shipments)

