"""Command-line front end: generate, solve, validate, oracle, export, bench."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import bench as bench_mod
from . import gantt as gantt_mod
from .errors import IpctpError
from .generator import (
    GRID_REPLICATES,
    GenConfig,
    generate_grid,
    grid_entry,
    manifest_payload,
)
from .instance import build_derived, canonical_dumps, read_instance, write_instance
from .mip import export_lp, mapping_to_json
from .oracle import DEFAULT_LIMIT, brute_force
from .schedule import read_solution, validate, write_solution
from .solver import SolveParams, solve


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ipctp",
        description="Integrated container terminal scheduling toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write random instances plus a manifest")
    p.add_argument("--out-dir", default="instances")
    p.add_argument("--seed", type=int, default=0, help="base seed")
    p.add_argument("--grid", action="store_true", help="full configuration grid")
    p.add_argument("--shipments", type=int, default=5)
    p.add_argument("--bays", type=int, default=4)
    p.add_argument("--inbound-ratio", type=float, default=0.2)
    p.add_argument("--ul-ratio", type=int, default=2)
    p.add_argument("--vessels", type=int, default=1)
    p.add_argument("--count", type=int, default=GRID_REPLICATES,
                   help="replicates per configuration")

    p = sub.add_parser("solve", help="branch-and-bound solve an instance file")
    p.add_argument("instance")
    p.add_argument("--time-limit", type=float, default=600.0)
    p.add_argument("--out-dir", default=None)
    p.add_argument("--gantt", action="store_true", help="print a text timeline")

    p = sub.add_parser("validate", help="check a solution file against an instance")
    p.add_argument("instance")
    p.add_argument("solution")

    p = sub.add_parser("oracle", help="prove the optimum by exhaustion")
    p.add_argument("instance")
    p.add_argument("--limit", type=int, default=DEFAULT_LIMIT)
    p.add_argument("--out-dir", default=None)

    p = sub.add_parser("export-mip", help="write the LP file and variable mapping")
    p.add_argument("instance")
    p.add_argument("--out-dir", default=None)

    p = sub.add_parser("bench", help="dual-budget benchmark over a corpus")
    p.add_argument("corpus", help="directory with manifest.json, or instance files",
                   nargs="+")
    p.add_argument("--budgets", default="600,3600",
                   help="short,long time limits in seconds")
    p.add_argument("--out-dir", default=None)

    p = sub.add_parser("gantt", help="render per-crane timelines")
    p.add_argument("instance")
    p.add_argument("solution")
    p.add_argument("--svg", default=None, help="write SVG here instead of text")
    return parser


def _cmd_generate(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.grid:
        entries = generate_grid(args.seed)
    else:
        config = GenConfig(
            ul_ratio=args.ul_ratio,
            bays=args.bays,
            shipments=args.shipments,
            inbound_ratio=args.inbound_ratio,
            vessels=args.vessels,
            instances_per_config=args.count,
        )
        entries = [grid_entry(args.seed, config, r) for r in range(args.count)]
    for entry in entries:
        write_instance(out_dir / (entry.name + ".json"), entry.instance)
    manifest = manifest_payload(args.seed, entries)
    (out_dir / "manifest.json").write_text(canonical_dumps(manifest))
    print(f"wrote {len(entries)} instances to {out_dir}")
    return 0


def _cmd_solve(args) -> int:
    instance = read_instance(args.instance)
    derived = build_derived(instance)
    report, solution = solve(instance, derived, SolveParams(time_limit=args.time_limit))
    stem = Path(args.instance).stem
    out_dir = Path(args.out_dir) if args.out_dir else Path(args.instance).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{stem}.report.json").write_text(canonical_dumps(report.to_payload()))
    if solution is not None:
        write_solution(out_dir / f"{stem}.sol.json", solution)
        if args.gantt:
            print(gantt_mod.render_text(instance, solution), end="")
    print(
        f"status={report.status} objective={report.best_objective} "
        f"lower_bound={report.lower_bound} nodes={report.nodes} "
        f"time={report.wall_time:.2f}s"
    )
    return 0 if report.status in ("optimal", "feasible") else 1


def _cmd_validate(args) -> int:
    instance = read_instance(args.instance)
    derived = build_derived(instance)
    solution = read_solution(args.solution)
    violations = validate(instance, derived, solution)
    print(
        canonical_dumps(
            [
                {"family": v.family, "ids": list(v.ids), "detail": v.detail}
                for v in violations
            ]
        ),
        end="",
    )
    return 0 if not violations else 1


def _cmd_oracle(args) -> int:
    instance = read_instance(args.instance)
    derived = build_derived(instance)
    result = brute_force(instance, derived, limit=args.limit)
    stem = Path(args.instance).stem
    out_dir = Path(args.out_dir) if args.out_dir else Path(args.instance).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    write_solution(out_dir / f"{stem}.oracle.json", result.best_solution)
    print(
        f"optimum={result.best_objective} enumerated={result.enumerated} "
        f"solution={out_dir / (stem + '.oracle.json')}"
    )
    return 0


def _cmd_export_mip(args) -> int:
    instance = read_instance(args.instance)
    derived = build_derived(instance)
    text, artifacts = export_lp(instance, derived)
    stem = Path(args.instance).stem
    out_dir = Path(args.out_dir) if args.out_dir else Path(args.instance).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{stem}.lp").write_text(text)
    (out_dir / f"{stem}.mapping.json").write_text(mapping_to_json(artifacts))
    print(
        f"wrote {out_dir / (stem + '.lp')} "
        f"({len(artifacts.rows)} rows, {len(artifacts.variables)} variables, "
        f"big_m={artifacts.big_m})"
    )
    return 0


def _bench_items(paths: list[str]):
    items = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            manifest = json.loads((path / "manifest.json").read_text())
            try:
                entries = [
                    (e["file"], path / e["file"],
                     GenConfig(**e["config"]).id_string(), e["replicate"])
                    for e in manifest["instances"]
                ]
            except (KeyError, TypeError) as exc:
                raise IpctpError(f"malformed manifest in {path}: {exc!r}") from exc
            for name, file, config_id, replicate in entries:
                items.append((name, config_id, replicate, read_instance(file)))
        else:
            items.append((path.name, path.stem, 0, read_instance(path)))
    return items


def _budgets(text: str) -> tuple[float, float]:
    try:
        short, long = (float(part) for part in text.split(","))
    except ValueError:
        raise IpctpError(
            f"--budgets takes two comma-separated numbers, got {text!r}"
        ) from None
    return short, long


def _cmd_bench(args) -> int:
    budgets = _budgets(args.budgets)
    items = _bench_items(args.corpus)
    rows, records = bench_mod.run_bench(items, budgets=budgets)
    text = bench_mod.rows_to_text(rows)
    print(text, end="")
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "bench.txt").write_text(text)
        (out_dir / "bench.csv").write_text(bench_mod.rows_to_csv(rows))
        (out_dir / "runs.json").write_text(
            canonical_dumps(
                [
                    {
                        "name": r.name,
                        "config": r.config_id,
                        "replicate": r.replicate,
                        "budget": r.budget,
                        "objective": r.objective,
                        "status": r.status,
                        "wall_time": r.wall_time,
                        "gap_percent": r.gap_percent,
                        "error": r.error,
                    }
                    for r in records
                ]
            )
        )
    return 0


def _cmd_gantt(args) -> int:
    instance = read_instance(args.instance)
    solution = read_solution(args.solution)
    if args.svg:
        Path(args.svg).write_text(gantt_mod.render_svg(instance, solution))
        print(f"wrote {args.svg}")
    else:
        print(gantt_mod.render_text(instance, solution), end="")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "solve": _cmd_solve,
    "validate": _cmd_validate,
    "oracle": _cmd_oracle,
    "export-mip": _cmd_export_mip,
    "bench": _cmd_bench,
    "gantt": _cmd_gantt,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (IpctpError, json.JSONDecodeError) as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 2
    except OSError as exc:
        error = type(exc).__name__
        if isinstance(exc, FileNotFoundError):
            error = "FileNotFound"
        print(json.dumps({"error": error, "message": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
