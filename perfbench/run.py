"""ipctp benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload prove --seed 1 --seconds 25 --trace 0

Workloads (README.md says why each was chosen):

- ``prove``: build_derived + solve to proof on s8 instances;
- ``anytime``: solve at a fixed budget on s10/s15 instances;
- ``verify``: oracle, solve, validate and MIP point check on s3-s5 instances;
- ``export``: build_mip + render_lp on s15/s20 instances.

Gated times are in normalised seconds: wall seconds at the host's full
speed, read from a reference routine run around every operation (see
``pace.py``).  With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs the workload once untraced and once with spans, and
reports the per-layer metrics, the tracing overhead and a cProfile phase
split of the solver.  Every operation passes correctness gates; any breach
makes the command exit 1.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Full results, spans and run conditions go to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import importlib
import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"

sys.path.insert(0, str(HERE))
from formulas import (  # noqa: E402
    TAIL_SAMPLES_BEYOND,
    failed_frac,
    shifted_geometric_mean,
    tail,
)
from pace import NOMINAL_S, Pace  # noqa: E402
from spans import Recorder, profile_phases, self_times  # noqa: E402

WORKLOAD_NAMES = ("prove", "anytime", "verify", "export")
SETUP_REPEATS = 5
# A budgeted solve gets at most this many times its budget in wall
# seconds, however slow the host's pace reads.
WALL_CAP = 2.0
SGM_SHIFT_S = 0.1
NONDETERMINISTIC = "fingerprint differs between runs"


class ProgramMissing(Exception):
    pass


def import_program() -> None:
    """Import ipctp from this checkout's ``src`` and nowhere else."""
    package = SRC / "ipctp"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no ipctp package at {package}")
    sys.path.insert(0, str(SRC))
    ipctp = importlib.import_module("ipctp")
    if Path(ipctp.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"ipctp was imported from {ipctp.__file__}")


def run_one(workload, rec, item, instance, budget, pace):
    """One operation, bracketed by pace samples.

    ``budget`` is in normalised seconds; the solve gets the wall seconds
    that match the recent pace, at most ``WALL_CAP`` times the budget.
    """
    gc.collect()  # every operation starts from a collected heap, untimed
    before = pace.sample()
    wall_budget = None
    if budget is not None:
        wall_budget = min(budget * pace.recent() / NOMINAL_S, WALL_CAP * budget)
    try:
        with rec.op(item.name, workload.op.__name__):
            outcome = workload.op(rec, item, instance, wall_budget, pace)
    except Exception:  # a failed operation is counted, never fatal
        from workloads import Outcome

        problem = traceback.format_exc().strip().splitlines()[-1]
        pace.sample()
        return Outcome(item.name, 0.0, 0, [f"raised {problem}"])
    outcome.value = workload.figure(outcome, before, pace.sample(), budget)
    return outcome


def run_timed(workload, corpus, seconds: float, rec, pace) -> list[list]:
    """Every instance once, then the repeatable ones again until ``seconds``.

    The repeats cycle through the repeatable instances in run order, and
    one starts only if its first run would still have fit.  Returns the
    outcomes of every run, grouped per instance.
    """
    budget = workload.budget(seconds)
    started = time.perf_counter()
    runs = [[run_one(workload, rec, item, inst, budget, pace)] for item, inst in corpus]
    again = [k for k, outcomes in enumerate(runs) if outcomes[0].repeatable]
    for k in itertools.cycle(again):
        if time.perf_counter() - started + runs[k][0].elapsed > seconds:
            break
        item, inst = corpus[k]
        runs[k].append(run_one(workload, rec, item, inst, budget, pace))
    return runs


def run_paired(workload, corpus, seconds: float, rec, pace) -> tuple[list, list]:
    """One untraced and one traced pass, interleaved per instance.

    Which of the pair runs first alternates, so neither side always meets
    the warmer interpreter and caches.  Returns (untraced, traced).
    """
    budget = workload.budget(seconds)
    plain, traced = [], []
    for k, (item, inst) in enumerate(corpus):
        for side in ((plain, traced) if k % 2 == 0 else (traced, plain)):
            recorder = rec if side is traced else Recorder(False)
            side.append(run_one(workload, recorder, item, inst, budget, pace))
    return plain, traced


def merge_runs(runs: list[list]) -> list:
    """One outcome per instance: the median of its runs, problems of all.

    The figure is in normalised seconds, so the host's pace swings cancel
    in it; the median then damps what is left of a single run's noise.
    Fingerprints that differ between runs of one instance are a
    determinism breach.
    """
    merged = []
    for outcomes in runs:
        first = outcomes[0]
        problems = [p for o in outcomes for p in o.problems]
        prints = {o.fingerprint for o in outcomes if o.fingerprint is not None}
        if len(prints) > 1:
            problems.append(NONDETERMINISTIC)
        merged.append(dataclasses.replace(
            first,
            elapsed=statistics.median(o.elapsed for o in outcomes),
            value=statistics.median(o.value for o in outcomes),
            problems=problems,
            fingerprint=next(iter(prints), None),
            extra=dict(first.extra, run_values=[o.value for o in outcomes]),
        ))
    return merged


def fingerprint_digest(outcomes) -> str:
    rows = sorted((o.name, o.fingerprint) for o in outcomes)
    return hashlib.sha256(json.dumps(rows).encode("ascii")).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(outcomes, setup_s: float) -> tuple[dict, dict]:
    """The gated metrics, the same on every workload, and the tail's rank.

    Times are in normalised seconds (see pace.py).
    """
    values = [o.value for o in outcomes]
    tail_value, tail_pct = tail(values)
    gated = {
        "setup_s": (setup_s, "s"),
        "op_norm_s_p50": (statistics.median(values), "s"),
        "op_norm_s_tail": (tail_value, "s"),
        "op_norm_s_sgm": (shifted_geometric_mean(values, SGM_SHIFT_S), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    rank = {"percentile": tail_pct, "samples": len(values),
            "samples_beyond": TAIL_SAMPLES_BEYOND, "sgm_shift_s": SGM_SHIFT_S}
    return gated, rank


def named_metrics(name: str, outcomes, gated: dict, failed_share: float,
                  setup_wall_s: float) -> dict:
    """The workload's own metrics: aliases of the gated ones plus extras.

    The ``*_wall_*`` figures are the same quantities in wall seconds, as
    this run's host pace gave them; they are printed, not gated.
    """
    def mean(key: str) -> float:
        return sum(o.extra[key] for o in outcomes) / len(outcomes)

    walls = [o.elapsed for o in outcomes]
    named = {
        "failed_frac": (failed_share, "1"),
        "op_wall_s_p50": (statistics.median(walls), "s"),
        "op_wall_s_tail": (tail(walls)[0], "s"),
        "setup_wall_s": (setup_wall_s, "s"),
    }
    if name == "prove":
        named.update({
            "time_to_optimal_s_p50": gated["op_norm_s_p50"],
            "time_to_optimal_s_tail": gated["op_norm_s_tail"],
            "time_to_optimal_s_sgm": gated["op_norm_s_sgm"],
            "proved_frac": (mean("proved"), "1"),
        })
    elif name == "anytime":
        named.update({
            "gap_pct_mean": (mean("gap_pct"), "%"),
            "primal_integral_pct": (mean("primal_integral_pct"), "%"),
        })
    elif name == "verify":
        named.update({
            "verify_s_p50": gated["op_norm_s_p50"],
            "verify_s_tail": gated["op_norm_s_tail"],
        })
    elif name == "export":
        rows = sum(o.extra["rows"] for o in outcomes)
        named.update({
            "export_s_p50": gated["op_norm_s_p50"],
            "lp_rows_per_s": (rows / sum(o.value for o in outcomes), "1/s"),
        })
    return named


def cold_setup_s(workload: str, seed: int) -> tuple[float, float]:
    """One cold set-up: (normalised seconds, wall seconds)."""
    probe = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    normalised, wall = probe.stdout.split()
    return float(normalised), float(wall)


def work_rate(outcomes) -> float:
    return sum(o.work for o in outcomes) / sum(o.elapsed for o in outcomes)


def per_layer(spans, overhead_pct: float) -> dict:
    """Layer metrics derived from the spans of the traced pass."""
    own = self_times(spans)

    def total(name: str) -> float:
        return sum(s.duration for s in spans if s.name == name)

    def count(field: str) -> int:
        return sum(s.counts.get(field) or 0 for s in spans)

    metrics = {}
    for layer in ("instance", "solver", "schedule", "oracle", "mip"):
        mine = [s for s in spans if s.layer == layer]
        metrics[f"{layer}.busy_s"] = (sum(own[s.span_id] for s in mine), "s")
        metrics[f"{layer}.calls"] = (len(mine), "count")
    solve_s, nodes = total("solve"), count("nodes")
    brute_force_s, enumerated = total("brute_force"), count("enumerated")
    firsts = [s.counts["first_incumbent_s"] for s in spans
              if s.name == "solve" and s.counts.get("first_incumbent_s") is not None]
    metrics.update({
        "instance.build_derived_s": (total("build_derived"), "s"),
        "instance.interference_tuples": (count("interference_tuples"), "count"),
        "solver.solve_s": (solve_s, "s"),
        "solver.nodes": (nodes, "count"),
        "solver.nodes_per_s": (nodes / solve_s if solve_s else 0.0, "1/s"),
        "solver.propagations": (count("propagations"), "count"),
        "solver.propagations_per_node": (count("propagations") / nodes if nodes else 0.0, "1"),
        "solver.first_incumbent_s": (statistics.median(firsts) if firsts else 0.0, "s"),
        "solver.incumbents": (count("incumbents"), "count"),
        "solver.root_lb": (count("root_lb"), "1"),
        "solver.root_propagate_s": (total("propagate"), "s"),
        "schedule.validate_s": (total("validate"), "s"),
        "oracle.brute_force_s": (brute_force_s, "s"),
        "oracle.enumerated": (enumerated, "count"),
        "oracle.schedules_per_s": (enumerated / brute_force_s if brute_force_s else 0.0, "1/s"),
        "mip.build_mip_s": (total("build_mip"), "s"),
        "mip.render_lp_s": (total("render_lp"), "s"),
        "mip.check_point_s": (total("check_point"), "s"),
        "mip.rows": (count("rows"), "count"),
        "mip.variables": (count("variables"), "count"),
        "mip.lp_bytes": (count("lp_bytes"), "B"),
        "trace.overhead_pct": (overhead_pct, "%"),
        "trace.spans": (len(spans), "count"),
    })
    return metrics


def pace_deciles(samples: list[float]) -> list[float]:
    """The 10th, 50th and 90th percentile of the pace samples."""
    deciles = statistics.quantiles(samples, n=10)
    return [deciles[0], statistics.median(samples), deciles[-1]]


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def profile_slice(workload, canonical, seconds: float) -> dict:
    """cProfile a few corpus instances, evenly spaced in corpus order."""
    n, k = len(canonical), workload.profile_items
    chosen = [canonical[int((j + 0.5) * n / k)] for j in range(k)]
    budget = workload.budget(seconds)
    profile = profile_phases(
        lambda: [workload.op(Recorder(False), item, inst, budget, None)
                 for item, inst in chosen]
    )
    profile["instances"] = [item.name for item, _ in chosen]
    return profile


def print_report(args, conditions, gated, named, digest, layers, profile, outcomes) -> None:
    print(f"# ipctp benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# conditions " + json.dumps({k: v for k, v in conditions.items()
                                        if k not in ("workloads", "run_order")}))
    for w, info in conditions["workloads"].items():
        print(f"# workload {w}: {len(info['instances'])} instances, "
              f"per-instance budget {info['per_instance_budget_norm_s']} normalised s")
    rank = conditions["tail"]
    print(f"# tail = p{rank['percentile']:.1f} of {rank['samples']} samples "
          f"({rank['samples_beyond']} beyond it); sgm shift = {rank['sgm_shift_s']} s")
    for key, (value, unit) in {**gated, **named}.items():
        print(f"metric {key} = {value:.6g} {unit}")
    print(f"fingerprint {args.workload} sha256={digest}")
    if layers:
        for key, (value, unit) in layers.items():
            print(f"layer {key} = {value:.6g} {unit}")
        print(f"# profile (cProfile on, figures are profiled) of {profile['instances']}: "
              f"{profile['profiled_wall_s']:.3f} s")
        for fn, p in profile["phases"].items():
            print(f"profile {fn} calls={p['calls']} self_s={p['self_s']:.4f} "
                  f"cumulative_s={p['cumulative_s']:.4f} "
                  f"self_share={100 * p['profiled_self_share']:.1f}%")
        for fn in profile["missing"]:
            print(f"profile {fn} missing")
    for o in outcomes:
        for problem in o.problems:
            print(f"FAILED {o.name}: {problem}")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    from workloads import GATE, make_workloads, root_probe

    setups = [cold_setup_s(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
    setup_s = statistics.median(normalised for normalised, _ in setups)
    setup_wall_s = statistics.median(wall for _, wall in setups)
    workloads = make_workloads()
    workload = workloads[args.workload]
    corpus, gates = workload.instances(args.seed)
    canonical = list(corpus)
    random.Random(f"order-{args.seed}").shuffle(corpus)

    rec = Recorder(bool(args.trace))
    pace = Pace(workload.pace_calls)
    pace.sample()  # the first solve's budget needs a recent pace
    if args.trace:
        reference, traced = run_paired(workload, corpus, args.seconds, rec, pace)
        runs = [[o] for o in traced]
        overhead_pct = 100.0 * (work_rate(reference) / work_rate(traced) - 1.0)
        for item, instance in corpus:
            with rec.op(item.name, "root_probe"):
                root_probe(rec, instance)
    else:
        runs = run_timed(workload, corpus, args.seconds, rec, pace)
    outcomes = merge_runs(runs)
    gate_outcomes = [run_one(GATE, rec, item, inst, None, Pace()) for item, inst in gates]

    attempted = sum(len(r) for r in runs) + len(gate_outcomes)
    failed = sum(bool(o.problems) for r in runs for o in r)
    failed += sum(bool(o.problems) for o in gate_outcomes)
    failed += sum(NONDETERMINISTIC in o.problems for o in outcomes)
    gated, rank = end_to_end(outcomes, setup_s)
    named = named_metrics(args.workload, outcomes, gated,
                          failed_frac(attempted, failed), setup_wall_s)
    layers = per_layer(rec.spans, overhead_pct) if args.trace else None
    profile = profile_slice(workload, canonical, args.seconds) if args.trace else None

    conditions = {
        "nproc": nproc(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "runs": attempted - len(gate_outcomes),
        "setup_repeats": SETUP_REPEATS,
        "nominal_pace_s": NOMINAL_S,
        "pace_calls": workload.pace_calls,
        "pace_s": dict(zip(("p10", "p50", "p90"), pace_deciles(pace.samples))),
        "tail": rank,
        "gate_instances": [item.name for item, _ in gates],
        "run_order": [item.name for item, _ in corpus],
        "workloads": {
            w.name: {
                "instances": [item.name for item in w.items],
                "per_instance_budget_norm_s": w.budget(args.seconds),
            }
            for w in workloads.values()
        },
    }
    digest = fingerprint_digest(outcomes)
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps({
        "conditions": conditions,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**gated, **named}.items()},
        "per_layer": layers and {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
        "profile": profile,
        "fingerprint_sha256": digest,
        "outcomes": [vars(o) for o in outcomes],
        "gates": [vars(o) for o in gate_outcomes],
    }, indent=1) + "\n")
    if args.trace:
        rec.write_jsonl(stem.with_suffix(".spans.jsonl"))

    print_report(args, conditions, gated, named, digest, layers, profile,
                 outcomes + gate_outcomes)
    result = layers if args.trace else gated
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
