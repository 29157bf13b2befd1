"""Exactness check for refactors: one line per instance, equal on every run.

    python tests/exactness.py                       # this checkout's src
    python tests/exactness.py --src OTHER/src       # another src tree
    python tests/exactness.py --compare OLD/src src # both; see below for exits

``ipctp.solver`` reads its clock through ``time.monotonic``.  Here that
clock advances 1 ms per reading, so a time limit counts clock readings (the
search reads it once per node past the root and once per new incumbent)
and every run of a tree is the same, whatever the host's pace.  Four
corpora are the benchmark's, from ``perfbench/workloads.make_workloads()``:

- ``prove``: the 24 instances, solved at 20,000 ticks;
- ``anytime``: replicate 0 of its instances, solved at 3,000 ticks;
- ``verify``: the oracle, then a solve at 60,000 ticks;
- ``export``: the 22 instances' MIP, built and rendered as LP text.

The fifth, ``quay``, reaches the quay-crane choice, which no benchmark
instance has: replicate 0 of u2/u3 x b8 x s10/s15 x r20/r50 from base seed
707, with two quay cranes in place of the generator's four, so some
shipments have two eligible cranes.  Each is solved at 3,000 ticks.

The sixth, ``scale``, times out at size: replicate 0 of u2 x b8 x
s50/s100/s200 x r20, with one vessel and with two, from base seed 707.
Each size has its own budget, 2,000, 1,000 and 400 ticks; each s200 solve
counts 400 nodes.

Each line is the corpus, the instance's name and one JSON object.  On the
solved corpora that is the solve's report without ``wall_time`` and
with the incumbent trace's objectives only, the sha256 of the solution
JSON and, on ``verify``, the oracle's optimum, count and the sha256 of its
solution JSON.  On ``export`` it is the row and variable counts and the
sha256 of the LP text and of the mapping JSON.

``--compare A B`` runs the check on two ``src`` trees in subprocesses and
prints each instance whose lines differ with the keys that differ.  It
exits 2 when a run fails, 1 when both runs end and some instance differs,
and 0 otherwise.  The file is not a test module, so Tier-1 leaves it out.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# Budgets in clock readings, 1 ms each.
PROVE_TICKS = 20_000
ANYTIME_TICKS = 3_000
VERIFY_TICKS = 60_000
QUAY_TICKS = 3_000
SCALE_TICKS = {50: 2_000, 100: 1_000, 200: 400}


# Not conftest's ``TickingClock``: importing conftest imports ipctp, and
# this script must first choose the ``src`` tree that ipctp comes from.
class TickClock:
    """A stand-in for the ``time`` module: each reading is 1 ms later."""

    def __init__(self):
        self.ticks = 0

    def monotonic(self) -> float:
        self.ticks += 1
        return self.ticks / 1000


def import_from(src: Path):
    """Import ipctp from ``src`` and nowhere else, then the benchmark's
    workloads."""
    sys.path[:0] = [str(src), str(REPO / "perfbench")]
    ipctp = importlib.import_module("ipctp")
    if Path(ipctp.__file__).resolve().parent != (src / "ipctp").resolve():
        sys.exit(f"ipctp was imported from {ipctp.__file__}, not {src}")
    return ipctp, importlib.import_module("workloads")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def lines(src: Path):
    """The check's line for each instance, in corpus order."""
    ipctp, workloads = import_from(src)
    solver = importlib.import_module("ipctp.solver")

    def solved(instance, derived, ticks: int) -> dict:
        solver.time = TickClock()
        report, solution = ipctp.solve(
            instance, derived, ipctp.SolveParams(time_limit=ticks / 1000)
        )
        payload = report.to_payload()
        del payload["wall_time"]
        payload["incumbent_trace"] = [obj for _, obj in payload["incumbent_trace"]]
        payload["solution_sha256"] = (
            None if solution is None else digest(ipctp.solution_to_json(solution))
        )
        return payload

    corpora = workloads.make_workloads()

    def benchmark(corpus: str, replicate_0: bool = False):
        for item in corpora[corpus].items:
            if not replicate_0 or item.name.endswith("_0"):
                yield item.name, ipctp.generate(item.config)

    grid_entry = importlib.import_module("ipctp.generator").grid_entry
    quay = (
        grid_entry(707, ipctp.GenConfig(ul, 8, shipments, ratio), 0)
        for ul in (2, 3) for shipments in (10, 15) for ratio in (0.2, 0.5)
    )
    scale = (
        grid_entry(707, ipctp.GenConfig(2, 8, shipments, 0.2, vessels=vessels), 0)
        for shipments in SCALE_TICKS for vessels in (1, 2)
    )
    for corpus, ticks, instances in (
        ("prove", PROVE_TICKS, benchmark("prove")),
        ("anytime", ANYTIME_TICKS, benchmark("anytime", replicate_0=True)),
        ("verify", VERIFY_TICKS, benchmark("verify")),
        ("quay", QUAY_TICKS,
         ((entry.name, replace(entry.instance, qc_count=2)) for entry in quay)),
        # Its budget is per size.
        ("scale", None, ((entry.name, entry.instance) for entry in scale)),
    ):
        for name, instance in instances:
            derived = ipctp.build_derived(instance)
            record = {}
            if corpus == "verify":
                oracle = ipctp.brute_force(instance, derived)
                record = {
                    "oracle_objective": oracle.best_objective,
                    "oracle_enumerated": oracle.enumerated,
                    "oracle_solution_sha256": digest(
                        ipctp.solution_to_json(oracle.best_solution)
                    ),
                }
            record.update(solved(
                instance, derived, ticks or SCALE_TICKS[len(instance.shipments)]
            ))
            yield f"{corpus} {name} {json.dumps(record, sort_keys=True)}"
    mapping_to_json = importlib.import_module("ipctp.mip").mapping_to_json
    for item in corpora["export"].items:
        instance = ipctp.generate(item.config)
        text, artifacts = ipctp.export_lp(instance, ipctp.build_derived(instance))
        record = {
            "rows": len(artifacts.rows),
            "variables": len(artifacts.variables),
            "lp_sha256": digest(text),
            "mapping_sha256": digest(mapping_to_json(artifacts)),
        }
        yield f"export {item.name} {json.dumps(record, sort_keys=True)}"


def compare(old: Path, new: Path) -> int:
    """Run both trees side by side and print what differs; return 2 if a
    run fails, else 1 if any instance differs."""
    runs = [
        subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--src", str(src)],
            stdout=subprocess.PIPE, text=True,
        )
        for src in (old, new)
    ]
    outputs = [run.communicate()[0].splitlines() for run in runs]
    if any(run.returncode for run in runs):
        print("a run failed:", [run.returncode for run in runs])
        return 2
    keyed = [{" ".join(line.split(" ", 2)[:2]): line for line in out}
             for out in outputs]
    differ = 0
    for key in dict.fromkeys([*keyed[0], *keyed[1]]):
        a, b = keyed[0].get(key), keyed[1].get(key)
        if a == b:
            continue
        differ += 1
        if a is None or b is None:
            print(f"{key}: only in {'the second' if a is None else 'the first'}")
            continue
        left, right = (json.loads(line.split(" ", 2)[2]) for line in (a, b))
        keys = sorted(k for k in {*left, *right} if left.get(k) != right.get(k))
        print(f"{key}: {', '.join(keys)} differ")
        print(f"- {a}")
        print(f"+ {b}")
    print(f"{differ} of {len(keyed[0])} instances differ")
    return 1 if differ else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, default=REPO / "src")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    for line in lines(args.src):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
