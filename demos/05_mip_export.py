#!/usr/bin/env python3
# The full mixed-integer model can be written as a standard LP file for any
# external MILP engine.  The artifacts returned with the text map variable
# names back to semantic ids, so external solutions can be parsed into
# validated Solution objects; a feasible Solution can conversely be injected
# as a point satisfying every emitted row.

import sys
from pathlib import Path

from ipctp import (
    brute_force,
    build_derived,
    check_point,
    export_lp,
    mip_point_from_solution,
    solution_from_values,
    validate,
)
from ipctp.generator import GenConfig, generate

instance = generate(
    GenConfig(ul_ratio=2, bays=4, shipments=3, inbound_ratio=0.5, seed=99)
)
derived = build_derived(instance)
text, artifacts = export_lp(instance, derived)

print(f"model: {len(artifacts.variables)} variables, {len(artifacts.rows)} rows, "
      f"big-M {artifacts.big_m}")
print("rows per constraint family:")
for family, count in sorted(artifacts.row_counts.items()):
    print(f"  {family:<40} {count}")

print("\nfirst lines of the LP file:")
for line in text.splitlines()[:12]:
    print(f"  {line}")

# Round trip 1: a provably optimal solution satisfies every emitted row.
oracle = brute_force(instance, derived)
point = mip_point_from_solution(instance, derived, artifacts, oracle.best_solution)
print(f"\ninjecting the proven optimum: {len(check_point(artifacts, point))} "
      f"violated rows")

# Round trip 2: reading the point back reproduces the same solution.
parsed = solution_from_values(instance, derived, artifacts, point)
print(f"parse-back objective {parsed.objective} "
      f"(oracle {oracle.best_objective}), "
      f"violations {validate(instance, derived, parsed)}")

# With scipy installed the LP text itself can be solved in-process, which
# is how the test suite checks model equivalence end to end.  The backend
# lives in the repository's tests directory, found from this file so the
# demo runs from any working directory.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
try:
    from milp_backend import solve_lp_text
except ImportError as error:  # scipy not installed: export/parse still usable
    print(f"\n{error.name} not available; skipping the in-process MILP solve")
else:
    objective, values = solve_lp_text(text)
    print(f"\nHiGHS optimum over the LP file: {objective:.1f}")
