"""Test-side MILP backend: parse the emitted LP text and solve it with HiGHS.

This deliberately re-reads the LP *file format* rather than reusing the
exporter's internal row structures, so the round trip exercises what an
external engine would see.
"""

from __future__ import annotations

import re

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_array

from ipctp.mip import export_lp, solution_from_values
from ipctp.schedule import validate

# Seconds HiGHS may spend on one MIP: a stalled solve fails with a message
# instead of hanging the test run.
TIME_LIMIT = 60.0

# HiGHS holds each row only to within 1e-6, so a start time may come back
# that much early and the weighted objective several times that low: 3 of
# the 25 MILP draws of the differential test read 1e-6 to 2e-6 below the
# optimum.  Every test that compares HiGHS's objective with this tolerance
# also compares the parsed solution's objective exactly.
MILP_OBJECTIVE_TOLERANCE = 1e-4

_NUMBER = re.compile(r"\d+(\.\d+)?$")
_SENSE = re.compile(r"(<=|>=|=)\s*(-?\d+(\.\d+)?)\s*$")


def _parse_terms(chunk: str) -> dict[str, float]:
    terms: dict[str, float] = {}
    tokens = chunk.replace("+", " + ").replace("-", " - ").split()
    sign, coef = 1.0, None
    for token in tokens:
        if token == "+":
            sign, coef = 1.0, None
        elif token == "-":
            sign, coef = -1.0, None
        elif _NUMBER.match(token):
            coef = float(token)
        else:
            magnitude = coef if coef is not None else 1.0
            terms[token] = terms.get(token, 0.0) + sign * magnitude
            sign, coef = 1.0, None
    return terms


def parse_lp(text: str):
    objective: dict[str, float] = {}
    rows: list[tuple[str, dict[str, float], str, float]] = []
    binaries: set[str] = set()
    pending: dict | None = None
    section = None
    for line in text.splitlines():
        if not line.strip() or line.startswith("\\"):
            continue
        stripped = line.strip()
        low = stripped.lower()
        if low in ("minimize", "maximize"):
            section = "objective"
            continue
        if low == "subject to":
            section = "rows"
            continue
        if low in ("binaries", "binary"):
            section = "binaries"
            continue
        if low == "end":
            break
        if section == "objective":
            body = stripped.split(":", 1)[1] if ":" in stripped else stripped
            objective.update(_parse_terms(body))
        elif section == "rows":
            if ":" in stripped and not line.startswith("   "):
                name, body = stripped.split(":", 1)
                pending = {"name": name.strip(), "body": body}
                rows.append(pending)
            else:
                pending["body"] += " " + stripped
        elif section == "binaries":
            binaries.update(stripped.split())

    parsed = []
    for row in rows:
        match = _SENSE.search(row["body"])
        parsed.append(
            (
                row["name"],
                _parse_terms(row["body"][: match.start()]),
                match.group(1),
                float(match.group(2)),
            )
        )
    return objective, parsed, binaries


def solve_lp_text(text: str) -> tuple[float, dict[str, float]]:
    """Optimize the LP text with HiGHS; returns (objective, variable values)."""
    objective, rows, binaries = parse_lp(text)
    names = sorted(set(objective) | {n for _, t, _, _ in rows for n in t} | binaries)
    index = {name: pos for pos, name in enumerate(names)}
    costs = np.zeros(len(names))
    for name, coef in objective.items():
        costs[index[name]] = coef
    # The matrix is sparse: a row touches a handful of the variables.
    row_of, column_of, coefs = [], [], []
    lower = np.full(len(rows), -np.inf)
    upper = np.full(len(rows), np.inf)
    for r, (_, terms, sense, rhs) in enumerate(rows):
        for name, coef in terms.items():
            row_of.append(r)
            column_of.append(index[name])
            coefs.append(coef)
        if sense == "<=":
            upper[r] = rhs
        elif sense == ">=":
            lower[r] = rhs
        else:
            lower[r] = upper[r] = rhs
    matrix = csr_array((coefs, (row_of, column_of)), shape=(len(rows), len(names)))
    integrality = np.array([1 if name in binaries else 0 for name in names])
    var_upper = np.array([1.0 if name in binaries else np.inf for name in names])
    result = milp(
        costs,
        constraints=LinearConstraint(matrix, lower, upper),
        integrality=integrality,
        bounds=Bounds(np.zeros(len(names)), var_upper),
        options={"mip_rel_gap": 0.0, "time_limit": TIME_LIMIT},
    )
    if not result.success:
        raise RuntimeError(f"MILP backend failed: {result.message}")
    return float(result.fun), dict(zip(names, result.x))


def round_trip(instance, derived, optimum: int):
    """Export the instance's MIP, solve its LP text with HiGHS and check that
    HiGHS's objective is ``optimum`` within MILP_OBJECTIVE_TOLERANCE and that
    the parsed solution validates at exactly ``optimum``; returns it."""
    text, artifacts = export_lp(instance, derived)
    objective, values = solve_lp_text(text)
    assert abs(objective - optimum) <= MILP_OBJECTIVE_TOLERANCE
    parsed = solution_from_values(instance, derived, artifacts, values)
    assert validate(instance, derived, parsed) == []
    assert parsed.objective == optimum
    return parsed
