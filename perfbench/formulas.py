"""Summary statistics the benchmark reports, kept free of any ipctp import.

Every function is pure and is tested on hand-built inputs in
``test_formulas.py``.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

# Beyond the reported tail percentile there are always at least this many
# samples, so the tail is never a single outlier.
TAIL_SAMPLES_BEYOND = 10


def tail(values: Sequence[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``.  With ``n`` samples sorted ascending the
    value is the ``n - 10``-th (1-based) sample, and exactly ten samples lie
    above its rank, so the percentile is ``100 * (n - 10) / n``.
    """
    n = len(values)
    if n <= TAIL_SAMPLES_BEYOND:
        raise ValueError(
            f"a tail needs more than {TAIL_SAMPLES_BEYOND} samples, got {n}"
        )
    rank = n - TAIL_SAMPLES_BEYOND
    return sorted(values)[rank - 1], 100.0 * rank / n


def shifted_geometric_mean(values: Sequence[float], shift: float) -> float:
    """``exp(mean(log(v + shift))) - shift``; the shift damps tiny values."""
    if not values:
        raise ValueError("shifted geometric mean of no samples")
    if shift <= 0:
        raise ValueError("shift must be positive")
    if min(values) + shift <= 0:
        raise ValueError("every value must exceed -shift")
    mean_log = sum(math.log(v + shift) for v in values) / len(values)
    return math.exp(mean_log) - shift


def primal_integral_pct(
    budget: float,
    incumbent_trace: Sequence[tuple[float, int]],
    lower_bound: Optional[int],
    proved_at: Optional[float],
) -> float:
    """Time-average over ``[0, budget]`` of the gap, in percent.

    The gap at time ``t`` is ``(incumbent(t) - lower_bound) / incumbent(t)``
    against the bound the solve finally reported.  It is 100% before the
    first incumbent and 0 from the moment of a proof (``proved_at``) on.
    A solve that never found an incumbent scores 100%.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    end = budget if proved_at is None else min(proved_at, budget)
    area = 0.0
    previous_time = 0.0
    previous_gap = 1.0  # no incumbent yet
    for found_at, objective in incumbent_trace:
        found_at = min(max(found_at, 0.0), end)
        area += (found_at - previous_time) * previous_gap
        previous_time = found_at
        if lower_bound is None or objective <= 0:
            previous_gap = 1.0
        else:
            previous_gap = max(0.0, (objective - lower_bound) / objective)
    area += (end - previous_time) * previous_gap
    return 100.0 * area / budget


def normalised_s(wall_s: float, pace_before: float, pace_after: float,
                 nominal: float) -> float:
    """Wall seconds at the nominal pace.

    ``pace_before`` and ``pace_after`` are the reference routine's wall
    time just before and just after the measured interval; their mean is
    the pace during it, and ``nominal`` is the routine's time at full
    speed.
    """
    if min(pace_before, pace_after, nominal) <= 0:
        raise ValueError("pace readings must be positive")
    return wall_s * nominal / ((pace_before + pace_after) / 2.0)


def failed_frac(attempted: int, failed: int) -> float:
    """Failed operations over attempted ones."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted
