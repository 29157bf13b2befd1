"""The host's current pace, read from a fixed pure-Python routine.

A shared host runs this benchmark at a speed that swings by up to 1.9x
between two states, switching within milliseconds and sometimes staying
slow for minutes.  Every gated time is therefore measured next to a few
calls of ``reference`` and expressed in *normalised seconds*: wall
seconds times ``NOMINAL_S / pace``, where ``pace`` is the reference's
wall time right around the measured operation.  ``reference`` lives in
the benchmark, not in ipctp, so a change to the program moves the
normalised time by exactly its own share and the pace not at all.
"""

from __future__ import annotations

import statistics
import time

# Wall time of one ``reference`` call at the host's full speed: the
# lower mode of its duration on a shared 2-core x86_64 VM, CPython
# 3.11.7.  It only sets the scale of a normalised second.
NOMINAL_S = 0.0025
# Readings a solve's budget is set by: enough to smooth one reading's
# jitter, few enough to follow a phase of a second or two.
RECENT = 5


def reference() -> int:
    """Dict, tuple, list and string work, as the program's own mix is."""
    rows: dict[int, list] = {}
    acc = 0
    for i in range(1800):
        key = (i % 211, i // 211)
        rows.setdefault(key[0], []).append((key, i * 3))
        acc += max(key[0], i & 255) - min(key[1], 3)
    parts = [f"c{k}_{j}: {v} x{k} + {j} y <= {v + k}"
             for k in sorted(rows) for (_, j), v in rows[k]]
    return acc + len("\n".join(parts))


class Pace:
    """Samples of ``reference``'s wall time, taken around each operation."""

    def __init__(self, calls: int = 1):
        self.calls = calls  # reference calls per sample; the median is kept
        self.samples: list[float] = []

    def sample(self) -> float:
        durations = []
        for _ in range(self.calls):
            started = time.perf_counter()
            reference()
            durations.append(time.perf_counter() - started)
        self.samples.append(statistics.median(durations))
        return self.samples[-1]

    def recent(self) -> float:
        """Median of the last ``RECENT`` samples: the pace to budget a solve by."""
        return statistics.median(self.samples[-RECENT:])
