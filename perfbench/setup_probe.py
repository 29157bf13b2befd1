"""Time one cold set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed>

Set-up is importing ipctp and generating instances: the verify
candidates (generated to filter them by oracle combination count), then
the named workload's corpus and gate sample.  Importing the benchmark's
own modules is not timed.  It prints the set-up time in normalised
seconds (see pace.py), then in wall seconds; ``run.py`` runs this
several times and reports the medians.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from formulas import normalised_s  # noqa: E402
from pace import NOMINAL_S, Pace  # noqa: E402

pace = Pace(calls=5)
before = pace.sample()
started = time.perf_counter()
import ipctp  # noqa: E402,F401

imported = time.perf_counter() - started

from workloads import make_workloads  # noqa: E402

started = time.perf_counter()
make_workloads()[sys.argv[1]].instances(int(sys.argv[2]))
wall = imported + time.perf_counter() - started
print(normalised_s(wall, before, pace.sample(), NOMINAL_S), wall)
