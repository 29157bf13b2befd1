"""In-memory spans around the benchmark's calls into ipctp, plus a
cProfile phase split of the solver's internals.

A ``Recorder`` wraps each public call the benchmark makes.  With tracing
off it only forwards the call; with tracing on it records one span per
call (name, layer, start, end, parent, trace id = instance name) and the
counts read from the call's return value.  Spans stay in memory until the
run ends and ``write_jsonl`` writes them out.
"""

from __future__ import annotations

import contextlib
import cProfile
import importlib
import json
import pstats
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    span_id: int
    parent_id: Optional[int]
    trace_id: str
    name: str
    layer: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def _open(self, trace_id: str, name: str, layer: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), parent, trace_id, name, layer, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, trace_id: str, name: str):
        """The benchmark's own span around one operation on one instance."""
        if not self.enabled:
            yield
            return
        span = self._open(trace_id, name, "bench")
        try:
            yield
        finally:
            self._close(span)

    def call(self, layer: str, fn: Callable, *args, counts: Optional[Callable] = None, **kwargs):
        """Call ``fn``; when tracing, record a span and ``counts(result)``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        trace_id = self._stack[-1].trace_id if self._stack else ""
        span = self._open(trace_id, fn.__name__, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(span)
        if counts is not None:
            span.counts = counts(result)
        return result

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps({
                    "span_id": s.span_id, "parent_id": s.parent_id,
                    "trace_id": s.trace_id, "name": s.name, "layer": s.layer,
                    "start": s.start, "end": s.end, "counts": s.counts,
                }) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover.

    The benchmark is single-threaded, so a span's children run one after
    another inside it and never overlap.
    """
    covered: dict[int, float] = {}
    for s in spans:
        if s.parent_id is not None:
            covered[s.parent_id] = covered.get(s.parent_id, 0.0) + s.duration
    return {s.span_id: s.duration - covered.get(s.span_id, 0.0) for s in spans}


# -- cProfile phase split ---------------------------------------------------

# The solver's propagation, bounding and branching steps and the schedule
# evaluation they share, named as ``module:qualified.name``.
PHASE_FUNCTIONS = (
    "ipctp.solver:_Engine.propagate",
    "ipctp.solver:_build_arcs",
    "ipctp.solver:_Engine._relax",
    "ipctp.solver:_Engine._tighten_lct",
    "ipctp.solver:_Engine._pairwise",
    "ipctp.solver:_Engine._force_orders",
    "ipctp.solver:_Engine.lower_bound",
    "ipctp.solver:_Engine._next_decision",
    "ipctp.solver:_Engine._children",
    "ipctp.schedule:compute_schedule",
    "ipctp.solver:_Context.yc_of",
    "ipctp.solver:_Context.location_of",
)


def _code_key(qualified: str) -> Optional[tuple[str, int, str]]:
    """The (file, first line, name) key cProfile uses, or None if gone."""
    module_name, _, path = qualified.partition(":")
    target = importlib.import_module(module_name)
    for part in path.split("."):
        target = getattr(target, part, None)
        if target is None:
            return None
    code = getattr(target, "__code__", None)
    if code is None:
        return None
    return code.co_filename, code.co_firstlineno, code.co_name


def profile_phases(run: Callable[[], None]) -> dict:
    """Run ``run`` under cProfile and report the phase functions.

    Each present function gets its self time, cumulative time and exact
    call count.  A function that no longer exists is listed under
    ``missing`` and gets no figures at all.
    """
    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    try:
        run()
    finally:
        profiler.disable()
    wall = time.perf_counter() - started
    stats = pstats.Stats(profiler).stats
    phases, missing = {}, []
    for qualified in PHASE_FUNCTIONS:
        key = _code_key(qualified)
        if key is None:
            missing.append(qualified)
            continue
        _, calls, self_s, cumulative_s, _ = stats.get(key, (0, 0, 0.0, 0.0, {}))
        phases[qualified] = {
            "calls": calls,
            "self_s": self_s,
            "cumulative_s": cumulative_s,
            "profiled_self_share": self_s / wall if wall > 0 else 0.0,
        }
    return {"profiled_wall_s": wall, "phases": phases, "missing": missing}
