"""Per-crane timeline rendering for solutions (plain text and SVG)."""

from __future__ import annotations

from operator import attrgetter

from .errors import MalformedSolution
from .instance import Instance
from .schedule import Solution

# SVG pixels per time unit.
SVG_SCALE = 4.0


def _rows(instance: Instance, solution: Solution):
    """(label, spans) per crane, quay cranes first; a span is (ship, start, end)."""
    rows: list[tuple[str, list[tuple[int, int, int]]]] = []
    ship_ids = {s.id for s in instance.shipments}
    for kind, sequences, starts, duration in (
        ("QC", solution.qc_sequences, solution.qc_start, attrgetter("qc_time")),
        ("YC", solution.yc_sequences, solution.yc_start, attrgetter("yc_time")),
    ):
        for crane in sorted(sequences):
            spans = []
            for ship in sequences[crane]:
                if ship not in ship_ids or ship not in starts:
                    raise MalformedSolution(
                        f"{kind} {crane}: shipment {ship} is unknown or has no start"
                    )
                start = starts[ship]
                spans.append((ship, start, start + duration(instance.shipment(ship))))
            rows.append((f"{kind} {crane}", spans))
    return rows


def render_text(instance: Instance, solution: Solution) -> str:
    lines = [
        f"{label} | " + " ".join(f"{ship}:[{s},{e})" for ship, s, e in spans)
        for label, spans in _rows(instance, solution)
    ]
    lines.append(f"objective {solution.objective} ({solution.status})")
    return "\n".join(lines) + "\n"


def render_svg(instance: Instance, solution: Solution) -> str:
    rows = _rows(instance, solution)
    horizon = max(
        (end for _, spans in rows for _, _, end in spans), default=1
    )
    row_height, label_width, pad = 24, 60, 4
    width = label_width + int(horizon * SVG_SCALE) + 2 * pad
    height = len(rows) * row_height + 2 * pad
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
    ]
    for row_no, (label, spans) in enumerate(rows):
        y = pad + row_no * row_height
        parts.append(
            f'<text x="{pad}" y="{y + 16}" font-size="12" '
            f'font-family="monospace">{label}</text>'
        )
        fill = "#4c78a8" if label.startswith("QC") else "#f58518"
        for ship, start, end in spans:
            x = label_width + start * SVG_SCALE
            w = max((end - start) * SVG_SCALE, 1)
            parts.append(
                f'<rect x="{x:.1f}" y="{y + 2}" width="{w:.1f}" '
                f'height="{row_height - 6}" fill="{fill}" stroke="black"/>'
            )
            parts.append(
                f'<text x="{x + 2:.1f}" y="{y + 16}" font-size="10" '
                f'fill="white" font-family="monospace">{ship}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
