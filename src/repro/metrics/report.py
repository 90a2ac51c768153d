"""Text tables for figures."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = ["Table", "format_value", "az_skew_note"]


def format_value(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


@dataclass
class Table:
    """A printable result table for one figure/table of the paper."""

    title: str
    headers: list[str]
    rows: list[list] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *cells) -> None:
        self.rows.append(list(cells))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def render(self) -> str:
        cells = [[format_value(c) for c in row] for row in self.rows]
        widths = [len(h) for h in self.headers]
        for row in cells:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [self.title, "=" * len(self.title)]
        lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(self.headers)))
        lines.append("  ".join("-" * w for w in widths))
        for row in cells:
            lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def print(self) -> None:
        print()
        print(self.render())

    def column(self, header: str) -> list:
        idx = self.headers.index(header)
        return [row[idx] for row in self.rows]


def az_skew_note(setup: str, resource, tier: str = "storage") -> Optional[str]:
    """One-line per-AZ skew summary for a figure note (None if no AZ data).

    ``resource`` is a :class:`repro.metrics.utilization.ResourceReport`
    whose ``per_az`` field was filled by the adapter.
    """
    if not resource.per_az:
        return None
    attr = "storage_net_mb_s" if tier == "storage" else "server_net_mb_s"
    parts = [
        f"az{az} {format_value(getattr(util, attr))}"
        for az, util in sorted(resource.per_az.items())
    ]
    skew = resource.az_skew(tier)
    return (
        f"{setup}: per-AZ {tier} net MB/s per node: "
        + ", ".join(parts)
        + f"  (max/mean {skew:.2f}x)"
    )
