"""Shared experiment plumbing: sweep sizes, units and ASCII tables.

Every experiment module returns plain data (so tests can assert on it)
plus a ``render()`` that prints paper-style rows — the text
:mod:`.artefacts` commits under ``results/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

__all__ = ["paper_sweep_sizes", "kbps", "format_rate", "Table"]


def paper_sweep_sizes(start: int = 100, stop: int = 100_000, per_decade: int = 3) -> "List[int]":
    """Log-spaced node counts like the paper's x-axis (100 … 100 000)."""
    if start < 2 or stop < start:
        raise ValueError("need 2 <= start <= stop")
    sizes: List[int] = []
    current = float(start)
    ratio = 10 ** (1.0 / per_decade)
    while current <= stop * 1.0001:
        size = int(round(current))
        if not sizes or size != sizes[-1]:
            sizes.append(size)
        current *= ratio
    if sizes[-1] != stop:
        sizes.append(stop)
    return sizes


def kbps(bits_per_second: float) -> float:
    """bits/s → kb/s (the paper's y-axis unit)."""
    return bits_per_second / 1000.0


def format_rate(bits_per_second: float) -> str:
    """Human-friendly rate with the paper's kb/s as the anchor unit."""
    value = kbps(bits_per_second)
    if value >= 1000:
        return f"{value / 1000:.3g} Mb/s"
    if value >= 0.01:
        return f"{value:.3g} kb/s"
    return f"{bits_per_second:.3g} b/s"


@dataclass
class Table:
    """A minimal ASCII table (no external deps)."""

    headers: List[str]
    rows: List[List[str]] = field(default_factory=list)
    title: str = ""

    def add_row(self, *cells: object) -> None:
        if len(cells) != len(self.headers):
            raise ValueError("row width does not match the headers")
        self.rows.append([str(c) for c in cells])

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def line(cells: Sequence[str]) -> str:
            return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

        out: List[str] = []
        if self.title:
            out.append(self.title)
        out.append(line(self.headers))
        out.append("  ".join("-" * w for w in widths))
        out.extend(line(row) for row in self.rows)
        return "\n".join(out)

    def __str__(self) -> str:
        return self.render()
