"""Comparison tables (the paper's Table I)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..units import format_si
from .errors import surface_rmse_db, time_domain_rmse

__all__ = ["ModelComparisonRow", "ComparisonTable", "ascii_table"]


@dataclass
class ModelComparisonRow:
    """One row of the Table I style comparison."""

    name: str
    surface_rmse_db: float
    time_domain_rmse: float
    build_time_s: float
    speedup: float
    fully_automated: bool

    def cells(self) -> list[str]:
        return [
            self.name,
            f"{self.surface_rmse_db:.1f} dB",
            f"{self.time_domain_rmse:.4f}",
            format_si(self.build_time_s, "s"),
            f"{self.speedup:.1f}x",
            "YES" if self.fully_automated else "NO",
        ]


@dataclass
class ComparisonTable:
    """Collection of comparison rows with the paper's Table I columns."""

    rows: list[ModelComparisonRow] = field(default_factory=list)
    reference_name: str = "SPICE"

    HEADER = ["Model", "RMSE", "Time-domain RMSE", "Build time", "Speedup", "Fully automated"]

    def add(self, row: ModelComparisonRow) -> None:
        self.rows.append(row)

    def render(self) -> str:
        return ascii_table(self.HEADER, [row.cells() for row in self.rows])

    def best_by_accuracy(self) -> ModelComparisonRow:
        return min(self.rows, key=lambda r: r.surface_rmse_db)


def ascii_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Minimal fixed-width ASCII table renderer (no external dependencies)."""
    columns = len(header)
    widths = [len(str(header[i])) for i in range(columns)]
    for row in rows:
        for i in range(columns):
            widths[i] = max(widths[i], len(str(row[i])))
    def render_row(cells: Sequence[str]) -> str:
        return " | ".join(str(cells[i]).ljust(widths[i]) for i in range(columns))
    separator = "-+-".join("-" * w for w in widths)
    lines = [render_row(header), separator]
    lines.extend(render_row(row) for row in rows)
    return "\n".join(lines)

