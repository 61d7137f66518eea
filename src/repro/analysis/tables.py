"""Row-oriented plain-text table rendering for the CLI's terminal output.

EXPERIMENTS.md tables are rendered by
:meth:`repro.experiments.common.ExperimentResult.format_table`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence


def _columns(rows: Sequence[Dict], columns: Optional[Sequence[str]]) -> List[str]:
    if columns is not None:
        return list(columns)
    ordered: List[str] = []
    for row in rows:
        for name in row:
            if name not in ordered:
                ordered.append(name)
    return ordered


def _cell(value, float_format: str) -> str:
    if isinstance(value, float):
        return format(value, float_format)
    if value is None:
        return ""
    return str(value)


def format_plain(
    rows: Sequence[Dict],
    columns: Optional[Sequence[str]] = None,
    float_format: str = ".3f",
) -> str:
    """Aligned fixed-width text table for terminals."""

    names = _columns(rows, columns)
    rendered = [
        [_cell(row.get(name), float_format) for name in names] for row in rows
    ]
    widths = [
        max(len(name), *(len(line[i]) for line in rendered)) if rendered else len(name)
        for i, name in enumerate(names)
    ]
    header = "  ".join(name.ljust(width) for name, width in zip(names, widths))
    divider = "  ".join("-" * width for width in widths)
    body = [
        "  ".join(cell.rjust(width) for cell, width in zip(line, widths))
        for line in rendered
    ]
    return "\n".join([header, divider, *body])
