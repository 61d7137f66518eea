"""Dependency-free ASCII bar chart for terminal reports.

``repro compare`` draws each scheme's speedup over the baseline with it.
"""

from __future__ import annotations

from typing import Dict, Optional

_BAR = "█"
_HALF = "▌"


def bar_chart(
    values: Dict[str, float],
    width: int = 48,
    baseline: Optional[float] = None,
    value_format: str = ".3f",
    title: str = "",
) -> str:
    """Horizontal bar chart, one labelled bar per entry.

    With ``baseline`` set, a marker column shows where the baseline value
    falls (e.g. 1.0 for speedup charts).
    """

    if not values:
        raise ValueError("nothing to chart")
    label_width = max(len(label) for label in values)
    peak = max(max(values.values()), baseline or 0.0)
    if peak <= 0:
        raise ValueError("bar charts need a positive maximum")
    scale = width / peak

    lines = [title] if title else []
    marker = int(round(baseline * scale)) if baseline is not None else None
    for label, value in values.items():
        units = value * scale
        filled = int(units)
        bar = _BAR * filled + (_HALF if units - filled >= 0.5 else "")
        if marker is not None and len(bar) < marker:
            bar = bar.ljust(marker - 1) + "|"
        lines.append(
            f"{label.rjust(label_width)}  {bar.ljust(width)} {value:{value_format}}"
        )
    return "\n".join(lines)
