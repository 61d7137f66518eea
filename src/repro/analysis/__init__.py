"""Result analysis for the CLI: plain-text tables, an ASCII bar chart and
counter diffs between two results."""

from repro.analysis.charts import bar_chart
from repro.analysis.summary import counter_diff
from repro.analysis.tables import format_plain

__all__ = ["bar_chart", "counter_diff", "format_plain"]
