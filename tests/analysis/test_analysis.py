"""Unit tests for the analysis package: tables, charts, counter diffs."""

import pytest

from repro.analysis.charts import bar_chart
from repro.analysis.summary import counter_diff
from repro.analysis.tables import format_plain
from repro.sim.results import SimResult

ROWS = [
    {"app": "ATAX", "speedup": 2.1774},
    {"app": "SRAD", "speedup": 0.9941, "note": "flat"},
]


def result(cycles, **counters):
    return SimResult(app_name="a", scheme="s", cycles=cycles, counters=counters)


class TestTables:
    def test_plain_alignment(self):
        text = format_plain(ROWS)
        lines = text.splitlines()
        assert len({len(line) for line in lines[:2]}) == 1  # header == divider

    def test_plain_missing_cells_blank(self):
        text = format_plain(ROWS)
        assert "flat" in text

    def test_float_format_override(self):
        text = format_plain(ROWS, float_format=".1f")
        assert "2.2" in text


class TestCharts:
    def test_bar_chart_contains_labels_and_values(self):
        text = bar_chart({"ATAX": 2.18, "LOW": 0.4}, baseline=1.0)
        assert "ATAX" in text and "2.180" in text
        assert "|" in text  # baseline marker on the clearly-shorter bar

    def test_bar_lengths_scale(self):
        text = bar_chart({"big": 4.0, "small": 1.0}, width=40)
        big, small = text.splitlines()
        assert big.count("█") > 3 * small.count("█")

    def test_bar_chart_empty_rejected(self):
        with pytest.raises(ValueError):
            bar_chart({})

    def test_bar_chart_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            bar_chart({"a": 0.0})


class TestCounterDiff:
    def test_reports_largest_changes_first(self):
        before = result(100, walks=100.0, hits=1000.0)
        after = result(100, walks=10.0, hits=990.0)
        diffs = counter_diff(before, after)
        assert diffs[0][0] == "walks"
        assert diffs[0][3] == pytest.approx(-0.9)

    def test_prefix_filter(self):
        before = result(100, **{"a.x": 1.0, "b.y": 1.0})
        after = result(100, **{"a.x": 2.0, "b.y": 2.0})
        diffs = counter_diff(before, after, prefixes=["a."])
        assert [d[0] for d in diffs] == ["a.x"]

    def test_threshold(self):
        before = result(100, x=1000.0)
        after = result(100, x=1001.0)
        assert counter_diff(before, after, min_relative_change=0.01) == []
