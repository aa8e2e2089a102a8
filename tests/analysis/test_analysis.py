"""Tests for histograms, timelines, and report tables."""

import pytest

from repro.analysis import (
    Histogram,
    ascii_histogram,
    format_table,
    render_timeline,
    timeline_rows,
)
from repro.isa import ProgramBuilder
from repro.memory.hierarchy import CacheHierarchy
from repro.pipeline import Core
from repro.trace import Tracer, install_tracer

from tests.conftest import small_hierarchy_config


class TestHistogram:
    def test_stats(self):
        h = Histogram()
        h.extend([10, 12, 14])
        assert h.count == 3
        assert h.mean == 12
        assert h.stdev == pytest.approx(2.0)

    def test_percentile(self):
        h = Histogram(samples=list(range(100)))
        assert h.percentile(50) == 50
        assert h.percentile(99) == 99

    def test_percentile_empty_raises(self):
        with pytest.raises(ValueError):
            Histogram().percentile(50)

    def test_bins(self):
        h = Histogram(samples=[0, 1, 5, 6, 6])
        bins = dict(h.bins(5, 0, 10))
        assert bins[0] == 2
        assert bins[5] == 3

    def test_ascii_render(self):
        a = Histogram(samples=[10] * 5 + [12] * 2)
        b = Histogram(samples=[30] * 4)
        text = ascii_histogram({"base": a, "interf": b}, bin_width=4, title="T")
        assert "T" in text
        assert "base" in text and "interf" in text
        assert "#" in text and "*" in text

    def test_ascii_empty(self):
        text = ascii_histogram({"x": Histogram()}, title="none")
        assert "no samples" in text


class TestTimeline:
    def make_trace(self):
        b = ProgramBuilder()
        b.imm("a", 1, name="alpha")
        b.addi("b", "a", 2, name="beta")
        b.load_addr("c", 0x9000, name="gamma")
        core = Core(0, b.build(), CacheHierarchy(1, small_hierarchy_config()))
        tracer = install_tracer(Tracer(), core=core)
        core.run(max_cycles=50_000)
        return tracer

    def test_rows_extracted_in_order(self):
        rows = timeline_rows(self.make_trace())
        assert [r.name for r in rows][:3] == ["alpha", "beta", "gamma"]
        for row in rows:
            if row.issue is not None:
                assert row.fetch <= row.issue

    def test_name_filter(self):
        rows = timeline_rows(self.make_trace(), names=["beta"])
        assert [r.name for r in rows] == ["beta"]

    def test_render_contains_markers(self):
        text = render_timeline(timeline_rows(self.make_trace()), title="demo")
        assert "demo" in text
        assert "alpha" in text
        assert "I" in text and "C" in text

    def test_render_empty(self):
        assert "(no events)" in render_timeline([], title="x")


class TestFormatTable:
    def test_alignment_and_title(self):
        text = format_table(
            ["name", "value"],
            [["a", 1], ["long-name", 123]],
            title="My Table",
            align_right=[1],
        )
        lines = text.splitlines()
        assert lines[0] == "My Table"
        assert lines[-1].endswith("123")

    def test_column_sizing(self):
        text = format_table(["x"], [["wiiiiiide"]])
        assert "wiiiiiide" in text
