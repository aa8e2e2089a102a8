"""Timeline rows rebuilt from the structured trace, for the Figure
3/4/5 scenarios."""

from __future__ import annotations

from repro.analysis.timeline import render_timeline, timeline_rows
from repro.core.harness import run_victim_trial
from repro.core.victims import victim_by_name
from repro.trace import EventKind, Tracer


def _traced(victim, scheme, secret):
    tracer = Tracer()
    result = run_victim_trial(
        victim_by_name(victim), scheme, secret, tracer=tracer
    )
    return result, tracer


def test_timeline_rows_accepts_tracer_and_event_iterable():
    result, tracer = _traced("gdnpeu", "dom-nontso", 1)
    from_tracer = timeline_rows(tracer)
    from_list = timeline_rows(list(tracer.events))
    assert from_tracer
    assert from_tracer == from_list == timeline_rows(result.events)


def test_name_filter_applies_to_event_rows():
    _, tracer = _traced("gdnpeu", "dom-nontso", 1)
    rows = timeline_rows(tracer, names=["gadget"])
    assert rows
    assert all(r.name.startswith("gadget") for r in rows)


def test_render_from_event_rows():
    _, tracer = _traced("gdnpeu", "dom-nontso", 1)
    text = render_timeline(timeline_rows(tracer), title="fig3")
    assert "fig3" in text
    assert "gadget0" in text
    assert "x" in text  # the squashed transient gadget


def test_squashed_rows_require_dispatch():
    # Fetch-queue squashes never reached the ROB and must not appear.
    _, tracer = _traced("gdnpeu", "dom-nontso", 1)
    rows = timeline_rows(tracer)
    for row in rows:
        if row.squashed:
            assert row.dispatch is not None


def test_row_keeps_first_issue_of_a_preempted_instruction():
    # Under ``priority`` an older ready op evicts a younger occupant of
    # the non-pipelined unit, which then issues again: its row carries
    # the first of its ISSUE events.
    result, tracer = _traced("gdnpeu", "priority", 1)
    assert result.core.stats.eu_preemptions >= 1
    issues = {}
    for event in tracer.filtered(kinds=[EventKind.ISSUE]):
        issues.setdefault(event.seq, []).append(event.cycle)
    reissued = {seq: cycles for seq, cycles in issues.items() if len(cycles) >= 2}
    assert reissued
    rows = {row.seq: row for row in timeline_rows(tracer)}
    for seq, cycles in reissued.items():
        assert rows[seq].issue == cycles[0] < cycles[-1]
