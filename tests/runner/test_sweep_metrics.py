"""Sweep-level metrics: collection, aggregation, journal round-trip,
and the JSONL dump."""

from __future__ import annotations

import json

from repro.runner import (
    SerialSweepRunner,
    expand_grid,
    read_sweep_metrics,
    run_trial_spec,
)
from repro.runner.journal import outcome_from_json, outcome_to_json
from repro.runner.metrics_io import aggregate_from_file, iter_trial_metrics
from repro.runner.runner import run_trial_outcome
from repro.runner.spec import TrialSpec


def _specs(**common):
    return expand_grid(
        ["gdnpeu"], ["dom-nontso"], (0, 1), collect_metrics=True, **common
    )


class TestCollection:
    def test_summary_carries_metrics(self):
        spec = _specs()[0]
        summary = run_trial_spec(spec)
        assert summary.metrics is not None
        assert summary.metrics["counters"]["core0.pipeline.retired"] > 0
        assert summary.metrics["gauges"]["machine.cycles"] == summary.cycles
        # Stage histograms come from the stage-filtered tracer.
        assert (
            summary.metrics["histograms"]["core0.stage.dispatch_to_issue"][
                "count"
            ]
            > 0
        )

    def test_metrics_off_by_default(self):
        spec = TrialSpec(victim="gdnpeu", scheme="dom-nontso", secret=1)
        assert run_trial_spec(spec).metrics is None

    def test_collection_does_not_perturb_results(self):
        base = TrialSpec(victim="gdnpeu", scheme="dom-nontso", secret=1)
        with_metrics = TrialSpec(
            victim="gdnpeu",
            scheme="dom-nontso",
            secret=1,
            collect_metrics=True,
        )
        a = run_trial_spec(base)
        b = run_trial_spec(with_metrics)
        assert (a.cycles, a.access_cycle, a.visible) == (
            b.cycles,
            b.access_cycle,
            b.visible,
        )


class TestAggregation:
    def test_aggregate_metrics_merges_trials(self):
        result = SerialSweepRunner().run(_specs())
        result.raise_if_failed()
        agg = result.aggregate_metrics()
        per_trial = [
            s.metrics["counters"]["core0.pipeline.retired"]
            for s in result.summaries
        ]
        assert agg.counter("core0.pipeline.retired") == sum(per_trial)
        # Gauges keep the max across trials.
        assert agg.gauge("machine.cycles") == max(
            s.cycles for s in result.summaries
        )
        # Histograms hold one per-trial mean each.
        hist = agg.histogram("core0.stage.dispatch_to_issue")
        assert hist.count == len(result.summaries)

    def test_aggregate_empty_without_collection(self):
        specs = expand_grid(["gdnpeu"], ["dom-nontso"], (1,))
        result = SerialSweepRunner().run(specs)
        assert len(result.aggregate_metrics()) == 0


class TestJournalRoundTrip:
    def test_outcome_with_metrics_survives_json(self):
        outcome = run_trial_outcome(_specs()[0])
        assert outcome.ok
        rebuilt = outcome_from_json(
            json.loads(json.dumps(outcome_to_json(outcome)))
        )
        assert rebuilt.summary.metrics == outcome.summary.metrics

    def test_outcome_without_metrics_omits_key(self):
        spec = TrialSpec(victim="gdnpeu", scheme="dom-nontso", secret=1)
        outcome = run_trial_outcome(spec)
        data = outcome_to_json(outcome)
        assert "metrics" not in data["summary"]
        assert outcome_from_json(data).summary.metrics is None


class TestMetricsDump:
    def test_run_writes_jsonl_dump(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        result = SerialSweepRunner().run(_specs(), metrics_path=str(path))
        result.raise_if_failed()
        records = read_sweep_metrics(path)
        kinds = [r["kind"] for r in records]
        assert kinds == ["trial"] * len(result.summaries) + ["aggregate"]
        assert records[-1]["trials"] == len(result.summaries)
        assert records[-1]["failures"] == 0
        # The dump's aggregate equals the in-memory aggregation.
        assert records[-1]["metrics"] == result.aggregate_metrics().to_json()

    def test_aggregate_from_file_matches(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        result = SerialSweepRunner().run(_specs(), metrics_path=str(path))
        rebuilt = aggregate_from_file(path)
        agg = result.aggregate_metrics()
        assert rebuilt.counters == agg.counters
        assert rebuilt.gauges == agg.gauges

    def test_iter_trial_metrics_skips_aggregate(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        result = SerialSweepRunner().run(_specs(), metrics_path=str(path))
        trials = list(iter_trial_metrics(path))
        assert len(trials) == len(result.summaries)
        assert all(r["kind"] == "trial" for r in trials)

    def test_torn_final_line_reads_up_to_last_complete_line(self, tmp_path):
        """An interrupted dump is parseable up to its last complete
        line: a second trial line cut in the middle is skipped."""
        path = tmp_path / "metrics.jsonl"
        SerialSweepRunner().run(_specs(), metrics_path=str(path))
        lines = path.read_text().splitlines(keepends=True)
        path.write_text(lines[0] + lines[1][: len(lines[1]) // 2])
        records = read_sweep_metrics(path)
        assert records == [json.loads(lines[0])]
        assert len(list(iter_trial_metrics(path))) == 1
        assert aggregate_from_file(path).counters
