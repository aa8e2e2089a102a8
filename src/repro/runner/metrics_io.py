"""Sweep-metrics JSONL dump, written alongside the trial journal.

One line per *succeeded* trial carrying its hierarchical metrics (the
:meth:`repro.trace.MetricsRegistry.to_json` form collected when the
spec set ``collect_metrics=True``), followed by one aggregate line
folding every trial together with the registry merge semantics
(counters add, gauges keep the max, histograms pool per-trial means).

The format is line-oriented on purpose: a partially written dump from
an interrupted sweep is still parseable up to the last complete line,
and downstream tooling (pandas, jq) can stream it without loading the
whole sweep.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterator, List

from repro.runner.spec import SweepResult, TrialSummary
from repro.trace.metrics import MetricsRegistry


def _trial_record(summary: TrialSummary) -> Dict[str, Any]:
    return {
        "kind": "trial",
        "victim": summary.victim,
        "scheme": summary.scheme,
        "secret": summary.secret,
        "seed": summary.seed,
        "cycles": summary.cycles,
        "metrics": summary.metrics,
    }


def _aggregate_record(result: SweepResult) -> Dict[str, Any]:
    merged = result.aggregate_metrics()
    return {
        "kind": "aggregate",
        "trials": len(result.summaries),
        "failures": len(result.failures),
        "metrics": merged.to_json(),
    }


def write_sweep_metrics(path, result: SweepResult) -> str:
    """Dump one sweep's metrics as JSONL; returns the path written.

    Every succeeded trial contributes one ``{"kind": "trial", ...}``
    line (``metrics`` is null for specs that did not collect any), and
    the file ends with a single ``{"kind": "aggregate", ...}`` line.
    """
    path = os.fspath(path)
    with open(path, "w", encoding="utf-8") as fh:
        for summary in result.summaries:
            fh.write(
                json.dumps(
                    _trial_record(summary),
                    sort_keys=True,
                    separators=(",", ":"),
                )
                + "\n"
            )
        fh.write(
            json.dumps(
                _aggregate_record(result),
                sort_keys=True,
                separators=(",", ":"),
            )
            + "\n"
        )
    return path


def read_sweep_metrics(path) -> List[Dict[str, Any]]:
    """All records from a sweep-metrics dump, in file order; an
    undecodable line (the torn tail of an interrupted dump) is
    skipped."""
    records = []
    with open(os.fspath(path), "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except ValueError:
                continue
    return records


def iter_trial_metrics(path) -> Iterator[Dict[str, Any]]:
    """Just the per-trial records (skips the aggregate line)."""
    for record in read_sweep_metrics(path):
        if record.get("kind") == "trial":
            yield record


def aggregate_from_file(path) -> MetricsRegistry:
    """Rebuild the merged registry from a dump's per-trial lines.

    Equivalent to :meth:`SweepResult.aggregate_metrics` on the original
    in-memory result (modulo histogram summarization, which both paths
    share): useful for re-aggregating a dump after the fact or merging
    several sweeps' dumps.
    """
    merged = MetricsRegistry()
    for record in iter_trial_metrics(path):
        if record.get("metrics") is not None:
            merged.merge_json(record["metrics"])
    return merged
