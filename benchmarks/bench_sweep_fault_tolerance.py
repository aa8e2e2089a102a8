"""Fault-tolerant sweep smoke: the acceptance scenario, measured.

Runs one mixed sweep through the injection harness — a permanently
deadlocking trial, a single-shot worker kill, and a mid-sweep
interruption with journal resume — and reports what the resilience layer
did: which trial failed (as data), what got retried, how many trials the
resume skipped, and that every surviving summary is bit-identical to a
fault-free reference.
"""

import tempfile
import os

import pytest

from repro.runner import (
    FaultPlan,
    FaultSpec,
    ParallelSweepRunner,
    SerialSweepRunner,
    TrialJournal,
)
from repro.runner import faults

from _common import SWEEP_VICTIMS as VICTIMS
from _common import emit_report, sweep_grid

SCHEMES = ["dom-nontso", "invisispec-spectre", "fence-spectre"]

PLAN = FaultPlan((
    FaultSpec("deadlock", victim="gdnpeu", scheme="dom-nontso",
              secret=1, at_cycle=100, max_attempts=99),
    FaultSpec("worker-kill", victim="gdmshr", scheme="fence-spectre",
              secret=0, max_attempts=1),
))


def faulted_resumed_sweep():
    specs = sweep_grid(VICTIMS, SCHEMES)
    reference = SerialSweepRunner().run(specs)
    with tempfile.TemporaryDirectory(prefix="repro-ft-bench-") as workdir:
        journal = TrialJournal(os.path.join(workdir, "sweep.jsonl"))
        faults.install_plan(PLAN)
        try:
            with ParallelSweepRunner(2, chunksize=1) as runner:
                runner.run(specs[: len(specs) // 2], journal=journal)
            checkpointed = len(journal)
            with ParallelSweepRunner(2, chunksize=1) as runner:
                result = runner.run(specs, journal=journal)
        finally:
            faults.clear_plan()
    return specs, reference, checkpointed, result


@pytest.mark.benchmark(group="fault-tolerance")
def test_bench_sweep_fault_tolerance(benchmark):
    specs, reference, checkpointed, result = benchmark.pedantic(
        faulted_resumed_sweep, rounds=1, iterations=1
    )
    retried = [o for o in result.outcomes if o.ok and o.attempts > 1]
    max_attempts = max((o.attempts for o in result.outcomes), default=0)
    kill = next(o for o in result.outcomes
                if (o.victim, o.scheme, o.secret) == ("gdmshr", "fence-spectre", 0))
    lines = [
        "Fault-tolerant sweep smoke (deadlock + worker kill + resume)",
        f"  grid:          {len(specs)} trials "
        f"({len(VICTIMS)} victims x {len(SCHEMES)} schemes x 2 secrets)",
        f"  checkpointed:  {checkpointed} trials before the 'interrupt'",
        f"  resumed:       {len(result)} ok / {len(result.failures)} failed",
        f"  retried ok:    {len(retried)} trials (max attempts {max_attempts})",
        "",
        "Failures (structured records, not crashes):",
    ]
    lines += [f"  {f.describe()}" for f in result.failures]
    emit_report(
        "sweep_fault_tolerance",
        "\n".join(lines),
        data={
            "grid": len(specs),
            "checkpointed": checkpointed,
            "resumed": {"ok": len(result), "failed": len(result.failures)},
            "retried_ok": len(retried),
            "max_attempts": max_attempts,
            "failures": [
                {"trial": f"{f.victim}/{f.scheme}/{f.secret}", "status": f.status.value}
                for f in result.failures
            ],
            "killed_trial": {
                "trial": "gdmshr/fence-spectre/0",
                "status": kill.status.value,
                "attempts": kill.attempts,
            },
        },
    )

    # The deadlock is the only failure, and it is attributable.
    assert [f.status.value for f in result.failures] == ["deadlock"]
    assert "victim=" in result.failures[0].error_message
    # The killed worker's trial converged via retry.
    assert kill.ok and kill.attempts >= 2
    # Every surviving summary is bit-identical to the fault-free run.
    expected = [s for s in reference
                if (s.victim, s.scheme, s.secret) != ("gdnpeu", "dom-nontso", 1)]
    assert result.succeeded() == expected
